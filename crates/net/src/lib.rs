//! # edvit-net
//!
//! The transport layer: the [`Transport`] trait the round executors speak
//! (defined in `edvit-edge` next to the one-shot executor, re-exported
//! here), its two backends, and the multi-process cluster primitives.
//!
//! The trait was extracted from the scheduler's hard-wired channel
//! plumbing, so its contract is exactly what the scheduler already relied
//! on: per-peer ordered lanes whose sends block when the lane is full,
//! in-band peer errors, and a single `Closed` event for every way a peer can
//! go away. [`SimTransport`] keeps that plumbing bit for bit (bounded
//! channels, virtual clock, fully deterministic — every existing test,
//! chaos drill and failover example runs on it unchanged);
//! [`TcpTransport`] carries the same contract over loopback sockets with
//! real wall-clock heartbeat deadlines mapped from the scheduler's
//! round-denominated grace window.
//!
//! Beside the `Transport` backends sit the sockets a cluster of real OS
//! processes is assembled from — [`Coordinator`] (join-handshake admission;
//! each admitted [`WorkerConn`] becomes a [`FrameRx`] lane) and
//! [`dial_lane`] (the device side, a synchronous [`FrameTx`]); what travels
//! over them, and how it is collected, is `edvit-sched`'s — and
//! [`run_batch_over_tcp`] ([`edvit_edge::ClusterRuntime::run_over`] handed a
//! [`TcpTransport`]: the one one-shot executor on socket lanes).
//!
//! The equivalence rule, stated once and enforced by the conformance suite:
//! **everything a report derives from frame *content* is
//! transport-independent** — predictions, fused outputs, payload and wire
//! byte counts, control-frame dedupe decisions are identical across
//! backends, because the same encoded bytes cross both. Only wall-clock
//! observations (which the reports label informational) may differ.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod batch;
mod cluster;
mod error;
mod framing;
mod tcp;
mod transport;

pub use batch::run_batch_over_tcp;
pub use cluster::{Coordinator, WorkerConn};
pub use error::NetError;
pub use framing::{read_envelope, write_envelope, Envelope, TAG_ERROR, TAG_FRAME};
pub use tcp::{
    backoff_delay, connect_with_backoff, dial_lane, TcpTransport, CONNECT_ATTEMPTS, RECONNECT_BASE,
};
pub use transport::{
    transport_for, FrameRx, FrameTx, LaneClosed, LaneEvent, SimTransport, Transport,
};

pub use edvit_edge::TransportKind;

/// Convenience result alias for transport operations.
pub type Result<T> = std::result::Result<T, NetError>;
