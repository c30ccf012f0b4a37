//! `edvit-serve`: the continuous-batching request front-door with
//! multi-tenant admission control.
//!
//! The crates below this one answer "how fast does a *stream* of samples
//! flow through a partitioned ViT?". This crate answers the serving
//! question: *concurrent requests from named tenants arrive on their own
//! clock* — who gets admitted, how queued requests coalesce into cluster
//! rounds, and what latency each tenant actually observes.
//!
//! The pieces:
//!
//! * [`TenantSpec`] / [`ArrivalSpec`] — tenants with bounded queues and
//!   optional deadlines; a seeded open-loop Poisson arrival process on the
//!   virtual clock (same seed, bit-identical drill).
//! * [`AdmissionQueue`] — per-tenant FIFOs with overflow shedding at
//!   arrival, deadline shedding at dispatch, and persistent round-robin
//!   draining so no tenant starves another.
//! * [`ServeScheduler`] — the front door. [`ServeScheduler::drill`] is the
//!   pure virtual-time event loop (continuous batching: fill a round from
//!   whatever is queued, never wait for stragglers; adaptive pipeline depth
//!   via [`DepthController`]; scripted crashes recovered by re-planning onto
//!   survivors). [`ServeScheduler::run`] executes the formed rounds through
//!   the streaming scheduler's [`RoundLayout`] seam so every dispatched
//!   request yields a real fused tensor, exactly once.
//! * [`ServeReport`] — per-tenant p50/p99 round-trip latency, queue
//!   high-water marks, admitted/shed/completed counters, depth transitions,
//!   recovery cost, and outputs keyed by request id.
//!
//! All timing is virtual ([`edvit_sched::SimClock`] semantics): a drill over
//! thousands of requests runs in microseconds of host time and reports
//! deterministic latency percentiles.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod admission;
mod error;
mod report;
mod request;
mod server;

pub use admission::{AdmissionQueue, AdmissionVerdict};
pub use error::ServeError;
pub use report::ServeReport;
pub use request::{ArrivalSpec, Request, TenantSpec};
pub use server::{DrillOutcome, PlannedRound, ServeConfig, ServeScheduler};

// Re-export the pieces callers configure a server with, so downstream code
// does not need to depend on the scheduler crates directly.
pub use edvit_metrics::{percentile, DepthStep, MetricsSink, RunJournal, ServeCounters, TenantRow};
pub use edvit_sched::{DepthController, RoundLayout, StreamConfig, StreamReport};

/// Convenience alias for results carrying a [`ServeError`].
pub type Result<T> = std::result::Result<T, ServeError>;
