//! Runtime observability for the edge-ViT workspace.
//!
//! Two complementary artifacts, produced by one [`MetricsSink`] handle:
//!
//! - a [`MetricsRegistry`] of counters, gauges and fixed-bucket histograms
//!   with deterministic Prometheus-style text exposition ([`MetricsRegistry::expose`]),
//!   for at-a-glance dashboards; and
//! - an event-sourced [`RunJournal`] of typed [`RunEvent`]s, serializable to
//!   a line-oriented text form and replayable *offline* into
//!   [`StreamCounters`] / [`ServeCounters`] that reconstruct every
//!   accounting field of the live `StreamReport` / `ServeReport` **bitwise**
//!   ([`RunJournal::replay_stream`], [`RunJournal::replay_serve`]).
//!
//! Instrumented code holds a [`MetricsSink`], which defaults to a disabled
//! no-op; `MetricsSink::recording()` turns it on. All timestamps are virtual
//! (the schedulers' simulated clock) — this crate never reads wall time.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod error;
pub mod event;
pub mod journal;
pub mod registry;
pub mod sink;

pub use error::{MetricsError, Result};
pub use event::{EventFamily, EventRecord, ReplanCause, RunEvent};
pub use journal::{
    percentile, DepthStep, Fold, Ledger, RunJournal, ServeCounters, StreamCounters, TenantRow,
};
pub use registry::{MetricKind, MetricsRegistry, LATENCY_BUCKETS};
pub use sink::MetricsSink;
