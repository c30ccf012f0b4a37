//! Serving reports: per-tenant SLO statistics and the drill-wide summary.

use std::collections::BTreeMap;

use edvit_metrics::ServeCounters;
use edvit_sched::{DepthChange, StreamReport};
use edvit_tensor::Tensor;

use crate::TenantStats;

/// Everything a serving run reports: admission accounting, SLO percentiles,
/// batching/depth behaviour, recovery cost, and the fused outputs keyed by
/// request id.
#[derive(Debug)]
pub struct ServeReport {
    /// Per-tenant rows, in tenant index order.
    pub tenants: Vec<TenantStats>,
    /// Requests that arrived across all tenants.
    pub admitted: u64,
    /// Requests served to completion across all tenants.
    pub completed: u64,
    /// Requests shed across all tenants (overflow + deadline).
    pub shed: u64,
    /// Rounds the batcher formed.
    pub rounds_formed: usize,
    /// Rounds dispatched below the configured capacity (continuous batching
    /// never waits to fill — partial rounds are the feature, not a bug).
    pub partial_rounds: usize,
    /// Every adaptive pipeline-depth transition, in round order.
    pub depth_changes: Vec<DepthChange>,
    /// Pipeline depth the drill started at (post-clamp). The transition
    /// chain is anchored here: the first `depth_changes` entry, when any,
    /// departs *from* this value.
    pub initial_depth: usize,
    /// Pipeline depth after the last round.
    pub final_depth: usize,
    /// Median round-trip latency over all completed requests.
    pub p50_latency_seconds: f64,
    /// 99th-percentile round-trip latency over all completed requests.
    pub p99_latency_seconds: f64,
    /// The open-loop offered load, arrivals per virtual second.
    pub offered_rate_per_second: f64,
    /// Completions per virtual second actually achieved.
    pub served_samples_per_second: f64,
    /// Virtual time from the first arrival to the last completion.
    pub simulated_total_seconds: f64,
    /// Virtual seconds spent detecting crashes, re-planning, and replaying.
    pub recovery_seconds: f64,
    /// Device ids lost to mid-drill crashes, in crash order.
    pub devices_lost: Vec<usize>,
    /// Fused model outputs keyed by request id. Every dispatched request has
    /// an output here — shedding is the only way to lose a request.
    pub outputs: BTreeMap<u64, Tensor>,
    /// The embedded streaming scheduler's report, when any round executed
    /// (`None` when every request was shed or none arrived).
    pub stream: Option<StreamReport>,
}

impl ServeReport {
    /// `true` when every admitted request was either completed or shed —
    /// i.e. none silently vanished.
    pub fn no_lost_requests(&self) -> bool {
        self.admitted == self.completed + self.shed && self.outputs.len() as u64 == self.completed
    }

    /// The accounting projection of this report, in the shape an offline
    /// [`edvit_metrics::RunJournal::replay_serve`] reconstructs — the two
    /// must match bitwise for a journaled run.
    pub fn counters(&self) -> ServeCounters {
        ServeCounters {
            tenants: self.tenants.clone(),
            admitted: self.admitted,
            completed: self.completed,
            shed: self.shed,
            rounds_formed: self.rounds_formed,
            partial_rounds: self.partial_rounds,
            depth_changes: self.depth_changes.clone(),
            initial_depth: self.initial_depth,
            final_depth: self.final_depth,
            p50_latency_seconds: self.p50_latency_seconds,
            p99_latency_seconds: self.p99_latency_seconds,
            offered_rate_per_second: self.offered_rate_per_second,
            served_samples_per_second: self.served_samples_per_second,
            simulated_total_seconds: self.simulated_total_seconds,
            recovery_seconds: self.recovery_seconds,
            devices_lost: self.devices_lost.clone(),
        }
    }
}
