//! The serving report: the fused outputs next to the drill's accounting.

use std::collections::BTreeMap;
use std::ops::Deref;

use edvit_metrics::ServeCounters;
use edvit_sched::StreamReport;
use edvit_tensor::Tensor;

/// Everything a serving run reports: the fused outputs keyed by request id,
/// the embedded streaming run, and the drill's accounting — admission, SLO
/// percentiles, batching/depth behaviour and recovery cost — as the
/// [`ServeCounters`] the report derefs to, so `report.completed` reads the
/// fold's field.
#[derive(Debug)]
pub struct ServeReport {
    /// Fused model outputs keyed by request id. Every dispatched request has
    /// an output here — shedding is the only way to lose a request.
    pub outputs: BTreeMap<u64, Tensor>,
    /// The embedded streaming scheduler's report, when any round executed
    /// (`None` when every request was shed or none arrived).
    pub stream: Option<StreamReport>,
    /// The fold of the drill's events: every accounting field of the report,
    /// equal to [`edvit_metrics::RunJournal::replay_serve`] of the run's
    /// journal bitwise.
    pub counters: ServeCounters,
}

impl Deref for ServeReport {
    type Target = ServeCounters;

    fn deref(&self) -> &ServeCounters {
        &self.counters
    }
}

impl ServeReport {
    /// `true` when every admitted request was either completed or shed —
    /// i.e. none silently vanished.
    pub fn no_lost_requests(&self) -> bool {
        self.admitted == self.completed + self.shed && self.outputs.len() as u64 == self.completed
    }

    /// A copy of the report's accounting, for comparing with a replay.
    pub fn counters(&self) -> ServeCounters {
        self.counters.clone()
    }
}
