//! What a streaming run reports, and the one place it is counted.
//!
//! The scheduler does no counter arithmetic of its own: everything it
//! observes is a [`edvit_metrics::RunEvent`], and every event goes through
//! the run's [`edvit_metrics::Ledger`], which folds it into
//! [`StreamCounters`] (see [`StreamCounters::apply`]) and forwards it to the
//! configured sink. A [`StreamReport`] *holds* that fold next to the fused
//! outputs — which is why the journal's offline replay reproduces it bitwise.

use std::ops::Deref;

use edvit_edge::PayloadCodec;
use edvit_metrics::StreamCounters;
use edvit_partition::SplitPlan;
use edvit_tensor::Tensor;

use crate::{Result, SchedError, ScheduleMode, StreamConfig};

/// Everything a streaming run reports: the fused outputs, how the run was
/// configured, and its membership, health and virtual-timing accounting —
/// the [`StreamCounters`] the report derefs to, so `report.retries` reads
/// the fold's field.
#[derive(Debug)]
pub struct StreamReport {
    /// Fused output per input sample, in input order. Every sample appears
    /// exactly once — the scheduler errors out rather than dropping or
    /// double-fusing a sample across a repartition.
    pub outputs: Vec<Tensor>,
    /// Scheduling mode of the run.
    pub mode: ScheduleMode,
    /// Wire codec the devices encoded their batch frames with.
    pub codec: PayloadCodec,
    /// The plan in force when the stream finished (re-assigned if devices
    /// died or joined).
    pub final_plan: SplitPlan,
    /// The fold of the run's events: every accounting field of the report,
    /// equal to [`edvit_metrics::RunJournal::replay_stream`] of the run's
    /// journal bitwise.
    pub counters: StreamCounters,
    // Copies of five counters, for the one caller (perfbench) that reads
    // them by field after moving `outputs` out of the report, where a deref
    // no longer borrows. The `benchmark` PR that gives perfbench `counters`
    // deletes them.
    /// Copy of [`StreamCounters::rounds`].
    pub rounds: usize,
    /// Copy of [`StreamCounters::bytes_on_wire`].
    pub bytes_on_wire: u64,
    /// Copy of [`StreamCounters::data_frames`].
    pub data_frames: usize,
    /// Copy of [`StreamCounters::control_frames`].
    pub control_frames: usize,
    /// Copy of [`StreamCounters::max_rounds_in_flight`].
    pub max_rounds_in_flight: usize,
}

impl Deref for StreamReport {
    type Target = StreamCounters;

    fn deref(&self) -> &StreamCounters {
        &self.counters
    }
}

impl StreamReport {
    /// The report of a finished run: the fused outputs plus the ledger's
    /// fold.
    pub(crate) fn new(
        outputs: Vec<Tensor>,
        config: &StreamConfig,
        final_plan: SplitPlan,
        counters: StreamCounters,
    ) -> Self {
        StreamReport {
            outputs,
            mode: config.mode,
            codec: config.codec,
            final_plan,
            rounds: counters.rounds,
            bytes_on_wire: counters.bytes_on_wire,
            data_frames: counters.data_frames,
            control_frames: counters.control_frames,
            max_rounds_in_flight: counters.max_rounds_in_flight,
            counters,
        }
    }

    /// A copy of the report's accounting, for comparing with a replay.
    pub fn counters(&self) -> StreamCounters {
        self.counters.clone()
    }

    /// Argmax prediction per sample, for classification-style fusion outputs.
    ///
    /// # Errors
    ///
    /// Returns an error if any output is empty.
    pub fn predictions(&self) -> Result<Vec<usize>> {
        self.outputs
            .iter()
            .map(|o| {
                o.argmax().map_err(|e| SchedError::Runtime {
                    message: format!("empty fusion output: {e}"),
                })
            })
            .collect()
    }
}
