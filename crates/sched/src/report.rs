//! What a streaming run reports, and the one place it is counted.
//!
//! The scheduler does no counter arithmetic of its own: everything it
//! observes is a [`RunEvent`], and every event goes through the one
//! `Ledger::record`, which folds it into the run's [`StreamCounters`] (see
//! [`StreamCounters::apply`]) and forwards it to the configured sink. The
//! [`StreamReport`]'s accounting fields are that fold, copied out when the
//! stream ends — which is why the journal's offline replay reproduces them
//! bitwise.

use std::collections::BTreeMap;

use edvit_edge::PayloadCodec;
use edvit_metrics::{MetricsSink, RunEvent, StreamCounters};
use edvit_partition::SplitPlan;
use edvit_tensor::Tensor;

use crate::{Result, SchedError, ScheduleMode, StreamConfig};

/// Everything a streaming run reports: fused outputs plus membership, health
/// and virtual-timing accounting.
#[derive(Debug)]
pub struct StreamReport {
    /// Fused output per input sample, in input order. Every sample appears
    /// exactly once — the scheduler errors out rather than dropping or
    /// double-fusing a sample across a repartition.
    pub outputs: Vec<Tensor>,
    /// Scheduling mode of the run.
    pub mode: ScheduleMode,
    /// Samples per round.
    pub round_size: usize,
    /// Wire codec the devices encoded their batch frames with.
    pub codec: PayloadCodec,
    /// Total rounds fused.
    pub rounds: usize,
    /// Membership epochs executed (1 + number of repartitions).
    pub epochs: usize,
    /// Most rounds simultaneously in flight (produced by some device but not
    /// yet fused), as observed by the fusion worker. This is the one
    /// scheduling-dependent statistic in the report — bounded by
    /// `pipeline_depth + 1`, but where it lands inside that bound depends on
    /// OS thread interleaving; every timing and replay number is
    /// deterministic. Always 0 from [`crate::StreamScheduler::collect_lanes`]:
    /// the collector cannot see how far a remote producer has run ahead.
    pub max_rounds_in_flight: usize,
    /// Heartbeat control frames observed.
    pub heartbeats_seen: u64,
    /// All control frames observed (join + leave + heartbeat).
    pub control_frames: usize,
    /// Feature-batch data frames observed.
    pub data_frames: usize,
    /// Encoded bytes shipped over the channel (data + control frames),
    /// including corrupted and duplicated deliveries — they travelled too.
    pub bytes_on_wire: u64,
    /// Encoded bytes each device shipped, keyed by device id. Devices that
    /// joined in any epoch appear, including ones that later died.
    pub per_device_wire_bytes: BTreeMap<usize, u64>,
    /// Rounds each device delivered (heartbeats received from it), keyed by
    /// device id and accumulated across epochs.
    pub per_device_rounds: BTreeMap<usize, u64>,
    /// Devices declared dead, in detection order (crashes and links whose
    /// retry budget ran out).
    pub devices_lost: Vec<usize>,
    /// Devices admitted mid-stream via a `Join` frame, in admission order.
    pub devices_joined: Vec<usize>,
    /// How many of those admissions were rejoins — a previously dead or
    /// departed id coming back as a new identity-epoch.
    pub rejoins: usize,
    /// Times the planner re-assigned sub-models (deaths and joins).
    pub repartitions: usize,
    /// Samples that were in flight at a death and had to be recomputed.
    pub samples_replayed: usize,
    /// Data-frame re-requests issued after corrupt, truncated or dropped
    /// deliveries. Bounded by `max_retries` per frame.
    pub retries: u64,
    /// Virtual seconds spent in retry backoff, already included in
    /// `simulated_total_seconds`.
    pub retry_seconds: f64,
    /// Failed deliveries observed: frames that arrived corrupted or
    /// truncated, or data frames the link ate.
    pub corrupt_frames: u64,
    /// Data frames whose payload duplicated already-stashed samples
    /// (first delivery wins; the copy is counted and discarded).
    pub duplicate_frames: u64,
    /// Heartbeat beacons the link ate. A lost beacon is not retried — the
    /// next fresh beacon or the device's leave closes the round instead.
    pub dropped_heartbeats: u64,
    /// Control frames rejected by the sequence deduper as replays or stale
    /// reorderings.
    pub stale_control_frames: u64,
    /// Heartbeats the health tracker ignored as stale (replayed, reordered,
    /// wrapped, or sent by an already-terminal device).
    pub stale_heartbeats: u64,
    /// Rounds fused in degraded mode (some sub-model unhosted, its feature
    /// zero-filled), in fusion order.
    pub degraded_rounds: Vec<u64>,
    /// Sub-models left unhosted by the *final* membership (empty when the
    /// stream ended at full fidelity).
    pub missing_sub_models: Vec<usize>,
    /// Virtual seconds from a device's death to its sub-models producing
    /// fused output again: detection (the missed heartbeat plus the
    /// `grace_rounds` deadline) + re-planning + replaying the in-flight
    /// rounds. Zero when no device died.
    pub recovery_seconds: f64,
    /// Steady-state throughput of the final membership, from the analytic
    /// stream timing at the *nominal* round size — what the pipeline would
    /// sustain if every round were full.
    pub steady_state_samples_per_second: f64,
    /// Realized throughput: samples actually fused divided by the virtual
    /// end-to-end time. Unlike the steady-state figure this divides by what
    /// the rounds really carried, so an under-filled final round (or a
    /// stream of partial continuous batches) is priced at its true sample
    /// count instead of the nominal `round_size`.
    pub effective_samples_per_second: f64,
    /// Virtual end-to-end seconds on the [`crate::SimClock`].
    pub simulated_total_seconds: f64,
    /// The plan in force when the stream finished (re-assigned if devices
    /// died or joined).
    pub final_plan: SplitPlan,
    /// The fold every accounting field above was copied out of.
    counters: StreamCounters,
}

/// The run's accounting. Every event the scheduler observes goes through
/// [`Ledger::record`], which folds it into the run's [`StreamCounters`] —
/// always, so the report never depends on the sink — and forwards it to the
/// sink (the optional journal and registry). No counter changes anywhere
/// else: the report is this fold, and so is the journal's offline replay.
pub(crate) struct Ledger {
    pub(crate) counters: StreamCounters,
    pub(crate) sink: MetricsSink,
}

impl Ledger {
    pub(crate) fn record(&mut self, at: f64, event: RunEvent) {
        self.counters.apply(at, &event);
        self.sink.record(at, event);
    }
}

impl StreamReport {
    /// The report of a finished run: the fused outputs plus the ledger's
    /// fold, copied out once. (The accounting stays flat `pub` fields
    /// because callers read them by field after moving `outputs` out of the
    /// report.)
    pub(crate) fn new(
        outputs: Vec<Tensor>,
        config: &StreamConfig,
        final_plan: SplitPlan,
        counters: StreamCounters,
    ) -> Self {
        StreamReport {
            outputs,
            mode: config.mode,
            round_size: config.round_size,
            codec: config.codec,
            rounds: counters.rounds,
            epochs: counters.epochs,
            max_rounds_in_flight: counters.max_rounds_in_flight,
            heartbeats_seen: counters.heartbeats_seen,
            control_frames: counters.control_frames,
            data_frames: counters.data_frames,
            bytes_on_wire: counters.bytes_on_wire,
            per_device_wire_bytes: counters.per_device_wire_bytes.clone(),
            per_device_rounds: counters.per_device_rounds.clone(),
            devices_lost: counters.devices_lost.clone(),
            devices_joined: counters.devices_joined.clone(),
            rejoins: counters.rejoins,
            repartitions: counters.repartitions,
            samples_replayed: counters.samples_replayed,
            retries: counters.retries,
            retry_seconds: counters.retry_seconds,
            corrupt_frames: counters.corrupt_frames,
            duplicate_frames: counters.duplicate_frames,
            dropped_heartbeats: counters.dropped_heartbeats,
            stale_control_frames: counters.stale_control_frames,
            stale_heartbeats: counters.stale_heartbeats,
            degraded_rounds: counters.degraded_rounds.clone(),
            missing_sub_models: counters.missing_sub_models.clone(),
            recovery_seconds: counters.recovery_seconds,
            steady_state_samples_per_second: counters.steady_state_samples_per_second,
            effective_samples_per_second: counters.effective_samples_per_second,
            simulated_total_seconds: counters.simulated_total_seconds,
            final_plan,
            counters,
        }
    }

    /// The report's accounting fields as [`StreamCounters`]: the fold of the
    /// run's events itself, which is why it equals
    /// [`edvit_metrics::RunJournal::replay_stream`] of the run's journal
    /// bitwise.
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
