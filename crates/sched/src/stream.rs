//! The streaming scheduler: pipelined rounds over bounded transport lanes,
//! heartbeat health tracking, and live repartitioning on device death.
//!
//! # Execution model
//!
//! The input stream is cut into *rounds* of `round_size` samples. Execution
//! proceeds in *epochs*: one epoch per cluster membership. Within an epoch,
//! every active device runs on its own worker thread, processing rounds in
//! order: it computes the features of every sub-model it hosts, ships them as
//! wire-v2 [`FeatureBatchMessage`](edvit_edge::FeatureBatchMessage) frames,
//! and follows each round with a [`ControlMessage`] heartbeat. Every device
//! owns a *bounded* lane to the fusion worker — opened from the configured
//! [`Transport`] backend
//! ([`TransportKind::Sim`] for in-process channels, [`TransportKind::Tcp`]
//! for real loopback sockets) and sized for `pipeline_depth` rounds of
//! frames. When the fusion side falls behind, `send` blocks, so a device can
//! buffer at most
//! `pipeline_depth` undrained rounds (and thus run at most
//! `pipeline_depth + 1` rounds ahead of the fused frontier, counting the one
//! it is computing): the backpressure is explicit, not emergent, and
//! inter-device skew is bounded by construction.
//!
//! The fusion worker consumes the per-device lanes *round by round*: for
//! round *k* it drains every device's frames up to and including that round's
//! heartbeat, then fuses the round. Consumption order, not OS scheduling,
//! therefore decides what the collector observes — which keeps failure
//! detection deterministic. A device death (scripted or real) silences its
//! sender; the collector sees the disconnect exactly when it needs the dead
//! device's next round, declares the death (the [`HealthTracker`] records the
//! device's last heartbeat and terminal state), tears the epoch down, hands
//! the survivors to [`SplitPlan::replan_for_survivors`], and replays every
//! round that was produced but not fused. In-flight samples are recomputed,
//! never lost, and the exactly-once check on the output slots makes
//! duplication a hard error rather than a silent possibility.
//!
//! # Fault handling
//!
//! The collector applies a deterministic [`FaultScript`] to the bytes it
//! receives *before* decoding them — the same place a lossy link would bite.
//! A corrupted, truncated or eaten data frame is a failed delivery: the
//! collector re-requests it (the script indexes faults by attempt, so a
//! re-request can fail again) up to [`StreamConfig::max_retries`] times, each
//! retry priced at the analytic
//! [`StreamTiming::retry_backoff_seconds`](edvit_edge::StreamTiming) backoff.
//! A frame still failing past the budget escalates to device death — the same
//! repartition path a crash takes. Duplicated deliveries are absorbed:
//! feature frames by first-delivery-wins slot stashing, control frames by a
//! per-epoch [`ControlDeduper`] enforcing strict sequence monotonicity.
//!
//! Three membership events extend the state machine beyond death:
//!
//! * **elastic rejoin** — a scripted [`JoinInjection`] admits a device
//!   mid-stream via a real `Join` control frame (decode-validated, so a
//!   non-positive capacity offer is rejected like any other protocol error).
//!   The stream finishes the rounds before the join barrier, checkpoints the
//!   fused frontier, replans over the enlarged membership and opens a new
//!   epoch. A device id that previously died or left is admitted as a **new
//!   identity-epoch** ([`HealthTracker::observe_rejoin`]); an id that is
//!   still live is a [`SchedError::RejoinConflict`].
//! * **graceful degradation** — when a replan cannot host every sub-model,
//!   the scheduler (if [`StreamConfig::max_missing_sub_models`] allows) drops
//!   the largest sub-models via [`SplitPlan::replan_degraded`] and keeps
//!   fusing: missing features are zero-filled at their observed width so the
//!   fusion layout stays stable, and every round fused that way is listed in
//!   [`StreamReport::degraded_rounds`].
//! * **recovery to full fidelity** — a later join that makes the full set
//!   feasible again clears the missing list; degradation is a mode, not a
//!   ratchet.
//!
//! # Accounting
//!
//! The scheduler does no counter arithmetic of its own: everything it
//! observes is a [`RunEvent`], and every event goes through the one
//! `Ledger::record`, which folds it into the run's [`StreamCounters`] (see
//! [`StreamCounters::apply`]) and forwards it to the configured sink. The
//! [`StreamReport`]'s accounting fields are that fold, copied out when the
//! stream ends — which is why the journal's offline replay reproduces them
//! bitwise.
//!
//! # Timing
//!
//! Thread interleaving on the host machine is nondeterministic, so all
//! reported timing comes from the virtual [`SimClock`], advanced with the
//! analytic [`edvit_edge::StreamTiming`] model: barrier mode pays
//! device-stage + fusion-stage per round, pipelined mode pays the wider of
//! the two stages per round once the pipeline is full, and every retry pays
//! its round-denominated backoff.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use edvit_edge::{
    encode_device_round, ControlDeduper, ControlKind, ControlMessage, FeatureBatchMessage,
    FusionFn, LatencyModel, NetOptions, NetworkConfig, PayloadCodec, RoundTimings, SubModelFn,
    TransportKind, WireFrame,
};
use edvit_metrics::{MetricsSink, ReplanCause, RunEvent, StreamCounters};
use edvit_net::{transport_for, FrameRx, FrameTx, LaneEvent, Transport};
use edvit_partition::{DeviceSpec, PartitionError, SplitPlan};
use edvit_tensor::Tensor;

use crate::faults::{apply_fault, FaultScript, FaultedDelivery, FrameFault, FrameSlot};
use crate::rounds::RoundLayout;
use crate::{HealthTracker, JoinInjection, Result, SchedError, SimClock};

/// How rounds are scheduled relative to the fusion stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleMode {
    /// One buffered round at a time: a device may compute round *k+1* while
    /// the fusion worker drains round *k*, but blocks beyond that. The
    /// *timing model* is strictly serial — throughput is priced as the sum
    /// of the slowest device stage and the fusion stage.
    Barrier,
    /// Devices compute ahead of the fusion worker, buffering up to
    /// `pipeline_depth` undrained rounds before `send` blocks. Throughput is
    /// priced as the wider of the two stages.
    Pipelined,
}

/// Deterministic failure injection: the device goes silent (no leave frame,
/// no further heartbeats) instead of processing the given round. A scripted
/// death fires once per device id — a device that later rejoins (see
/// [`JoinInjection`]) starts its new identity-epoch unburdened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureInjection {
    /// Device to kill.
    pub device_id: usize,
    /// First (global) round id the device will not process. `0` means the
    /// device is dead on arrival; a value past the last round means it never
    /// dies.
    pub at_round: u64,
}

/// Configuration of one streaming run.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Samples per round (≥ 1).
    pub round_size: usize,
    /// How many undrained rounds a device may buffer ahead of the fusion
    /// worker before `send` blocks (≥ 1; forced to 1 in
    /// [`ScheduleMode::Barrier`]). Counting the round being computed, a
    /// device can be up to `pipeline_depth + 1` rounds past the fused
    /// frontier.
    pub pipeline_depth: usize,
    /// Barrier or pipelined scheduling.
    pub mode: ScheduleMode,
    /// Heartbeat deadline, in rounds: a device whose next heartbeat is this
    /// many round intervals overdue is declared dead. Governs the virtual
    /// detection latency charged to `recovery_seconds`.
    pub grace_rounds: u64,
    /// Network model used for the virtual timing.
    pub network: NetworkConfig,
    /// Analytic fusion cost per sample in MAC-FLOPs; 0 uses the latency
    /// model's default formula.
    pub fusion_flops: u64,
    /// Virtual seconds charged for one run of the re-planner.
    pub replan_seconds: f64,
    /// The planner's `L` (samples per energy-budget window) handed to the
    /// greedy assignment when re-planning onto survivors. This is *not* the
    /// wire round size: `L` prices energy, `round_size` prices batching.
    pub energy_samples_per_round: u64,
    /// Wire codec every device encodes its batch frames with (control frames
    /// always ship codec 0). Also prices the virtual timing via
    /// [`LatencyModel::with_options`].
    pub codec: PayloadCodec,
    /// Which backend carries the device→fusion lanes. The default
    /// [`TransportKind::Sim`] is the deterministic bounded-channel backend
    /// every test and chaos drill runs on; [`TransportKind::Tcp`] carries the
    /// identical frames over loopback sockets, with the heartbeat deadline
    /// mapped from rounds to wall time. Frame-content observables (outputs,
    /// byte counts, dedupe decisions) are transport-independent.
    pub transport: TransportKind,
    /// Scripted device deaths.
    pub failures: Vec<FailureInjection>,
    /// Scripted mid-stream joins, applied in `at_round` order. A join whose
    /// round lies past the end of the stream never fires.
    pub joins: Vec<JoinInjection>,
    /// Deterministic frame-fault script the collector applies at the
    /// wire/channel boundary. Empty by default.
    pub faults: FaultScript,
    /// How many times a corrupt, truncated or dropped data frame is
    /// re-requested before the link is declared dead. Each retry is priced
    /// at the analytic round-denominated backoff.
    pub max_retries: u32,
    /// How many sub-models the scheduler may leave unhosted (zero-filling
    /// their features at fusion) when a replan cannot cover the full set. The
    /// default of 0 disables degraded mode: an infeasible replan stays a
    /// hard [`SchedError::Partition`] error, exactly as before.
    pub max_missing_sub_models: usize,
    /// Observability sink the run records into. Disabled (a no-op) by
    /// default; [`edvit_metrics::MetricsSink::recording`] turns on the event
    /// journal and metrics registry. All events carry virtual timestamps.
    pub sink: MetricsSink,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            round_size: 4,
            pipeline_depth: 2,
            mode: ScheduleMode::Pipelined,
            grace_rounds: 2,
            network: NetworkConfig::paper_default(),
            fusion_flops: 0,
            replan_seconds: 0.05,
            energy_samples_per_round: 1,
            codec: PayloadCodec::F32,
            transport: TransportKind::Sim,
            failures: Vec::new(),
            joins: Vec::new(),
            faults: FaultScript::new(),
            max_retries: 2,
            max_missing_sub_models: 0,
            sink: MetricsSink::disabled(),
        }
    }
}

impl StreamConfig {
    /// Switches to barrier scheduling (the pre-streaming behaviour).
    pub fn barrier(mut self) -> Self {
        self.mode = ScheduleMode::Barrier;
        self
    }

    /// Applies the shared [`NetOptions`]: wire codec, transport backend and
    /// per-frame retry budget in one struct, the same surface
    /// `LatencyModel::with_options` and `ClusterRuntime::with_options`
    /// consume.
    pub fn with_options(mut self, options: &NetOptions) -> Self {
        self.codec = options.codec;
        self.transport = options.transport;
        self.max_retries = options.max_retries;
        self
    }

    /// The network-facing knobs of this configuration as a [`NetOptions`].
    pub fn net_options(&self) -> NetOptions {
        NetOptions::default()
            .with_codec(self.codec)
            .with_transport(self.transport)
            .with_max_retries(self.max_retries)
    }

    /// Adds a scripted device death before the given global round.
    pub fn with_failure(mut self, device_id: usize, at_round: u64) -> Self {
        self.failures.push(FailureInjection {
            device_id,
            at_round,
        });
        self
    }

    /// Adds a scripted mid-stream join: `device` offers its capacity at
    /// global round `at_round` and the scheduler opens a new membership
    /// epoch there.
    pub fn with_join(mut self, device: DeviceSpec, at_round: u64) -> Self {
        self.joins.push(JoinInjection { device, at_round });
        self
    }

    /// Installs a deterministic frame-fault script.
    pub fn with_faults(mut self, faults: FaultScript) -> Self {
        self.faults = faults;
        self
    }

    /// Allows degraded-mode fusion with up to this many unhosted sub-models.
    pub fn with_max_missing_sub_models(mut self, max_missing_sub_models: usize) -> Self {
        self.max_missing_sub_models = max_missing_sub_models;
        self
    }

    /// Installs an observability sink; pass a recording sink to capture the
    /// run's event journal and metrics.
    pub fn with_sink(mut self, sink: MetricsSink) -> Self {
        self.sink = sink;
        self
    }
}

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
    /// deterministic.
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
    /// Virtual end-to-end seconds on the [`SimClock`].
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
struct Ledger {
    counters: StreamCounters,
    sink: MetricsSink,
}

impl Ledger {
    fn record(&mut self, at: f64, event: RunEvent) {
        self.counters.apply(at, &event);
        self.sink.record(at, event);
    }
}

impl StreamReport {
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

/// What one epoch hands back to the scheduler loop: control state only —
/// everything the epoch *counted* went through the [`Ledger`].
#[derive(Default)]
struct EpochOutcome {
    newly_dead: Vec<usize>,
    rounds_fused: usize,
    /// Unfused rounds that had received at least one frame (in flight at the
    /// death) — these are the replayed rounds.
    partial_rounds: Vec<u64>,
    /// The epoch stopped at a scripted join barrier: the fused frontier is
    /// the checkpoint, nothing is replayed, membership changes next.
    join_due: bool,
    /// Most rounds in flight this epoch — what `EpochEnded` reports once the
    /// clock has been advanced past the epoch.
    max_in_flight: usize,
    /// Attempt number of every re-request issued, for backoff pricing.
    retry_attempts: Vec<u32>,
    /// Feature width observed per sub-model — the widths degraded rounds
    /// zero-fill with.
    observed_dims: BTreeMap<u32, usize>,
}

/// Read-only knobs one epoch runs under.
struct EpochParams<'a> {
    /// Which sample span each global round covers.
    layout: &'a RoundLayout,
    pipeline_depth: usize,
    codec: PayloadCodec,
    failures: &'a BTreeMap<usize, u64>,
    /// Sub-models the current (degraded) plan leaves unhosted.
    missing: &'a [usize],
    faults: &'a FaultScript,
    max_retries: u32,
    /// First scripted-join round: the collector stops fusing there.
    join_barrier: Option<u64>,
    /// `(sub-model, feature width)` for every missing sub-model, zero-filled
    /// at fusion so the concat layout stays stable.
    missing_dims: Vec<(u32, usize)>,
    /// Virtual time the epoch started at — the timestamp its events carry
    /// (the clock only advances between epochs).
    at: f64,
}

/// The streaming fault-tolerant scheduler.
#[derive(Debug, Clone)]
pub struct StreamScheduler {
    plan: SplitPlan,
    devices: Vec<DeviceSpec>,
    config: StreamConfig,
}

impl StreamScheduler {
    /// Creates a scheduler for `plan` deployed across `devices`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidConfig`] for empty device lists,
    /// zero-sized rounds or zero pipeline depth.
    pub fn new(plan: SplitPlan, devices: Vec<DeviceSpec>, config: StreamConfig) -> Result<Self> {
        if devices.is_empty() {
            return Err(SchedError::InvalidConfig {
                message: "no devices".to_string(),
            });
        }
        if config.round_size == 0 {
            return Err(SchedError::InvalidConfig {
                message: "round size must be at least 1".to_string(),
            });
        }
        if config.pipeline_depth == 0 {
            return Err(SchedError::InvalidConfig {
                message: "pipeline depth must be at least 1".to_string(),
            });
        }
        Ok(StreamScheduler {
            plan,
            devices,
            config,
        })
    }

    /// The scheduler configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Runs the stream: every input sample is fused exactly once, across as
    /// many membership epochs as device deaths and joins require.
    ///
    /// `executors[i]` computes sub-model `i`'s feature vector for one sample;
    /// there must be exactly one executor per sub-model in the plan.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidConfig`] for empty inputs or a mismatched
    /// executor count, [`SchedError::Runtime`] for executor/fusion failures
    /// or violated exactly-once invariants, [`SchedError::Partition`] when
    /// survivors cannot host the sub-models (and degraded mode is off),
    /// [`SchedError::DegradationLimit`] when a degraded replan would exceed
    /// the missing-sub-model tolerance, [`SchedError::RejoinConflict`] when a
    /// scripted join collides with a live member,
    /// [`SchedError::Edge`] when a scripted join frame fails wire validation,
    /// and [`SchedError::AllDevicesLost`] when every device dies.
    pub fn run(
        &self,
        inputs: &[Tensor],
        executors: Vec<SubModelFn>,
        fusion: FusionFn,
    ) -> Result<StreamReport> {
        if inputs.is_empty() {
            return Err(SchedError::InvalidConfig {
                message: "no input samples".to_string(),
            });
        }
        let layout = RoundLayout::uniform(inputs.len(), self.config.round_size)?;
        self.run_rounds(inputs, &layout, executors, fusion)
    }

    /// Runs the stream over an explicit [`RoundLayout`] — the round-source
    /// seam continuous batching plugs into. [`StreamScheduler::run`] is this
    /// with the uniform layout; a serving front end hands in whatever
    /// variable-size rounds its queues produced. Every virtual-clock charge
    /// prices each round at its *own* sample count.
    ///
    /// # Errors
    ///
    /// As [`StreamScheduler::run`], plus [`SchedError::InvalidConfig`] when
    /// the layout does not cover `inputs` exactly.
    pub fn run_rounds(
        &self,
        inputs: &[Tensor],
        layout: &RoundLayout,
        mut executors: Vec<SubModelFn>,
        mut fusion: FusionFn,
    ) -> Result<StreamReport> {
        if inputs.is_empty() {
            return Err(SchedError::InvalidConfig {
                message: "no input samples".to_string(),
            });
        }
        if layout.total_samples() != inputs.len() {
            return Err(SchedError::InvalidConfig {
                message: format!(
                    "round layout covers {} samples but {} were provided",
                    layout.total_samples(),
                    inputs.len()
                ),
            });
        }
        if executors.len() != self.plan.sub_models.len() {
            return Err(SchedError::InvalidConfig {
                message: format!(
                    "{} executors for {} sub-models",
                    executors.len(),
                    self.plan.sub_models.len()
                ),
            });
        }
        let cfg = &self.config;
        let round_size = cfg.round_size;
        let total_rounds = layout.rounds();
        let mut failures: BTreeMap<usize, u64> = cfg
            .failures
            .iter()
            .map(|f| (f.device_id, f.at_round))
            .collect();
        let mut join_queue: Vec<JoinInjection> = cfg.joins.clone();
        join_queue.sort_by_key(|j| j.at_round);

        // One transport for the whole run: epochs reuse the backend (and, on
        // TCP, its listener) while opening fresh per-device lanes.
        let mut transport = transport_for(cfg.transport).map_err(|e| SchedError::Transport {
            message: e.to_string(),
        })?;
        let mut current_plan = self.plan.clone();
        let mut current_devices = self.devices.clone();
        let mut pending: Vec<u64> = (0..total_rounds as u64).collect();
        let mut fused: Vec<Option<Tensor>> = vec![None; inputs.len()];
        let mut clock = SimClock::new();
        let mut tracker = HealthTracker::new();
        // Sub-models the current plan leaves unhosted, and the feature widths
        // observed so far (what degraded rounds zero-fill with).
        let mut missing: Vec<usize> = Vec::new();
        let mut known_dims: BTreeMap<u32, usize> = BTreeMap::new();

        let mut ledger = Ledger {
            counters: StreamCounters::default(),
            sink: cfg.sink.clone(),
        };
        ledger.record(
            0.0,
            RunEvent::StreamStarted {
                rounds: total_rounds as u64,
                round_size: round_size as u64,
                samples: inputs.len() as u64,
                devices: current_devices.len() as u64,
            },
        );

        let steady_state_samples_per_second = loop {
            // ---- Scripted joins due before the next unfused round. ---------
            let next_round = pending.first().copied().unwrap_or(0);
            let mut admitted = false;
            while join_queue.first().is_some_and(|j| j.at_round <= next_round) {
                let injection = join_queue.remove(0);
                admit_join(
                    &injection,
                    &mut current_devices,
                    &mut tracker,
                    &mut ledger,
                    clock.now(),
                )?;
                admitted = true;
            }
            if admitted {
                self.replan(&mut current_plan, &current_devices, &mut missing, "join")?;
                ledger.record(
                    clock.now(),
                    RunEvent::Replan {
                        cause: ReplanCause::Join,
                        missing: missing.iter().map(|&m| m as u64).collect(),
                    },
                );
                clock.advance(cfg.replan_seconds);
            }

            tracker.begin_epoch();
            let epoch = ledger.counters.epochs as u64 + 1;
            let epoch_at = clock.now();
            ledger.record(epoch_at, RunEvent::EpochStarted { epoch });
            let mut round_timings = self.round_timings(&current_plan, &current_devices);
            // Nominal-size timing: the heartbeat deadline, retry backoff and
            // failure-detection windows stay round-denominated in the
            // *configured* round size, so partial rounds don't jitter the
            // liveness machinery.
            let timing = round_timings.timing_for(cfg.round_size)?;
            // Hand the backend this epoch's liveness deadline in its native
            // round denomination; the TCP backend maps it to a read timeout,
            // the sim backend charges it analytically.
            transport.set_round_deadline(cfg.grace_rounds, timing.round_interval_seconds);
            let missing_dims: Vec<(u32, usize)> = missing
                .iter()
                .map(|&i| {
                    let sub = i as u32;
                    let dim = known_dims
                        .get(&sub)
                        .copied()
                        .unwrap_or_else(|| current_plan.sub_models[i].pruned.feature_dim());
                    (sub, dim)
                })
                .collect();
            let params = EpochParams {
                layout,
                pipeline_depth: cfg.effective_depth(),
                codec: cfg.codec,
                failures: &failures,
                missing: &missing,
                faults: &cfg.faults,
                max_retries: cfg.max_retries,
                join_barrier: join_queue.first().map(|j| j.at_round),
                missing_dims,
                at: epoch_at,
            };
            let outcome = run_epoch(
                &current_plan,
                &current_devices,
                &pending,
                &params,
                inputs,
                &mut executors,
                &mut fusion,
                &mut fused,
                &mut tracker,
                transport.as_mut(),
                &mut ledger,
            )?;

            for (&sub, &dim) in &outcome.observed_dims {
                known_dims.insert(sub, dim);
            }
            let retry_seconds: f64 = outcome
                .retry_attempts
                .iter()
                .map(|&attempt| timing.retry_backoff_seconds(attempt))
                .sum();
            // One event per epoch, pre-summed in the order the clock is
            // charged below; zero-retry epochs would add an exact +0.0 and
            // need no event at all.
            if !outcome.retry_attempts.is_empty() {
                ledger.record(
                    epoch_at,
                    RunEvent::RetryCost {
                        seconds: retry_seconds,
                    },
                );
            }
            // Price the epoch round by round at each round's actual sample
            // count: a partial round (under-filled tail or continuous batch)
            // costs what it carried, not the nominal `round_size`.
            let fused_sizes: Vec<usize> = pending[..outcome.rounds_fused]
                .iter()
                .map(|&round| layout.len_of(round))
                .collect();
            clock.advance(round_timings.seconds_for_rounds(&fused_sizes)? + retry_seconds);
            ledger.record(
                clock.now(),
                RunEvent::EpochEnded {
                    epoch,
                    max_in_flight: outcome.max_in_flight as u64,
                },
            );

            pending.retain(|&round| round_unfused(&fused, round, layout));

            if outcome.newly_dead.is_empty() {
                if outcome.join_due {
                    continue; // checkpointed handoff; the join opens the next epoch
                }
                if !pending.is_empty() {
                    return Err(SchedError::Runtime {
                        message: format!(
                            "epoch ended with {} unfused round(s) but no device death",
                            pending.len()
                        ),
                    });
                }
                break timing.steady_state_samples_per_second();
            }

            // ---- A death: repartition onto the survivors and replay. -------
            for device in &outcome.newly_dead {
                failures.remove(device); // a scripted death fires once
            }
            current_devices.retain(|d| !outcome.newly_dead.contains(&d.id));
            if current_devices.is_empty() {
                return Err(SchedError::AllDevicesLost {
                    lost: ledger.counters.devices_lost,
                });
            }
            self.replan(&mut current_plan, &current_devices, &mut missing, "death")?;
            ledger.record(
                clock.now(),
                RunEvent::Replan {
                    cause: ReplanCause::Death,
                    missing: missing.iter().map(|&m| m as u64).collect(),
                },
            );
            let replayed: usize = outcome
                .partial_rounds
                .iter()
                .map(|&r| layout.len_of(r))
                .sum();
            ledger.record(
                clock.now(),
                RunEvent::RoundsReplayed {
                    rounds: outcome.partial_rounds.len() as u64,
                    samples: replayed as u64,
                },
            );

            // Detection costs one round interval for the missed heartbeat to
            // fall due plus `grace_rounds` intervals of deadline; then the
            // planner runs; then the in-flight rounds replay on the new
            // membership (their compute is charged to the next epoch's clock
            // advance, but they are part of the recovery window). Each
            // replayed round is priced at its own sample count on the new
            // membership's timing.
            let detection_seconds = (cfg.grace_rounds + 1) as f64 * timing.round_interval_seconds;
            let mut new_timings = self.round_timings(&current_plan, &current_devices);
            let mut replay_seconds = 0.0f64;
            for &round in &outcome.partial_rounds {
                replay_seconds += new_timings
                    .timing_for(layout.len_of(round))?
                    .round_interval_seconds;
            }
            ledger.record(
                clock.now(),
                RunEvent::Recovery {
                    seconds: detection_seconds + cfg.replan_seconds + replay_seconds,
                },
            );
            clock.advance(detection_seconds + cfg.replan_seconds);
        };

        ledger.record(
            clock.now(),
            RunEvent::StreamEnded {
                steady_state_samples_per_second,
            },
        );
        let outputs = fused
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.ok_or_else(|| SchedError::Runtime {
                    message: format!("sample {i} was never fused"),
                })
            })
            .collect::<Result<Vec<Tensor>>>()?;
        // The accounting fields are the fold, copied out once. (They stay
        // flat `pub` fields because callers read them by field after moving
        // `outputs` out of the report.)
        let counters = ledger.counters;
        Ok(StreamReport {
            outputs,
            mode: cfg.mode,
            round_size,
            codec: cfg.codec,
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
            final_plan: current_plan,
            counters,
        })
    }

    /// Replans onto the current membership: full coverage when feasible,
    /// degraded (if allowed) when not. `missing` is updated to the new set of
    /// unhosted sub-models — a successful full replan clears it.
    fn replan(
        &self,
        plan: &mut SplitPlan,
        members: &[DeviceSpec],
        missing: &mut Vec<usize>,
        cause: &str,
    ) -> Result<()> {
        let samples = self.config.energy_samples_per_round;
        let full = if cause == "join" {
            plan.replan_for_joiners(members, samples)
        } else {
            plan.replan_for_survivors(members, samples)
        };
        match full {
            Ok(new_plan) => {
                *plan = new_plan;
                missing.clear();
                Ok(())
            }
            Err(PartitionError::Infeasible { .. }) if self.config.max_missing_sub_models > 0 => {
                let (new_plan, dropped) = plan.replan_degraded(members, samples)?;
                if dropped.len() > self.config.max_missing_sub_models {
                    return Err(SchedError::DegradationLimit {
                        missing: dropped,
                        limit: self.config.max_missing_sub_models,
                    });
                }
                *plan = new_plan;
                *missing = dropped;
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// The per-round-size timing table for a membership: the analytic model
    /// under this configuration's codec and fusion override, priced over the
    /// hosted sub-models only (a degraded plan carries unassigned sub-models
    /// the latency model would reject).
    fn round_timings(&self, plan: &SplitPlan, devices: &[DeviceSpec]) -> RoundTimings {
        let mut model =
            LatencyModel::new(self.config.network).with_options(&self.config.net_options());
        if self.config.fusion_flops > 0 {
            model = model.with_fusion_flops(self.config.fusion_flops);
        }
        let priced = if plan
            .sub_models
            .iter()
            .all(|s| plan.assignment.device_for(s.index).is_some())
        {
            plan.clone()
        } else {
            let mut filtered = plan.clone();
            filtered
                .sub_models
                .retain(|s| plan.assignment.device_for(s.index).is_some());
            filtered
        };
        RoundTimings::new(
            model,
            priced,
            devices.to_vec(),
            self.config.mode == ScheduleMode::Pipelined,
        )
    }
}

/// Admits one scripted join through the same wire path a real device would
/// use: the `Join` control frame is encoded, accounted and decode-validated
/// (so e.g. a non-positive capacity offer fails as a protocol error), then
/// fed to the health tracker — as a new identity-epoch when the id was
/// previously terminal.
fn admit_join(
    injection: &JoinInjection,
    current_devices: &mut Vec<DeviceSpec>,
    tracker: &mut HealthTracker,
    ledger: &mut Ledger,
    at: f64,
) -> Result<()> {
    let device_id = injection.device.id;
    if current_devices.iter().any(|d| d.id == device_id) {
        return Err(SchedError::RejoinConflict { device: device_id });
    }
    let frame = ControlMessage::join(device_id, injection.device.flops_per_second).encode();
    ledger.record(
        at,
        RunEvent::Delivery {
            device: device_id as u64,
            bytes: frame.len() as u64,
        },
    );
    ledger.record(
        at,
        RunEvent::ControlFrame {
            device: device_id as u64,
        },
    );
    let decoded = WireFrame::decode(frame).map_err(SchedError::Edge)?;
    let WireFrame::Control(control) = decoded else {
        return Err(SchedError::Runtime {
            message: format!("join frame for device {device_id} decoded as a non-control frame"),
        });
    };
    let was_terminal = matches!(
        tracker.health_of(device_id),
        Some(health) if !health.is_live()
    );
    if was_terminal {
        tracker.observe_rejoin(device_id, control.capacity_flops_per_second);
    } else {
        tracker.observe_join(device_id, control.capacity_flops_per_second);
    }
    ledger.record(
        at,
        RunEvent::DeviceJoined {
            device: device_id as u64,
            rejoin: was_terminal,
        },
    );
    current_devices.push(injection.device.clone());
    Ok(())
}

impl StreamConfig {
    /// Rounds in flight the mode actually allows: barrier forces 1.
    fn effective_depth(&self) -> usize {
        match self.mode {
            ScheduleMode::Barrier => 1,
            ScheduleMode::Pipelined => self.pipeline_depth,
        }
    }
}

fn round_unfused(fused: &[Option<Tensor>], round: u64, layout: &RoundLayout) -> bool {
    layout.span(round).any(|sample| fused[sample].is_none())
}

/// One membership epoch: spawns a worker thread per active device, consumes
/// the per-device transport lanes round by round on the calling thread, fuses
/// each completed round, and reports any death (a device whose lane closed
/// before it delivered all its rounds, or whose link exhausted its retry
/// budget).
#[allow(clippy::too_many_arguments)]
fn run_epoch(
    plan: &SplitPlan,
    devices: &[DeviceSpec],
    epoch_rounds: &[u64],
    params: &EpochParams<'_>,
    inputs: &[Tensor],
    executors: &mut [SubModelFn],
    fusion: &mut FusionFn,
    fused: &mut [Option<Tensor>],
    tracker: &mut HealthTracker,
    transport: &mut dyn Transport,
    ledger: &mut Ledger,
) -> Result<EpochOutcome> {
    // Group the per-sub-model executors by hosting device. `iter_mut` hands
    // out disjoint `&mut` borrows, so each worker thread exclusively owns the
    // executors of its device for the duration of the epoch scope. Sub-models
    // the degraded plan left unhosted are skipped — their executors idle.
    let mut by_device: BTreeMap<usize, Vec<(usize, &mut SubModelFn)>> = BTreeMap::new();
    for (sub_index, executor) in executors.iter_mut().enumerate() {
        if params.missing.contains(&sub_index) {
            continue;
        }
        let device_id =
            plan.assignment
                .device_for(sub_index)
                .ok_or_else(|| SchedError::InvalidConfig {
                    message: format!("sub-model {sub_index} has no assigned device"),
                })?;
        if !devices.iter().any(|d| d.id == device_id) {
            return Err(SchedError::InvalidConfig {
                message: format!("sub-model {sub_index} assigned to unknown device {device_id}"),
            });
        }
        by_device
            .entry(device_id)
            .or_default()
            .push((sub_index, executor));
    }

    // Data frames each device ships per round (= hosted sub-models) — the
    // arity that lets the collector identify every frame positionally.
    let frames_per_round: BTreeMap<usize, usize> = by_device
        .iter()
        .map(|(&device, execs)| (device, execs.len()))
        .collect();
    let num_sub_models = plan.sub_models.len();
    // Highest round count any device has produced this epoch. Purely
    // observational (it feeds the `max_rounds_in_flight` statistic, which is
    // scheduling-dependent by nature); timing and replay accounting never
    // read it, so they stay deterministic.
    let produced_max = AtomicU64::new(0);
    let produced_ref = &produced_max;
    // The device workers are the outer parallel loop: each computes under
    // its share of the kernel pool instead of all of them queueing for it.
    let device_threads = by_device.len();

    crossbeam::scope(|scope| -> Result<EpochOutcome> {
        let mut receivers: BTreeMap<usize, Box<dyn FrameRx>> = BTreeMap::new();
        // Drain in ascending device order (BTreeMap) so spawn order — and
        // with it the deterministic replay accounting — is stable.
        while let Some((device_id, execs)) = by_device.pop_first() {
            // Per-device bounded lane: `pipeline_depth` rounds of frames
            // (data frames for each hosted sub-model plus the heartbeat),
            // with two slots of slack for the join and leave announcements.
            // Once the buffer is full the device blocks in `send` — explicit
            // backpressure, and a hard bound on how far devices can skew —
            // whatever backend carries the lane.
            let capacity = (execs.len() + 1) * params.pipeline_depth.max(1) + 2;
            let (tx, rx) =
                transport
                    .open_lane(device_id, capacity)
                    .map_err(|e| SchedError::Transport {
                        message: e.to_string(),
                    })?;
            receivers.insert(device_id, rx);
            let capacity_flops = devices
                .iter()
                .find(|d| d.id == device_id)
                .map_or(0.0, |d| d.flops_per_second);
            let dies_at = params.failures.get(&device_id).copied();
            let codec = params.codec;
            let layout = params.layout;
            scope.spawn(move |_| {
                edvit_parallel::with_fair_share(device_threads, || {
                    run_device_worker(
                        device_id,
                        execs,
                        epoch_rounds,
                        layout,
                        codec,
                        inputs,
                        capacity_flops,
                        dies_at,
                        produced_ref,
                        tx.as_ref(),
                    );
                });
            });
        }

        collect_epoch(
            receivers,
            epoch_rounds,
            params,
            &frames_per_round,
            num_sub_models,
            fusion,
            fused,
            produced_ref,
            tracker,
            ledger,
        )
    })
    .map_err(|_| SchedError::Runtime {
        message: "a device worker thread panicked".to_string(),
    })?
}

/// One device's epoch loop: per round, compute + ship every hosted
/// sub-model's batch frame, then a heartbeat. A scripted death makes the
/// worker return silently — no leave frame, no further beacons — so the
/// fusion side observes exactly what a crashed device looks like: a lane
/// that goes quiet and then closes.
#[allow(clippy::too_many_arguments)]
fn run_device_worker(
    device_id: usize,
    mut execs: Vec<(usize, &mut SubModelFn)>,
    epoch_rounds: &[u64],
    layout: &RoundLayout,
    codec: PayloadCodec,
    inputs: &[Tensor],
    capacity_flops: f64,
    dies_at: Option<u64>,
    produced_max: &AtomicU64,
    tx: &dyn FrameTx,
) {
    // A closed lane means the collector bailed; stop quietly everywhere.
    if tx
        .send(ControlMessage::join(device_id, capacity_flops).encode())
        .is_err()
    {
        return;
    }
    let mut completed = 0u64;
    for &round in epoch_rounds {
        if dies_at.is_some_and(|at| round >= at) {
            return; // scripted crash: silence, not a leave
        }
        let span = layout.span(round);
        for (sub_index, executor) in &mut execs {
            let samples = span.clone().map(|sample| (sample, &inputs[sample]));
            match encode_device_round(*sub_index, executor, samples, codec) {
                Ok(Some(frame)) => {
                    if tx.send(frame).is_err() {
                        return;
                    }
                }
                Ok(None) => {}
                Err(message) => {
                    let _ = tx.send_error(format!("device {device_id}: {message}"));
                    return;
                }
            }
        }
        completed += 1;
        produced_max.fetch_max(completed, Ordering::Relaxed);
        if tx
            .send(ControlMessage::heartbeat(device_id, completed, capacity_flops).encode())
            .is_err()
        {
            return;
        }
    }
    let _ = tx.send(ControlMessage::leave(device_id, completed).encode());
}

/// What one received message turned out to be, after dedupe: a fresh
/// heartbeat, a fresh leave (both close rounds), or anything else.
enum Seen {
    Beacon(u64),
    Leave(u64),
    Other,
}

/// How the collector disposed of one delivery.
enum Processed {
    Seen(Seen),
    /// The frame's retry budget ran out: treat the link as dead.
    Escalate,
}

/// One sub-model's features for one round, as delivered: slot `i` is the
/// round's `i`-th sample, held as the decoded frame that first delivered it
/// and the row it occupies there. The frame is shared by every slot it
/// filled, so stashing a delivery copies no feature value.
type StashedRows = Vec<Option<(Rc<FeatureBatchMessage>, usize)>>;

/// The collector's per-epoch state: fault cursors, dedupe, the partial-round
/// stash and the outcome under construction.
struct Collector<'a> {
    epoch_rounds: &'a [u64],
    layout: &'a RoundLayout,
    num_sub_models: usize,
    faults: &'a FaultScript,
    max_retries: u32,
    frames_per_round: &'a BTreeMap<usize, usize>,
    missing_dims: &'a [(u32, usize)],
    tracker: &'a mut HealthTracker,
    deduper: ControlDeduper,
    /// Frames received so far per device — the positional identity that maps
    /// a delivery to its `(round, slot)` fault key.
    cursor: BTreeMap<usize, u64>,
    /// round -> sub-model -> the round's stashed rows, ordered so fusion
    /// walks sub-models in index order.
    partial: BTreeMap<u64, BTreeMap<u32, StashedRows>>,
    outcome: EpochOutcome,
    ledger: &'a mut Ledger,
    /// Virtual epoch-start time every collector event is stamped with.
    at: f64,
}

impl Collector<'_> {
    /// Maps the next frame from `device` to its fault key: the frame's
    /// position in the device's send order pins it to a round and slot
    /// (k data frames then a heartbeat per round, after the initial join and
    /// before the final leave — those two carry no fault key).
    fn fault_key(&mut self, device: usize) -> Option<(u64, FrameSlot)> {
        let index = self.cursor.entry(device).or_insert(0);
        let my_index = *index;
        *index += 1;
        if my_index == 0 {
            return None; // the join announcement
        }
        let hosted = self.frames_per_round.get(&device).copied().unwrap_or(0) as u64;
        let per_round = hosted + 1;
        let idx = my_index - 1;
        let round_pos = (idx / per_round) as usize;
        let offset = idx % per_round;
        if round_pos >= self.epoch_rounds.len() {
            return None; // the leave announcement
        }
        let slot = if offset == hosted {
            FrameSlot::Heartbeat
        } else {
            FrameSlot::Data(offset as u32)
        };
        Some((self.epoch_rounds[round_pos], slot))
    }

    /// Records one of the epoch's events, stamped with the epoch-start time.
    fn record(&mut self, event: RunEvent) {
        self.ledger.record(self.at, event);
    }

    /// Charges one delivery's bytes to its sender. Every frame that
    /// travelled is charged — including mutated copies, eaten data frames
    /// and lost beacons.
    fn account(&mut self, device: usize, bytes: u64) {
        self.record(RunEvent::Delivery {
            device: device as u64,
            bytes,
        });
    }

    /// Runs one delivery through the fault script: clean frames ingest
    /// directly; duplicates ingest twice (the copy hits the dedupers); a
    /// lost heartbeat is a lost beacon; corrupt, truncated or lost data
    /// frames burn retry attempts until the script exhausts (clean
    /// re-delivery) or the budget does (escalation).
    fn process(&mut self, pristine: Bytes, device: usize) -> Result<Processed> {
        let key = self.fault_key(device);
        let mut attempt: u32 = 0;
        loop {
            let fault = key
                .and_then(|(round, slot)| self.faults.fault_for(device, round, slot, attempt))
                .copied();
            match fault {
                None => return self.ingest(pristine, device).map(Processed::Seen),
                Some(FrameFault::Duplicate) => {
                    let seen = self.ingest(pristine.clone(), device)?;
                    self.ingest(pristine, device)?;
                    return Ok(Processed::Seen(seen));
                }
                Some(FrameFault::Drop) if matches!(key, Some((_, FrameSlot::Heartbeat))) => {
                    // The link ate a beacon — after it travelled, so its
                    // bytes are still charged to the sender. Beacons are not
                    // re-requested: the next fresh beacon (or the leave)
                    // closes the round.
                    self.account(device, pristine.len() as u64);
                    self.record(RunEvent::DroppedHeartbeat {
                        device: device as u64,
                    });
                    return Ok(Processed::Seen(Seen::Other));
                }
                Some(fault) => {
                    match apply_fault(&fault, &pristine) {
                        FaultedDelivery::Deliver(mutated)
                        | FaultedDelivery::DeliverTwice(mutated) => {
                            match self.ingest(mutated, device) {
                                // The wire layer caught the damage (checksum
                                // or decode failure): a failed delivery.
                                Err(SchedError::Edge(_)) => {
                                    self.record(RunEvent::CorruptFrame {
                                        device: device as u64,
                                    });
                                }
                                // A mutation the codec happened to survive
                                // delivers as-is.
                                Ok(seen) => return Ok(Processed::Seen(seen)),
                                Err(e) => return Err(e),
                            }
                        }
                        FaultedDelivery::Dropped => {
                            // An eaten data frame travelled to the drop
                            // point: charge its bytes before re-requesting.
                            self.account(device, pristine.len() as u64);
                            self.record(RunEvent::CorruptFrame {
                                device: device as u64,
                            });
                        }
                    }
                    attempt += 1;
                    if attempt > self.max_retries {
                        return Ok(Processed::Escalate);
                    }
                    self.outcome.retry_attempts.push(attempt);
                    self.record(RunEvent::Retry {
                        device: device as u64,
                        attempt: u64::from(attempt),
                    });
                }
            }
        }
    }

    /// Counts and journals a control frame the deduper rejected as a replay
    /// or stale reordering.
    fn stale_control(&mut self, device: usize) {
        self.record(RunEvent::StaleControlFrame {
            device: device as u64,
        });
    }

    /// Decodes and accounts one delivered frame: control frames pass the
    /// sequence deduper and update the health tracker, data frames are
    /// stashed for fusion first-delivery-wins.
    fn ingest(&mut self, encoded: Bytes, device: usize) -> Result<Seen> {
        self.account(device, encoded.len() as u64);
        match WireFrame::decode(encoded).map_err(SchedError::Edge)? {
            WireFrame::Control(control) => {
                self.record(RunEvent::ControlFrame {
                    device: device as u64,
                });
                let fresh = self
                    .deduper
                    .admit(control.device_id, control.kind, control.sequence);
                let device_id = control.device_id as usize;
                match control.kind {
                    ControlKind::Join => {
                        if fresh {
                            self.tracker
                                .observe_join(device_id, control.capacity_flops_per_second);
                        } else {
                            self.stale_control(device);
                        }
                        Ok(Seen::Other)
                    }
                    ControlKind::Heartbeat => {
                        self.record(RunEvent::Heartbeat {
                            device: device_id as u64,
                            sequence: control.sequence,
                        });
                        // The tracker sees every beacon (it counts stale ones
                        // itself); only a deduper-fresh beacon closes rounds.
                        if !self.tracker.observe_heartbeat(device_id, control.sequence) {
                            self.record(RunEvent::StaleHeartbeat {
                                device: device_id as u64,
                            });
                        }
                        if fresh {
                            Ok(Seen::Beacon(control.sequence))
                        } else {
                            self.stale_control(device);
                            Ok(Seen::Other)
                        }
                    }
                    ControlKind::Leave => {
                        if fresh {
                            self.tracker.observe_leave(device_id, control.sequence);
                            Ok(Seen::Leave(control.sequence))
                        } else {
                            self.stale_control(device);
                            Ok(Seen::Other)
                        }
                    }
                }
            }
            WireFrame::FeatureBatch(batch) => {
                self.record(RunEvent::DataFrame {
                    device: device as u64,
                });
                let batch = Rc::new(batch);
                let mut stashed = false;
                let mut duplicated = false;
                for (row, &sample) in batch.sample_indices.iter().enumerate() {
                    let sample = sample as usize;
                    let Some(round) = self.layout.round_of(sample) else {
                        return Err(SchedError::Runtime {
                            message: format!(
                                "frame references sample {sample} beyond the stream of {}",
                                self.layout.total_samples()
                            ),
                        });
                    };
                    let span = self.layout.span(round);
                    let rows = self
                        .partial
                        .entry(round)
                        .or_default()
                        .entry(batch.sub_model)
                        .or_insert_with(|| vec![None; span.len()]);
                    let slot = &mut rows[sample - span.start];
                    if slot.is_none() {
                        *slot = Some((Rc::clone(&batch), row));
                        stashed = true;
                    } else {
                        // First delivery wins; a re-delivered feature can
                        // only echo what is already stashed.
                        duplicated = true;
                    }
                }
                if stashed {
                    self.outcome
                        .observed_dims
                        .insert(batch.sub_model, batch.feature_dim as usize);
                }
                if duplicated {
                    self.record(RunEvent::DuplicateFrame {
                        device: device as u64,
                    });
                }
                Ok(Seen::Other)
            }
            WireFrame::Feature(_) => Err(SchedError::Runtime {
                message: "device shipped a single-feature frame, expected batches".to_string(),
            }),
        }
    }

    /// Fuses `round`, which must be complete for every *hosted* sub-model
    /// (guaranteed once every device delivered its heartbeat for the round).
    /// Missing sub-models are zero-filled at their recorded width so the
    /// concat layout — and with it the fusion function's input contract —
    /// stays stable across degraded rounds. Each output slot is written
    /// exactly once; a second write is a hard error.
    fn fuse(
        &mut self,
        round: u64,
        fusion: &mut FusionFn,
        fused: &mut [Option<Tensor>],
    ) -> Result<()> {
        let span = self.layout.span(round);
        let stash = self.partial.remove(&round).unwrap_or_default();
        let hosted = self.num_sub_models - self.missing_dims.len();
        let delivered = |offset: usize| stash.values().filter(move |rows| rows[offset].is_some());
        if (0..span.len()).any(|offset| delivered(offset).count() != hosted) {
            return Err(SchedError::Runtime {
                message: format!(
                    "round {round} incomplete after every device heartbeat: {}/{} samples present",
                    (0..span.len())
                        .filter(|&offset| delivered(offset).next().is_some())
                        .count(),
                    span.len()
                ),
            });
        }
        // What each sample's fusion input is assembled from, in sub-model
        // order: a stashed sub-model's rows, and/or the width a missing one is
        // zero-filled at (a delivered row always wins over the zero-fill).
        let mut sources: BTreeMap<u32, (Option<&StashedRows>, usize)> = stash
            .iter()
            .map(|(&sub, rows)| (sub, (Some(rows), 0)))
            .collect();
        for &(sub, dim) in self.missing_dims {
            sources.entry(sub).or_insert((None, 0)).1 = dim;
        }
        let mut fused_dim = 0;
        for (offset, sample) in span.clone().enumerate() {
            if fused[sample].is_some() {
                return Err(SchedError::Runtime {
                    message: format!(
                        "sample {sample} would be fused twice (round {round} replayed after it \
                         was already complete)"
                    ),
                });
            }
            let mut concatenated = Vec::with_capacity(fused_dim);
            for &(rows, zero_fill) in sources.values() {
                match rows.and_then(|rows| rows[offset].as_ref()) {
                    Some((batch, row)) => concatenated.extend_from_slice(batch.feature_row(*row)),
                    None => concatenated.resize(concatenated.len() + zero_fill, 0.0),
                }
            }
            fused_dim = concatenated.len();
            let concatenated =
                Tensor::from_vec(concatenated, &[fused_dim]).map_err(|e| SchedError::Runtime {
                    message: format!("feature concatenation failed: {e}"),
                })?;
            let output =
                fusion(&concatenated).map_err(|message| SchedError::Runtime { message })?;
            fused[sample] = Some(output);
        }
        self.record(RunEvent::RoundFused {
            round,
            samples: span.len() as u64,
            degraded: !self.missing_dims.is_empty(),
        });
        Ok(())
    }
}

/// The fusion worker's epoch loop: drain every device up to round *k*'s
/// heartbeat (or leave, when a beacon was lost), fuse round *k*, repeat. A
/// closed lane before a device closes the current round — or a frame whose
/// retry budget ran out — is that device's death. A scripted join barrier
/// ends the epoch early with the fused frontier as the checkpoint.
#[allow(clippy::too_many_arguments)]
fn collect_epoch(
    mut receivers: BTreeMap<usize, Box<dyn FrameRx>>,
    epoch_rounds: &[u64],
    params: &EpochParams<'_>,
    frames_per_round: &BTreeMap<usize, usize>,
    num_sub_models: usize,
    fusion: &mut FusionFn,
    fused: &mut [Option<Tensor>],
    produced_max: &AtomicU64,
    tracker: &mut HealthTracker,
    ledger: &mut Ledger,
) -> Result<EpochOutcome> {
    for &device in receivers.keys() {
        tracker.register(device);
    }
    let mut collector = Collector {
        epoch_rounds,
        layout: params.layout,
        num_sub_models,
        faults: params.faults,
        max_retries: params.max_retries,
        frames_per_round,
        missing_dims: &params.missing_dims,
        tracker,
        deduper: ControlDeduper::new(),
        cursor: BTreeMap::new(),
        partial: BTreeMap::new(),
        outcome: EpochOutcome::default(),
        ledger,
        at: params.at,
    };

    'rounds: for (position, &round) in epoch_rounds.iter().enumerate() {
        if params.join_barrier.is_some_and(|at| round >= at) {
            collector.outcome.join_due = true;
            break 'rounds;
        }
        let expected_sequence = position as u64 + 1;
        for (&device, rx) in &mut receivers {
            loop {
                match rx.recv() {
                    LaneEvent::Frame(frame) => match collector.process(frame, device)? {
                        Processed::Seen(Seen::Beacon(seq) | Seen::Leave(seq))
                            if seq >= expected_sequence =>
                        {
                            break;
                        }
                        Processed::Seen(_) => {}
                        Processed::Escalate => {
                            // Retry budget exhausted: the link is as good as
                            // dead — same terminal path as a crash.
                            collector.tracker.declare_dead(device);
                            collector.outcome.newly_dead.push(device);
                            collector.record(RunEvent::DeviceDead {
                                device: device as u64,
                            });
                            break 'rounds;
                        }
                    },
                    // The device reported a fatal executor failure in-band;
                    // the stream must abort, not repartition around it.
                    LaneEvent::PeerError(message) => {
                        return Err(SchedError::Runtime { message });
                    }
                    LaneEvent::Closed => {
                        // The device's lane closed before this round's
                        // heartbeat: its deadline passed. Terminal.
                        collector.tracker.declare_dead(device);
                        collector.outcome.newly_dead.push(device);
                        collector.record(RunEvent::DeviceDead {
                            device: device as u64,
                        });
                        break 'rounds;
                    }
                }
            }
        }
        // Every device delivered the round; the in-flight window is however
        // far the fastest producer has run ahead of fusion.
        let produced = produced_max.load(Ordering::Relaxed) as usize;
        collector.outcome.max_in_flight = collector
            .outcome
            .max_in_flight
            .max(produced.saturating_sub(collector.outcome.rounds_fused));
        collector.fuse(round, fusion, fused)?;
        collector.outcome.rounds_fused += 1;
    }

    if collector.outcome.newly_dead.is_empty() && !collector.outcome.join_due {
        // Graceful tail: consume the leave announcements down to lane close.
        for (&device, rx) in &mut receivers {
            loop {
                match rx.recv() {
                    LaneEvent::Frame(frame) => {
                        collector.process(frame, device)?;
                    }
                    LaneEvent::PeerError(message) => {
                        return Err(SchedError::Runtime { message });
                    }
                    LaneEvent::Closed => break,
                }
            }
        }
    } else if !collector.outcome.newly_dead.is_empty()
        && collector.outcome.rounds_fused < epoch_rounds.len()
    {
        // The replay set is what was in flight *at the fusion worker* when
        // the death was declared: exactly the round under collection (earlier
        // rounds were fused and removed, later rounds were never ingested —
        // any frames for them still queued in survivor channels are dropped
        // unread when the receivers fall at return, which also unblocks any
        // survivor still in `send`). Deriving this from the collector's
        // deterministic consumption order — never from how far worker
        // threads happened to race ahead — keeps `samples_replayed` and
        // `recovery_seconds` reproducible run to run and machine to machine.
        collector.outcome.partial_rounds = vec![epoch_rounds[collector.outcome.rounds_fused]];
    }
    // A join barrier keeps the fused frontier as its checkpoint: rounds past
    // the barrier replay on the new membership without a replay charge.
    for &device in receivers.keys() {
        let rounds = collector.tracker.sequence_of(device);
        collector.record(RunEvent::DeviceRounds {
            device: device as u64,
            rounds,
        });
    }
    Ok(collector.outcome)
}
