//! Configuration of one streaming run: scheduling mode, round and pipeline
//! geometry, the virtual-timing inputs, the wire codec and transport, and
//! the deterministic scripts (deaths, joins, frame faults) a drill installs.

use edvit_edge::{NetOptions, NetworkConfig, PayloadCodec, TransportKind};
use edvit_metrics::MetricsSink;
use edvit_partition::DeviceSpec;

use crate::faults::FaultScript;
use crate::JoinInjection;

/// Heartbeat deadline, in rounds: a device whose next heartbeat is this many
/// round intervals overdue is declared dead. Governs the virtual detection
/// latency charged to `recovery_seconds`.
pub const GRACE_ROUNDS: u64 = 2;

/// How many times a corrupt, truncated or dropped data frame is re-requested
/// before the link is declared dead. Each retry is priced at the analytic
/// round-denominated backoff (`StreamTiming::retry_backoff_seconds`).
pub const MAX_RETRIES: u32 = 2;

/// Virtual seconds charged for one run of the re-planner.
pub const REPLAN_SECONDS: f64 = 0.05;

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
    /// How many undrained rounds a device may buffer on a sim lane before
    /// `send` blocks (≥ 1; forced to 1 in [`ScheduleMode::Barrier`]).
    /// Counting the round being computed, such a device can be up to
    /// `pipeline_depth + 1` rounds past the fused frontier; a TCP lane is
    /// bounded by its socket buffers only.
    pub pipeline_depth: usize,
    /// Barrier or pipelined scheduling.
    pub mode: ScheduleMode,
    /// Network model used for the virtual timing.
    pub network: NetworkConfig,
    /// Analytic fusion cost per sample in MAC-FLOPs; 0 uses the latency
    /// model's default formula.
    pub fusion_flops: u64,
    /// Wire codec every device encodes its batch frames with (control frames
    /// always ship codec 0). Also prices the virtual timing via
    /// [`edvit_edge::LatencyModel::with_options`].
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
    /// How many sub-models the scheduler may leave unhosted (zero-filling
    /// their features at fusion) when a replan cannot cover the full set. The
    /// default of 0 disables degraded mode: an infeasible replan stays a
    /// hard [`crate::SchedError::Partition`] error, exactly as before.
    pub max_missing_sub_models: usize,
    /// Observability sink the run records into. Disabled (a no-op) by
    /// default; [`edvit_metrics::MetricsSink::recording`] turns on the event
    /// journal, which the sink's exposition projects into metrics. All
    /// events carry virtual timestamps.
    pub sink: MetricsSink,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            round_size: 4,
            pipeline_depth: 2,
            mode: ScheduleMode::Pipelined,
            network: NetworkConfig::paper_default(),
            fusion_flops: 0,
            codec: PayloadCodec::F32,
            transport: TransportKind::Sim,
            failures: Vec::new(),
            joins: Vec::new(),
            faults: FaultScript::new(),
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

    /// Applies the shared [`NetOptions`]: wire codec and transport backend in
    /// one struct, the same surface `LatencyModel::with_options` and
    /// `ClusterRuntime::with_options` consume.
    pub fn with_options(mut self, options: &NetOptions) -> Self {
        self.codec = options.codec;
        self.transport = options.transport;
        self
    }

    /// The network-facing knobs of this configuration as a [`NetOptions`].
    pub fn net_options(&self) -> NetOptions {
        NetOptions::default()
            .with_codec(self.codec)
            .with_transport(self.transport)
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

    /// Rounds in flight the mode actually allows: barrier forces 1.
    pub(crate) fn effective_depth(&self) -> usize {
        match self.mode {
            ScheduleMode::Barrier => 1,
            ScheduleMode::Pipelined => self.pipeline_depth,
        }
    }
}
