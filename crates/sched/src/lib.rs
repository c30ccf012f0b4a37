//! # edvit-sched
//!
//! A streaming, fault-tolerant scheduler on top of the `edvit-edge` cluster
//! primitives: the first subsystem in this reproduction where *time*,
//! *membership* and the *partition plan* all change while inference is
//! running.
//!
//! Three pieces compose:
//!
//! * **Pipelined rounds** — the input stream is cut into rounds; every device
//!   computes round *k+1* while the fusion worker drains round *k*. Frames
//!   travel through a *bounded* per-device lane opened from the configured
//!   [`Transport`] backend (in-process channels or real loopback TCP — same
//!   frames, same order, same reports). A device can buffer at most
//!   `pipeline_depth` undrained rounds on a sim lane (one more may be in
//!   computation) and as many as the socket buffers hold on a TCP lane.
//!   Steady-state throughput approaches the per-device bound instead of the
//!   barrier bound ([`ScheduleMode::Barrier`] vs [`ScheduleMode::Pipelined`]).
//! * **Health tracking** — devices announce themselves with wire-v2 control
//!   frames (`join` / `leave` / `heartbeat`). The fusion worker consumes each
//!   device's channel round by round, so a silenced device surfaces
//!   deterministically as a disconnect exactly where its next heartbeat was
//!   due; the [`HealthTracker`] records it as terminally `Dead` (graceful
//!   leaves stay `Left`), and the virtual clock charges the round-denominated
//!   [`GRACE_ROUNDS`] deadline window to the recovery time.
//! * **Live repartitioning** — on a death or a join, the scheduler runs
//!   [`Membership::replan`], moves the orphaned sub-models onto live hosts
//!   (or, within [`StreamConfig::max_missing_sub_models`], drops the largest),
//!   and replays every in-flight round. No sample is lost and no sample is
//!   fused twice; the exactly-once invariant is checked, not assumed. The
//!   serving drill changes membership through the same type.
//!
//! Both sides of the stream-round protocol live here and nowhere else: the
//! [`DeviceProgram`] and the collector behind [`StreamScheduler`], which
//! [`StreamScheduler::run`] wires together in process and
//! [`StreamScheduler::collect_lanes`] runs over lanes it is handed (worker
//! processes, in `examples/cluster_proc.rs`).
//!
//! All reported timing comes from the deterministic virtual [`SimClock`]
//! driven by the analytic `edvit_edge::StreamTiming` model, so throughput and
//! recovery numbers are reproducible on any machine.
//!
//! # Example
//!
//! ```
//! use edvit_edge::{FusionFn, NetworkConfig, SubModelFn};
//! use edvit_partition::{DeviceSpec, PlannerConfig, SplitPlanner};
//! use edvit_sched::{StreamConfig, StreamScheduler};
//! use edvit_tensor::Tensor;
//! use edvit_vit::ViTConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let devices = DeviceSpec::raspberry_pi_cluster(2);
//! let plan = SplitPlanner::new(PlannerConfig::default())
//!     .plan(&ViTConfig::vit_base(10), &devices, 0)?;
//! let executors: Vec<SubModelFn> = (0..plan.sub_models.len())
//!     .map(|i| -> SubModelFn { Box::new(move |_: &Tensor| Ok(Tensor::full(&[2], i as f32))) })
//!     .collect();
//! let fusion: FusionFn = Box::new(|concat: &Tensor| Ok(concat.clone()));
//! let scheduler = StreamScheduler::new(plan, devices, StreamConfig::default())?;
//! let inputs: Vec<Tensor> = (0..8).map(|_| Tensor::zeros(&[1])).collect();
//! let report = scheduler.run(&inputs, executors, fusion)?;
//! assert_eq!(report.outputs.len(), 8);
//! assert!(report.heartbeats_seen > 0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod clock;
mod collector;
mod config;
mod depth;
mod device;
mod epoch;
mod error;
mod faults;
mod health;
mod membership;
mod report;
mod rounds;
mod stream;

pub use clock::SimClock;
pub use config::{
    FailureInjection, ScheduleMode, StreamConfig, GRACE_ROUNDS, MAX_RETRIES, REPLAN_SECONDS,
};
pub use depth::DepthController;
pub use device::DeviceProgram;
pub use error::SchedError;
pub use faults::{apply_fault, FaultScript, FaultedDelivery, FrameFault, FrameSlot, JoinInjection};
pub use health::{DeviceHealth, HealthTracker};
pub use membership::Membership;
pub use report::StreamReport;
pub use rounds::RoundLayout;
pub use stream::StreamScheduler;

// Re-exported so instrumented callers can attach a sink without naming the
// metrics crate themselves.
pub use edvit_metrics::MetricsSink;

// Re-exported so stream configurations can pick a wire codec and transport
// backend without a direct `edvit-edge`/`edvit-net` dependency at the call
// site.
pub use edvit_edge::{NetOptions, PayloadCodec, TransportKind};
pub use edvit_net::{FrameRx, FrameTx, LaneEvent, SimTransport, TcpTransport, Transport};

/// Convenience result alias for scheduler operations.
pub type Result<T> = std::result::Result<T, SchedError>;
