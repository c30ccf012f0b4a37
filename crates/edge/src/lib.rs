//! # edvit-edge
//!
//! Edge-device cluster, network and distributed-inference simulation.
//!
//! The paper's testbed is a rack of Raspberry Pi 4B devices behind a gigabit
//! switch, with `tc` capping the inter-device bandwidth at 2 Mbps. This crate
//! replaces that hardware with two cooperating pieces:
//!
//! * an **analytic latency model** ([`LatencyModel`]) calibrated on the
//!   paper's own Table I (FLOPs ÷ effective throughput + payload ÷ bandwidth),
//!   which regenerates the latency curves of Figs. 4–7 deterministically, and
//! * a **threaded cluster runtime** ([`ClusterRuntime`]), the one one-shot
//!   round executor: it actually executes sub-model closures on worker
//!   threads, ships each device's serialized feature frame down a lane of the
//!   [`Transport`] it is handed ([`SimTransport`]'s in-process channels here,
//!   loopback TCP in `edvit-net`), fuses on the caller's thread and returns
//!   the fused outputs — exercising the real concurrency structure of the
//!   deployment. What a valid round frame is and how fusion inputs are
//!   assembled ([`RoundBatch`], [`fuse_round`]) is shared with the stream
//!   collector in `edvit-sched`.
//!
//! # Example
//!
//! ```
//! use edvit_edge::{LatencyModel, NetworkConfig};
//! use edvit_partition::{DeviceSpec, PlannerConfig, SplitPlanner};
//! use edvit_vit::ViTConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let devices = DeviceSpec::raspberry_pi_cluster(5);
//! let plan = SplitPlanner::new(PlannerConfig::default())
//!     .plan(&ViTConfig::vit_base(10), &devices, 0)?;
//! // One sample per round: the paper's single-image latency.
//! let latency = LatencyModel::new(NetworkConfig::paper_default())
//!     .estimate_batched(&plan, &devices, 1)?;
//! assert!(latency.total_seconds > 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod error;
mod latency;
mod network;
mod options;
mod round;
mod runtime;
mod transport;
pub mod wire;

pub use error::EdgeError;
pub use latency::{LatencyBreakdown, LatencyModel, PerDeviceLatency, RoundTimings, StreamTiming};
pub use network::NetworkConfig;
pub use options::{NetOptions, TransportKind};
pub use round::{fuse_round, FusionSource, RoundBatch};
pub use runtime::{encode_device_round, ClusterRuntime, FusionFn, RuntimeReport, SubModelFn};
pub use transport::{FrameRx, FrameTx, LaneClosed, LaneEvent, SimTransport, Transport};
pub use wire::{
    ControlKind, ControlMessage, FeatureBatchMessage, FeatureMessage, FrameKind, PayloadCodec,
    WireFrame,
};

/// Convenience result alias for edge-simulation operations.
pub type Result<T> = std::result::Result<T, EdgeError>;
