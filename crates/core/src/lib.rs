//! # edvit — Efficient Partitioning of Vision Transformers for Distributed Edge Inference
//!
//! A faithful, self-contained Rust reproduction of the ED-ViT framework
//! (ICDCS 2025): splitting a Vision Transformer into class-specific
//! sub-models, pruning each with KL-divergence-guided structured pruning,
//! assigning the sub-models to edge devices under memory and energy budgets,
//! and fusing their features with a small MLP on an aggregation device.
//!
//! This crate is the facade: it re-exports the substrate crates and provides
//! the end-to-end [`pipeline`] (Fig. 1 of the paper) plus the [`experiments`]
//! harness that regenerates every table and figure of the evaluation section.
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |-------|------|
//! | [`tensor`] | dense f32 tensors, kernels, KL divergence |
//! | [`nn`] | layers with hand-derived backprop, Adam, losses |
//! | [`vit`] | Vision Transformer model + analytic cost model |
//! | [`datasets`] | synthetic stand-ins for the five datasets |
//! | [`pruning`] | three-stage class-wise structured pruning |
//! | [`partition`] | class assignment, greedy device assignment, planner |
//! | [`edge`] | Raspberry-Pi cluster / network / latency simulation |
//! | [`sched`] | streaming scheduler: pipelined rounds, failover |
//! | [`fusion`] | tower-MLP feature fusion |
//! | [`baselines`] | Split-CNN and Split-SNN comparators |
//! | [`chaos`] | declarative seeded fault-injection plans |
//! | [`serving`] | multi-tenant continuous-batching request front-door |
//! | [`metrics`] | metrics registry + event-sourced run journal |
//!
//! ## Quickstart
//!
//! ```
//! use edvit::pipeline::{EdVitConfig, EdVitPipeline};
//!
//! # fn main() -> Result<(), edvit::EdVitError> {
//! let config = EdVitConfig::tiny_demo(2); // 2 edge devices, CPU-sized
//! let deployment = EdVitPipeline::new(config).run()?;
//! assert!(deployment.metrics.fused_accuracy >= 0.0);
//! assert!(deployment.metrics.total_memory_mb > 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod distributed;
mod error;
pub mod experiments;
pub mod pipeline;
pub mod serve;
pub mod streaming;

pub use error::EdVitError;

pub use edvit_baselines as baselines;
pub use edvit_chaos as chaos;
pub use edvit_datasets as datasets;
pub use edvit_edge as edge;
pub use edvit_fusion as fusion;
pub use edvit_metrics as metrics;
pub use edvit_net as net;
pub use edvit_nn as nn;
pub use edvit_partition as partition;
pub use edvit_pruning as pruning;
pub use edvit_sched as sched;
pub use edvit_serve as serving;
pub use edvit_tensor as tensor;
pub use edvit_vit as vit;

/// Convenience result alias for the end-to-end pipeline.
pub type Result<T> = std::result::Result<T, EdVitError>;
