//! # edvit-baselines
//!
//! The two baselines ED-ViT is compared against in Section V-F:
//!
//! * **Split-CNN** — NNFacet-style class-wise splitting of a VGG-16 backbone
//!   with channel-wise filter pruning;
//! * **Split-SNN** — EC-SNN-style conversion of the split CNN into a
//!   rate-coded spiking network.
//!
//! Both baselines are re-implemented from their papers' descriptions and run
//! through the same split → prune → retrain → fuse flow as ED-ViT, so the
//! comparison in Table III and Fig. 7 is apples-to-apples: the same synthetic
//! datasets, the same class assignment, the same fusion strategy and the same
//! Raspberry-Pi cost model.
//!
//! Like the ViT side of the reproduction, each baseline exists at two scales:
//! a **trainable scale** (small CNN/SNN trained on the synthetic datasets for
//! accuracy numbers) and a **paper scale** (analytic VGG-16 cost model for
//! memory and latency numbers).

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod cnn;
mod cost;
mod snn;
mod split;

pub use cnn::{SmallCnn, SmallCnnConfig};
pub use cost::{
    ecsnn_submodel_cost, nnfacet_submodel_cost, vgg16_cost, vgg16_pruned_cost, SNN_SPIKE_ACTIVITY,
    SNN_TIMESTEPS,
};
pub use snn::SpikingCnn;
pub use split::{BaselineKind, SplitBaselineConfig, SplitBaselineResult, SplitBaselineRunner};

/// Convenience result alias re-using the NN error type (baselines are thin
/// wrappers over `edvit-nn` layers).
pub type Result<T> = std::result::Result<T, edvit_nn::NnError>;
