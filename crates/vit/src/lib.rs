//! # edvit-vit
//!
//! Vision Transformer models, configurations and the analytic cost model used
//! throughout the ED-ViT reproduction.
//!
//! The crate provides:
//!
//! * [`ViTConfig`] — architecture hyper-parameters with the paper's presets
//!   ([`ViTConfig::vit_small`], [`ViTConfig::vit_base`], [`ViTConfig::vit_large`])
//!   plus scaled-down trainable variants for CPU experiments;
//! * [`VisionTransformer`] — a trainable ViT (patch embedding → transformer
//!   blocks → mean-pooled head) built on `edvit-nn` layers;
//! * [`PrunedViTConfig`] and [`analysis`] — the closed-form FLOPs / parameter
//!   / memory model of Section III of the paper, used by the partitioning and
//!   edge-simulation crates without running any actual inference;
//! * [`training`] — a small supervised training loop (Adam, cross-entropy)
//!   mirroring the paper's fine-tuning setup.
//!
//! # Example
//!
//! ```
//! use edvit_vit::{ViTConfig, VisionTransformer};
//! use edvit_tensor::init::TensorRng;
//!
//! # fn main() -> Result<(), edvit_vit::ViTError> {
//! let config = ViTConfig::tiny_test(); // small enough to run in a doctest
//! let mut rng = TensorRng::new(0);
//! let mut model = VisionTransformer::new(&config, &mut rng)?;
//! let images = rng.randn(&[2, config.channels, config.image_size, config.image_size], 0.0, 1.0);
//! let logits = model.forward_images(&images)?;
//! assert_eq!(logits.dims(), &[2, config.num_classes]);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod analysis;
mod block;
mod config;
mod error;
mod model;
mod patch;
pub mod training;

pub use block::ViTBlock;
pub use config::{PrunedViTConfig, ScaleProfile, ViTConfig, ViTVariant};
pub use error::ViTError;
pub use model::VisionTransformer;
pub use patch::PatchEmbed;

/// Convenience result alias for fallible ViT operations.
pub type Result<T> = std::result::Result<T, ViTError>;
