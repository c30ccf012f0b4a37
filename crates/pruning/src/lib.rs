//! # edvit-pruning
//!
//! Class-wise structured pruning of Vision Transformers (Algorithm 2 and
//! Fig. 2 of the ED-ViT paper).
//!
//! A sub-model responsible for a class subset `C_i` is produced from the
//! trained original model in three stages, each keeping the most important
//! fraction `s = (h − hp) / h` of a prunable component group:
//!
//! 1. **residual channels** (the embedding width `d` shared by the patch
//!    embedding, every block and the head),
//! 2. **per-head query/key/value dimensions** inside the MHSA modules,
//! 3. **FFN hidden units**.
//!
//! Importance is measured per component by the KL divergence between the
//! original model's output distribution and the distribution after removing
//! the component (on a calibration batch drawn from `C_i`), exactly as the
//! paper prescribes; a cheaper weight-magnitude criterion is available for
//! large sweeps. After pruning the sub-model is re-trained on its resampled
//! class subset.

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod error;
mod importance;
mod pruner;

pub use error::PruningError;
pub use importance::{channel_importance, ffn_importance, head_dim_importance, ImportanceMethod};
pub use pruner::{PrunedSubModel, PrunerConfig, StructuredPruner};

/// Convenience result alias for pruning operations.
pub type Result<T> = std::result::Result<T, PruningError>;
