//! # edvit-datasets
//!
//! Synthetic classification datasets standing in for the five datasets the
//! paper evaluates on (CIFAR-10, MNIST, Caltech256, GTZAN, Speech Commands).
//!
//! The real datasets cannot be downloaded in this offline reproduction, so
//! each is replaced by a deterministic generator that preserves the properties
//! ED-ViT's algorithms actually depend on:
//!
//! * the **number of classes** (10 / 10 / 257 / 10 / 35) and **input
//!   geometry** (224×224×3 vision, 224×224×1 audio spectrograms — scaled down
//!   for CPU training),
//! * **class structure**: every class has a distinct spatial prototype with
//!   within-class variation, so accuracy is a meaningful, non-trivial metric
//!   and class-wise splitting/pruning behaves qualitatively like on natural
//!   data,
//! * **determinism**: the same seed always produces the same dataset, which
//!   replaces the paper's "averaged over five trial runs" with explicit trial
//!   seeds.
//!
//! # Example
//!
//! ```
//! use edvit_datasets::{DatasetKind, SyntheticConfig, SyntheticGenerator};
//!
//! # fn main() -> Result<(), edvit_datasets::DatasetError> {
//! let config = SyntheticConfig::tiny(DatasetKind::Cifar10Like);
//! let dataset = SyntheticGenerator::new(42).generate(&config)?;
//! assert_eq!(dataset.num_classes(), 10);
//! let (train, test) = dataset.split(0.8, 7)?;
//! assert!(train.len() > test.len());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod dataset;
mod error;
mod kind;
mod synthetic;

pub use dataset::{ClassSubsetMapping, Dataset};
pub use error::DatasetError;
pub use kind::DatasetKind;
pub use synthetic::{SyntheticConfig, SyntheticGenerator};

/// Convenience result alias for dataset operations.
pub type Result<T> = std::result::Result<T, DatasetError>;
