//! # edvit-tensor
//!
//! Dense `f32` tensor substrate used throughout the ED-ViT reproduction.
//!
//! The crate provides a small, dependency-light tensor library that covers
//! exactly the operations required by the Vision Transformer, the CNN/SNN
//! baselines and the fusion MLP implemented in the sibling crates:
//!
//! * an owned, contiguous, row-major [`Tensor`] with shape/broadcast logic,
//! * dense linear algebra ([`Tensor::matmul`], batched matmul, transposes),
//! * the neural-network kernels the paper's models need (softmax, layer
//!   normalization, GELU, ...), over a vectorisable `exp` ([`approx`]),
//! * reductions, slicing/gather/concat along axes,
//! * seeded random initialization ([`init`]),
//! * distribution utilities ([`stats`]) including the KL divergence used by
//!   ED-ViT's pruning stage.
//!
//! # Example
//!
//! ```
//! use edvit_tensor::Tensor;
//!
//! # fn main() -> Result<(), edvit_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod error;
mod shape;
#[allow(clippy::module_inception)]
mod tensor;

pub mod approx;
pub mod init;
pub mod kernels;
pub mod linalg;
pub mod ops;
pub mod stats;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience result alias used by all fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
