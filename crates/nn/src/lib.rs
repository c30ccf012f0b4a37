//! # edvit-nn
//!
//! Neural-network building blocks with hand-derived backward passes, used to
//! construct the Vision Transformer (`edvit-vit`), the CNN/SNN baselines
//! (`edvit-baselines`) and the fusion MLP (`edvit-fusion`) of the ED-ViT
//! reproduction.
//!
//! The crate intentionally avoids a tape-based autograd: every layer caches
//! exactly what its backward pass needs and exposes
//! [`Layer::forward`] / [`Layer::backward`]. This keeps the memory profile
//! predictable (important when simulating memory-constrained edge devices) and
//! makes each gradient auditable against finite differences, which the test
//! suite does for every layer.
//!
//! # One forward path, and what it caches
//!
//! There is no inference mode: the forward that serves a request is the
//! forward that training backpropagates through, and it is kept lean instead
//! of forked. A cache entry is a *move* of a buffer the forward pass already
//! owns wherever one exists, and exactly one copy where the only source is a
//! borrowed input:
//!
//! | layer | caches for `backward` | how |
//! |---|---|---|
//! | [`Linear`] | its input as `[rows, in]`, the leading dims | `forward`: one copy of the borrowed input; [`Layer::forward_owned`]: the input buffer itself, reshaped in place. The output is one buffer — `x·W + b` with the bias as the matmul's epilogue |
//! | [`Gelu`], [`Relu`] | the pre-activation | one copy; `forward_owned` then computes in place on the buffer it was given |
//! | [`Mlp`] | nothing of its own | the first linear layer borrows the caller's input; every later buffer is passed down by value, so each hidden activation is allocated once and ends up inside the next layer's cache |
//! | [`MultiHeadSelfAttention`] | per sample and head: `q`, `k`, `v` (`[tokens, head_dim]`) and the attention weights (`[tokens, tokens]`) | the three operands are strided row copies out of the `[tokens, heads·head_dim]` projections, made once, used by the kernels, then moved into the cache; the scores are scaled as they are written, soft-maxed in place and moved; head outputs are written straight into the buffer the output projection then takes by value |
//! | [`LayerNorm`] | the normalized input and `1/σ` per row | buffers its forward kernel fills |
//!
//! Cloning a cache is not what a forward costs (`[1,64,768]` is 4.5 µs); the
//! per-element `%`, the three-buffer `Linear::forward` and the index-list
//! head split it replaced were. `crates/vit/tests/forward_pinned.rs` pins the
//! bits of the whole path, forward and backward.
//!
//! # Example
//!
//! ```
//! use edvit_nn::{Layer, Linear, Sequential, Relu, CrossEntropyLoss, Sgd, Optimizer};
//! use edvit_tensor::{init::TensorRng, Tensor};
//!
//! # fn main() -> Result<(), edvit_nn::NnError> {
//! let mut rng = TensorRng::new(0);
//! let mut net = Sequential::new(vec![
//!     Box::new(Linear::new(4, 8, &mut rng)) as Box<dyn Layer>,
//!     Box::new(Relu::new()),
//!     Box::new(Linear::new(8, 3, &mut rng)),
//! ]);
//! let x = rng.randn(&[2, 4], 0.0, 1.0);
//! let logits = net.forward(&x)?;
//! let mut loss = CrossEntropyLoss::new();
//! let value = loss.forward(&logits, &[0, 2])?;
//! let grad = loss.backward()?;
//! net.backward(&grad)?;
//! Sgd::new(0.1).step(&mut net.parameters_mut())?;
//! assert!(value > 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod activation;
mod attention;
mod conv;
mod dropout;
mod error;
mod layernorm;
mod linear;
mod loss;
mod mlp;
mod module;
mod optimizer;
mod param;
mod pool;

#[cfg(test)]
pub(crate) mod testing;

pub use activation::{Gelu, Relu};
pub use attention::MultiHeadSelfAttention;
pub use conv::Conv2d;
pub use dropout::Dropout;
pub use error::NnError;
pub use layernorm::LayerNorm;
pub use linear::Linear;
pub use loss::{CrossEntropyLoss, MseLoss};
pub use mlp::{Mlp, MlpActivation};
pub use module::{Layer, Sequential};
pub use optimizer::{Adam, LrSchedule, Optimizer, Sgd};
pub use param::{total_parameters, Parameter};
pub use pool::{AvgPool2d, Flatten, MaxPool2d};

/// Convenience result alias for fallible layer operations.
pub type Result<T> = std::result::Result<T, NnError>;
