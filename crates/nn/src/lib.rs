//! # edvit-nn
//!
//! Neural-network building blocks with hand-derived backward passes, used to
//! construct the Vision Transformer (`edvit-vit`), the CNN/SNN baselines
//! (`edvit-baselines`) and the fusion MLP (`edvit-fusion`) of the ED-ViT
//! reproduction.
//!
//! The crate intentionally avoids a tape-based autograd: every layer records
//! exactly what its backward pass needs and exposes [`Layer::forward`],
//! [`Layer::forward_train`] and [`Layer::backward`]. This keeps the memory
//! profile predictable (important when simulating memory-constrained edge
//! devices) and makes each gradient auditable against finite differences,
//! which the test suite does for every layer.
//!
//! # Who records what, and when `backward` takes it
//!
//! Backward state belongs to a training step, not to the layer. Each
//! layer's arithmetic is written once and run by two entries that differ only
//! in who owns what the gradient needs:
//!
//! - [`Layer::forward`] (`&self`) is inference: it records nothing, so a
//!   deployed model holds weights only, a clone of it copies weights only,
//!   and a request neither replaces nor frees anything a training pass left.
//!   No gradient outlives its step either (last row of the table): a model
//!   holds the 4 B per parameter the planner budgets.
//! - [`Layer::forward_train`] (`&mut self`) is a training step's forward: the
//!   same output, bit for bit, plus a record kept in the layer.
//! - [`Layer::backward`] takes that record (`Option::take`). After the step
//!   the layer holds weights only again; a `backward` with no record (after
//!   a plain `forward`, or a second one) is [`NnError::MissingForwardCache`].
//!
//! The crate used to have one forward that always cached, on the grounds
//! that keeping one path lean beat forking it. Serving disproved that: every
//! deployed model carried the caches of its last evaluation pass over the
//! whole test set, and each one-shot request copied them with the deployment,
//! replaced them on its first forward and freed them, on its critical path.
//! Recording nothing at inference took the repo benchmark's
//! `oneshot_latency` from 7 716 to 11 328 requests/s (median of ten
//! alternating 20 s pairs, 10 won, 2-vCPU Xeon @ 2.10 GHz), its p50 from 125
//! to 86 µs and its allocations per request from 372 to 269.
//!
//! | layer | records for `backward` | how |
//! |---|---|---|
//! | [`Linear`] | its input as `[rows, in]`, the leading dims | `forward_train`: one copy of the borrowed input; [`Linear::forward_train_owned`]: the input buffer itself, reshaped in place. The output is one buffer either way — `x·W + b` with the bias as the matmul's epilogue |
//! | [`Relu`] | the pre-activation | one copy; [`Layer::forward_owned`] computes in place on the buffer it was given |
//! | [`Mlp`] | each activation's input | each hidden buffer is allocated once: its copy before the in-place activation is the MLP's record, and the buffer itself moves into the next linear layer's record |
//! | [`MultiHeadSelfAttention`] | the `[.., tokens, heads·head_dim]` projections `q`, `k`, `v` and the softmaxed weights `[batch, heads, tokens, tokens]` | the buffers the forward computes anyway, moved in; head outputs are written straight into the buffer the output projection then takes by value |
//! | [`LayerNorm`] | the normalized input and `1/σ` per row | buffers its forward kernel fills |
//! | [`Conv2d`], [`MaxPool2d`], [`Flatten`] | the im2col matrices, the argmax positions, the input dims | computed by the forward anyway |
//! | [`Parameter`] | its gradient, from the first [`Parameter::accumulate_grad`] of a backward until [`Adam::step`] takes it | zeros plus the first contribution, so a `-0.0` lands as `+0.0`; a parameter the backward did not reach holds none and steps as on a zero gradient |
//!
//! `crates/vit/tests/forward_pinned.rs` pins the bits of the whole path,
//! forward and backward, and checks that the training forward gives the
//! inference forward's bits.
//!
//! Every parameter used to allocate a zero gradient as large as its value
//! when it was built and keep it for good, so every deployed sub-model, the
//! fusion MLP and each clone a one-shot request made held its weights twice
//! against the `params × 4 B` the planner prices a sub-model at. Letting the
//! optimizer step take the gradient cut the repo benchmark's
//! `stream_compute_sim` peak RSS (two 1.8 M-parameter ViTs) from 50.4 to
//! 35.9 MiB (median of ten alternating pairs, 2-vCPU Xeon @ 2.10 GHz).
//!
//! # Example
//!
//! ```
//! use edvit_nn::{Adam, CrossEntropyLoss, Layer, Mlp};
//! use edvit_tensor::init::TensorRng;
//!
//! # fn main() -> Result<(), edvit_nn::NnError> {
//! let mut rng = TensorRng::new(0);
//! let mut net = Mlp::new(&[4, 8, 3], &mut rng)?;
//! let x = rng.randn(&[2, 4], 0.0, 1.0);
//! let logits = net.forward_train(&x)?;
//! assert_eq!(net.forward(&x)?, logits);
//! let mut loss = CrossEntropyLoss::new();
//! let value = loss.forward(&logits, &[0, 2])?;
//! let grad = loss.backward()?;
//! net.backward(&grad)?;
//! Adam::new(1e-3).step(&mut net.parameters_mut())?;
//! assert!(value > 0.0);
//! // The step took what it recorded: a second backward has nothing to use.
//! assert!(net.backward(&grad).is_err());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod activation;
mod attention;
mod conv;
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

pub use activation::Relu;
pub use attention::MultiHeadSelfAttention;
pub use conv::Conv2d;
pub use error::NnError;
pub use layernorm::LayerNorm;
pub use linear::Linear;
pub use loss::CrossEntropyLoss;
pub use mlp::{Mlp, MlpActivation};
pub use module::Layer;
pub use optimizer::Adam;
pub use param::Parameter;
pub use pool::{Flatten, MaxPool2d};

/// Convenience result alias for fallible layer operations.
pub type Result<T> = std::result::Result<T, NnError>;
