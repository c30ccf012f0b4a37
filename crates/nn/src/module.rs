use edvit_tensor::Tensor;

use crate::{Parameter, Result};

/// A differentiable layer whose backward state belongs to a training step.
///
/// Two forward entries run the same arithmetic and differ only in who owns
/// what the gradient needs:
///
/// 1. [`Layer::forward`] (`&self`) computes the output and records nothing:
///    it is what inference runs, so a deployed layer holds weights and
///    nothing else (no record, and no gradient: [`crate::Parameter`] holds
///    one only between a backward and the optimizer step that takes it),
///    and a clone of it copies only weights;
/// 2. [`Layer::forward_train`] (`&mut self`) computes the same output, bit
///    for bit, and records what [`Layer::backward`] needs;
/// 3. [`Layer::backward`] takes that record (`Option::take`), accumulates
///    parameter gradients and returns the gradient with respect to the
///    input.
///
/// A record serves one backward: calling `backward` without a preceding
/// `forward_train`, after a plain `forward`, or a second time returns
/// [`crate::NnError::MissingForwardCache`].
pub trait Layer: std::fmt::Debug + Send {
    /// Runs the layer on `input` and records nothing.
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible with the layer.
    fn forward(&self, input: &Tensor) -> Result<Tensor>;

    /// [`Layer::forward`] for a caller that is done with `input`: an
    /// elementwise layer computes in place on the buffer. Same output, bit
    /// for bit; the default just borrows.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`Layer::forward`].
    fn forward_owned(&self, input: Tensor) -> Result<Tensor> {
        self.forward(&input)
    }

    /// Runs the layer on `input` with [`Layer::forward`]'s arithmetic and
    /// records what [`Layer::backward`] needs, replacing any earlier record.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`Layer::forward`].
    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor>;

    /// Backpropagates `grad_output` through what the last
    /// [`Layer::forward_train`] recorded, taking the record: accumulates
    /// parameter gradients and returns the gradient with respect to the
    /// layer input.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::MissingForwardCache`] when no record is
    /// held (no `forward_train` since the last `backward`), or a tensor
    /// error when `grad_output` has the wrong shape.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// Mutable references to every trainable parameter of the layer.
    fn parameters_mut(&mut self) -> Vec<&mut Parameter>;

    /// Immutable references to every trainable parameter of the layer.
    fn parameters(&self) -> Vec<&Parameter>;

    /// Drops every parameter gradient.
    fn zero_grad(&mut self) {
        for p in self.parameters_mut() {
            p.zero_grad();
        }
    }

    /// Total number of scalar parameters in the layer.
    fn parameter_count(&self) -> usize {
        self.parameters().iter().map(|p| p.numel()).sum()
    }
}
