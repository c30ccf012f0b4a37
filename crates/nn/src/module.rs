use edvit_tensor::Tensor;

use crate::{NnError, Parameter, Result};

/// A differentiable layer with cached-activation backpropagation.
///
/// The contract is the classic two-phase one:
///
/// 1. [`Layer::forward`] computes the output for an input batch and caches
///    whatever intermediate values the gradient needs;
/// 2. [`Layer::backward`] consumes the gradient of the loss with respect to
///    the layer output, accumulates parameter gradients, and returns the
///    gradient with respect to the layer input.
///
/// Layers are stateful between the two calls; calling `backward` without a
/// preceding `forward` returns [`NnError::MissingForwardCache`].
pub trait Layer: std::fmt::Debug + Send {
    /// Runs the layer on `input`, caching intermediates for `backward`.
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible with the layer.
    fn forward(&mut self, input: &Tensor) -> Result<Tensor>;

    /// [`Layer::forward`] for a caller that is done with `input`: a layer
    /// that caches its input moves the buffer into the cache instead of
    /// copying it, an elementwise layer computes in place. Same output and
    /// same cache, bit for bit; the default just borrows.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`Layer::forward`].
    fn forward_owned(&mut self, input: Tensor) -> Result<Tensor> {
        self.forward(&input)
    }

    /// Backpropagates `grad_output`, accumulating parameter gradients and
    /// returning the gradient with respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForwardCache`] when called before `forward`,
    /// or a tensor error when `grad_output` has the wrong shape.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// Mutable references to every trainable parameter of the layer.
    fn parameters_mut(&mut self) -> Vec<&mut Parameter>;

    /// Immutable references to every trainable parameter of the layer.
    fn parameters(&self) -> Vec<&Parameter>;

    /// Switches between training and evaluation behaviour (dropout etc.).
    /// The default implementation does nothing.
    fn set_training(&mut self, _training: bool) {}

    /// Resets all parameter gradients to zero.
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

/// A sequential container running layers one after another.
///
/// # Example
///
/// ```
/// use edvit_nn::{Layer, Linear, Relu, Sequential};
/// use edvit_tensor::init::TensorRng;
///
/// # fn main() -> Result<(), edvit_nn::NnError> {
/// let mut rng = TensorRng::new(1);
/// let mut net = Sequential::new(vec![
///     Box::new(Linear::new(3, 5, &mut rng)) as Box<dyn Layer>,
///     Box::new(Relu::new()),
///     Box::new(Linear::new(5, 2, &mut rng)),
/// ]);
/// let y = net.forward(&rng.randn(&[4, 3], 0.0, 1.0))?;
/// assert_eq!(y.dims(), &[4, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates a sequential container from boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Creates an empty container to be extended with [`Sequential::push`].
    pub fn empty() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to the contained layers.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        if self.layers.is_empty() {
            return Err(NnError::InvalidConfig {
                message: "forward on empty Sequential".to_string(),
            });
        }
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x)?;
        }
        Ok(x)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        if self.layers.is_empty() {
            return Err(NnError::InvalidConfig {
                message: "backward on empty Sequential".to_string(),
            });
        }
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.parameters_mut())
            .collect()
    }

    fn parameters(&self) -> Vec<&Parameter> {
        self.layers.iter().flat_map(|l| l.parameters()).collect()
    }

    fn set_training(&mut self, training: bool) {
        for layer in &mut self.layers {
            layer.set_training(training);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Relu};
    use edvit_tensor::init::TensorRng;

    #[test]
    fn empty_sequential_errors() {
        let mut s = Sequential::empty();
        assert!(s.is_empty());
        assert!(s.forward(&Tensor::zeros(&[1, 1])).is_err());
        assert!(s.backward(&Tensor::zeros(&[1, 1])).is_err());
    }

    #[test]
    fn sequential_chains_layers() {
        let mut rng = TensorRng::new(0);
        let mut s = Sequential::new(vec![
            Box::new(Linear::new(4, 6, &mut rng)) as Box<dyn Layer>,
            Box::new(Relu::new()),
            Box::new(Linear::new(6, 2, &mut rng)),
        ]);
        assert_eq!(s.len(), 3);
        let x = rng.randn(&[3, 4], 0.0, 1.0);
        let y = s.forward(&x).unwrap();
        assert_eq!(y.dims(), &[3, 2]);
        let gin = s.backward(&Tensor::ones(&[3, 2])).unwrap();
        assert_eq!(gin.dims(), &[3, 4]);
        // Two Linear layers -> 4 parameters (2 weights + 2 biases).
        assert_eq!(s.parameters().len(), 4);
        assert!(s.parameter_count() > 0);
        s.zero_grad();
        for p in s.parameters() {
            assert_eq!(p.grad().sum(), 0.0);
        }
    }

    #[test]
    fn push_extends_network() {
        let mut rng = TensorRng::new(1);
        let mut s = Sequential::empty();
        s.push(Box::new(Linear::new(2, 2, &mut rng)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.layers().len(), 1);
    }
}
