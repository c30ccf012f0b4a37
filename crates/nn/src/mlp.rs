use edvit_tensor::{init::TensorRng, Tensor};

use crate::activation::{gelu_backward, gelu_in_place, relu_backward, relu_in_place};
use crate::{Layer, Linear, NnError, Parameter, Result};

/// Nonlinearity selection for [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MlpActivation {
    /// Rectified linear unit.
    Relu,
    /// Gaussian error linear unit (the ViT default).
    Gelu,
}

impl MlpActivation {
    /// The activation on every element of `x`, in place: [`relu_in_place`] /
    /// [`gelu_in_place`].
    fn apply(self, x: &mut Tensor) {
        match self {
            MlpActivation::Relu => relu_in_place(x),
            MlpActivation::Gelu => gelu_in_place(x),
        }
    }

    /// The gradient through the activation whose input was `pre`.
    fn backward(self, pre: &Tensor, grad_output: &Tensor) -> Result<Tensor> {
        match self {
            MlpActivation::Relu => relu_backward(pre, grad_output),
            MlpActivation::Gelu => gelu_backward(pre, grad_output),
        }
    }
}

/// A multi-layer perceptron: a chain of linear layers separated by a chosen
/// activation, with no activation after the final layer.
///
/// This is used for the ViT feed-forward block (one hidden layer, GELU), the
/// classification heads, and the tower-structured fusion MLP.
///
/// # Example
///
/// ```
/// use edvit_nn::{Layer, Mlp};
/// use edvit_tensor::init::TensorRng;
///
/// # fn main() -> Result<(), edvit_nn::NnError> {
/// let mut rng = TensorRng::new(0);
/// let mlp = Mlp::new(&[8, 16, 4], &mut rng)?;
/// let y = mlp.forward(&rng.randn(&[3, 8], 0.0, 1.0))?;
/// assert_eq!(y.dims(), &[3, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    linears: Vec<Linear>,
    activation: MlpActivation,
    layer_sizes: Vec<usize>,
    /// The last of `layer_sizes`, taken when the MLP is built.
    out_features: usize,
    /// What [`Layer::forward_train`] recorded beyond the linear layers' own
    /// records: each activation's input, in layer order.
    record: Option<Vec<Tensor>>,
}

impl Mlp {
    /// Creates an MLP with the given layer sizes (`[in, hidden..., out]`) and
    /// GELU activations.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when fewer than two sizes are given
    /// or any size is zero.
    pub fn new(layer_sizes: &[usize], rng: &mut TensorRng) -> Result<Self> {
        Self::with_activation(layer_sizes, MlpActivation::Gelu, rng)
    }

    /// Creates an MLP with an explicit activation choice.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when fewer than two sizes are given
    /// or any size is zero.
    pub fn with_activation(
        layer_sizes: &[usize],
        activation: MlpActivation,
        rng: &mut TensorRng,
    ) -> Result<Self> {
        let &[_, .., out_features] = layer_sizes else {
            return Err(NnError::InvalidConfig {
                message: "an MLP needs at least an input and an output size".to_string(),
            });
        };
        if layer_sizes.contains(&0) {
            return Err(NnError::InvalidConfig {
                message: format!("zero-sized layer in MLP sizes {layer_sizes:?}"),
            });
        }
        let linears = layer_sizes
            .windows(2)
            .map(|pair| Linear::new(pair[0], pair[1], rng))
            .collect();
        Ok(Mlp {
            linears,
            activation,
            layer_sizes: layer_sizes.to_vec(),
            out_features,
            record: None,
        })
    }

    /// Builds an MLP from pre-existing linear layers (used when slicing
    /// pruned feed-forward blocks). Activations are inserted between every
    /// pair of consecutive layers.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when consecutive layers disagree on
    /// their shared dimension.
    pub fn from_linears(linears: Vec<Linear>, activation: MlpActivation) -> Result<Self> {
        let Some(out_features) = linears.last().map(Linear::out_features) else {
            return Err(NnError::InvalidConfig {
                message: "MLP needs at least one linear layer".to_string(),
            });
        };
        let mut layer_sizes = vec![linears[0].in_features()];
        for (i, lin) in linears.iter().enumerate() {
            if i > 0 && lin.in_features() != linears[i - 1].out_features() {
                return Err(NnError::InvalidConfig {
                    message: format!(
                        "linear {} expects {} inputs but previous layer produces {}",
                        i,
                        lin.in_features(),
                        linears[i - 1].out_features()
                    ),
                });
            }
            layer_sizes.push(lin.out_features());
        }
        Ok(Mlp {
            linears,
            activation,
            layer_sizes,
            out_features,
            record: None,
        })
    }

    /// Layer sizes `[in, hidden..., out]`.
    pub fn layer_sizes(&self) -> &[usize] {
        &self.layer_sizes
    }

    /// Activation used between layers.
    pub fn activation(&self) -> MlpActivation {
        self.activation
    }

    /// Read-only access to the linear sub-layers, exposed for pruning.
    pub fn linears(&self) -> &[Linear] {
        &self.linears
    }

    /// Output feature dimension.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Input feature dimension.
    pub fn in_features(&self) -> usize {
        self.layer_sizes[0]
    }
}

/// The error of a pass over an MLP without layers, which no constructor
/// builds.
fn no_layers() -> NnError {
    NnError::InvalidConfig {
        message: "forward on an MLP without layers".to_string(),
    }
}

impl Layer for Mlp {
    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        // Only the first layer borrows; every later buffer is this
        // function's own, so the activation runs in place on it.
        let (first, rest) = self.linears.split_first().ok_or_else(no_layers)?;
        let mut x = first.forward(input)?;
        for linear in rest {
            self.activation.apply(&mut x);
            x = linear.forward(&x)?;
        }
        Ok(x)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        // As `forward`, and each hidden buffer is allocated once: its copy
        // before the activation is this MLP's record, the buffer itself moves
        // into the next linear layer's record.
        let (first, rest) = self.linears.split_first_mut().ok_or_else(no_layers)?;
        let mut x = first.forward_train(input)?;
        let mut pre = Vec::with_capacity(rest.len());
        for linear in rest {
            pre.push(x.clone());
            self.activation.apply(&mut x);
            x = linear.forward_train_owned(x)?;
        }
        self.record = Some(pre);
        Ok(x)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let pre = self
            .record
            .take()
            .ok_or(NnError::MissingForwardCache { layer: "Mlp" })?;
        let (last, rest) = self.linears.split_last_mut().ok_or_else(no_layers)?;
        let mut g = last.backward(grad_output)?;
        for (linear, pre) in rest.iter_mut().zip(&pre).rev() {
            g = self.activation.backward(pre, &g)?;
            g = linear.backward(&g)?;
        }
        Ok(g)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        self.linears
            .iter_mut()
            .flat_map(|l| l.parameters_mut())
            .collect()
    }

    fn parameters(&self) -> Vec<&Parameter> {
        self.linears.iter().flat_map(|l| l.parameters()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::finite_difference_check;

    #[test]
    fn construction_validation() {
        let mut rng = TensorRng::new(0);
        assert!(Mlp::new(&[4], &mut rng).is_err());
        assert!(Mlp::new(&[4, 0, 2], &mut rng).is_err());
        let mlp = Mlp::new(&[4, 8, 2], &mut rng).unwrap();
        assert_eq!(mlp.layer_sizes(), &[4, 8, 2]);
        assert_eq!(mlp.in_features(), 4);
        assert_eq!(mlp.out_features(), 2);
        assert_eq!(mlp.activation(), MlpActivation::Gelu);
        assert_eq!(mlp.linears().len(), 2);
    }

    #[test]
    fn forward_backward_shapes() {
        let mut rng = TensorRng::new(1);
        let mut mlp = Mlp::with_activation(&[6, 12, 12, 3], MlpActivation::Relu, &mut rng).unwrap();
        let x = rng.randn(&[5, 6], 0.0, 1.0);
        let y = mlp.forward_train(&x).unwrap();
        assert_eq!(y.dims(), &[5, 3]);
        let g = mlp.backward(&Tensor::ones(&[5, 3])).unwrap();
        assert_eq!(g.dims(), &[5, 6]);
        assert_eq!(mlp.parameters().len(), 6);
    }

    #[test]
    fn from_linears_validates_chain() {
        let mut rng = TensorRng::new(2);
        let a = Linear::new(4, 6, &mut rng);
        let b = Linear::new(6, 2, &mut rng);
        let mlp = Mlp::from_linears(vec![a, b], MlpActivation::Gelu).unwrap();
        assert_eq!(mlp.layer_sizes(), &[4, 6, 2]);
        let a = Linear::new(4, 6, &mut rng);
        let bad = Linear::new(5, 2, &mut rng);
        assert!(Mlp::from_linears(vec![a, bad], MlpActivation::Gelu).is_err());
        assert!(Mlp::from_linears(vec![], MlpActivation::Relu).is_err());
    }

    #[test]
    fn single_layer_mlp_is_linear() {
        let mut rng = TensorRng::new(3);
        let lin = Linear::new(3, 2, &mut rng);
        let mlp = Mlp::from_linears(vec![lin], MlpActivation::Relu).unwrap();
        let x = rng.randn(&[2, 3], 0.0, 1.0);
        // No activation is applied after the only layer, so negatives survive.
        let y = mlp.forward(&x).unwrap();
        assert_eq!(y.dims(), &[2, 2]);
    }

    #[test]
    fn gradcheck_gelu_mlp() {
        let mut rng = TensorRng::new(4);
        let mlp = Mlp::new(&[4, 6, 3], &mut rng).unwrap();
        finite_difference_check(Box::new(mlp), &[3, 4], 5e-2, 110);
    }

    #[test]
    fn gradcheck_relu_mlp() {
        let mut rng = TensorRng::new(5);
        let mlp = Mlp::with_activation(&[4, 5, 2], MlpActivation::Relu, &mut rng).unwrap();
        // The ReLU kink makes central differences noisier than for smooth
        // layers, so this check runs with a wider tolerance.
        finite_difference_check(Box::new(mlp), &[2, 4], 1.5e-1, 111);
    }
}
