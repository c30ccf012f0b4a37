use edvit_tensor::{init::TensorRng, Tensor};

use crate::{Layer, NnError, Parameter, Result};

/// A fully-connected (affine) layer: `y = x W + b`.
///
/// Input shape `[n, in_features]`, output `[n, out_features]`. Higher-rank
/// inputs (e.g. `[batch, tokens, d]`) are accepted by flattening every leading
/// axis into the row dimension, which matches how transformer projections are
/// applied token-wise.
///
/// # Example
///
/// ```
/// use edvit_nn::{Layer, Linear};
/// use edvit_tensor::init::TensorRng;
///
/// # fn main() -> Result<(), edvit_nn::NnError> {
/// let mut rng = TensorRng::new(0);
/// let mut lin = Linear::new(8, 4, &mut rng);
/// let x = rng.randn(&[2, 8], 0.0, 1.0);
/// assert_eq!(lin.forward(&x)?.dims(), &[2, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Parameter,
    bias: Parameter,
    in_features: usize,
    out_features: usize,
    cache_input: Option<Tensor>,
    cache_lead_dims: Vec<usize>,
}

impl Linear {
    /// Creates a linear layer with Xavier-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut TensorRng) -> Self {
        let weight = rng.xavier_uniform(in_features, out_features);
        Linear {
            weight: Parameter::new("linear.weight", weight),
            bias: Parameter::new("linear.bias", Tensor::zeros(&[out_features])),
            in_features,
            out_features,
            cache_input: None,
            cache_lead_dims: Vec::new(),
        }
    }

    /// Creates a linear layer from explicit weight `[in, out]` and bias `[out]`
    /// tensors — used when slicing pruned sub-models out of a trained model.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when the shapes are inconsistent.
    pub fn from_weights(weight: Tensor, bias: Tensor) -> Result<Self> {
        if weight.rank() != 2 {
            return Err(NnError::InvalidConfig {
                message: format!("linear weight must be rank 2, got {:?}", weight.dims()),
            });
        }
        let (in_features, out_features) = (weight.dims()[0], weight.dims()[1]);
        if bias.numel() != out_features {
            return Err(NnError::InvalidConfig {
                message: format!(
                    "bias length {} does not match out_features {}",
                    bias.numel(),
                    out_features
                ),
            });
        }
        Ok(Linear {
            weight: Parameter::new("linear.weight", weight),
            bias: Parameter::new("linear.bias", bias),
            in_features,
            out_features,
            cache_input: None,
            cache_lead_dims: Vec::new(),
        })
    }

    /// Input feature dimension.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature dimension.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable view of the weight parameter.
    pub fn weight(&self) -> &Parameter {
        &self.weight
    }

    /// Immutable view of the bias parameter.
    pub fn bias(&self) -> &Parameter {
        &self.bias
    }

    /// Produces a new `Linear` keeping only the listed input features
    /// (rows of the weight matrix). Used by structured pruning when the
    /// preceding layer's channels were pruned.
    ///
    /// # Errors
    ///
    /// Returns a tensor error if any index is out of range.
    pub fn select_inputs(&self, keep: &[usize]) -> Result<Linear> {
        // Weight is [in, out]; selecting input features selects rows, i.e.
        // columns of the transposed view — implemented with gather_rows.
        let w = self.weight.value().gather_rows(keep)?;
        Linear::from_weights(w, self.bias.value().clone())
    }

    /// Produces a new `Linear` keeping only the listed output features
    /// (columns of the weight matrix and entries of the bias).
    ///
    /// # Errors
    ///
    /// Returns a tensor error if any index is out of range.
    pub fn select_outputs(&self, keep: &[usize]) -> Result<Linear> {
        let w = self.weight.value().select_last_axis(keep)?;
        let b = self.bias.value().select_last_axis(keep)?;
        Linear::from_weights(w, b)
    }

    /// `input · W + b` in one buffer with the output's final dims; returns it
    /// with the row count of `input` seen as `[rows, in_features]`. Caches
    /// only the leading dims — the callers cache the input itself, by copy or
    /// by move.
    fn affine(&mut self, input: &Tensor) -> Result<(Tensor, usize)> {
        let Some((&last, lead)) = input.dims().split_last() else {
            return Err(NnError::InvalidConfig {
                message: "linear forward on rank-0 tensor".to_string(),
            });
        };
        if last != self.in_features {
            return Err(NnError::InvalidConfig {
                message: format!(
                    "linear expected last dim {}, got {} (shape {:?})",
                    self.in_features,
                    last,
                    input.dims()
                ),
            });
        }
        let out = input.matmul_bias(self.weight.value(), self.bias.value())?;
        self.cache_lead_dims = lead.to_vec();
        Ok((out, lead.iter().product()))
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let (out, rows) = self.affine(input)?;
        self.cache_input = Some(input.reshape(&[rows, self.in_features])?);
        Ok(out)
    }

    fn forward_owned(&mut self, input: Tensor) -> Result<Tensor> {
        let (out, rows) = self.affine(&input)?;
        self.cache_input = Some(input.into_reshaped(&[rows, self.in_features])?);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let x = self
            .cache_input
            .as_ref()
            .ok_or(NnError::MissingForwardCache { layer: "Linear" })?;
        let rows = x.dims()[0];
        let g2d = grad_output.reshape(&[rows, self.out_features])?;
        // dW = x^T g  -> [in, out]
        let grad_w = x.transpose()?.matmul(&g2d)?;
        // db = sum over rows of g
        let grad_b = g2d.sum_first_axis()?;
        // dx = g W^T -> [rows, in]
        let grad_x = g2d.matmul_transposed(self.weight.value())?;
        self.weight.accumulate_grad(&grad_w)?;
        self.bias.accumulate_grad(&grad_b)?;
        let mut dims = self.cache_lead_dims.clone();
        dims.push(self.in_features);
        Ok(grad_x.reshape(&dims)?)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn parameters(&self) -> Vec<&Parameter> {
        vec![&self.weight, &self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::finite_difference_check;

    #[test]
    fn forward_shape_and_values() {
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]).unwrap();
        let b = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let mut lin = Linear::from_weights(w, b).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let y = lin.forward(&x).unwrap();
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.data(), &[4.5, 4.5]);
    }

    #[test]
    fn forward_rejects_bad_last_dim() {
        let mut rng = TensorRng::new(0);
        let mut lin = Linear::new(4, 2, &mut rng);
        assert!(lin.forward(&Tensor::zeros(&[2, 3])).is_err());
    }

    #[test]
    fn higher_rank_inputs_flatten() {
        let mut rng = TensorRng::new(0);
        let mut lin = Linear::new(4, 2, &mut rng);
        let x = rng.randn(&[2, 5, 4], 0.0, 1.0);
        let y = lin.forward(&x).unwrap();
        assert_eq!(y.dims(), &[2, 5, 2]);
        let g = lin.backward(&Tensor::ones(&[2, 5, 2])).unwrap();
        assert_eq!(g.dims(), &[2, 5, 4]);
    }

    #[test]
    fn forward_owned_matches_forward_and_leaves_the_same_cache() {
        let mut rng = TensorRng::new(9);
        let mut borrowed = Linear::new(4, 3, &mut rng);
        let mut owned = borrowed.clone();
        let x = rng.randn(&[2, 5, 4], 0.0, 1.0);
        let g = rng.randn(&[2, 5, 3], 0.0, 1.0);
        assert_eq!(
            owned.forward_owned(x.clone()).unwrap(),
            borrowed.forward(&x).unwrap()
        );
        assert_eq!(owned.backward(&g).unwrap(), borrowed.backward(&g).unwrap());
        assert_eq!(owned.weight().grad(), borrowed.weight().grad());
        assert_eq!(owned.bias().grad(), borrowed.bias().grad());
        assert!(owned.forward_owned(Tensor::zeros(&[2, 3])).is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = TensorRng::new(0);
        let mut lin = Linear::new(2, 2, &mut rng);
        assert!(matches!(
            lin.backward(&Tensor::zeros(&[1, 2])),
            Err(NnError::MissingForwardCache { .. })
        ));
    }

    #[test]
    fn from_weights_validates() {
        assert!(Linear::from_weights(Tensor::zeros(&[3]), Tensor::zeros(&[3])).is_err());
        assert!(Linear::from_weights(Tensor::zeros(&[3, 2]), Tensor::zeros(&[3])).is_err());
        let ok = Linear::from_weights(Tensor::zeros(&[3, 2]), Tensor::zeros(&[2])).unwrap();
        assert_eq!(ok.in_features(), 3);
        assert_eq!(ok.out_features(), 2);
    }

    #[test]
    fn select_outputs_and_inputs() {
        let w = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]).unwrap();
        let lin = Linear::from_weights(w, b).unwrap();
        let pruned = lin.select_outputs(&[0, 2]).unwrap();
        assert_eq!(pruned.out_features(), 2);
        assert_eq!(pruned.weight().value().data(), &[0.0, 2.0, 3.0, 5.0]);
        assert_eq!(pruned.bias().value().data(), &[10.0, 30.0]);
        let pruned_in = lin.select_inputs(&[1]).unwrap();
        assert_eq!(pruned_in.in_features(), 1);
        assert_eq!(pruned_in.weight().value().data(), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = TensorRng::new(7);
        let layer = Linear::new(3, 2, &mut rng);
        finite_difference_check(Box::new(layer), &[2, 3], 1e-2, 42);
    }
}
