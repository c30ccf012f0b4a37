use edvit_parallel::ParallelPool;
use edvit_tensor::{ops, Tensor};

use crate::{Layer, NnError, Parameter, Result};

/// Layer normalization over the last axis with learnable scale and shift,
/// matching `nn.LayerNorm(d)` in the reference PyTorch implementation.
///
/// # Example
///
/// ```
/// use edvit_nn::{Layer, LayerNorm};
/// use edvit_tensor::Tensor;
///
/// # fn main() -> Result<(), edvit_nn::NnError> {
/// let ln = LayerNorm::new(4);
/// let y = ln.forward(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4])?)?;
/// assert!(y.mean().abs() < 1e-5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Parameter,
    beta: Parameter,
    dim: usize,
    record: Option<LayerNormRecord>,
}

/// What [`Layer::forward_train`] records for [`Layer::backward`].
#[derive(Debug, Clone)]
struct LayerNormRecord {
    /// Normalized input `(x - mean) / sqrt(var + eps)` per row.
    x_hat: Vec<f32>,
    /// `1 / sqrt(var + eps)` per row.
    inv_std: Vec<f32>,
    lead_dims: Vec<usize>,
}

impl LayerNorm {
    /// Creates a layer norm over vectors of length `dim` (γ=1, β=0).
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Parameter::new("layernorm.gamma", Tensor::ones(&[dim])),
            beta: Parameter::new("layernorm.beta", Tensor::zeros(&[dim])),
            dim,
            record: None,
        }
    }

    /// Creates a layer norm from existing affine parameters — used when
    /// slicing pruned sub-models out of a trained model.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when the two vectors disagree in
    /// length.
    pub fn from_weights(gamma: Tensor, beta: Tensor) -> Result<Self> {
        if gamma.numel() != beta.numel() || gamma.rank() != 1 {
            return Err(NnError::InvalidConfig {
                message: format!(
                    "layernorm gamma {:?} and beta {:?} must be equal-length vectors",
                    gamma.dims(),
                    beta.dims()
                ),
            });
        }
        let dim = gamma.numel();
        Ok(LayerNorm {
            gamma: Parameter::new("layernorm.gamma", gamma),
            beta: Parameter::new("layernorm.beta", beta),
            dim,
            record: None,
        })
    }

    /// Normalized dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Immutable view of the scale parameter γ.
    pub fn gamma(&self) -> &Parameter {
        &self.gamma
    }

    /// Immutable view of the shift parameter β.
    pub fn beta(&self) -> &Parameter {
        &self.beta
    }

    /// Returns a new `LayerNorm` keeping only the listed features, used by
    /// residual-channel pruning.
    ///
    /// # Errors
    ///
    /// Returns a tensor error when an index is out of range.
    pub fn select_features(&self, keep: &[usize]) -> Result<LayerNorm> {
        let gamma = self.gamma.value().select_last_axis(keep)?;
        let beta = self.beta.value().select_last_axis(keep)?;
        LayerNorm::from_weights(gamma, beta)
    }
}

impl LayerNorm {
    /// Normalizes every row of `input` into the output, and into `record`
    /// (the normalized input and `1/σ` per row, which only the backward
    /// reads) when a training forward passes one.
    fn normalize(
        &self,
        input: &Tensor,
        record: Option<(&mut [f32], &mut [f32])>,
    ) -> Result<Tensor> {
        if input.rank() == 0 || *input.dims().last().unwrap_or(&0) != self.dim {
            return Err(NnError::InvalidConfig {
                message: format!(
                    "layernorm expected last dim {}, got shape {:?}",
                    self.dim,
                    input.dims()
                ),
            });
        }
        let mut out = vec![0.0f32; input.numel()];
        ops::layer_norm_forward_rows(
            input.data(),
            self.dim,
            self.gamma.value().data(),
            self.beta.value().data(),
            &mut out,
            record,
            ParallelPool::global(),
        );
        Ok(Tensor::from_vec(out, input.dims())?)
    }
}

impl Layer for LayerNorm {
    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        self.normalize(input, None)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        let rows = input.numel() / self.dim.max(1);
        let mut x_hat = vec![0.0f32; input.numel()];
        let mut inv_std = vec![0.0f32; rows];
        let out = self.normalize(input, Some((&mut x_hat, &mut inv_std)))?;
        self.record = Some(LayerNormRecord {
            x_hat,
            inv_std,
            lead_dims: input.dims()[..input.rank() - 1].to_vec(),
        });
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let record = self
            .record
            .take()
            .ok_or(NnError::MissingForwardCache { layer: "LayerNorm" })?;
        let rows = record.inv_std.len();
        let d = self.dim;
        let g = grad_output.reshape(&[rows, d])?;
        let pool = ParallelPool::global();
        let (grad_gamma, grad_beta) =
            ops::layer_norm_param_grads_rows(g.data(), &record.x_hat, d, pool);
        let mut grad_x = vec![0.0f32; rows * d];
        ops::layer_norm_backward_rows(
            g.data(),
            &record.x_hat,
            &record.inv_std,
            d,
            self.gamma.value().data(),
            &mut grad_x,
            pool,
        );
        self.gamma
            .accumulate_grad(&Tensor::from_vec(grad_gamma, &[d])?)?;
        self.beta
            .accumulate_grad(&Tensor::from_vec(grad_beta, &[d])?)?;
        let mut dims = record.lead_dims;
        dims.push(d);
        Ok(Tensor::from_vec(grad_x, &dims)?)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn parameters(&self) -> Vec<&Parameter> {
        vec![&self.gamma, &self.beta]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::finite_difference_check;
    use edvit_tensor::init::TensorRng;

    #[test]
    fn forward_normalizes_rows() {
        let ln = LayerNorm::new(4);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, -2.0, 0.0, 2.0, 4.0], &[2, 4]).unwrap();
        let y = ln.forward(&x).unwrap();
        for row in y.data().chunks(4) {
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
        }
    }

    #[test]
    fn forward_rejects_wrong_dim() {
        let mut ln = LayerNorm::new(4);
        assert!(ln.forward(&Tensor::zeros(&[2, 3])).is_err());
        assert!(ln.forward_train(&Tensor::zeros(&[2, 3])).is_err());
        assert!(ln.backward(&Tensor::zeros(&[2, 4])).is_err());
    }

    #[test]
    fn from_weights_and_select_features() {
        let gamma = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let beta = Tensor::from_vec(vec![0.1, 0.2, 0.3], &[3]).unwrap();
        let ln = LayerNorm::from_weights(gamma, beta).unwrap();
        assert_eq!(ln.dim(), 3);
        let pruned = ln.select_features(&[0, 2]).unwrap();
        assert_eq!(pruned.dim(), 2);
        assert_eq!(pruned.gamma().value().data(), &[1.0, 3.0]);
        assert_eq!(pruned.beta().value().data(), &[0.1, 0.3]);
        assert!(LayerNorm::from_weights(Tensor::zeros(&[2]), Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn three_dim_input_round_trip() {
        let mut ln = LayerNorm::new(5);
        let mut rng = TensorRng::new(3);
        let x = rng.randn(&[2, 3, 5], 0.0, 2.0);
        let y = ln.forward_train(&x).unwrap();
        assert_eq!(y.dims(), &[2, 3, 5]);
        let g = ln.backward(&Tensor::ones(&[2, 3, 5])).unwrap();
        assert_eq!(g.dims(), &[2, 3, 5]);
    }

    #[test]
    fn gradcheck() {
        finite_difference_check(Box::new(LayerNorm::new(6)), &[3, 6], 3e-2, 21);
    }

    #[test]
    fn layer_matches_sequential_kernels_bitwise() {
        // The layer runs on the global pool (EDVIT_THREADS); the reference
        // below runs the same kernels on an explicit 1-thread pool. The
        // kernels promise thread-count-independent bit patterns, so the two
        // must agree exactly — at any EDVIT_THREADS setting.
        let d = 96;
        let rows = 200; // rows * d straddles the parallel threshold
        let mut rng = TensorRng::new(0xBEEF);
        let x = rng.randn(&[rows, d], 0.0, 2.0);
        let g = rng.randn(&[rows, d], 0.0, 1.0);
        let gamma = rng.rand_uniform(&[d], 0.5, 1.5);
        let beta = rng.rand_uniform(&[d], -0.5, 0.5);

        let mut ln = LayerNorm::from_weights(gamma.clone(), beta.clone()).unwrap();
        let y = ln.forward_train(&x).unwrap();
        let gx = ln.backward(&g).unwrap();

        let seq = ParallelPool::new(1);
        let mut x_hat = vec![0.0f32; rows * d];
        let mut out = vec![0.0f32; rows * d];
        let mut inv_std = vec![0.0f32; rows];
        ops::layer_norm_forward_rows(
            x.data(),
            d,
            gamma.data(),
            beta.data(),
            &mut out,
            Some((&mut x_hat, &mut inv_std)),
            &seq,
        );
        assert_eq!(y.data(), &out[..]);
        let mut grad_x = vec![0.0f32; rows * d];
        ops::layer_norm_backward_rows(
            g.data(),
            &x_hat,
            &inv_std,
            d,
            gamma.data(),
            &mut grad_x,
            &seq,
        );
        assert_eq!(gx.data(), &grad_x[..]);
        let (gg, gb) = ops::layer_norm_param_grads_rows(g.data(), &x_hat, d, &seq);
        assert_eq!(ln.gamma().grad().unwrap().data(), &gg[..]);
        assert_eq!(ln.beta().grad().unwrap().data(), &gb[..]);
    }

    #[test]
    fn gradcheck_nontrivial_gamma() {
        let gamma = Tensor::from_vec(vec![0.5, 1.5, -1.0, 2.0], &[4]).unwrap();
        let beta = Tensor::from_vec(vec![0.1, -0.2, 0.3, 0.0], &[4]).unwrap();
        let ln = LayerNorm::from_weights(gamma, beta).unwrap();
        finite_difference_check(Box::new(ln), &[2, 4], 3e-2, 22);
    }
}
