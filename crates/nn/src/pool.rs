use edvit_tensor::Tensor;

use crate::{Layer, NnError, Parameter, Result};

/// 2-D max pooling over `[batch, channels, h, w]` inputs with a square window
/// and stride equal to the window size (the configuration VGG uses).
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    size: usize,
    record: Option<PoolRecord>,
}

/// What [`Layer::forward_train`] records for [`Layer::backward`].
#[derive(Debug, Clone)]
struct PoolRecord {
    /// Flat index (into the input sample) of each selected maximum.
    argmax: Vec<usize>,
    input_dims: Vec<usize>,
    out_h: usize,
    out_w: usize,
}

impl MaxPool2d {
    /// Creates a max-pool layer with window and stride `size`.
    ///
    /// # Panics
    ///
    /// Panics when `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "pool size must be positive");
        MaxPool2d { size, record: None }
    }

    /// Pooling window size.
    pub fn size(&self) -> usize {
        self.size
    }
}

impl MaxPool2d {
    /// The pooled output, and where each maximum came from.
    fn pool(&self, input: &Tensor) -> Result<(Tensor, PoolRecord)> {
        if input.rank() != 4 {
            return Err(NnError::InvalidConfig {
                message: format!("maxpool expects rank-4 input, got {:?}", input.dims()),
            });
        }
        let (b, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let oh = h / self.size;
        let ow = w / self.size;
        if oh == 0 || ow == 0 {
            return Err(NnError::InvalidConfig {
                message: format!("maxpool window {} too large for {h}x{w}", self.size),
            });
        }
        let mut out = vec![0.0f32; b * c * oh * ow];
        let mut argmax = vec![0usize; b * c * oh * ow];
        let data = input.data();
        for bi in 0..b {
            for ci in 0..c {
                let plane = bi * c * h * w + ci * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for ky in 0..self.size {
                            for kx in 0..self.size {
                                let iy = oy * self.size + ky;
                                let ix = ox * self.size + kx;
                                let idx = plane + iy * w + ix;
                                if data[idx] > best {
                                    best = data[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let out_idx = bi * c * oh * ow + ci * oh * ow + oy * ow + ox;
                        out[out_idx] = best;
                        argmax[out_idx] = best_idx;
                    }
                }
            }
        }
        let record = PoolRecord {
            argmax,
            input_dims: input.dims().to_vec(),
            out_h: oh,
            out_w: ow,
        };
        Ok((Tensor::from_vec(out, &[b, c, oh, ow])?, record))
    }
}

impl Layer for MaxPool2d {
    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        Ok(self.pool(input)?.0)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        let (out, record) = self.pool(input)?;
        self.record = Some(record);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let record = self
            .record
            .take()
            .ok_or(NnError::MissingForwardCache { layer: "MaxPool2d" })?;
        let numel: usize = record.input_dims.iter().product();
        let mut grad = vec![0.0f32; numel];
        let expected = [
            record.input_dims[0],
            record.input_dims[1],
            record.out_h,
            record.out_w,
        ];
        if grad_output.dims() != expected {
            return Err(NnError::InvalidConfig {
                message: format!(
                    "maxpool backward expected grad {:?}, got {:?}",
                    expected,
                    grad_output.dims()
                ),
            });
        }
        for (i, &g) in grad_output.data().iter().enumerate() {
            grad[record.argmax[i]] += g;
        }
        Ok(Tensor::from_vec(grad, &record.input_dims)?)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn parameters(&self) -> Vec<&Parameter> {
        Vec::new()
    }
}

/// Flattens `[batch, ...]` inputs to `[batch, features]`, remembering the
/// original shape for the backward pass.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    /// The input dims [`Layer::forward_train`] saw.
    record: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { record: None }
    }
}

impl Layer for Flatten {
    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        if input.rank() < 2 {
            return Err(NnError::InvalidConfig {
                message: format!("flatten expects rank >= 2, got {:?}", input.dims()),
            });
        }
        let b = input.dims()[0];
        let rest = input.numel() / b.max(1);
        Ok(input.reshape(&[b, rest])?)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        let out = self.forward(input)?;
        self.record = Some(input.dims().to_vec());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let dims = self
            .record
            .take()
            .ok_or(NnError::MissingForwardCache { layer: "Flatten" })?;
        Ok(grad_output.reshape(&dims)?)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn parameters(&self) -> Vec<&Parameter> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::finite_difference_check;

    #[test]
    fn maxpool_forward_known_values() {
        let pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
        assert_eq!(pool.size(), 2);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 4.0, 3.0], &[1, 1, 2, 2]).unwrap();
        pool.forward_train(&x).unwrap();
        let g = pool.backward(&Tensor::ones(&[1, 1, 1, 1])).unwrap();
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn maxpool_validation() {
        let mut pool = MaxPool2d::new(4);
        assert!(pool.forward(&Tensor::zeros(&[1, 1, 2, 2])).is_err());
        assert!(pool.forward_train(&Tensor::zeros(&[1, 1, 2, 2])).is_err());
        assert!(pool.forward(&Tensor::zeros(&[2, 2])).is_err());
        assert!(pool.backward(&Tensor::zeros(&[1, 1, 1, 1])).is_err());
        assert!(pool.parameters().is_empty());
    }

    #[test]
    fn flatten_round_trip() {
        let mut f = Flatten::new();
        let x = Tensor::arange(24).reshape(&[2, 3, 2, 2]).unwrap();
        let y = f.forward_train(&x).unwrap();
        assert_eq!(y.dims(), &[2, 12]);
        let g = f.backward(&Tensor::ones(&[2, 12])).unwrap();
        assert_eq!(g.dims(), &[2, 3, 2, 2]);
        assert!(f.forward(&Tensor::zeros(&[3])).is_err());
        assert!(Flatten::new().backward(&Tensor::zeros(&[2, 2])).is_err());
    }

    #[test]
    fn maxpool_gradcheck() {
        finite_difference_check(Box::new(MaxPool2d::new(2)), &[1, 2, 4, 4], 5e-2, 100);
    }
}
