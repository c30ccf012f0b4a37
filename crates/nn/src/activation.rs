use edvit_parallel::ParallelPool;
use edvit_tensor::{ops, Tensor};

use crate::{Layer, NnError, Parameter, Result};

/// Rectified linear unit activation layer.
///
/// # Example
///
/// ```
/// use edvit_nn::{Layer, Relu};
/// use edvit_tensor::Tensor;
///
/// # fn main() -> Result<(), edvit_nn::NnError> {
/// let mut relu = Relu::new();
/// let y = relu.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[2])?)?;
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cache_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { cache_input: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        self.cache_input = Some(input.clone());
        Ok(input.relu())
    }

    fn forward_owned(&mut self, mut input: Tensor) -> Result<Tensor> {
        self.cache_input = Some(input.clone());
        input.map_inplace(|x| x.max(0.0));
        Ok(input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let x = self
            .cache_input
            .as_ref()
            .ok_or(NnError::MissingForwardCache { layer: "Relu" })?;
        let mask = x.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        Ok(grad_output.mul(&mask)?)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn parameters(&self) -> Vec<&Parameter> {
        Vec::new()
    }
}

/// Gaussian Error Linear Unit activation layer (tanh approximation), the
/// nonlinearity used in Vision Transformer feed-forward blocks.
#[derive(Debug, Clone, Default)]
pub struct Gelu {
    cache_input: Option<Tensor>,
}

impl Gelu {
    /// Creates a GELU layer.
    pub fn new() -> Self {
        Gelu { cache_input: None }
    }
}

impl Layer for Gelu {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        self.cache_input = Some(input.clone());
        Ok(input.gelu())
    }

    fn forward_owned(&mut self, mut input: Tensor) -> Result<Tensor> {
        self.cache_input = Some(input.clone());
        ops::gelu_map(input.data_mut(), ParallelPool::global());
        Ok(input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let x = self
            .cache_input
            .as_ref()
            .ok_or(NnError::MissingForwardCache { layer: "Gelu" })?;
        let dgelu = x.map(ops::gelu_grad_scalar);
        Ok(grad_output.mul(&dgelu)?)
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
    use edvit_tensor::Tensor;

    #[test]
    fn relu_forward_backward() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-2.0, -0.5, 0.5, 2.0], &[4]).unwrap();
        let y = relu.forward(&x).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 2.0]);
        let g = relu.backward(&Tensor::ones(&[4])).unwrap();
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn relu_backward_requires_forward() {
        let mut relu = Relu::new();
        assert!(relu.backward(&Tensor::ones(&[1])).is_err());
        assert!(relu.parameters().is_empty());
    }

    #[test]
    fn gelu_forward_positive_passthrough() {
        let mut gelu = Gelu::new();
        let x = Tensor::from_vec(vec![5.0], &[1]).unwrap();
        let y = gelu.forward(&x).unwrap();
        assert!((y.data()[0] - 5.0).abs() < 1e-2);
    }

    #[test]
    fn gelu_backward_requires_forward() {
        let mut gelu = Gelu::new();
        assert!(gelu.backward(&Tensor::ones(&[1])).is_err());
        assert!(gelu.parameters().is_empty());
    }

    #[test]
    fn forward_owned_matches_forward_and_leaves_the_same_cache() {
        let x = Tensor::from_vec(vec![-3.0, -0.25, 0.0, 0.5, 2.0, 11.0], &[2, 3]).unwrap();
        let g = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0, 5.0, -6.0], &[2, 3]).unwrap();
        let layers: [(Box<dyn Layer>, Box<dyn Layer>); 2] = [
            (Box::new(Relu::new()), Box::new(Relu::new())),
            (Box::new(Gelu::new()), Box::new(Gelu::new())),
        ];
        for (mut borrowed, mut owned) in layers {
            assert_eq!(
                owned.forward_owned(x.clone()).unwrap(),
                borrowed.forward(&x).unwrap()
            );
            assert_eq!(owned.backward(&g).unwrap(), borrowed.backward(&g).unwrap());
        }
    }

    #[test]
    fn relu_gradcheck() {
        finite_difference_check(Box::new(Relu::new()), &[3, 4], 2e-2, 11);
    }

    #[test]
    fn gelu_gradcheck() {
        finite_difference_check(Box::new(Gelu::new()), &[3, 4], 2e-2, 12);
    }
}
