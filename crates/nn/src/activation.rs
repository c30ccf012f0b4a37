use edvit_parallel::ParallelPool;
use edvit_tensor::{ops, Tensor};

use crate::{Layer, NnError, Parameter, Result};

/// `max(x, 0)` on every element, in place.
pub(crate) fn relu_in_place(x: &mut Tensor) {
    x.map_inplace(|v| v.max(0.0));
}

/// The gradient through a ReLU whose input was `pre`.
pub(crate) fn relu_backward(pre: &Tensor, grad_output: &Tensor) -> Result<Tensor> {
    let mask = pre.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
    Ok(grad_output.mul(&mask)?)
}

/// GELU (tanh approximation) on every element, in place, across the pool.
pub(crate) fn gelu_in_place(x: &mut Tensor) {
    ops::gelu_map(x.data_mut(), ParallelPool::global());
}

/// The gradient through a GELU whose input was `pre`.
pub(crate) fn gelu_backward(pre: &Tensor, grad_output: &Tensor) -> Result<Tensor> {
    let dgelu = pre.map(ops::gelu_grad_scalar);
    Ok(grad_output.mul(&dgelu)?)
}

/// Rectified linear unit activation layer.
///
/// # Example
///
/// ```
/// use edvit_nn::{Layer, Relu};
/// use edvit_tensor::Tensor;
///
/// # fn main() -> Result<(), edvit_nn::NnError> {
/// let relu = Relu::new();
/// let y = relu.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[2])?)?;
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    /// The input [`Layer::forward_train`] saw.
    record: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { record: None }
    }
}

impl Layer for Relu {
    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        self.forward_owned(input.clone())
    }

    fn forward_owned(&self, mut input: Tensor) -> Result<Tensor> {
        relu_in_place(&mut input);
        Ok(input)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        self.record = Some(input.clone());
        self.forward(input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let pre = self
            .record
            .take()
            .ok_or(NnError::MissingForwardCache { layer: "Relu" })?;
        relu_backward(&pre, grad_output)
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
        let y = relu.forward_train(&x).unwrap();
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
    fn forward_owned_matches_forward() {
        let x = Tensor::from_vec(vec![-3.0, -0.25, 0.0, 0.5, 2.0, 11.0], &[2, 3]).unwrap();
        let relu = Relu::new();
        assert_eq!(
            relu.forward_owned(x.clone()).unwrap(),
            relu.forward(&x).unwrap()
        );
    }

    #[test]
    fn relu_gradcheck() {
        finite_difference_check(Box::new(Relu::new()), &[3, 4], 2e-2, 11);
    }
}
