use edvit_tensor::Tensor;

/// A trainable parameter: a value tensor plus its accumulated gradient.
///
/// Layers expose their parameters through [`crate::Layer::parameters_mut`];
/// optimizers mutate `value` from `grad`, and `zero_grad` resets accumulation
/// between steps.
///
/// # Example
///
/// ```
/// use edvit_nn::Parameter;
/// use edvit_tensor::Tensor;
///
/// let mut p = Parameter::new("weight", Tensor::ones(&[2, 2]));
/// assert_eq!(p.grad().sum(), 0.0);
/// p.accumulate_grad(&Tensor::full(&[2, 2], 0.5)).unwrap();
/// assert_eq!(p.grad().sum(), 2.0);
/// p.zero_grad();
/// assert_eq!(p.grad().sum(), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Parameter {
    name: String,
    value: Tensor,
    grad: Tensor,
}

impl Parameter {
    /// Creates a parameter with a zeroed gradient of the same shape.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Parameter {
            name: name.into(),
            value,
            grad,
        }
    }

    /// Human-readable name used in diagnostics (`"qkv.weight"`, ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current value.
    pub fn value(&self) -> &Tensor {
        &self.value
    }

    /// Mutable access to the value (used by optimizers and by weight-slicing
    /// during structured pruning).
    pub fn value_mut(&mut self) -> &mut Tensor {
        &mut self.value
    }

    /// Replaces the value and resets the gradient to match the new shape.
    pub fn set_value(&mut self, value: Tensor) {
        self.grad = Tensor::zeros(value.dims());
        self.value = value;
    }

    /// The accumulated gradient.
    pub fn grad(&self) -> &Tensor {
        &self.grad
    }

    /// Adds `g` into the accumulated gradient.
    ///
    /// # Errors
    ///
    /// Returns a tensor error when `g` has a different shape than the value.
    pub fn accumulate_grad(&mut self, g: &Tensor) -> Result<(), edvit_tensor::TensorError> {
        self.grad.add_assign(g)
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad = Tensor::zeros(self.value.dims());
    }

    /// Number of scalar values in this parameter.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }
}

/// Total number of scalar parameters across a parameter list.
pub fn total_parameters(params: &[&Parameter]) -> usize {
    params.iter().map(|p| p.numel()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_parameter_has_zero_grad() {
        let p = Parameter::new("w", Tensor::ones(&[3, 3]));
        assert_eq!(p.name(), "w");
        assert_eq!(p.grad().sum(), 0.0);
        assert_eq!(p.numel(), 9);
    }

    #[test]
    fn accumulate_and_zero() {
        let mut p = Parameter::new("b", Tensor::zeros(&[4]));
        p.accumulate_grad(&Tensor::ones(&[4])).unwrap();
        p.accumulate_grad(&Tensor::ones(&[4])).unwrap();
        assert_eq!(p.grad().sum(), 8.0);
        p.zero_grad();
        assert_eq!(p.grad().sum(), 0.0);
        assert!(p.accumulate_grad(&Tensor::ones(&[5])).is_err());
    }

    #[test]
    fn set_value_resets_grad_shape() {
        let mut p = Parameter::new("w", Tensor::ones(&[2, 2]));
        p.accumulate_grad(&Tensor::ones(&[2, 2])).unwrap();
        p.set_value(Tensor::zeros(&[3]));
        assert_eq!(p.value().dims(), &[3]);
        assert_eq!(p.grad().dims(), &[3]);
        assert_eq!(p.grad().sum(), 0.0);
    }

    #[test]
    fn total_parameters_sums() {
        let a = Parameter::new("a", Tensor::zeros(&[2, 3]));
        let b = Parameter::new("b", Tensor::zeros(&[5]));
        assert_eq!(total_parameters(&[&a, &b]), 11);
        assert_eq!(total_parameters(&[]), 0);
    }
}
