use edvit_tensor::Tensor;

/// A trainable parameter: a value tensor plus, during a training step, its
/// accumulated gradient.
///
/// The gradient exists only from the first [`Parameter::accumulate_grad`] of
/// a backward pass until the optimizer step that takes it
/// ([`Parameter::take_grad`]), so a parameter outside a training step holds
/// its value and nothing else: a deployed model holds `4 B` per parameter,
/// what the planner budgets.
///
/// # Example
///
/// ```
/// use edvit_nn::Parameter;
/// use edvit_tensor::Tensor;
///
/// let mut p = Parameter::new("weight", Tensor::ones(&[2, 2]));
/// assert!(p.grad().is_none());
/// p.accumulate_grad(&Tensor::full(&[2, 2], 0.5)).unwrap();
/// assert_eq!(p.grad().map(Tensor::sum), Some(2.0));
/// p.zero_grad();
/// assert!(p.grad().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct Parameter {
    name: &'static str,
    value: Tensor,
    grad: Option<Tensor>,
}

impl Parameter {
    /// Creates a parameter that holds no gradient.
    pub fn new(name: &'static str, value: Tensor) -> Self {
        Parameter {
            name,
            value,
            grad: None,
        }
    }

    /// Human-readable name used in diagnostics (`"linear.weight"`, ...).
    pub fn name(&self) -> &'static str {
        self.name
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

    /// The gradient accumulated since the last step, if any backward pass
    /// reached this parameter.
    pub fn grad(&self) -> Option<&Tensor> {
        self.grad.as_ref()
    }

    /// Takes the accumulated gradient, leaving none (what an optimizer step
    /// consumes).
    pub fn take_grad(&mut self) -> Option<Tensor> {
        self.grad.take()
    }

    /// Adds `g` into the accumulated gradient, starting from zeros when none
    /// is held (zeros plus `g`, not a copy of `g`: a `-0.0` entry lands as
    /// `+0.0`, as it would on a zeroed gradient).
    ///
    /// # Errors
    ///
    /// Returns a tensor error when `g` has a different shape than the value.
    pub fn accumulate_grad(&mut self, g: &Tensor) -> Result<(), edvit_tensor::TensorError> {
        self.grad
            .get_or_insert_with(|| Tensor::zeros(self.value.dims()))
            .add_assign(g)
    }

    /// Drops the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad = None;
    }

    /// Number of scalar values in this parameter.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_parameter_holds_no_grad() {
        let p = Parameter::new("w", Tensor::ones(&[3, 3]));
        assert_eq!(p.name(), "w");
        assert!(p.grad().is_none());
        assert_eq!(p.numel(), 9);
    }

    #[test]
    fn accumulate_and_zero() {
        let mut p = Parameter::new("b", Tensor::zeros(&[4]));
        p.accumulate_grad(&Tensor::ones(&[4])).unwrap();
        p.accumulate_grad(&Tensor::ones(&[4])).unwrap();
        assert_eq!(p.grad().map(Tensor::sum), Some(8.0));
        p.zero_grad();
        assert!(p.grad().is_none());
        assert!(p.accumulate_grad(&Tensor::ones(&[5])).is_err());
    }

    #[test]
    fn a_first_accumulation_adds_onto_zeros() {
        let mut p = Parameter::new("b", Tensor::zeros(&[2]));
        p.accumulate_grad(&Tensor::from_vec(vec![-0.0, -1.5], &[2]).unwrap())
            .unwrap();
        let grad = p.take_grad().unwrap();
        assert_eq!(grad.data()[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(grad.data()[1], -1.5);
        assert!(p.grad().is_none());
    }
}
