use edvit_tensor::Tensor;

use crate::{NnError, Parameter, Result};

/// Adam's first-moment decay β₁.
const BETA1: f32 = 0.9;
/// Adam's second-moment decay β₂.
const BETA2: f32 = 0.999;
/// Adam's denominator guard ε.
const EPS: f32 = 1e-8;

/// Adam optimizer (Kingma & Ba, 2014), the optimizer the paper trains with
/// (`lr = 1e-4`, decaying), with the standard β₁=0.9, β₂=0.999, ε=1e-8.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    step_count: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            step_count: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update step to every parameter and takes its gradient
    /// ([`Parameter::take_grad`]), so the next backward accumulates from
    /// nothing and a trained model holds no gradient. A parameter that holds
    /// none steps as on a zero gradient.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when the parameter list changed
    /// length or a parameter changed shape since the first step.
    pub fn step(&mut self, params: &mut [&mut Parameter]) -> Result<()> {
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.value().dims()))
                .collect();
            self.v = params
                .iter()
                .map(|p| Tensor::zeros(p.value().dims()))
                .collect();
        }
        if self.m.len() != params.len() {
            return Err(NnError::InvalidConfig {
                message: format!(
                    "optimizer state has {} slots but {} parameters were passed",
                    self.m.len(),
                    params.len()
                ),
            });
        }
        self.step_count += 1;
        let t = self.step_count as f32;
        let bias1 = 1.0 - BETA1.powf(t);
        let bias2 = 1.0 - BETA2.powf(t);
        for (i, p) in params.iter_mut().enumerate() {
            if self.m[i].dims() != p.value().dims() {
                return Err(NnError::InvalidConfig {
                    message: format!(
                        "parameter {} changed shape mid-training: state {:?} vs value {:?}",
                        p.name(),
                        self.m[i].dims(),
                        p.value().dims()
                    ),
                });
            }
            let grad = p
                .take_grad()
                .unwrap_or_else(|| Tensor::zeros(p.value().dims()));
            self.m[i] = self.m[i].scale(BETA1).add(&grad.scale(1.0 - BETA1))?;
            let grad_sq = grad.mul(&grad)?;
            self.v[i] = self.v[i].scale(BETA2).add(&grad_sq.scale(1.0 - BETA2))?;
            let m_hat = self.m[i].scale(1.0 / bias1);
            let v_hat = self.v[i].scale(1.0 / bias2);
            let update = m_hat.zip(&v_hat, |m, v| m / (v.sqrt() + EPS))?;
            p.value_mut().add_scaled_assign(&update, -self.lr)?;
        }
        Ok(())
    }

    /// The current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Overrides the learning rate (used by the per-epoch decay).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_param(start: f32) -> Parameter {
        Parameter::new("x", Tensor::from_vec(vec![start], &[1]).unwrap())
    }

    /// Minimizes f(x) = x^2 whose gradient is 2x.
    fn run_optimizer(mut opt: Adam, steps: usize, start: f32) -> f32 {
        let mut p = quadratic_param(start);
        for _ in 0..steps {
            let x = p.value().data()[0];
            p.accumulate_grad(&Tensor::from_vec(vec![2.0 * x], &[1]).unwrap())
                .unwrap();
            opt.step(&mut [&mut p]).unwrap();
        }
        p.value().data()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = run_optimizer(Adam::new(0.1), 300, 5.0);
        assert!(x.abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn adam_counts_steps_and_rejects_changed_params() {
        // Under a constant gradient, bias correction at the right step count
        // makes every update exactly one learning rate long.
        let mut adam = Adam::new(0.01);
        let mut p = quadratic_param(1.0);
        for expected in [0.99, 0.98] {
            p.accumulate_grad(&Tensor::from_vec(vec![2.0], &[1]).unwrap())
                .unwrap();
            adam.step(&mut [&mut p]).unwrap();
            assert!(p.grad().is_none());
            assert!((p.value().data()[0] - expected).abs() < 1e-5);
        }
        let mut p2 = Parameter::new("y", Tensor::zeros(&[3]));
        // Same count but different shape -> explicit error.
        assert!(adam.step(&mut [&mut p2]).is_err());
        // Different count -> explicit error.
        let mut q = quadratic_param(0.0);
        assert!(adam.step(&mut [&mut p, &mut q]).is_err());
    }

    #[test]
    fn a_step_without_a_gradient_is_a_step_on_a_zero_gradient() {
        // One step with a gradient, so the moments are non-zero (and one of
        // them negative, where `m·β₁ + 0` is `-0.0 + 0.0` territory), then
        // a step on no gradient against a step on an explicit zero gradient.
        let start = Tensor::from_vec(vec![1.0, -2.0, 0.0, 3.5], &[4]).unwrap();
        let g = Tensor::from_vec(vec![0.5, -0.25, 0.0, -0.0], &[4]).unwrap();
        let mut runs = Vec::new();
        for explicit_zero in [false, true] {
            let mut adam = Adam::new(0.01);
            let mut p = Parameter::new("x", start.clone());
            p.accumulate_grad(&g).unwrap();
            adam.step(&mut [&mut p]).unwrap();
            if explicit_zero {
                p.accumulate_grad(&Tensor::zeros(&[4])).unwrap();
            }
            adam.step(&mut [&mut p]).unwrap();
            let bits: Vec<u32> = p.value().data().iter().map(|v| v.to_bits()).collect();
            let moments: Vec<u32> = adam.m[0]
                .data()
                .iter()
                .chain(adam.v[0].data())
                .map(|v| v.to_bits())
                .collect();
            runs.push((bits, moments));
        }
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut adam = Adam::new(0.3);
        assert_eq!(adam.learning_rate(), 0.3);
        adam.set_learning_rate(0.1);
        assert_eq!(adam.learning_rate(), 0.1);
    }
}
