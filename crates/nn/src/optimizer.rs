use edvit_tensor::Tensor;

use crate::{NnError, Parameter, Result};

/// A first-order optimizer updating parameters in place from their
/// accumulated gradients.
pub trait Optimizer {
    /// Applies one update step to every parameter, then leaves gradients
    /// untouched (call [`crate::Layer::zero_grad`] separately, mirroring the
    /// PyTorch training loop the paper uses).
    ///
    /// # Errors
    ///
    /// Returns an error when internal state and parameter shapes diverge,
    /// which indicates the parameter list changed between steps.
    fn step(&mut self, params: &mut [&mut Parameter]) -> Result<()>;

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by the decay schedule).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Parameter]) -> Result<()> {
        for p in params.iter_mut() {
            let grad = p.grad().clone();
            p.value_mut().add_scaled_assign(&grad, -self.lr)?;
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

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
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Parameter]) -> Result<()> {
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
            let grad = p.grad().clone();
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

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Multiplicative learning-rate decay applied every `every` steps, mirroring
/// the "decaying learning rate initialized to 1e-4" schedule in the paper.
#[derive(Debug, Clone)]
pub struct LrSchedule {
    initial_lr: f32,
    decay: f32,
    every: u64,
}

impl LrSchedule {
    /// Creates a step-decay schedule.
    pub fn new(initial_lr: f32, decay: f32, every: u64) -> Self {
        LrSchedule {
            initial_lr,
            decay,
            every: every.max(1),
        }
    }

    /// Learning rate to use at global step `step`.
    pub fn lr_at(&self, step: u64) -> f32 {
        self.initial_lr * self.decay.powf((step / self.every) as f32)
    }

    /// Applies the schedule to an optimizer for the given step.
    pub fn apply<O: Optimizer + ?Sized>(&self, optimizer: &mut O, step: u64) {
        optimizer.set_learning_rate(self.lr_at(step));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_param(start: f32) -> Parameter {
        Parameter::new("x", Tensor::from_vec(vec![start], &[1]).unwrap())
    }

    /// Minimizes f(x) = x^2 whose gradient is 2x.
    fn run_optimizer<O: Optimizer>(mut opt: O, steps: usize, start: f32) -> f32 {
        let mut p = quadratic_param(start);
        for _ in 0..steps {
            p.zero_grad();
            let x = p.value().data()[0];
            p.accumulate_grad(&Tensor::from_vec(vec![2.0 * x], &[1]).unwrap())
                .unwrap();
            opt.step(&mut [&mut p]).unwrap();
        }
        p.value().data()[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let x = run_optimizer(Sgd::new(0.1), 100, 5.0);
        assert!(x.abs() < 1e-3, "x = {x}");
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
        p.accumulate_grad(&Tensor::from_vec(vec![2.0], &[1]).unwrap())
            .unwrap();
        for expected in [0.99, 0.98] {
            adam.step(&mut [&mut p]).unwrap();
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
    fn learning_rate_accessors() {
        let mut sgd = Sgd::new(0.5);
        assert_eq!(sgd.learning_rate(), 0.5);
        sgd.set_learning_rate(0.25);
        assert_eq!(sgd.learning_rate(), 0.25);
        let mut adam = Adam::new(0.3);
        assert_eq!(adam.learning_rate(), 0.3);
        adam.set_learning_rate(0.1);
        assert_eq!(adam.learning_rate(), 0.1);
    }

    #[test]
    fn lr_schedule_decays() {
        let sched = LrSchedule::new(1e-4, 0.5, 10);
        assert_eq!(sched.lr_at(0), 1e-4);
        assert!((sched.lr_at(10) - 5e-5).abs() < 1e-9);
        assert!((sched.lr_at(25) - 2.5e-5).abs() < 1e-9);
        let mut opt = Sgd::new(1.0);
        sched.apply(&mut opt, 20);
        assert!((opt.learning_rate() - 2.5e-5).abs() < 1e-9);
    }
}
