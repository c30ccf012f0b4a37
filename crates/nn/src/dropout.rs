use edvit_tensor::{init::TensorRng, Tensor};

use crate::{Layer, NnError, Parameter, Result};

/// Inverted dropout: [`Layer::forward_train`] zeroes each activation with
/// probability `p` and rescales the survivors by `1 / (1 - p)`;
/// [`Layer::forward`], the inference entry, is the identity.
///
/// The layer carries its own seeded RNG so that training runs remain
/// reproducible.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: TensorRng,
    /// The mask [`Layer::forward_train`] applied.
    record: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`; dropout of exactly 1.0 would zero
    /// every activation which is never intended.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1)"
        );
        Dropout {
            p,
            rng: TensorRng::new(seed),
            record: None,
        }
    }

    /// Drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        Ok(input.clone())
    }

    fn forward_owned(&self, input: Tensor) -> Result<Tensor> {
        Ok(input)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        if self.p == 0.0 {
            self.record = Some(Tensor::ones(input.dims()));
            return Ok(input.clone());
        }
        let keep = 1.0 - self.p;
        let uniform = self.rng.rand_uniform(input.dims(), 0.0, 1.0);
        let mask = uniform.map(|u| if u < keep { 1.0 / keep } else { 0.0 });
        let out = input.mul(&mask)?;
        self.record = Some(mask);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mask = self
            .record
            .take()
            .ok_or(NnError::MissingForwardCache { layer: "Dropout" })?;
        Ok(grad_output.mul(&mask)?)
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

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 0);
        let x = Tensor::ones(&[4, 4]);
        assert_eq!(d.forward(&x).unwrap().data(), x.data());
        assert_eq!(d.forward_owned(x.clone()).unwrap().data(), x.data());
        assert!(matches!(
            d.backward(&x),
            Err(NnError::MissingForwardCache { .. })
        ));
    }

    #[test]
    fn training_mode_zeroes_and_rescales() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::ones(&[64, 64]);
        let y = d.forward_train(&x).unwrap();
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        let kept = y.data().iter().filter(|&&v| (v - 2.0).abs() < 1e-6).count();
        assert_eq!(zeros + kept, 64 * 64);
        // Roughly half dropped.
        assert!(zeros > 64 * 64 / 4 && zeros < 64 * 64 * 3 / 4);
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.3, 2);
        let x = Tensor::ones(&[10, 10]);
        let y = d.forward_train(&x).unwrap();
        let g = d.backward(&Tensor::ones(&[10, 10])).unwrap();
        // Gradient must be zero exactly where the output was zero.
        for (a, b) in y.data().iter().zip(g.data()) {
            assert_eq!(*a == 0.0, *b == 0.0);
        }
    }

    #[test]
    fn zero_probability_is_identity_even_in_training() {
        let mut d = Dropout::new(0.0, 3);
        let x = Tensor::ones(&[3]);
        assert_eq!(d.forward_train(&x).unwrap().data(), x.data());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut d = Dropout::new(0.1, 4);
        assert!(d.backward(&Tensor::ones(&[1])).is_err());
        assert!(d.parameters().is_empty());
        assert_eq!(d.probability(), 0.1);
    }

    #[test]
    #[should_panic]
    fn invalid_probability_panics() {
        let _ = Dropout::new(1.0, 0);
    }
}
