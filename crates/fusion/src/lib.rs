//! # edvit-fusion
//!
//! The result-fusion stage of ED-ViT (Section IV-E): the aggregation device
//! concatenates the feature vectors produced by the sub-models and feeds them
//! through a small tower-structured MLP
//! (`N·d·s → λ·N·d·s → num_classes`, λ = 0.5) to produce the final
//! prediction. The MLP is trained once after all sub-models are trained.
//!
//! The aggregation device fuses one image at a time, so a fusion call is a
//! `[1, N·d·s]` row times each weight matrix: `edvit-tensor` serves products
//! of fewer than four rows unpacked, streaming the weights once where they
//! lie (`tests/predict_pinned.rs` pins the logits' bits on the serving shape).
//!
//! # Example
//!
//! ```
//! use edvit_fusion::{FusionConfig, FusionMlp};
//! use edvit_tensor::{init::TensorRng, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = FusionConfig::new(16, 4);
//! let mut fusion = FusionMlp::new(&config, &mut TensorRng::new(0))?;
//! let features = TensorRng::new(1).randn(&[8, 16], 0.0, 1.0);
//! let logits = fusion.predict_logits(&features)?;
//! assert_eq!(logits.dims(), &[8, 4]);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use edvit_nn::{Layer, Mlp, MlpActivation, NnError, Parameter};
use edvit_tensor::{init::TensorRng, Tensor};

/// The paper's shrinking hyper-parameter λ of the fusion MLP's hidden layer.
const LAMBDA: f32 = 0.5;

/// Configuration of the tower-structured fusion MLP.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionConfig {
    /// Total input width: the sum of the sub-models' feature dimensions
    /// (`N × d × s` for homogeneous pruning).
    pub input_dim: usize,
    /// Number of global classes the fused prediction covers.
    pub num_classes: usize,
}

impl FusionConfig {
    /// Creates a configuration of the given widths.
    pub fn new(input_dim: usize, num_classes: usize) -> Self {
        FusionConfig {
            input_dim,
            num_classes,
        }
    }

    /// Width of the hidden layer, `⌈λ · input_dim⌉`, at least one unit.
    pub fn hidden_dim(&self) -> usize {
        ((self.input_dim as f32 * LAMBDA).ceil() as usize).max(1)
    }

    /// Multiply–accumulate operations of one fusion forward pass; feeds the
    /// latency model's fusion term.
    pub fn flops(&self) -> u64 {
        (self.input_dim * self.hidden_dim() + self.hidden_dim() * self.num_classes) as u64
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for zero sizes.
    pub fn validate(&self) -> Result<(), NnError> {
        if self.input_dim == 0 || self.num_classes == 0 {
            return Err(NnError::InvalidConfig {
                message: format!("invalid fusion configuration: {self:?}"),
            });
        }
        Ok(())
    }
}

/// The trained fusion model run on the aggregation device.
#[derive(Debug, Clone)]
pub struct FusionMlp {
    config: FusionConfig,
    mlp: Mlp,
}

impl FusionMlp {
    /// Creates an untrained fusion MLP.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when the configuration is invalid.
    pub fn new(config: &FusionConfig, rng: &mut TensorRng) -> Result<Self, NnError> {
        config.validate()?;
        let mlp = Mlp::with_activation(
            &[config.input_dim, config.hidden_dim(), config.num_classes],
            MlpActivation::Gelu,
            rng,
        )?;
        Ok(FusionMlp {
            config: config.clone(),
            mlp,
        })
    }

    /// The configuration of this fusion model.
    pub fn config(&self) -> &FusionConfig {
        &self.config
    }

    /// Number of scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.mlp.parameter_count()
    }

    /// Memory footprint of the fusion model in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.parameter_count() as u64 * 4
    }

    /// Runs the fusion MLP on a batch of concatenated features `[n, input]`,
    /// returning logits `[n, classes]`.
    ///
    /// # Errors
    ///
    /// Returns an error when the feature width does not match the config.
    pub fn predict_logits(&mut self, features: &Tensor) -> Result<Tensor, NnError> {
        self.mlp.forward(features)
    }

    /// Argmax class prediction per sample.
    ///
    /// # Errors
    ///
    /// Returns an error when the feature width does not match the config.
    pub fn predict(&mut self, features: &Tensor) -> Result<Vec<usize>, NnError> {
        let logits = self.predict_logits(features)?;
        logits.argmax_last_axis().map_err(NnError::from)
    }
}

impl Layer for FusionMlp {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        self.mlp.forward(input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        self.mlp.backward(grad_output)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        self.mlp.parameters_mut()
    }

    fn parameters(&self) -> Vec<&Parameter> {
        self.mlp.parameters()
    }
}

/// Softmax-averaging fallback used by the "w/o retrain" ablation (Table IV):
/// instead of a trained MLP, the per-sub-model class distributions are summed
/// in global class space and the argmax is taken.
///
/// `per_submodel_probs[j]` holds sub-model `j`'s probabilities `[n, |C_j|+1]`
/// (its classes plus an optional "other" column), and `global_classes[j]`
/// maps each local column (except the "other" one) to a global class index.
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] when shapes or mappings are
/// inconsistent.
pub fn average_softmax_fusion(
    per_submodel_probs: &[Tensor],
    global_classes: &[Vec<usize>],
    num_global_classes: usize,
) -> Result<Vec<usize>, NnError> {
    if per_submodel_probs.is_empty() || per_submodel_probs.len() != global_classes.len() {
        return Err(NnError::InvalidConfig {
            message: "probability tensors and class mappings must be equal-length and non-empty"
                .to_string(),
        });
    }
    let n = per_submodel_probs[0].dims()[0];
    let mut scores = vec![0.0f32; n * num_global_classes];
    for (probs, classes) in per_submodel_probs.iter().zip(global_classes) {
        if probs.rank() != 2 || probs.dims()[0] != n {
            return Err(NnError::InvalidConfig {
                message: format!("probability tensor has unexpected shape {:?}", probs.dims()),
            });
        }
        let cols = probs.dims()[1];
        if classes.len() > cols {
            return Err(NnError::InvalidConfig {
                message: format!(
                    "{} class mappings but only {cols} probability columns",
                    classes.len()
                ),
            });
        }
        for (local, &global) in classes.iter().enumerate() {
            if global >= num_global_classes {
                return Err(NnError::InvalidConfig {
                    message: format!("global class {global} out of range"),
                });
            }
            for i in 0..n {
                scores[i * num_global_classes + global] += probs.data()[i * cols + local];
            }
        }
    }
    let mut predictions = Vec::with_capacity(n);
    for i in 0..n {
        let row = &scores[i * num_global_classes..(i + 1) * num_global_classes];
        let mut best = 0usize;
        for (c, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = c;
            }
        }
        predictions.push(best);
    }
    Ok(predictions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edvit_nn::{Adam, CrossEntropyLoss, Optimizer};

    #[test]
    fn config_dimensions_and_flops() {
        let c = FusionConfig::new(768, 10);
        assert_eq!(c.hidden_dim(), 384);
        assert_eq!(c.flops(), (768 * 384 + 384 * 10) as u64);
        assert_eq!(FusionConfig::new(1, 3).hidden_dim(), 1);
        assert!(FusionConfig::new(0, 4).validate().is_err());
        assert!(FusionConfig::new(4, 0).validate().is_err());
    }

    #[test]
    fn fusion_mlp_shapes_and_memory() {
        let config = FusionConfig::new(24, 5);
        let mut fusion = FusionMlp::new(&config, &mut TensorRng::new(0)).unwrap();
        assert_eq!(fusion.config().num_classes, 5);
        let features = TensorRng::new(1).randn(&[3, 24], 0.0, 1.0);
        assert_eq!(fusion.predict_logits(&features).unwrap().dims(), &[3, 5]);
        assert_eq!(fusion.predict(&features).unwrap().len(), 3);
        assert_eq!(fusion.memory_bytes(), fusion.parameter_count() as u64 * 4);
        assert!(fusion.predict_logits(&Tensor::zeros(&[3, 25])).is_err());
    }

    #[test]
    fn fusion_mlp_learns_a_simple_mapping() {
        // Features where the first 4 dims encode the class one-hot.
        let mut rng = TensorRng::new(2);
        let n = 64;
        let dim = 8;
        let mut features = rng.randn(&[n, dim], 0.0, 0.3);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 4;
            labels.push(class);
            let idx = i * dim + class;
            features.data_mut()[idx] += 2.0;
        }
        let config = FusionConfig::new(dim, 4);
        let mut fusion = FusionMlp::new(&config, &mut TensorRng::new(3)).unwrap();
        let mut optimizer = Adam::new(2e-2);
        let mut loss_fn = CrossEntropyLoss::new();
        for _ in 0..250 {
            fusion.zero_grad();
            let logits = fusion.forward(&features).unwrap();
            loss_fn.forward(&logits, &labels).unwrap();
            let grad = loss_fn.backward().unwrap();
            fusion.backward(&grad).unwrap();
            optimizer.step(&mut fusion.parameters_mut()).unwrap();
        }
        let preds = fusion.predict(&features).unwrap();
        let acc = preds.iter().zip(&labels).filter(|(p, l)| p == l).count() as f32 / n as f32;
        assert!(acc > 0.9, "fusion accuracy {acc}");
    }

    #[test]
    fn average_softmax_fusion_maps_local_to_global() {
        // Two sub-models over 4 global classes: {0,1} and {2,3}, each with an
        // extra "other" column that must be ignored.
        let probs_a =
            Tensor::from_vec(vec![0.8, 0.1, 0.1, /* sample 2 */ 0.1, 0.2, 0.7], &[2, 3]).unwrap();
        let probs_b =
            Tensor::from_vec(vec![0.1, 0.2, 0.7, /* sample 2 */ 0.6, 0.3, 0.1], &[2, 3]).unwrap();
        let preds =
            average_softmax_fusion(&[probs_a, probs_b], &[vec![0, 1], vec![2, 3]], 4).unwrap();
        // Sample 1: class 0 has 0.8, nothing beats it. Sample 2: class 2 has 0.6.
        assert_eq!(preds, vec![0, 2]);
    }

    #[test]
    fn average_softmax_fusion_validation() {
        let p = Tensor::zeros(&[2, 3]);
        assert!(average_softmax_fusion(&[], &[], 4).is_err());
        assert!(average_softmax_fusion(std::slice::from_ref(&p), &[vec![0], vec![1]], 4).is_err());
        assert!(average_softmax_fusion(std::slice::from_ref(&p), &[vec![0, 1, 2, 3]], 4).is_err());
        assert!(average_softmax_fusion(std::slice::from_ref(&p), &[vec![9]], 4).is_err());
        assert!(average_softmax_fusion(&[p], &[vec![0, 1]], 4).is_ok());
    }
}
