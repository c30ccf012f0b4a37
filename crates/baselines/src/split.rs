//! Class-wise splitting of the CNN/SNN baselines (the Split-CNN and Split-SNN
//! rows of Table III and Fig. 7), run through the same flow as ED-ViT:
//! balanced class assignment → per-subset pruned sub-model → retraining →
//! feature-concatenation fusion MLP.

use edvit_datasets::Dataset;
use edvit_fusion::{FusionConfig, FusionMlp};
use edvit_nn::{Layer, NnError};
use edvit_partition::{balanced_class_assignment, DeviceSpec};
use edvit_tensor::{init::TensorRng, stats, Tensor};
use edvit_vit::training::{train_classifier, TrainConfig};

use crate::{
    ecsnn_submodel_cost, nnfacet_submodel_cost, Result, SmallCnn, SmallCnnConfig, SpikingCnn,
};

/// Which baseline family to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// NNFacet-style split convolutional network.
    SplitCnn,
    /// EC-SNN-style split spiking network.
    SplitSnn,
}

impl std::fmt::Display for BaselineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineKind::SplitCnn => write!(f, "Split-CNN"),
            BaselineKind::SplitSnn => write!(f, "Split-SNN"),
        }
    }
}

/// Configuration of a baseline run.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitBaselineConfig {
    /// Number of edge devices / sub-models.
    pub n_devices: usize,
    /// Training configuration for each sub-model.
    pub train: TrainConfig,
    /// Fusion-MLP training steps.
    pub fusion_steps: usize,
    /// Fraction of out-of-subset samples mixed into each sub-model's
    /// training set.
    pub other_fraction: f32,
    /// Master seed.
    pub seed: u64,
}

impl Default for SplitBaselineConfig {
    fn default() -> Self {
        SplitBaselineConfig {
            n_devices: 2,
            train: TrainConfig {
                epochs: 6,
                batch_size: 16,
                learning_rate: 2e-3,
                lr_decay: 0.92,
                seed: 0,
            },
            fusion_steps: 150,
            other_fraction: 0.3,
            seed: 0,
        }
    }
}

/// Result of a baseline run: measured accuracy at trainable scale plus
/// paper-scale memory and latency from the analytic VGG-16 model.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitBaselineResult {
    /// Which baseline produced this result.
    pub kind: BaselineKind,
    /// Number of devices.
    pub n_devices: usize,
    /// Test accuracy of the fused prediction.
    pub accuracy: f32,
    /// Total paper-scale memory across sub-models, in MB.
    pub total_memory_mb: f64,
    /// Paper-scale per-sample latency in seconds on a Raspberry Pi 4B.
    pub latency_seconds: f64,
}

/// Runs a Split-CNN or Split-SNN experiment end to end.
#[derive(Debug, Clone)]
pub struct SplitBaselineRunner {
    config: SplitBaselineConfig,
}

impl SplitBaselineRunner {
    /// Creates a runner.
    pub fn new(config: SplitBaselineConfig) -> Self {
        SplitBaselineRunner { config }
    }

    /// The runner configuration.
    pub fn config(&self) -> &SplitBaselineConfig {
        &self.config
    }

    /// Paper-scale cost summary (total memory, latency) without any training.
    pub fn paper_scale_summary(&self, kind: BaselineKind, num_classes: usize) -> (f64, f64) {
        let n = self.config.n_devices;
        let cost = match kind {
            BaselineKind::SplitCnn => nnfacet_submodel_cost(num_classes as u64, n),
            BaselineKind::SplitSnn => ecsnn_submodel_cost(num_classes as u64, n),
        };
        let device = DeviceSpec::raspberry_pi_4b(0);
        let latency = device.execution_seconds(cost.flops);
        (cost.memory_mb() * n as f64, latency)
    }

    /// Trains the split baseline on `train`, evaluates the fused prediction on
    /// `test`, and reports measured accuracy with paper-scale cost numbers.
    ///
    /// # Errors
    ///
    /// Returns an error when the datasets are inconsistent with the requested
    /// device count or a training step fails.
    pub fn run(
        &self,
        train: &Dataset,
        test: &Dataset,
        kind: BaselineKind,
    ) -> Result<SplitBaselineResult> {
        let n = self.config.n_devices;
        let num_classes = train.num_classes();
        let subsets = balanced_class_assignment(num_classes, n, self.config.seed).map_err(|e| {
            NnError::InvalidConfig {
                message: e.to_string(),
            }
        })?;

        let base_config =
            SmallCnnConfig::for_dataset(train.channels(), train.image_size(), num_classes);
        let retention = 1.0 / n as f32;

        let mut rng = TensorRng::new(self.config.seed ^ 0xBA5E);
        let mut sub_models: Vec<Box<dyn Layer>> = Vec::with_capacity(n);
        let mut mappings = Vec::with_capacity(n);
        for (i, subset) in subsets.iter().enumerate() {
            // Prune a freshly initialized full CNN down to the per-device
            // width (NNFacet's filter pruning), then train on the subset.
            let full = SmallCnn::new(&base_config, &mut rng)?;
            let (sub_dataset, mapping) = train
                .resample_for_classes(
                    subset,
                    self.config.other_fraction,
                    self.config.seed + i as u64,
                )
                .map_err(|e| NnError::InvalidConfig {
                    message: e.to_string(),
                })?;
            let mut pruned =
                full.prune_filters(retention.max(0.25), mapping.num_local_labels(), &mut rng)?;
            train_classifier(
                &mut pruned,
                sub_dataset.images(),
                sub_dataset.labels(),
                &self.config.train,
            )
            .map_err(|e| NnError::InvalidConfig {
                message: e.to_string(),
            })?;
            let boxed: Box<dyn Layer> = match kind {
                BaselineKind::SplitCnn => Box::new(pruned),
                BaselineKind::SplitSnn => Box::new(SpikingCnn::from_cnn(pruned)),
            };
            sub_models.push(boxed);
            mappings.push(mapping);
        }

        // Feature extraction = the sub-model logits (the baseline papers fuse
        // class scores); concatenate across sub-models.
        let train_features = self.concat_outputs(&mut sub_models, train.images())?;
        let test_features = self.concat_outputs(&mut sub_models, test.images())?;

        // Train the fusion MLP on the concatenated outputs.
        let fusion_config = FusionConfig::new(train_features.dims()[1], num_classes);
        let mut fusion =
            FusionMlp::new(&fusion_config, &mut TensorRng::new(self.config.seed + 99))?;
        fusion.train(&train_features, train.labels(), self.config.fusion_steps)?;
        let predictions = fusion.predict(&test_features)?;
        let accuracy = stats::accuracy(&predictions, test.labels());

        let (total_memory_mb, latency_seconds) = self.paper_scale_summary(kind, num_classes);
        Ok(SplitBaselineResult {
            kind,
            n_devices: n,
            accuracy,
            total_memory_mb,
            latency_seconds,
        })
    }

    fn concat_outputs(&self, sub_models: &mut [Box<dyn Layer>], images: &Tensor) -> Result<Tensor> {
        let mut outputs = Vec::with_capacity(sub_models.len());
        for model in sub_models.iter_mut() {
            outputs.push(model.forward(images)?);
        }
        let refs: Vec<&Tensor> = outputs.iter().collect();
        Tensor::concat_last_axis(&refs).map_err(NnError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edvit_datasets::{DatasetKind, SyntheticConfig, SyntheticGenerator};

    fn datasets() -> (Dataset, Dataset) {
        let mut cfg = SyntheticConfig::tiny(DatasetKind::Cifar10Like);
        cfg.class_limit = Some(4);
        cfg.samples_per_class = 10;
        let full = SyntheticGenerator::new(3).generate(&cfg).unwrap();
        full.split(0.7, 1).unwrap()
    }

    fn fast_config(n: usize) -> SplitBaselineConfig {
        SplitBaselineConfig {
            n_devices: n,
            train: TrainConfig {
                epochs: 3,
                batch_size: 8,
                learning_rate: 3e-3,
                lr_decay: 0.9,
                seed: 0,
            },
            fusion_steps: 80,
            other_fraction: 0.3,
            seed: 1,
        }
    }

    #[test]
    fn split_cnn_beats_chance() {
        let (train, test) = datasets();
        let runner = SplitBaselineRunner::new(fast_config(2));
        let result = runner.run(&train, &test, BaselineKind::SplitCnn).unwrap();
        assert!(result.accuracy > 0.3, "accuracy {}", result.accuracy);
        assert_eq!(result.n_devices, 2);
        assert_eq!(result.kind, BaselineKind::SplitCnn);
        assert!(result.total_memory_mb > 0.0);
        assert!(result.latency_seconds > 0.0);
    }

    #[test]
    fn split_snn_runs_and_reports_costs() {
        let (train, test) = datasets();
        let runner = SplitBaselineRunner::new(fast_config(2));
        let snn = runner.run(&train, &test, BaselineKind::SplitSnn).unwrap();
        let cnn = runner.run(&train, &test, BaselineKind::SplitCnn).unwrap();
        // SNN is slower and smaller at paper scale.
        assert!(snn.latency_seconds > cnn.latency_seconds);
        assert!(snn.total_memory_mb < cnn.total_memory_mb);
        assert!(snn.accuracy > 0.2);
    }

    #[test]
    fn paper_scale_summary_ordering_across_device_counts() {
        let two = SplitBaselineRunner::new(fast_config(2));
        let ten = SplitBaselineRunner::new(fast_config(10));
        let (mem2, lat2) = two.paper_scale_summary(BaselineKind::SplitCnn, 10);
        let (mem10, lat10) = ten.paper_scale_summary(BaselineKind::SplitCnn, 10);
        assert!(lat10 < lat2);
        assert!(mem10 < mem2 * 10.0);
        assert_eq!(two.config().n_devices, 2);
    }

    #[test]
    fn display_names() {
        assert_eq!(BaselineKind::SplitCnn.to_string(), "Split-CNN");
        assert_eq!(BaselineKind::SplitSnn.to_string(), "Split-SNN");
    }
}
