//! The three-stage structured pruner (Algorithm 2) and per-sub-model
//! retraining.

use edvit_datasets::{ClassSubsetMapping, Dataset};
use edvit_tensor::init::TensorRng;
use edvit_vit::{
    training::{train_classifier, TrainConfig, TrainReport},
    PrunedViTConfig, VisionTransformer,
};

use crate::{
    channel_importance, ffn_importance, head_dim_importance, importance::top_k_indices,
    ImportanceMethod, PruningError, Result,
};

/// Configuration of the structured pruner.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunerConfig {
    /// Importance criterion shared by all three stages.
    pub method: ImportanceMethod,
    /// Fraction of out-of-subset ("other") samples added to the sub-model's
    /// training set so it learns to reject inputs it is not responsible for.
    pub other_fraction: f32,
    /// Fine-tuning configuration applied after the three pruning stages
    /// (`None` skips retraining — the "(w/o) retrain" ablation row).
    pub retrain: Option<TrainConfig>,
    /// Seed for class resampling and head re-initialization.
    pub seed: u64,
}

impl Default for PrunerConfig {
    fn default() -> Self {
        PrunerConfig {
            method: ImportanceMethod::Magnitude,
            other_fraction: 0.3,
            retrain: Some(TrainConfig {
                epochs: 4,
                batch_size: 16,
                learning_rate: 1e-3,
                lr_decay: 0.9,
                seed: 0,
            }),
            seed: 0,
        }
    }
}

/// A pruned, class-specific sub-model ready for deployment on an edge device.
#[derive(Debug, Clone)]
pub struct PrunedSubModel {
    /// The weight-sliced (and optionally fine-tuned) model. Its head has
    /// `|C_i| + 1` outputs: the subset classes plus an "other" bucket.
    pub model: VisionTransformer,
    /// Mapping between the sub-model's local labels and global classes.
    pub mapping: ClassSubsetMapping,
    /// The structural pruning plan this model realizes.
    pub plan: PrunedViTConfig,
    /// Training report of the fine-tuning phase (empty when retraining was
    /// disabled).
    pub retrain_report: Option<TrainReport>,
}

impl PrunedSubModel {
    /// Measured parameter memory of the sub-model in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.model.memory_bytes()
    }

    /// Global classes this sub-model is responsible for.
    pub fn classes(&self) -> &[usize] {
        &self.mapping.subset
    }
}

/// Algorithm 2: `prune(Model₀, X, y, C_i, hp_i)` followed by retraining.
#[derive(Debug, Clone)]
pub struct StructuredPruner {
    config: PrunerConfig,
}

impl StructuredPruner {
    /// Creates a pruner with the given configuration.
    pub fn new(config: PrunerConfig) -> Self {
        StructuredPruner { config }
    }

    /// The pruner configuration.
    pub fn config(&self) -> &PrunerConfig {
        &self.config
    }

    /// Produces the class-specific sub-model for `classes`, pruned according
    /// to `plan` (which fixes the retention factor `s`), from the trained
    /// `original` model and the full training `dataset`.
    ///
    /// # Errors
    ///
    /// Returns an error when the class subset is empty or inconsistent with
    /// the dataset, or when any pruning stage fails.
    pub fn prune_sub_model(
        &self,
        original: &VisionTransformer,
        dataset: &Dataset,
        classes: &[usize],
        plan: &PrunedViTConfig,
    ) -> Result<PrunedSubModel> {
        if classes.is_empty() {
            return Err(PruningError::InvalidRequest {
                message: "a sub-model needs at least one class".to_string(),
            });
        }
        // Resample the training data for this class subset (Algorithm 2, line 1).
        let (sub_dataset, mapping) = dataset.resample_for_classes(
            classes,
            self.config.other_fraction,
            self.config.seed ^ classes.iter().sum::<usize>() as u64,
        )?;

        // Stage 1: residual channels (PruneShortConnection).
        let keep_channels = {
            let scores = channel_importance(original, &sub_dataset, &self.config.method)?;
            let target = plan.embed_dim().min(original.embed_dim()).max(1);
            top_k_indices(&scores, target)
        };
        let stage1 = original.prune_embed_channels(&keep_channels)?;

        // Stage 2: MHSA per-head dimensions (PruneMHSA).
        let stage2 = {
            let scores = head_dim_importance(&stage1, &sub_dataset, &self.config.method)?;
            let current_head_dim = scores.first().map_or(0, std::vec::Vec::len);
            let target = plan.head_dim().min(current_head_dim).max(1);
            let keep_per_head: Vec<Vec<usize>> = scores
                .iter()
                .map(|per_head| top_k_indices(per_head, target))
                .collect();
            stage1.prune_head_dims(&keep_per_head)?
        };

        // Stage 3: FFN hidden units (PruneFFN).
        let stage3 = {
            let scores = ffn_importance(&stage2, &sub_dataset, &self.config.method)?;
            let target = plan.ffn_hidden().min(scores.len()).max(1);
            let keep = top_k_indices(&scores, target);
            stage2.prune_ffn_hidden(&keep)?
        };

        // Replace the head with one covering the subset (+ "other") and
        // fine-tune on the resampled data (Algorithm 2, line 5).
        let mut model = stage3;
        let mut rng = TensorRng::new(self.config.seed.wrapping_add(0x5EED));
        model.replace_head(mapping.num_local_labels(), &mut rng);
        let retrain_report = match &self.config.retrain {
            Some(train_config) => Some(train_classifier(
                &mut model,
                sub_dataset.images(),
                sub_dataset.labels(),
                train_config,
            )?),
            None => None,
        };

        Ok(PrunedSubModel {
            model,
            mapping,
            plan: plan.clone(),
            retrain_report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edvit_datasets::{DatasetKind, SyntheticConfig, SyntheticGenerator};
    use edvit_vit::{ViTConfig, ViTError};

    fn setup() -> (VisionTransformer, Dataset, ViTConfig) {
        let mut config = ViTConfig::tiny_test();
        config.num_classes = 4;
        let model = VisionTransformer::new(&config, &mut TensorRng::new(0)).unwrap();
        let mut dcfg = SyntheticConfig::tiny(DatasetKind::Cifar10Like);
        dcfg.class_limit = Some(4);
        dcfg.samples_per_class = 6;
        let dataset = SyntheticGenerator::new(1).generate(&dcfg).unwrap();
        (model, dataset, config)
    }

    fn fast_pruner(retrain: bool) -> StructuredPruner {
        StructuredPruner::new(PrunerConfig {
            method: ImportanceMethod::Magnitude,
            other_fraction: 0.25,
            retrain: retrain.then_some(TrainConfig {
                epochs: 2,
                batch_size: 8,
                learning_rate: 2e-3,
                lr_decay: 0.9,
                seed: 1,
            }),
            seed: 2,
        })
    }

    #[test]
    fn pruned_sub_model_is_smaller_and_runs() {
        let (model, dataset, config) = setup();
        let plan = PrunedViTConfig::new(config, 2).unwrap(); // keep half the width
        let pruner = fast_pruner(true);
        let sub = pruner
            .prune_sub_model(&model, &dataset, &[0, 1], &plan)
            .unwrap();
        assert!(sub.memory_bytes() < model.memory_bytes());
        assert_eq!(sub.classes(), &[0, 1]);
        assert_eq!(sub.model.embed_dim(), plan.embed_dim());
        assert_eq!(sub.model.num_classes(), 3); // two classes + "other"
        assert!(sub.retrain_report.is_some());
        // The pruned model still produces finite logits.
        let m = sub.model;
        let mut rng = TensorRng::new(5);
        let x = rng.randn(&[2, 3, 16, 16], 0.0, 1.0);
        let logits = m.forward_images(&x).unwrap();
        assert!(logits.all_finite());
        assert_eq!(logits.dims(), &[2, 3]);
    }

    #[test]
    fn retraining_can_be_disabled() {
        let (model, dataset, config) = setup();
        let plan = PrunedViTConfig::new(config, 1).unwrap();
        let pruner = fast_pruner(false);
        let sub = pruner
            .prune_sub_model(&model, &dataset, &[2], &plan)
            .unwrap();
        assert!(sub.retrain_report.is_none());
        assert_eq!(sub.mapping.other_label, Some(1));
        assert!(pruner.config().retrain.is_none());
    }

    #[test]
    fn kl_method_also_works_end_to_end() {
        let (model, dataset, config) = setup();
        let plan = PrunedViTConfig::new(config, 2).unwrap();
        let pruner = StructuredPruner::new(PrunerConfig {
            method: ImportanceMethod::KlDivergence {
                calibration_samples: 3,
            },
            other_fraction: 0.0,
            retrain: None,
            seed: 3,
        });
        let sub = pruner
            .prune_sub_model(&model, &dataset, &[0, 3], &plan)
            .unwrap();
        assert_eq!(sub.model.embed_dim(), plan.embed_dim());
        // No "other" bucket requested -> head covers just the subset.
        assert_eq!(sub.model.num_classes(), 2);
        assert_eq!(sub.mapping.other_label, None);
    }

    #[test]
    fn deeper_pruning_gives_smaller_models() {
        let (model, dataset, config) = setup();
        let pruner = fast_pruner(false);
        let light = pruner
            .prune_sub_model(
                &model,
                &dataset,
                &[0, 1],
                &PrunedViTConfig::new(config.clone(), 1).unwrap(),
            )
            .unwrap();
        let heavy = pruner
            .prune_sub_model(
                &model,
                &dataset,
                &[0, 1],
                &PrunedViTConfig::new(config, 3).unwrap(),
            )
            .unwrap();
        assert!(heavy.memory_bytes() < light.memory_bytes());
        assert_eq!(heavy.plan.pruned_heads(), 3);
    }

    #[test]
    fn empty_class_subset_is_rejected() {
        let (model, dataset, config) = setup();
        let plan = PrunedViTConfig::new(config, 1).unwrap();
        let err = fast_pruner(false)
            .prune_sub_model(&model, &dataset, &[], &plan)
            .unwrap_err();
        assert!(matches!(err, PruningError::InvalidRequest { .. }));
    }

    #[test]
    fn out_of_range_class_is_rejected() {
        let (model, dataset, config) = setup();
        let plan = PrunedViTConfig::new(config, 1).unwrap();
        let err = fast_pruner(false)
            .prune_sub_model(&model, &dataset, &[99], &plan)
            .unwrap_err();
        assert!(matches!(err, PruningError::Dataset(_)));
    }

    #[test]
    fn plan_mismatch_is_clamped_not_panicking() {
        // A plan built from a *different* (larger) base config must not panic;
        // targets are clamped to what the model actually has.
        let (model, dataset, _config) = setup();
        let big_base = ViTConfig::vit_small(4);
        let plan = PrunedViTConfig::new(big_base, 3).unwrap();
        let result = fast_pruner(false).prune_sub_model(&model, &dataset, &[0], &plan);
        match result {
            Ok(sub) => assert!(sub.model.embed_dim() <= 32),
            Err(PruningError::Vit(ViTError::InvalidPruning { .. })) => {}
            Err(other) => panic!("unexpected error {other}"),
        }
    }
}
