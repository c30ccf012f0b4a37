//! The end-to-end ED-ViT pipeline (Fig. 1): model training → splitting →
//! pruning → assignment → fusion → evaluation.

use std::time::Instant;

use edvit_datasets::{Dataset, DatasetKind, SyntheticConfig, SyntheticGenerator};
use edvit_edge::{wire as edge_wire, LatencyModel, NetworkConfig};
use edvit_fusion::{average_softmax_fusion, FusionConfig, FusionMlp};
use edvit_nn::{Adam, CrossEntropyLoss, Layer, Optimizer};
use edvit_parallel::ParallelPool;
use edvit_partition::{DeviceSpec, PlannerConfig, SplitPlan, SplitPlanner};
use edvit_pruning::{ImportanceMethod, PrunedSubModel, PrunerConfig, StructuredPruner};
use edvit_tensor::{init::TensorRng, stats, Tensor};
use edvit_vit::{
    analysis,
    training::{evaluate_classifier, train_classifier, TrainConfig},
    PrunedViTConfig, ScaleProfile, ViTConfig, ViTVariant, VisionTransformer,
};

use crate::{EdVitError, Result};

/// Full configuration of one ED-ViT experiment trial.
#[derive(Debug, Clone)]
pub struct EdVitConfig {
    /// Which dataset family to generate.
    pub dataset_kind: DatasetKind,
    /// Synthetic dataset generation parameters.
    pub synthetic: SyntheticConfig,
    /// Paper-scale model whose costs drive latency/memory numbers.
    pub paper_model: ViTConfig,
    /// How the paper-scale model is shrunk for actual CPU training.
    pub scale_profile: ScaleProfile,
    /// Edge devices available for sub-models.
    pub devices: Vec<DeviceSpec>,
    /// Splitting planner settings (memory budget, samples per round).
    pub planner: PlannerConfig,
    /// Structured pruner settings (importance criterion, retraining).
    pub pruner: PrunerConfig,
    /// Training settings for the original (unsplit) model.
    pub original_training: TrainConfig,
    /// Number of optimizer steps used to train the fusion MLP.
    pub fusion_steps: usize,
    /// Optional joint retraining epochs of sub-models + fusion MLP (the
    /// "(w/) entire retrain" row of Table IV); 0 disables it.
    pub joint_retrain_epochs: usize,
    /// Network model between devices.
    pub network: NetworkConfig,
    /// Fraction of samples used for training (stratified split).
    pub train_fraction: f32,
    /// Trial seed; the paper averages over five trials with different seeds.
    pub seed: u64,
}

impl EdVitConfig {
    /// A full-featured experiment configuration for the given dataset, paper
    /// model variant and device count.
    pub fn experiment(kind: DatasetKind, variant: ViTVariant, num_devices: usize) -> Self {
        let num_classes = kind.num_classes().min(10);
        let mut synthetic = SyntheticConfig::experiment(kind);
        synthetic.class_limit = Some(num_classes);
        let paper_model =
            ViTConfig::from_variant(variant, num_classes).with_channels(kind.channels());
        let memory_budget = match variant {
            ViTVariant::Small => 50_000_000,
            ViTVariant::Large => 600_000_000,
            _ => 180_000_000,
        };
        EdVitConfig {
            dataset_kind: kind,
            synthetic,
            paper_model,
            scale_profile: ScaleProfile::default(),
            devices: DeviceSpec::raspberry_pi_cluster(num_devices),
            planner: PlannerConfig {
                memory_budget_bytes: memory_budget,
                ..PlannerConfig::default()
            },
            pruner: PrunerConfig {
                method: ImportanceMethod::Magnitude,
                other_fraction: 0.3,
                retrain: Some(TrainConfig {
                    epochs: 5,
                    batch_size: 16,
                    learning_rate: 2e-3,
                    lr_decay: 0.92,
                    seed: 0,
                }),
                seed: 0,
            },
            original_training: TrainConfig {
                epochs: 8,
                batch_size: 16,
                learning_rate: 2e-3,
                lr_decay: 0.92,
                seed: 0,
            },
            fusion_steps: 200,
            joint_retrain_epochs: 0,
            network: NetworkConfig::paper_default(),
            train_fraction: 0.75,
            seed: 0,
        }
    }

    /// A configuration small enough for doctests and unit tests: a tiny ViT,
    /// a tiny dataset and very short training.
    pub fn tiny_demo(num_devices: usize) -> Self {
        let mut config = Self::experiment(DatasetKind::Cifar10Like, ViTVariant::Base, num_devices);
        config.synthetic = SyntheticConfig {
            class_limit: Some(4),
            samples_per_class: 8,
            ..SyntheticConfig::tiny(DatasetKind::Cifar10Like)
        };
        config.paper_model = ViTConfig::vit_base(4);
        config.scale_profile = ScaleProfile {
            image_size: 16,
            patch_size: 8,
            max_embed_dim: 32,
            max_depth: 2,
        };
        config.original_training.epochs = 2;
        config.pruner.retrain = Some(TrainConfig {
            epochs: 1,
            batch_size: 8,
            learning_rate: 2e-3,
            lr_decay: 0.9,
            seed: 0,
        });
        config.fusion_steps = 40;
        config
    }

    /// Sets the trial seed (also reseeds the sub-configurations so two trials
    /// differ in every random choice).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.original_training.seed = seed ^ 0x0816;
        self
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns [`EdVitError::InvalidConfig`] describing the first problem.
    pub fn validate(&self) -> Result<()> {
        if self.devices.is_empty() {
            return Err(EdVitError::InvalidConfig {
                message: "at least one edge device is required".to_string(),
            });
        }
        if self.synthetic.effective_classes() < self.devices.len() {
            return Err(EdVitError::InvalidConfig {
                message: format!(
                    "{} devices but only {} classes to distribute",
                    self.devices.len(),
                    self.synthetic.effective_classes()
                ),
            });
        }
        if !(0.0..1.0).contains(&self.train_fraction) || self.train_fraction == 0.0 {
            return Err(EdVitError::InvalidConfig {
                message: format!("train fraction {} must be in (0, 1)", self.train_fraction),
            });
        }
        self.paper_model.validate()?;
        Ok(())
    }
}

/// Accuracy, latency, memory and communication metrics of one deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalMetrics {
    /// Test accuracy of the original (unsplit, trainable-scale) model.
    pub original_accuracy: f32,
    /// Test accuracy of the fused ED-ViT prediction (the headline number).
    pub fused_accuracy: f32,
    /// Test accuracy when sub-model softmax outputs are averaged instead of
    /// fused by the MLP (the "(w/o) retrain" ablation row of Table IV).
    pub averaged_accuracy: f32,
    /// Test accuracy after joint retraining of sub-models and fusion MLP
    /// (the "(w/) entire retrain" row); `None` when joint retraining is off.
    pub joint_retrain_accuracy: Option<f32>,
    /// Paper-scale total memory of all sub-models in MB.
    pub total_memory_mb: f64,
    /// Measured memory of the trainable-scale sub-models in MB.
    pub measured_memory_mb: f64,
    /// Paper-scale end-to-end latency per sample in seconds.
    pub latency_seconds: f64,
    /// Paper-scale latency of the original unsplit model on one device.
    pub original_latency_seconds: f64,
    /// Paper-scale per-sub-model FLOPs (Table II rows).
    pub per_submodel_flops: Vec<u64>,
    /// Feature payload per sub-model in bytes (§V-D).
    pub feature_payload_bytes: Vec<u64>,
    /// Encoded wire-v2 frame bytes per sub-model for a single-sample round
    /// (payload plus versioned header, sample index and checksum).
    pub frame_bytes: Vec<u64>,
    /// Worst-case per-sample communication time in seconds (§V-D), for a
    /// single-sample wire frame.
    pub communication_seconds: f64,
    /// Paper-scale throughput: samples fused per second at the estimated
    /// end-to-end latency.
    pub throughput_samples_per_second: f64,
}

/// Wall-clock timings of each pipeline stage, plus the thread count that
/// produced them — the measured (not simulated) side of a run, so kernel
/// speedups are visible directly from the demo examples.
#[derive(Debug, Clone)]
pub struct PipelineTimings {
    /// Threads available to the data-parallel kernels (the global pool size).
    pub threads: usize,
    /// `(stage name, seconds)` in execution order.
    pub stages: Vec<(&'static str, f64)>,
    /// End-to-end wall-clock seconds of [`EdVitPipeline::run`].
    pub total_seconds: f64,
}

impl PipelineTimings {
    /// Seconds spent in `stage`, or `None` if it never ran.
    pub fn stage_seconds(&self, stage: &str) -> Option<f64> {
        self.stages
            .iter()
            .find(|(name, _)| *name == stage)
            .map(|(_, s)| *s)
    }
}

/// A complete ED-ViT deployment: the plan, the actual sub-models, the trained
/// fusion MLP and the evaluation metrics.
#[derive(Debug, Clone)]
pub struct EdVitDeployment {
    /// The split/prune/assign plan at paper scale.
    pub plan: SplitPlan,
    /// The weight-level pruned, retrained sub-models (trainable scale).
    pub sub_models: Vec<PrunedSubModel>,
    /// The trained fusion MLP.
    pub fusion: FusionMlp,
    /// The held-out test split used for the reported accuracies.
    pub test_set: Dataset,
    /// Evaluation metrics.
    pub metrics: EvalMetrics,
    /// Measured per-stage wall time and the thread count used.
    pub timings: PipelineTimings,
}

/// The ED-ViT pipeline runner.
#[derive(Debug, Clone)]
pub struct EdVitPipeline {
    config: EdVitConfig,
}

impl EdVitPipeline {
    /// Creates a pipeline from a configuration.
    pub fn new(config: EdVitConfig) -> Self {
        EdVitPipeline { config }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &EdVitConfig {
        &self.config
    }

    /// Runs the full pipeline: dataset generation, original-model training,
    /// splitting, pruning, assignment, fusion training and evaluation.
    ///
    /// # Errors
    ///
    /// Propagates failures from any stage; an infeasible memory budget
    /// surfaces as [`EdVitError::Partition`].
    pub fn run(&self) -> Result<EdVitDeployment> {
        self.config.validate()?;
        let cfg = &self.config;
        let run_started = Instant::now();
        let mut stages: Vec<(&'static str, f64)> = Vec::new();
        let mut stage_started = Instant::now();
        let mut record = |stages: &mut Vec<(&'static str, f64)>, name: &'static str| {
            stages.push((name, stage_started.elapsed().as_secs_f64()));
            stage_started = Instant::now();
        };

        // ---- Data ---------------------------------------------------------
        let dataset = SyntheticGenerator::new(cfg.seed).generate(&cfg.synthetic)?;
        let (train, test) = dataset.split(cfg.train_fraction, cfg.seed ^ 0x5917)?;
        record(&mut stages, "data");

        // ---- Original model (trainable scale) ------------------------------
        let mut paper_model = cfg.paper_model.clone();
        paper_model.num_classes = dataset.num_classes();
        paper_model.channels = dataset.channels();
        let mut trainable_config = paper_model.scaled_down(&cfg.scale_profile);
        trainable_config.image_size = train.image_size();
        trainable_config.channels = train.channels();
        trainable_config.num_classes = train.num_classes();
        trainable_config.validate()?;
        let mut rng = TensorRng::new(cfg.seed ^ 0xED17);
        let mut original = VisionTransformer::new(&trainable_config, &mut rng)?;
        train_classifier(
            &mut original,
            train.images(),
            train.labels(),
            &cfg.original_training,
        )?;
        let original_accuracy =
            evaluate_classifier(&mut original, test.images(), test.labels(), 32)?;
        record(&mut stages, "train_original");

        // ---- Splitting + assignment (paper scale) ---------------------------
        let planner = SplitPlanner::new(cfg.planner.clone());
        let plan = planner.plan(&paper_model, &cfg.devices, cfg.seed)?;
        record(&mut stages, "split_plan");

        // ---- Per-sub-model pruning + retraining (trainable scale) ----------
        let pruner = StructuredPruner::new(PrunerConfig {
            seed: cfg.seed,
            ..cfg.pruner.clone()
        });
        let mut sub_models = Vec::with_capacity(plan.sub_models.len());
        for sub_plan in &plan.sub_models {
            let trainable_plan = PrunedViTConfig::new(
                trainable_config.clone(),
                sub_plan
                    .pruned
                    .pruned_heads()
                    .min(trainable_config.heads.saturating_sub(1)),
            )?;
            let sub =
                pruner.prune_sub_model(&original, &train, &sub_plan.classes, &trainable_plan)?;
            sub_models.push(sub);
        }
        record(&mut stages, "prune_retrain");

        // ---- Fusion MLP training -------------------------------------------
        let train_features = extract_features(&mut sub_models, train.images())?;
        let test_features = extract_features(&mut sub_models, test.images())?;
        let fusion_config = FusionConfig::new(train_features.dims()[1], train.num_classes());
        let mut fusion = FusionMlp::new(&fusion_config, &mut TensorRng::new(cfg.seed ^ 0xF05))?;
        train_fusion(
            &mut fusion,
            &train_features,
            train.labels(),
            cfg.fusion_steps,
        )?;
        let fused_predictions = fusion.predict(&test_features)?;
        let fused_accuracy = stats::accuracy(&fused_predictions, test.labels());
        record(&mut stages, "fusion_train");

        // ---- "(w/o) retrain" ablation: softmax averaging --------------------
        let averaged_accuracy = averaged_softmax_accuracy(&mut sub_models, &test)?;
        record(&mut stages, "evaluate");

        // ---- "(w/) entire retrain" ablation ---------------------------------
        let joint_retrain_accuracy = if cfg.joint_retrain_epochs > 0 {
            Some(joint_retrain(
                &mut sub_models,
                &mut fusion,
                &train,
                &test,
                cfg.joint_retrain_epochs,
            )?)
        } else {
            None
        };
        if cfg.joint_retrain_epochs > 0 {
            record(&mut stages, "joint_retrain");
        }

        // ---- Paper-scale latency / memory / communication -------------------
        let paper_fusion_dim: usize = plan.sub_models.iter().map(|s| s.pruned.feature_dim()).sum();
        let paper_fusion = FusionConfig::new(paper_fusion_dim, paper_model.num_classes);
        let latency_model = LatencyModel::new(cfg.network).with_fusion_flops(paper_fusion.flops());
        let latency = latency_model.estimate_batched(&plan, &cfg.devices, 1)?;
        let original_latency_seconds =
            cfg.devices[0].execution_seconds(analysis::cost_of_config(&paper_model).flops);
        let feature_payload_bytes: Vec<u64> = plan
            .sub_models
            .iter()
            .map(|s| analysis::feature_payload_bytes(&s.pruned))
            .collect();
        let frame_bytes: Vec<u64> = plan
            .sub_models
            .iter()
            .map(|s| edge_wire::batch_frame_len(1, s.pruned.feature_dim()) as u64)
            .collect();
        let communication_seconds = frame_bytes
            .iter()
            .map(|&b| cfg.network.transfer_seconds(b))
            .fold(0.0, f64::max);
        let throughput_samples_per_second = if latency.total_seconds > 0.0 {
            1.0 / latency.total_seconds
        } else {
            f64::INFINITY
        };
        let measured_memory_mb = sub_models
            .iter()
            .map(|s| s.memory_bytes() as f64 / 1e6)
            .sum::<f64>()
            + fusion.memory_bytes() as f64 / 1e6;

        let metrics = EvalMetrics {
            original_accuracy,
            fused_accuracy,
            averaged_accuracy,
            joint_retrain_accuracy,
            total_memory_mb: plan.total_memory_mb(),
            measured_memory_mb,
            latency_seconds: latency.total_seconds,
            original_latency_seconds,
            per_submodel_flops: plan.sub_models.iter().map(|s| s.cost.flops).collect(),
            feature_payload_bytes,
            frame_bytes,
            communication_seconds,
            throughput_samples_per_second,
        };

        let timings = PipelineTimings {
            threads: ParallelPool::global().threads(),
            stages,
            total_seconds: run_started.elapsed().as_secs_f64(),
        };

        Ok(EdVitDeployment {
            plan,
            sub_models,
            fusion,
            test_set: test,
            metrics,
            timings,
        })
    }
}

/// Concatenated pooled features of every sub-model for a batch of images,
/// extracted in small mini-batches to bound peak memory. Sub-models are
/// independent "devices", so they run across the thread pool.
fn extract_features(sub_models: &mut [PrunedSubModel], images: &Tensor) -> Result<Tensor> {
    let per_model = run_per_sub_model(sub_models, |sub| {
        let n = images.dims()[0];
        let mut chunks = Vec::new();
        let indices: Vec<usize> = (0..n).collect();
        for batch in indices.chunks(32) {
            let x = images.gather_rows(batch)?;
            chunks.push(sub.model.forward_features(&x)?);
        }
        let refs: Vec<&Tensor> = chunks.iter().collect();
        Ok(Tensor::concat_first_axis(&refs)?)
    })?;
    let refs: Vec<&Tensor> = per_model.iter().collect();
    Ok(Tensor::concat_last_axis(&refs)?)
}

/// Runs `f` once per sub-model (in parallel when the pool allows it),
/// returning the results in sub-model order.
#[expect(
    clippy::expect_used,
    reason = "`scope_chunks` has run `f` on every slot before it returns"
)]
fn run_per_sub_model<T, F>(sub_models: &mut [PrunedSubModel], f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(&mut PrunedSubModel) -> Result<T> + Sync,
{
    let pool = ParallelPool::global();
    if sub_models.len() <= 1 || pool.is_sequential() {
        return sub_models.iter_mut().map(f).collect();
    }
    let mut slots: Vec<(&mut PrunedSubModel, Option<Result<T>>)> =
        sub_models.iter_mut().map(|sub| (sub, None)).collect();
    pool.scope_chunks(&mut slots, 1, |_, slot| {
        let (sub, out) = &mut slot[0];
        *out = Some(f(sub));
    });
    slots
        .into_iter()
        .map(|(_, out)| out.expect("per-sub-model slot filled"))
        .collect()
}

fn train_fusion(
    fusion: &mut FusionMlp,
    features: &Tensor,
    labels: &[usize],
    steps: usize,
) -> Result<()> {
    let mut optimizer = Adam::new(5e-3);
    let mut loss_fn = CrossEntropyLoss::new();
    for _ in 0..steps {
        fusion.zero_grad();
        let logits = fusion.forward(features)?;
        loss_fn.forward(&logits, labels)?;
        let grad = loss_fn.backward()?;
        fusion.backward(&grad)?;
        optimizer.step(&mut fusion.parameters_mut())?;
    }
    Ok(())
}

/// Accuracy of the softmax-averaging fallback (no fusion MLP).
fn averaged_softmax_accuracy(sub_models: &mut [PrunedSubModel], test: &Dataset) -> Result<f32> {
    let per_model = run_per_sub_model(sub_models, |sub| {
        let logits = sub.model.forward_images(test.images())?;
        Ok((logits.softmax_last_axis()?, sub.mapping.subset.clone()))
    })?;
    let (probs, mappings): (Vec<Tensor>, Vec<Vec<usize>>) = per_model.into_iter().unzip();
    let predictions = average_softmax_fusion(&probs, &mappings, test.num_classes())?;
    Ok(stats::accuracy(&predictions, test.labels()))
}

/// Joint retraining of sub-model backbones and the fusion MLP ("entire
/// retrain" ablation). Returns the post-retraining fused test accuracy.
fn joint_retrain(
    sub_models: &mut [PrunedSubModel],
    fusion: &mut FusionMlp,
    train: &Dataset,
    test: &Dataset,
    epochs: usize,
) -> Result<f32> {
    let mut fusion_optimizer = Adam::new(2e-3);
    let mut backbone_optimizers: Vec<Adam> = sub_models.iter().map(|_| Adam::new(5e-4)).collect();
    let mut loss_fn = CrossEntropyLoss::new();
    let feature_dims: Vec<usize> = sub_models.iter().map(|s| s.model.embed_dim()).collect();

    for epoch in 0..epochs {
        for (images, labels) in train.shuffled_batches(16, epoch as u64 + 77)? {
            // Forward: per-sub-model features, concatenated.
            let mut features = Vec::with_capacity(sub_models.len());
            for sub in sub_models.iter_mut() {
                features.push(sub.model.forward_features(&images)?);
            }
            let refs: Vec<&Tensor> = features.iter().collect();
            let concat = Tensor::concat_last_axis(&refs)?;
            fusion.zero_grad();
            let logits = fusion.forward(&concat)?;
            loss_fn.forward(&logits, &labels)?;
            let grad_logits = loss_fn.backward()?;
            let grad_concat = fusion.backward(&grad_logits)?;
            fusion_optimizer.step(&mut fusion.parameters_mut())?;
            // Split the concatenated gradient back per sub-model and
            // backpropagate into each backbone.
            let mut offset = 0usize;
            for (sub, optimizer) in sub_models.iter_mut().zip(backbone_optimizers.iter_mut()) {
                let dim = sub.model.embed_dim();
                let cols: Vec<usize> = (offset..offset + dim).collect();
                let grad_slice = grad_concat.select_last_axis(&cols)?;
                sub.model.zero_grad();
                sub.model.backward_from_features(&grad_slice)?;
                optimizer.step(&mut sub.model.parameters_mut())?;
                offset += dim;
            }
            debug_assert_eq!(offset, feature_dims.iter().sum::<usize>());
        }
    }
    // Evaluate the jointly-retrained stack.
    let test_features = extract_features(sub_models, test.images())?;
    let predictions = fusion.predict(&test_features)?;
    Ok(stats::accuracy(&predictions, test.labels()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_pipeline_runs_end_to_end() {
        let deployment = EdVitPipeline::new(EdVitConfig::tiny_demo(2)).run().unwrap();
        assert_eq!(deployment.sub_models.len(), 2);
        assert_eq!(deployment.plan.sub_models.len(), 2);
        let m = &deployment.metrics;
        assert!(m.fused_accuracy >= 0.0 && m.fused_accuracy <= 1.0);
        assert!(m.averaged_accuracy >= 0.0);
        assert!(m.total_memory_mb > 0.0 && m.total_memory_mb <= 180.0);
        assert!(m.latency_seconds > 0.0);
        assert!(m.latency_seconds < m.original_latency_seconds);
        assert_eq!(m.per_submodel_flops.len(), 2);
        assert_eq!(m.feature_payload_bytes.len(), 2);
        assert_eq!(m.frame_bytes.len(), 2);
        // Every frame carries its payload plus v2 header + sample index.
        for (frame, payload) in m.frame_bytes.iter().zip(&m.feature_payload_bytes) {
            assert_eq!(
                *frame,
                payload + (edge_wire::V2_HEADER_LEN + edge_wire::BATCH_FIXED_LEN + 4) as u64
            );
        }
        assert!(m.communication_seconds > 0.0 && m.communication_seconds < 0.1);
        assert!(m.throughput_samples_per_second > 0.0);
        assert!((m.throughput_samples_per_second - 1.0 / m.latency_seconds).abs() < 1e-9);
        assert!(m.joint_retrain_accuracy.is_none());
        assert!(deployment.metrics.measured_memory_mb > 0.0);
        assert_eq!(deployment.test_set.num_classes(), 4);
    }

    #[test]
    fn joint_retrain_path_runs() {
        let mut config = EdVitConfig::tiny_demo(2);
        config.joint_retrain_epochs = 1;
        config.fusion_steps = 20;
        let deployment = EdVitPipeline::new(config).run().unwrap();
        let joint = deployment.metrics.joint_retrain_accuracy.unwrap();
        assert!((0.0..=1.0).contains(&joint));
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut config = EdVitConfig::tiny_demo(1);
        config.devices.clear();
        assert!(EdVitPipeline::new(config).run().is_err());
        let mut config = EdVitConfig::tiny_demo(2);
        config.train_fraction = 0.0;
        assert!(config.validate().is_err());
        let mut config = EdVitConfig::tiny_demo(2);
        config.synthetic.class_limit = Some(1);
        assert!(config.validate().is_err());
    }

    #[test]
    fn with_seed_changes_training_seed() {
        let a = EdVitConfig::tiny_demo(2).with_seed(1);
        let b = EdVitConfig::tiny_demo(2).with_seed(2);
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.original_training.seed, b.original_training.seed);
    }

    #[test]
    fn experiment_configs_pick_paper_budgets() {
        let small = EdVitConfig::experiment(DatasetKind::Cifar10Like, ViTVariant::Small, 3);
        assert_eq!(small.planner.memory_budget_bytes, 50_000_000);
        let base = EdVitConfig::experiment(DatasetKind::GtzanLike, ViTVariant::Base, 3);
        assert_eq!(base.planner.memory_budget_bytes, 180_000_000);
        assert_eq!(base.paper_model.channels, 1);
        let large = EdVitConfig::experiment(DatasetKind::Caltech256Like, ViTVariant::Large, 3);
        assert_eq!(large.planner.memory_budget_bytes, 600_000_000);
        assert!(large.validate().is_ok());
    }
}
