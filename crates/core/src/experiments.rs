//! Experiment harness: one function per table / figure of the paper's
//! evaluation section, plus the reports beyond it (ablations, streaming,
//! wire codecs, serving). The `paper` binary of `edvit-bench` runs them by
//! name and prints the rows.
//!
//! Every accuracy-bearing experiment runs at the trainable (CPU) scale on the
//! synthetic datasets and is averaged over `trials` seeds, mirroring the
//! paper's five-trial averages; latency / memory / FLOPs numbers come from
//! the paper-scale analytic cost model and the calibrated Raspberry-Pi
//! profile, so they are deterministic.

use edvit_baselines::{BaselineKind, SplitBaselineConfig, SplitBaselineRunner};
use edvit_datasets::{DatasetKind, SyntheticConfig, SyntheticGenerator};
use edvit_edge::{wire as edge_wire, LatencyModel, NetworkConfig, PayloadCodec};
use edvit_parallel::ParallelPool;
use edvit_partition::{DeviceSpec, PlannerConfig, SplitPlan, SplitPlanner};
use edvit_pruning::{ImportanceMethod, PrunerConfig, StructuredPruner};
use edvit_sched::StreamReport;
use edvit_serve::ServeReport;
use edvit_tensor::{init::TensorRng, stats, Tensor};
use edvit_vit::training::{evaluate_classifier, train_classifier, TrainConfig};
use edvit_vit::{analysis, PrunedViTConfig, ViTConfig, ViTVariant, VisionTransformer};

use crate::pipeline::{EdVitConfig, EdVitDeployment, EdVitPipeline, TRAIN_FRACTION};
use crate::{EdVitError, Result};

/// Device counts used throughout the paper's figures.
pub const PAPER_DEVICE_COUNTS: [usize; 5] = [1, 2, 3, 5, 10];

/// Controls how heavy the accuracy experiments are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentOptions {
    /// Fast mode shrinks datasets and training schedules so a full sweep
    /// finishes in seconds; full mode uses the experiment-grade settings.
    pub fast: bool,
}

impl ExperimentOptions {
    /// Fast single-trial options (used by tests and smoke runs).
    pub fn fast() -> Self {
        ExperimentOptions { fast: true }
    }

    /// Paper-style options: five trials at experiment scale.
    pub fn full() -> Self {
        ExperimentOptions { fast: false }
    }

    /// Number of independent trials: one in fast mode, the paper's five in
    /// full mode.
    pub fn trials(&self) -> usize {
        if self.fast {
            1
        } else {
            5
        }
    }
}

fn pipeline_config(
    kind: DatasetKind,
    variant: ViTVariant,
    devices: usize,
    options: &ExperimentOptions,
    seed: u64,
) -> EdVitConfig {
    let mut config = if options.fast {
        let mut c = EdVitConfig::tiny_demo(devices);
        c.dataset_kind = kind;
        c.synthetic = SyntheticConfig {
            class_limit: Some(kind.num_classes().min(10)),
            samples_per_class: 6,
            ..SyntheticConfig::tiny(kind)
        };
        c.paper_model = ViTConfig::from_variant(variant, kind.num_classes().min(10))
            .with_channels(kind.channels());
        c.planner.memory_budget_bytes = match variant {
            ViTVariant::Small => 50_000_000,
            ViTVariant::Large => 600_000_000,
            _ => 180_000_000,
        };
        c.devices = DeviceSpec::raspberry_pi_cluster(devices);
        c
    } else {
        EdVitConfig::experiment(kind, variant, devices)
    };
    config = config.with_seed(seed);
    config
}

/// The first `n` test images of a trained deployment, as stream inputs.
fn test_inputs(deployment: &EdVitDeployment, n: usize) -> Result<Vec<Tensor>> {
    let test = &deployment.test_set;
    (0..test.len().min(n))
        .map(|i| Ok(test.images().row(i)?))
        .collect()
}

/// The device hosting sub-model 0: the one the failover scenarios kill.
fn first_host(plan: &SplitPlan) -> Result<usize> {
    plan.assignment
        .device_for(0)
        .ok_or_else(|| EdVitError::InvalidConfig {
            message: "sub-model 0 must have an assigned device to kill".to_string(),
        })
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// One row of Table I: characteristics of a standard ViT on a Raspberry Pi 4B.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Model variant name.
    pub model: String,
    /// Transformer depth.
    pub depth: usize,
    /// Embedding width.
    pub width: usize,
    /// Attention heads.
    pub heads: usize,
    /// Parameters in millions.
    pub params_millions: f64,
    /// FLOPs (MACs) in units of 10⁹.
    pub gflops: f64,
    /// Estimated single-sample latency on a Raspberry Pi 4B, in milliseconds.
    pub latency_ms: f64,
    /// Parameter memory in MB.
    pub memory_mb: f64,
}

/// Regenerates Table I from the analytic cost model and the calibrated
/// Raspberry-Pi profile.
pub fn table1() -> Vec<Table1Row> {
    let device = DeviceSpec::raspberry_pi_4b(0);
    [
        ViTConfig::vit_small(1000),
        ViTConfig::vit_base(1000),
        ViTConfig::vit_large(1000),
    ]
    .into_iter()
    .map(|config| {
        let cost = analysis::cost_of_config(&config);
        Table1Row {
            model: config.variant.to_string(),
            depth: config.depth,
            width: config.embed_dim,
            heads: config.heads,
            params_millions: cost.params_millions(),
            gflops: cost.gflops(),
            latency_ms: device.execution_seconds(cost.flops) * 1e3,
            memory_mb: cost.memory_mb(),
        }
    })
    .collect()
}

// ---------------------------------------------------------------------------
// Figures 4, 5 and 6: accuracy / latency / memory vs. number of devices
// ---------------------------------------------------------------------------

/// One point of the split curves (one dataset, one variant, one device count).
#[derive(Debug, Clone, PartialEq)]
pub struct SplitCurvePoint {
    /// Dataset name.
    pub dataset: String,
    /// Model variant name.
    pub variant: String,
    /// Number of edge devices.
    pub devices: usize,
    /// Mean fused accuracy across trials.
    pub accuracy_mean: f32,
    /// Sample standard deviation of the accuracy across trials.
    pub accuracy_std: f32,
    /// Paper-scale end-to-end latency per sample (seconds).
    pub latency_seconds: f64,
    /// Paper-scale latency of the original, unsplit model (seconds).
    pub original_latency_seconds: f64,
    /// Paper-scale total sub-model memory (MB).
    pub total_memory_mb: f64,
}

/// Runs the split sweep for one dataset and variant over `device_counts`,
/// producing one curve point per device count (the building block of
/// Figs. 4, 5 and 6).
///
/// # Errors
///
/// Propagates pipeline failures (e.g. infeasible memory budgets).
pub fn split_curve(
    kind: DatasetKind,
    variant: ViTVariant,
    device_counts: &[usize],
    options: &ExperimentOptions,
) -> Result<Vec<SplitCurvePoint>> {
    let mut points = Vec::with_capacity(device_counts.len());
    for &devices in device_counts {
        // Trials are fully independent (each gets its own seed), so they run
        // across the thread pool; inner kernels then stay sequential. A
        // single trial runs inline, its kernels free to use the pool.
        let trials = options.trials();
        let deployments = ParallelPool::global().map_indexed(trials, |trial| {
            let config = pipeline_config(kind, variant, devices, options, trial as u64 + 1);
            EdVitPipeline::new(config).run()
        });
        let mut accuracies = Vec::with_capacity(trials);
        let mut latency = 0.0;
        let mut original_latency = 0.0;
        let mut memory = 0.0;
        for deployment in deployments {
            let deployment = deployment?;
            accuracies.push(deployment.metrics.fused_accuracy);
            latency = deployment.metrics.latency_seconds;
            original_latency = deployment.metrics.original_latency_seconds;
            memory = deployment.metrics.total_memory_mb;
        }
        let (mean, std) = stats::mean_std(&accuracies);
        points.push(SplitCurvePoint {
            dataset: kind.paper_name().to_string(),
            variant: variant.to_string(),
            devices,
            accuracy_mean: mean,
            accuracy_std: std,
            latency_seconds: latency,
            original_latency_seconds: original_latency,
            total_memory_mb: memory,
        });
    }
    Ok(points)
}

/// Fig. 4: ViT-Base on the three vision datasets.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig4(device_counts: &[usize], options: &ExperimentOptions) -> Result<Vec<SplitCurvePoint>> {
    let mut rows = Vec::new();
    for kind in DatasetKind::vision() {
        rows.extend(split_curve(kind, ViTVariant::Base, device_counts, options)?);
    }
    Ok(rows)
}

/// Fig. 5: ViT-Base on the two audio datasets.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig5(device_counts: &[usize], options: &ExperimentOptions) -> Result<Vec<SplitCurvePoint>> {
    let mut rows = Vec::new();
    for kind in DatasetKind::audio() {
        rows.extend(split_curve(kind, ViTVariant::Base, device_counts, options)?);
    }
    Ok(rows)
}

/// Fig. 6: ViT-Small and ViT-Large on CIFAR-10 and Caltech256.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig6(device_counts: &[usize], options: &ExperimentOptions) -> Result<Vec<SplitCurvePoint>> {
    let mut rows = Vec::new();
    for variant in [ViTVariant::Small, ViTVariant::Large] {
        for kind in [DatasetKind::Cifar10Like, DatasetKind::Caltech256Like] {
            rows.extend(split_curve(kind, variant, device_counts, options)?);
        }
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Table II and §V-D: FLOPs and communication overhead
// ---------------------------------------------------------------------------

/// One row of Table II: per-sub-model FLOPs for a dataset and device count.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Dataset name.
    pub dataset: String,
    /// Number of devices (`None` means the original unsplit model).
    pub devices: Option<usize>,
    /// Per-sub-model FLOPs in units of 10⁹.
    pub gflops: f64,
}

/// Regenerates Table II (ViT-Base sub-model FLOPs on CIFAR-10 and GTZAN for
/// 2/3/5/10 devices) from the planner and the analytic cost model.
///
/// # Errors
///
/// Propagates planner failures.
pub fn table2() -> Result<Vec<Table2Row>> {
    let mut rows = Vec::new();
    for kind in [DatasetKind::Cifar10Like, DatasetKind::GtzanLike] {
        let base = ViTConfig::vit_base(kind.num_classes().min(10)).with_channels(kind.channels());
        let original = analysis::cost_of_config(&base);
        rows.push(Table2Row {
            dataset: kind.paper_name().to_string(),
            devices: None,
            gflops: original.gflops(),
        });
        for devices in [2usize, 3, 5, 10] {
            let planner = SplitPlanner::new(PlannerConfig::default());
            let plan = planner.plan(&base, &DeviceSpec::raspberry_pi_cluster(devices), 1)?;
            let max_flops = plan.max_sub_model_flops();
            rows.push(Table2Row {
                dataset: kind.paper_name().to_string(),
                devices: Some(devices),
                gflops: max_flops as f64 / 1e9,
            });
        }
    }
    Ok(rows)
}

/// Samples per batched wire frame used for the amortized column of
/// [`comm_overhead`] (one frame per device per round of this many samples).
pub const COMM_BATCH_SAMPLES: usize = 8;

/// One row of the communication-overhead analysis of §V-D.
#[derive(Debug, Clone, PartialEq)]
pub struct CommRow {
    /// Number of devices.
    pub devices: usize,
    /// Feature payload per sub-model in bytes.
    pub payload_bytes: u64,
    /// Encoded wire-v2 frame bytes for a single-sample round (payload plus
    /// versioned header, sample index and checksum).
    pub frame_bytes: u64,
    /// Transfer time of that payload at the paper's 2 Mbps cap, milliseconds.
    pub transfer_ms: f64,
    /// Per-sample transfer time when [`COMM_BATCH_SAMPLES`] samples share one
    /// batched frame, milliseconds.
    pub batched_ms_per_sample: f64,
    /// Reduction factor versus shipping the raw 224×224×3 image.
    pub reduction_vs_raw_image: f64,
}

/// Regenerates the communication-overhead numbers of §V-D.
///
/// # Errors
///
/// Propagates planner failures.
pub fn comm_overhead() -> Result<Vec<CommRow>> {
    let base = ViTConfig::vit_base(10);
    let raw = analysis::raw_image_bytes(&base) as f64;
    let network = NetworkConfig::paper_default();
    let mut rows = Vec::new();
    for devices in PAPER_DEVICE_COUNTS {
        let planner = SplitPlanner::new(PlannerConfig::default());
        let plan = planner.plan(&base, &DeviceSpec::raspberry_pi_cluster(devices), 1)?;
        let widest = plan
            .sub_models
            .iter()
            .max_by_key(|s| analysis::feature_payload_bytes(&s.pruned));
        let payload = widest.map_or(0, |s| analysis::feature_payload_bytes(&s.pruned));
        let feature_dim = widest.map_or(0, |s| s.pruned.feature_dim());
        let frame = edge_wire::batch_frame_len(1, feature_dim) as u64;
        let batched_frame = edge_wire::batch_frame_len(COMM_BATCH_SAMPLES, feature_dim) as u64;
        rows.push(CommRow {
            devices,
            payload_bytes: payload,
            frame_bytes: frame,
            transfer_ms: network.transfer_seconds(payload) * 1e3,
            batched_ms_per_sample: network
                .amortized_transfer_seconds(batched_frame, COMM_BATCH_SAMPLES)
                * 1e3,
            reduction_vs_raw_image: raw / payload.max(1) as f64,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Table III and Fig. 7: comparison against Split-CNN and Split-SNN
// ---------------------------------------------------------------------------

/// One row of the method comparison (Table III / Fig. 7).
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Method name ("Split-CNN", "Split-SNN", "ED-ViT").
    pub method: String,
    /// Number of devices.
    pub devices: usize,
    /// Mean accuracy across trials.
    pub accuracy_mean: f32,
    /// Standard deviation of the accuracy across trials.
    pub accuracy_std: f32,
    /// Paper-scale per-sample latency in seconds.
    pub latency_seconds: f64,
    /// Paper-scale total memory in MB.
    pub total_memory_mb: f64,
}

fn baseline_datasets(
    options: &ExperimentOptions,
    seed: u64,
) -> Result<(edvit_datasets::Dataset, edvit_datasets::Dataset)> {
    let mut cfg = if options.fast {
        SyntheticConfig {
            class_limit: Some(10),
            samples_per_class: 6,
            ..SyntheticConfig::tiny(DatasetKind::Cifar10Like)
        }
    } else {
        SyntheticConfig::experiment(DatasetKind::Cifar10Like)
    };
    cfg.class_limit = Some(10);
    let dataset = SyntheticGenerator::new(seed).generate(&cfg)?;
    Ok(dataset.split(TRAIN_FRACTION, seed ^ 0xBB)?)
}

/// Runs the three-way comparison of Table III on the CIFAR-10-like dataset
/// for the given device counts.
///
/// # Errors
///
/// Propagates pipeline and baseline failures.
pub fn table3(device_counts: &[usize], options: &ExperimentOptions) -> Result<Vec<ComparisonRow>> {
    let mut rows = Vec::new();
    for &devices in device_counts {
        // ED-ViT.
        let ed_points = split_curve(
            DatasetKind::Cifar10Like,
            ViTVariant::Base,
            &[devices],
            options,
        )?;
        let ed = &ed_points[0];
        rows.push(ComparisonRow {
            method: "ED-ViT".to_string(),
            devices,
            accuracy_mean: ed.accuracy_mean,
            accuracy_std: ed.accuracy_std,
            latency_seconds: ed.latency_seconds,
            total_memory_mb: ed.total_memory_mb,
        });
        // Baselines.
        for kind in [BaselineKind::SplitCnn, BaselineKind::SplitSnn] {
            let mut accs = Vec::with_capacity(options.trials());
            let mut latency = 0.0;
            let mut memory = 0.0;
            for trial in 0..options.trials() {
                let (train, test) = baseline_datasets(options, trial as u64 + 11)?;
                let runner = SplitBaselineRunner::new(SplitBaselineConfig {
                    n_devices: devices,
                    train: TrainConfig {
                        epochs: if options.fast { 3 } else { 8 },
                        batch_size: 16,
                        learning_rate: 3e-3,
                        lr_decay: 0.92,
                        seed: trial as u64,
                    },
                    fusion_steps: if options.fast { 60 } else { 200 },
                    other_fraction: 0.3,
                    seed: trial as u64 + 5,
                });
                let result = runner.run(&train, &test, kind)?;
                accs.push(result.accuracy);
                latency = result.latency_seconds;
                memory = result.total_memory_mb;
            }
            let (mean, std) = stats::mean_std(&accs);
            rows.push(ComparisonRow {
                method: kind.to_string(),
                devices,
                accuracy_mean: mean,
                accuracy_std: std,
                latency_seconds: latency,
                total_memory_mb: memory,
            });
        }
    }
    Ok(rows)
}

/// Fig. 7: the same comparison at 10 edge devices.
///
/// # Errors
///
/// Propagates pipeline and baseline failures.
pub fn fig7(options: &ExperimentOptions) -> Result<Vec<ComparisonRow>> {
    table3(&[10], options)
}

// ---------------------------------------------------------------------------
// Table IV: retraining ablation
// ---------------------------------------------------------------------------

/// One row of the retraining ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Ablation variant ("ED-ViT", "(w/o) retrain", "(w/) entire retrain").
    pub method: String,
    /// Number of devices.
    pub devices: usize,
    /// Fused test accuracy.
    pub accuracy: f32,
}

/// Regenerates Table IV: ED-ViT vs. softmax averaging vs. joint retraining,
/// on the CIFAR-10-like dataset with ViT-Base.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn table4(device_counts: &[usize], options: &ExperimentOptions) -> Result<Vec<Table4Row>> {
    let mut rows = Vec::new();
    for &devices in device_counts {
        let mut config = pipeline_config(
            DatasetKind::Cifar10Like,
            ViTVariant::Base,
            devices,
            options,
            7,
        );
        config.joint_retrain_epochs = if options.fast { 1 } else { 3 };
        let deployment = EdVitPipeline::new(config).run()?;
        rows.push(Table4Row {
            method: "ED-ViT".to_string(),
            devices,
            accuracy: deployment.metrics.fused_accuracy,
        });
        rows.push(Table4Row {
            method: "(w/o) retrain".to_string(),
            devices,
            accuracy: deployment.metrics.averaged_accuracy,
        });
        rows.push(Table4Row {
            method: "(w/) entire retrain".to_string(),
            devices,
            accuracy: deployment
                .metrics
                .joint_retrain_accuracy
                .unwrap_or(deployment.metrics.fused_accuracy),
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Ablations of ED-ViT's design choices
// ---------------------------------------------------------------------------

/// The three design-choice ablations.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablations {
    /// Per importance criterion, at an equal pruning level: its name, the
    /// sub-model's test accuracy and its parameter count.
    pub importance: Vec<(&'static str, f32, usize)>,
    /// Per memory budget in MB (ViT-Base on 5 devices): the feasible plan's
    /// total memory in MB and largest sub-model GFLOPs, `None` if infeasible.
    pub budget: Vec<(u64, Option<(f64, f64)>)>,
    /// Per payload in bytes: transfer milliseconds at the paper's 2 Mbps cap
    /// and on an uncapped gigabit switch.
    pub bandwidth: Vec<(u64, f64, f64)>,
}

/// Ablates ED-ViT's design choices: the importance criterion (KL divergence,
/// the paper's choice, against weight magnitude), the memory budget (the
/// paper's 180 MB tightened and loosened) and the bandwidth cap.
///
/// # Errors
///
/// Propagates dataset, training and pruning failures.
pub fn ablations() -> Result<Ablations> {
    let mut config = ViTConfig::tiny_test();
    config.num_classes = 4;
    let dataset = SyntheticGenerator::new(3).generate(&SyntheticConfig {
        class_limit: Some(4),
        samples_per_class: 12,
        ..SyntheticConfig::tiny(DatasetKind::Cifar10Like)
    })?;
    let (train, test) = dataset.split(TRAIN_FRACTION, 1)?;
    let mut original = VisionTransformer::new(&config, &mut TensorRng::new(0))?;
    let train_config = TrainConfig {
        epochs: 6,
        batch_size: 16,
        learning_rate: 2e-3,
        lr_decay: 0.92,
        seed: 0,
    };
    train_classifier(&mut original, train.images(), train.labels(), &train_config)?;
    let plan = PrunedViTConfig::new(config, 2)?;
    let (sub_test, _) = test.resample_for_classes(&[0, 1], 0.3, 9)?;
    let mut importance = Vec::new();
    for (name, method) in [
        (
            "KL divergence",
            ImportanceMethod::KlDivergence {
                calibration_samples: 8,
            },
        ),
        ("weight magnitude", ImportanceMethod::Magnitude),
    ] {
        let pruner = StructuredPruner::new(PrunerConfig {
            method,
            other_fraction: 0.3,
            retrain: Some(train_config.clone()),
            seed: 1,
        });
        let model = pruner
            .prune_sub_model(&original, &train, &[0, 1], &plan)?
            .model;
        let accuracy = evaluate_classifier(&model, sub_test.images(), sub_test.labels(), 16)?;
        importance.push((name, accuracy, model.parameter_count()));
    }

    let base = ViTConfig::vit_base(10);
    let devices = DeviceSpec::raspberry_pi_cluster(5);
    let budget = [40u64, 80, 120, 180, 320, 600]
        .into_iter()
        .map(|mb| {
            let plan = SplitPlanner::new(PlannerConfig {
                memory_budget_bytes: mb * 1_000_000,
            })
            .plan(&base, &devices, 1);
            let row = plan
                .ok()
                .map(|p| (p.total_memory_mb(), p.max_sub_model_flops() as f64 / 1e9));
            (mb, row)
        })
        .collect();

    let (capped, gigabit) = (NetworkConfig::paper_default(), NetworkConfig::gigabit());
    let bandwidth = [512, 1536, analysis::raw_image_bytes(&base)]
        .into_iter()
        .map(|p| {
            let ms = |network: NetworkConfig| network.transfer_seconds(p) * 1e3;
            (p, ms(capped), ms(gigabit))
        })
        .collect();
    Ok(Ablations {
        importance,
        budget,
        bandwidth,
    })
}

// ---------------------------------------------------------------------------
// Streaming / failure-injection scenario (beyond the paper: the ROADMAP's
// long-running serving runtime)
// ---------------------------------------------------------------------------

/// One streaming scenario's outcome: barrier vs pipelined throughput, and —
/// when a death is injected — the failover accounting.
#[derive(Debug)]
pub struct StreamRow {
    /// Scenario name ("barrier", "pipelined", "pipelined + device death").
    pub scenario: String,
    /// Devices at the start of the stream.
    pub devices: usize,
    /// Samples per round.
    pub round_size: usize,
    /// The stream's report; it derefs to its counters.
    pub report: StreamReport,
}

/// The analytic half of the streaming report, per fusion stage: its label and
/// the barrier and pipelined steady-state samples per second.
pub type FusionSweep = Vec<(&'static str, f64, f64)>;

/// Runs the streaming scenario on a 4-device cluster: a barrier stream, a
/// pipelined stream, and a pipelined stream in which one device is killed
/// mid-stream and the survivors take over. Each stream fuses every sample
/// exactly once; the pipelined steady-state throughput exceeds the barrier
/// throughput by construction of the two-stage pipeline.
///
/// Beside the executed rows it returns an analytic sweep on the paper-scale
/// ViT-Base plan over the same 4 devices, with the fusion stage priced from
/// negligible up to a full sub-model forward.
///
/// # Errors
///
/// Propagates pipeline/scheduler failures.
pub fn streaming_comparison(options: &ExperimentOptions) -> Result<(Vec<StreamRow>, FusionSweep)> {
    use crate::streaming::run_streaming;
    use edvit_sched::{ScheduleMode, StreamConfig};

    let devices = 4usize;
    let (samples_wanted, round_size) = if options.fast { (8, 2) } else { (32, 4) };
    let mut rows = Vec::new();
    let scenarios: [(&str, ScheduleMode, bool); 3] = [
        ("barrier", ScheduleMode::Barrier, false),
        ("pipelined", ScheduleMode::Pipelined, false),
        ("pipelined + device death", ScheduleMode::Pipelined, true),
    ];
    // Train once; each scenario streams through a clone of the deployment
    // (a run moves the sub-models onto its device threads).
    let config = pipeline_config(
        DatasetKind::Cifar10Like,
        ViTVariant::Base,
        devices,
        options,
        11,
    );
    let device_specs = config.devices.clone();
    let trained = EdVitPipeline::new(config).run()?;
    let inputs = test_inputs(&trained, samples_wanted)?;
    for (name, mode, inject_death) in scenarios {
        let mut stream_config = StreamConfig {
            round_size,
            mode,
            ..StreamConfig::default()
        };
        if inject_death {
            // Kill the device hosting sub-model 0 just after the stream warms
            // up, so the failover path (detection → re-plan → replay) runs.
            stream_config = stream_config.with_failure(first_host(&trained.plan)?, 1);
        }
        let report = run_streaming(
            trained.clone(),
            &inputs,
            device_specs.clone(),
            stream_config,
        )?;
        rows.push(StreamRow {
            scenario: name.to_string(),
            devices,
            round_size,
            report,
        });
    }

    // No training needed: the stream timing model alone decides the intervals.
    let cluster = DeviceSpec::raspberry_pi_cluster(devices);
    let plan =
        SplitPlanner::new(PlannerConfig::default()).plan(&ViTConfig::vit_base(10), &cluster, 11)?;
    let max_flops = plan.max_sub_model_flops();
    let mut sweep = Vec::new();
    for (label, fusion_flops) in [
        ("default fusion MLP", 0u64),
        ("25% of a sub-model", max_flops / 4),
        ("100% of a sub-model", max_flops),
    ] {
        let mut model = LatencyModel::new(NetworkConfig::paper_default());
        if fusion_flops > 0 {
            model = model.with_fusion_flops(fusion_flops);
        }
        let rate = |pipelined| -> Result<f64> {
            Ok(model
                .estimate_stream(&plan, &cluster, 4, pipelined)?
                .steady_state_samples_per_second())
        };
        sweep.push((label, rate(false)?, rate(true)?));
    }
    Ok((rows, sweep))
}

// ---------------------------------------------------------------------------
// Serving front-door scenario (beyond the paper: multi-tenant continuous
// batching over the streaming runtime)
// ---------------------------------------------------------------------------

/// One serving scenario's outcome: admission accounting, latency
/// percentiles and batching behaviour under a seeded open-loop arrival
/// process.
#[derive(Debug)]
pub struct ServingRow {
    /// Scenario name ("barrier per request", "continuous", ...).
    pub scenario: String,
    /// Tenants offering load.
    pub tenants: usize,
    /// The drill's report; it derefs to its counters.
    pub report: ServeReport,
}

/// Runs the serving scenario on a 4-device cluster: a barrier-per-request
/// baseline, a continuous-batching run at the same offered load, an
/// overloaded run against tight per-tenant queue bounds, and a continuous
/// run with a mid-drill device crash. Every run is a seeded open-loop drill
/// on the virtual clock, so the rows are bit-deterministic.
///
/// # Errors
///
/// Propagates pipeline/serving failures.
pub fn serving_comparison(options: &ExperimentOptions) -> Result<Vec<ServingRow>> {
    use crate::serve::run_server;
    use edvit_serve::{ArrivalSpec, DepthController, ServeConfig, ServeScheduler, TenantSpec};

    let devices = 4usize;
    let requests = if options.fast { 24 } else { 96 };
    let config = pipeline_config(
        DatasetKind::Cifar10Like,
        ViTVariant::Base,
        devices,
        options,
        13,
    );
    let device_specs = config.devices.clone();
    let trained = EdVitPipeline::new(config).run()?;
    let inputs = test_inputs(&trained, 8)?;

    // Fusion-MLP cost of roughly one sub-model's per-sample FLOPs: the
    // pipelined round interval is max(device, fusion) where the barrier
    // baseline pays device + fusion per request — the gap continuous
    // batching exploits.
    const SERVING_FUSION_FLOPS: u64 = 1_250_000_000;
    let open_tenants = || {
        vec![
            TenantSpec::new("interactive", 10_000),
            TenantSpec::new("batch", 10_000),
        ]
    };
    let base_config = |tenants: Vec<TenantSpec>, arrivals: ArrivalSpec| {
        let mut c = ServeConfig::new(tenants, arrivals);
        c.stream.fusion_flops = SERVING_FUSION_FLOPS;
        c
    };
    let capacity = ServeScheduler::new(
        trained.plan.clone(),
        device_specs.clone(),
        base_config(open_tenants(), ArrivalSpec::new(1.0, 1, 0)),
    )?
    .nominal_capacity_per_second()?;

    let sustainable = ArrivalSpec::new(0.8 * capacity, requests, 11);
    let mut pinned = base_config(open_tenants(), sustainable);
    pinned.depth = DepthController {
        min_depth: 2,
        max_depth: 2,
        backlog_rounds: usize::MAX,
    };
    let mut overloaded = base_config(
        vec![
            TenantSpec::new("interactive", 2),
            TenantSpec::new("batch", 4),
        ],
        ArrivalSpec::new(6.0 * capacity, requests, 23),
    );
    overloaded.depth = DepthController::default();
    let mut crashed = base_config(
        open_tenants(),
        ArrivalSpec::new(0.6 * capacity, requests, 17),
    );
    // Kill the device hosting sub-model 0 early in the crash scenario.
    crashed.stream = crashed.stream.with_failure(first_host(&trained.plan)?, 1);

    let scenarios: Vec<(&str, ServeConfig)> = vec![
        (
            "barrier per request",
            base_config(open_tenants(), sustainable).barrier_per_request(),
        ),
        ("continuous", pinned),
        ("continuous + overload", overloaded),
        ("continuous + device death", crashed),
    ];

    let mut rows = Vec::with_capacity(scenarios.len());
    for (name, serve_config) in scenarios {
        let tenants = serve_config.tenants.len();
        let report = run_server(trained.clone(), &inputs, device_specs.clone(), serve_config)?;
        rows.push(ServingRow {
            scenario: name.to_string(),
            tenants,
            report,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Wire-codec comparison (beyond the paper: the ROADMAP's payload shrinking)
// ---------------------------------------------------------------------------

/// One wire codec's outcome on the seeded demo deployment: bytes saved on the
/// wire versus the `f32` baseline, measured encode cost, and the prediction
/// delta (which must be zero for the f16 family on this pipeline).
#[derive(Debug, Clone, PartialEq)]
pub struct CodecRow {
    /// Codec name (`f32`, `f16`, `f16+rle`).
    pub codec: PayloadCodec,
    /// Encoded bytes on the wire across the whole stream (data + control
    /// frames), from [`edvit_sched::StreamReport::bytes_on_wire`].
    pub bytes_on_wire: u64,
    /// Encoded bytes of the data frames alone — the portion the codec can
    /// shrink (control frames always ship codec 0).
    pub data_frame_bytes: u64,
    /// Fraction of the `f32` data-frame bytes this codec saved (0 for the
    /// baseline row).
    pub data_savings_vs_f32: f64,
    /// Measured wall-clock nanoseconds per feature value to encode a
    /// representative batch under this codec (informational, like every
    /// wall-clock figure in the reports).
    pub encode_ns_per_value: f64,
    /// Samples whose top-1 prediction differs from the `f32` run.
    pub predictions_changed: usize,
    /// Steady-state throughput of the stream on the simulated clock.
    pub steady_state_samples_per_second: f64,
}

/// Streams the seeded demo deployment once per [`PayloadCodec`] and compares
/// the codecs: wire bytes, encode cost and prediction drift versus the `f32`
/// baseline. The pipeline is trained once; every codec streams a clone of the
/// same deployment over the same samples, so the only difference is the wire
/// encoding.
///
/// # Errors
///
/// Propagates pipeline and scheduler failures.
pub fn codec_comparison(options: &ExperimentOptions) -> Result<Vec<CodecRow>> {
    use crate::distributed::sample_features;
    use crate::streaming::run_streaming;
    use edvit_sched::StreamConfig;

    let devices = 2usize;
    let (samples_wanted, round_size) = if options.fast { (8, 2) } else { (32, 4) };
    let config = pipeline_config(
        DatasetKind::Cifar10Like,
        ViTVariant::Base,
        devices,
        options,
        3,
    );
    let device_specs = config.devices.clone();
    let trained = EdVitPipeline::new(config).run()?;
    let inputs = test_inputs(&trained, samples_wanted)?;

    // Encode-cost probe: one round of *real* feature vectors from sub-model
    // 0, so the per-value cost — entropy-dependent for the rle codec — is
    // measured on the data the wire actually carries, not on raw images.
    let probe_model = &trained.sub_models[0].model;
    let mut probe: Option<edge_wire::FeatureBatchMessage> = None;
    for (i, sample) in inputs.iter().take(round_size).enumerate() {
        let feature = sample_features(probe_model, sample)
            .map_err(|message| EdVitError::InvalidConfig { message })?;
        probe
            .get_or_insert_with(|| edge_wire::FeatureBatchMessage::new(0, feature.numel()))
            .push_tensor(i, &feature)?;
    }
    let probe = probe.ok_or_else(|| EdVitError::InvalidConfig {
        message: "the codec comparison needs at least one test sample".to_string(),
    })?;

    let mut rows = Vec::with_capacity(PayloadCodec::ALL.len());
    let mut f32_predictions: Vec<usize> = Vec::new();
    let mut f32_data_bytes = 0u64;
    for codec in PayloadCodec::ALL {
        let deployment = trained.clone();
        let stream_config = StreamConfig {
            round_size,
            ..StreamConfig::default()
        }
        .with_options(&edvit_edge::NetOptions::default().with_codec(codec));
        let report = run_streaming(deployment, &inputs, device_specs.clone(), stream_config)?;
        let predictions = report.predictions()?;
        let control_bytes = report.control_frames as u64 * edge_wire::CONTROL_FRAME_LEN as u64;
        let data_frame_bytes = report.bytes_on_wire - control_bytes;
        if codec == PayloadCodec::F32 {
            f32_predictions = predictions.clone();
            f32_data_bytes = data_frame_bytes;
        }
        let predictions_changed = predictions
            .iter()
            .zip(&f32_predictions)
            .filter(|(a, b)| a != b)
            .count();
        // Encode cost: quantify the codec's CPU price on the probe batch.
        let values = probe.features.len().max(1);
        let reps = 64usize;
        let started = std::time::Instant::now();
        for _ in 0..reps {
            std::hint::black_box(probe.encode_with(codec));
        }
        let encode_ns_per_value = started.elapsed().as_nanos() as f64 / (reps * values) as f64;
        rows.push(CodecRow {
            codec,
            bytes_on_wire: report.bytes_on_wire,
            data_frame_bytes,
            data_savings_vs_f32: if f32_data_bytes > 0 {
                1.0 - data_frame_bytes as f64 / f32_data_bytes as f64
            } else {
                0.0
            },
            encode_ns_per_value,
            predictions_changed,
            steady_state_samples_per_second: report.steady_state_samples_per_second,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_shape() {
        let rows = table1();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].model, "ViT-Small");
        assert!(rows[0].params_millions < rows[1].params_millions);
        assert!(rows[1].params_millions < rows[2].params_millions);
        assert!(rows[0].latency_ms < rows[1].latency_ms);
        assert!(rows[1].latency_ms < rows[2].latency_ms);
        // Table I values: 9 628 ms / 36 940 ms / 118 828 ms within ~15%.
        assert!((rows[1].latency_ms - 36_940.0).abs() / 36_940.0 < 0.15);
        assert!((rows[1].memory_mb - 327.0).abs() < 25.0);
    }

    #[test]
    fn table2_flops_decrease_with_devices() {
        let rows = table2().unwrap();
        assert_eq!(rows.len(), 10);
        let cifar: Vec<&Table2Row> = rows.iter().filter(|r| r.dataset == "CIFAR-10").collect();
        assert!(cifar[0].devices.is_none());
        assert!((cifar[0].gflops - 16.86).abs() < 1.0);
        for pair in cifar.windows(2) {
            assert!(pair[1].gflops < pair[0].gflops);
        }
        // 2-device sub-models land near the paper's 4.25 GFLOPs.
        assert!((cifar[1].gflops - 4.25).abs() < 0.8, "{}", cifar[1].gflops);
    }

    #[test]
    fn comm_overhead_matches_section_vd() {
        let rows = comm_overhead().unwrap();
        assert_eq!(rows.len(), PAPER_DEVICE_COUNTS.len());
        // Payloads shrink with more devices, from 1536 B (2 devices) down to
        // 512 B (10 devices); transfer stays in the milliseconds.
        let two = rows.iter().find(|r| r.devices == 2).unwrap();
        assert_eq!(two.payload_bytes, 1536);
        let ten = rows.iter().find(|r| r.devices == 10).unwrap();
        assert_eq!(ten.payload_bytes, 512);
        assert!((ten.reduction_vs_raw_image - 294.0).abs() < 1.0);
        assert!(rows.iter().all(|r| r.transfer_ms < 10.0));
        // The v2 frame adds a fixed 32 bytes of framing around the payload,
        // and batching amortizes both the framing and the per-message
        // overhead below the single-sample transfer time.
        for row in &rows {
            assert_eq!(row.frame_bytes, row.payload_bytes + 32);
            assert!(
                row.batched_ms_per_sample < row.transfer_ms,
                "batched {} !< single {}",
                row.batched_ms_per_sample,
                row.transfer_ms
            );
        }
    }

    #[test]
    fn fast_split_curve_has_expected_shape() {
        let options = ExperimentOptions::fast();
        let points = split_curve(
            DatasetKind::Cifar10Like,
            ViTVariant::Base,
            &[2, 5],
            &options,
        )
        .unwrap();
        assert_eq!(points.len(), 2);
        assert!(points[0].latency_seconds > points[1].latency_seconds);
        assert!(points
            .iter()
            .all(|p| p.total_memory_mb <= 180.0 && p.total_memory_mb > 0.0));
        assert!(points
            .iter()
            .all(|p| p.original_latency_seconds > p.latency_seconds));
        assert!(points.iter().all(|p| p.accuracy_mean >= 0.0));
    }

    #[test]
    fn streaming_comparison_pipelines_and_fails_over() {
        let (rows, sweep) = streaming_comparison(&ExperimentOptions::fast()).unwrap();
        assert_eq!(rows.len(), 3);
        let barrier = &rows[0].report;
        let pipelined = &rows[1].report;
        let chaos = &rows[2].report;
        assert_eq!(rows[0].scenario, "barrier");
        assert!(
            pipelined.steady_state_samples_per_second > barrier.steady_state_samples_per_second
        );
        assert!(pipelined.simulated_total_seconds < barrier.simulated_total_seconds);
        assert!(pipelined.devices_lost.is_empty());
        assert_eq!(chaos.devices_lost.len(), 1);
        assert_eq!(chaos.repartitions, 1);
        assert!(chaos.recovery_seconds > 0.0);
        // Every scenario fused the full stream exactly once.
        let samples = barrier.outputs.len();
        assert!(rows.iter().all(|r| r.report.outputs.len() == samples));
        // Pipelining pays off as the fusion stage grows, and never loses.
        assert_eq!(sweep.len(), 3);
        assert!(sweep.iter().all(|&(_, b, p)| p >= b));
        assert!(sweep[2].2 > sweep[2].1);
    }

    #[test]
    fn serving_comparison_batches_sheds_and_recovers() {
        let rows = serving_comparison(&ExperimentOptions::fast()).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].scenario, "barrier per request");
        let barrier = &rows[0].report;
        let continuous = &rows[1].report;
        let overload = &rows[2].report;
        let crash = &rows[3].report;
        // Same seeded arrivals: continuous batching wins the tail.
        assert_eq!(barrier.admitted, continuous.admitted);
        assert!(continuous.p99_latency_seconds < barrier.p99_latency_seconds);
        assert!(continuous.served_samples_per_second > barrier.served_samples_per_second);
        assert!(barrier.rounds_formed > continuous.rounds_formed);
        // Overload sheds against the tight bounds but loses nothing.
        assert!(overload.shed > 0);
        // The crash shows up as recovery time, not as lost requests.
        assert_eq!(crash.devices_lost.len(), 1);
        assert!(crash.recovery_seconds > 0.0);
        // Exactly-one-disposition accounting on every row.
        for row in &rows {
            assert_eq!(row.report.admitted, row.report.completed + row.report.shed);
            assert!(row.report.p99_latency_seconds >= row.report.p50_latency_seconds);
        }
    }

    #[test]
    fn codec_comparison_halves_data_bytes_without_changing_predictions() {
        let rows = codec_comparison(&ExperimentOptions::fast()).unwrap();
        assert_eq!(rows.len(), 3);
        let f32_row = &rows[0];
        let f16_row = &rows[1];
        let rle_row = &rows[2];
        assert_eq!(f32_row.codec, PayloadCodec::F32);
        assert_eq!(f16_row.codec, PayloadCodec::F16);
        assert_eq!(rle_row.codec, PayloadCodec::F16Rle);
        assert_eq!(f32_row.predictions_changed, 0);
        // f16 must not flip a single top-1 prediction on the seeded demo
        // pipeline, and rle is lossless on top of f16.
        assert_eq!(f16_row.predictions_changed, 0);
        assert_eq!(rle_row.predictions_changed, 0);
        // f16 halves the value bytes exactly; on the tiny demo's small
        // feature dims the fixed framing (headers + sample indices) keeps the
        // whole-frame saving below the asymptotic 50%.
        assert!(
            f16_row.data_savings_vs_f32 > 0.33,
            "f16 saved only {:.1}% of the data-frame bytes",
            f16_row.data_savings_vs_f32 * 100.0
        );
        assert!(f16_row.bytes_on_wire < f32_row.bytes_on_wire);
        assert!(rle_row.bytes_on_wire < f32_row.bytes_on_wire);
        assert!(rows.iter().all(|r| r.encode_ns_per_value >= 0.0));
        assert!(rows.iter().all(|r| r.steady_state_samples_per_second > 0.0));
    }

    #[test]
    fn options_constructors() {
        assert!(ExperimentOptions::fast().fast);
        assert_eq!(ExperimentOptions::fast().trials(), 1);
        assert_eq!(ExperimentOptions::full().trials(), 5);
    }

    #[test]
    fn table4_fast_has_three_methods() {
        let rows = table4(&[2], &ExperimentOptions::fast()).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().any(|r| r.method == "ED-ViT"));
        assert!(rows.iter().any(|r| r.method.contains("entire retrain")));
        assert!(rows.iter().all(|r| (0.0..=1.0).contains(&r.accuracy)));
    }
}
