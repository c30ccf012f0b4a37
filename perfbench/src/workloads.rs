//! The five workloads: how each builds its inputs from the seed, runs one
//! rep and one single-round request through its own entry point, and what a
//! single-threaded reference says every fused output must be.
//!
//! Every workload is a closed loop with one caller; the device threads are
//! the system's own. All five share one set-up: 2 devices
//! (`DeviceSpec::raspberry_pi_cluster(2)`), the plan `SplitPlanner` makes for
//! ViT-Base on them (one sub-model per device), and executors / fusion that
//! enter through the `SubModelFn` / `FusionFn` closure seam.

use std::error::Error;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use edvit::distributed::{into_executors, run_distributed, RunOptions};
use edvit::edge::{
    ClusterRuntime, FeatureBatchMessage, FusionFn, NetOptions, PayloadCodec, SubModelFn,
    TransportKind, WireFrame,
};
use edvit::fusion::{FusionConfig, FusionMlp};
use edvit::metrics::MetricsSink;
use edvit::partition::{DeviceSpec, PlannerConfig, SplitPlan, SplitPlanner};
use edvit::pipeline::{EdVitConfig, EdVitDeployment, EdVitPipeline};
use edvit::sched::{StreamConfig, StreamScheduler};
use edvit::serving::{ArrivalSpec, ServeConfig, ServeScheduler, TenantSpec};
use edvit::tensor::init::TensorRng;
use edvit::tensor::Tensor;
use edvit::vit::{ViTConfig, ViTVariant, VisionTransformer};

use crate::trace::{Recorder, FUSION};

pub type BenchResult<T> = Result<T, Box<dyn Error>>;

/// Devices (= sub-models) in every workload.
pub const DEVICES: usize = 2;

/// Distinct precomputed features a replay executor cycles through.
pub const REPLAY_FEATURES: usize = 64;

/// The workloads, in the order `--all` runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    StreamComputeSim,
    WireF32Tcp,
    WireF16RleSim,
    ServeFusionSim,
    OneshotLatency,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::StreamComputeSim,
        Kind::WireF32Tcp,
        Kind::WireF16RleSim,
        Kind::ServeFusionSim,
        Kind::OneshotLatency,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::StreamComputeSim => "stream_compute_sim",
            Kind::WireF32Tcp => "wire_f32_tcp",
            Kind::WireF16RleSim => "wire_f16rle_sim",
            Kind::ServeFusionSim => "serve_fusion_sim",
            Kind::OneshotLatency => "oneshot_latency",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Samples (requests, calls) in one rep at full scale: 0.1-0.4 s a rep on
    /// the 2-core reference box, so a run's median is over dozens of reps.
    fn rep_samples(self) -> usize {
        match self {
            Kind::StreamComputeSim => 16,
            Kind::WireF32Tcp => 4_096,
            Kind::WireF16RleSim => 4_096,
            Kind::ServeFusionSim => 1_024,
            Kind::OneshotLatency => 500,
        }
    }

    /// Samples in a full round.
    pub fn round_size(self) -> usize {
        match self {
            Kind::StreamComputeSim => 4,
            Kind::WireF32Tcp | Kind::WireF16RleSim | Kind::ServeFusionSim => 8,
            Kind::OneshotLatency => 1,
        }
    }

    pub fn codec(self) -> PayloadCodec {
        match self {
            Kind::WireF16RleSim => PayloadCodec::F16Rle,
            _ => PayloadCodec::F32,
        }
    }

    pub fn transport(self) -> TransportKind {
        match self {
            Kind::WireF32Tcp => TransportKind::Tcp,
            _ => TransportKind::Sim,
        }
    }
}

/// The ViT the compute workload runs and the tensor / nn / vit probes are
/// shaped after: depth 4, width 192, 6 heads, 64 patches of 8x8 on a 64x64
/// RGB image (about 15 ms per sample on the reference box).
pub fn probe_vit_config() -> ViTConfig {
    ViTConfig {
        variant: ViTVariant::Small,
        depth: 4,
        embed_dim: 192,
        heads: 6,
        mlp_ratio: 4,
        patch_size: 8,
        image_size: 64,
        channels: 3,
        num_classes: 10,
    }
}

// ---- Seeded generators ---------------------------------------------------
//
// Each is a pure function of the seed, so the reference can build its own
// copies instead of sharing state with the run it checks.

fn rng_for(seed: u64, stream: u64) -> TensorRng {
    TensorRng::new(seed).fork(stream)
}

fn vit_models(seed: u64) -> BenchResult<Vec<VisionTransformer>> {
    (0..DEVICES)
        .map(|i| {
            Ok(VisionTransformer::new(
                &probe_vit_config(),
                &mut rng_for(seed, 10 + i as u64),
            )?)
        })
        .collect()
}

fn fusion_mlp(seed: u64, input_dim: usize) -> BenchResult<FusionMlp> {
    Ok(FusionMlp::new(
        &FusionConfig::new(input_dim, 10),
        &mut rng_for(seed, 20),
    )?)
}

fn images(seed: u64, count: usize) -> Vec<Tensor> {
    let config = probe_vit_config();
    let mut rng = rng_for(seed, 30);
    (0..count)
        .map(|_| {
            rng.randn(
                &[config.channels, config.image_size, config.image_size],
                0.0,
                1.0,
            )
        })
        .collect()
}

/// `features[sub_model][index]`: `REPLAY_FEATURES` vectors per sub-model,
/// each element zero with probability `zero_share`.
fn replay_features(seed: u64, width: usize, zero_share: f32) -> Vec<Vec<Tensor>> {
    (0..DEVICES)
        .map(|sub| {
            let mut rng = rng_for(seed, 40 + sub as u64);
            (0..REPLAY_FEATURES)
                .map(|_| {
                    let data = (0..width)
                        .map(|_| {
                            if rng.uniform(0.0, 1.0) < zero_share {
                                0.0
                            } else {
                                rng.normal(0.0, 1.0)
                            }
                        })
                        .collect();
                    Tensor::vector(data)
                })
                .collect()
        })
        .collect()
}

/// Replay inputs carry only the index of the feature to replay.
pub fn index_tensor(index: usize) -> Tensor {
    Tensor::vector(vec![index as f32])
}

/// Reads the index back out of a replay input.
pub fn tensor_index(input: &Tensor) -> Result<usize, String> {
    match input.data() {
        // f32 holds every integer below 2^24 exactly.
        [v] if *v >= 0.0 && v.fract() == 0.0 && *v < 16_777_216.0 => Ok(*v as usize),
        other => Err(format!("not a replay index: {other:?}")),
    }
}

/// A fixed-order fold of the concatenated feature's bit patterns: FNV-1a
/// over 32-bit words in eight interleaved lanes (so the multiplies overlap),
/// the lanes then folded in order, split into two exactly-representable
/// halves. It makes the fusion stage nearly free while still depending on
/// every bit, and on the order, of what the wire delivered.
pub fn checksum(concat: &Tensor) -> Tensor {
    const PRIME: u32 = 0x0100_0193;
    let step = |acc: u32, word: u32| (acc ^ word).wrapping_mul(PRIME);
    let mut lanes = [0x811C_9DC5_u32; 8];
    let chunks = concat.data().chunks_exact(8);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (lane, v) in lanes.iter_mut().zip(chunk) {
            *lane = step(*lane, v.to_bits());
        }
    }
    let hash = lanes
        .into_iter()
        .chain(tail.iter().map(|v| v.to_bits()))
        .fold(concat.numel() as u32, step);
    Tensor::vector(vec![(hash >> 16) as f32, (hash & 0xFFFF) as f32])
}

// ---- Closures --------------------------------------------------------------

fn vit_executor(mut model: VisionTransformer) -> SubModelFn {
    Box::new(move |sample: &Tensor| {
        let mut dims = vec![1];
        dims.extend_from_slice(sample.dims());
        let batched = sample.reshape(&dims).map_err(|e| e.to_string())?;
        let features = model
            .forward_features(&batched)
            .map_err(|e| e.to_string())?;
        features.row(0).map_err(|e| e.to_string())
    })
}

fn replay_executor(features: Vec<Tensor>) -> SubModelFn {
    Box::new(move |input: &Tensor| {
        let index = tensor_index(input)?;
        Ok(features[index % features.len()].clone())
    })
}

fn mlp_fusion(mut mlp: FusionMlp) -> FusionFn {
    Box::new(move |concat: &Tensor| {
        let batched = concat
            .reshape(&[1, concat.numel()])
            .map_err(|e| e.to_string())?;
        let logits = mlp.predict_logits(&batched).map_err(|e| e.to_string())?;
        logits.row(0).map_err(|e| e.to_string())
    })
}

fn checksum_fusion() -> FusionFn {
    Box::new(|concat: &Tensor| Ok(checksum(concat)))
}

/// A closure kept warm across reps: the schedulers consume their executors,
/// so each run gets forwarding closures onto the same shared state.
type Shared = Arc<Mutex<SubModelFn>>;

fn share(closure: SubModelFn) -> Shared {
    Arc::new(Mutex::new(closure))
}

fn forward(shared: &Shared) -> SubModelFn {
    let shared = Arc::clone(shared);
    Box::new(move |input: &Tensor| {
        let mut closure = shared
            .lock()
            .map_err(|_| "shared closure poisoned".to_string())?;
        closure(input)
    })
}

// ---- Engines ---------------------------------------------------------------

struct StreamEngine {
    plan: SplitPlan,
    devices: Vec<DeviceSpec>,
    config: StreamConfig,
    inputs: Vec<Tensor>,
}

struct ServeEngine {
    plan: SplitPlan,
    devices: Vec<DeviceSpec>,
    config: ServeConfig,
    /// The replay index pool arrivals draw their sample from.
    pool: Vec<Tensor>,
}

struct OneshotEngine {
    deployment: EdVitDeployment,
    samples: Vec<Tensor>,
    calls: usize,
}

enum Engine {
    Stream(StreamEngine),
    Serve(ServeEngine),
    Oneshot(OneshotEngine),
}

/// What one run through a workload's entry point produced.
pub struct Outcome {
    /// Fused output per attempted sample, `None` where the system lost it.
    pub outputs: Vec<Option<Tensor>>,
    /// Wall seconds inside the entry point (for `oneshot_latency`, the sum
    /// over its calls; the deployment clones between them are not timed).
    pub wall_s: f64,
    pub rounds: usize,
    pub bytes_on_wire: u64,
    /// Data and control frames the fusion side received.
    pub frames: usize,
    pub max_rounds_in_flight: usize,
    /// Per-call wall time, `oneshot_latency` only.
    pub call_ms: Vec<f64>,
}

/// Optional instrumentation of one rep.
#[derive(Default)]
pub struct Hooks<'a> {
    /// Wrap every executor and the fusion closure with span records.
    pub recorder: Option<&'a mut Recorder>,
    /// Journal the run into this sink instead of the disabled default.
    pub sink: Option<MetricsSink>,
}

/// One built workload: inputs generated, executors warm, ready to run.
pub struct Workload {
    pub kind: Kind,
    seed: u64,
    engine: Engine,
    executors: Vec<Shared>,
    fusion: Shared,
    /// For each sample of a rep, in output order, the index of its reference.
    expect: Vec<usize>,
}

pub fn common_plan() -> BenchResult<(SplitPlan, Vec<DeviceSpec>)> {
    let devices = DeviceSpec::raspberry_pi_cluster(DEVICES);
    let plan =
        SplitPlanner::new(PlannerConfig::default()).plan(&ViTConfig::vit_base(10), &devices, 0)?;
    Ok((plan, devices))
}

/// Width and zero share of the replayed features, per replay workload.
fn replay_shape(kind: Kind) -> (usize, f32) {
    match kind {
        Kind::WireF16RleSim => (768, 0.84),
        Kind::ServeFusionSim => (384, 0.0),
        _ => (768, 0.0),
    }
}

/// The serving scheduler for `count` Poisson arrivals at 0.9 of the nominal
/// capacity: two tenants, queues too large to shed, round capacity 8.
pub fn serve_scheduler(
    plan: &SplitPlan,
    devices: &[DeviceSpec],
    count: usize,
    seed: u64,
) -> BenchResult<ServeScheduler> {
    let tenants = || {
        vec![
            TenantSpec::new("cam-north", 1 << 20),
            TenantSpec::new("cam-south", 1 << 20),
        ]
    };
    let config_at = |rate: f64| {
        let mut config = ServeConfig::new(tenants(), ArrivalSpec::new(rate, count, seed));
        config.stream.round_size = Kind::ServeFusionSim.round_size();
        config
    };
    let capacity = ServeScheduler::new(plan.clone(), devices.to_vec(), config_at(1.0))?
        .nominal_capacity_per_second()?;
    Ok(ServeScheduler::new(
        plan.clone(),
        devices.to_vec(),
        config_at(0.9 * capacity),
    )?)
}

/// Builds executors and fusion from the seed alone (and, for
/// `oneshot_latency`, the deployment the seed trained): every call makes
/// independent copies, so the reference shares nothing with the runs.
fn fresh_closures(
    kind: Kind,
    seed: u64,
    engine: &Engine,
) -> BenchResult<(Vec<SubModelFn>, FusionFn)> {
    Ok(match engine {
        Engine::Oneshot(engine) => into_executors(engine.deployment.clone()),
        _ if kind == Kind::StreamComputeSim => {
            let width = DEVICES * probe_vit_config().embed_dim;
            (
                vit_models(seed)?.into_iter().map(vit_executor).collect(),
                mlp_fusion(fusion_mlp(seed, width)?),
            )
        }
        _ => {
            let (width, zero_share) = replay_shape(kind);
            let executors = replay_features(seed, width, zero_share)
                .into_iter()
                .map(replay_executor)
                .collect();
            let fusion = if kind == Kind::ServeFusionSim {
                mlp_fusion(fusion_mlp(seed, DEVICES * width)?)
            } else {
                checksum_fusion()
            };
            (executors, fusion)
        }
    })
}

impl Workload {
    /// Builds the workload's inputs and executors from `seed`. `smoke`
    /// shrinks every rep about 20x.
    pub fn build(kind: Kind, seed: u64, smoke: bool) -> BenchResult<Workload> {
        let round = kind.round_size();
        let samples = if smoke {
            (kind.rep_samples() / 20).max(2 * round)
        } else {
            kind.rep_samples()
        };
        let (plan, devices) = common_plan()?;
        let engine = match kind {
            Kind::StreamComputeSim | Kind::WireF32Tcp | Kind::WireF16RleSim => {
                let inputs = if kind == Kind::StreamComputeSim {
                    images(seed, samples)
                } else {
                    (0..samples)
                        .map(|i| index_tensor(i % REPLAY_FEATURES))
                        .collect()
                };
                let config = StreamConfig {
                    round_size: round,
                    pipeline_depth: 2,
                    ..StreamConfig::default()
                }
                .with_options(
                    &NetOptions::default()
                        .with_codec(kind.codec())
                        .with_transport(kind.transport()),
                );
                Engine::Stream(StreamEngine {
                    plan,
                    devices,
                    config,
                    inputs,
                })
            }
            Kind::ServeFusionSim => {
                let config = serve_scheduler(&plan, &devices, samples, seed)?
                    .config()
                    .clone();
                Engine::Serve(ServeEngine {
                    plan,
                    devices,
                    config,
                    pool: (0..REPLAY_FEATURES).map(index_tensor).collect(),
                })
            }
            Kind::OneshotLatency => {
                let deployment =
                    EdVitPipeline::new(EdVitConfig::tiny_demo(DEVICES).with_seed(seed)).run()?;
                let test = &deployment.test_set;
                let samples_pool = (0..test.len().min(8))
                    .map(|i| test.images().row(i))
                    .collect::<Result<Vec<_>, _>>()?;
                Engine::Oneshot(OneshotEngine {
                    deployment,
                    samples: samples_pool,
                    calls: samples,
                })
            }
        };
        let (executors, fusion) = fresh_closures(kind, seed, &engine)?;
        let expect = match &engine {
            Engine::Stream(_) if kind == Kind::StreamComputeSim => (0..samples).collect(),
            Engine::Stream(_) => (0..samples).map(|i| i % REPLAY_FEATURES).collect(),
            Engine::Serve(engine) => engine
                .config
                .arrivals
                .generate(engine.config.tenants.len(), engine.pool.len())?
                .iter()
                .map(|request| request.sample)
                .collect(),
            Engine::Oneshot(engine) => (0..samples).map(|k| k % engine.samples.len()).collect(),
        };
        Ok(Workload {
            kind,
            seed,
            engine,
            executors: executors.into_iter().map(share).collect(),
            fusion: share(fusion),
            expect,
        })
    }

    /// Forwarding closures onto the warm executors and fusion.
    pub fn closures(&self) -> (Vec<SubModelFn>, FusionFn) {
        (
            self.executors.iter().map(forward).collect(),
            forward(&self.fusion),
        )
    }

    fn hooked_closures(&self, recorder: Option<&mut Recorder>) -> (Vec<SubModelFn>, FusionFn) {
        let (executors, fusion) = self.closures();
        match recorder {
            None => (executors, fusion),
            Some(recorder) => (
                executors
                    .into_iter()
                    .enumerate()
                    .map(|(i, e)| recorder.wrap("executor", i as i64, e))
                    .collect(),
                recorder.wrap("fusion", FUSION, fusion),
            ),
        }
    }

    /// The distinct inputs a rep draws from; `expect()` indexes into the
    /// reference computed over these.
    pub fn distinct_inputs(&self) -> Vec<Tensor> {
        match &self.engine {
            Engine::Stream(engine) if self.kind == Kind::StreamComputeSim => engine.inputs.clone(),
            Engine::Stream(_) | Engine::Serve(_) => {
                (0..REPLAY_FEATURES).map(index_tensor).collect()
            }
            Engine::Oneshot(engine) => engine.samples.clone(),
        }
    }

    /// For each sample of a rep, in output order, the index of its reference
    /// among [`Workload::distinct_inputs`].
    pub fn expect(&self) -> &[usize] {
        &self.expect
    }

    /// Round of the `k`-th sample in stream order, for the span records.
    pub fn round_table(&self) -> BenchResult<Vec<u32>> {
        Ok(match &self.engine {
            Engine::Stream(engine) => (0..engine.inputs.len())
                .map(|i| (i / self.kind.round_size()) as u32)
                .collect(),
            Engine::Serve(engine) => {
                let scheduler = ServeScheduler::new(
                    engine.plan.clone(),
                    engine.devices.clone(),
                    engine.config.clone(),
                )?;
                let requests = engine
                    .config
                    .arrivals
                    .generate(engine.config.tenants.len(), engine.pool.len())?;
                scheduler
                    .drill(&requests)?
                    .rounds
                    .iter()
                    .enumerate()
                    .flat_map(|(round, planned)| {
                        std::iter::repeat_n(round as u32, planned.requests.len())
                    })
                    .collect()
            }
            Engine::Oneshot(engine) => (0..engine.calls as u32).collect(),
        })
    }

    /// The single-threaded reference: for every distinct input, run each
    /// sub-model's executor (copies built from the same seed), put the
    /// feature through the wire codec where it is lossy, concatenate in
    /// sub-model order and fuse. No scheduler, transport or thread involved.
    pub fn reference(&self) -> BenchResult<Vec<Tensor>> {
        let (mut executors, mut fusion) = fresh_closures(self.kind, self.seed, &self.engine)?;
        let codec = self.kind.codec();
        self.distinct_inputs()
            .iter()
            .map(|input| {
                let features = executors
                    .iter_mut()
                    .enumerate()
                    .map(|(sub, executor)| {
                        let feature = executor(input)?;
                        if codec == PayloadCodec::F32 {
                            Ok(feature)
                        } else {
                            through_codec(sub, &feature, codec)
                        }
                    })
                    .collect::<BenchResult<Vec<Tensor>>>()?;
                let refs: Vec<&Tensor> = features.iter().collect();
                let concat = Tensor::concat_last_axis(&refs)?;
                Ok(fusion(&concat)?)
            })
            .collect()
    }

    /// One rep through the workload's entry point.
    pub fn rep(&self, hooks: Hooks<'_>) -> BenchResult<Outcome> {
        match &self.engine {
            Engine::Stream(engine) => self.stream_run(engine, &engine.inputs, hooks),
            Engine::Serve(engine) => self.serve_run(engine, engine.config.clone(), hooks),
            Engine::Oneshot(engine) => self.oneshot_run(engine, engine.calls, hooks),
        }
    }

    /// One single-round request with nothing else in flight, and the
    /// reference index of each sample in it: a request is the head of a rep
    /// (the first round; for serving, the first arrival of the same seeded
    /// process; for one-shot, the first call).
    pub fn request(&self) -> BenchResult<(Outcome, &[usize])> {
        let (outcome, samples) = match &self.engine {
            Engine::Stream(engine) => {
                let n = self.kind.round_size().min(engine.inputs.len());
                let outcome = self.stream_run(engine, &engine.inputs[..n], Hooks::default())?;
                (outcome, n)
            }
            Engine::Serve(engine) => {
                let mut config = engine.config.clone();
                config.arrivals.count = 1;
                (self.serve_run(engine, config, Hooks::default())?, 1)
            }
            Engine::Oneshot(engine) => (self.oneshot_run(engine, 1, Hooks::default())?, 1),
        };
        Ok((outcome, &self.expect[..samples]))
    }

    fn stream_run(
        &self,
        engine: &StreamEngine,
        inputs: &[Tensor],
        hooks: Hooks<'_>,
    ) -> BenchResult<Outcome> {
        let mut config = engine.config.clone();
        if let Some(sink) = hooks.sink {
            config.sink = sink;
        }
        let scheduler = StreamScheduler::new(engine.plan.clone(), engine.devices.clone(), config)?;
        let (executors, fusion) = self.hooked_closures(hooks.recorder);
        let started = Instant::now();
        let report = scheduler.run(inputs, executors, fusion)?;
        let wall_s = started.elapsed().as_secs_f64();
        Ok(Outcome {
            outputs: report.outputs.into_iter().map(Some).collect(),
            wall_s,
            rounds: report.rounds,
            bytes_on_wire: report.bytes_on_wire,
            frames: report.data_frames + report.control_frames,
            max_rounds_in_flight: report.max_rounds_in_flight,
            call_ms: Vec::new(),
        })
    }

    fn serve_run(
        &self,
        engine: &ServeEngine,
        mut config: ServeConfig,
        hooks: Hooks<'_>,
    ) -> BenchResult<Outcome> {
        if let Some(sink) = hooks.sink {
            config = config.with_sink(sink);
        }
        let count = config.arrivals.count as u64;
        let scheduler = ServeScheduler::new(engine.plan.clone(), engine.devices.clone(), config)?;
        let (executors, fusion) = self.hooked_closures(hooks.recorder);
        let started = Instant::now();
        let mut report = scheduler.run(&engine.pool, executors, fusion)?;
        let wall_s = started.elapsed().as_secs_f64();
        let stream = report.stream.as_ref();
        Ok(Outcome {
            wall_s,
            rounds: report.rounds_formed,
            bytes_on_wire: stream.map_or(0, |s| s.bytes_on_wire),
            frames: stream.map_or(0, |s| s.data_frames + s.control_frames),
            max_rounds_in_flight: stream.map_or(0, |s| s.max_rounds_in_flight),
            // Request ids are 0..count in arrival order; a shed or lost
            // request has no output and counts as failed.
            outputs: (0..count).map(|id| report.outputs.remove(&id)).collect(),
            call_ms: Vec::new(),
        })
    }

    fn oneshot_run(
        &self,
        engine: &OneshotEngine,
        calls: usize,
        hooks: Hooks<'_>,
    ) -> BenchResult<Outcome> {
        let options = RunOptions {
            sink: hooks.sink.unwrap_or_else(MetricsSink::disabled),
            ..RunOptions::default()
        };
        let mut outcome = Outcome {
            outputs: Vec::with_capacity(calls),
            wall_s: 0.0,
            rounds: calls,
            bytes_on_wire: 0,
            frames: 0,
            max_rounds_in_flight: 1,
            call_ms: Vec::with_capacity(calls),
        };
        // `run_distributed` builds its executors from the deployment it
        // consumes, so the traced rep takes the path it takes for the sim
        // transport by hand, with the wrapped warm closures.
        let wrapped = hooks.recorder.map(|recorder| {
            let (executors, fusion) = self.hooked_closures(Some(recorder));
            (
                executors.into_iter().map(share).collect::<Vec<_>>(),
                share(fusion),
            )
        });
        for call in 0..calls {
            let sample = std::slice::from_ref(&engine.samples[call % engine.samples.len()]);
            let (report, elapsed) = match &wrapped {
                Some((executors, fusion)) => {
                    let runtime = ClusterRuntime::new(options.network)
                        .with_options(&options.net)
                        .with_sink(options.sink.clone());
                    let executors = executors.iter().map(forward).collect();
                    let fusion = forward(fusion);
                    let started = Instant::now();
                    let report = runtime.run(sample, executors, fusion)?;
                    (report, started.elapsed())
                }
                None => {
                    let deployment = engine.deployment.clone();
                    let started = Instant::now();
                    let report = run_distributed(deployment, sample, &options)?;
                    (report, started.elapsed())
                }
            };
            outcome.wall_s += elapsed.as_secs_f64();
            outcome.call_ms.push(elapsed.as_secs_f64() * 1e3);
            outcome.bytes_on_wire += report.bytes_on_wire;
            outcome.frames += report.frames;
            outcome.outputs.push(report.outputs.into_iter().next());
        }
        Ok(outcome)
    }
}

/// What the fusion side decodes after `feature` crosses the wire under a
/// lossy codec: one encode and one decode on this thread.
fn through_codec(sub_model: usize, feature: &Tensor, codec: PayloadCodec) -> BenchResult<Tensor> {
    let mut batch = FeatureBatchMessage::new(sub_model, feature.numel());
    batch.push_tensor(0, feature)?;
    match WireFrame::decode(batch.encode_with(codec))? {
        WireFrame::FeatureBatch(decoded) => Ok(Tensor::vector(decoded.feature_row(0).to_vec())),
        other => Err(format!("codec round trip decoded as a {} frame", other.kind_name()).into()),
    }
}

/// Bitwise equality: same shape, same bit pattern in every element.
pub fn bitwise_eq(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Samples of a run that are missing or not bitwise equal to the reference.
pub fn count_failures(outputs: &[Option<Tensor>], expect: &[usize], reference: &[Tensor]) -> usize {
    let missing = expect.len().saturating_sub(outputs.len());
    let wrong = outputs
        .iter()
        .zip(expect)
        .filter(|(output, &index)| match (output, reference.get(index)) {
            (Some(output), Some(expected)) => !bitwise_eq(output, expected),
            _ => true,
        })
        .count();
    missing + wrong
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_index_round_trips_and_rejects_non_indices() {
        for index in [0, 1, 63, 64, 12_345, (1 << 24) - 1] {
            assert_eq!(tensor_index(&index_tensor(index)), Ok(index));
        }
        assert!(tensor_index(&Tensor::vector(vec![-1.0])).is_err());
        assert!(tensor_index(&Tensor::vector(vec![0.5])).is_err());
        assert!(tensor_index(&Tensor::vector(vec![f32::NAN])).is_err());
        assert!(tensor_index(&Tensor::vector(vec![16_777_216.0])).is_err());
        assert!(tensor_index(&Tensor::vector(vec![1.0, 2.0])).is_err());
        assert!(tensor_index(&Tensor::vector(Vec::new())).is_err());
    }

    #[test]
    fn checksum_depends_on_every_bit_and_on_order() {
        let a = Tensor::vector(vec![1.0, 2.0, 3.0]);
        assert_eq!(checksum(&a).data(), checksum(&a.clone()).data());
        let flipped = Tensor::vector(vec![1.0, 2.0, f32::from_bits(3.0f32.to_bits() ^ 1)]);
        assert_ne!(checksum(&a).data(), checksum(&flipped).data());
        let swapped = Tensor::vector(vec![2.0, 1.0, 3.0]);
        assert_ne!(checksum(&a).data(), checksum(&swapped).data());
        assert_ne!(
            checksum(&Tensor::vector(vec![0.0])).data(),
            checksum(&Tensor::vector(vec![-0.0])).data()
        );
        // Both halves are whole numbers below 2^16, exact in f32.
        assert!(checksum(&a)
            .data()
            .iter()
            .all(|v| v.fract() == 0.0 && *v < 65_536.0));
    }

    #[test]
    fn checksum_fusion_does_not_depend_on_thread_timing() {
        // The wire workload end to end at smoke scale, twice: device threads
        // interleave differently every run, the fused checksums may not.
        let workload = Workload::build(Kind::WireF16RleSim, 5, true).unwrap();
        let reference = workload.reference().unwrap();
        let expect = workload.expect();
        let first = workload.rep(Hooks::default()).unwrap();
        let second = workload.rep(Hooks::default()).unwrap();
        assert_eq!(first.outputs.len(), expect.len());
        assert_eq!(count_failures(&first.outputs, expect, &reference), 0);
        assert_eq!(count_failures(&second.outputs, expect, &reference), 0);
        for (a, b) in first.outputs.iter().zip(&second.outputs) {
            assert!(bitwise_eq(a.as_ref().unwrap(), b.as_ref().unwrap()));
        }
    }

    #[test]
    fn failures_count_missing_wrong_and_out_of_range() {
        let reference = vec![Tensor::vector(vec![1.0]), Tensor::vector(vec![2.0])];
        let good = |v: f32| Some(Tensor::vector(vec![v]));
        assert_eq!(
            count_failures(&[good(1.0), good(2.0)], &[0, 1], &reference),
            0
        );
        assert_eq!(
            count_failures(&[good(1.0), good(1.0)], &[0, 1], &reference),
            1
        );
        assert_eq!(count_failures(&[good(1.0), None], &[0, 1], &reference), 1);
        assert_eq!(count_failures(&[good(1.0)], &[0, 1], &reference), 1);
        assert_eq!(count_failures(&[good(1.0)], &[7], &reference), 1);
        // Same value, different shape, is a mismatch.
        let reshaped = Tensor::from_vec(vec![1.0], &[1, 1]).ok();
        assert_eq!(count_failures(&[reshaped], &[0], &reference), 1);
    }

    #[test]
    fn generators_repeat_for_a_seed_and_differ_across_seeds() {
        let a = replay_features(3, 16, 0.5);
        let b = replay_features(3, 16, 0.5);
        let c = replay_features(4, 16, 0.5);
        assert_eq!(a[1][7].data(), b[1][7].data());
        assert_ne!(a[1][7].data(), c[1][7].data());
        assert_ne!(a[0][7].data(), a[1][7].data(), "sub-models differ");
        assert_eq!(images(9, 2)[1].data(), images(9, 2)[1].data());
        assert_ne!(images(9, 1)[0].data(), images(10, 1)[0].data());
    }

    #[test]
    fn every_workload_matches_its_reference_at_smoke_scale() {
        for kind in Kind::ALL {
            let workload = Workload::build(kind, 1, true).unwrap();
            let reference = workload.reference().unwrap();
            let expect = workload.expect();
            let rep = workload.rep(Hooks::default()).unwrap();
            assert_eq!(rep.outputs.len(), expect.len(), "{}", kind.name());
            assert_eq!(
                count_failures(&rep.outputs, expect, &reference),
                0,
                "{}",
                kind.name()
            );
            let (request, request_expect) = workload.request().unwrap();
            assert_eq!(
                count_failures(&request.outputs, request_expect, &reference),
                0,
                "{} request",
                kind.name()
            );
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(Kind::from_name("nope"), None);
    }
}
