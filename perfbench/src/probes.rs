//! Per-layer probes: medians of direct calls into each crate's public
//! functions, at the shapes the workload runs them with. The crate names are
//! the layers. Every probe runs on every workload (tensor / nn / vit at the
//! compute workload's ViT shape, serve at the serving workload's arrival
//! process), so a time is always a measurement and never a placeholder.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use edvit::edge::{FeatureBatchMessage, NetworkConfig, WireFrame};
use edvit::metrics::{MetricsSink, RunEvent, RunJournal};
use edvit::net::{run_batch_over_tcp, transport_for, LaneEvent};
use edvit::nn::{Layer, LayerNorm, Mlp, MlpActivation, MultiHeadSelfAttention};
use edvit::partition::{DeviceSpec, PlannerConfig, SplitPlanner};
use edvit::serving::percentile as serve_percentile;
use edvit::tensor::init::TensorRng;
use edvit::tensor::Tensor;
use edvit::vit::{ViTConfig, VisionTransformer};
use edvit_parallel::ParallelPool;

use crate::stats::median;
use crate::workloads::{
    common_plan, probe_vit_config, serve_scheduler, BenchResult, Kind, Workload, DEVICES,
    REPLAY_FEATURES,
};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

pub fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

/// The value of the metric called `name`, if `metrics` has it.
pub fn value_of(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics.iter().find(|m| m.name == name).map(|m| m.value)
}

/// Median wall microseconds of `iters` calls, after one untimed warm-up call.
fn median_us<T>(iters: usize, mut call: impl FnMut() -> BenchResult<T>) -> BenchResult<f64> {
    black_box(call()?);
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let started = Instant::now();
        let out = call()?;
        let elapsed = started.elapsed();
        black_box(out);
        samples.push(elapsed.as_secs_f64() * 1e6);
    }
    Ok(median(&samples))
}

/// How many calls each probe times: at least 50, fewer only under `--smoke`.
fn iters(smoke: bool) -> usize {
    if smoke {
        5
    } else {
        50
    }
}

/// Runs every direct-call probe for `workload`. `journal` is the event
/// journal of one journaled rep that covered `journal_rounds` rounds.
pub fn run(
    workload: &Workload,
    journal: &RunJournal,
    journal_rounds: usize,
    seed: u64,
    smoke: bool,
) -> BenchResult<Vec<Metric>> {
    let n = iters(smoke);
    let mut metrics = Vec::new();
    compute_probes(seed, n, &mut metrics)?;
    closure_and_wire_probes(workload, n, &mut metrics)?;
    serve_probes(seed, n, smoke, &mut metrics)?;
    journal_probes(workload.kind, journal, journal_rounds, n, &mut metrics)?;
    partition_probes(seed, n, &mut metrics)?;
    Ok(metrics)
}

/// tensor, nn, vit and parallel: the layers that do the compute workload's
/// work, at its ViT's shapes (`[patches, width]` activations).
fn compute_probes(seed: u64, n: usize, out: &mut Vec<Metric>) -> BenchResult<()> {
    let config: ViTConfig = probe_vit_config();
    let (p, d, heads, hidden) = (
        config.num_patches(),
        config.embed_dim,
        config.heads,
        config.ffn_hidden(),
    );
    let mut rng = TensorRng::new(seed).fork(50);

    // tensor: the kernels under an MLP block and an attention head.
    let tokens = rng.randn(&[p, d], 0.0, 1.0);
    let weight = rng.randn(&[d, hidden], 0.0, 0.02);
    let hidden_act = rng.randn(&[p, hidden], 0.0, 1.0);
    let scores = rng.randn(&[heads * p, p], 0.0, 1.0);
    let (gamma, beta) = (Tensor::ones(&[d]), Tensor::zeros(&[d]));
    out.push(metric(
        "tensor.matmul_us",
        median_us(n, || Ok(tokens.matmul(&weight)?))?,
        "us",
    ));
    out.push(metric(
        "tensor.gelu_us",
        median_us(n, || Ok(hidden_act.gelu()))?,
        "us",
    ));
    out.push(metric(
        "tensor.softmax_us",
        median_us(n, || Ok(scores.softmax_last_axis()?))?,
        "us",
    ));
    out.push(metric(
        "tensor.layernorm_us",
        median_us(n, || Ok(tokens.layer_norm_last_axis(&gamma, &beta)?))?,
        "us",
    ));

    // nn: one block's sub-layers on a `[1, patches, width]` batch.
    let batch = rng.randn(&[1, p, d], 0.0, 1.0);
    let mut attention = MultiHeadSelfAttention::new(d, heads, config.head_dim(), &mut rng)?;
    let mut mlp = Mlp::with_activation(&[d, hidden, d], MlpActivation::Gelu, &mut rng)?;
    let mut layernorm = LayerNorm::new(d);
    out.push(metric(
        "nn.attention_us",
        median_us(n, || Ok(attention.forward(&batch)?))?,
        "us",
    ));
    out.push(metric(
        "nn.mlp_us",
        median_us(n, || Ok(mlp.forward(&batch)?))?,
        "us",
    ));
    out.push(metric(
        "nn.layernorm_us",
        median_us(n, || Ok(layernorm.forward(&batch)?))?,
        "us",
    ));

    // vit: each iteration times the model's forward and the same children
    // (patch embedding, blocks, final layernorm) run as a chain on the same
    // input, in alternating order, so forward's self time (pooling, tensor
    // plumbing) is a per-iteration difference and not a difference of
    // unrelated medians.
    let mut model = VisionTransformer::new(&config, &mut rng)?;
    let image = rng.randn(
        &[1, config.channels, config.image_size, config.image_size],
        0.0,
        1.0,
    );
    let mut patch_embed = model.patch_embed().clone();
    let mut blocks = model.blocks().to_vec();
    let mut final_ln = model.final_ln().clone();
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let whole = |model: &mut VisionTransformer| -> BenchResult<f64> {
        let started = Instant::now();
        black_box(model.forward_features(&image)?);
        Ok(us(started.elapsed()))
    };
    // (patch embedding, one block, the whole chain), microseconds.
    let mut chain = || -> BenchResult<(f64, f64, f64)> {
        let t0 = Instant::now();
        let mut tokens = patch_embed.forward(&image)?;
        let t1 = Instant::now();
        for layer in &mut blocks {
            tokens = layer.forward(&tokens)?;
        }
        let t2 = Instant::now();
        black_box(final_ln.forward(&tokens)?);
        let t3 = Instant::now();
        Ok((us(t1 - t0), us(t2 - t1) / config.depth as f64, us(t3 - t0)))
    };
    let (mut forward, mut patch, mut block, mut own) = (vec![], vec![], vec![], vec![]);
    for iteration in 0..=n {
        let (whole_us, (patch_us, block_us, chain_us)) = if iteration % 2 == 0 {
            let w = whole(&mut model)?;
            (w, chain()?)
        } else {
            let c = chain()?;
            (whole(&mut model)?, c)
        };
        if iteration > 0 {
            // Iteration 0 is the warm-up.
            forward.push(whole_us);
            patch.push(patch_us);
            block.push(block_us);
            own.push(whole_us - chain_us);
        }
    }
    let forward_us = median(&forward);
    out.push(metric("vit.patch_embed_us", median(&patch), "us"));
    out.push(metric("vit.block_us", median(&block), "us"));
    out.push(metric("vit.forward_us", forward_us, "us"));
    // Tens of microseconds against two 10 ms timings: at the noise floor,
    // so a run can read slightly below zero. Reported as measured.
    out.push(metric("vit.forward_self_us", median(&own), "us"));

    // parallel: what a second device thread doing the same costs the first.
    let mut other = VisionTransformer::new(&config, &mut rng)?;
    let stop = AtomicBool::new(false);
    let contended_us = std::thread::scope(|scope| -> BenchResult<f64> {
        let background = scope.spawn(|| -> Result<(), String> {
            // SeqCst: the flag orders nothing else, but this is not a hot path.
            while !stop.load(Ordering::SeqCst) {
                black_box(other.forward_features(&image).map_err(|e| e.to_string())?);
            }
            Ok(())
        });
        let timed = median_us(n.div_ceil(2), || Ok(model.forward_features(&image)?));
        stop.store(true, Ordering::SeqCst);
        background
            .join()
            .map_err(|_| "background forward thread panicked".to_string())??;
        timed
    })?;
    out.push(metric(
        "parallel.threads",
        ParallelPool::global().threads() as f64,
        "count",
    ));
    out.push(metric(
        "parallel.concurrent_forward_slowdown",
        contended_us / forward_us,
        "ratio",
    ));
    Ok(())
}

/// The workload's own executor and fusion closures, and the edge and net
/// layers at its feature width, round size, codec and transport.
fn closure_and_wire_probes(
    workload: &Workload,
    n: usize,
    out: &mut Vec<Metric>,
) -> BenchResult<()> {
    let kind = workload.kind;
    let round = kind.round_size();
    let inputs = workload.distinct_inputs();
    let round_inputs: Vec<&Tensor> = inputs.iter().cycle().take(round).collect();
    let (mut executors, mut fusion) = workload.closures();

    let first = inputs.first().ok_or("workload has no inputs")?;
    let executor_us = median_us(n, || Ok(executors[0](first)?))?;
    out.push(metric("edge.executor_us", executor_us, "us"));

    let features = executors
        .iter_mut()
        .map(|executor| executor(first))
        .collect::<Result<Vec<Tensor>, String>>()?;
    let concat = Tensor::concat_last_axis(&features.iter().collect::<Vec<_>>())?;
    out.push(metric(
        "fusion.predict_us",
        median_us(n, || Ok(fusion(&concat)?))?,
        "us",
    ));

    // One round's features from sub-model 0: what one data frame carries.
    let round_features = round_inputs
        .iter()
        .map(|input| executors[0](input))
        .collect::<Result<Vec<Tensor>, String>>()?;
    let width = round_features[0].numel();
    let pack = || -> BenchResult<FeatureBatchMessage> {
        let mut batch = FeatureBatchMessage::new(0, width);
        for (sample, feature) in round_features.iter().enumerate() {
            batch.push_tensor(sample, feature)?;
        }
        Ok(batch)
    };
    out.push(metric(
        "edge.push_us",
        median_us(n, pack)? / round as f64,
        "us",
    ));
    let batch = pack()?;
    let codec = kind.codec();
    out.push(metric(
        "edge.encode_us",
        median_us(n, || Ok(batch.encode_with(codec)))?,
        "us",
    ));
    let frame = batch.encode_with(codec);
    out.push(metric(
        "edge.decode_us",
        median_us(n, || match WireFrame::decode(frame.clone())? {
            WireFrame::FeatureBatch(decoded) => Ok(decoded
                .into_messages()
                .into_iter()
                .map(edvit::edge::FeatureMessage::into_tensor)
                .collect::<Vec<Tensor>>()),
            other => Err(format!("decoded a {} frame", other.kind_name()).into()),
        })?,
        "us",
    ));
    out.push(metric("edge.frame_bytes", frame.len() as f64, "B"));

    // net: one lane of the workload's backend, one round frame at a time.
    let mut transport = transport_for(kind.transport())?;
    let mut peer = 0usize;
    out.push(metric(
        "net.open_lane_us",
        median_us(n, || {
            peer += 1;
            Ok(transport.open_lane(peer, 8)?)
        })?,
        "us",
    ));
    let (tx, mut rx) = transport.open_lane(0, 8)?;
    out.push(metric(
        "net.frame_us",
        median_us(n, || {
            tx.send(frame.clone()).map_err(|_| "probe lane closed")?;
            match rx.recv() {
                LaneEvent::Frame(received) => Ok(received),
                other => Err(format!("probe lane delivered {other:?}").into()),
            }
        })?,
        "us",
    ));
    drop(tx);

    // One whole one-shot batch over loopback TCP with the workload's
    // closures (on `oneshot_latency`: what `run_distributed` does for
    // `TransportKind::Tcp`).
    let batch_inputs: Vec<Tensor> = round_inputs.into_iter().cloned().collect();
    let network = NetworkConfig::paper_default();
    out.push(metric(
        "net.tcp_batch_ms",
        median_us(n.div_ceil(5), || {
            let (executors, fusion) = workload.closures();
            Ok(run_batch_over_tcp(
                &batch_inputs,
                executors,
                fusion,
                codec,
                &network,
            )?)
        })? / 1e3,
        "ms",
    ));
    Ok(())
}

/// serve: arrival generation and the admission / batching drill of the
/// serving workload's arrival process, per request, and what the drill says
/// about its rounds on the virtual clock.
fn serve_probes(seed: u64, n: usize, smoke: bool, out: &mut Vec<Metric>) -> BenchResult<()> {
    let (plan, devices) = common_plan()?;
    let count = if smoke { 128 } else { 2_048 };
    let scheduler = serve_scheduler(&plan, &devices, count, seed)?;
    let arrivals = scheduler.config().arrivals;
    let reps = n.div_ceil(2);
    out.push(metric(
        "serve.generate_us_per_request",
        median_us(reps, || Ok(arrivals.generate(DEVICES, REPLAY_FEATURES)?))? / count as f64,
        "us",
    ));
    let requests = arrivals.generate(DEVICES, REPLAY_FEATURES)?;
    out.push(metric(
        "serve.drill_us_per_request",
        median_us(reps, || Ok(scheduler.drill(&requests)?))? / count as f64,
        "us",
    ));
    let drill = scheduler.drill(&requests)?;
    let partial = drill
        .rounds
        .iter()
        .filter(|round| round.requests.len() < scheduler.capacity())
        .count();
    out.push(metric(
        "serve.partial_round_share",
        partial as f64 / drill.rounds.len().max(1) as f64,
        "ratio",
    ));
    let mut latencies: Vec<f64> = drill
        .rounds
        .iter()
        .flat_map(|round| {
            round
                .requests
                .iter()
                .map(|request| round.completion_seconds - request.arrival_seconds)
        })
        .collect();
    latencies.sort_by(f64::total_cmp);
    out.push(metric(
        "serve.virtual_p99_s",
        serve_percentile(&latencies, 0.99),
        // Seconds on the virtual clock: exact for a seed, not a wall time.
        "virtual_s",
    ));
    Ok(())
}

/// metrics: what recording costs when off and on, and what the journal of
/// one rep of this workload costs to encode, parse and replay.
fn journal_probes(
    kind: Kind,
    journal: &RunJournal,
    rounds: usize,
    n: usize,
    out: &mut Vec<Metric>,
) -> BenchResult<()> {
    let event = || RunEvent::Delivery {
        device: 1,
        bytes: 3_112,
    };
    // Too fast to time singly: time batches and divide.
    let per_call_ns = |sink: &MetricsSink, batch: usize| -> BenchResult<f64> {
        let us = median_us(n, || {
            for i in 0..batch {
                sink.record(i as f64, black_box(event()));
            }
            Ok(())
        })?;
        Ok(us * 1e3 / batch as f64)
    };
    out.push(metric(
        "metrics.disabled_record_ns",
        per_call_ns(&MetricsSink::disabled(), 100_000)?,
        "ns",
    ));
    out.push(metric(
        "metrics.record_ns",
        per_call_ns(&MetricsSink::recording(), 1_000)?,
        "ns",
    ));

    let events = journal.len().max(1) as f64;
    let text = journal.to_text();
    out.push(metric(
        "metrics.journal_encode_us_per_event",
        median_us(n, || Ok(journal.to_text()))? / events,
        "us",
    ));
    out.push(metric(
        "metrics.journal_parse_us_per_event",
        median_us(n, || Ok(RunJournal::from_text(&text)?))? / events,
        "us",
    ));
    // A one-shot batch journal holds no stream run, so its replay walks
    // every event and then reports that; the walk is what is timed.
    let replay_us = if kind == Kind::ServeFusionSim {
        median_us(n, || Ok(journal.replay_serve()?))?
    } else {
        median_us(n, || Ok(journal.replay_stream().is_ok()))?
    };
    out.push(metric(
        "metrics.replay_us_per_event",
        replay_us / events,
        "us",
    ));
    out.push(metric(
        "metrics.events_per_round",
        journal.len() as f64 / rounds.max(1) as f64,
        "count",
    ));
    Ok(())
}

/// partition: planning the common deployment, and re-planning it after a
/// third device joins (a healthy run does neither while streaming).
fn partition_probes(seed: u64, n: usize, out: &mut Vec<Metric>) -> BenchResult<()> {
    let devices = DeviceSpec::raspberry_pi_cluster(DEVICES);
    let planner = SplitPlanner::new(PlannerConfig::default());
    let base = ViTConfig::vit_base(10);
    out.push(metric(
        "partition.plan_us",
        median_us(n, || Ok(planner.plan(&base, &devices, seed)?))?,
        "us",
    ));
    let plan = planner.plan(&base, &devices, seed)?;
    let enlarged = DeviceSpec::raspberry_pi_cluster(DEVICES + 1);
    out.push(metric(
        "partition.replan_us",
        median_us(n, || Ok(plan.replan_for_joiners(&enlarged, 1)?))?,
        "us",
    ));
    Ok(())
}
