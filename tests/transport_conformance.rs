//! Transport conformance suite: the Sim and TCP backends behind the
//! `Transport` trait must be observationally identical for everything a
//! report derives from frame *content* — fused outputs, frame counts, byte
//! accounting, dedupe decisions. Only wall-clock observations may differ,
//! and no report field here carries wall-clock time (`max_rounds_in_flight`
//! is the one scheduling-dependent statistic, so it is the one field these
//! tests never compare).

use edvit::chaos::{FaultKind, FaultPlan};
use edvit::distributed::{run_distributed, RunOptions};
use edvit::edge::{FusionFn, NetOptions, PayloadCodec, SubModelFn, TransportKind};
use edvit::partition::{DeviceSpec, PlannerConfig, SplitPlan, SplitPlanner};
use edvit::pipeline::{EdVitConfig, EdVitPipeline};
use edvit::sched::{StreamConfig, StreamReport, StreamScheduler};
use edvit::streaming::run_streaming;
use edvit::tensor::Tensor;
use edvit::vit::ViTConfig;

const SEED: u64 = 5;

/// Asserts every content-derived field of two stream reports is equal; the
/// transport moves bytes, it does not touch what the bytes say.
fn assert_stream_reports_agree(sim: &StreamReport, tcp: &StreamReport) {
    assert_eq!(sim.outputs.len(), tcp.outputs.len());
    for (i, (a, b)) in sim.outputs.iter().zip(&tcp.outputs).enumerate() {
        assert_eq!(a.data(), b.data(), "sample {i} fused to different logits");
    }
    assert_eq!(sim.rounds, tcp.rounds);
    assert_eq!(sim.epochs, tcp.epochs);
    assert_eq!(sim.data_frames, tcp.data_frames);
    assert_eq!(sim.control_frames, tcp.control_frames);
    assert_eq!(sim.heartbeats_seen, tcp.heartbeats_seen);
    assert_eq!(sim.bytes_on_wire, tcp.bytes_on_wire);
    assert_eq!(sim.per_device_wire_bytes, tcp.per_device_wire_bytes);
    assert_eq!(sim.per_device_rounds, tcp.per_device_rounds);
    assert_eq!(sim.devices_lost, tcp.devices_lost);
}

fn stream_config(transport: TransportKind) -> StreamConfig {
    StreamConfig {
        round_size: 2,
        ..StreamConfig::default()
    }
    .with_options(&NetOptions::default().with_transport(transport))
}

#[test]
fn seeded_demo_streams_identically_over_both_transports() {
    let config = EdVitConfig::tiny_demo(2).with_seed(SEED);
    let devices = config.devices.clone();
    let deployment = EdVitPipeline::new(config).run().expect("pipeline trains");
    let test = deployment.test_set.clone();
    let n = test.len().min(8);
    let samples: Vec<Tensor> = (0..n)
        .map(|i| test.images().row(i).expect("row exists"))
        .collect();

    let sim = run_streaming(
        deployment.clone(),
        &samples,
        devices.clone(),
        stream_config(TransportKind::Sim),
    )
    .expect("sim stream completes");
    let tcp = run_streaming(
        deployment,
        &samples,
        devices,
        stream_config(TransportKind::Tcp),
    )
    .expect("tcp stream completes");

    assert_stream_reports_agree(&sim, &tcp);
    // Exactly-once fusion on the seeded demo, over real sockets.
    assert_eq!(tcp.outputs.len(), n);
    assert_eq!(
        sim.predictions().expect("predictions"),
        tcp.predictions().expect("predictions")
    );
}

/// Synthetic deployment in the `chaos_matrix` style: cheap deterministic
/// executors so fault drills need no training.
fn synthetic(devices: usize) -> (SplitPlan, Vec<DeviceSpec>, Vec<Tensor>) {
    let specs = DeviceSpec::raspberry_pi_cluster(devices);
    let plan = SplitPlanner::new(PlannerConfig::default())
        .plan(&ViTConfig::vit_base(10), &specs, 0)
        .expect("plan splits");
    let samples: Vec<Tensor> = (0..12).map(|i| Tensor::full(&[3], i as f32)).collect();
    (plan, specs, samples)
}

fn synthetic_executors(plan: &SplitPlan) -> (Vec<SubModelFn>, FusionFn) {
    let executors = (0..plan.sub_models.len())
        .map(|i| -> SubModelFn {
            Box::new(move |sample: &Tensor| Ok(Tensor::full(&[2], sample.sum() + i as f32)))
        })
        .collect();
    (executors, Box::new(|concat: &Tensor| Ok(concat.clone())))
}

#[test]
fn heartbeat_dedupe_decisions_are_transport_independent() {
    // A duplicated data frame and a replayed heartbeat exercise the
    // ControlDeduper and first-delivery-wins stash; the dedupe decisions are
    // made from frame content, so both transports must count and discard
    // identically.
    let (plan, devices, samples) = synthetic(3);
    let run = |transport: TransportKind| {
        let chaos = FaultPlan::new(SEED)
            .with(FaultKind::DuplicateFrame {
                device: 1,
                round: 2,
            })
            .with(FaultKind::ReplayHeartbeat {
                device: 2,
                round: 3,
            })
            .compile(&plan, &devices, 6)
            .expect("chaos compiles")
            .apply(stream_config(transport));
        let (executors, fusion) = synthetic_executors(&plan);
        StreamScheduler::new(plan.clone(), devices.clone(), chaos)
            .expect("scheduler builds")
            .run(&samples, executors, fusion)
            .expect("stream completes")
    };

    let sim = run(TransportKind::Sim);
    let tcp = run(TransportKind::Tcp);
    assert_stream_reports_agree(&sim, &tcp);
    assert_eq!(sim.duplicate_frames, tcp.duplicate_frames);
    assert_eq!(sim.stale_control_frames, tcp.stale_control_frames);
    assert!(
        tcp.duplicate_frames > 0 || tcp.stale_control_frames > 0,
        "the drill must actually exercise the dedupe path"
    );
}

#[test]
fn one_shot_batch_parity_is_exact_on_both_transports() {
    let config = EdVitConfig::tiny_demo(2).with_seed(SEED);
    let deployment = EdVitPipeline::new(config).run().expect("pipeline trains");
    let test = deployment.test_set.clone();
    let samples: Vec<Tensor> = (0..test.len().min(6))
        .map(|i| test.images().row(i).expect("row exists"))
        .collect();

    let options = |transport: TransportKind| RunOptions {
        net: NetOptions::default()
            .with_codec(PayloadCodec::F16Rle)
            .with_transport(transport),
        ..RunOptions::default()
    };
    let sim = run_distributed(deployment.clone(), &samples, &options(TransportKind::Sim))
        .expect("sim run completes");
    let tcp = run_distributed(deployment, &samples, &options(TransportKind::Tcp))
        .expect("tcp run completes");

    for (a, b) in sim.outputs.iter().zip(&tcp.outputs) {
        assert_eq!(a.data(), b.data(), "fused logits must be bitwise equal");
    }
    assert_eq!(sim.frames, tcp.frames);
    assert_eq!(sim.codec, tcp.codec);
    assert_eq!(sim.payload_bytes, tcp.payload_bytes);
    assert_eq!(sim.per_device_wire_bytes, tcp.per_device_wire_bytes);
    assert_eq!(
        sim.simulated_communication_seconds,
        tcp.simulated_communication_seconds
    );
    // One executor runs over both backends, so there is no sanctioned
    // difference left: the wire total is the data frames and nothing else.
    assert_eq!(sim.bytes_on_wire, tcp.bytes_on_wire);
    assert_eq!(
        tcp.bytes_on_wire,
        tcp.per_device_wire_bytes.iter().sum::<u64>()
    );
}
