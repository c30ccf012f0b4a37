//! Transport conformance suite: the Sim and TCP backends behind the
//! `Transport` trait must be observationally identical for everything a
//! report derives from frame *content* — fused outputs, frame counts, byte
//! accounting, dedupe decisions. Only wall-clock observations may differ,
//! and no report field here carries wall-clock time (`max_rounds_in_flight`
//! is the one scheduling-dependent statistic, so it is the one field these
//! tests never compare).

use std::collections::BTreeMap;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use edvit::chaos::{FaultKind, FaultPlan};
use edvit::distributed::{run_distributed, RunOptions};
use edvit::edge::{
    ControlMessage, EdgeError, FusionFn, NetOptions, NetworkConfig, PayloadCodec, SubModelFn,
    TransportKind,
};
use edvit::metrics::{MetricsSink, StreamCounters};
use edvit::net::{dial_lane, run_batch_over_tcp, Coordinator, FrameRx};
use edvit::partition::{DeviceSpec, PlannerConfig, SplitPlan, SplitPlanner};
use edvit::pipeline::{EdVitConfig, EdVitPipeline};
use edvit::sched::{
    DeviceProgram, RoundLayout, SchedError, StreamConfig, StreamReport, StreamScheduler,
};
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
    // The collector applies every fault to the bytes it receives, whichever
    // backend carried them, so every fault kind must count, discard, retry
    // and recover identically over both transports. The duplicated data
    // frame and the replayed heartbeat exercise the ControlDeduper and the
    // first-delivery-wins stash; the rest cover corruption, truncation,
    // drops, crashes, a rejoin and a flaky link.
    let (plan, devices, samples) = synthetic(3);
    let run = |faults: &[FaultKind], transport: TransportKind| {
        let chaos = faults
            .iter()
            .fold(FaultPlan::new(SEED), |plan, &fault| plan.with(fault))
            .compile(&plan, &devices, 6)
            .expect("chaos compiles")
            .apply(stream_config(transport));
        let (executors, fusion) = synthetic_executors(&plan);
        StreamScheduler::new(plan.clone(), devices.clone(), chaos)
            .expect("scheduler builds")
            .run(&samples, executors, fusion)
            .expect("stream completes")
    };
    // Content-derived counters that differ (`max_rounds_in_flight` is the
    // one scheduling-dependent field).
    let content_diff = |a: &StreamCounters, b: &StreamCounters| -> Vec<&'static str> {
        let fields = a.diff(b).into_iter();
        fields.filter(|&f| f != "max_rounds_in_flight").collect()
    };
    let healthy = run(&[], TransportKind::Sim).counters();

    let (device, round) = (1, 2);
    let every_kind = [
        FaultKind::CorruptFrame { device, round },
        FaultKind::PersistentCorruption { device, round },
        FaultKind::TruncateFrame { device, round },
        FaultKind::DropDataFrame { device, round },
        FaultKind::DuplicateFrame { device, round },
        FaultKind::DropHeartbeat { device, round },
        FaultKind::ReplayHeartbeat { device, round },
        FaultKind::Crash {
            device,
            at_round: round,
        },
        FaultKind::CrashThenRejoin {
            device,
            at_round: round,
            rejoin_after: 1,
        },
        FaultKind::FlakyLink {
            device,
            corrupt_per_mille: 500,
        },
    ];
    let dedupe_drill = [
        FaultKind::DuplicateFrame { device, round },
        FaultKind::ReplayHeartbeat {
            device: 2,
            round: 3,
        },
    ];
    let drills = every_kind.iter().map(std::slice::from_ref);
    for faults in drills.chain([&dedupe_drill[..]]) {
        let sim = run(faults, TransportKind::Sim);
        let tcp = run(faults, TransportKind::Tcp);
        assert_stream_reports_agree(&sim, &tcp);
        let divergent = content_diff(&sim.counters, &tcp.counters);
        assert!(
            divergent.is_empty(),
            "{faults:?}: counters differ: {divergent:?}"
        );
        assert!(
            !content_diff(&healthy, &tcp.counters).is_empty(),
            "{faults:?}: the drill must actually perturb the run"
        );
    }
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

/// Runs the synthetic deployment with the fusion side on
/// [`StreamScheduler::collect_lanes`] over lanes a [`Coordinator`] admitted,
/// and each device program on a thread of its own behind a dialed lane — the
/// wiring `examples/cluster_proc.rs` uses with processes.
fn run_over_dialed_lanes(
    plan: &SplitPlan,
    devices: &[DeviceSpec],
    samples: &[Tensor],
    config: StreamConfig,
) -> Result<StreamReport, SchedError> {
    let layout = RoundLayout::uniform(samples.len(), config.round_size).expect("layout");
    let rounds: Vec<u64> = (0..layout.rounds() as u64).collect();
    let codec = config.codec;
    let coordinator = Coordinator::bind().expect("coordinator binds");
    let addr = coordinator.local_addr();
    let hosting: Vec<&DeviceSpec> = devices
        .iter()
        .filter(|d| !plan.assignment.sub_models_on(d.id).is_empty())
        .collect();
    std::thread::scope(|scope| {
        for &device in &hosting {
            let (layout, rounds) = (&layout, &rounds);
            scope.spawn(move || {
                let hosted = plan.assignment.sub_models_on(device.id);
                let (mut executors, _) = synthetic_executors(plan);
                let execs: Vec<(usize, &mut SubModelFn)> = executors
                    .iter_mut()
                    .enumerate()
                    .filter(|(sub_model, _)| hosted.contains(sub_model))
                    .collect();
                let lane = dial_lane(&addr).expect("worker dials");
                DeviceProgram::new(device.id, device.flops_per_second, codec, layout, rounds).run(
                    execs,
                    samples,
                    lane.as_ref(),
                );
            });
        }
        let lanes: BTreeMap<usize, Box<dyn FrameRx>> = coordinator
            .accept_workers(hosting.len())
            .expect("every worker is admitted")
            .into_iter()
            .map(|worker| (worker.device_id, worker.into_lane()))
            .collect();
        let (_, fusion) = synthetic_executors(plan);
        StreamScheduler::new(plan.clone(), devices.to_vec(), config)
            .expect("scheduler builds")
            .collect_lanes(lanes, &layout, fusion)
    })
}

/// A run's journal text without its `EpochEnded` lines, whose
/// `max_in_flight` observes a producer/consumer race (the filter
/// `crates/sched/tests/journal_replay.rs` pins with).
fn deterministic_journal(sink: &MetricsSink) -> String {
    let text = sink.journal().to_text();
    let lines: Vec<&str> = text
        .lines()
        .filter(|line| !line.contains(" EpochEnded "))
        .collect();
    lines.join("\n")
}

#[test]
fn three_wirings_of_the_two_protocol_halves_are_one_observable() {
    // The same deployment through the scheduler on sim lanes, on TCP lanes,
    // and with its two halves apart — collector here, device programs behind
    // dialed sockets: one collector, one device program, so outputs, every
    // deterministic counter and the journal must not tell them apart.
    let (plan, devices, samples) = synthetic(3);
    let in_process = |transport: TransportKind| {
        let sink = MetricsSink::recording();
        let (executors, fusion) = synthetic_executors(&plan);
        let config = stream_config(transport).with_sink(sink.clone());
        let report = StreamScheduler::new(plan.clone(), devices.clone(), config)
            .expect("scheduler builds")
            .run(&samples, executors, fusion)
            .expect("stream completes");
        (report, sink)
    };
    let (sim, sim_sink) = in_process(TransportKind::Sim);
    let (tcp, tcp_sink) = in_process(TransportKind::Tcp);
    let dialed_sink = MetricsSink::recording();
    let dialed = run_over_dialed_lanes(
        &plan,
        &devices,
        &samples,
        stream_config(TransportKind::Sim).with_sink(dialed_sink.clone()),
    )
    .expect("dialed stream completes");

    for (other, sink, label) in [(&tcp, &tcp_sink, "tcp"), (&dialed, &dialed_sink, "dialed")] {
        assert_stream_reports_agree(&sim, other);
        let divergent: Vec<&str> = sim
            .counters()
            .diff(&other.counters())
            .into_iter()
            .filter(|&field| field != "max_rounds_in_flight")
            .collect();
        assert!(
            divergent.is_empty(),
            "{label} counters differ: {divergent:?}"
        );
        assert_eq!(
            deterministic_journal(&sim_sink),
            deterministic_journal(sink),
            "{label} journal differs from the sim run's"
        );
    }
    assert_eq!(
        dialed.max_rounds_in_flight, 0,
        "remote producers are unseen"
    );

    // What the deleted second collector's own test pinned, on this wiring:
    // exactly-once fusion in sub-model order and per-round frame accounting.
    let rounds = samples.len().div_ceil(2);
    assert_eq!(dialed.outputs.len(), samples.len());
    // Sample 3 is `[3, 3, 3]`; sub-model `i` contributes `[9 + i, 9 + i]`.
    assert_eq!(
        dialed.outputs[3].data(),
        &[9.0, 9.0, 10.0, 10.0, 11.0, 11.0]
    );
    assert_eq!(dialed.data_frames, 3 * rounds);
    assert_eq!(dialed.heartbeats_seen, 3 * rounds as u64);
    assert_eq!(dialed.control_frames, 3 + 3 * rounds + 3);
    let per_device: BTreeMap<usize, u64> = (0..3).map(|d| (d, rounds as u64)).collect();
    assert_eq!(dialed.per_device_rounds, per_device);
    assert_eq!(
        dialed.bytes_on_wire,
        dialed.per_device_wire_bytes.values().sum::<u64>()
    );
    let replayed = dialed_sink.journal().replay_stream().expect("replays");
    assert!(replayed.bitwise_eq(&dialed.counters()));
}

#[test]
fn a_worker_vanishing_mid_stream_is_a_typed_error_naming_device_and_round() {
    // The worker joins, then its connection drops without ever closing a
    // round: the collector must say which device and round it lost — not
    // hang, and not (as an in-process run would) try to re-plan around a
    // device it does not run.
    let (plan, devices, samples) = synthetic(1);
    let layout = RoundLayout::uniform(samples.len(), 2).expect("layout");
    let coordinator = Coordinator::bind().expect("coordinator binds");
    let lane = dial_lane(&coordinator.local_addr()).expect("worker dials");
    lane.send(ControlMessage::join(0, 1.0).encode())
        .expect("join is written");
    drop(lane);
    let lanes: BTreeMap<usize, Box<dyn FrameRx>> = coordinator
        .accept_workers(1)
        .expect("the join admits the worker")
        .into_iter()
        .map(|worker| (worker.device_id, worker.into_lane()))
        .collect();
    let (_, fusion) = synthetic_executors(&plan);
    let err = StreamScheduler::new(plan, devices, stream_config(TransportKind::Sim))
        .expect("scheduler builds")
        .collect_lanes(lanes, &layout, fusion)
        .expect_err("a vanished worker cannot complete the stream");
    let SchedError::Runtime { message } = &err else {
        panic!("expected a runtime error, got {err}");
    };
    assert!(
        message.contains("device 0") && message.contains("round 0"),
        "{message}"
    );
}

// A TCP lane writes on the sending thread, so a device whose frame is larger
// than the socket buffers is blocked in `send` until the fusion side reads
// it. Each test below runs under a watchdog, so a regression that deadlocks
// a blocked sender fails the suite instead of hanging it.

/// Runs `test` on a thread of its own and fails if it is still running
/// after 60 s.
fn within_watchdog<T: Send + 'static>(test: impl FnOnce() -> T + Send + 'static) -> T {
    const WATCHDOG: Duration = Duration::from_secs(60);
    let (done, finished) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = done.send(test());
    });
    match finished.recv_timeout(WATCHDOG) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("still running after {WATCHDOG:?}: deadlock"),
        Err(RecvTimeoutError::Disconnected) => match handle.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the test thread returned without a result"),
        },
    }
}

/// Values per feature vector of the big-frame streams: a round of 8 samples
/// is a 4 MiB data frame per sub-model.
const BIG_FEATURE: usize = 131_072;

/// Streams `rounds` rounds of 4 MiB data frames through the 3-device
/// synthetic deployment, fusing each sample to the sum of its features.
fn stream_big_frames(
    transport: TransportKind,
    rounds: usize,
    fusion: FusionFn,
) -> Result<StreamReport, SchedError> {
    let (plan, devices, _) = synthetic(3);
    let samples: Vec<Tensor> = (0..8 * rounds)
        .map(|i| Tensor::full(&[1], i as f32))
        .collect();
    let executors = (0..plan.sub_models.len())
        .map(|i| -> SubModelFn {
            Box::new(move |sample: &Tensor| {
                Ok(Tensor::full(&[BIG_FEATURE], sample.sum() + i as f32))
            })
        })
        .collect();
    let config = StreamConfig {
        round_size: 8,
        ..StreamConfig::default()
    }
    .with_options(&NetOptions::default().with_transport(transport));
    StreamScheduler::new(plan, devices, config)
        .expect("scheduler builds")
        .run(&samples, executors, fusion)
}

fn sum_fusion() -> FusionFn {
    Box::new(|concat: &Tensor| Ok(Tensor::full(&[1], concat.sum())))
}

#[test]
fn a_stream_of_frames_larger_than_the_socket_buffers_completes_over_tcp() {
    let (sim, tcp) = within_watchdog(|| {
        let sim = stream_big_frames(TransportKind::Sim, 4, sum_fusion()).expect("sim completes");
        let tcp = stream_big_frames(TransportKind::Tcp, 4, sum_fusion()).expect("tcp completes");
        (sim, tcp)
    });
    assert_stream_reports_agree(&sim, &tcp);
    assert_eq!(tcp.outputs.len(), 32);
    assert!(tcp.bytes_on_wire > 3 * 4 * (4 << 20));
}

#[test]
fn a_failing_fusion_returns_while_tcp_devices_are_blocked_writing() {
    // Eight rounds of 4 MiB frames per device are far more than the socket
    // buffers hold, so every device is blocked in `send` when the first
    // fusion call fails; the collector's return must unblock them.
    let err = within_watchdog(|| {
        let fusion: FusionFn = Box::new(|_| Err("fusion refused the round".to_string()));
        stream_big_frames(TransportKind::Tcp, 8, fusion).expect_err("the fusion fails")
    });
    assert!(
        matches!(&err, SchedError::Runtime { message } if message == "fusion refused the round"),
        "{err}"
    );
}

#[test]
fn a_one_shot_device_failure_is_reported_while_a_peer_blocks_writing() {
    // Device 1 ships one ~8 MiB frame, more than a loopback socket buffers:
    // it is blocked in `send` when device 0's failure ends the round.
    let run = |failing: SubModelFn| {
        within_watchdog(move || {
            let big: SubModelFn = Box::new(|_: &Tensor| Ok(Tensor::full(&[1_024], 0.25)));
            let inputs: Vec<Tensor> = (0..2_048).map(|_| Tensor::zeros(&[1])).collect();
            run_batch_over_tcp(
                &inputs,
                vec![failing, big],
                sum_fusion(),
                PayloadCodec::F32,
                &NetworkConfig::paper_default(),
            )
            .expect_err("device 0 fails")
        })
    };
    let err = run(Box::new(|_: &Tensor| Err("out of memory".to_string())));
    assert!(
        matches!(&err, EdgeError::Runtime { message } if message == "device 0: out of memory"),
        "{err}"
    );
    let err = run(Box::new(|_: &Tensor| panic!("executor blew up")));
    assert!(
        matches!(&err, EdgeError::Runtime { message } if message == "a device worker thread panicked"),
        "{err}"
    );
}
