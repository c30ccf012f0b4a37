//! An exhaustive small-scope explorer of the stream collector — no threads,
//! no sockets, no sampling. Every device's frame sequence is recorded once by
//! running the real [`DeviceProgram`] into a tape; the collector
//! ([`StreamScheduler::collect_lanes`]) is then driven over scripted
//! [`FrameRx`] queues holding that sequence with one thing wrong: a lane cut
//! at every prefix, every frame-fault kind at every `(device, round, slot)`
//! and retry depth, one protocol violation at every position. The membership
//! half (a death at every `(device, round)` × a join at every round) runs
//! through [`StreamScheduler::run_rounds`] with trivial executors.
//!
//! Invariants, checked on every case: the collector stops within the scripted
//! events; no sample fuses twice, and an `Ok` run fuses every sample once to
//! the fault-free bits; the bytes charged balance per device and equal the
//! bytes consumed (plus what the scripted fault re-delivers); an `Ok` run's
//! journal replays to its report; a failed run fails with the expected
//! [`SchedError`] variant.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use edvit_edge::{ControlMessage, EdgeError, FeatureBatchMessage, FusionFn, SubModelFn, WireFrame};
use edvit_metrics::{MetricsSink, StreamCounters};
use edvit_net::{FrameRx, FrameTx, LaneClosed, LaneEvent};
use edvit_partition::{DeviceSpec, PlannerConfig, SplitPlan, SplitPlanner};
use edvit_sched::{
    DeviceProgram, FaultScript, FrameFault, FrameSlot, PayloadCodec, RoundLayout, SchedError,
    StreamConfig, StreamReport, StreamScheduler, MAX_RETRIES,
};
use edvit_tensor::Tensor;
use edvit_vit::ViTConfig;

const ROUND_SIZE: usize = 2;

/// Sub-model `i` maps sample `s` (a constant tensor of value `s`) to
/// `[3s + i, i]`: fused outputs identify the sample and its contributors.
fn executors_for(plan: &SplitPlan) -> Vec<SubModelFn> {
    (0..plan.sub_models.len())
        .map(|i| -> SubModelFn {
            Box::new(move |sample: &Tensor| {
                Ok(Tensor::from_vec(vec![sample.sum() + i as f32, i as f32], &[2]).unwrap())
            })
        })
        .collect()
}

fn inputs(n: usize) -> Vec<Tensor> {
    (0..n).map(|i| Tensor::full(&[3], i as f32)).collect()
}

/// A concatenating fusion that counts how often each sample was fused
/// (sub-model 0's first feature is `3 × sample`).
fn counting_fusion(counts: &Arc<Mutex<Vec<u32>>>) -> FusionFn {
    let counts = Arc::clone(counts);
    Box::new(move |concat: &Tensor| {
        counts.lock().unwrap()[(concat.data()[0] / 3.0) as usize] += 1;
        Ok(concat.clone())
    })
}

/// A lane sender that records what the device program says.
#[derive(Default)]
struct Tape(Mutex<Vec<LaneEvent>>);

impl FrameTx for Tape {
    fn send(&self, frame: Bytes) -> Result<(), LaneClosed> {
        self.0.lock().unwrap().push(LaneEvent::Frame(frame));
        Ok(())
    }

    fn send_error(&self, message: String) -> Result<(), LaneClosed> {
        self.0.lock().unwrap().push(LaneEvent::PeerError(message));
        Ok(())
    }
}

/// What the scripted lanes of one case observed.
#[derive(Default)]
struct LaneStats {
    recv_calls: AtomicU64,
    frame_bytes: AtomicU64,
}

/// A lane receiver that plays a fixed event queue, then stays `Closed`.
struct ScriptedLane {
    events: VecDeque<LaneEvent>,
    stats: Arc<LaneStats>,
}

impl FrameRx for ScriptedLane {
    fn recv(&mut self) -> LaneEvent {
        self.stats.recv_calls.fetch_add(1, Ordering::Relaxed);
        let event = self.events.pop_front().unwrap_or(LaneEvent::Closed);
        if let LaneEvent::Frame(frame) = &event {
            self.stats
                .frame_bytes
                .fetch_add(frame.len() as u64, Ordering::Relaxed);
        }
        event
    }
}

/// One deployment shape: a plan, its devices, a ragged round layout, the
/// frame sequence every device sends, and the fault-free outputs.
struct World {
    label: String,
    plan: SplitPlan,
    devices: Vec<DeviceSpec>,
    layout: RoundLayout,
    /// Hosting device → the events its device program puts on the lane.
    tapes: BTreeMap<usize, Vec<LaneEvent>>,
    healthy: Vec<Tensor>,
}

/// What one explored case produced.
struct Case {
    result: Result<StreamReport, SchedError>,
    /// The run's journal folded event by event — also defined for runs that
    /// failed before `StreamEnded`.
    folded: StreamCounters,
    fused_counts: Vec<u32>,
    recv_calls: u64,
    consumed_bytes: u64,
}

impl World {
    /// `devices` devices hosting `sub_models ≥ devices` sub-models (the extra
    /// ones stacked onto device 0, so it ships several data frames a round)
    /// over `rounds` rounds whose last one is a single sample.
    fn new(devices: usize, sub_models: usize, rounds: usize) -> World {
        let specs = DeviceSpec::raspberry_pi_cluster(sub_models);
        let mut plan = SplitPlanner::new(PlannerConfig::default())
            .plan(&ViTConfig::vit_base(10), &specs, 7)
            .unwrap();
        for assigned in &mut plan.assignment.assignments {
            if assigned.device_id >= devices {
                assigned.device_id = 0;
            }
        }
        let devices = specs[..devices].to_vec();
        let samples = rounds * ROUND_SIZE - 1;
        let layout = RoundLayout::uniform(samples, ROUND_SIZE).unwrap();
        let all_rounds: Vec<u64> = (0..layout.rounds() as u64).collect();
        let mut executors = executors_for(&plan);
        let mut tapes = BTreeMap::new();
        for device in &devices {
            let hosted = plan.assignment.sub_models_on(device.id);
            let execs: Vec<(usize, &mut SubModelFn)> = executors
                .iter_mut()
                .enumerate()
                .filter(|(sub, _)| hosted.contains(sub))
                .collect();
            let tape = Tape::default();
            let program = DeviceProgram::new(
                device.id,
                device.flops_per_second,
                PayloadCodec::F32,
                &layout,
                &all_rounds,
            );
            assert_eq!(
                program.run(execs, &inputs(samples), &tape),
                rounds as u64,
                "the device program completes every round"
            );
            tapes.insert(device.id, tape.0.into_inner().unwrap());
        }
        let mut world = World {
            label: format!(
                "{} devices / {sub_models} sub-models / {rounds} rounds",
                devices.len()
            ),
            plan,
            devices,
            layout,
            tapes,
            healthy: Vec::new(),
        };
        let healthy = world.run(world.tapes.clone(), FaultScript::new());
        world.healthy = healthy
            .result
            .expect("the fault-free run completes")
            .outputs;
        world
    }

    /// Sub-models hosted on `device` (= data frames it ships per round).
    fn hosted(&self, device: usize) -> usize {
        self.plan.assignment.sub_models_on(device).len()
    }

    /// Drives the collector over the given lanes under `faults`.
    fn run(&self, lanes: BTreeMap<usize, Vec<LaneEvent>>, faults: FaultScript) -> Case {
        let stats = Arc::new(LaneStats::default());
        let scripted: u64 = lanes.values().map(|events| events.len() as u64).sum();
        let lane_count = lanes.len() as u64;
        let lanes: BTreeMap<usize, Box<dyn FrameRx>> = lanes
            .into_iter()
            .map(|(device, events)| {
                let lane = ScriptedLane {
                    events: events.into(),
                    stats: Arc::clone(&stats),
                };
                (device, Box::new(lane) as Box<dyn FrameRx>)
            })
            .collect();
        let sink = MetricsSink::recording();
        let mut config = StreamConfig::default()
            .with_faults(faults)
            .with_sink(sink.clone());
        config.round_size = ROUND_SIZE;
        let counts = Arc::new(Mutex::new(vec![0u32; self.layout.total_samples()]));
        let result = StreamScheduler::new(self.plan.clone(), self.devices.clone(), config)
            .unwrap()
            .collect_lanes(lanes, &self.layout, counting_fusion(&counts));
        let mut folded = StreamCounters::default();
        for record in sink.journal().records() {
            folded.apply(record.at, &record.event);
        }
        let case = Case {
            result,
            folded,
            fused_counts: counts.lock().unwrap().clone(),
            recv_calls: stats.recv_calls.load(Ordering::Relaxed),
            consumed_bytes: stats.frame_bytes.load(Ordering::Relaxed),
        };
        // Termination: every lane is asked for at most one event past its
        // script (the `Closed` that ends it).
        assert!(
            case.recv_calls <= scripted + lane_count,
            "{}: {} recv calls for {scripted} scripted events",
            self.label,
            case.recv_calls
        );
        case
    }

    /// The invariants every case must satisfy; `charged_bytes` is what the
    /// ledger must have charged (the bytes consumed, adjusted by whatever
    /// the scripted fault re-delivers or withholds).
    fn check(&self, case: &Case, charged_bytes: u64, what: &str) {
        let label = format!("{}: {what}", self.label);
        assert!(
            case.fused_counts.iter().all(|&n| n <= 1),
            "{label}: a sample fused twice: {:?}",
            case.fused_counts
        );
        assert_eq!(
            case.folded.bytes_on_wire,
            case.folded.per_device_wire_bytes.values().sum::<u64>(),
            "{label}: bytes_on_wire must equal the per-device sum"
        );
        assert_eq!(case.folded.bytes_on_wire, charged_bytes, "{label}: bytes");
        if let Ok(report) = &case.result {
            assert!(
                case.fused_counts.iter().all(|&n| n == 1),
                "{label}: an Ok run must fuse every sample: {:?}",
                case.fused_counts
            );
            assert_eq!(report.outputs.len(), self.healthy.len(), "{label}");
            for (sample, (got, want)) in report.outputs.iter().zip(&self.healthy).enumerate() {
                assert_eq!(got.data(), want.data(), "{label}: sample {sample} bits");
            }
            assert_eq!(report.max_rounds_in_flight, 0, "{label}");
            assert!(
                case.folded.bitwise_eq(&report.counters()),
                "{label}: journal fold diverged on {:?}",
                case.folded.diff(&report.counters())
            );
        }
    }
}

/// The deployment shapes explored: 1–3 devices × 1–3 rounds, plus a
/// two-device shape whose device 0 hosts two sub-models.
fn worlds() -> Vec<World> {
    let mut worlds = Vec::new();
    for rounds in 1..=3 {
        for devices in 1..=3 {
            worlds.push(World::new(devices, devices, rounds));
        }
        worlds.push(World::new(2, 3, rounds));
    }
    worlds
}

fn frame_len(event: &LaneEvent) -> u64 {
    match event {
        LaneEvent::Frame(frame) => frame.len() as u64,
        _ => 0,
    }
}

#[test]
fn every_lane_cut_at_every_prefix_fails_typed_or_fuses_exactly_once() {
    let mut cases = 0;
    for world in worlds() {
        for (&device, tape) in &world.tapes {
            for keep in 0..=tape.len() {
                let mut lanes = world.tapes.clone();
                lanes.insert(device, tape[..keep].to_vec());
                let case = world.run(lanes, FaultScript::new());
                let what = format!("device {device} cut after {keep} events");
                world.check(&case, case.consumed_bytes, &what);
                // Only the leave may go missing: the last heartbeat closes
                // the last round.
                if keep + 1 >= tape.len() {
                    assert!(case.result.is_ok(), "{what}: {:?}", case.result.err());
                } else {
                    let Err(SchedError::Runtime { message }) = &case.result else {
                        panic!("{what}: expected a typed loss, got {:?}", case.result);
                    };
                    assert!(
                        message.contains(&format!("device {device} ")) && message.contains("round"),
                        "{what}: {message}"
                    );
                    assert_eq!(case.folded.devices_lost, vec![device], "{what}");
                }
                cases += 1;
            }
        }
    }
    println!("lane cuts: {cases} cases");
}

#[test]
fn every_fault_kind_at_every_slot_and_depth_retries_or_escalates_on_budget() {
    let kinds = [
        FrameFault::CorruptBit { bit: 11 },
        FrameFault::Truncate { keep: 7 },
        FrameFault::Duplicate,
        FrameFault::Drop,
    ];
    let mut cases = 0;
    for world in worlds() {
        for (&device, tape) in &world.tapes {
            let hosted = world.hosted(device);
            for round in 0..world.layout.rounds() {
                for offset in 0..=hosted {
                    let slot = if offset == hosted {
                        FrameSlot::Heartbeat
                    } else {
                        FrameSlot::Data(offset as u32)
                    };
                    // join, then per round `hosted` data frames + a heartbeat.
                    let frame = frame_len(&tape[1 + round * (hosted + 1) + offset]);
                    for kind in kinds {
                        for depth in 0..=MAX_RETRIES + 1 {
                            let mut faults = FaultScript::new();
                            for _ in 0..depth {
                                faults.push(device, round as u64, slot, kind);
                            }
                            let case = world.run(world.tapes.clone(), faults);
                            let what = format!(
                                "{kind:?} ×{depth} on device {device} round {round} {slot:?}"
                            );
                            let lost_beacon =
                                kind == FrameFault::Drop && slot == FrameSlot::Heartbeat;
                            let retried =
                                depth > 0 && kind != FrameFault::Duplicate && !lost_beacon;
                            let escalates = retried && depth > MAX_RETRIES;
                            // What the faulted frame is charged in place of
                            // its one clean delivery.
                            let failed = u64::from(depth);
                            let charged = match kind {
                                _ if depth == 0 => frame,
                                FrameFault::Duplicate => 2 * frame,
                                FrameFault::Drop if lost_beacon => frame,
                                FrameFault::Truncate { keep } => {
                                    failed * (u64::from(keep) % frame)
                                        + if escalates { 0 } else { frame }
                                }
                                _ => failed * frame + if escalates { 0 } else { frame },
                            };
                            world.check(&case, case.consumed_bytes - frame + charged, &what);
                            if escalates {
                                assert!(
                                    matches!(case.result, Err(SchedError::Runtime { .. })),
                                    "{what}: {:?}",
                                    case.result
                                );
                                assert_eq!(case.folded.devices_lost, vec![device], "{what}");
                                assert_eq!(case.folded.retries, u64::from(MAX_RETRIES), "{what}");
                            } else {
                                let report = case.result.as_ref().unwrap_or_else(|e| {
                                    panic!("{what}: within budget but failed: {e}")
                                });
                                let expected = if retried { u64::from(depth) } else { 0 };
                                assert_eq!(report.retries, expected, "{what}");
                                assert_eq!(report.corrupt_frames, expected, "{what}");
                                assert_eq!(
                                    report.dropped_heartbeats,
                                    u64::from(lost_beacon && depth > 0),
                                    "{what}"
                                );
                            }
                            cases += 1;
                        }
                    }
                }
            }
        }
    }
    println!("frame faults: {cases} cases");
}

/// One protocol violation, inserted before position `at` of a lane.
#[derive(Debug, Clone, Copy)]
enum Violation {
    /// A heartbeat naming another device.
    ForeignHeartbeat,
    /// A leave naming another device.
    ForeignLeave,
    /// A feature batch of a sub-model this device does not host.
    ForeignFeatures,
    /// A copy of the lane's most recent heartbeat.
    ReplayedHeartbeat,
    /// An intact frame of the retired single-feature kind (kind byte 1).
    RetiredKind,
    /// An in-band executor failure.
    PeerError,
    /// The lane's next data frame without its last sample: part of a round.
    PartialRound,
    /// The lane's next data frame with its first sample written twice.
    RepeatedSample,
    /// A heartbeat of the lane's own device at sequence 0, which beats no
    /// round.
    ZeroBeacon,
}

impl Violation {
    const ALL: [Violation; 9] = [
        Violation::ForeignHeartbeat,
        Violation::ForeignLeave,
        Violation::ForeignFeatures,
        Violation::ReplayedHeartbeat,
        Violation::RetiredKind,
        Violation::PeerError,
        Violation::PartialRound,
        Violation::RepeatedSample,
        Violation::ZeroBeacon,
    ];

    /// The event to insert, or `None` where the violation cannot be built.
    fn event(
        self,
        world: &World,
        device: usize,
        tape: &[LaneEvent],
        at: usize,
    ) -> Option<LaneEvent> {
        let other = world.devices.iter().map(|d| d.id).find(|&id| id != device);
        let foreign = other.unwrap_or(device + 1);
        let frame = match self {
            Violation::ForeignHeartbeat => ControlMessage::heartbeat(foreign, 1, 1.0).encode(),
            Violation::ForeignLeave => ControlMessage::leave(foreign, 0).encode(),
            // Another lane's first data frame; with one device, one of a
            // sub-model the plan does not have.
            Violation::ForeignFeatures => match other {
                Some(other) => match &world.tapes[&other][1] {
                    LaneEvent::Frame(frame) => frame.clone(),
                    event => panic!("a tape's second event is a data frame, not {event:?}"),
                },
                None => {
                    let mut batch = FeatureBatchMessage::new(world.plan.sub_models.len(), 2);
                    batch.push_tensor(0, &Tensor::full(&[2], 1.0)).unwrap();
                    batch.encode_with(PayloadCodec::F32)
                }
            },
            Violation::ReplayedHeartbeat => {
                let hosted = world.hosted(device);
                // Heartbeats sit at 1 + k·(hosted + 1) + hosted.
                let beats_before = at.saturating_sub(1) / (hosted + 1);
                let latest = beats_before.checked_sub(1)?;
                match &tape[1 + latest * (hosted + 1) + hosted] {
                    LaneEvent::Frame(frame) => frame.clone(),
                    event => panic!("expected a heartbeat frame, found {event:?}"),
                }
            }
            Violation::RetiredKind => {
                // The kind byte sits outside the CRC: the frame stays intact.
                let mut frame = ControlMessage::heartbeat(device, 1, 1.0)
                    .encode()
                    .as_slice()
                    .to_vec();
                frame[6] = 1;
                Bytes::from(frame)
            }
            Violation::PeerError => return Some(LaneEvent::PeerError("device: boom".to_string())),
            Violation::PartialRound | Violation::RepeatedSample => {
                let honest = next_batch(&tape[at..])?;
                let rows = honest.num_samples();
                let mut forged = FeatureBatchMessage::new(
                    honest.sub_model as usize,
                    honest.feature_dim as usize,
                );
                let mut pack = |row: usize| {
                    let sample = honest.sample_indices[row] as usize;
                    forged
                        .push_feature(sample, honest.feature_row(row))
                        .unwrap();
                };
                match self {
                    Violation::PartialRound => (0..rows - 1).for_each(&mut pack),
                    _ => (0..rows).chain([0]).for_each(&mut pack),
                }
                forged.encode_with(PayloadCodec::F32)
            }
            Violation::ZeroBeacon => ControlMessage::heartbeat(device, 0, 1.0).encode(),
        };
        Some(LaneEvent::Frame(frame))
    }
}

/// The first feature batch among `events`.
fn next_batch(events: &[LaneEvent]) -> Option<FeatureBatchMessage> {
    events.iter().find_map(|event| match event {
        LaneEvent::Frame(frame) => match WireFrame::decode(frame.clone()) {
            Ok(WireFrame::FeatureBatch(batch)) => Some(batch),
            _ => None,
        },
        _ => None,
    })
}

#[test]
fn one_protocol_violation_at_every_position_is_absorbed_or_a_typed_error() {
    let mut cases = 0;
    for world in worlds() {
        for (&device, tape) in &world.tapes {
            for at in 0..=tape.len() {
                for violation in Violation::ALL {
                    let Some(event) = violation.event(&world, device, tape, at) else {
                        continue;
                    };
                    let forged_samples =
                        next_batch(std::slice::from_ref(&event)).map(|batch| batch.sample_indices);
                    let mut lane = tape.clone();
                    lane.insert(at, event);
                    let mut lanes = world.tapes.clone();
                    lanes.insert(device, lane);
                    let case = world.run(lanes, FaultScript::new());
                    let what = format!("{violation:?} before event {at} of device {device}");
                    world.check(&case, case.consumed_bytes, &what);
                    match violation {
                        Violation::ForeignHeartbeat
                        | Violation::ForeignLeave
                        | Violation::ForeignFeatures => {
                            assert!(
                                matches!(
                                    case.result,
                                    Err(SchedError::Edge(EdgeError::Protocol { .. }))
                                ),
                                "{what}: {:?}",
                                case.result
                            );
                            assert!(case.folded.devices_lost.is_empty(), "{what}");
                        }
                        Violation::PartialRound | Violation::RepeatedSample => {
                            assert!(
                                matches!(
                                    case.result,
                                    Err(SchedError::Edge(EdgeError::Protocol { .. }))
                                ),
                                "{what}: {:?}",
                                case.result
                            );
                            assert!(case.folded.devices_lost.is_empty(), "{what}");
                            // The forged frame's round never fuses.
                            for sample in forged_samples.iter().flatten() {
                                assert_eq!(case.fused_counts[*sample as usize], 0, "{what}");
                            }
                        }
                        Violation::ReplayedHeartbeat | Violation::ZeroBeacon => {
                            let report = case.result.as_ref().unwrap_or_else(|e| {
                                panic!("{what}: a stale beacon must be absorbed: {e}")
                            });
                            assert_eq!(report.stale_control_frames, 1, "{what}");
                            assert_eq!(report.stale_heartbeats, 1, "{what}");
                        }
                        Violation::RetiredKind => assert!(
                            matches!(case.result, Err(SchedError::Edge(EdgeError::Decode { .. }))),
                            "{what}: {:?}",
                            case.result
                        ),
                        Violation::PeerError => assert!(
                            matches!(case.result, Err(SchedError::Runtime { .. })),
                            "{what}: {:?}",
                            case.result
                        ),
                    }
                    cases += 1;
                }
            }
        }
    }
    println!("protocol violations: {cases} cases");
}

/// The lanes of a two-device world with `forged` inserted right after device
/// 0's join — before device 1 has said anything.
fn forged_first(world: &World, forged: Bytes) -> BTreeMap<usize, Vec<LaneEvent>> {
    let mut lanes = world.tapes.clone();
    lanes
        .get_mut(&0)
        .unwrap()
        .insert(1, LaneEvent::Frame(forged));
    lanes
}

/// Regression (fails on the parent by fusing the forged value): device 0
/// ships the features of device 1's sub-model first, with different numbers.
/// First delivery wins, so the forgery used to be what fused.
#[test]
fn a_forged_sub_model_is_a_protocol_error_not_a_fused_value() {
    let world = World::new(2, 2, 2);
    let theirs = world.plan.assignment.sub_models_on(1)[0];
    let mut forged = FeatureBatchMessage::new(theirs, 2);
    for sample in world.layout.span(0) {
        forged
            .push_tensor(sample, &Tensor::full(&[2], 666.0))
            .unwrap();
    }
    let case = world.run(
        forged_first(&world, forged.encode_with(PayloadCodec::F32)),
        FaultScript::new(),
    );
    let Err(SchedError::Edge(EdgeError::Protocol { message })) = &case.result else {
        panic!("expected a protocol error, got {:?}", case.result);
    };
    assert!(
        message.contains("device 0") && message.contains(&format!("sub-model {theirs}")),
        "{message}"
    );
    assert_eq!(case.fused_counts, vec![0; 3], "nothing forged may fuse");
    assert_eq!(case.folded.data_frames, 0, "the forgery is never stashed");
}

/// Regression (fails on the parent by advancing device 1's health record and
/// burning its sequence in the deduper): device 0 beats on device 1's behalf.
#[test]
fn a_forged_heartbeat_is_a_protocol_error_not_another_devices_progress() {
    let world = World::new(2, 2, 2);
    let forged = ControlMessage::heartbeat(1, 1, 1.0).encode();
    let case = world.run(forged_first(&world, forged), FaultScript::new());
    let Err(SchedError::Edge(EdgeError::Protocol { message })) = &case.result else {
        panic!("expected a protocol error, got {:?}", case.result);
    };
    assert!(
        message.contains("device 0") && message.contains("device 1"),
        "{message}"
    );
    assert_eq!(case.folded.heartbeats_seen, 0);
    assert_eq!(
        case.folded.control_frames, 1,
        "only device 0's join counted"
    );
}

/// Regression (fails on the parent by retiring device 1: its later frames
/// read stale and the run ends with it `Left` after 0 rounds): device 0
/// sends a leave in device 1's name.
#[test]
fn a_forged_leave_is_a_protocol_error_not_another_devices_retirement() {
    let world = World::new(2, 2, 2);
    let forged = ControlMessage::leave(1, 2).encode();
    let case = world.run(forged_first(&world, forged), FaultScript::new());
    let Err(SchedError::Edge(EdgeError::Protocol { message })) = &case.result else {
        panic!("expected a protocol error, got {:?}", case.result);
    };
    assert!(
        message.contains("device 0") && message.contains("device 1"),
        "{message}"
    );
    assert!(case.folded.devices_lost.is_empty());
    assert_eq!(case.fused_counts, vec![0; 3]);
}

/// Lanes are checked against the plan before anything is collected, and a
/// configuration that scripts in-process deaths is refused.
#[test]
fn collect_lanes_rejects_lanes_that_are_not_the_plans_hosting_devices() {
    let world = World::new(2, 2, 1);
    let mut lanes = world.tapes.clone();
    lanes.remove(&1);
    assert!(matches!(
        world.run(lanes, FaultScript::new()).result,
        Err(SchedError::InvalidConfig { .. })
    ));
    let scripted = StreamScheduler::new(
        world.plan.clone(),
        world.devices.clone(),
        StreamConfig::default().with_failure(0, 1),
    )
    .unwrap()
    .collect_lanes(
        BTreeMap::new(),
        &world.layout,
        Box::new(|t: &Tensor| Ok(t.clone())),
    );
    assert!(matches!(scripted, Err(SchedError::InvalidConfig { .. })));
}

/// The membership half, through the in-process wiring: a death at every
/// `(device, round)` crossed with a join at every round. Whatever the order,
/// every sample fuses exactly once to the healthy bits and the journal
/// replays to the report; a run that cannot go on says so with the
/// membership error it hit.
#[test]
fn a_death_at_every_device_and_round_with_a_join_at_every_round() {
    let roomy = DeviceSpec::raspberry_pi_cluster(4);
    let (mut cases, mut completed) = (0, 0);
    for devices in 1..=3usize {
        let members = roomy[..devices].to_vec();
        let joiner = roomy[devices].clone();
        let plan = SplitPlanner::new(PlannerConfig::default())
            .plan(&ViTConfig::vit_base(10), &members, 7)
            .unwrap();
        for rounds in 1..=3usize {
            let samples = inputs(rounds * ROUND_SIZE - 1);
            let run = |config: StreamConfig| {
                let counts = Arc::new(Mutex::new(vec![0u32; samples.len()]));
                let sink = MetricsSink::recording();
                let mut config = config.with_sink(sink.clone());
                config.round_size = ROUND_SIZE;
                let result = StreamScheduler::new(plan.clone(), members.clone(), config)
                    .unwrap()
                    .run(&samples, executors_for(&plan), counting_fusion(&counts));
                let counts = counts.lock().unwrap().clone();
                (result, counts, sink.journal())
            };
            let healthy = run(StreamConfig::default()).0.unwrap().outputs;
            for victim in 0..devices {
                for death in 0..rounds as u64 {
                    for join in 0..rounds as u64 {
                        let what = format!(
                            "{devices} devices, {rounds} rounds: device {victim} dies at {death}, \
                             device {} joins at {join}",
                            joiner.id
                        );
                        let config = StreamConfig::default()
                            .with_failure(victim, death)
                            .with_join(joiner.clone(), join);
                        let (result, counts, journal) = run(config);
                        assert!(counts.iter().all(|&n| n <= 1), "{what}: {counts:?}");
                        match result {
                            Ok(report) => {
                                assert!(counts.iter().all(|&n| n == 1), "{what}: {counts:?}");
                                for (got, want) in report.outputs.iter().zip(&healthy) {
                                    assert_eq!(got.data(), want.data(), "{what}");
                                }
                                // (The victim may host nothing once the
                                // joiner is in, and then never runs to die.)
                                assert!(report.devices_lost.iter().all(|&d| d == victim), "{what}");
                                let replayed = journal.replay_stream().unwrap();
                                assert!(
                                    replayed.bitwise_eq(&report.counters()),
                                    "{what}: replay diverged on {:?}",
                                    replayed.diff(&report.counters())
                                );
                                completed += 1;
                            }
                            // The lone device died before the joiner arrived,
                            // or the survivors cannot host every sub-model.
                            Err(SchedError::AllDevicesLost { .. } | SchedError::Partition(_)) => {}
                            Err(other) => panic!("{what}: unexpected failure {other}"),
                        }
                        cases += 1;
                    }
                }
            }
        }
    }
    assert!(
        completed * 2 > cases,
        "most membership orders must complete"
    );
    println!("membership: {cases} cases, {completed} ran to completion");
}
