//! Observability invariants at the scheduler layer: the wire-byte accounting
//! must balance per device, and a recording [`MetricsSink`]'s journal must
//! replay — offline, from the event text alone — to counters bitwise equal
//! to the live [`StreamReport`].

use edvit_edge::{FusionFn, SubModelFn};
use edvit_metrics::{MetricsError, MetricsSink, RunJournal, StreamCounters};
use edvit_partition::{DeviceSpec, PlannerConfig, SplitPlan, SplitPlanner};
use edvit_sched::{
    FaultScript, FrameFault, FrameSlot, StreamConfig, StreamReport, StreamScheduler,
};
use edvit_tensor::Tensor;
use edvit_vit::ViTConfig;

fn plan_for(devices: &[DeviceSpec]) -> SplitPlan {
    SplitPlanner::new(PlannerConfig::default())
        .plan(&ViTConfig::vit_base(10), devices, 7)
        .unwrap()
}

fn executors_for(plan: &SplitPlan) -> Vec<SubModelFn> {
    (0..plan.sub_models.len())
        .map(|i| -> SubModelFn {
            Box::new(move |sample: &Tensor| {
                Ok(Tensor::from_vec(vec![sample.sum() + i as f32, i as f32], &[2]).unwrap())
            })
        })
        .collect()
}

fn concat_fusion() -> FusionFn {
    Box::new(|concat: &Tensor| Ok(concat.clone()))
}

fn inputs(n: usize) -> Vec<Tensor> {
    (0..n).map(|i| Tensor::full(&[3], i as f32)).collect()
}

/// Runs the scheduler with a recording sink attached and returns the live
/// report together with the journal the run produced.
fn run_recorded(
    devices: &[DeviceSpec],
    config: StreamConfig,
    samples: usize,
) -> (StreamReport, RunJournal) {
    let plan = plan_for(devices);
    let sink = MetricsSink::recording();
    let report = StreamScheduler::new(
        plan.clone(),
        devices.to_vec(),
        config.with_sink(sink.clone()),
    )
    .unwrap()
    .run(&inputs(samples), executors_for(&plan), concat_fusion())
    .unwrap();
    (report, sink.journal())
}

/// Satellite-1 invariant plus the bitwise replay check, applied to one run:
/// wire bytes balance per device, the journal survives a text round-trip,
/// and the offline replay reconstructs the live counters exactly.
fn assert_observable(report: &StreamReport, journal: &RunJournal, label: &str) {
    assert_eq!(
        report.bytes_on_wire,
        report.per_device_wire_bytes.values().sum::<u64>(),
        "{label}: bytes_on_wire must equal the per-device sum"
    );
    assert!(!journal.is_empty(), "{label}: recording sink saw no events");

    // The journal is plain text; parsing it back must lose nothing.
    let text = journal.to_text();
    let reparsed = RunJournal::from_text(&text).unwrap();
    assert_eq!(
        reparsed.len(),
        journal.len(),
        "{label}: round-trip dropped events"
    );

    let live: StreamCounters = report.counters();
    let replayed = reparsed.replay_stream().unwrap();
    assert!(
        replayed.bitwise_eq(&live),
        "{label}: replay diverged on {:?}",
        replayed.diff(&live)
    );
}

#[test]
fn healthy_pipelined_run_replays_bitwise() {
    let devices = DeviceSpec::raspberry_pi_cluster(4);
    let (report, journal) = run_recorded(&devices, StreamConfig::default(), 32);
    assert_eq!(report.outputs.len(), 32);
    assert_observable(&report, &journal, "healthy");
}

#[test]
fn failover_run_replays_bitwise_including_recovery_costs() {
    let devices = DeviceSpec::raspberry_pi_cluster(4);
    let (report, journal) = run_recorded(&devices, StreamConfig::default().with_failure(2, 3), 40);
    assert_eq!(report.devices_lost, vec![2]);
    assert!(report.recovery_seconds > 0.0);
    assert!(report.samples_replayed > 0);
    assert_observable(&report, &journal, "failover");
}

#[test]
fn elastic_join_run_replays_bitwise() {
    let roomy = DeviceSpec::raspberry_pi_cluster(4);
    let devices = roomy[..3].to_vec();
    let joiner = roomy[3].clone();
    let (report, journal) =
        run_recorded(&devices, StreamConfig::default().with_join(joiner, 4), 32);
    assert_eq!(report.devices_joined, vec![3]);
    assert!(report.repartitions >= 1);
    // The joiner's join control frame is wire traffic and must be accounted
    // to the joining device.
    assert!(report.per_device_wire_bytes.contains_key(&3));
    assert_observable(&report, &journal, "join");
}

/// Every frame-fault kind in one stream: corrupt (retry), dropped data frame
/// (retry), duplicated data frame (dedupe), dropped and duplicated
/// heartbeats (stale-beacon path). The dropped and corrupted deliveries
/// still crossed the wire, so they must appear in both the total and the
/// per-device byte accounting — the drift this PR fixes.
#[test]
fn faulted_deliveries_keep_the_wire_accounting_balanced() {
    let devices = DeviceSpec::raspberry_pi_cluster(4);
    let plan = plan_for(&devices);
    let hosting: Vec<usize> = devices
        .iter()
        .map(|d| d.id)
        .filter(|&id| !plan.assignment.sub_models_on(id).is_empty())
        .collect();
    assert!(
        hosting.len() >= 2,
        "need two hosting devices for the script"
    );

    let mut faults = FaultScript::new();
    faults.push(
        hosting[0],
        1,
        FrameSlot::Data(0),
        FrameFault::CorruptBit { bit: 9 },
    );
    faults.push(hosting[1], 2, FrameSlot::Data(0), FrameFault::Drop);
    faults.push(hosting[0], 3, FrameSlot::Data(0), FrameFault::Duplicate);
    faults.push(hosting[1], 4, FrameSlot::Heartbeat, FrameFault::Drop);
    faults.push(hosting[0], 5, FrameSlot::Heartbeat, FrameFault::Duplicate);

    let (report, journal) = run_recorded(&devices, StreamConfig::default().with_faults(faults), 32);
    assert_eq!(report.outputs.len(), 32);
    assert_eq!(
        report.corrupt_frames, 2,
        "one corrupt + one dropped data frame"
    );
    assert_eq!(report.retries, 2);
    assert!(report.retry_seconds > 0.0);
    assert_eq!(report.duplicate_frames, 1);
    assert_eq!(report.dropped_heartbeats, 1);
    assert!(
        report.stale_heartbeats >= 1,
        "duplicated heartbeat must read stale"
    );
    assert_observable(&report, &journal, "faulted");

    // Cross-check the totals against a clean run of the same workload: the
    // faulted stream shipped strictly more bytes (retries and duplicates),
    // never fewer — dropped frames still burned their wire budget.
    let (clean, _) = run_recorded(&devices, StreamConfig::default(), 32);
    assert!(
        report.bytes_on_wire > clean.bytes_on_wire,
        "faulted {} !> clean {}",
        report.bytes_on_wire,
        clean.bytes_on_wire
    );
    for (device, bytes) in &clean.per_device_wire_bytes {
        assert!(
            report.per_device_wire_bytes[device] >= *bytes,
            "device {device} lost wire bytes under faults"
        );
    }
}

/// Seeded sweep in the chaos-matrix style: different plans, a
/// seed-dependent victim and fault, and one mid-stream death — every
/// combination must balance its bytes and replay bitwise.
#[test]
fn seeded_fault_matrix_replays_bitwise_at_seeds_0_through_3() {
    for seed in 0u64..4 {
        let devices = DeviceSpec::raspberry_pi_cluster(4);
        let plan = SplitPlanner::new(PlannerConfig::default())
            .plan(&ViTConfig::vit_base(10), &devices, seed)
            .unwrap();
        let hosting: Vec<usize> = devices
            .iter()
            .map(|d| d.id)
            .filter(|&id| !plan.assignment.sub_models_on(id).is_empty())
            .collect();
        let faulty = hosting[seed as usize % hosting.len()];
        let victim = hosting[(seed as usize + 1) % hosting.len()];

        let mut faults = FaultScript::new();
        let fault = match seed % 4 {
            0 => FrameFault::CorruptBit { bit: 17 },
            1 => FrameFault::Drop,
            2 => FrameFault::Duplicate,
            _ => FrameFault::Truncate { keep: 5 },
        };
        faults.push(faulty, 1 + seed % 3, FrameSlot::Data(0), fault);

        let config = StreamConfig::default()
            .with_faults(faults)
            .with_failure(victim, 5);
        let sink = MetricsSink::recording();
        let report = StreamScheduler::new(
            plan.clone(),
            devices.clone(),
            config.with_sink(sink.clone()),
        )
        .unwrap()
        .run(&inputs(32), executors_for(&plan), concat_fusion())
        .unwrap();

        assert_eq!(report.devices_lost, vec![victim], "seed {seed}");
        assert_observable(&report, &sink.journal(), &format!("seed {seed}"));
    }
}

/// The default (disabled) sink records nothing, and attaching it does not
/// perturb the run: reports from a disabled-sink run and a recording-sink
/// run of the same workload carry identical counters.
#[test]
fn disabled_sink_is_a_true_no_op() {
    let devices = DeviceSpec::raspberry_pi_cluster(3);
    let plan = plan_for(&devices);
    let off = MetricsSink::disabled();
    assert!(!off.is_enabled());

    let quiet = StreamScheduler::new(
        plan.clone(),
        devices.clone(),
        StreamConfig::default()
            .with_failure(1, 2)
            .with_sink(off.clone()),
    )
    .unwrap()
    .run(&inputs(24), executors_for(&plan), concat_fusion())
    .unwrap();
    assert!(off.journal().is_empty());
    assert!(off.expose().is_empty());

    let (recorded, journal) =
        run_recorded(&devices, StreamConfig::default().with_failure(1, 2), 24);
    assert!(!journal.is_empty());
    // `max_rounds_in_flight` observes a real producer/consumer race and may
    // differ between any two runs; every deterministic counter must match.
    let divergent: Vec<&str> = quiet
        .counters()
        .diff(&recorded.counters())
        .into_iter()
        .filter(|&field| field != "max_rounds_in_flight")
        .collect();
    assert!(
        divergent.is_empty(),
        "attaching a sink changed the run: {divergent:?}"
    );
}

/// FNV-1a 64 over a byte stream — enough to pin outputs and journal text.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The collector's stash-and-fuse path, pinned: a 3-round, 2-device stream
/// (10 samples, so the last round is partial) with one duplicated data frame
/// must fuse to the bits, `duplicate_frames` and journal text recorded before
/// the collector stopped splitting batches into per-sample tensors.
#[test]
fn duplicate_fault_and_partial_round_fuse_to_the_recorded_bits_and_journal() {
    let devices = DeviceSpec::raspberry_pi_cluster(2);
    let mut faults = FaultScript::new();
    faults.push(0, 1, FrameSlot::Data(0), FrameFault::Duplicate);
    let mut config = StreamConfig::default().with_faults(faults);
    config.round_size = 4;
    let (report, journal) = run_recorded(&devices, config, 10);

    assert_eq!(report.rounds, 3);
    assert_eq!(report.outputs.len(), 10);
    assert_eq!(report.duplicate_frames, 1);
    assert_eq!(report.data_frames, 7, "six round frames plus the copy");
    assert_eq!(report.bytes_on_wire, 884);
    assert_eq!(journal.len(), 50);
    // Recorded on the parent of the PR that made the collector fuse from the
    // decoded batches (67ad604): output bits and journal text, FNV-1a 64.
    let output_bits = report
        .outputs
        .iter()
        .flat_map(|t| t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()));
    assert_eq!(fnv1a(output_bits), 0x5968_068f_b63d_00e8);
    assert_eq!(fnv1a(journal.to_text().bytes()), 0xffcd_63d7_23c9_7907);
    assert_observable(&report, &journal, "duplicate + partial round");
}

/// What a seeded run is pinned by: FNV-1a 64 of its journal text without the
/// `EpochEnded` lines, and of the `Debug` text of its counters with
/// `max_rounds_in_flight` zeroed. Both left-out values observe a real
/// producer/consumer race (`assert_observable` compares them live-vs-replay
/// within the run instead); everything else is deterministic.
fn pinned(report: &StreamReport, journal: &RunJournal) -> (u64, u64) {
    let text = journal.to_text();
    let deterministic = text
        .lines()
        .filter(|line| !line.contains(" EpochEnded "))
        .flat_map(|line| line.bytes().chain([b'\n']));
    let mut counters = report.counters();
    counters.max_rounds_in_flight = 0;
    (fnv1a(deterministic), fnv1a(format!("{counters:?}").bytes()))
}

/// Two more seeded runs pinned on the parent of the PR that made the live
/// report a fold over the journal's events (5720bb4): a mid-stream death,
/// and a corrupt data frame + an eaten heartbeat + a scripted join.
#[test]
fn failover_and_faulted_join_runs_reproduce_the_recorded_journal_and_counters() {
    let devices = DeviceSpec::raspberry_pi_cluster(4);
    let (report, journal) = run_recorded(&devices, StreamConfig::default().with_failure(2, 3), 40);
    assert_eq!(report.devices_lost, vec![2]);
    assert_eq!(
        pinned(&report, &journal),
        (0x2b30_3bda_61a0_eaa7, 0x87bd_8d96_ca91_60cd)
    );
    assert_observable(&report, &journal, "pinned failover");

    let joiner = devices[3].clone();
    let mut faults = FaultScript::new();
    faults.push(0, 1, FrameSlot::Data(0), FrameFault::CorruptBit { bit: 9 });
    faults.push(1, 2, FrameSlot::Heartbeat, FrameFault::Drop);
    let config = StreamConfig::default()
        .with_faults(faults)
        .with_join(joiner, 4);
    let (report, journal) = run_recorded(&devices[..3], config, 32);
    assert_eq!(report.devices_joined, vec![3]);
    assert_eq!((report.corrupt_frames, report.dropped_heartbeats), (1, 1));
    assert_eq!(
        pinned(&report, &journal),
        (0xf0e1_57aa_347c_9a57, 0x7cf4_63a5_ece4_93c9)
    );
    assert_observable(&report, &journal, "pinned faulted join");
}

/// The fold is total: `StreamCounters::apply` takes every prefix of a
/// recorded failover journal without panicking, a prefix that stops short of
/// `StreamEnded` replays to the typed error, and the whole journal folds to
/// the live counters.
#[test]
fn every_prefix_of_a_failover_journal_folds_and_only_the_whole_one_finishes() {
    let devices = DeviceSpec::raspberry_pi_cluster(4);
    let (report, journal) = run_recorded(&devices, StreamConfig::default().with_failure(2, 3), 40);
    let records = journal.records();
    let mut folded = StreamCounters::default();
    let mut prefix = RunJournal::new();
    for record in records {
        assert!(matches!(
            prefix.replay_stream(),
            Err(MetricsError::Replay { .. })
        ));
        folded.apply(record.at, &record.event);
        prefix.push(record.at, record.event.clone());
    }
    assert!(folded.bitwise_eq(&report.counters()));
    assert!(prefix.replay_stream().unwrap().bitwise_eq(&folded));
}
