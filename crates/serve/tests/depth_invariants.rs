//! Depth-transition consistency and serve-journal replay.
//!
//! The invariants this file pins (the satellite fixes of the observability
//! PR): the depth-transition chain is *anchored* — the first
//! `depth_changes` entry departs from the configured (post-clamp) initial
//! depth, consecutive entries are contiguous (`from[i+1] == to[i]`), and
//! `final_depth` equals the last entry's `to` (or the initial depth when
//! the controller never moved) — and a recorded drill's journal replays
//! offline to counters bitwise equal to the live [`ServeReport`].
//!
//! The FNV-1a pins of `overloaded_crash_drills_reproduce_the_recorded_journal_and_counters`
//! were recorded on commit 58c1613 — the parent of the PR that made
//! `ServeCounters::apply` the only serve accounting, before `crates/serve`
//! was touched — by adding that test to the parent's copy of this file and
//! running `cargo test -q -p edvit-serve --test depth_invariants overloaded_crash`
//! (a failing pin prints the pair it found).

use edvit_edge::{FusionFn, SubModelFn, TransportKind};
use edvit_metrics::{RunEvent, ServeCounters};
use edvit_partition::{DeviceSpec, PlannerConfig, SplitPlan, SplitPlanner};
use edvit_serve::{
    ArrivalSpec, DepthController, MetricsSink, RunJournal, ServeConfig, ServeReport,
    ServeScheduler, TenantSpec,
};
use edvit_tensor::Tensor;
use edvit_vit::ViTConfig;

fn cluster() -> (SplitPlan, Vec<DeviceSpec>) {
    let devices = DeviceSpec::raspberry_pi_cluster(4);
    let plan = SplitPlanner::new(PlannerConfig::default())
        .plan(&ViTConfig::vit_base(10), &devices, 7)
        .unwrap();
    (plan, devices)
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

fn sample_pool(n: usize) -> Vec<Tensor> {
    (0..n).map(|i| Tensor::full(&[3], i as f32)).collect()
}

/// Fusion cost comparable to the device stage, as in the drill tests.
const FUSION_FLOPS: u64 = 1_250_000_000;

fn drill_config(tenants: Vec<TenantSpec>, arrivals: ArrivalSpec) -> ServeConfig {
    let mut config = ServeConfig::new(tenants, arrivals);
    config.stream.fusion_flops = FUSION_FLOPS;
    config
}

fn open_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("interactive", 100_000),
        TenantSpec::new("batch", 100_000),
    ]
}

fn capacity_per_second() -> f64 {
    let (plan, devices) = cluster();
    ServeScheduler::new(
        plan,
        devices,
        drill_config(open_tenants(), ArrivalSpec::new(1.0, 1, 0)),
    )
    .unwrap()
    .nominal_capacity_per_second()
    .unwrap()
}

fn run_with(config: ServeConfig) -> ServeReport {
    let (plan, devices) = cluster();
    let executors = executors_for(&plan);
    ServeScheduler::new(plan, devices, config)
        .unwrap()
        .run(&sample_pool(8), executors, concat_fusion())
        .unwrap()
}

/// The satellite-2 invariant: the depth chain is anchored at
/// `initial_depth`, contiguous link to link, and terminated by
/// `final_depth`.
fn assert_depth_chain(report: &ServeReport, label: &str) {
    match report.depth_changes.first() {
        Some(first) => assert_eq!(
            first.from, report.initial_depth,
            "{label}: first transition must depart from the initial depth"
        ),
        None => assert_eq!(
            report.final_depth, report.initial_depth,
            "{label}: no transitions, yet the depth moved"
        ),
    }
    for pair in report.depth_changes.windows(2) {
        assert_eq!(
            pair[1].from, pair[0].to,
            "{label}: depth chain broken between rounds {} and {}",
            pair[0].round, pair[1].round
        );
    }
    if let Some(last) = report.depth_changes.last() {
        assert_eq!(
            last.to, report.final_depth,
            "{label}: final_depth must equal the last transition's target"
        );
    }
}

#[test]
fn adaptive_depth_chain_is_anchored_and_contiguous_under_overload() {
    let rate = 3.0 * capacity_per_second();
    let mut config = drill_config(open_tenants(), ArrivalSpec::new(rate, 96, 5));
    config.depth = DepthController {
        min_depth: 1,
        max_depth: 4,
        backlog_rounds: 2,
    };
    // The configured pipeline depth (2) already sits inside the band, so
    // the clamp must be the identity here.
    let report = run_with(config);
    assert_eq!(report.initial_depth, 2);
    assert!(
        !report.depth_changes.is_empty(),
        "3x overload must move the depth"
    );
    assert_depth_chain(&report, "overload");
}

#[test]
fn initial_depth_reports_the_clamped_configuration() {
    // Configured depth 2 clamps up into a [3, 5] controller band.
    let rate = 0.8 * capacity_per_second();
    let mut config = drill_config(open_tenants(), ArrivalSpec::new(rate, 24, 9));
    config.depth = DepthController {
        min_depth: 3,
        max_depth: 5,
        backlog_rounds: usize::MAX,
    };
    assert_eq!(config.stream.pipeline_depth, 2);
    let report = run_with(config);
    assert_eq!(report.initial_depth, 3, "clamp must anchor the chain");
    assert_depth_chain(&report, "clamped");

    // The barrier baseline is always depth 1 and never adapts.
    let barrier =
        run_with(drill_config(open_tenants(), ArrivalSpec::new(rate, 24, 9)).barrier_per_request());
    assert_eq!(barrier.initial_depth, 1);
    assert_eq!(barrier.final_depth, 1);
    assert!(barrier.depth_changes.is_empty());
    assert_depth_chain(&barrier, "barrier");
}

#[test]
fn mid_drill_crash_interleaved_with_depth_changes_keeps_the_chain_consistent() {
    let rate = 3.0 * capacity_per_second();
    let mut config = drill_config(open_tenants(), ArrivalSpec::new(rate, 96, 5));
    config.depth = DepthController {
        min_depth: 1,
        max_depth: 4,
        backlog_rounds: 2,
    };
    config.stream = config.stream.with_failure(2, 3);
    let report = run_with(config);
    assert_eq!(report.devices_lost, vec![2]);
    assert!(report.recovery_seconds > 0.0);
    assert!(
        !report.depth_changes.is_empty(),
        "overload plus a crash must still adapt the depth"
    );
    assert_depth_chain(&report, "crash+depth");
    assert!(report.no_lost_requests());
}

/// Bitwise replay across operating points: sustainable load, overload with
/// tight queues and deadlines (exercising both shed paths), a crash
/// interleaved with depth adaptation, and a run executed over TCP lanes — at
/// four seeds each.
#[test]
fn journaled_drills_replay_bitwise_at_seeds_0_through_3() {
    let capacity = capacity_per_second();
    for seed in 0u64..4 {
        let legs: Vec<(&str, ServeConfig)> = vec![
            (
                "sustainable",
                drill_config(open_tenants(), ArrivalSpec::new(0.8 * capacity, 48, seed)),
            ),
            ("overload", {
                let tenants = vec![
                    TenantSpec::new("interactive", 2).with_deadline(2.0),
                    TenantSpec::new("batch", 5),
                ];
                drill_config(tenants, ArrivalSpec::new(5.0 * capacity, 64, seed))
            }),
            ("crash", {
                let mut config =
                    drill_config(open_tenants(), ArrivalSpec::new(3.0 * capacity, 64, seed));
                config.depth = DepthController {
                    min_depth: 1,
                    max_depth: 4,
                    backlog_rounds: 2,
                };
                config.stream = config.stream.with_failure(2, 3);
                config
            }),
            // The execution pass over loopback sockets: the serve fold never
            // sees the transport, so the report still equals its replay.
            ("sustainable over tcp", {
                let mut config =
                    drill_config(open_tenants(), ArrivalSpec::new(0.8 * capacity, 16, seed));
                config.stream.transport = TransportKind::Tcp;
                config
            }),
        ];
        for (label, config) in legs {
            let sink = MetricsSink::recording();
            let report = run_with(config.with_sink(sink.clone()));
            assert_depth_chain(&report, label);

            let journal = RunJournal::from_text(&sink.journal().to_text()).unwrap();
            let replayed = journal.replay_serve().unwrap();
            let live = report.counters();
            assert!(
                replayed.bitwise_eq(&live),
                "seed {seed} {label}: replay diverged on {:?}",
                replayed.diff(&live)
            );
        }
    }
}

/// FNV-1a 64 over a byte stream — enough to pin journal text and counters.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The serve accounting, pinned (see the file header for where the numbers
/// come from): a 4x-overloaded drill with tight queues, a deadline, an
/// adaptive depth band and a scripted crash must journal the recorded serve
/// text — the drill runs before the execution pass, so its events are the
/// journal's prefix up to `ServeEnded` — and report the recorded counters.
#[test]
fn overloaded_crash_drills_reproduce_the_recorded_journal_and_counters() {
    const PINS: [(u64, u64); 4] = [
        (0x7846_6e48_8960_6b94, 0x4bac_4054_2092_c051),
        (0xdcdd_66c2_022a_3ee5, 0x67a4_2747_85a0_e3c7),
        (0xc2b2_7af5_3935_c19b, 0xf285_540a_2405_e03d),
        (0xbe4a_7ca2_4df7_21df, 0x1aca_5402_d287_2524),
    ];
    let capacity = capacity_per_second();
    for (seed, pin) in PINS.iter().enumerate() {
        let tenants = vec![
            TenantSpec::new("interactive", 4).with_deadline(2.0),
            TenantSpec::new("batch", 12),
        ];
        let arrivals = ArrivalSpec::new(4.0 * capacity, 96, seed as u64);
        let mut config = drill_config(tenants, arrivals);
        config.depth = DepthController {
            min_depth: 1,
            max_depth: 4,
            backlog_rounds: 2,
        };
        config.stream = config.stream.with_failure(2, 3);
        let sink = MetricsSink::recording();
        let counters = run_with(config.with_sink(sink.clone())).counters();
        // The drill must exercise every serve accounting path it pins.
        assert!(counters.tenants.iter().all(|t| t.shed_overflow > 0));
        assert!(counters.tenants[0].shed_deadline > 0);
        assert!(counters.depth_changes.len() >= 2);
        assert_eq!(counters.devices_lost, vec![2]);

        let text = sink.journal().to_text();
        let end = text.find(" ServeEnded\n").unwrap() + " ServeEnded\n".len();
        let found = (
            fnv1a(text[..end].bytes()),
            fnv1a(format!("{counters:?}").bytes()),
        );
        assert_eq!(found, *pin, "seed {seed}: found {found:#018x?}");
    }
}

/// The serve fold is total: `ServeCounters::apply` takes every prefix of a
/// recorded overload-plus-crash journal — its embedded stream events included
/// — without panicking, a prefix that stops short of `ServeEnded` replays to
/// the typed error, and the whole journal folds to the live counters.
#[test]
fn every_prefix_of_a_serve_journal_folds_and_only_the_whole_one_finishes() {
    let tenants = vec![
        TenantSpec::new("interactive", 4).with_deadline(2.0),
        TenantSpec::new("batch", 12),
    ];
    let arrivals = ArrivalSpec::new(4.0 * capacity_per_second(), 48, 1);
    let mut config = drill_config(tenants, arrivals);
    config.stream = config.stream.with_failure(2, 3);
    let sink = MetricsSink::recording();
    let report = run_with(config.with_sink(sink.clone()));
    assert!(report.shed > 0 && report.devices_lost == [2]);

    let journal = sink.journal();
    let ended = journal
        .records()
        .iter()
        .position(|record| record.event == RunEvent::ServeEnded)
        .unwrap();
    let mut folded = ServeCounters::default();
    let mut prefix = RunJournal::new();
    for (index, record) in journal.records().iter().enumerate() {
        assert_eq!(
            prefix.replay_serve().is_ok(),
            index > ended,
            "prefix of {index} events"
        );
        folded.apply(record.at, &record.event);
        prefix.push(record.at, record.event.clone());
    }
    assert!(folded.bitwise_eq(&report.counters));
    assert!(prefix.replay_serve().unwrap().bitwise_eq(&folded));
}
