//! The chaos matrix: every fault kind the `edvit-chaos` crate can declare,
//! run against the streaming scheduler across several seeds, with hard
//! assertions on exactly-once fusion and prediction identity (or, for the
//! degraded leg, explicitly bounded drift limited to the zero-filled slots of
//! the dropped sub-model).
//!
//! Everything runs on the scheduler's virtual `SimClock` and a seeded
//! ChaCha8 fault plan, so a cell of the matrix replays bit-identically on
//! any machine: a failure here is reproducible from the printed seed alone.
//!
//! CI runs this as part of the `chaos` job. Seeds come from the CLI
//! (`cargo run -p edvit --example chaos_matrix --release -- 0 1 2 5`),
//! defaulting to {0, 1, 2, 5}.

use edvit::chaos::{CompiledChaos, FaultKind, FaultPlan};
use edvit::edge::{FusionFn, SubModelFn};
use edvit::partition::{DeviceSpec, PlannerConfig, SplitPlan, SplitPlanner};
use edvit::sched::{StreamConfig, StreamReport, StreamScheduler, MAX_RETRIES};
use edvit::tensor::Tensor;
use edvit::vit::ViTConfig;

const SAMPLES: usize = 16;
const ROUND_SIZE: usize = 2;
const ROUNDS: u64 = (SAMPLES / ROUND_SIZE) as u64;

/// Deterministic executors: sub-model `i` maps a sample to
/// `[sum(sample) + i, i]`, so every fused output pins down both the sample
/// and the contributing sub-models — any divergence is visible in the data.
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

fn inputs() -> Vec<Tensor> {
    (0..SAMPLES).map(|i| Tensor::full(&[3], i as f32)).collect()
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        round_size: ROUND_SIZE,
        ..StreamConfig::default()
    }
}

fn run(
    plan: &SplitPlan,
    devices: &[DeviceSpec],
    samples: &[Tensor],
    config: StreamConfig,
) -> Result<StreamReport, Box<dyn std::error::Error>> {
    let scheduler = StreamScheduler::new(plan.clone(), devices.to_vec(), config)?;
    Ok(scheduler.run(samples, executors_for(plan), concat_fusion())?)
}

/// Exactly-once plus prediction identity: the two invariants every
/// non-degraded cell of the matrix must preserve, whatever went wrong on the
/// wire.
fn assert_identical(name: &str, seed: u64, healthy: &StreamReport, chaos: &StreamReport) {
    assert_eq!(
        chaos.outputs.len(),
        healthy.outputs.len(),
        "[seed {seed}] {name}: lost or duplicated samples"
    );
    for (i, (a, b)) in healthy.outputs.iter().zip(&chaos.outputs).enumerate() {
        assert_eq!(
            a.data(),
            b.data(),
            "[seed {seed}] {name}: sample {i} fused to different logits"
        );
    }
}

fn summarize(name: &str, seed: u64, report: &StreamReport) {
    println!(
        "  seed {seed} {name:<22} retries={} corrupt={} dup={} hb-dropped={} stale={} \
         lost={:?} rejoins={} repartitions={} recovery={:.3}s degraded-rounds={}",
        report.retries,
        report.corrupt_frames,
        report.duplicate_frames,
        report.dropped_heartbeats,
        report.stale_control_frames,
        report.devices_lost,
        report.rejoins,
        report.repartitions,
        report.recovery_seconds,
        report.degraded_rounds.len(),
    );
}

fn compile(
    plan: &SplitPlan,
    devices: &[DeviceSpec],
    seed: u64,
    fault: FaultKind,
) -> Result<CompiledChaos, Box<dyn std::error::Error>> {
    Ok(FaultPlan::new(seed)
        .with(fault)
        .compile(plan, devices, ROUNDS)?)
}

/// One seed's worth of matrix: a healthy baseline, then every fault kind
/// against it.
fn run_matrix_for_seed(seed: u64) -> Result<(), Box<dyn std::error::Error>> {
    let devices = DeviceSpec::raspberry_pi_cluster(4);
    let plan = SplitPlanner::new(PlannerConfig::default()).plan(
        &ViTConfig::vit_base(10),
        &devices,
        seed,
    )?;
    let samples = inputs();
    let healthy = run(&plan, &devices, &samples, stream_config())?;
    assert_eq!(healthy.outputs.len(), SAMPLES);
    assert!(healthy.devices_lost.is_empty());
    assert_eq!(healthy.retries, 0);

    // Victims rotate with the seed but always host at least one sub-model,
    // so every fault has a frame to land on.
    let hosting: Vec<usize> = devices
        .iter()
        .map(|d| d.id)
        .filter(|&id| !plan.assignment.sub_models_on(id).is_empty())
        .collect();
    assert!(
        !hosting.is_empty(),
        "nobody hosts anything; matrix is vacuous"
    );
    let victim = hosting[seed as usize % hosting.len()];
    let round = 1 + seed % (ROUNDS - 2); // 1..=5: mid-stream, never the tail

    // --- Recoverable wire faults: retried, invisible in the output. -------
    let corrupt = compile(
        &plan,
        &devices,
        seed,
        FaultKind::CorruptFrame {
            device: victim,
            round,
        },
    )?;
    let report = run(&plan, &devices, &samples, corrupt.apply(stream_config()))?;
    assert_identical("corrupt-frame", seed, &healthy, &report);
    assert_eq!(report.retries, 1, "one corrupt delivery, one re-request");
    assert_eq!(report.corrupt_frames, 1);
    assert!(report.retry_seconds > 0.0, "retries must cost virtual time");
    assert!(report.devices_lost.is_empty());
    summarize("corrupt-frame", seed, &report);

    let truncate = compile(
        &plan,
        &devices,
        seed,
        FaultKind::TruncateFrame {
            device: victim,
            round,
        },
    )?;
    let report = run(&plan, &devices, &samples, truncate.apply(stream_config()))?;
    assert_identical("truncate-frame", seed, &healthy, &report);
    assert_eq!(report.retries, 1);
    assert_eq!(report.corrupt_frames, 1);
    assert!(report.devices_lost.is_empty());
    summarize("truncate-frame", seed, &report);

    let drop_data = compile(
        &plan,
        &devices,
        seed,
        FaultKind::DropDataFrame {
            device: victim,
            round,
        },
    )?;
    let report = run(&plan, &devices, &samples, drop_data.apply(stream_config()))?;
    assert_identical("drop-data-frame", seed, &healthy, &report);
    assert_eq!(report.retries, 1, "a dropped data frame is re-requested");
    assert!(report.devices_lost.is_empty());
    summarize("drop-data-frame", seed, &report);

    // --- Duplicate / replay: absorbed by dedupe, never retried. -----------
    let duplicate = compile(
        &plan,
        &devices,
        seed,
        FaultKind::DuplicateFrame {
            device: victim,
            round,
        },
    )?;
    let report = run(&plan, &devices, &samples, duplicate.apply(stream_config()))?;
    assert_identical("duplicate-frame", seed, &healthy, &report);
    assert_eq!(
        report.duplicate_frames, 1,
        "the copy must be absorbed, not fused"
    );
    assert_eq!(report.retries, 0);
    summarize("duplicate-frame", seed, &report);

    let replay_hb = compile(
        &plan,
        &devices,
        seed,
        FaultKind::ReplayHeartbeat {
            device: victim,
            round,
        },
    )?;
    let report = run(&plan, &devices, &samples, replay_hb.apply(stream_config()))?;
    assert_identical("replay-heartbeat", seed, &healthy, &report);
    assert_eq!(
        report.stale_control_frames, 1,
        "the replayed beacon must read as stale"
    );
    assert_eq!(report.stale_heartbeats, 1);
    assert!(report.devices_lost.is_empty());
    summarize("replay-heartbeat", seed, &report);

    // --- Lost beacon: the next fresh beacon closes the round. -------------
    let drop_hb = compile(
        &plan,
        &devices,
        seed,
        FaultKind::DropHeartbeat {
            device: victim,
            round,
        },
    )?;
    let report = run(&plan, &devices, &samples, drop_hb.apply(stream_config()))?;
    assert_identical("drop-heartbeat", seed, &healthy, &report);
    assert_eq!(report.dropped_heartbeats, 1);
    assert_eq!(report.retries, 0, "beacons are not re-requested");
    assert!(
        report.devices_lost.is_empty(),
        "one lost beacon is within grace"
    );
    summarize("drop-heartbeat", seed, &report);

    // --- Retry budget exhausted: escalation to device death. --------------
    let persistent = compile(
        &plan,
        &devices,
        seed,
        FaultKind::PersistentCorruption {
            device: victim,
            round,
        },
    )?;
    let report = run(&plan, &devices, &samples, persistent.apply(stream_config()))?;
    assert_identical("persistent-corruption", seed, &healthy, &report);
    assert_eq!(
        report.devices_lost,
        vec![victim],
        "the link must escalate to death"
    );
    assert_eq!(report.repartitions, 1);
    assert_eq!(report.retries, u64::from(MAX_RETRIES));
    assert!(
        report.samples_replayed >= 1,
        "the poisoned round is replayed"
    );
    assert!(report.recovery_seconds > 0.0);
    summarize("persistent-corruption", seed, &report);

    // --- Crash and crash-then-rejoin. --------------------------------------
    let crash_round = 1 + seed % 2;
    let crash = compile(
        &plan,
        &devices,
        seed,
        FaultKind::Crash {
            device: victim,
            at_round: crash_round,
        },
    )?;
    let report = run(&plan, &devices, &samples, crash.apply(stream_config()))?;
    assert_identical("crash", seed, &healthy, &report);
    assert_eq!(report.devices_lost, vec![victim]);
    assert_eq!(report.repartitions, 1);
    assert!(report.recovery_seconds > 0.0);
    summarize("crash", seed, &report);

    let rejoin = compile(
        &plan,
        &devices,
        seed,
        FaultKind::CrashThenRejoin {
            device: victim,
            at_round: crash_round,
            rejoin_after: 1 + seed % 2,
        },
    )?;
    let report = run(&plan, &devices, &samples, rejoin.apply(stream_config()))?;
    assert_identical("crash-then-rejoin", seed, &healthy, &report);
    assert_eq!(report.devices_lost, vec![victim]);
    assert_eq!(
        report.devices_joined,
        vec![victim],
        "the victim must come back"
    );
    assert_eq!(report.rejoins, 1, "the comeback is a new identity-epoch");
    assert_eq!(
        report.repartitions, 2,
        "one for the death, one for the rejoin"
    );
    summarize("crash-then-rejoin", seed, &report);

    // --- Flaky link: seeded per-round corruption, all recovered. -----------
    let flaky = compile(
        &plan,
        &devices,
        seed,
        FaultKind::FlakyLink {
            device: victim,
            corrupt_per_mille: 400,
        },
    )?;
    let flaky_hits = flaky.script.len() as u64;
    let report = run(&plan, &devices, &samples, flaky.apply(stream_config()))?;
    assert_identical("flaky-link", seed, &healthy, &report);
    assert_eq!(
        report.retries, flaky_hits,
        "every flaky round costs exactly one retry"
    );
    assert_eq!(report.corrupt_frames, flaky_hits);
    assert!(report.devices_lost.is_empty());
    summarize("flaky-link", seed, &report);

    Ok(())
}

/// The degraded leg: a cluster engineered so tight that losing one device
/// makes full coverage infeasible, forcing the scheduler to fuse from
/// partial scores. Drift must be *bounded*: confined to degraded rounds, and
/// within those, exactly the zero-filled slots of the dropped sub-model.
fn run_degraded_leg(seed: u64) -> Result<(), Box<dyn std::error::Error>> {
    // First plan on a comfortable two-Pi cluster to learn the sub-model
    // costs, then shrink device 1 until it can host either sub-model alone
    // but never both.
    let roomy = DeviceSpec::raspberry_pi_cluster(2);
    let sizing =
        SplitPlanner::new(PlannerConfig::default()).plan(&ViTConfig::vit_base(10), &roomy, seed)?;
    let max_cost = sizing
        .sub_models
        .iter()
        .map(|s| s.cost.memory_bytes)
        .max()
        .unwrap_or(0);
    let mut devices = roomy;
    devices[1].memory_bytes = max_cost + max_cost / 2;
    let plan = SplitPlanner::new(PlannerConfig::default()).plan(
        &ViTConfig::vit_base(10),
        &devices,
        seed,
    )?;
    assert!(
        !plan.assignment.sub_models_on(0).is_empty(),
        "device 0 hosts nothing; killing it would degrade nothing"
    );

    let samples = inputs();
    let healthy = run(&plan, &devices, &samples, stream_config())?;

    let death_round = 2u64;
    let chaos = FaultPlan::new(seed)
        .with(FaultKind::Crash {
            device: 0,
            at_round: death_round,
        })
        .compile(&plan, &devices, ROUNDS)?;
    let report = run(
        &plan,
        &devices,
        &samples,
        chaos.apply(stream_config()).with_max_missing_sub_models(1),
    )?;

    assert_eq!(report.devices_lost, vec![0]);
    assert_eq!(
        report.missing_sub_models.len(),
        1,
        "exactly one sub-model dropped"
    );
    let expected_degraded: Vec<u64> = (death_round..ROUNDS).collect();
    assert_eq!(
        report.degraded_rounds, expected_degraded,
        "every round after the death fuses degraded"
    );
    assert_eq!(
        report.outputs.len(),
        SAMPLES,
        "degradation must not drop samples"
    );

    // The drift bound: healthy rounds are bit-identical, degraded rounds
    // differ only in the dropped sub-model's zero-filled slots.
    let missing = report.missing_sub_models[0];
    let width = 2usize; // every synthetic executor emits two features
    let zeroed = missing * width..(missing + 1) * width;
    for (i, (a, b)) in healthy.outputs.iter().zip(&report.outputs).enumerate() {
        let round = (i / ROUND_SIZE) as u64;
        if round < death_round {
            assert_eq!(a.data(), b.data(), "sample {i} drifted in a healthy round");
            continue;
        }
        for (k, (&ha, &ca)) in a.data().iter().zip(b.data()).enumerate() {
            if zeroed.contains(&k) {
                assert_eq!(ca, 0.0, "sample {i} slot {k} must be zero-filled");
            } else {
                assert_eq!(
                    ha, ca,
                    "sample {i} slot {k} drifted outside the dropped sub-model"
                );
            }
        }
    }
    summarize("degraded-fusion", seed, &report);
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seeds: Vec<u64> = {
        let cli: Vec<u64> = std::env::args()
            .skip(1)
            .filter_map(|s| s.parse().ok())
            .collect();
        if cli.is_empty() {
            vec![0, 1, 2, 5]
        } else {
            cli
        }
    };
    println!("chaos matrix: {SAMPLES} samples, {ROUNDS} rounds, seeds {seeds:?}");
    for &seed in &seeds {
        run_matrix_for_seed(seed)?;
        run_degraded_leg(seed)?;
    }
    println!(
        "ok: {} fault kinds x {} seeds, exactly-once fusion and bounded drift throughout",
        10,
        seeds.len()
    );
    Ok(())
}
