//! Integration tests of the streaming scheduler: pipelined throughput beats
//! the barrier bound on the simulated clock, and a device killed mid-stream
//! triggers a repartition onto the survivors with zero lost or duplicated
//! samples.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use edvit_edge::{FusionFn, SubModelFn};
use edvit_partition::{DeviceSpec, PlannerConfig, SplitPlan, SplitPlanner};
use edvit_sched::{
    NetOptions, PayloadCodec, RoundLayout, SchedError, ScheduleMode, StreamConfig, StreamScheduler,
};
use edvit_tensor::Tensor;
use edvit_vit::ViTConfig;

fn plan_for(devices: &[DeviceSpec]) -> SplitPlan {
    SplitPlanner::new(PlannerConfig::default())
        .plan(&ViTConfig::vit_base(10), devices, 7)
        .unwrap()
}

/// Deterministic executors: sub-model `i` maps a sample to
/// `[sum(sample) + i, i]`, so fused outputs identify both the sample and the
/// contributing sub-models. The shared counter records total invocations.
fn executors_for(plan: &SplitPlan, calls: &Arc<AtomicUsize>) -> Vec<SubModelFn> {
    (0..plan.sub_models.len())
        .map(|i| -> SubModelFn {
            let calls = Arc::clone(calls);
            Box::new(move |sample: &Tensor| {
                calls.fetch_add(1, Ordering::SeqCst);
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

#[test]
fn pipelined_steady_state_beats_barrier_on_the_simulated_clock() {
    let devices = DeviceSpec::raspberry_pi_cluster(4);
    let plan = plan_for(&devices);
    let samples = inputs(32);
    let calls = Arc::new(AtomicUsize::new(0));

    let barrier = StreamScheduler::new(
        plan.clone(),
        devices.clone(),
        StreamConfig::default().barrier(),
    )
    .unwrap()
    .run(&samples, executors_for(&plan, &calls), concat_fusion())
    .unwrap();

    let pipelined = StreamScheduler::new(plan.clone(), devices, StreamConfig::default())
        .unwrap()
        .run(&samples, executors_for(&plan, &calls), concat_fusion())
        .unwrap();

    assert_eq!(barrier.mode, ScheduleMode::Barrier);
    assert_eq!(pipelined.mode, ScheduleMode::Pipelined);
    assert_eq!(barrier.outputs.len(), 32);
    assert_eq!(pipelined.outputs.len(), 32);
    // Same workload, same outputs, whatever the scheduling.
    for (a, b) in barrier.outputs.iter().zip(&pipelined.outputs) {
        assert_eq!(a.data(), b.data());
    }
    // The acceptance bar: pipelined steady-state throughput exceeds the
    // barrier runtime's on the same workload, on the simulated clock.
    assert!(
        pipelined.steady_state_samples_per_second > barrier.steady_state_samples_per_second,
        "pipelined {} !> barrier {}",
        pipelined.steady_state_samples_per_second,
        barrier.steady_state_samples_per_second
    );
    assert!(
        pipelined.simulated_total_seconds < barrier.simulated_total_seconds,
        "pipelined total {} !< barrier total {}",
        pipelined.simulated_total_seconds,
        barrier.simulated_total_seconds
    );
    // Accounting: 8 rounds × 4 devices heartbeats, one join + one leave per
    // device, one data frame per sub-model per round.
    assert_eq!(pipelined.rounds, 8);
    assert_eq!(pipelined.heartbeats_seen, 8 * 4);
    assert_eq!(pipelined.control_frames, 8 * 4 + 4 + 4);
    assert_eq!(pipelined.data_frames, 8 * plan.sub_models.len());
    assert!(pipelined.bytes_on_wire > 0);
    // Per-device accounting: all four devices shipped bytes and delivered
    // every round, and the per-device bytes sum to the wire total.
    assert_eq!(pipelined.per_device_wire_bytes.len(), 4);
    assert_eq!(
        pipelined.per_device_wire_bytes.values().sum::<u64>(),
        pipelined.bytes_on_wire
    );
    assert!(pipelined.per_device_rounds.values().all(|&r| r == 8));
    assert!(pipelined.max_rounds_in_flight >= 1);
    assert_eq!(pipelined.epochs, 1);
    assert_eq!(pipelined.repartitions, 0);
    assert_eq!(pipelined.recovery_seconds, 0.0);
    assert!(pipelined.devices_lost.is_empty());
}

#[test]
fn killing_a_device_mid_stream_repartitions_onto_survivors_with_exactly_once_fusion() {
    let devices = DeviceSpec::raspberry_pi_cluster(4);
    let plan = plan_for(&devices);
    // Every device hosts at least one sub-model, so killing one matters.
    for d in &devices {
        assert!(
            !plan.assignment.sub_models_on(d.id).is_empty(),
            "device {} hosts nothing; the failure test would be vacuous",
            d.id
        );
    }
    let samples = inputs(40);
    let calls = Arc::new(AtomicUsize::new(0));

    // Reference run without failures.
    let reference = StreamScheduler::new(plan.clone(), devices.clone(), StreamConfig::default())
        .unwrap()
        .run(&samples, executors_for(&plan, &calls), concat_fusion())
        .unwrap();

    // Device 2 goes silent before processing round 3.
    let chaos_calls = Arc::new(AtomicUsize::new(0));
    let config = StreamConfig::default().with_failure(2, 3);
    let report = StreamScheduler::new(plan.clone(), devices.clone(), config)
        .unwrap()
        .run(
            &samples,
            executors_for(&plan, &chaos_calls),
            concat_fusion(),
        )
        .unwrap();

    // Zero lost, zero duplicated: every sample fused exactly once, with the
    // same value the healthy cluster produced.
    assert_eq!(report.outputs.len(), samples.len());
    for (i, (a, b)) in reference.outputs.iter().zip(&report.outputs).enumerate() {
        assert_eq!(a.data(), b.data(), "sample {i} diverged after the failover");
    }
    assert_eq!(report.devices_lost, vec![2]);
    assert_eq!(report.repartitions, 1);
    assert_eq!(report.epochs, 2);
    // The re-plan hosts every sub-model on the three survivors.
    for sub in &report.final_plan.sub_models {
        let host = report.final_plan.assignment.device_for(sub.index).unwrap();
        assert_ne!(host, 2, "sub-model {} still on the dead device", sub.index);
    }
    let hosts: std::collections::BTreeSet<usize> = report
        .final_plan
        .sub_models
        .iter()
        .map(|s| report.final_plan.assignment.device_for(s.index).unwrap())
        .collect();
    assert!(hosts.iter().all(|&h| h != 2) && hosts.len() <= 3);
    // Recovery is recorded on the simulated clock, and the in-flight work
    // was replayed: round 3 (the one the dead device never delivered) was in
    // flight when the death was declared, so at least its 4 samples
    // recompute; survivors may have pipelined further ahead.
    assert!(report.recovery_seconds > 0.0);
    assert!(
        report.samples_replayed >= 4,
        "expected at least one in-flight round (4 samples) replayed, got {}",
        report.samples_replayed
    );
    // Replays cost extra executor calls beyond the healthy run's, and the
    // run is longer than the healthy one on the virtual clock.
    assert!(chaos_calls.load(Ordering::SeqCst) > calls.load(Ordering::SeqCst) / 2);
    assert!(report.simulated_total_seconds > 0.0);
    assert!(report.heartbeats_seen > 0);
    let predictions = report.predictions().unwrap();
    assert_eq!(predictions.len(), samples.len());
}

#[test]
fn death_on_arrival_fails_over_and_a_ragged_last_round_still_fuses() {
    let devices = DeviceSpec::raspberry_pi_cluster(2);
    let plan = plan_for(&devices);
    let samples = inputs(10); // rounds of 4, 4, 2
    let calls = Arc::new(AtomicUsize::new(0));
    let config = StreamConfig::default().with_failure(0, 0);
    let report = StreamScheduler::new(plan.clone(), devices, config)
        .unwrap()
        .run(&samples, executors_for(&plan, &calls), concat_fusion())
        .unwrap();
    assert_eq!(report.outputs.len(), 10);
    assert_eq!(report.devices_lost, vec![0]);
    assert_eq!(report.repartitions, 1);
    assert_eq!(report.rounds, 3);
    for sub in &report.final_plan.sub_models {
        assert_eq!(report.final_plan.assignment.device_for(sub.index), Some(1));
    }
}

#[test]
fn losing_every_device_is_a_typed_error() {
    let devices = DeviceSpec::raspberry_pi_cluster(1);
    let plan = plan_for(&devices);
    let calls = Arc::new(AtomicUsize::new(0));
    let config = StreamConfig::default().with_failure(0, 1);
    let err = StreamScheduler::new(plan.clone(), devices, config)
        .unwrap()
        .run(&inputs(12), executors_for(&plan, &calls), concat_fusion())
        .unwrap_err();
    assert!(
        matches!(err, SchedError::AllDevicesLost { ref lost } if lost == &vec![0]),
        "{err}"
    );
}

#[test]
fn invalid_configurations_are_rejected() {
    let devices = DeviceSpec::raspberry_pi_cluster(2);
    let plan = plan_for(&devices);
    let bad = StreamConfig {
        round_size: 0,
        ..StreamConfig::default()
    };
    assert!(StreamScheduler::new(plan.clone(), devices.clone(), bad).is_err());
    let bad = StreamConfig {
        pipeline_depth: 0,
        ..StreamConfig::default()
    };
    assert!(StreamScheduler::new(plan.clone(), devices.clone(), bad).is_err());
    assert!(StreamScheduler::new(plan.clone(), vec![], StreamConfig::default()).is_err());

    let scheduler = StreamScheduler::new(plan.clone(), devices, StreamConfig::default()).unwrap();
    // Executor count must match the plan.
    let err = scheduler
        .run(&inputs(4), vec![], concat_fusion())
        .unwrap_err();
    assert!(matches!(err, SchedError::InvalidConfig { .. }), "{err}");
    // Empty inputs are rejected.
    let calls = Arc::new(AtomicUsize::new(0));
    let err = scheduler
        .run(&[], executors_for(&plan, &calls), concat_fusion())
        .unwrap_err();
    assert!(matches!(err, SchedError::InvalidConfig { .. }), "{err}");
}

#[test]
fn executor_and_fusion_failures_propagate() {
    let devices = DeviceSpec::raspberry_pi_cluster(2);
    let plan = plan_for(&devices);
    let scheduler =
        StreamScheduler::new(plan.clone(), devices.clone(), StreamConfig::default()).unwrap();
    let failing: Vec<SubModelFn> = (0..plan.sub_models.len())
        .map(|_| -> SubModelFn { Box::new(|_: &Tensor| Err("device out of memory".into())) })
        .collect();
    let err = scheduler
        .run(&inputs(4), failing, concat_fusion())
        .unwrap_err();
    assert!(err.to_string().contains("out of memory"), "{err}");

    let calls = Arc::new(AtomicUsize::new(0));
    let bad_fusion: FusionFn = Box::new(|_| Err("fusion MLP not trained".into()));
    let err = scheduler
        .run(&inputs(4), executors_for(&plan, &calls), bad_fusion)
        .unwrap_err();
    assert!(err.to_string().contains("fusion MLP"), "{err}");
}

/// Every device worker panics inside its executor: the epoch joins them all
/// and reports the typed error — nothing unwinds out of the thread scope into
/// the caller.
#[test]
fn panicking_executors_are_a_typed_runtime_error_not_an_unwinding_scope() {
    let devices = DeviceSpec::raspberry_pi_cluster(2);
    let plan = plan_for(&devices);
    let scheduler =
        StreamScheduler::new(plan.clone(), devices.clone(), StreamConfig::default()).unwrap();
    let panicking: Vec<SubModelFn> = (0..plan.sub_models.len())
        .map(|_| -> SubModelFn { Box::new(|_: &Tensor| panic!("executor blew up")) })
        .collect();
    let err = scheduler
        .run(&inputs(4), panicking, concat_fusion())
        .unwrap_err();
    assert_eq!(
        err,
        SchedError::Runtime {
            message: "a device worker thread panicked".to_string()
        }
    );
}

#[test]
fn f16_codec_streams_shrink_the_wire_with_identical_fusion_outputs() {
    // The deterministic executors emit integer-valued features, which are
    // exactly representable in f16 — so the coded stream must fuse to
    // bitwise-identical outputs while shipping fewer data bytes.
    let devices = DeviceSpec::raspberry_pi_cluster(3);
    let plan = plan_for(&devices);
    let samples = inputs(12);

    let run = |codec: PayloadCodec| {
        let calls = Arc::new(AtomicUsize::new(0));
        StreamScheduler::new(
            plan.clone(),
            devices.clone(),
            StreamConfig::default().with_options(&NetOptions::default().with_codec(codec)),
        )
        .unwrap()
        .run(&samples, executors_for(&plan, &calls), concat_fusion())
        .unwrap()
    };
    let base = run(PayloadCodec::F32);
    let coded = run(PayloadCodec::F16);
    assert_eq!(base.codec, PayloadCodec::F32);
    assert_eq!(coded.codec, PayloadCodec::F16);
    assert_eq!(base.outputs.len(), coded.outputs.len());
    for (a, b) in base.outputs.iter().zip(&coded.outputs) {
        assert_eq!(a.data(), b.data());
    }
    // Same frame counts, fewer bytes: only the value encoding changed.
    assert_eq!(base.data_frames, coded.data_frames);
    assert_eq!(base.control_frames, coded.control_frames);
    assert!(
        coded.bytes_on_wire < base.bytes_on_wire,
        "{} !< {}",
        coded.bytes_on_wire,
        base.bytes_on_wire
    );
    // The virtual timing prices the smaller frames too.
    assert!(coded.steady_state_samples_per_second >= base.steady_state_samples_per_second);
}

#[test]
fn coded_streams_survive_a_death_with_identical_predictions() {
    let devices = DeviceSpec::raspberry_pi_cluster(3);
    let plan = plan_for(&devices);
    let samples = inputs(12);
    let victim = plan.assignment.device_for(0).unwrap();
    for codec in PayloadCodec::ALL {
        let calls = Arc::new(AtomicUsize::new(0));
        let healthy = StreamScheduler::new(
            plan.clone(),
            devices.clone(),
            StreamConfig::default().with_options(&NetOptions::default().with_codec(codec)),
        )
        .unwrap()
        .run(&samples, executors_for(&plan, &calls), concat_fusion())
        .unwrap();
        let chaotic = StreamScheduler::new(
            plan.clone(),
            devices.clone(),
            StreamConfig::default()
                .with_options(&NetOptions::default().with_codec(codec))
                .with_failure(victim, 2),
        )
        .unwrap()
        .run(&samples, executors_for(&plan, &calls), concat_fusion())
        .unwrap();
        assert_eq!(chaotic.devices_lost, vec![victim], "{codec}");
        assert_eq!(chaotic.outputs.len(), samples.len(), "{codec}");
        for (a, b) in healthy.outputs.iter().zip(&chaotic.outputs) {
            assert_eq!(a.data(), b.data(), "{codec}: failover changed outputs");
        }
    }
}

/// A membership where one device was shrunk until it hosts at most one
/// sub-model: the raw material for degraded-fusion scenarios. The costs are
/// taken from a plan over the roomy cluster, which the tightened cluster
/// reproduces as long as the greedy assignment still succeeds first try.
fn tight_cluster(n: usize) -> (SplitPlan, Vec<DeviceSpec>) {
    let roomy = DeviceSpec::raspberry_pi_cluster(n);
    let sizing = plan_for(&roomy);
    let max_cost = sizing
        .sub_models
        .iter()
        .map(|s| s.cost.memory_bytes)
        .max()
        .unwrap();
    let mut devices = roomy;
    devices[n - 1].memory_bytes = max_cost + max_cost / 2;
    let plan = plan_for(&devices);
    (plan, devices)
}

#[test]
fn joining_with_a_live_identity_is_a_typed_conflict() {
    let devices = DeviceSpec::raspberry_pi_cluster(2);
    let plan = plan_for(&devices);
    let calls = Arc::new(AtomicUsize::new(0));
    // Device 0 never died, yet a join frame claims its identity mid-stream.
    let config = StreamConfig::default().with_join(devices[0].clone(), 1);
    let err = StreamScheduler::new(plan.clone(), devices, config)
        .unwrap()
        .run(&inputs(12), executors_for(&plan, &calls), concat_fusion())
        .unwrap_err();
    assert!(
        matches!(err, SchedError::RejoinConflict { device: 0 }),
        "{err}"
    );
}

#[test]
fn degradation_within_the_limit_fuses_partial_scores_with_zero_fill() {
    let (plan, devices) = tight_cluster(2);
    assert!(
        !plan.assignment.sub_models_on(0).is_empty(),
        "device 0 must host something for its death to degrade the stream"
    );
    let samples = inputs(12); // rounds of 4
    let calls = Arc::new(AtomicUsize::new(0));
    let config = StreamConfig::default()
        .with_failure(0, 1)
        .with_max_missing_sub_models(1);
    let report = StreamScheduler::new(plan.clone(), devices, config)
        .unwrap()
        .run(&samples, executors_for(&plan, &calls), concat_fusion())
        .unwrap();
    assert_eq!(report.devices_lost, vec![0]);
    assert_eq!(report.missing_sub_models.len(), 1);
    assert_eq!(report.degraded_rounds, vec![1, 2]);
    // Exactly once, even degraded: every sample fused, none dropped.
    assert_eq!(report.outputs.len(), samples.len());
    // Degraded samples zero-fill exactly the dropped sub-model's slots (each
    // deterministic executor emits two features).
    let missing = report.missing_sub_models[0];
    for (i, out) in report.outputs.iter().enumerate() {
        let degraded = i / 4 >= 1;
        for (k, &v) in out.data().iter().enumerate() {
            if degraded && (missing * 2..missing * 2 + 2).contains(&k) {
                assert_eq!(v, 0.0, "sample {i} slot {k} must be zero-filled");
            } else if k % 2 == 1 {
                // Odd slots carry the sub-model id — constant per slot.
                assert_eq!(v, (k / 2) as f32, "sample {i} slot {k}");
            }
        }
    }
}

#[test]
fn degradation_past_the_limit_is_a_typed_error() {
    let (plan, devices) = tight_cluster(3);
    // Both roomy devices die; the tight survivor can host one of the three
    // sub-models, which would drop two — more than the configured limit.
    let calls = Arc::new(AtomicUsize::new(0));
    let config = StreamConfig::default()
        .with_failure(0, 1)
        .with_failure(1, 1)
        .with_max_missing_sub_models(1);
    let err = StreamScheduler::new(plan.clone(), devices, config)
        .unwrap()
        .run(&inputs(12), executors_for(&plan, &calls), concat_fusion())
        .unwrap_err();
    assert!(
        matches!(err, SchedError::DegradationLimit { ref missing, limit: 1 } if missing.len() == 2),
        "{err}"
    );
}

#[test]
fn partial_final_round_is_priced_at_its_actual_sample_count() {
    let devices = DeviceSpec::raspberry_pi_cluster(3);
    let plan = plan_for(&devices);
    let calls = Arc::new(AtomicUsize::new(0));
    // 6 samples in rounds of 4: the final round carries only 2.
    let samples = inputs(6);
    let config = StreamConfig::default();
    let report = StreamScheduler::new(plan.clone(), devices.clone(), config.clone())
        .unwrap()
        .run(&samples, executors_for(&plan, &calls), concat_fusion())
        .unwrap();
    assert_eq!(report.rounds, 2);
    assert_eq!(report.outputs.len(), 6);

    // Reconstruct the expected charge from the same analytic model: the full
    // round pays the pipeline fill, the 2-sample tail pays a 2-sample
    // interval — not a nominal 4-sample one.
    let model = edvit_edge::LatencyModel::new(config.network);
    let full = model.estimate_stream(&plan, &devices, 4, true).unwrap();
    let tail = model.estimate_stream(&plan, &devices, 2, true).unwrap();
    let expected =
        full.device_round_seconds + full.fusion_round_seconds + tail.round_interval_seconds;
    assert!(
        (report.simulated_total_seconds - expected).abs() < 1e-9,
        "simulated {} != expected {expected}",
        report.simulated_total_seconds
    );
    // The regression guard: the old accounting billed both rounds at the
    // nominal round size, which is strictly more time.
    assert!(
        report.simulated_total_seconds < full.total_seconds(2),
        "partial tail round must cost less than a nominal one: {} !< {}",
        report.simulated_total_seconds,
        full.total_seconds(2)
    );
    // Realized throughput divides by the 6 samples actually fused.
    let effective = 6.0 / report.simulated_total_seconds;
    assert!(
        (report.effective_samples_per_second - effective).abs() < 1e-9,
        "effective {} != {effective}",
        report.effective_samples_per_second
    );
    // And therefore beats what the nominal-priced schedule would realize.
    assert!(report.effective_samples_per_second > 6.0 / full.total_seconds(2));
}

#[test]
fn explicit_round_layouts_drive_variable_size_batches_end_to_end() {
    let devices = DeviceSpec::raspberry_pi_cluster(3);
    let plan = plan_for(&devices);
    let calls = Arc::new(AtomicUsize::new(0));
    let samples = inputs(9);
    let layout = RoundLayout::from_sizes(&[2, 4, 1, 2]).unwrap();
    let scheduler = StreamScheduler::new(plan.clone(), devices, StreamConfig::default()).unwrap();
    let report = scheduler
        .run_rounds(
            &samples,
            &layout,
            executors_for(&plan, &calls),
            concat_fusion(),
        )
        .unwrap();
    assert_eq!(report.rounds, 4);
    assert_eq!(report.outputs.len(), 9);
    assert!(report.effective_samples_per_second > 0.0);

    // Continuous batches fuse the same outputs as the uniform layout.
    let uniform = scheduler
        .run(&samples, executors_for(&plan, &calls), concat_fusion())
        .unwrap();
    for (a, b) in report.outputs.iter().zip(&uniform.outputs) {
        assert_eq!(a.data(), b.data());
    }
    // A layout that does not cover the inputs is a typed error.
    let wrong = RoundLayout::from_sizes(&[2, 2]).unwrap();
    let err = scheduler
        .run_rounds(
            &samples,
            &wrong,
            executors_for(&plan, &calls),
            concat_fusion(),
        )
        .unwrap_err();
    assert!(matches!(err, SchedError::InvalidConfig { .. }), "{err}");
}
