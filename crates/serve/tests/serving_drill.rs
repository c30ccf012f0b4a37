//! End-to-end serving drills on the virtual clock: continuous batching
//! beats the barrier-per-request baseline on p99 at the same offered load,
//! overload sheds deterministically within per-tenant bounds, the adaptive
//! pipeline depth reacts to backlog, and a mid-drill device crash shows up
//! in the tail latencies — never as a lost request — and degrades the drill
//! exactly when it degrades the stream the drill feeds.

use edvit_edge::{FusionFn, SubModelFn};
use edvit_partition::{DeviceSpec, PlannerConfig, SplitPlan, SplitPlanner};
use edvit_sched::{RoundLayout, SchedError, ScheduleMode, StreamScheduler};
use edvit_serve::{
    ArrivalSpec, DepthController, ServeConfig, ServeError, ServeReport, ServeScheduler, TenantSpec,
};
use edvit_tensor::Tensor;
use edvit_vit::ViTConfig;

fn plan_for(devices: &[DeviceSpec]) -> SplitPlan {
    SplitPlanner::new(PlannerConfig::default())
        .plan(&ViTConfig::vit_base(10), devices, 7)
        .unwrap()
}

fn cluster() -> (SplitPlan, Vec<DeviceSpec>) {
    let devices = DeviceSpec::raspberry_pi_cluster(4);
    (plan_for(&devices), devices)
}

/// Two devices, the second with memory for only its largest sub-model and a
/// half: once device 0 dies, the survivor cannot host the full set (the
/// streaming scheduler's degradation tests use the same construction).
fn tight_cluster() -> (SplitPlan, Vec<DeviceSpec>) {
    let mut devices = DeviceSpec::raspberry_pi_cluster(2);
    let max_cost = plan_for(&devices)
        .sub_models
        .iter()
        .map(|s| s.cost.memory_bytes)
        .max()
        .unwrap();
    devices[1].memory_bytes = max_cost + max_cost / 2;
    (plan_for(&devices), devices)
}

/// Deterministic executors: sub-model `i` maps a sample to
/// `[sum(sample) + i, i]`, so a fused output identifies its sample.
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

/// Fusion-MLP cost used by every drill in this file: roughly one
/// sub-model's worth of MAC-FLOPs, so the fusion stage is comparable to the
/// device stage. That balance is what continuous batching exploits — the
/// pipelined round interval is `max(device, fusion)` where the barrier
/// baseline pays `device + fusion` per request.
const FUSION_FLOPS: u64 = 1_250_000_000;

fn drill_config(tenants: Vec<TenantSpec>, arrivals: ArrivalSpec) -> ServeConfig {
    let mut config = ServeConfig::new(tenants, arrivals);
    config.stream.fusion_flops = FUSION_FLOPS;
    config
}

/// Nominal continuous-batching service capacity of the test cluster, in
/// samples per virtual second.
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
    let scheduler = ServeScheduler::new(plan, devices, config).unwrap();
    scheduler
        .run(&sample_pool(8), executors, concat_fusion())
        .unwrap()
}

/// Roomy tenants so admission never sheds and both modes serve the
/// identical request set.
fn open_tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::new("interactive", 100_000),
        TenantSpec::new("batch", 100_000),
    ]
}

#[test]
fn continuous_batching_beats_barrier_per_request_on_p99() {
    // Offered load: ~80% of the continuous pipeline's nominal capacity —
    // comfortably sustainable when rounds coalesce and the stages overlap,
    // hopeless for a one-request-per-round barrier admitting serially.
    let rate = 0.8 * capacity_per_second();
    let arrivals = ArrivalSpec::new(rate, 96, 11);

    // Pin the pipeline depth at 2 so this test isolates the batching
    // discipline; depth adaptation has its own test below.
    let mut continuous_config = drill_config(open_tenants(), arrivals);
    continuous_config.depth = DepthController {
        min_depth: 2,
        max_depth: 2,
        backlog_rounds: usize::MAX,
    };
    let continuous = run_with(continuous_config);
    let barrier = run_with(drill_config(open_tenants(), arrivals).barrier_per_request());

    // Same offered load, nothing shed on either side: both serve all 96.
    assert_eq!(continuous.admitted, 96);
    assert_eq!(barrier.admitted, 96);
    assert_eq!(continuous.completed, 96);
    assert_eq!(barrier.completed, 96);
    assert_eq!(continuous.shed, 0);
    assert_eq!(barrier.shed, 0);
    assert!(continuous.no_lost_requests());
    assert!(barrier.no_lost_requests());

    // Identical fused tensors per request id, whatever the batching.
    assert_eq!(continuous.outputs.len(), 96);
    for (id, tensor) in &continuous.outputs {
        assert_eq!(tensor.data(), barrier.outputs[id].data());
    }

    // The acceptance bar: continuous batching wins the tail at the same
    // offered load, on the simulated clock.
    assert!(
        continuous.p99_latency_seconds < barrier.p99_latency_seconds,
        "continuous p99 {} !< barrier p99 {}",
        continuous.p99_latency_seconds,
        barrier.p99_latency_seconds
    );
    assert!(continuous.p50_latency_seconds <= barrier.p50_latency_seconds);
    assert!(continuous.served_samples_per_second > barrier.served_samples_per_second);
    // The barrier baseline forms one round per request; continuous coalesces.
    assert_eq!(barrier.rounds_formed, 96);
    assert!(continuous.rounds_formed < barrier.rounds_formed);
    // Continuous batching dispatches under-filled rounds rather than wait.
    assert!(continuous.partial_rounds > 0);
}

#[test]
fn overload_sheds_within_bounds_and_deterministically() {
    // 4x the service capacity: the queues must back up and shed.
    let rate = 4.0 * capacity_per_second();
    let tenants = vec![
        TenantSpec::new("small", 3),
        TenantSpec::new("deadline", 40).with_deadline(30.0),
    ];
    let config = drill_config(tenants.clone(), ArrivalSpec::new(rate, 160, 23));

    let report = run_with(config.clone());
    assert_eq!(report.admitted, 160);
    assert!(report.shed > 0, "4x overload must shed");
    assert!(report.no_lost_requests());
    // Bounds are hard ceilings even at the high-water mark.
    assert!(report.tenants[0].max_queue_depth <= 3);
    assert!(report.tenants[1].max_queue_depth <= 40);
    // The bounded tenant sheds on overflow; the deadline tenant sheds
    // requests that aged past 30 virtual seconds in its deep queue.
    assert!(report.tenants[0].shed_overflow > 0);
    assert!(report.tenants[1].shed_deadline > 0);
    // Every completed request produced an output tensor.
    assert_eq!(report.outputs.len() as u64, report.completed);

    // Same seed, same drill: shed counts and percentiles are bit-identical.
    let again = run_with(config);
    assert_eq!(report.tenants, again.tenants);
    assert_eq!(report.shed, again.shed);
    assert_eq!(report.p99_latency_seconds, again.p99_latency_seconds);
    assert_eq!(report.rounds_formed, again.rounds_formed);
}

#[test]
fn adaptive_depth_deepens_on_fusion_then_shallows_under_backlog() {
    let rate = 3.0 * capacity_per_second();
    let mut config = drill_config(open_tenants(), ArrivalSpec::new(rate, 96, 5));
    config.depth = DepthController {
        min_depth: 1,
        max_depth: 4,
        backlog_rounds: 2,
    };
    // The stream default starts the pipeline at depth 2, leaving room to
    // move both ways.
    assert_eq!(config.stream.pipeline_depth, 2);

    let report = run_with(config);
    assert!(
        !report.depth_changes.is_empty(),
        "sustained 3x overload must trigger at least one depth change"
    );
    // Early, the queue is shallow and fusion is the wider stage: deepen.
    // Once the 3x backlog builds past 2 rounds, shallow back out. (As the
    // finite arrival stream drains at the end, the controller may deepen
    // again — the policy follows the load, it does not ratchet.)
    assert!(report.depth_changes.iter().any(|c| c.to > c.from));
    assert!(report.depth_changes.iter().any(|c| c.to < c.from));
    assert!((1..=4).contains(&report.final_depth));
    for change in &report.depth_changes {
        assert!((1..=4).contains(&change.to), "depth escaped its clamp");
        assert_eq!(change.to.abs_diff(change.from), 1, "one step per decision");
    }
    assert!(report.no_lost_requests());
}

#[test]
fn mid_drill_crash_recovers_in_tail_latency_not_lost_requests() {
    let rate = 0.7 * capacity_per_second();
    let arrivals = ArrivalSpec::new(rate, 64, 17);

    let clean = run_with(drill_config(open_tenants(), arrivals));
    let mut crashed_config = drill_config(open_tenants(), arrivals);
    crashed_config.stream = crashed_config.stream.with_failure(2, 3);
    let crashed = run_with(crashed_config);

    // Recovery accounting: the device is gone, the recovery window is
    // charged, and the run still completes everything it admitted.
    assert_eq!(crashed.devices_lost, vec![2]);
    assert!(crashed.recovery_seconds > 0.0);
    assert_eq!(clean.devices_lost, Vec::<usize>::new());
    assert!(clean.no_lost_requests());
    assert!(crashed.no_lost_requests());
    assert_eq!(crashed.completed, 64);
    assert_eq!(crashed.outputs.len(), 64);

    // The crash shows up where it should: in the tail latency...
    assert!(
        crashed.p99_latency_seconds > clean.p99_latency_seconds,
        "crash p99 {} !> clean p99 {}",
        crashed.p99_latency_seconds,
        clean.p99_latency_seconds
    );
    // ...and not in the results: survivors recompute the same tensors.
    for (id, tensor) in &clean.outputs {
        assert_eq!(tensor.data(), crashed.outputs[id].data());
    }
}

#[test]
fn a_crash_degrades_the_drill_exactly_when_it_degrades_the_stream() {
    let (plan, devices) = tight_cluster();
    assert!(
        !plan.assignment.sub_models_on(0).is_empty(),
        "device 0 must host something for its death to degrade the stream"
    );
    let pool = sample_pool(8);
    let config_with = |limit: usize| {
        let mut config = drill_config(open_tenants(), ArrivalSpec::new(1.0, 1, 0));
        config.stream = config
            .stream
            .with_failure(0, 1)
            .with_max_missing_sub_models(limit);
        let rate = 0.7
            * ServeScheduler::new(plan.clone(), devices.clone(), config.clone())
                .unwrap()
                .nominal_capacity_per_second()
                .unwrap();
        config.arrivals = ArrivalSpec::new(rate, 32, 5);
        config
    };
    // The stream the serve run feeds, run directly on the drill's rounds.
    let stream_over = |config: &ServeConfig, layout: &RoundLayout| {
        let flat: Vec<Tensor> = (0..layout.total_samples())
            .map(|i| pool[i % pool.len()].clone())
            .collect();
        StreamScheduler::new(plan.clone(), devices.clone(), config.stream.clone())
            .unwrap()
            .run_rounds(&flat, layout, executors_for(&plan), concat_fusion())
    };

    // Within the limit: the drill degrades through the crash as the stream
    // does, and every admitted request completes.
    let config = config_with(1);
    let scheduler = ServeScheduler::new(plan.clone(), devices.clone(), config.clone()).unwrap();
    let report = scheduler
        .run(&pool, executors_for(&plan), concat_fusion())
        .unwrap();
    assert_eq!(report.devices_lost, vec![0]);
    assert!(report.rounds_formed >= 3, "{} rounds", report.rounds_formed);
    assert_eq!(report.shed, 0);
    assert_eq!(report.completed, report.admitted);
    assert_eq!(report.outputs.len() as u64, report.admitted);
    assert!(report.no_lost_requests());
    let requests = config
        .arrivals
        .generate(config.tenants.len(), pool.len())
        .unwrap();
    let sizes: Vec<usize> = scheduler
        .drill(&requests)
        .unwrap()
        .rounds
        .iter()
        .map(|r| r.requests.len())
        .collect();
    let layout = RoundLayout::from_sizes(&sizes).unwrap();
    let direct = stream_over(&config, &layout).unwrap();
    let served = report.stream.as_ref().unwrap();
    assert_eq!(direct.missing_sub_models.len(), 1);
    assert_eq!(served.missing_sub_models, direct.missing_sub_models);
    assert_eq!(served.degraded_rounds, direct.degraded_rounds);

    // Degradation off: both fail with the scheduler's own partition error.
    let config = config_with(0);
    let err = ServeScheduler::new(plan.clone(), devices.clone(), config.clone())
        .unwrap()
        .run(&pool, executors_for(&plan), concat_fusion())
        .unwrap_err();
    assert!(
        matches!(err, ServeError::Sched(SchedError::Partition(_))),
        "{err}"
    );
    let err = stream_over(&config, &layout).unwrap_err();
    assert!(matches!(err, SchedError::Partition(_)), "{err}");
}

#[test]
fn degenerate_serving_configurations_are_typed_errors() {
    let (plan, devices) = cluster();
    // No tenants.
    let err = ServeScheduler::new(
        plan.clone(),
        devices.clone(),
        ServeConfig::new(Vec::new(), ArrivalSpec::new(1.0, 1, 0)),
    )
    .unwrap_err();
    assert!(matches!(err, ServeError::InvalidConfig { .. }));
    // No devices.
    let err = ServeScheduler::new(
        plan.clone(),
        Vec::new(),
        ServeConfig::new(open_tenants(), ArrivalSpec::new(1.0, 1, 0)),
    )
    .unwrap_err();
    assert!(matches!(err, ServeError::InvalidConfig { .. }));
    // Unsorted drill arrivals.
    let scheduler = ServeScheduler::new(
        plan,
        devices,
        ServeConfig::new(open_tenants(), ArrivalSpec::new(1.0, 4, 0)),
    )
    .unwrap();
    let mut requests = ArrivalSpec::new(5.0, 4, 9).generate(2, 4).unwrap();
    requests.swap(0, 3);
    assert!(matches!(
        scheduler.drill(&requests).unwrap_err(),
        ServeError::InvalidConfig { .. }
    ));
}

#[test]
fn all_shed_run_skips_execution_entirely() {
    let config = drill_config(
        vec![TenantSpec::new("blocked", 0)],
        ArrivalSpec::new(50.0, 32, 3),
    );
    let report = run_with(config);
    assert_eq!(report.admitted, 32);
    assert_eq!(report.shed, 32);
    assert_eq!(report.completed, 0);
    assert_eq!(report.rounds_formed, 0);
    assert!(report.outputs.is_empty());
    assert!(report.stream.is_none(), "nothing to execute, no stream run");
    assert!(report.no_lost_requests());
    assert_eq!(report.p99_latency_seconds, 0.0);
    assert_eq!(report.tenants[0].shed_overflow, 32);
}

#[test]
fn barrier_mode_reports_its_discipline() {
    let config = drill_config(open_tenants(), ArrivalSpec::new(2.0, 8, 1));
    assert_eq!(config.stream.mode, ScheduleMode::Pipelined);
    let barrier = config.clone().barrier_per_request();
    assert_eq!(barrier.stream.mode, ScheduleMode::Barrier);
    assert_eq!(barrier.stream.round_size, 1);
    let report = run_with(barrier);
    // Depth is pinned at 1 and never adapts in the baseline.
    assert_eq!(report.final_depth, 1);
    assert!(report.depth_changes.is_empty());
    assert!(report.no_lost_requests());
}
