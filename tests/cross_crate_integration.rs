//! Integration tests spanning the substrate crates directly (planner → edge
//! simulator → analysis) without the full pipeline.

use edvit::edge::{LatencyModel, NetworkConfig};
use edvit::partition::{DeviceSpec, PlannerConfig, SplitPlanner};
use edvit::vit::{analysis, ViTConfig};

#[test]
fn paper_scale_plan_latency_and_memory_bands() {
    let planner = SplitPlanner::new(PlannerConfig::default());
    let base = ViTConfig::vit_base(10);
    let latency_model = LatencyModel::new(NetworkConfig::paper_default());

    let mut previous_latency = f64::INFINITY;
    for devices in [2usize, 3, 5, 10] {
        let cluster = DeviceSpec::raspberry_pi_cluster(devices);
        let plan = planner.plan(&base, &cluster, 7).unwrap();
        assert!(plan.total_memory_mb() <= 180.0);
        let latency = latency_model.estimate_batched(&plan, &cluster, 1).unwrap();
        assert!(latency.total_seconds < previous_latency);
        previous_latency = latency.total_seconds;
        // Communication stays negligible, as §V-D argues.
        assert!(latency.communication_fraction() < 0.05);
    }
    // The 10-device deployment achieves a large speedup over the original.
    let original = analysis::cost_of_config(&base);
    let single_device_latency = DeviceSpec::raspberry_pi_4b(0).execution_seconds(original.flops);
    assert!(single_device_latency / previous_latency > 10.0);
}

#[test]
fn memory_reduction_factor_matches_paper_band() {
    // Paper: up to 34.1x per-sub-model size reduction for ViT-Base at 10
    // devices (9.60 MB vs 327 MB).
    let planner = SplitPlanner::new(PlannerConfig::default());
    let base = ViTConfig::vit_base(10);
    let plan = planner
        .plan(&base, &DeviceSpec::raspberry_pi_cluster(10), 3)
        .unwrap();
    let original_mb = analysis::cost_of_config(&base).memory_mb();
    let smallest_sub_mb = plan
        .sub_models
        .iter()
        .map(|s| s.cost.memory_mb())
        .fold(f64::INFINITY, f64::min);
    let reduction = original_mb / smallest_sub_mb;
    assert!(
        reduction > 15.0 && reduction < 60.0,
        "reduction factor {reduction} outside the plausible band around the paper's 34.1x"
    );
}

#[test]
fn audio_and_vision_models_have_nearly_equal_flops() {
    // Table II: CIFAR-10 16.86 G vs GTZAN 16.79 G — the only difference is the
    // patch embedding input channels.
    let vision = analysis::cost_of_config(&ViTConfig::vit_base(10));
    let audio = analysis::cost_of_config(&ViTConfig::vit_base(10).with_channels(1));
    assert!(vision.flops > audio.flops);
    let relative = (vision.flops - audio.flops) as f64 / vision.flops as f64;
    assert!(
        relative < 0.02,
        "channel change should move FLOPs by <2%, got {relative}"
    );
}
