//! Failure-injection tests: infeasible budgets, broken cluster configurations
//! and degenerate datasets must surface as typed errors, never panics.

use edvit::edge::NetworkConfig;
use edvit::partition::{DeviceSpec, PartitionError, PlannerConfig, SplitPlanner};
use edvit::pipeline::{EdVitConfig, EdVitPipeline};
use edvit::vit::ViTConfig;
use edvit::EdVitError;

#[test]
fn impossible_memory_budget_reports_infeasible() {
    let mut config = EdVitConfig::tiny_demo(2);
    config.planner.memory_budget_bytes = 100; // 100 bytes: hopeless
    let err = EdVitPipeline::new(config).run().unwrap_err();
    assert!(matches!(
        err,
        EdVitError::Partition(PartitionError::Infeasible { .. })
    ));
}

#[test]
fn more_devices_than_classes_is_rejected_up_front() {
    let mut config = EdVitConfig::tiny_demo(2);
    config.devices = DeviceSpec::raspberry_pi_cluster(16); // only 4 classes
    let err = EdVitPipeline::new(config).run().unwrap_err();
    assert!(matches!(err, EdVitError::InvalidConfig { .. }));
}

#[test]
fn empty_device_list_is_rejected() {
    let planner = SplitPlanner::new(PlannerConfig::default());
    assert!(planner.plan(&ViTConfig::vit_base(10), &[], 0).is_err());
}

#[test]
fn devices_with_no_energy_cannot_host_anything() {
    let mut dead = DeviceSpec::raspberry_pi_4b(0);
    dead.energy_budget_flops = 0;
    let planner = SplitPlanner::new(PlannerConfig::default());
    let result = planner.plan(&ViTConfig::vit_base(10), &[dead], 0);
    assert!(result.is_err());
}

#[test]
fn zero_bandwidth_network_shows_up_as_infinite_latency_not_panic() {
    let net = NetworkConfig {
        bandwidth_bits_per_second: 0.0,
        per_message_overhead_seconds: 0.0,
    };
    assert!(net.transfer_seconds(100).is_infinite());
}
