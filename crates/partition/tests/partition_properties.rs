//! Property-based tests of the partitioning invariants: class assignments
//! cover every class exactly once, greedy assignments never exceed device
//! capacities, and split plans always respect the memory budget.

use edvit_partition::{
    balanced_class_assignment, greedy_assign, validate_class_assignment, DeviceSpec, PlannerConfig,
    SplitPlanner, SubModelRequirements,
};
use edvit_vit::ViTConfig;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn class_assignment_is_a_balanced_partition(
        classes in 1usize..80,
        seed in 0u64..1000,
    ) {
        let submodels = 1 + seed as usize % classes;
        let subsets = balanced_class_assignment(classes, submodels, seed).unwrap();
        validate_class_assignment(&subsets, classes).unwrap();
        // Exactly `classes` entries in total.
        let total: usize = subsets.iter().map(std::vec::Vec::len).sum();
        prop_assert_eq!(total, classes);
    }

    #[test]
    fn greedy_assignment_never_exceeds_capacities(
        n_models in 1usize..8,
        n_devices in 1usize..6,
        seed in 0u64..500,
    ) {
        // Random but bounded requirements.
        let reqs: Vec<SubModelRequirements> = (0..n_models)
            .map(|i| SubModelRequirements {
                sub_model: i,
                memory_bytes: 1_000 + ((seed + i as u64 * 37) % 5_000),
                flops_per_sample: 10_000 + ((seed * 13 + i as u64 * 91) % 50_000),
            })
            .collect();
        let devices: Vec<DeviceSpec> = (0..n_devices)
            .map(|i| DeviceSpec::new(i, format!("d{i}"), 8_000, 1.0, 120_000))
            .collect();
        if let Some(assignment) = greedy_assign(&reqs, &devices, 1).unwrap() {
            // Every sub-model placed exactly once.
            prop_assert_eq!(assignment.assignments.len(), n_models);
            // Per-device totals respect capacities.
            for device in &devices {
                let hosted = assignment.sub_models_on(device.id);
                let mem: u64 = hosted.iter().map(|&m| reqs[m].memory_bytes).sum();
                let flops: u64 = hosted.iter().map(|&m| reqs[m].flops_per_sample).sum();
                prop_assert!(mem <= device.memory_bytes);
                prop_assert!(flops <= device.energy_budget_flops);
            }
            // The reported objective value is non-negative.
            prop_assert!(assignment.min_remaining_energy >= 0.0);
        }
    }

    #[test]
    fn split_plans_respect_the_budget_and_cover_classes(
        devices in 1usize..10,
        budget_mb in 60u64..400,
        seed in 0u64..200,
    ) {
        let planner = SplitPlanner::new(PlannerConfig {
            memory_budget_bytes: budget_mb * 1_000_000,
        });
        let base = ViTConfig::vit_base(10);
        let cluster = DeviceSpec::raspberry_pi_cluster(devices);
        match planner.plan(&base, &cluster, seed) {
            Ok(plan) => {
                prop_assert!(plan.total_memory_bytes <= budget_mb * 1_000_000);
                prop_assert_eq!(plan.sub_models.len(), devices);
                let mut covered: Vec<usize> =
                    plan.sub_models.iter().flat_map(|s| s.classes.clone()).collect();
                covered.sort_unstable();
                prop_assert_eq!(covered, (0..10).collect::<Vec<_>>());
                // Every sub-model keeps at least one head's worth of width.
                for sub in &plan.sub_models {
                    prop_assert!(sub.pruned.embed_dim() >= base.head_dim());
                    prop_assert!(sub.cost.memory_bytes > 0);
                }
            }
            Err(_) => {
                // Infeasibility is only acceptable for very tight budgets:
                // each sub-model needs at least the 1-head model to fit.
                let minimal = edvit_vit::analysis::cost_of_pruned(
                    &edvit_vit::PrunedViTConfig::new(base.clone(), base.heads - 1).unwrap(),
                )
                .memory_bytes;
                prop_assert!(
                    minimal * devices as u64 > budget_mb * 1_000_000,
                    "planner reported infeasible although {} sub-models of {} bytes fit {} MB",
                    devices,
                    minimal,
                    budget_mb
                );
            }
        }
    }

    #[test]
    fn device_latency_is_monotone_in_flops(flops_a in 1u64..10_000_000_000, flops_b in 1u64..10_000_000_000) {
        let pi = DeviceSpec::raspberry_pi_4b(0);
        let (lo, hi) = if flops_a <= flops_b { (flops_a, flops_b) } else { (flops_b, flops_a) };
        prop_assert!(pi.execution_seconds(lo) <= pi.execution_seconds(hi));
    }
}
