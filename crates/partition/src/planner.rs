//! The model-splitting planner (Algorithm 1): decides class subsets, a
//! pruning level for every sub-model, and a device assignment that satisfies
//! the memory budget, re-pruning iteratively when the plan does not fit.

use edvit_vit::{analysis, analysis::ModelCost, PrunedViTConfig, ViTConfig};

use crate::{
    balanced_class_assignment, greedy_assign, validate_class_assignment, DeviceSpec,
    ModelAssignment, PartitionError, Result, SubModelRequirements,
};

/// The paper's `L`: inference samples processed per energy-budget window of
/// problem (1). Every plan and replan prices energy over this window; it is
/// *not* the wire round size (`L` prices energy, a round size prices
/// batching).
const ENERGY_WINDOW_SAMPLES: u64 = 1;

/// Safety cap on Algorithm 1's re-pruning iterations.
const MAX_ITERATIONS: usize = 10_000;

/// The splitting planner's input beside the model and the devices.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// Total memory budget `bu` across all sub-models, in bytes (the paper
    /// uses 180 MB for ViT-Base, 50 MB for ViT-Small, 600 MB for ViT-Large).
    pub memory_budget_bytes: u64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            memory_budget_bytes: 180_000_000,
        }
    }
}

/// The plan for one sub-model: its class subset, pruning level and analytic
/// cost.
#[derive(Debug, Clone, PartialEq)]
pub struct SubModelPlan {
    /// Index of the sub-model (0-based).
    pub index: usize,
    /// Global class indices this sub-model is responsible for.
    pub classes: Vec<usize>,
    /// Pruning plan (retention factor, kept widths).
    pub pruned: PrunedViTConfig,
    /// Analytic parameter / FLOPs / memory cost.
    pub cost: ModelCost,
}

/// A complete, feasible split-and-deployment plan.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitPlan {
    /// Per-sub-model plans, indexed by sub-model id.
    pub sub_models: Vec<SubModelPlan>,
    /// Device assignment produced by the greedy search.
    pub assignment: ModelAssignment,
    /// Total memory across sub-models in bytes.
    pub total_memory_bytes: u64,
    /// Number of re-pruning iterations Algorithm 1 needed.
    pub iterations: usize,
}

impl SplitPlan {
    /// Total memory in (decimal) megabytes, the unit of the paper's figures.
    pub fn total_memory_mb(&self) -> f64 {
        self.total_memory_bytes as f64 / 1e6
    }

    /// The largest per-sample FLOP count across sub-models — the compute that
    /// determines the parallel inference latency lower bound.
    pub fn max_sub_model_flops(&self) -> u64 {
        self.sub_models
            .iter()
            .map(|s| s.cost.flops)
            .max()
            .unwrap_or(0)
    }

    /// Re-plans the deployment after membership churn, whatever the cause —
    /// a device died, left or joined. Every sub-model keeps its metadata
    /// (class subsets, pruning levels and costs are trained artifacts that
    /// cannot change mid-stream, and the fusion layout must stay stable);
    /// only the greedy assignment of Algorithm 3 re-runs, over the current
    /// `members`. Orphaned sub-models land on live hosts, and new capacity
    /// absorbs any that an earlier degradation left unhosted — all without a
    /// full re-split.
    ///
    /// When the members cannot host every sub-model, sub-models are dropped
    /// one at a time — largest memory footprint first, the same victim order
    /// Algorithm 1 uses for re-pruning — until the rest fit. The returned
    /// assignment covers only the kept sub-models; the second element lists
    /// the dropped (unhosted) sub-model indices in ascending order, empty
    /// when every sub-model is hosted.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidConfig`] for an empty member list or
    /// duplicate device ids, and [`PartitionError::Infeasible`] when not even
    /// one sub-model can be hosted.
    pub fn replan(&self, members: &[DeviceSpec]) -> Result<(SplitPlan, Vec<usize>)> {
        self.replan_over(members, ENERGY_WINDOW_SAMPLES)
    }

    /// [`SplitPlan::replan`] that accepts only full coverage, over an energy
    /// window of `samples_per_round` samples. Only the repo benchmark's
    /// `partition.replan_us` probe calls it; it goes when that probe moves
    /// to [`SplitPlan::replan`].
    ///
    /// # Errors
    ///
    /// As [`SplitPlan::replan`], plus [`PartitionError::Infeasible`] when the
    /// members cannot host every sub-model.
    #[doc(hidden)]
    pub fn replan_for_joiners(
        &self,
        members: &[DeviceSpec],
        samples_per_round: u64,
    ) -> Result<SplitPlan> {
        let (plan, dropped) = self.replan_over(members, samples_per_round)?;
        if !dropped.is_empty() {
            return Err(PartitionError::Infeasible {
                reason: format!(
                    "{} member device(s) cannot host the {} existing sub-models",
                    members.len(),
                    self.sub_models.len()
                ),
            });
        }
        Ok(plan)
    }

    fn replan_over(
        &self,
        members: &[DeviceSpec],
        samples_per_round: u64,
    ) -> Result<(SplitPlan, Vec<usize>)> {
        if members.is_empty() {
            return Err(PartitionError::InvalidConfig {
                message: "cannot re-plan onto an empty membership".to_string(),
            });
        }
        let mut ids: Vec<usize> = members.iter().map(|d| d.id).collect();
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return Err(PartitionError::InvalidConfig {
                message: "membership contains duplicate device ids; a rejoining device \
                          must be a new identity-epoch, not a second copy"
                    .to_string(),
            });
        }
        let mut kept = self.requirements();
        let mut dropped: Vec<usize> = Vec::new();
        while !kept.is_empty() {
            if let Some(assignment) = greedy_assign(&kept, members, samples_per_round)? {
                dropped.sort_unstable();
                return Ok((
                    SplitPlan {
                        sub_models: self.sub_models.clone(),
                        assignment,
                        total_memory_bytes: self.total_memory_bytes,
                        iterations: self.iterations,
                    },
                    dropped,
                ));
            }
            let Some((victim, _)) = kept.iter().enumerate().max_by_key(|(_, r)| r.memory_bytes)
            else {
                break;
            };
            dropped.push(kept.remove(victim).sub_model);
        }
        Err(PartitionError::Infeasible {
            reason: format!(
                "{} device(s) cannot host even one of the {} sub-models",
                members.len(),
                self.sub_models.len()
            ),
        })
    }

    /// Hosting requirements of every sub-model, in index order.
    fn requirements(&self) -> Vec<SubModelRequirements> {
        self.sub_models
            .iter()
            .map(|s| SubModelRequirements {
                sub_model: s.index,
                memory_bytes: s.cost.memory_bytes,
                flops_per_sample: s.cost.flops,
            })
            .collect()
    }
}

/// Algorithm 1: split a Vision Transformer into one sub-model per edge device,
/// prune each sub-model until the set fits the memory budget and admits a
/// greedy device assignment.
#[derive(Debug, Clone)]
pub struct SplitPlanner {
    config: PlannerConfig,
}

impl SplitPlanner {
    /// Creates a planner with the given configuration.
    pub fn new(config: PlannerConfig) -> Self {
        SplitPlanner { config }
    }

    /// Produces a feasible [`SplitPlan`] for deploying `base` across
    /// `devices`, or an error when no amount of pruning makes it fit.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::InvalidConfig`] for empty device lists or
    /// invalid base configurations, and [`PartitionError::Infeasible`] when
    /// even maximal pruning cannot satisfy the budget and assignment.
    pub fn plan(&self, base: &ViTConfig, devices: &[DeviceSpec], seed: u64) -> Result<SplitPlan> {
        if devices.is_empty() {
            return Err(PartitionError::InvalidConfig {
                message: "cannot plan a deployment onto zero devices".to_string(),
            });
        }
        base.validate()?;
        let n = devices.len();
        let class_subsets = balanced_class_assignment(base.num_classes, n, seed)?;
        validate_class_assignment(&class_subsets, base.num_classes)?;

        // Initial pruning level: retain roughly 1/N of the width per
        // sub-model so the N sub-models together cost about as much as the
        // original model, which is the paper's starting point.
        let mut pruned_heads = vec![base.heads - base.heads.div_ceil(n); n];

        let mut iterations = 0usize;
        loop {
            iterations += 1;
            if iterations > MAX_ITERATIONS {
                return Err(PartitionError::Infeasible {
                    reason: format!("no feasible plan within {MAX_ITERATIONS} iterations"),
                });
            }

            let pruned_configs: Vec<PrunedViTConfig> = pruned_heads
                .iter()
                .map(|&hp| PrunedViTConfig::new(base.clone(), hp))
                .collect::<std::result::Result<_, _>>()?;
            let costs: Vec<ModelCost> = pruned_configs
                .iter()
                .map(analysis::cost_of_pruned)
                .collect();
            let total_memory: u64 = costs.iter().map(|c| c.memory_bytes).sum();

            // Line 12: only try to assign when the total budget is respected.
            let assignment = if total_memory <= self.config.memory_budget_bytes {
                let requirements: Vec<SubModelRequirements> = costs
                    .iter()
                    .enumerate()
                    .map(|(i, c)| SubModelRequirements {
                        sub_model: i,
                        memory_bytes: c.memory_bytes,
                        flops_per_sample: c.flops,
                    })
                    .collect();
                greedy_assign(&requirements, devices, ENERGY_WINDOW_SAMPLES)?
            } else {
                None
            };

            if let Some(assignment) = assignment {
                let sub_models = pruned_configs
                    .into_iter()
                    .zip(costs)
                    .enumerate()
                    .map(|(index, (pruned, cost))| SubModelPlan {
                        index,
                        classes: class_subsets[index].clone(),
                        pruned,
                        cost,
                    })
                    .collect();
                return Ok(SplitPlan {
                    sub_models,
                    assignment,
                    total_memory_bytes: total_memory,
                    iterations,
                });
            }

            // Line 18: prune one more head's worth of width from the
            // sub-model with the largest memory footprint.
            let Some((largest, _)) = costs.iter().enumerate().max_by_key(|(_, c)| c.memory_bytes)
            else {
                return Err(PartitionError::InvalidConfig {
                    message: "a plan needs at least one sub-model".to_string(),
                });
            };
            if pruned_heads[largest] + 1 >= base.heads {
                return Err(PartitionError::Infeasible {
                    reason: format!(
                        "memory budget of {} bytes cannot be met even at maximum pruning",
                        self.config.memory_budget_bytes
                    ),
                });
            }
            pruned_heads[largest] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner_with_budget(mb: u64) -> SplitPlanner {
        SplitPlanner::new(PlannerConfig {
            memory_budget_bytes: mb * 1_000_000,
        })
    }

    #[test]
    fn plan_fits_budget_and_covers_classes() {
        let planner = planner_with_budget(180);
        let base = ViTConfig::vit_base(10);
        for n in [1usize, 2, 3, 5, 10] {
            let devices = DeviceSpec::raspberry_pi_cluster(n);
            let plan = planner.plan(&base, &devices, 1).unwrap();
            assert_eq!(plan.sub_models.len(), n);
            assert!(
                plan.total_memory_bytes <= 180_000_000,
                "n={n}: {}",
                plan.total_memory_mb()
            );
            // Every class covered exactly once.
            let mut all: Vec<usize> = plan
                .sub_models
                .iter()
                .flat_map(|s| s.classes.clone())
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..10).collect::<Vec<_>>());
            // Assignment covers every sub-model.
            for s in &plan.sub_models {
                assert!(plan.assignment.device_for(s.index).is_some());
            }
            assert!(plan.max_sub_model_flops() > 0);
        }
    }

    #[test]
    fn more_devices_means_smaller_sub_models() {
        let planner = planner_with_budget(180);
        let base = ViTConfig::vit_base(10);
        let flops_2 = planner
            .plan(&base, &DeviceSpec::raspberry_pi_cluster(2), 2)
            .unwrap()
            .max_sub_model_flops();
        let flops_5 = planner
            .plan(&base, &DeviceSpec::raspberry_pi_cluster(5), 2)
            .unwrap()
            .max_sub_model_flops();
        let flops_10 = planner
            .plan(&base, &DeviceSpec::raspberry_pi_cluster(10), 2)
            .unwrap()
            .max_sub_model_flops();
        assert!(flops_2 > flops_5, "{flops_2} vs {flops_5}");
        assert!(flops_5 > flops_10, "{flops_5} vs {flops_10}");
    }

    #[test]
    fn single_device_prunes_to_fit_budget() {
        // ViT-Base is ~330 MB; one device with a 180 MB budget forces pruning
        // (this is the paper's 1-device compression-only configuration).
        let planner = planner_with_budget(180);
        let base = ViTConfig::vit_base(10);
        let plan = planner
            .plan(&base, &DeviceSpec::raspberry_pi_cluster(1), 3)
            .unwrap();
        assert_eq!(plan.sub_models.len(), 1);
        assert!(plan.sub_models[0].pruned.pruned_heads() > 0);
        assert!(plan.total_memory_bytes <= 180_000_000);
        assert!(plan.iterations >= 1);
    }

    #[test]
    fn vit_small_and_large_budgets_from_the_paper() {
        // Fig. 6 settings: 50 MB for ViT-Small, 600 MB for ViT-Large.
        let base_small = ViTConfig::vit_small(10);
        let plan = planner_with_budget(50)
            .plan(&base_small, &DeviceSpec::raspberry_pi_cluster(5), 4)
            .unwrap();
        assert!(plan.total_memory_mb() <= 50.0);
        let base_large = ViTConfig::vit_large(10);
        let plan = planner_with_budget(600)
            .plan(&base_large, &DeviceSpec::raspberry_pi_cluster(5), 4)
            .unwrap();
        assert!(plan.total_memory_mb() <= 600.0);
    }

    #[test]
    fn infeasible_budget_is_reported() {
        let planner = planner_with_budget(1); // 1 MB is hopeless for ViT-Base
        let base = ViTConfig::vit_base(10);
        let err = planner
            .plan(&base, &DeviceSpec::raspberry_pi_cluster(2), 5)
            .unwrap_err();
        assert!(matches!(err, PartitionError::Infeasible { .. }));
    }

    #[test]
    fn rejects_empty_devices_and_bad_config() {
        let planner = planner_with_budget(180);
        assert!(planner.plan(&ViTConfig::vit_base(10), &[], 0).is_err());
        let mut bad = ViTConfig::vit_base(10);
        bad.embed_dim = 7;
        assert!(planner
            .plan(&bad, &DeviceSpec::raspberry_pi_cluster(2), 0)
            .is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let planner = planner_with_budget(180);
        let base = ViTConfig::vit_base(10);
        let devices = DeviceSpec::raspberry_pi_cluster(3);
        let a = planner.plan(&base, &devices, 11).unwrap();
        let b = planner.plan(&base, &devices, 11).unwrap();
        assert_eq!(a, b);
        let c = planner.plan(&base, &devices, 12).unwrap();
        assert_ne!(
            a.sub_models
                .iter()
                .map(|s| s.classes.clone())
                .collect::<Vec<_>>(),
            c.sub_models
                .iter()
                .map(|s| s.classes.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn replan_for_survivors_keeps_sub_models_and_moves_orphans() {
        let planner = planner_with_budget(180);
        let base = ViTConfig::vit_base(10);
        let devices = DeviceSpec::raspberry_pi_cluster(4);
        let plan = planner.plan(&base, &devices, 9).unwrap();
        // Device 2 dies; the survivors' replan (the same call a join makes)
        // must re-host its sub-models.
        let survivors: Vec<DeviceSpec> = devices.iter().filter(|d| d.id != 2).cloned().collect();
        let (replanned, dropped) = plan.replan(&survivors).unwrap();
        assert!(dropped.is_empty());
        assert_eq!(replanned.sub_models, plan.sub_models);
        assert_eq!(replanned.total_memory_bytes, plan.total_memory_bytes);
        for sub in &replanned.sub_models {
            let host = replanned.assignment.device_for(sub.index).unwrap();
            assert_ne!(
                host, 2,
                "sub-model {} still assigned to the dead device",
                sub.index
            );
            assert!(survivors.iter().any(|d| d.id == host));
        }
    }

    #[test]
    fn replan_for_survivors_rejects_empty_and_infeasible_survivor_sets() {
        let planner = planner_with_budget(180);
        let base = ViTConfig::vit_base(10);
        let devices = DeviceSpec::raspberry_pi_cluster(3);
        let plan = planner.plan(&base, &devices, 9).unwrap();
        assert!(matches!(
            plan.replan(&[]).unwrap_err(),
            PartitionError::InvalidConfig { .. }
        ));
        // A lone survivor with no energy budget cannot host anything.
        let mut dead = devices[0].clone();
        dead.energy_budget_flops = 0;
        assert!(matches!(
            plan.replan(&[dead]).unwrap_err(),
            PartitionError::Infeasible { .. }
        ));
    }

    #[test]
    fn replan_for_joiners_restores_full_coverage_after_a_degraded_stretch() {
        let planner = planner_with_budget(180);
        let base = ViTConfig::vit_base(10);
        let devices = DeviceSpec::raspberry_pi_cluster(4);
        let plan = planner.plan(&base, &devices, 9).unwrap();
        // Device 3 crashes, then rejoins: the enlarged membership must host
        // every sub-model again and the plan's artifacts must be untouched.
        let survivors: Vec<DeviceSpec> = devices.iter().filter(|d| d.id != 3).cloned().collect();
        let (degraded, dropped) = plan.replan(&survivors).unwrap();
        assert!(dropped.is_empty());
        let mut members = survivors;
        members.push(devices[3].clone());
        let (rejoined, dropped) = degraded.replan(&members).unwrap();
        assert!(dropped.is_empty());
        assert_eq!(rejoined.sub_models, plan.sub_models);
        assert_eq!(rejoined.total_memory_bytes, plan.total_memory_bytes);
        for sub in &rejoined.sub_models {
            let host = rejoined.assignment.device_for(sub.index).unwrap();
            assert!(members.iter().any(|d| d.id == host));
        }
    }

    #[test]
    fn replan_for_joiners_rejects_empty_and_duplicate_memberships() {
        let planner = planner_with_budget(180);
        let base = ViTConfig::vit_base(10);
        let devices = DeviceSpec::raspberry_pi_cluster(2);
        let plan = planner.plan(&base, &devices, 9).unwrap();
        assert!(matches!(
            plan.replan(&[]).unwrap_err(),
            PartitionError::InvalidConfig { .. }
        ));
        let mut doubled = devices.clone();
        doubled.push(devices[0].clone());
        assert!(matches!(
            plan.replan(&doubled).unwrap_err(),
            PartitionError::InvalidConfig { .. }
        ));
        // A joiner with no energy budget adds nothing: still feasible via the
        // original devices, so the join itself must not make things worse.
        let mut exhausted = DeviceSpec::raspberry_pi_4b(9);
        exhausted.energy_budget_flops = 0;
        let mut members = devices.clone();
        members.push(exhausted);
        let (_, dropped) = plan.replan(&members).unwrap();
        assert!(dropped.is_empty());
    }

    #[test]
    fn replan_degraded_drops_largest_sub_models_until_feasible() {
        let planner = planner_with_budget(180);
        let base = ViTConfig::vit_base(10);
        let devices = DeviceSpec::raspberry_pi_cluster(4);
        let plan = planner.plan(&base, &devices, 9).unwrap();
        // A membership too tight for every sub-model: one survivor whose
        // memory fits only some of the four sub-models.
        let max_memory = plan
            .sub_models
            .iter()
            .map(|s| s.cost.memory_bytes)
            .max()
            .unwrap();
        let mut tight = devices[0].clone();
        tight.memory_bytes = max_memory + max_memory / 2;
        let (degraded, dropped) = plan.replan(std::slice::from_ref(&tight)).unwrap();
        // Full coverage is infeasible, so something is dropped — but not all.
        assert!(!dropped.is_empty());
        assert!(dropped.len() < plan.sub_models.len());
        assert!(dropped.windows(2).all(|w| w[0] < w[1]), "sorted ascending");
        // The largest sub-model goes first.
        let largest = plan
            .sub_models
            .iter()
            .max_by_key(|s| s.cost.memory_bytes)
            .unwrap()
            .index;
        assert!(dropped.contains(&largest));
        // Metadata intact; assignment covers exactly the kept sub-models.
        assert_eq!(degraded.sub_models, plan.sub_models);
        for sub in &degraded.sub_models {
            let hosted = degraded.assignment.device_for(sub.index).is_some();
            assert_eq!(hosted, !dropped.contains(&sub.index));
        }
    }

    #[test]
    fn replan_degraded_with_no_hostable_sub_model_is_infeasible() {
        let planner = planner_with_budget(180);
        let base = ViTConfig::vit_base(10);
        let devices = DeviceSpec::raspberry_pi_cluster(2);
        let plan = planner.plan(&base, &devices, 9).unwrap();
        assert!(matches!(
            plan.replan(&[]).unwrap_err(),
            PartitionError::InvalidConfig { .. }
        ));
        let mut dead = devices[0].clone();
        dead.energy_budget_flops = 0;
        assert!(matches!(
            plan.replan(&[dead]).unwrap_err(),
            PartitionError::Infeasible { .. }
        ));
    }

    #[test]
    fn heterogeneous_cluster_still_plans() {
        let planner = planner_with_budget(180);
        let base = ViTConfig::vit_base(10);
        let devices = DeviceSpec::heterogeneous_cluster(4);
        let plan = planner.plan(&base, &devices, 6).unwrap();
        assert_eq!(plan.sub_models.len(), 4);
        // The strongest devices should end up hosting at least one sub-model.
        assert!(!plan.assignment.sub_models_on(0).is_empty());
    }
}
