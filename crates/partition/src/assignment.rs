//! Greedy sub-model → device assignment (Algorithm 3).

use crate::{DeviceSpec, PartitionError, Result};

/// Resource requirements of one sub-model as seen by the assignment step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubModelRequirements {
    /// Index of the sub-model within the split plan.
    pub sub_model: usize,
    /// Model memory in bytes (`m_j`).
    pub memory_bytes: u64,
    /// Per-sample compute in MAC-FLOPs (`e_j`).
    pub flops_per_sample: u64,
}

/// The device chosen for one sub-model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssignedSubModel {
    /// Index of the sub-model within the split plan.
    pub sub_model: usize,
    /// Identifier of the hosting device.
    pub device_id: usize,
}

/// A complete assignment of sub-models to devices plus the objective value of
/// problem (1).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelAssignment {
    /// One entry per sub-model.
    pub assignments: Vec<AssignedSubModel>,
    /// `min_i (E_i − L·e_j)` after assignment — the quantity the optimization
    /// problem maximizes.
    pub min_remaining_energy: f64,
    /// Remaining memory per device id after assignment.
    pub remaining_memory: Vec<(usize, u64)>,
}

impl ModelAssignment {
    /// Device hosting the given sub-model, if assigned.
    pub fn device_for(&self, sub_model: usize) -> Option<usize> {
        self.assignments
            .iter()
            .find(|a| a.sub_model == sub_model)
            .map(|a| a.device_id)
    }

    /// Sub-models hosted on the given device.
    pub fn sub_models_on(&self, device_id: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .filter(|a| a.device_id == device_id)
            .map(|a| a.sub_model)
            .collect()
    }
}

/// Greedy search assignment (Algorithm 3): sub-models are considered from the
/// most to the least compute-hungry; each is placed on the device with the
/// largest remaining energy that can also hold it in memory. A device that
/// cannot hold the current sub-model is removed from consideration. Returns
/// `None` (the algorithm's `∅`) when some sub-model cannot be placed —
/// Algorithm 1 reacts by pruning more aggressively and retrying.
///
/// `samples_per_round` is the paper's `L`, the number of inference samples to
/// be processed within one energy budget window.
///
/// # Errors
///
/// Returns [`PartitionError::InvalidConfig`] for empty inputs; an infeasible
/// (but well-formed) instance returns `Ok(None)`.
pub fn greedy_assign(
    sub_models: &[SubModelRequirements],
    devices: &[DeviceSpec],
    samples_per_round: u64,
) -> Result<Option<ModelAssignment>> {
    if sub_models.is_empty() {
        return Err(PartitionError::InvalidConfig {
            message: "no sub-models to assign".to_string(),
        });
    }
    if devices.is_empty() {
        return Err(PartitionError::InvalidConfig {
            message: "no devices to assign to".to_string(),
        });
    }

    // Line 1: sort by computation overhead, highest first.
    let mut order: Vec<&SubModelRequirements> = sub_models.iter().collect();
    order.sort_by_key(|d| std::cmp::Reverse(d.flops_per_sample));

    // Mutable remaining capacities, indexed by position in `devices`.
    let mut remaining_energy: Vec<f64> = devices
        .iter()
        .map(|d| d.energy_budget_flops as f64)
        .collect();
    let mut remaining_memory: Vec<u64> = devices.iter().map(|d| d.memory_bytes).collect();
    let mut active: Vec<bool> = vec![true; devices.len()];

    let mut assignments = Vec::with_capacity(sub_models.len());
    for req in order {
        let demand = req.flops_per_sample.saturating_mul(samples_per_round) as f64;
        loop {
            // Line 3: pick the active device with the most remaining energy.
            #[expect(
                clippy::expect_used,
                reason = "remaining energies start from integer budgets and stay finite"
            )]
            let candidate = (0..devices.len()).filter(|&i| active[i]).max_by(|&a, &b| {
                remaining_energy[a]
                    .partial_cmp(&remaining_energy[b])
                    .expect("energies are finite")
            });
            let Some(i) = candidate else {
                // Line 10: the device set is exhausted.
                return Ok(None);
            };
            if remaining_memory[i] >= req.memory_bytes && remaining_energy[i] >= demand {
                remaining_energy[i] -= demand;
                remaining_memory[i] -= req.memory_bytes;
                assignments.push(AssignedSubModel {
                    sub_model: req.sub_model,
                    device_id: devices[i].id,
                });
                break;
            }
            // Line 8: this device cannot host the sub-model; retire it.
            active[i] = false;
        }
    }

    assignments.sort_by_key(|a| a.sub_model);
    let min_remaining_energy = remaining_energy
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let remaining_memory_report = devices
        .iter()
        .enumerate()
        .map(|(i, d)| (d.id, remaining_memory[i]))
        .collect();
    Ok(Some(ModelAssignment {
        assignments,
        min_remaining_energy,
        remaining_memory: remaining_memory_report,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reqs(specs: &[(u64, u64)]) -> Vec<SubModelRequirements> {
        specs
            .iter()
            .enumerate()
            .map(|(i, &(mem, flops))| SubModelRequirements {
                sub_model: i,
                memory_bytes: mem,
                flops_per_sample: flops,
            })
            .collect()
    }

    #[test]
    fn assigns_one_model_per_device_when_plenty() {
        let devices = DeviceSpec::raspberry_pi_cluster(3);
        let sub_models = reqs(&[
            (10_000_000, 1_000_000),
            (10_000_000, 2_000_000),
            (10_000_000, 3_000_000),
        ]);
        let assignment = greedy_assign(&sub_models, &devices, 1).unwrap().unwrap();
        assert_eq!(assignment.assignments.len(), 3);
        // Every sub-model placed, and the busiest one went first to the
        // freest device; all devices end up used (each has equal energy).
        let mut used: Vec<usize> = assignment.assignments.iter().map(|a| a.device_id).collect();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), 3);
        assert!(assignment.min_remaining_energy > 0.0);
    }

    #[test]
    fn stacks_models_on_one_big_device_when_others_are_too_small() {
        let big = DeviceSpec::new(0, "big", 1_000_000, 100.0, 1_000_000);
        let tiny = DeviceSpec::new(1, "tiny", 10, 1.0, 10);
        let sub_models = reqs(&[(100, 100), (100, 100)]);
        let assignment = greedy_assign(&sub_models, &[big, tiny], 1)
            .unwrap()
            .unwrap();
        assert_eq!(assignment.device_for(0), Some(0));
        assert_eq!(assignment.device_for(1), Some(0));
        assert_eq!(assignment.sub_models_on(0), vec![0, 1]);
        assert!(assignment.sub_models_on(1).is_empty());
    }

    #[test]
    fn memory_exhaustion_returns_none() {
        let devices = vec![DeviceSpec::new(0, "small", 100, 100.0, 1_000_000)];
        let sub_models = reqs(&[(80, 10), (80, 10)]);
        assert!(greedy_assign(&sub_models, &devices, 1).unwrap().is_none());
    }

    #[test]
    fn energy_exhaustion_returns_none() {
        let devices = vec![DeviceSpec::new(0, "weak", 1_000_000, 100.0, 50)];
        let sub_models = reqs(&[(10, 100)]);
        assert!(greedy_assign(&sub_models, &devices, 1).unwrap().is_none());
        // With enough samples demanded, even small FLOPs fail.
        let devices = vec![DeviceSpec::new(0, "weak", 1_000_000, 100.0, 1_000)];
        let sub_models = reqs(&[(10, 10)]);
        assert!(greedy_assign(&sub_models, &devices, 200).unwrap().is_none());
        assert!(greedy_assign(&sub_models, &devices, 10).unwrap().is_some());
    }

    #[test]
    fn respects_objective_ordering() {
        // Two devices with unequal budgets: the heavy sub-model goes to the
        // bigger one first (it has the most remaining energy), and the second
        // sub-model follows it because that device *still* has the most
        // remaining energy — exactly the greedy rule of Algorithm 3. The
        // resulting minimum remaining energy is the small device's untouched
        // 400k, which beats splitting the models across devices (300k).
        let devices = vec![
            DeviceSpec::new(0, "big", 1_000_000, 10.0, 1_000_000),
            DeviceSpec::new(1, "small", 1_000_000, 10.0, 400_000),
        ];
        let sub_models = reqs(&[(10, 300_000), (10, 100_000)]);
        let assignment = greedy_assign(&sub_models, &devices, 1).unwrap().unwrap();
        assert_eq!(assignment.device_for(0), Some(0));
        assert_eq!(assignment.device_for(1), Some(0));
        assert!((assignment.min_remaining_energy - 400_000.0).abs() < 1e-6);
    }

    #[test]
    fn empty_inputs_are_errors() {
        let devices = DeviceSpec::raspberry_pi_cluster(1);
        assert!(greedy_assign(&[], &devices, 1).is_err());
        let sub_models = reqs(&[(1, 1)]);
        assert!(greedy_assign(&sub_models, &[], 1).is_err());
    }

    #[test]
    fn remaining_memory_is_reported() {
        let devices = vec![DeviceSpec::new(0, "d", 1_000, 10.0, 1_000_000)];
        let sub_models = reqs(&[(400, 10)]);
        let assignment = greedy_assign(&sub_models, &devices, 1).unwrap().unwrap();
        assert_eq!(assignment.remaining_memory, vec![(0, 600)]);
    }
}
