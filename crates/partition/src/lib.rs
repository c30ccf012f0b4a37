//! # edvit-partition
//!
//! The partitioning side of ED-ViT: class assignment, the greedy sub-model →
//! edge-device assignment of Algorithm 3, and the budget-driven splitting
//! planner of Algorithm 1, all expressed over the analytic cost model of
//! `edvit-vit` (no tensors are touched here).
//!
//! The optimization problem (Section III, Eq. 1) is:
//!
//! ```text
//! maximize   min_i ( E_i − L · e_j )          (slack of the busiest device)
//! subject to L · e_j ≤ E_i                    (energy feasibility)
//!            m_j ≤ M_i                        (per-device memory)
//!            Σ_j m_j ≤ bu                     (total memory budget)
//!            a_fus ≥ A_re                     (accuracy requirement)
//!            every class covered exactly once
//! ```
//!
//! # Example
//!
//! ```
//! use edvit_partition::{DeviceSpec, SplitPlanner, PlannerConfig};
//! use edvit_vit::ViTConfig;
//!
//! # fn main() -> Result<(), edvit_partition::PartitionError> {
//! let devices = DeviceSpec::raspberry_pi_cluster(3);
//! let planner = SplitPlanner::new(PlannerConfig {
//!     memory_budget_bytes: 180 * 1_000_000,
//! });
//! let plan = planner.plan(&ViTConfig::vit_base(10), &devices, 42)?;
//! assert_eq!(plan.sub_models.len(), 3);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod assignment;
mod class_assignment;
mod device;
mod error;
mod planner;

pub use assignment::{greedy_assign, AssignedSubModel, ModelAssignment, SubModelRequirements};
pub use class_assignment::{balanced_class_assignment, validate_class_assignment};
pub use device::DeviceSpec;
pub use error::PartitionError;
pub use planner::{PlannerConfig, SplitPlan, SplitPlanner, SubModelPlan};

/// Convenience result alias for partitioning operations.
pub type Result<T> = std::result::Result<T, PartitionError>;
