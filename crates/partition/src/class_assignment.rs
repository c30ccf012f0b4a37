//! Balanced random assignment of classes to sub-models (Algorithm 1, lines
//! 3–6): every class belongs to exactly one sub-model and subset sizes differ
//! by at most one.

use edvit_tensor::init::TensorRng;

use crate::{PartitionError, Result};

/// Randomly partitions `num_classes` classes into `num_submodels` subsets of
/// nearly equal size (sizes differ by at most one), as required by the
/// repeat-until loop in Algorithm 1.
///
/// # Errors
///
/// Returns [`PartitionError::InvalidConfig`] when there are zero classes, zero
/// sub-models, or more sub-models than classes (a sub-model would have no
/// class to detect).
///
/// # Example
///
/// ```
/// use edvit_partition::balanced_class_assignment;
///
/// let subsets = balanced_class_assignment(10, 3, 1).unwrap();
/// assert_eq!(subsets.len(), 3);
/// let sizes: Vec<usize> = subsets.iter().map(|s| s.len()).collect();
/// assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
/// ```
pub fn balanced_class_assignment(
    num_classes: usize,
    num_submodels: usize,
    seed: u64,
) -> Result<Vec<Vec<usize>>> {
    if num_classes == 0 || num_submodels == 0 {
        return Err(PartitionError::InvalidConfig {
            message: format!(
                "need at least one class and one sub-model (got {num_classes} classes, {num_submodels} sub-models)"
            ),
        });
    }
    if num_submodels > num_classes {
        return Err(PartitionError::InvalidConfig {
            message: format!(
                "{num_submodels} sub-models cannot each own a class out of only {num_classes} classes"
            ),
        });
    }
    let mut classes: Vec<usize> = (0..num_classes).collect();
    TensorRng::new(seed).shuffle(&mut classes);
    let mut subsets: Vec<Vec<usize>> = vec![Vec::new(); num_submodels];
    for (i, class) in classes.into_iter().enumerate() {
        subsets[i % num_submodels].push(class);
    }
    for subset in &mut subsets {
        subset.sort_unstable();
    }
    Ok(subsets)
}

/// Validates that a class assignment covers every class exactly once and is
/// balanced to within one class — the constraint `Σ_i x_ie = 1, ∀e ∈ C` plus
/// the `| |C_a| − |C_b| | ≤ 1` condition of Algorithm 1.
///
/// # Errors
///
/// Returns [`PartitionError::InvalidConfig`] describing the first violation.
pub fn validate_class_assignment(subsets: &[Vec<usize>], num_classes: usize) -> Result<()> {
    if subsets.is_empty() {
        return Err(PartitionError::InvalidConfig {
            message: "no sub-models in class assignment".to_string(),
        });
    }
    let mut seen = vec![false; num_classes];
    for subset in subsets {
        for &class in subset {
            if class >= num_classes {
                return Err(PartitionError::InvalidConfig {
                    message: format!("class {class} out of range for {num_classes} classes"),
                });
            }
            if seen[class] {
                return Err(PartitionError::InvalidConfig {
                    message: format!("class {class} assigned to more than one sub-model"),
                });
            }
            seen[class] = true;
        }
    }
    if let Some(missing) = seen.iter().position(|&s| !s) {
        return Err(PartitionError::InvalidConfig {
            message: format!("class {missing} not assigned to any sub-model"),
        });
    }
    let sizes: Vec<usize> = subsets.iter().map(std::vec::Vec::len).collect();
    #[expect(clippy::expect_used, reason = "an empty assignment is rejected above")]
    let max = *sizes.iter().max().expect("non-empty");
    #[expect(clippy::expect_used, reason = "an empty assignment is rejected above")]
    let min = *sizes.iter().min().expect("non-empty");
    if max - min > 1 {
        return Err(PartitionError::InvalidConfig {
            message: format!("unbalanced class assignment: sizes range from {min} to {max}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_are_balanced_and_complete() {
        for (classes, submodels) in [
            (10, 1),
            (10, 2),
            (10, 3),
            (10, 5),
            (10, 10),
            (257, 10),
            (35, 7),
        ] {
            let subsets = balanced_class_assignment(classes, submodels, 3).unwrap();
            assert_eq!(subsets.len(), submodels);
            validate_class_assignment(&subsets, classes).unwrap();
        }
    }

    #[test]
    fn deterministic_given_seed_and_varies_across_seeds() {
        let a = balanced_class_assignment(20, 4, 9).unwrap();
        let b = balanced_class_assignment(20, 4, 9).unwrap();
        assert_eq!(a, b);
        let c = balanced_class_assignment(20, 4, 10).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(balanced_class_assignment(0, 1, 0).is_err());
        assert!(balanced_class_assignment(5, 0, 0).is_err());
        assert!(balanced_class_assignment(3, 5, 0).is_err());
    }

    #[test]
    fn validation_detects_problems() {
        // Duplicate class.
        assert!(validate_class_assignment(&[vec![0, 1], vec![1]], 3).is_err());
        // Missing class.
        assert!(validate_class_assignment(&[vec![0], vec![1]], 3).is_err());
        // Out of range.
        assert!(validate_class_assignment(&[vec![0, 5]], 3).is_err());
        // Unbalanced.
        assert!(validate_class_assignment(&[vec![0, 1, 2], vec![3]], 4).is_err());
        // Empty.
        assert!(validate_class_assignment(&[], 1).is_err());
        // Good.
        validate_class_assignment(&[vec![0, 2], vec![1, 3]], 4).unwrap();
    }
}
