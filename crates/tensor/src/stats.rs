//! Distribution utilities: KL divergence, entropy, normalization.
//!
//! ED-ViT's pruning stage scores each prunable component by the
//! Kullback–Leibler divergence between the output distribution of the original
//! model and that of the model with the component removed
//! (`D_KL(P || Q) = Σ_i P(i) log(P(i)/Q(i))`, Section IV-C of the paper).
//! These helpers implement that scoring in a numerically careful way.

use crate::{Tensor, TensorError};

/// Smallest probability substituted for zeros to keep `log` finite.
const PROB_EPS: f32 = 1e-8;

/// Normalizes a non-negative vector into a probability distribution.
///
/// Negative entries are clamped to zero first; an all-zero input becomes the
/// uniform distribution.
///
/// # Errors
///
/// Returns [`TensorError::EmptyInput`] for an empty tensor.
fn normalize_distribution(t: &Tensor) -> Result<Tensor, TensorError> {
    if t.numel() == 0 {
        return Err(TensorError::EmptyInput {
            op: "normalize_distribution",
        });
    }
    let clamped = t.map(|x| x.max(0.0));
    let sum = clamped.sum();
    if sum <= 0.0 {
        let n = clamped.numel();
        return Ok(Tensor::full(clamped.dims(), 1.0 / n as f32));
    }
    Ok(clamped.scale(1.0 / sum))
}

/// Kullback–Leibler divergence `D_KL(P || Q)` between two distributions given
/// as equally-shaped tensors. Inputs are re-normalized defensively and zero
/// probabilities are floored at `PROB_EPS` (1e-8).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when shapes differ or
/// [`TensorError::EmptyInput`] for empty inputs.
///
/// # Example
///
/// ```
/// use edvit_tensor::{stats, Tensor};
/// # fn main() -> Result<(), edvit_tensor::TensorError> {
/// let p = Tensor::from_vec(vec![0.5, 0.5], &[2])?;
/// let q = Tensor::from_vec(vec![0.9, 0.1], &[2])?;
/// let d = stats::kl_divergence(&p, &q)?;
/// assert!(d > 0.0);
/// assert_eq!(stats::kl_divergence(&p, &p)?, 0.0);
/// # Ok(())
/// # }
/// ```
pub fn kl_divergence(p: &Tensor, q: &Tensor) -> Result<f32, TensorError> {
    if !p.shape().same_as(q.shape()) {
        return Err(TensorError::ShapeMismatch {
            lhs: p.dims().to_vec(),
            rhs: q.dims().to_vec(),
            op: "kl_divergence",
        });
    }
    let p = normalize_distribution(p)?;
    let q = normalize_distribution(q)?;
    let mut acc = 0.0f32;
    for (&pi, &qi) in p.data().iter().zip(q.data()) {
        if pi <= 0.0 {
            continue;
        }
        let qi = qi.max(PROB_EPS);
        acc += pi * (pi / qi).ln();
    }
    Ok(acc.max(0.0))
}

/// Mean KL divergence between matching rows of two `[n, c]` batches of
/// distributions — the form actually used when scoring pruning candidates on a
/// calibration batch.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when shapes differ, or rank errors
/// from row iteration.
pub fn batch_kl_divergence(p: &Tensor, q: &Tensor) -> Result<f32, TensorError> {
    if !p.shape().same_as(q.shape()) {
        return Err(TensorError::ShapeMismatch {
            lhs: p.dims().to_vec(),
            rhs: q.dims().to_vec(),
            op: "batch_kl_divergence",
        });
    }
    if p.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: p.rank(),
            op: "batch_kl_divergence",
        });
    }
    let n = p.dims()[0];
    if n == 0 {
        return Err(TensorError::EmptyInput {
            op: "batch_kl_divergence",
        });
    }
    let mut acc = 0.0f32;
    for i in 0..n {
        acc += kl_divergence(&p.row(i)?, &q.row(i)?)?;
    }
    Ok(acc / n as f32)
}

/// Shannon entropy (nats) of a distribution.
///
/// # Errors
///
/// Returns [`TensorError::EmptyInput`] for an empty tensor.
pub fn entropy(p: &Tensor) -> Result<f32, TensorError> {
    let p = normalize_distribution(p)?;
    let mut acc = 0.0f32;
    for &pi in p.data() {
        if pi > 0.0 {
            acc -= pi * pi.ln();
        }
    }
    Ok(acc)
}

/// Classification accuracy between predicted class indices and labels.
///
/// Returns 0.0 for empty inputs; mismatched lengths are compared up to the
/// shorter one, which only ever happens through programmer error upstream and
/// is easier to spot from a bad accuracy than a panic inside a long run.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f32 {
    if predictions.is_empty() || labels.is_empty() {
        return 0.0;
    }
    let n = predictions.len().min(labels.len());
    let correct = predictions
        .iter()
        .zip(labels.iter())
        .take(n)
        .filter(|(p, l)| p == l)
        .count();
    correct as f32 / n as f32
}

/// Mean and sample standard deviation of a slice of trial results (the paper
/// reports `mean ± std` over five runs).
pub fn mean_std(values: &[f32]) -> (f32, f32) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f32>() / values.len() as f32;
    if values.len() == 1 {
        return (mean, 0.0);
    }
    let var =
        values.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / (values.len() - 1) as f32;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn normalize_handles_zeros_and_negatives() {
        let t = Tensor::from_vec(vec![0.0, 0.0, 0.0], &[3]).unwrap();
        let p = normalize_distribution(&t).unwrap();
        for &v in p.data() {
            assert!((v - 1.0 / 3.0).abs() < 1e-6);
        }
        let t = Tensor::from_vec(vec![-1.0, 1.0, 3.0], &[3]).unwrap();
        let p = normalize_distribution(&t).unwrap();
        assert_eq!(p.data()[0], 0.0);
        assert!((p.sum() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn kl_zero_iff_equal() {
        let p = Tensor::from_vec(vec![0.2, 0.3, 0.5], &[3]).unwrap();
        assert_eq!(kl_divergence(&p, &p).unwrap(), 0.0);
        let q = Tensor::from_vec(vec![0.5, 0.3, 0.2], &[3]).unwrap();
        assert!(kl_divergence(&p, &q).unwrap() > 0.0);
    }

    #[test]
    fn kl_known_value() {
        // D_KL([0.5,0.5] || [0.25,0.75]) = 0.5*ln2 + 0.5*ln(2/3) ≈ 0.14384.
        let p = Tensor::from_vec(vec![0.5, 0.5], &[2]).unwrap();
        let q = Tensor::from_vec(vec![0.25, 0.75], &[2]).unwrap();
        let d = kl_divergence(&p, &q).unwrap();
        assert!((d - 0.143841).abs() < 1e-4, "d = {d}");
    }

    #[test]
    fn kl_is_asymmetric_symmetric_kl_is_not() {
        let p = Tensor::from_vec(vec![0.9, 0.1], &[2]).unwrap();
        let q = Tensor::from_vec(vec![0.1, 0.9], &[2]).unwrap();
        let dpq = kl_divergence(&p, &q).unwrap();
        let dqp = kl_divergence(&q, &p).unwrap();
        assert!((dpq - dqp).abs() < 1e-5); // this particular pair is symmetric
                                           // Against the uniform distribution the two directions differ; only
                                           // their sum, the symmetrised KL, is the same both ways round.
        let r = Tensor::from_vec(vec![0.5, 0.5], &[2]).unwrap();
        let dpr = kl_divergence(&p, &r).unwrap();
        let drp = kl_divergence(&r, &p).unwrap();
        assert!((dpr - drp).abs() > 0.1, "{dpr} vs {drp}");
    }

    #[test]
    fn kl_rejects_shape_mismatch() {
        let p = Tensor::zeros(&[2]);
        let q = Tensor::zeros(&[3]);
        assert!(kl_divergence(&p, &q).is_err());
    }

    #[test]
    fn batch_kl_averages_rows() {
        let p = Tensor::from_vec(vec![0.5, 0.5, 1.0, 0.0], &[2, 2]).unwrap();
        let q = Tensor::from_vec(vec![0.5, 0.5, 0.5, 0.5], &[2, 2]).unwrap();
        let d = batch_kl_divergence(&p, &q).unwrap();
        let row2 = kl_divergence(&p.row(1).unwrap(), &q.row(1).unwrap()).unwrap();
        assert!((d - row2 / 2.0).abs() < 1e-5);
        assert!(batch_kl_divergence(&p, &Tensor::zeros(&[2, 3])).is_err());
    }

    #[test]
    fn entropy_uniform_is_log_n() {
        let p = Tensor::full(&[4], 0.25);
        let h = entropy(&p).unwrap();
        assert!((h - (4.0f32).ln()).abs() < 1e-5);
        let onehot = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0], &[4]).unwrap();
        assert!(entropy(&onehot).unwrap() < 1e-6);
    }

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 2, 0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
        assert_eq!(accuracy(&[1, 1], &[1, 1]), 1.0);
    }

    #[test]
    fn mean_std_matches_hand_computation() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-6);
        assert!((s - 2.138_09).abs() < 1e-4);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[3.0]).1, 0.0);
    }
}
