use edvit_tensor::Tensor;

use crate::{NnError, Result};

/// Softmax cross-entropy loss over a batch of logits.
///
/// `forward` takes logits of shape `[n, classes]` and integer labels, returns
/// the mean negative log-likelihood, and caches the softmax probabilities so
/// that `backward` can return `(p - onehot(y)) / n`.
///
/// # Example
///
/// ```
/// use edvit_nn::CrossEntropyLoss;
/// use edvit_tensor::Tensor;
///
/// # fn main() -> Result<(), edvit_nn::NnError> {
/// let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0, 10.0], &[2, 2])?;
/// let mut loss = CrossEntropyLoss::new();
/// let l = loss.forward(&logits, &[0, 1])?;
/// assert!(l < 1e-3); // confident and correct
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CrossEntropyLoss {
    cache: Option<(Tensor, Vec<usize>)>,
}

impl CrossEntropyLoss {
    /// Creates a cross-entropy loss.
    pub fn new() -> Self {
        CrossEntropyLoss { cache: None }
    }

    /// Computes the mean cross-entropy of `logits` `[n, c]` against `labels`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::LabelMismatch`] when the label count differs from
    /// the batch size, [`NnError::LabelOutOfRange`] for invalid labels, and
    /// tensor errors for malformed logits.
    pub fn forward(&mut self, logits: &Tensor, labels: &[usize]) -> Result<f32> {
        if logits.rank() != 2 {
            return Err(NnError::InvalidConfig {
                message: format!(
                    "cross entropy expects [n, classes], got {:?}",
                    logits.dims()
                ),
            });
        }
        let n = logits.dims()[0];
        let c = logits.dims()[1];
        if labels.len() != n {
            return Err(NnError::LabelMismatch {
                batch: n,
                labels: labels.len(),
            });
        }
        for &l in labels {
            if l >= c {
                return Err(NnError::LabelOutOfRange {
                    label: l,
                    classes: c,
                });
            }
        }
        if n == 0 {
            return Err(NnError::InvalidConfig {
                message: "cross entropy on empty batch".to_string(),
            });
        }
        let log_probs = logits.log_softmax_last_axis()?;
        let mut total = 0.0f32;
        for (i, &label) in labels.iter().enumerate() {
            total -= log_probs.get(&[i, label])?;
        }
        let probs = logits.softmax_last_axis()?;
        self.cache = Some((probs, labels.to_vec()));
        Ok(total / n as f32)
    }

    /// Returns the gradient of the mean loss with respect to the logits.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForwardCache`] when called before `forward`.
    pub fn backward(&mut self) -> Result<Tensor> {
        let (probs, labels) = self.cache.as_ref().ok_or(NnError::MissingForwardCache {
            layer: "CrossEntropyLoss",
        })?;
        let n = probs.dims()[0];
        let c = probs.dims()[1];
        let mut grad = probs.clone();
        for (i, &label) in labels.iter().enumerate() {
            let v = grad.get(&[i, label])?;
            grad.set(&[i, label], v - 1.0)?;
        }
        Ok(grad.scale(1.0 / n as f32).reshape(&[n, c])?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_uniform_logits_is_log_c() {
        let logits = Tensor::zeros(&[2, 4]);
        let mut loss = CrossEntropyLoss::new();
        let l = loss.forward(&logits, &[1, 3]).unwrap();
        assert!((l - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_validates_inputs() {
        let mut loss = CrossEntropyLoss::new();
        assert!(loss.forward(&Tensor::zeros(&[2]), &[0, 1]).is_err());
        assert!(loss.forward(&Tensor::zeros(&[2, 3]), &[0]).is_err());
        assert!(loss.forward(&Tensor::zeros(&[2, 3]), &[0, 5]).is_err());
        assert!(loss.forward(&Tensor::zeros(&[0, 3]), &[]).is_err());
        assert!(loss.backward().is_err());
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero_per_row() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 0.5, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let mut loss = CrossEntropyLoss::new();
        loss.forward(&logits, &[2, 0]).unwrap();
        let g = loss.backward().unwrap();
        for row in g.data().chunks(3) {
            let s: f32 = row.iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![0.3, -0.7, 1.2, 0.1, 0.9, -0.2], &[2, 3]).unwrap();
        let labels = [1usize, 2usize];
        let mut loss = CrossEntropyLoss::new();
        loss.forward(&logits, &labels).unwrap();
        let g = loss.backward().unwrap();
        let eps = 1e-3;
        for i in 0..logits.numel() {
            let mut plus = logits.clone();
            plus.data_mut()[i] += eps;
            let mut minus = logits.clone();
            minus.data_mut()[i] -= eps;
            let lp = CrossEntropyLoss::new().forward(&plus, &labels).unwrap();
            let lm = CrossEntropyLoss::new().forward(&minus, &labels).unwrap();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - g.data()[i]).abs() < 1e-3,
                "fd {fd} vs analytic {} at {i}",
                g.data()[i]
            );
        }
    }
}
