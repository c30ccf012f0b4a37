//! Seeded, reproducible random initialization.
//!
//! All randomness in the reproduction flows through [`TensorRng`], a thin
//! wrapper over `ChaCha8Rng`, so that every experiment is bit-for-bit
//! reproducible given its seed (the paper averages over five trial runs; we
//! expose the trial seed explicitly instead).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::Tensor;

/// A deterministic random number generator for tensor initialization.
///
/// # Example
///
/// ```
/// use edvit_tensor::init::TensorRng;
///
/// let mut rng = TensorRng::new(42);
/// let w = rng.randn(&[4, 4], 0.0, 1.0);
/// let w2 = TensorRng::new(42).randn(&[4, 4], 0.0, 1.0);
/// assert_eq!(w.data(), w2.data());
/// ```
#[derive(Debug, Clone)]
pub struct TensorRng {
    rng: ChaCha8Rng,
}

impl TensorRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        TensorRng {
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator; used to give each layer or
    /// sub-model its own stream while staying reproducible.
    pub fn fork(&mut self, salt: u64) -> TensorRng {
        let seed = self.rng.gen::<u64>() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        TensorRng::new(seed)
    }

    /// Samples a single standard-normal value via Box–Muller.
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        let u1: f32 = self.rng.gen_range(f32::MIN_POSITIVE..1.0);
        let u2: f32 = self.rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        mean + std * z
    }

    /// Samples a uniform value in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        if lo == hi {
            lo
        } else {
            self.rng.gen_range(lo..hi)
        }
    }

    /// Samples a uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        if n <= 1 {
            0
        } else {
            self.rng.gen_range(0..n)
        }
    }

    /// Returns a tensor of i.i.d. normal samples.
    pub fn randn(&mut self, dims: &[usize], mean: f32, std: f32) -> Tensor {
        let mut out = Tensor::zeros(dims);
        out.data_mut()
            .iter_mut()
            .for_each(|v| *v = self.normal(mean, std));
        out
    }

    /// Returns a tensor of i.i.d. uniform samples in `[lo, hi)`.
    pub fn rand_uniform(&mut self, dims: &[usize], lo: f32, hi: f32) -> Tensor {
        let mut out = Tensor::zeros(dims);
        out.data_mut()
            .iter_mut()
            .for_each(|v| *v = self.uniform(lo, hi));
        out
    }

    /// Xavier/Glorot uniform initialization for a weight matrix of shape
    /// `[fan_in, fan_out]`.
    pub fn xavier_uniform(&mut self, fan_in: usize, fan_out: usize) -> Tensor {
        let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
        self.rand_uniform(&[fan_in, fan_out], -limit, limit)
    }

    /// Kaiming/He normal initialization for ReLU-family networks, shape
    /// `[fan_in, fan_out]`.
    pub fn kaiming_normal(&mut self, fan_in: usize, fan_out: usize) -> Tensor {
        let std = (2.0 / fan_in as f32).sqrt();
        self.randn(&[fan_in, fan_out], 0.0, std)
    }

    /// Truncated-normal initialization used for ViT weights (std 0.02,
    /// truncated at ±2σ like timm's `trunc_normal_`).
    pub fn trunc_normal(&mut self, dims: &[usize], std: f32) -> Tensor {
        let mut out = Tensor::zeros(dims);
        for slot in out.data_mut() {
            // Rejection-sample within ±2σ; expected iterations ≈ 1.05.
            *slot = loop {
                let v = self.normal(0.0, std);
                if v.abs() <= 2.0 * std {
                    break v;
                }
            };
        }
        out
    }

    /// Shuffles a slice of indices in place (Fisher–Yates).
    pub fn shuffle(&mut self, indices: &mut [usize]) {
        if indices.len() < 2 {
            return;
        }
        for i in (1..indices.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            indices.swap(i, j);
        }
    }

    /// Draws `k` distinct indices from `0..n` (k clamped to n).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k.min(n));
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_given_seed() {
        let a = TensorRng::new(7).randn(&[10], 0.0, 1.0);
        let b = TensorRng::new(7).randn(&[10], 0.0, 1.0);
        assert_eq!(a.data(), b.data());
        let c = TensorRng::new(8).randn(&[10], 0.0, 1.0);
        assert_ne!(a.data(), c.data());
    }

    #[test]
    fn fork_streams_differ() {
        let mut base = TensorRng::new(1);
        let mut f1 = base.fork(1);
        let mut f2 = base.fork(2);
        assert_ne!(
            f1.randn(&[8], 0.0, 1.0).data(),
            f2.randn(&[8], 0.0, 1.0).data()
        );
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = TensorRng::new(3);
        let x = rng.randn(&[5000], 1.0, 2.0);
        let mean = x.mean();
        let var = x
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 5000.0;
        assert!((mean - 1.0).abs() < 0.15, "mean {mean}");
        assert!((var - 4.0).abs() < 0.6, "var {var}");
    }

    #[test]
    fn uniform_bounds_respected() {
        let mut rng = TensorRng::new(4);
        let x = rng.rand_uniform(&[1000], -0.5, 0.5);
        assert!(x.max() < 0.5);
        assert!(x.min() >= -0.5);
        assert_eq!(rng.uniform(2.0, 2.0), 2.0);
    }

    #[test]
    fn xavier_limits() {
        let mut rng = TensorRng::new(5);
        let w = rng.xavier_uniform(100, 200);
        let limit = (6.0 / 300.0f32).sqrt();
        assert!(w.max() <= limit);
        assert!(w.min() >= -limit);
        assert_eq!(w.dims(), &[100, 200]);
    }

    #[test]
    fn trunc_normal_bounded() {
        let mut rng = TensorRng::new(6);
        let w = rng.trunc_normal(&[2000], 0.02);
        assert!(w.max() <= 0.04 + 1e-6);
        assert!(w.min() >= -0.04 - 1e-6);
    }

    #[test]
    fn kaiming_shape_and_scale() {
        let mut rng = TensorRng::new(9);
        let w = rng.kaiming_normal(64, 32);
        assert_eq!(w.dims(), &[64, 32]);
        let std = (w.data().iter().map(|v| v * v).sum::<f32>() / w.numel() as f32).sqrt();
        let expected = (2.0f32 / 64.0).sqrt();
        assert!((std - expected).abs() < expected * 0.3);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = TensorRng::new(11);
        let mut idx: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut idx);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = TensorRng::new(12);
        let s = rng.sample_indices(20, 5);
        assert_eq!(s.len(), 5);
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 5);
        assert!(s.iter().all(|&i| i < 20));
        assert_eq!(rng.sample_indices(3, 10).len(), 3);
    }

    #[test]
    fn index_handles_degenerate_sizes() {
        let mut rng = TensorRng::new(13);
        assert_eq!(rng.index(0), 0);
        assert_eq!(rng.index(1), 0);
        assert!(rng.index(5) < 5);
    }
}
