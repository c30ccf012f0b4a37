//! Accuracy and edge-case contract of the vectorisable `exp` and of the GELU
//! and softmax kernels built on it: dense sweeps against `f64` libm with the
//! bounds the crate README states, and the special values pinned exactly.

use edvit_tensor::{approx, ops};

/// `steps + 1` evenly spaced points covering `[lo, hi]`.
fn sweep(lo: f32, hi: f32, steps: usize) -> impl Iterator<Item = f32> {
    (0..=steps).map(move |i| lo + (hi - lo) * (i as f32 / steps as f32))
}

fn gelu_f64(x: f64) -> f64 {
    let u = (2.0 / std::f64::consts::PI).sqrt() * (x + 0.044_715 * x * x * x);
    0.5 * x * (1.0 + u.tanh())
}

#[test]
fn exp_relative_error_is_below_5e7_on_the_normal_range() {
    let mut worst = (0.0f64, 0.0f32);
    for x in sweep(-87.0, 88.0, 2_000_000) {
        let exact = (x as f64).exp();
        let err = ((approx::exp(x) as f64 - exact) / exact).abs();
        if err > worst.0 {
            worst = (err, x);
        }
    }
    assert!(worst.0 <= 5e-7, "rel err {} at x = {}", worst.0, worst.1);
}

#[test]
fn exp_edge_cases_are_exact() {
    assert_eq!(approx::exp(0.0).to_bits(), 1.0f32.to_bits());
    assert_eq!(approx::exp(-0.0).to_bits(), 1.0f32.to_bits());
    assert_eq!(approx::exp(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
    assert_eq!(approx::exp(f32::INFINITY), f32::INFINITY);
    assert!(approx::exp(f32::NAN).is_nan());
    // Subnormal and tiny inputs: e^x rounds to exactly 1.
    for x in [f32::MIN_POSITIVE / 4.0, -f32::MIN_POSITIVE / 4.0, 1e-30] {
        assert_eq!(approx::exp(x), 1.0);
    }
    // Saturation outside the representable range, never NaN or negative.
    assert_eq!(approx::exp(-100.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(approx::exp(f32::MIN).to_bits(), 0.0f32.to_bits());
    assert_eq!(approx::exp(100.0), f32::INFINITY);
    assert_eq!(approx::exp(f32::MAX), f32::INFINITY);
    // Subnormal results just above the underflow point are still produced.
    let tiny = approx::exp(-87.5);
    assert!(tiny > 0.0 && tiny < f32::MIN_POSITIVE);
    assert!(approx::exp(88.0).is_finite());
}

#[test]
fn tanh_and_sigmoid_track_libm_and_saturate() {
    for x in sweep(-20.0, 20.0, 400_000) {
        let t = (x as f64).tanh();
        let s = 1.0 / (1.0 + (-(x as f64)).exp());
        assert!((approx::tanh(x) as f64 - t).abs() <= 5e-7, "tanh({x})");
        assert!(
            (approx::sigmoid(x) as f64 - s).abs() <= 5e-7,
            "sigmoid({x})"
        );
    }
    assert_eq!(approx::tanh(0.0), 0.0);
    assert_eq!(approx::tanh(20.0), 1.0);
    assert_eq!(approx::tanh(f32::INFINITY), 1.0);
    assert_eq!(approx::tanh(-20.0), -1.0);
    assert_eq!(approx::tanh(f32::NEG_INFINITY), -1.0);
    assert!(approx::tanh(f32::NAN).is_nan());
    assert_eq!(approx::sigmoid(0.0), 0.5);
    assert_eq!(approx::sigmoid(f32::INFINITY), 1.0);
    assert_eq!(approx::sigmoid(f32::NEG_INFINITY), 0.0);
}

#[test]
fn gelu_absolute_error_is_below_2e6() {
    let mut worst = (0.0f64, 0.0f32);
    for x in sweep(-12.0, 12.0, 2_000_000) {
        let err = (ops::gelu_scalar(x) as f64 - gelu_f64(x as f64)).abs();
        if err > worst.0 {
            worst = (err, x);
        }
    }
    assert!(worst.0 <= 2e-6, "abs err {} at x = {}", worst.0, worst.1);
}

#[test]
fn gelu_edge_cases_are_exact() {
    assert_eq!(ops::gelu_scalar(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(ops::gelu_scalar(-0.0).to_bits(), (-0.0f32).to_bits());
    assert!(ops::gelu_scalar(f32::NAN).is_nan());
    assert_eq!(ops::gelu_scalar(f32::INFINITY), f32::INFINITY);
    // Subnormals: gelu(x) = x / 2 around zero, sign kept.
    let sub = f32::MIN_POSITIVE / 4.0;
    assert_eq!(ops::gelu_scalar(sub), sub / 2.0);
    assert_eq!(ops::gelu_scalar(-sub), -sub / 2.0);
    // |x| >= 10 saturates: the identity on the right, -0.0 on the left.
    for x in [10.0f32, 10.05, 11.0, 100.0, 1.0e10, f32::MAX] {
        assert_eq!(ops::gelu_scalar(x).to_bits(), x.to_bits(), "gelu({x})");
        let left = ops::gelu_scalar(-x);
        assert_eq!(left.to_bits(), (-0.0f32).to_bits(), "gelu(-{x}) = {left}");
    }
    // Just inside the cut the left tail is tiny but still negative.
    let near = ops::gelu_scalar(-9.9);
    assert!(near < 0.0 && near > -1.0e-30, "gelu(-9.9) = {near}");
}

#[test]
fn gelu_map_matches_the_scalar_kernel_at_every_length() {
    // Lengths around the 4- and 8-lane widths, so every position is produced
    // by a vector lane at one length and by a scalar tail at another.
    let pool = edvit_parallel::ParallelPool::new(1);
    for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 1000] {
        let input: Vec<f32> = (0..len).map(|i| (i as f32 - 40.0) * 0.37).collect();
        let mut mapped = input.clone();
        ops::gelu_map(&mut mapped, &pool);
        for (x, y) in input.iter().zip(&mapped) {
            assert_eq!(ops::gelu_scalar(*x).to_bits(), y.to_bits(), "gelu({x})");
        }
    }
}

#[test]
fn softmax_edge_cases() {
    // A -inf logit gets exactly zero; the rest still sum to one.
    let mut row = [1.0, f32::NEG_INFINITY, 3.0, -2.0];
    ops::softmax_slice(&mut row);
    assert_eq!(row[1].to_bits(), 0.0f32.to_bits());
    assert!((row.iter().sum::<f32>() - 1.0).abs() <= 1e-6);
    assert!(row[2] > row[0] && row[0] > row[3] && row[3] > 0.0);

    // A fully masked row is all zeros, not NaN.
    let mut masked = [f32::NEG_INFINITY; 5];
    ops::softmax_slice(&mut masked);
    assert!(masked.iter().all(|v| v.to_bits() == 0.0f32.to_bits()));

    // The maximum contributes exactly exp(0) = 1 before normalisation.
    let mut single = [42.0];
    ops::softmax_slice(&mut single);
    assert_eq!(single, [1.0]);

    // Logits far apart underflow to zero instead of misbehaving.
    let mut spread = [0.0, -200.0, 1000.0];
    ops::softmax_slice(&mut spread);
    assert_eq!(spread, [0.0, 0.0, 1.0]);
}

#[test]
fn softmax_rows_sum_to_one_and_track_libm() {
    // Row lengths around the 8-wide summation blocks; logits with a wide
    // spread so the exp argument covers its whole useful range.
    for len in [1usize, 2, 7, 8, 9, 64, 65, 257, 1000] {
        let logits: Vec<f32> = (0..len)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.31)
            .collect();
        let mut row = logits.clone();
        ops::softmax_slice(&mut row);
        let max = logits
            .iter()
            .copied()
            .fold(f64::MIN, |m, v| m.max(v as f64));
        let denom: f64 = logits.iter().map(|&v| (v as f64 - max).exp()).sum();
        let total: f64 = row.iter().map(|&v| v as f64).sum();
        assert!((total - 1.0).abs() <= 1e-6, "len {len}: sum {total}");
        for (p, &v) in row.iter().zip(&logits) {
            let exact = (v as f64 - max).exp() / denom;
            assert!((*p as f64 - exact).abs() <= 1e-6 * exact + 1e-12);
        }
    }
}
