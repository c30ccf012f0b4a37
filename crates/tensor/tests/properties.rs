//! Property-based tests for the tensor substrate.

use edvit_tensor::{init::TensorRng, stats, Tensor};
use proptest::prelude::*;

fn small_dims() -> impl Strategy<Value = (usize, usize)> {
    (1usize..8, 1usize..8)
}

fn tensor_with_dims(rows: usize, cols: usize, seed: u64) -> Tensor {
    TensorRng::new(seed).rand_uniform(&[rows, cols], -2.0, 2.0)
}

proptest! {
    #[test]
    fn reshape_preserves_numel_and_data((r, c) in small_dims(), seed in 0u64..1000) {
        let t = tensor_with_dims(r, c, seed);
        let flat = t.reshape(&[r * c]).unwrap();
        prop_assert_eq!(flat.numel(), t.numel());
        prop_assert_eq!(flat.data(), t.data());
    }

    #[test]
    fn transpose_is_involution((r, c) in small_dims(), seed in 0u64..1000) {
        let t = tensor_with_dims(r, c, seed);
        let tt = t.transpose().unwrap().transpose().unwrap();
        prop_assert_eq!(tt.dims(), t.dims());
        prop_assert_eq!(tt.data(), t.data());
    }

    #[test]
    fn matmul_identity_left_and_right((r, c) in small_dims(), seed in 0u64..1000) {
        let t = tensor_with_dims(r, c, seed);
        let left = Tensor::eye(r).matmul(&t).unwrap();
        let right = t.matmul(&Tensor::eye(c)).unwrap();
        for (a, b) in left.data().iter().zip(t.data()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
        for (a, b) in right.data().iter().zip(t.data()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        (m, k) in small_dims(),
        n in 1usize..8,
        seed in 0u64..500,
    ) {
        let a = tensor_with_dims(m, k, seed);
        let b = tensor_with_dims(k, n, seed + 1);
        let c = tensor_with_dims(k, n, seed + 2);
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{} vs {}", x, y);
        }
    }

    #[test]
    fn matmul_transposed_agrees_with_materialized_transpose(
        (m, k) in small_dims(),
        n in 1usize..8,
        seed in 0u64..500,
    ) {
        let a = tensor_with_dims(m, k, seed);
        let b = tensor_with_dims(n, k, seed + 7);
        let fast = a.matmul_transposed(&b).unwrap();
        let slow = a.matmul(&b.transpose().unwrap()).unwrap();
        for (x, y) in fast.data().iter().zip(slow.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn addition_commutes((r, c) in small_dims(), seed in 0u64..1000) {
        let a = tensor_with_dims(r, c, seed);
        let b = tensor_with_dims(r, c, seed + 13);
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert_eq!(ab.data(), ba.data());
    }

    #[test]
    fn softmax_rows_are_distributions((r, c) in small_dims(), seed in 0u64..1000) {
        let t = tensor_with_dims(r, c, seed).scale(5.0);
        let p = t.softmax_last_axis().unwrap();
        for row in p.data().chunks(c) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
        }
    }

    #[test]
    fn softmax_invariant_to_constant_shift((r, c) in small_dims(), seed in 0u64..1000, shift in -10.0f32..10.0) {
        let t = tensor_with_dims(r, c, seed);
        let p1 = t.softmax_last_axis().unwrap();
        let p2 = t.add_scalar(shift).softmax_last_axis().unwrap();
        for (a, b) in p1.data().iter().zip(p2.data()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn layer_norm_output_is_standardized((r, c) in (1usize..8, 2usize..10), seed in 0u64..1000) {
        let t = tensor_with_dims(r, c, seed).scale(3.0).add_scalar(1.0);
        let y = t
            .layer_norm_last_axis(&Tensor::ones(&[c]), &Tensor::zeros(&[c]))
            .unwrap();
        for row in y.data().chunks(c) {
            let mean: f32 = row.iter().sum::<f32>() / c as f32;
            prop_assert!(mean.abs() < 1e-3);
        }
    }

    #[test]
    fn kl_divergence_nonnegative_and_zero_on_self(c in 2usize..16, seed in 0u64..1000) {
        let p = TensorRng::new(seed).rand_uniform(&[c], 0.01, 1.0);
        let q = TensorRng::new(seed + 1).rand_uniform(&[c], 0.01, 1.0);
        let d = stats::kl_divergence(&p, &q).unwrap();
        prop_assert!(d >= 0.0);
        prop_assert!(stats::kl_divergence(&p, &p).unwrap() < 1e-6);
    }

    #[test]
    fn select_then_concat_roundtrip((r, c) in (1usize..6, 2usize..8), seed in 0u64..500) {
        let t = tensor_with_dims(r, c, seed);
        let split = c / 2;
        let left = t.select_last_axis(&(0..split).collect::<Vec<_>>()).unwrap();
        let right = t.select_last_axis(&(split..c).collect::<Vec<_>>()).unwrap();
        let joined = Tensor::concat_last_axis(&[&left, &right]).unwrap();
        prop_assert_eq!(joined.data(), t.data());
    }

    #[test]
    fn gather_rows_preserves_row_content(r in 1usize..8, c in 1usize..8, seed in 0u64..500) {
        let t = tensor_with_dims(r, c, seed);
        let idx: Vec<usize> = (0..r).rev().collect();
        let g = t.gather_rows(&idx).unwrap();
        for (new_row, &orig) in idx.iter().enumerate() {
            let gathered = g.row(new_row).unwrap();
            let original = t.row(orig).unwrap();
            prop_assert_eq!(gathered.data(), original.data());
        }
    }

    #[test]
    fn argmax_last_axis_points_at_maximum((r, c) in small_dims(), seed in 0u64..500) {
        let t = tensor_with_dims(r, c, seed);
        let idx = t.argmax_last_axis().unwrap();
        for (row_i, &best) in idx.iter().enumerate() {
            let row = t.row(row_i).unwrap();
            let max = row.max();
            prop_assert!((row.data()[best] - max).abs() < 1e-7);
        }
    }

    #[test]
    fn rng_reproducibility(seed in 0u64..10_000) {
        let a = TensorRng::new(seed).randn(&[16], 0.0, 1.0);
        let b = TensorRng::new(seed).randn(&[16], 0.0, 1.0);
        prop_assert_eq!(a.data(), b.data());
    }
}

/// `add_row_broadcast` / `mul_row_broadcast` walk rows; the expression they
/// replaced indexed the vector with `i % last` per element. Same element,
/// same single rounding, on every rank — including an empty last axis.
#[test]
fn row_broadcasts_equal_the_modulo_indexed_expression() {
    let mut rng = TensorRng::new(0xB0A);
    for dims in [
        &[5usize][..],
        &[1],
        &[7, 3],
        &[1, 33],
        &[4, 1],
        &[2, 5, 17],
        &[3, 1, 64],
        &[3, 0],
    ] {
        let last = *dims.last().unwrap();
        let x = rng.randn(dims, 0.0, 2.0);
        let v = rng.randn(&[last], 0.0, 2.0);
        let bits = |values: Vec<f32>| values.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        let modulo = |op: fn(f32, f32) -> f32| {
            let indexed = x.data().iter().enumerate();
            bits(indexed.map(|(i, &e)| op(e, v.data()[i % last])).collect())
        };
        let added = x.add_row_broadcast(&v).unwrap();
        assert_eq!(added.dims(), dims);
        assert_eq!(bits(added.into_vec()), modulo(|e, b| e + b), "add {dims:?}");
        let scaled = x.mul_row_broadcast(&v).unwrap();
        assert_eq!(scaled.dims(), dims);
        assert_eq!(
            bits(scaled.into_vec()),
            modulo(|e, b| e * b),
            "mul {dims:?}"
        );
    }
}
