//! `MultiHeadSelfAttention::forward` against naive f64 loops that share no
//! kernel with it: the projections, `Q·Kᵀ/√d`, the row softmax and `A·V`
//! are written out index by index here, on the layer's own weights, and use
//! nothing from `edvit_tensor` but the tensors' data. The bit-level oracle in
//! `layer_properties.rs` runs the layer's kernels, so it cannot see a layout
//! bug they share (a wrong row block of the transposed K, a head's columns
//! read from the wrong offset); this check can, within an error bound that
//! leaves room for f32 rounding and nothing else.

use edvit_nn::{Layer, Linear, MultiHeadSelfAttention};
use edvit_parallel::with_budget;
use edvit_tensor::init::TensorRng;

/// `x·W + b` over the `in`-wide rows of `x`, in f64.
fn linear(x: &[f64], layer: &Linear) -> Vec<f64> {
    let (inf, outf) = (layer.in_features(), layer.out_features());
    let (w, b) = (layer.weight().value().data(), layer.bias().value().data());
    let mut y = Vec::with_capacity(x.len() / inf * outf);
    for row in x.chunks_exact(inf) {
        for j in 0..outf {
            let mut acc = f64::from(b[j]);
            for (p, &v) in row.iter().enumerate() {
                acc += v * f64::from(w[p * outf + j]);
            }
            y.push(acc);
        }
    }
    y
}

/// The layer's forward on `batch` samples of `tokens` rows, in f64.
fn attention(layer: &MultiHeadSelfAttention, x: &[f32], tokens: usize) -> Vec<f64> {
    let x: Vec<f64> = x.iter().map(|&v| f64::from(v)).collect();
    let (q, k, v) = (
        linear(&x, layer.q_proj()),
        linear(&x, layer.k_proj()),
        linear(&x, layer.v_proj()),
    );
    let (heads, hd) = (layer.heads(), layer.head_dim());
    let inner = heads * hd;
    let scale = 1.0 / (hd as f64).sqrt();
    let mut concat = vec![0.0f64; q.len()];
    for b in 0..q.len() / (tokens * inner) {
        let at = |t: usize, h: usize, d: usize| (b * tokens + t) * inner + h * hd + d;
        for h in 0..heads {
            for i in 0..tokens {
                let scores: Vec<f64> = (0..tokens)
                    .map(|j| {
                        (0..hd)
                            .map(|d| q[at(i, h, d)] * k[at(j, h, d)])
                            .sum::<f64>()
                            * scale
                    })
                    .collect();
                let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let weights: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
                let total: f64 = weights.iter().sum();
                for d in 0..hd {
                    concat[at(i, h, d)] = (0..tokens)
                        .map(|j| weights[j] / total * v[at(j, h, d)])
                        .sum();
                }
            }
        }
    }
    linear(&concat, layer.out_proj())
}

#[test]
fn attention_forward_tracks_naive_f64_loops_at_the_probe_and_tiny_shapes() {
    // (batch, tokens, heads, head_dim): the perfbench probe block ([64, 192],
    // 6 heads × 32, above the per-head parallel threshold), and the tiny
    // demo's 4–5 tokens over 12 heads of width 1 and 2.
    let shapes = [
        (1usize, 64usize, 6usize, 32usize),
        (2, 64, 6, 32),
        (1, 4, 12, 2),
        (1, 5, 12, 2),
        (3, 4, 12, 1),
        (2, 5, 12, 1),
    ];
    for (batch, tokens, heads, head_dim) in shapes {
        let embed = heads * head_dim;
        let mut rng = TensorRng::new((batch * 1_000 + tokens * 10 + head_dim) as u64);
        let layer = MultiHeadSelfAttention::new(embed, heads, head_dim, &mut rng).unwrap();
        let x = rng.randn(&[batch, tokens, embed], 0.0, 1.0);
        let exact = attention(&layer, x.data(), tokens);
        let run = || layer.forward(&x).unwrap();
        for (pool, y) in [("budget 1", with_budget(1, run)), ("full pool", run())] {
            assert_eq!(y.dims(), x.dims());
            let mut worst = (0.0f64, 0usize);
            for (i, (&got, &want)) in y.data().iter().zip(&exact).enumerate() {
                let err = (f64::from(got) - want).abs() / (1.0 + want.abs());
                if err > worst.0 {
                    worst = (err, i);
                }
            }
            let case =
                format!("batch {batch}, {tokens} tokens, {heads} heads × {head_dim}, {pool}");
            println!("{case}: worst error {:.2e} at element {}", worst.0, worst.1);
            assert!(
                worst.0 <= 5e-6,
                "{case}: error {} at element {}",
                worst.0,
                worst.1
            );
        }
    }
}
