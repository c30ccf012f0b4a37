//! `MultiHeadSelfAttention::forward` against naive f64 loops that share no
//! kernel with it: the projections, `Q·Kᵀ/√d`, the row softmax and `A·V`
//! are written out index by index here, on the layer's own weights, and use
//! nothing from `edvit_tensor` but the tensors' data. The bit-level oracle in
//! `layer_properties.rs` runs the layer's kernels, so it cannot see a layout
//! bug they share (a wrong row block of the transposed K, a head's columns
//! read from the wrong offset); this check can, within an error bound that
//! leaves room for f32 rounding and nothing else.
//!
//! Thin heads (fewer than 16 tokens and fewer than 16 columns) skip the
//! per-head matmuls for one pass over Q, K and V; the last test checks that
//! pass bit for bit against the per-head matmuls it replaces.

use edvit_nn::{Layer, Linear, MultiHeadSelfAttention};
use edvit_parallel::{with_budget, ParallelPool};
use edvit_tensor::init::TensorRng;
use edvit_tensor::kernels::{self, MicroKernel};
use edvit_tensor::{ops, Tensor};

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

/// The projections `q`, `k`, `v` of `x` through `layer`'s own projections.
fn projections(layer: &MultiHeadSelfAttention, x: &Tensor) -> [Tensor; 3] {
    [layer.q_proj(), layer.k_proj(), layer.v_proj()].map(|proj| proj.forward(x).unwrap())
}

/// The layer's forward with attention computed head by head on the tiles:
/// each head's `Q_h·K_hᵀ` and `A·V_h` one [`kernels::matmul`], the scores
/// scaled after the product and softmaxed by [`ops::softmax_rows`].
fn per_head_matmuls(layer: &MultiHeadSelfAttention, x: &Tensor, tokens: usize) -> Tensor {
    let [q, k, v] = projections(layer, x);
    let (heads, hd) = (layer.heads(), layer.head_dim());
    let inner = heads * hd;
    let pool = ParallelPool::global();
    let head = |all: &Tensor, b: usize, h: usize| -> Vec<f32> {
        let rows = &all.data()[b * tokens * inner..(b + 1) * tokens * inner];
        rows.chunks_exact(inner)
            .flat_map(|row| &row[h * hd..(h + 1) * hd])
            .copied()
            .collect()
    };
    let mut concat = vec![0.0f32; q.numel()];
    for b in 0..q.numel() / (tokens * inner) {
        for h in 0..heads {
            let (q_h, v_h) = (head(&q, b, h), head(&v, b, h));
            let k_h = Tensor::from_vec(head(&k, b, h), &[tokens, hd]).unwrap();
            let kt_h = k_h.transpose().unwrap();
            let mut attn = vec![0.0f32; tokens * tokens];
            kernels::matmul(&q_h, kt_h.data(), &mut attn, tokens, hd, tokens, pool);
            let scale = 1.0 / (hd as f32).sqrt();
            attn.iter_mut().for_each(|score| *score *= scale);
            ops::softmax_rows(&mut attn, tokens, pool);
            let mut out = vec![0.0f32; tokens * hd];
            kernels::matmul(&attn, &v_h, &mut out, tokens, tokens, hd, pool);
            let rows = concat[b * tokens * inner..].chunks_exact_mut(inner);
            for (row, head_row) in rows.zip(out.chunks_exact(hd)) {
                row[h * hd..(h + 1) * hd].copy_from_slice(head_row);
            }
        }
    }
    let concat = Tensor::from_vec(concat, q.dims()).unwrap();
    layer.out_proj().forward(&concat).unwrap()
}

/// The layer's forward with every score and output an unfused f32 sum in
/// ascending order from zero, written out index by index.
fn unfused_loops(layer: &MultiHeadSelfAttention, x: &Tensor, tokens: usize) -> Tensor {
    let [q, k, v] = projections(layer, x);
    let (heads, hd) = (layer.heads(), layer.head_dim());
    let inner = heads * hd;
    let scale = 1.0 / (hd as f32).sqrt();
    let mut concat = vec![0.0f32; q.numel()];
    for b in 0..q.numel() / (tokens * inner) {
        let at = |t: usize, h: usize, d: usize| (b * tokens + t) * inner + h * hd + d;
        for h in 0..heads {
            let mut attn = vec![0.0f32; tokens * tokens];
            for i in 0..tokens {
                for j in 0..tokens {
                    let mut sum = 0.0f32;
                    for d in 0..hd {
                        sum += q.data()[at(i, h, d)] * k.data()[at(j, h, d)];
                    }
                    attn[i * tokens + j] = sum * scale;
                }
            }
            ops::softmax_rows(&mut attn, tokens, ParallelPool::global());
            for i in 0..tokens {
                for d in 0..hd {
                    let mut sum = 0.0f32;
                    for j in 0..tokens {
                        sum += attn[i * tokens + j] * v.data()[at(j, h, d)];
                    }
                    concat[at(i, h, d)] = sum;
                }
            }
        }
    }
    let concat = Tensor::from_vec(concat, q.dims()).unwrap();
    layer.out_proj().forward(&concat).unwrap()
}

fn bits(tensor: &Tensor) -> Vec<u32> {
    tensor.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn thin_heads_attend_in_one_pass_with_the_per_head_matmuls_bits() {
    // Every thin shape, tokens × head_dim over 1..=15, on one sample and on
    // three: the one pass must give the per-head matmuls' bits exactly, and
    // both the unfused loops' on every kernel.
    const EMBED: usize = 8;
    const HEADS: usize = 3;
    let mut cases = 0;
    for tokens in 1usize..=15 {
        for head_dim in 1usize..=15 {
            for batch in [1usize, 3] {
                let seed = (tokens * 100 + head_dim) as u64 * 2 + batch as u64;
                let mut rng = TensorRng::new(seed);
                let layer = MultiHeadSelfAttention::new(EMBED, HEADS, head_dim, &mut rng).unwrap();
                let x = rng.randn(&[batch, tokens, EMBED], 0.0, 1.0);
                let y = bits(&layer.forward(&x).unwrap());
                let case = format!("{tokens} tokens, {HEADS} heads × {head_dim}, batch {batch}");
                assert_eq!(y, bits(&per_head_matmuls(&layer, &x, tokens)), "{case}");
                assert_eq!(y, bits(&unfused_loops(&layer, &x, tokens)), "{case}");
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 450);
    // From 16 tokens or 16 columns on, one of the two products reaches the
    // 16-column vector step, so the heads stay on the tiles: the layer gives
    // the per-head matmuls' bits there too. On the FMA kernels those fused
    // sums differ from the unfused one-pass arithmetic, which shows the
    // layer did not take the one pass; the portable kernel does not fuse,
    // so there the two cannot be told apart.
    let fused = MicroKernel::detect() != MicroKernel::Portable;
    if !fused {
        println!("SKIPPED: telling the tile path from the one pass needs the FMA micro-kernels");
    }
    for (tokens, head_dim) in [(16usize, 8usize), (8, 16), (16, 16), (17, 5)] {
        let mut rng = TensorRng::new((tokens * 100 + head_dim) as u64);
        let layer = MultiHeadSelfAttention::new(EMBED, 12, head_dim, &mut rng).unwrap();
        let x = rng.randn(&[2, tokens, EMBED], 0.0, 1.0);
        let y = bits(&layer.forward(&x).unwrap());
        let case = format!("{tokens} tokens, 12 heads × {head_dim}");
        assert_eq!(y, bits(&per_head_matmuls(&layer, &x, tokens)), "{case}");
        if fused {
            assert_ne!(y, bits(&unfused_loops(&layer, &x, tokens)), "{case}");
        }
    }
}
