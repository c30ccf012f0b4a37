//! Property-based tests of layer-level invariants: shape preservation,
//! gradient shape agreement, optimizer convergence and parameter accounting;
//! and the bits of head-batched attention against a per-head oracle.

use edvit_nn::{
    Adam, Gelu, Layer, LayerNorm, Linear, Mlp, MlpActivation, MultiHeadSelfAttention, Optimizer,
    Parameter, Relu, Sgd,
};
use edvit_parallel::{with_budget, ParallelPool};
use edvit_tensor::{init::TensorRng, kernels, ops, Tensor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn linear_output_and_gradient_shapes_agree(
        rows in 1usize..8,
        inf in 1usize..10,
        outf in 1usize..10,
        seed in 0u64..500,
    ) {
        let mut rng = TensorRng::new(seed);
        let mut layer = Linear::new(inf, outf, &mut rng);
        let x = rng.randn(&[rows, inf], 0.0, 1.0);
        let y = layer.forward(&x).unwrap();
        prop_assert_eq!(y.dims(), &[rows, outf]);
        let gin = layer.backward(&Tensor::ones(&[rows, outf])).unwrap();
        prop_assert_eq!(gin.dims(), x.dims());
        // Parameter gradients have the same shapes as the parameters.
        for p in layer.parameters() {
            prop_assert_eq!(p.grad().dims(), p.value().dims());
        }
    }

    #[test]
    fn activations_preserve_shape_and_bound_outputs(
        rows in 1usize..6,
        cols in 1usize..12,
        seed in 0u64..500,
    ) {
        let mut rng = TensorRng::new(seed);
        let x = rng.randn(&[rows, cols], 0.0, 2.0);
        let mut relu = Relu::new();
        let y = relu.forward(&x).unwrap();
        prop_assert_eq!(y.dims(), x.dims());
        prop_assert!(y.data().iter().all(|&v| v >= 0.0));
        prop_assert!(y.data().iter().zip(x.data()).all(|(&o, &i)| o <= i.max(0.0) + 1e-6));
        let mut gelu = Gelu::new();
        let y = gelu.forward(&x).unwrap();
        prop_assert_eq!(y.dims(), x.dims());
        // GELU is bounded below by a small negative constant (~ -0.17 * max).
        prop_assert!(y.data().iter().all(|&v| v > -0.5));
    }

    #[test]
    fn layernorm_output_rows_are_standardized(
        rows in 1usize..6,
        cols in 2usize..16,
        scale in 0.5f32..5.0,
        seed in 0u64..500,
    ) {
        let mut rng = TensorRng::new(seed);
        let mut ln = LayerNorm::new(cols);
        let x = rng.randn(&[rows, cols], 3.0, scale);
        let y = ln.forward(&x).unwrap();
        for row in y.data().chunks(cols) {
            let mean: f32 = row.iter().sum::<f32>() / cols as f32;
            prop_assert!(mean.abs() < 1e-3, "row mean {}", mean);
        }
    }

    #[test]
    fn mlp_parameter_count_matches_closed_form(
        inf in 1usize..8,
        hidden in 1usize..12,
        outf in 1usize..6,
        seed in 0u64..200,
    ) {
        let mut rng = TensorRng::new(seed);
        let mlp = Mlp::with_activation(&[inf, hidden, outf], MlpActivation::Gelu, &mut rng).unwrap();
        let expected = inf * hidden + hidden + hidden * outf + outf;
        prop_assert_eq!(mlp.parameter_count(), expected);
    }

    #[test]
    fn sgd_step_moves_against_gradient(start in -5.0f32..5.0, lr in 0.001f32..0.1) {
        // One step on f(x) = x^2 must not increase |x|.
        let mut p = Parameter::new("x", Tensor::from_vec(vec![start], &[1]).unwrap());
        p.accumulate_grad(&Tensor::from_vec(vec![2.0 * start], &[1]).unwrap()).unwrap();
        let mut opt = Sgd::new(lr);
        opt.step(&mut [&mut p]).unwrap();
        prop_assert!(p.value().data()[0].abs() <= start.abs() + 1e-6);
    }

    #[test]
    fn adam_converges_on_random_quadratics(target in -3.0f32..3.0, seed in 0u64..100) {
        // Minimize (x - target)^2 from a random start.
        let mut rng = TensorRng::new(seed);
        let start = rng.uniform(-3.0, 3.0);
        let mut p = Parameter::new("x", Tensor::from_vec(vec![start], &[1]).unwrap());
        let mut opt = Adam::new(0.1);
        for _ in 0..200 {
            p.zero_grad();
            let x = p.value().data()[0];
            p.accumulate_grad(&Tensor::from_vec(vec![2.0 * (x - target)], &[1]).unwrap()).unwrap();
            opt.step(&mut [&mut p]).unwrap();
        }
        prop_assert!((p.value().data()[0] - target).abs() < 0.05);
    }

    #[test]
    fn linear_pruning_selects_consistent_shapes(
        inf in 2usize..10,
        outf in 2usize..10,
        seed in 0u64..200,
    ) {
        let mut rng = TensorRng::new(seed);
        let layer = Linear::new(inf, outf, &mut rng);
        let keep_out: Vec<usize> = (0..outf).step_by(2).collect();
        let pruned = layer.select_outputs(&keep_out).unwrap();
        prop_assert_eq!(pruned.out_features(), keep_out.len());
        prop_assert_eq!(pruned.in_features(), inf);
        let keep_in: Vec<usize> = (0..inf).step_by(2).collect();
        let pruned = layer.select_inputs(&keep_in).unwrap();
        prop_assert_eq!(pruned.in_features(), keep_in.len());
        prop_assert_eq!(pruned.out_features(), outf);
    }
}

/// Attention computed one head at a time: strided copies of each head's Q, K
/// and V, then `Q·Kᵀ/√d`, a row softmax and `A·V` per head, and the matching
/// per-head backward. The head-batched layer must reproduce its bits.
struct PerHeadAttention {
    projections: [Linear; 4],
    heads: usize,
    head_dim: usize,
    /// Per sample, per head: the head's Q, K, V and attention weights.
    cache: Vec<[Tensor; 4]>,
}

impl PerHeadAttention {
    fn of(layer: &MultiHeadSelfAttention) -> Self {
        PerHeadAttention {
            projections: [
                layer.q_proj().clone(),
                layer.k_proj().clone(),
                layer.v_proj().clone(),
                layer.out_proj().clone(),
            ],
            heads: layer.heads(),
            head_dim: layer.head_dim(),
            cache: Vec::new(),
        }
    }

    /// Head `h`'s `[tokens, head_dim]` columns of `[tokens, inner]` rows.
    fn head(&self, rows: &[f32], h: usize) -> Tensor {
        let inner = self.heads * self.head_dim;
        let data: Vec<f32> = rows
            .chunks_exact(inner)
            .flat_map(|row| &row[h * self.head_dim..(h + 1) * self.head_dim])
            .copied()
            .collect();
        Tensor::from_vec(data, &[rows.len() / inner, self.head_dim]).unwrap()
    }

    fn forward(&mut self, x: &Tensor, tokens: usize) -> Tensor {
        let [q_proj, k_proj, v_proj, _] = &mut self.projections;
        let (q, k, v) = (
            q_proj.forward(x).unwrap(),
            k_proj.forward(x).unwrap(),
            v_proj.forward(x).unwrap(),
        );
        let (hd, inner) = (self.head_dim, self.heads * self.head_dim);
        let pool = ParallelPool::global();
        let mut concat = vec![0.0f32; q.numel()];
        self.cache.clear();
        for (b, out_rows) in concat.chunks_exact_mut(tokens * inner).enumerate() {
            let rows = b * tokens * inner..(b + 1) * tokens * inner;
            for h in 0..self.heads {
                let q_h = self.head(&q.data()[rows.clone()], h);
                let k_h = self.head(&k.data()[rows.clone()], h);
                let v_h = self.head(&v.data()[rows.clone()], h);
                let mut attn = vec![0.0f32; tokens * tokens];
                let scale = 1.0 / (hd as f32).sqrt();
                kernels::matmul_transposed(
                    q_h.data(),
                    k_h.data(),
                    &mut attn,
                    tokens,
                    hd,
                    tokens,
                    pool,
                );
                attn.iter_mut().for_each(|score| *score *= scale);
                ops::softmax_rows(&mut attn, tokens, pool);
                let mut out = vec![0.0f32; tokens * hd];
                kernels::matmul(&attn, v_h.data(), &mut out, tokens, tokens, hd, pool);
                for (row, head_row) in out_rows.chunks_exact_mut(inner).zip(out.chunks_exact(hd)) {
                    row[h * hd..(h + 1) * hd].copy_from_slice(head_row);
                }
                let attn = Tensor::from_vec(attn, &[tokens, tokens]).unwrap();
                self.cache.push([q_h, k_h, v_h, attn]);
            }
        }
        let concat = Tensor::from_vec(concat, q.dims()).unwrap();
        self.projections[3].forward(&concat).unwrap()
    }

    fn backward(&mut self, grad: &Tensor, tokens: usize) -> Tensor {
        let grad_concat = self.projections[3].backward(grad).unwrap();
        let (hd, inner) = (self.head_dim, self.heads * self.head_dim);
        let scale = 1.0 / (hd as f32).sqrt();
        let mut grads = [
            vec![0.0f32; grad_concat.numel()],
            vec![0.0f32; grad_concat.numel()],
            vec![0.0f32; grad_concat.numel()],
        ];
        for (i, [q, k, v, attn]) in self.cache.iter().enumerate() {
            let (b, h) = (i / self.heads, i % self.heads);
            let rows = b * tokens * inner..(b + 1) * tokens * inner;
            let d_out = self.head(&grad_concat.data()[rows.clone()], h);
            let dv = attn.transpose().unwrap().matmul(&d_out).unwrap();
            let da = d_out.matmul_transposed(v).unwrap();
            let mut ds = vec![0.0f32; tokens * tokens];
            for r in 0..tokens {
                let a_row = &attn.data()[r * tokens..(r + 1) * tokens];
                let da_row = &da.data()[r * tokens..(r + 1) * tokens];
                let dot: f32 = a_row.iter().zip(da_row).map(|(a, d)| a * d).sum();
                for c in 0..tokens {
                    ds[r * tokens + c] = a_row[c] * (da_row[c] - dot);
                }
            }
            let ds = Tensor::from_vec(ds, &[tokens, tokens])
                .unwrap()
                .scale(scale);
            let dq = ds.matmul(k).unwrap();
            let dk = ds.transpose().unwrap().matmul(q).unwrap();
            for (grad, head_grad) in grads.iter_mut().zip([dq, dk, dv]) {
                let grad_rows = grad[rows.clone()].chunks_exact_mut(inner);
                for (row, head_row) in grad_rows.zip(head_grad.data().chunks_exact(hd)) {
                    row[h * hd..(h + 1) * hd].copy_from_slice(head_row);
                }
            }
        }
        let mut dx: Option<Tensor> = None;
        for (projection, grad) in self.projections.iter_mut().zip(grads) {
            let grad = Tensor::from_vec(grad, grad_concat.dims()).unwrap();
            let d = projection.backward(&grad).unwrap();
            dx = Some(match dx {
                None => d,
                Some(sum) => sum.add(&d).unwrap(),
            });
        }
        dx.unwrap()
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn head_batched_attention_matches_the_per_head_oracle_bit_for_bit() {
    const EMBED: usize = 8;
    // 65 tokens × head_dim 16, 33 or 64 is above the per-head parallel
    // threshold (2^14 multiply-adds); 17 × 33 and everything smaller is below.
    let mut cases = 0;
    for heads in [1usize, 3, 12] {
        for head_dim in [1usize, 2, 16, 33, 64] {
            for tokens in [1usize, 4, 5, 17, 65] {
                for batch in [1usize, 3] {
                    let seed = (heads * 1_000 + head_dim * 10 + tokens) as u64 * 2 + batch as u64;
                    let mut rng = TensorRng::new(seed);
                    let layer =
                        MultiHeadSelfAttention::new(EMBED, heads, head_dim, &mut rng).unwrap();
                    let dims: &[usize] = if batch == 1 {
                        &[tokens, EMBED]
                    } else {
                        &[batch, tokens, EMBED]
                    };
                    let x = rng.randn(dims, 0.0, 1.0);
                    let grad = rng.randn(dims, 0.0, 1.0);
                    let run = || {
                        let (mut layer, mut oracle) = (layer.clone(), PerHeadAttention::of(&layer));
                        let y = layer.forward(&x).unwrap();
                        let y_oracle = oracle.forward(&x, tokens);
                        let dx = layer.backward(&grad).unwrap();
                        let dx_oracle = oracle.backward(&grad, tokens);
                        (bits(&y), bits(&y_oracle), bits(&dx), bits(&dx_oracle))
                    };
                    for (pool, (y, y_oracle, dx, dx_oracle)) in
                        [("budget 1", with_budget(1, run)), ("full pool", run())]
                    {
                        let case = format!(
                            "{heads} heads × {head_dim}, {tokens} tokens, batch {batch}, {pool}"
                        );
                        assert_eq!(y, y_oracle, "forward bits differ: {case}");
                        assert_eq!(dx, dx_oracle, "input-gradient bits differ: {case}");
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 300);
}
