use edvit_parallel::ParallelPool;
use edvit_tensor::{init::TensorRng, kernels, ops, Tensor};

use crate::{Layer, Linear, NnError, Parameter, Result};

/// Per-head score/softmax/value work (`tokens² · head_dim` multiply-adds)
/// below which parallelizing across heads is not worth the pool wake-up.
const PAR_HEAD_WORK: usize = 1 << 14;

/// Multi-head self-attention, the MHSA block of a Vision Transformer.
///
/// The layer keeps the number of heads `h` and the per-head projection width
/// `head_dim` as independent knobs. ED-ViT's second pruning stage shrinks the
/// per-head query/key/value width (`d_q = d_k = d_v`) rather than removing
/// whole heads ("without entirely discarding any head", Section IV-C), so a
/// pruned block simply has a smaller `head_dim`.
///
/// Inputs of shape `[tokens, embed]` or `[batch, tokens, embed]` are accepted.
///
/// # Example
///
/// ```
/// use edvit_nn::{Layer, MultiHeadSelfAttention};
/// use edvit_tensor::init::TensorRng;
///
/// # fn main() -> Result<(), edvit_nn::NnError> {
/// let mut rng = TensorRng::new(0);
/// let mut mhsa = MultiHeadSelfAttention::new(16, 4, 4, &mut rng)?;
/// let x = rng.randn(&[5, 16], 0.0, 1.0);
/// assert_eq!(mhsa.forward(&x)?.dims(), &[5, 16]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MultiHeadSelfAttention {
    q_proj: Linear,
    k_proj: Linear,
    v_proj: Linear,
    out_proj: Linear,
    embed_dim: usize,
    heads: usize,
    head_dim: usize,
    cache: Option<AttentionCache>,
}

#[derive(Debug)]
struct AttentionCache {
    /// The `[.., tokens, heads·head_dim]` projections, moved in from the
    /// forward; the backward reads each head's columns out of them.
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Softmaxed attention weights, `[batch, heads, tokens, tokens]`.
    attn: Vec<f32>,
    tokens: usize,
}

impl Clone for MultiHeadSelfAttention {
    /// Clones the projection weights; the forward cache is backward-pass
    /// scratch, so the clone starts with an empty one.
    fn clone(&self) -> Self {
        MultiHeadSelfAttention {
            q_proj: self.q_proj.clone(),
            k_proj: self.k_proj.clone(),
            v_proj: self.v_proj.clone(),
            out_proj: self.out_proj.clone(),
            embed_dim: self.embed_dim,
            heads: self.heads,
            head_dim: self.head_dim,
            cache: None,
        }
    }
}

impl MultiHeadSelfAttention {
    /// Creates an MHSA layer with `heads` heads of width `head_dim` over an
    /// embedding of size `embed_dim`. The standard ViT configuration uses
    /// `head_dim = embed_dim / heads`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for zero-sized dimensions.
    pub fn new(
        embed_dim: usize,
        heads: usize,
        head_dim: usize,
        rng: &mut TensorRng,
    ) -> Result<Self> {
        if embed_dim == 0 || heads == 0 || head_dim == 0 {
            return Err(NnError::InvalidConfig {
                message: format!(
                    "invalid MHSA configuration: embed={embed_dim}, heads={heads}, head_dim={head_dim}"
                ),
            });
        }
        let inner = heads * head_dim;
        Ok(MultiHeadSelfAttention {
            q_proj: Linear::new(embed_dim, inner, rng),
            k_proj: Linear::new(embed_dim, inner, rng),
            v_proj: Linear::new(embed_dim, inner, rng),
            out_proj: Linear::new(inner, embed_dim, rng),
            embed_dim,
            heads,
            head_dim,
            cache: None,
        })
    }

    /// Builds an MHSA layer from existing projection layers — used when
    /// slicing pruned sub-models out of a trained model.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when the projections are mutually
    /// inconsistent with `heads`/`head_dim`.
    pub fn from_projections(
        q_proj: Linear,
        k_proj: Linear,
        v_proj: Linear,
        out_proj: Linear,
        heads: usize,
        head_dim: usize,
    ) -> Result<Self> {
        let embed_dim = q_proj.in_features();
        let inner = heads * head_dim;
        if q_proj.out_features() != inner
            || k_proj.out_features() != inner
            || v_proj.out_features() != inner
            || k_proj.in_features() != embed_dim
            || v_proj.in_features() != embed_dim
            || out_proj.in_features() != inner
        {
            return Err(NnError::InvalidConfig {
                message: "inconsistent projection shapes for MHSA".to_string(),
            });
        }
        Ok(MultiHeadSelfAttention {
            q_proj,
            k_proj,
            v_proj,
            out_proj,
            embed_dim,
            heads,
            head_dim,
            cache: None,
        })
    }

    /// Embedding dimension seen at the input and output.
    pub fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Per-head query/key/value width.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// The query projection (read-only), exposed for pruning.
    pub fn q_proj(&self) -> &Linear {
        &self.q_proj
    }

    /// The key projection (read-only), exposed for pruning.
    pub fn k_proj(&self) -> &Linear {
        &self.k_proj
    }

    /// The value projection (read-only), exposed for pruning.
    pub fn v_proj(&self) -> &Linear {
        &self.v_proj
    }

    /// The output projection (read-only), exposed for pruning.
    pub fn out_proj(&self) -> &Linear {
        &self.out_proj
    }

    /// Returns a pruned copy of this layer that keeps only the given
    /// per-head inner dimensions.
    ///
    /// `keep_per_head[i]` lists the indices (in `0..head_dim`) retained for
    /// head `i`; every head must keep the same number of dimensions so the
    /// pruned layer stays rectangular, mirroring ED-ViT's uniform `s × h`
    /// reduction.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when head counts or kept widths are
    /// inconsistent.
    pub fn prune_head_dims(&self, keep_per_head: &[Vec<usize>]) -> Result<MultiHeadSelfAttention> {
        if keep_per_head.len() != self.heads {
            return Err(NnError::InvalidConfig {
                message: format!(
                    "expected keep lists for {} heads, got {}",
                    self.heads,
                    keep_per_head.len()
                ),
            });
        }
        let kept_width = keep_per_head.first().map_or(0, Vec::len);
        if kept_width == 0 || keep_per_head.iter().any(|k| k.len() != kept_width) {
            return Err(NnError::InvalidConfig {
                message: "every head must keep the same non-zero number of dimensions".to_string(),
            });
        }
        // Translate per-head kept indices into global column indices of the
        // [embed, heads*head_dim] projections.
        let mut columns = Vec::with_capacity(self.heads * kept_width);
        for (h, keep) in keep_per_head.iter().enumerate() {
            for &i in keep {
                if i >= self.head_dim {
                    return Err(NnError::InvalidConfig {
                        message: format!(
                            "kept index {i} out of range for head_dim {}",
                            self.head_dim
                        ),
                    });
                }
                columns.push(h * self.head_dim + i);
            }
        }
        let q = self.q_proj.select_outputs(&columns)?;
        let k = self.k_proj.select_outputs(&columns)?;
        let v = self.v_proj.select_outputs(&columns)?;
        let out = self.out_proj.select_inputs(&columns)?;
        MultiHeadSelfAttention::from_projections(q, k, v, out, self.heads, kept_width)
    }

    /// Returns a copy of this layer whose input/output embedding channels are
    /// restricted to `keep` — the residual-channel pruning stage.
    ///
    /// # Errors
    ///
    /// Returns an error when indices are out of range.
    pub fn prune_embed_channels(&self, keep: &[usize]) -> Result<MultiHeadSelfAttention> {
        let q = self.q_proj.select_inputs(keep)?;
        let k = self.k_proj.select_inputs(keep)?;
        let v = self.v_proj.select_inputs(keep)?;
        let out = self.out_proj.select_outputs(keep)?;
        MultiHeadSelfAttention::from_projections(q, k, v, out, self.heads, self.head_dim)
    }

    /// Attention over one sample whose projections `q`, `k`, `v` are
    /// `[tokens, heads·head_dim]` row-major slices: writes every head's
    /// softmaxed scores into `attn` (`[heads, tokens, tokens]`) and the
    /// concatenated head outputs into `out` (`[tokens, heads·head_dim]`).
    ///
    /// The heads' outputs land head-major in one scratch buffer, the layout
    /// the value product writes, and are scattered into `out` once.
    fn forward_sample(
        &self,
        tokens: usize,
        qkv: (&[f32], &[f32], &[f32]),
        attn: &mut [f32],
        out: &mut [f32],
    ) {
        let (hd, inner) = (self.head_dim, self.heads * self.head_dim);
        let mut by_head = vec![0.0f32; self.heads * tokens * hd];
        // Heads are independent (DeViT-style decomposition), so they can run
        // on separate threads; below the work threshold the pool wake-up
        // costs more than the heads themselves.
        let pool = ParallelPool::global();
        if self.heads > 1 && tokens * tokens * hd >= PAR_HEAD_WORK && !pool.is_sequential() {
            let mut heads: Vec<(&mut [f32], &mut [f32])> = attn
                .chunks_exact_mut(tokens * tokens)
                .zip(by_head.chunks_exact_mut(tokens * hd))
                .collect();
            pool.scope_chunks(&mut heads, 1, |h, head| {
                let (attn, out) = &mut head[0];
                self.heads_forward(h, tokens, qkv, attn, out);
            });
        } else {
            self.heads_forward(0, tokens, qkv, attn, &mut by_head);
        }
        for (h, head) in by_head.chunks_exact(tokens * hd).enumerate() {
            for (row, head_row) in out.chunks_exact_mut(inner).zip(head.chunks_exact(hd)) {
                row[h * hd..(h + 1) * hd].copy_from_slice(head_row);
            }
        }
    }

    /// Scaled-dot-product attention of heads `first..` of one sample, as many
    /// as `attn` holds `[tokens, tokens]` blocks, into `out`
    /// (`[heads, tokens, head_dim]`, zero-filled). A head's query and key
    /// rows are contiguous segments of the projection rows, so the scores
    /// (`1/√d` fused into the write) copy nothing; one softmax runs over
    /// every head's rows; each head's values are packed into one scratch
    /// reused across heads for the `[tokens, tokens]·[tokens, head_dim]`
    /// product.
    fn heads_forward(
        &self,
        first: usize,
        tokens: usize,
        (q, k, v): (&[f32], &[f32], &[f32]),
        attn: &mut [f32],
        out: &mut [f32],
    ) {
        let (hd, inner) = (self.head_dim, self.heads * self.head_dim);
        let scale = 1.0 / (hd as f32).sqrt();
        let pool = ParallelPool::global();
        for (h, scores) in (first..).zip(attn.chunks_exact_mut(tokens * tokens)) {
            let col = h * hd;
            for (q_row, score_row) in q.chunks_exact(inner).zip(scores.chunks_exact_mut(tokens)) {
                let q_head = &q_row[col..col + hd];
                for (score, k_row) in score_row.iter_mut().zip(k.chunks_exact(inner)) {
                    *score = kernels::dot(q_head, &k_row[col..col + hd]) * scale;
                }
            }
        }
        ops::softmax_rows(attn, tokens, pool);
        let mut v_head = Vec::with_capacity(tokens * hd);
        let heads = attn
            .chunks_exact(tokens * tokens)
            .zip(out.chunks_exact_mut(tokens * hd));
        for (h, (weights, out)) in (first..).zip(heads) {
            pack_head(&mut v_head, v, h * hd, hd, inner);
            kernels::matmul(weights, &v_head, out, tokens, tokens, hd, pool);
        }
    }
}

/// Replaces `into` with the `width` columns from `col` of every
/// `row_len`-wide row of `all`: one head's `[tokens, head_dim]` operand.
fn pack_head(into: &mut Vec<f32>, all: &[f32], col: usize, width: usize, row_len: usize) {
    into.clear();
    for row in all.chunks_exact(row_len) {
        into.extend_from_slice(&row[col..col + width]);
    }
}

impl Layer for MultiHeadSelfAttention {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let (batch, tokens) = match *input.dims() {
            [tokens, _] => (1, tokens),
            [batch, tokens, _] => (batch, tokens),
            _ => {
                return Err(NnError::InvalidConfig {
                    message: format!("MHSA expects rank 2 or 3 input, got rank {}", input.rank()),
                })
            }
        };
        let q = self.q_proj.forward(input)?;
        let k = self.k_proj.forward(input)?;
        let v = self.v_proj.forward(input)?;
        let inner = self.heads * self.head_dim;
        let sample_len = tokens * inner;
        let attn_len = self.heads * tokens * tokens;
        let mut attn = vec![0.0f32; batch * attn_len];
        let mut concat = vec![0.0f32; batch * sample_len];
        // Samples are independent; run them across the pool (each sample's
        // heads then execute inline on its worker). `max(1)` keeps an empty
        // sequence legal: its buffers are empty, so no sample runs.
        let mut samples: Vec<(&mut [f32], &mut [f32])> = attn
            .chunks_exact_mut(attn_len.max(1))
            .zip(concat.chunks_exact_mut(sample_len.max(1)))
            .collect();
        ParallelPool::global().scope_chunks(&mut samples, 1, |b, sample| {
            let (attn, out) = &mut sample[0];
            let rows = b * sample_len..(b + 1) * sample_len;
            let qkv = (
                &q.data()[rows.clone()],
                &k.data()[rows.clone()],
                &v.data()[rows],
            );
            self.forward_sample(tokens, qkv, attn, out);
        });
        let concat = Tensor::from_vec(concat, q.dims())?;
        self.cache = Some(AttentionCache {
            q,
            k,
            v,
            attn,
            tokens,
        });
        self.out_proj.forward_owned(concat)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let grad_concat = self.out_proj.backward(grad_output)?;
        let cache = self.cache.as_ref().ok_or(NnError::MissingForwardCache {
            layer: "MultiHeadSelfAttention",
        })?;
        let (t, hd, inner) = (cache.tokens, self.head_dim, self.heads * self.head_dim);
        let scale = 1.0 / (hd as f32).sqrt();
        let mut dq = vec![0.0f32; cache.q.numel()];
        let mut dk = vec![0.0f32; cache.k.numel()];
        let mut dv = vec![0.0f32; cache.v.numel()];
        for (b, sample_attn) in cache
            .attn
            .chunks_exact((self.heads * t * t).max(1))
            .enumerate()
        {
            let rows = b * t * inner..(b + 1) * t * inner;
            for (h, attn) in sample_attn.chunks_exact(t * t).enumerate() {
                let head = |all: &Tensor| -> Result<Tensor> {
                    let mut data = Vec::with_capacity(t * hd);
                    pack_head(&mut data, &all.data()[rows.clone()], h * hd, hd, inner);
                    Ok(Tensor::from_vec(data, &[t, hd])?)
                };
                let (q, k, v, d_out) = (
                    head(&cache.q)?,
                    head(&cache.k)?,
                    head(&cache.v)?,
                    head(&grad_concat)?,
                );
                let attn = Tensor::from_vec(attn.to_vec(), &[t, t])?;
                // dV = A^T dOut
                let dv_head = attn.transpose()?.matmul(&d_out)?;
                // dA = dOut V^T
                let da = d_out.matmul_transposed(&v)?;
                // Softmax backward per row: dS = A * (dA - rowsum(dA * A))
                let mut ds = vec![0.0f32; t * t];
                let rows_of = attn.data().chunks_exact(t).zip(da.data().chunks_exact(t));
                for (ds_row, (a_row, da_row)) in ds.chunks_exact_mut(t).zip(rows_of) {
                    let dot: f32 = a_row.iter().zip(da_row).map(|(a, d)| a * d).sum();
                    for ((ds, a), da) in ds_row.iter_mut().zip(a_row).zip(da_row) {
                        *ds = a * (da - dot);
                    }
                }
                let ds = Tensor::from_vec(ds, &[t, t])?.scale(scale);
                // dQ = dS K ; dK = dS^T Q
                let dq_head = ds.matmul(&k)?;
                let dk_head = ds.transpose()?.matmul(&q)?;
                for (grad, head_grad) in
                    [(&mut dq, dq_head), (&mut dk, dk_head), (&mut dv, dv_head)]
                {
                    let grad_rows = grad[rows.clone()].chunks_exact_mut(inner);
                    for (row, head_row) in grad_rows.zip(head_grad.data().chunks_exact(hd)) {
                        row[h * hd..(h + 1) * hd].copy_from_slice(head_row);
                    }
                }
            }
        }
        let dims = cache.q.dims().to_vec();
        let dx_q = self.q_proj.backward(&Tensor::from_vec(dq, &dims)?)?;
        let dx_k = self.k_proj.backward(&Tensor::from_vec(dk, &dims)?)?;
        let dx_v = self.v_proj.backward(&Tensor::from_vec(dv, &dims)?)?;
        Ok(dx_q.add(&dx_k)?.add(&dx_v)?)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        let mut params = self.q_proj.parameters_mut();
        params.extend(self.k_proj.parameters_mut());
        params.extend(self.v_proj.parameters_mut());
        params.extend(self.out_proj.parameters_mut());
        params
    }

    fn parameters(&self) -> Vec<&Parameter> {
        let mut params = self.q_proj.parameters();
        params.extend(self.k_proj.parameters());
        params.extend(self.v_proj.parameters());
        params.extend(self.out_proj.parameters());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::finite_difference_check;

    #[test]
    fn forward_shapes_2d_and_3d() {
        let mut rng = TensorRng::new(0);
        let mut mhsa = MultiHeadSelfAttention::new(12, 3, 4, &mut rng).unwrap();
        let x2 = rng.randn(&[7, 12], 0.0, 1.0);
        assert_eq!(mhsa.forward(&x2).unwrap().dims(), &[7, 12]);
        let x3 = rng.randn(&[2, 7, 12], 0.0, 1.0);
        assert_eq!(mhsa.forward(&x3).unwrap().dims(), &[2, 7, 12]);
        assert_eq!(mhsa.heads(), 3);
        assert_eq!(mhsa.head_dim(), 4);
        assert_eq!(mhsa.embed_dim(), 12);
    }

    #[test]
    fn rejects_invalid_configs_and_ranks() {
        let mut rng = TensorRng::new(0);
        assert!(MultiHeadSelfAttention::new(0, 2, 2, &mut rng).is_err());
        assert!(MultiHeadSelfAttention::new(8, 0, 2, &mut rng).is_err());
        let mut mhsa = MultiHeadSelfAttention::new(8, 2, 4, &mut rng).unwrap();
        assert!(mhsa.forward(&Tensor::zeros(&[8])).is_err());
        assert!(mhsa.backward(&Tensor::zeros(&[3, 8])).is_err());
    }

    #[test]
    fn parameter_count_matches_formula() {
        let mut rng = TensorRng::new(0);
        let mhsa = MultiHeadSelfAttention::new(16, 4, 4, &mut rng).unwrap();
        // q/k/v: 3*(16*16 + 16), out: 16*16 + 16
        assert_eq!(mhsa.parameter_count(), 4 * (16 * 16 + 16));
        assert_eq!(mhsa.parameters().len(), 8);
    }

    #[test]
    fn prune_head_dims_shrinks_projections() {
        let mut rng = TensorRng::new(1);
        let mhsa = MultiHeadSelfAttention::new(8, 2, 4, &mut rng).unwrap();
        let keep = vec![vec![0, 2], vec![1, 3]];
        let pruned = mhsa.prune_head_dims(&keep).unwrap();
        assert_eq!(pruned.head_dim(), 2);
        assert_eq!(pruned.heads(), 2);
        assert_eq!(pruned.q_proj().out_features(), 4);
        assert_eq!(pruned.out_proj().in_features(), 4);
        // embed dim untouched
        assert_eq!(pruned.embed_dim(), 8);
        // invalid keep lists
        assert!(mhsa.prune_head_dims(&[vec![0]]).is_err());
        assert!(mhsa.prune_head_dims(&[vec![0], vec![9]]).is_err());
        assert!(mhsa.prune_head_dims(&[vec![0], vec![]]).is_err());
    }

    #[test]
    fn prune_embed_channels_shrinks_in_out() {
        let mut rng = TensorRng::new(2);
        let mhsa = MultiHeadSelfAttention::new(8, 2, 4, &mut rng).unwrap();
        let pruned = mhsa.prune_embed_channels(&[0, 1, 2, 3]).unwrap();
        assert_eq!(pruned.embed_dim(), 4);
        assert_eq!(pruned.out_proj().out_features(), 4);
        let mut pruned = pruned;
        let mut rng2 = TensorRng::new(3);
        let x = rng2.randn(&[5, 4], 0.0, 1.0);
        assert_eq!(pruned.forward(&x).unwrap().dims(), &[5, 4]);
    }

    #[test]
    fn pruned_head_dims_forward_works() {
        let mut rng = TensorRng::new(4);
        let mhsa = MultiHeadSelfAttention::new(6, 3, 2, &mut rng).unwrap();
        let mut pruned = mhsa.prune_head_dims(&[vec![0], vec![1], vec![0]]).unwrap();
        let x = rng.randn(&[4, 6], 0.0, 1.0);
        assert_eq!(pruned.forward(&x).unwrap().dims(), &[4, 6]);
    }

    #[test]
    fn attention_rows_are_distributions() {
        let mut rng = TensorRng::new(5);
        let mut mhsa = MultiHeadSelfAttention::new(8, 2, 4, &mut rng).unwrap();
        let x = rng.randn(&[6, 8], 0.0, 1.0);
        mhsa.forward(&x).unwrap();
        let cache = mhsa.cache.as_ref().unwrap();
        assert_eq!(cache.attn.len(), 2 * 6 * 6);
        for row in cache.attn.chunks(6) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn gradcheck_2d() {
        let mut rng = TensorRng::new(6);
        let mhsa = MultiHeadSelfAttention::new(6, 2, 3, &mut rng).unwrap();
        finite_difference_check(Box::new(mhsa), &[4, 6], 5e-2, 77);
    }

    #[test]
    fn gradcheck_batched() {
        let mut rng = TensorRng::new(7);
        let mhsa = MultiHeadSelfAttention::new(4, 2, 2, &mut rng).unwrap();
        finite_difference_check(Box::new(mhsa), &[2, 3, 4], 5e-2, 78);
    }
}
