use edvit_nn::{Layer, LayerNorm, Mlp, MlpActivation, MultiHeadSelfAttention, NnError, Parameter};
use edvit_tensor::{init::TensorRng, Tensor};

use crate::{Result, ViTError};

/// One pre-norm Vision Transformer encoder block:
///
/// ```text
/// x  ── LN₁ ── MHSA ──(+)── LN₂ ── FFN ──(+)──▶ out
///  \__________________/ \__________________/
///       residual              residual
/// ```
///
/// The three prunable component groups of Fig. 2 map onto this structure:
/// residual channels (the width `d` seen by both LayerNorms and the residual
/// sums), MHSA head dimensions, and the FFN hidden width.
#[derive(Debug, Clone)]
pub struct ViTBlock {
    ln1: LayerNorm,
    attn: MultiHeadSelfAttention,
    ln2: LayerNorm,
    ffn: Mlp,
    embed_dim: usize,
}

impl ViTBlock {
    /// Creates a block with `embed_dim` residual width, `heads` attention
    /// heads of width `head_dim`, and an FFN hidden width of `ffn_hidden`.
    ///
    /// # Errors
    ///
    /// Returns [`ViTError::InvalidConfig`] for zero-sized dimensions.
    pub fn new(
        embed_dim: usize,
        heads: usize,
        head_dim: usize,
        ffn_hidden: usize,
        rng: &mut TensorRng,
    ) -> Result<Self> {
        if embed_dim == 0 || ffn_hidden == 0 {
            return Err(ViTError::InvalidConfig {
                message: format!("block dims must be positive: d={embed_dim}, ffn={ffn_hidden}"),
            });
        }
        let attn = MultiHeadSelfAttention::new(embed_dim, heads, head_dim, rng)?;
        let ffn = Mlp::with_activation(
            &[embed_dim, ffn_hidden, embed_dim],
            MlpActivation::Gelu,
            rng,
        )?;
        Ok(ViTBlock {
            ln1: LayerNorm::new(embed_dim),
            attn,
            ln2: LayerNorm::new(embed_dim),
            ffn,
            embed_dim,
        })
    }

    /// Residual (embedding) width of the block.
    pub fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    /// The attention sub-layer (read-only), exposed for pruning.
    pub fn attn(&self) -> &MultiHeadSelfAttention {
        &self.attn
    }

    /// The feed-forward sub-layer (read-only), exposed for pruning.
    pub fn ffn(&self) -> &Mlp {
        &self.ffn
    }

    /// The first layer norm (read-only), exposed for pruning.
    pub fn ln1(&self) -> &LayerNorm {
        &self.ln1
    }

    /// The second layer norm (read-only), exposed for pruning.
    pub fn ln2(&self) -> &LayerNorm {
        &self.ln2
    }

    /// FFN hidden width.
    pub fn ffn_hidden(&self) -> usize {
        self.ffn.layer_sizes()[1]
    }

    /// Stage-1 pruning: restrict the residual channels to `keep`.
    ///
    /// # Errors
    ///
    /// Returns an error when indices are out of range.
    pub fn prune_embed_channels(&self, keep: &[usize]) -> Result<ViTBlock> {
        let linears = self.ffn.linears();
        Ok(ViTBlock {
            ln1: self.ln1.select_features(keep)?,
            ln2: self.ln2.select_features(keep)?,
            attn: self.attn.prune_embed_channels(keep)?,
            ffn: Mlp::from_linears(
                vec![
                    linears[0].select_inputs(keep)?,
                    linears[1].select_outputs(keep)?,
                ],
                MlpActivation::Gelu,
            )?,
            embed_dim: keep.len(),
        })
    }

    /// Stage-2 pruning: restrict each attention head's inner width to the
    /// per-head kept indices.
    ///
    /// # Errors
    ///
    /// Returns an error when the keep lists are inconsistent.
    pub fn prune_head_dims(&self, keep_per_head: &[Vec<usize>]) -> Result<ViTBlock> {
        Ok(ViTBlock {
            ln1: self.ln1.clone(),
            attn: self.attn.prune_head_dims(keep_per_head)?,
            ln2: self.ln2.clone(),
            ffn: self.ffn.clone(),
            embed_dim: self.embed_dim,
        })
    }

    /// Stage-3 pruning: restrict the FFN hidden units to `keep`.
    ///
    /// # Errors
    ///
    /// Returns an error when indices are out of range.
    pub fn prune_ffn_hidden(&self, keep: &[usize]) -> Result<ViTBlock> {
        let linears = self.ffn.linears();
        Ok(ViTBlock {
            ffn: Mlp::from_linears(
                vec![
                    linears[0].select_outputs(keep)?,
                    linears[1].select_inputs(keep)?,
                ],
                MlpActivation::Gelu,
            )?,
            ln1: self.ln1.clone(),
            attn: self.attn.clone(),
            ln2: self.ln2.clone(),
            embed_dim: self.embed_dim,
        })
    }
}

impl Layer for ViTBlock {
    fn forward(&self, input: &Tensor) -> edvit_nn::Result<Tensor> {
        // Attention branch with residual, then the FFN branch with residual.
        let attn_out = self.attn.forward(&self.ln1.forward(input)?)?;
        let h = input.add(&attn_out).map_err(NnError::from)?;
        let ffn_out = self.ffn.forward(&self.ln2.forward(&h)?)?;
        h.add(&ffn_out).map_err(NnError::from)
    }

    fn forward_train(&mut self, input: &Tensor) -> edvit_nn::Result<Tensor> {
        let attn_out = self.attn.forward_train(&self.ln1.forward_train(input)?)?;
        let h = input.add(&attn_out).map_err(NnError::from)?;
        let ffn_out = self.ffn.forward_train(&self.ln2.forward_train(&h)?)?;
        h.add(&ffn_out).map_err(NnError::from)
    }

    fn backward(&mut self, grad_output: &Tensor) -> edvit_nn::Result<Tensor> {
        // out = h + ffn(ln2(h))   =>   dh = dout + ln2ᵀ(ffnᵀ(dout))
        let g_ffn = self.ffn.backward(grad_output)?;
        let g_ln2 = self.ln2.backward(&g_ffn)?;
        let grad_h = grad_output.add(&g_ln2).map_err(NnError::from)?;
        // h = x + attn(ln1(x))    =>   dx = dh + ln1ᵀ(attnᵀ(dh))
        let g_attn = self.attn.backward(&grad_h)?;
        let g_ln1 = self.ln1.backward(&g_attn)?;
        let grad_x = grad_h.add(&g_ln1).map_err(NnError::from)?;
        Ok(grad_x)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        let mut params = self.ln1.parameters_mut();
        params.extend(self.attn.parameters_mut());
        params.extend(self.ln2.parameters_mut());
        params.extend(self.ffn.parameters_mut());
        params
    }

    fn parameters(&self) -> Vec<&Parameter> {
        let mut params = self.ln1.parameters();
        params.extend(self.attn.parameters());
        params.extend(self.ln2.parameters());
        params.extend(self.ffn.parameters());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> ViTBlock {
        let mut rng = TensorRng::new(0);
        ViTBlock::new(16, 4, 4, 32, &mut rng).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let b = block();
        assert_eq!(b.embed_dim(), 16);
        assert_eq!(b.ffn_hidden(), 32);
        assert_eq!(b.attn().heads(), 4);
        assert_eq!(b.ln1().dim(), 16);
        assert_eq!(b.ln2().dim(), 16);
        assert_eq!(b.ffn().layer_sizes(), &[16, 32, 16]);
        let mut rng = TensorRng::new(0);
        assert!(ViTBlock::new(0, 4, 4, 32, &mut rng).is_err());
        assert!(ViTBlock::new(16, 4, 4, 0, &mut rng).is_err());
    }

    #[test]
    fn forward_preserves_shape_2d_and_3d() {
        let mut b = block();
        let mut rng = TensorRng::new(1);
        let x = rng.randn(&[5, 16], 0.0, 1.0);
        assert_eq!(b.forward(&x).unwrap().dims(), &[5, 16]);
        let x3 = rng.randn(&[2, 5, 16], 0.0, 1.0);
        assert_eq!(b.forward_train(&x3).unwrap().dims(), &[2, 5, 16]);
        let g = b.backward(&Tensor::ones(&[2, 5, 16])).unwrap();
        assert_eq!(g.dims(), &[2, 5, 16]);
    }

    #[test]
    fn residual_identity_at_zero_weights() {
        // With all projections zeroed the block must be the identity.
        let mut b = block();
        for p in b.parameters_mut() {
            if p.name().contains("weight") || p.name().contains("bias") || p.name().contains("pos")
            {
                let dims = p.value().dims().to_vec();
                *p.value_mut() = Tensor::zeros(&dims);
            }
        }
        let mut rng = TensorRng::new(2);
        let x = rng.randn(&[3, 16], 0.0, 1.0);
        let y = b.forward(&x).unwrap();
        for (a, bv) in x.data().iter().zip(y.data()) {
            assert!((a - bv).abs() < 1e-5);
        }
    }

    #[test]
    fn gradient_check_against_finite_difference() {
        // Hand-rolled check (the shared helper lives in edvit-nn's test-only
        // module which is not visible here).
        let mut b = ViTBlock::new(8, 2, 4, 8, &mut TensorRng::new(3)).unwrap();
        let mut rng = TensorRng::new(4);
        let x = rng.randn(&[3, 8], 0.0, 1.0);
        let w = TensorRng::new(5).rand_uniform(&[3, 8], -1.0, 1.0);
        b.zero_grad();
        let _out = b.forward_train(&x).unwrap();
        let grad_in = b.backward(&w).unwrap();
        let eps = 1e-2f32;
        for i in [0usize, 5, 11, 17, 23] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp = b.forward(&xp).unwrap().mul(&w).unwrap().sum();
            let lm = b.forward(&xm).unwrap().mul(&w).unwrap().sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (grad_in.data()[i] - fd).abs() < 5e-2 * (1.0 + fd.abs()),
                "grad mismatch at {i}: {} vs {}",
                grad_in.data()[i],
                fd
            );
        }
    }

    #[test]
    fn prune_embed_channels_keeps_structure() {
        let b = block();
        let keep: Vec<usize> = (0..8).collect();
        let pruned = b.prune_embed_channels(&keep).unwrap();
        assert_eq!(pruned.embed_dim(), 8);
        assert_eq!(pruned.ffn().layer_sizes(), &[8, 32, 8]);
        let mut rng = TensorRng::new(6);
        let x = rng.randn(&[4, 8], 0.0, 1.0);
        assert_eq!(pruned.forward(&x).unwrap().dims(), &[4, 8]);
    }

    #[test]
    fn prune_head_dims_and_ffn_hidden() {
        let b = block();
        let keep_heads: Vec<Vec<usize>> = (0..4).map(|_| vec![0, 2]).collect();
        let pruned = b.prune_head_dims(&keep_heads).unwrap();
        assert_eq!(pruned.attn().head_dim(), 2);
        assert_eq!(pruned.embed_dim(), 16);
        let keep_ffn: Vec<usize> = (0..16).collect();
        let pruned2 = b.prune_ffn_hidden(&keep_ffn).unwrap();
        assert_eq!(pruned2.ffn_hidden(), 16);
        let mut rng = TensorRng::new(7);
        let x = rng.randn(&[3, 16], 0.0, 1.0);
        assert_eq!(pruned2.forward(&x).unwrap().dims(), &[3, 16]);
    }

    #[test]
    fn parameter_count_formula() {
        let b = block();
        // ln1 + ln2: 2*2*16; attn: 4*(16*16+16); ffn: 16*32+32 + 32*16+16
        let expected = 2 * 2 * 16 + 4 * (16 * 16 + 16) + (16 * 32 + 32) + (32 * 16 + 16);
        assert_eq!(b.parameter_count(), expected);
    }
}
