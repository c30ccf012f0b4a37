//! Closed-form FLOPs / parameter / memory model (Section III of the paper).
//!
//! The paper estimates energy and latency from multiply–accumulate (MAC)
//! counts: fully-connected layers contribute `FC_in × FC_out` MACs per token,
//! and multi-head self-attention contributes `3·p·d² + 2·p²·d` MACs for the
//! Q/K/V projections plus the two attention matrix products (we additionally
//! count the output projection `p·d²`, which the module structurally
//! contains). Parameters are counted exactly; memory is 4 bytes per `f32`
//! parameter.
//!
//! These formulas are what the partitioning and edge-simulation crates use —
//! no actual tensor computation is needed to regenerate Table I, Table II or
//! the latency/memory curves.

use crate::{PrunedViTConfig, ViTConfig};

/// Bytes occupied by one `f32` parameter.
pub const BYTES_PER_PARAM: u64 = 4;

/// Aggregate cost of a model: parameters, MAC-FLOPs per inference sample and
/// memory footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelCost {
    /// Number of scalar parameters.
    pub params: u64,
    /// Multiply–accumulate operations for a single input sample.
    pub flops: u64,
    /// Parameter memory in bytes (4 bytes per parameter).
    pub memory_bytes: u64,
}

impl ModelCost {
    /// Memory footprint in megabytes (decimal MB as in the paper's tables).
    pub fn memory_mb(&self) -> f64 {
        self.memory_bytes as f64 / 1.0e6
    }

    /// FLOPs expressed in units of 10⁹ (the "G" column of Table II).
    pub fn gflops(&self) -> f64 {
        self.flops as f64 / 1.0e9
    }

    /// Parameters in millions (the "×10⁶" column of Table I).
    pub fn params_millions(&self) -> f64 {
        self.params as f64 / 1.0e6
    }
}

/// Internal width description shared by full and pruned configurations.
#[derive(Debug, Clone, Copy)]
struct Widths {
    embed_dim: u64,
    attn_inner: u64,
    ffn_hidden: u64,
    depth: u64,
    patches: u64,
    patch_dim: u64,
    classes: u64,
}

impl Widths {
    fn of_config(c: &ViTConfig) -> Widths {
        Widths {
            embed_dim: c.embed_dim as u64,
            attn_inner: c.embed_dim as u64,
            ffn_hidden: c.ffn_hidden() as u64,
            depth: c.depth as u64,
            patches: c.num_patches() as u64,
            patch_dim: c.patch_dim() as u64,
            classes: c.num_classes as u64,
        }
    }

    fn of_pruned(p: &PrunedViTConfig) -> Widths {
        let base = p.base();
        Widths {
            embed_dim: p.embed_dim() as u64,
            attn_inner: (p.heads() * p.head_dim()) as u64,
            ffn_hidden: p.ffn_hidden() as u64,
            depth: base.depth as u64,
            patches: base.num_patches() as u64,
            patch_dim: base.patch_dim() as u64,
            classes: base.num_classes as u64,
        }
    }

    fn params(&self) -> u64 {
        let d = self.embed_dim;
        let a = self.attn_inner;
        let c = self.ffn_hidden;
        let patch_embed = self.patch_dim * d + d;
        let pos_embed = self.patches * d;
        let per_block = {
            let ln1 = 2 * d;
            let qkv = 3 * (d * a + a);
            let out = a * d + d;
            let ln2 = 2 * d;
            let ffn = d * c + c + c * d + d;
            ln1 + qkv + out + ln2 + ffn
        };
        let final_ln = 2 * d;
        let head = d * self.classes + self.classes;
        patch_embed + pos_embed + self.depth * per_block + final_ln + head
    }

    fn flops(&self) -> u64 {
        let d = self.embed_dim;
        let a = self.attn_inner;
        let c = self.ffn_hidden;
        let p = self.patches;
        let patch_embed = p * self.patch_dim * d;
        let per_block = {
            // Q, K, V projections.
            let qkv = 3 * p * d * a;
            // Q Kᵀ and softmax(·) V.
            let attn = 2 * p * p * a;
            // Output projection back to the residual width.
            let out = p * a * d;
            // Two FFN matmuls.
            let ffn = 2 * p * d * c;
            qkv + attn + out + ffn
        };
        let head = d * self.classes;
        patch_embed + self.depth * per_block + head
    }
}

/// Cost of a full (unpruned) Vision Transformer configuration.
///
/// # Example
///
/// ```
/// use edvit_vit::{analysis, ViTConfig};
///
/// let cost = analysis::cost_of_config(&ViTConfig::vit_base(10));
/// // Table I: 86.6 M parameters, ~16.9 GFLOPs, ~330 MB.
/// assert!((cost.params_millions() - 86.6).abs() < 1.5);
/// assert!((cost.gflops() - 16.86).abs() < 1.0);
/// ```
pub fn cost_of_config(config: &ViTConfig) -> ModelCost {
    let w = Widths::of_config(config);
    let params = w.params();
    ModelCost {
        params,
        flops: w.flops(),
        memory_bytes: params * BYTES_PER_PARAM,
    }
}

/// Cost of a pruned sub-model described by a [`PrunedViTConfig`].
pub fn cost_of_pruned(pruned: &PrunedViTConfig) -> ModelCost {
    let w = Widths::of_pruned(pruned);
    let params = w.params();
    ModelCost {
        params,
        flops: w.flops(),
        memory_bytes: params * BYTES_PER_PARAM,
    }
}

/// Communication payload, in bytes, of the pooled feature a sub-model sends to
/// the fusion device (`s·d` f32 values, Section V-D).
pub fn feature_payload_bytes(pruned: &PrunedViTConfig) -> u64 {
    pruned.feature_dim() as u64 * BYTES_PER_PARAM
}

/// Raw input image size in bytes (`channels × H × W`, one byte per pixel as in
/// the paper's 150 528-byte figure for a 224×224×3 image).
pub fn raw_image_bytes(config: &ViTConfig) -> u64 {
    (config.channels * config.image_size * config.image_size) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ViTError;

    #[test]
    fn table_one_parameter_counts() {
        let small = cost_of_config(&ViTConfig::vit_small(1000));
        let base = cost_of_config(&ViTConfig::vit_base(1000));
        let large = cost_of_config(&ViTConfig::vit_large(1000));
        // Paper Table I: 22.1 M / 86.6 M / 304.4 M (±3% tolerance: our model
        // counts the classification head for 1000 classes and learned
        // positional embeddings explicitly).
        assert!(
            (small.params_millions() - 22.1).abs() < 1.0,
            "{}",
            small.params_millions()
        );
        assert!(
            (base.params_millions() - 86.6).abs() < 2.0,
            "{}",
            base.params_millions()
        );
        assert!(
            (large.params_millions() - 304.4).abs() < 6.0,
            "{}",
            large.params_millions()
        );
    }

    #[test]
    fn table_one_flops() {
        let small = cost_of_config(&ViTConfig::vit_small(1000));
        let base = cost_of_config(&ViTConfig::vit_base(1000));
        let large = cost_of_config(&ViTConfig::vit_large(1000));
        // Paper Table I: 4.25 / 16.86 / 59.69 GFLOPs (MACs). Our count also
        // includes the attention output projection (which the paper's closed
        // form omits), putting us ~4-8% above; allow that margin.
        assert!((small.gflops() - 4.25).abs() < 0.45, "{}", small.gflops());
        assert!((base.gflops() - 16.86).abs() < 1.0, "{}", base.gflops());
        assert!((large.gflops() - 59.69).abs() < 3.5, "{}", large.gflops());
    }

    #[test]
    fn table_one_memory() {
        let base = cost_of_config(&ViTConfig::vit_base(1000));
        // ~330 MB for ViT-Base.
        assert!(
            (base.memory_mb() - 330.0).abs() < 20.0,
            "{}",
            base.memory_mb()
        );
        let small = cost_of_config(&ViTConfig::vit_small(1000));
        assert!(
            (small.memory_mb() - 85.0).abs() < 10.0,
            "{}",
            small.memory_mb()
        );
    }

    #[test]
    fn pruning_halves_width_quarters_flops() {
        let base = ViTConfig::vit_base(10);
        let full = cost_of_config(&base);
        let half = cost_of_pruned(&PrunedViTConfig::new(base.clone(), 6).unwrap());
        let ratio = half.flops as f64 / full.flops as f64;
        // Dominant terms scale with s²; the p²·d attention term scales with s,
        // so the ratio sits slightly above 0.25.
        assert!(ratio > 0.2 && ratio < 0.32, "ratio {ratio}");
        // Table II: ViT-Base sub-model at 2 devices has ~4.25 GFLOPs.
        assert!((half.gflops() - 4.25).abs() < 0.6, "{}", half.gflops());
        // Unpruned plan matches the full model cost.
        let unpruned = cost_of_pruned(&PrunedViTConfig::new(base, 0).unwrap());
        assert_eq!(unpruned.flops, full.flops);
        assert_eq!(unpruned.params, full.params);
    }

    #[test]
    fn deeper_pruning_monotonically_shrinks() -> Result<(), ViTError> {
        let base = ViTConfig::vit_base(10);
        let mut last = u64::MAX;
        for hp in 0..12 {
            let cost = cost_of_pruned(&PrunedViTConfig::new(base.clone(), hp)?);
            assert!(cost.flops < last, "flops must strictly decrease");
            last = cost.flops;
        }
        Ok(())
    }

    #[test]
    fn communication_payload_matches_paper() {
        let base = ViTConfig::vit_base(10);
        let half = PrunedViTConfig::new(base.clone(), 6).unwrap();
        assert_eq!(feature_payload_bytes(&half), 1536);
        // At s = 1/6 the payload is 512 bytes (10-device setting).
        let tenth = PrunedViTConfig::new(base.clone(), 10).unwrap();
        assert_eq!(feature_payload_bytes(&tenth), 512);
        assert_eq!(raw_image_bytes(&base), 150_528);
    }

    #[test]
    fn memory_is_params_times_four() {
        let c = cost_of_config(&ViTConfig::tiny_test());
        assert_eq!(c.memory_bytes, c.params * 4);
        assert!(c.memory_mb() > 0.0);
        assert!(c.params_millions() < 1.0);
    }
}
