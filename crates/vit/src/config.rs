use crate::{Result, ViTError};

/// The standard Vision Transformer variants evaluated in the paper (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViTVariant {
    /// ViT-Small: depth 12, width 384, 6 heads, 22.1 M parameters.
    Small,
    /// ViT-Base: depth 12, width 768, 12 heads, 86.6 M parameters.
    Base,
    /// ViT-Large: depth 24, width 1024, 16 heads, 304.4 M parameters.
    Large,
    /// A deliberately small configuration used for CPU-scale training in
    /// tests, examples and accuracy experiments.
    TinyTest,
}

impl std::fmt::Display for ViTVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViTVariant::Small => write!(f, "ViT-Small"),
            ViTVariant::Base => write!(f, "ViT-Base"),
            ViTVariant::Large => write!(f, "ViT-Large"),
            ViTVariant::TinyTest => write!(f, "ViT-Tiny(test)"),
        }
    }
}

/// How a paper-scale configuration is mapped to a configuration that can be
/// trained on a laptop CPU for the accuracy experiments (see DESIGN.md §3,
/// "Two model scales").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleProfile {
    /// Image resolution used at trainable scale.
    pub image_size: usize,
    /// Patch size used at trainable scale.
    pub patch_size: usize,
    /// Upper bound on the embedding width.
    pub max_embed_dim: usize,
    /// Upper bound on the transformer depth.
    pub max_depth: usize,
}

impl Default for ScaleProfile {
    fn default() -> Self {
        ScaleProfile {
            image_size: 32,
            patch_size: 8,
            max_embed_dim: 64,
            max_depth: 4,
        }
    }
}

/// Architecture hyper-parameters of a Vision Transformer.
///
/// # Example
///
/// ```
/// use edvit_vit::ViTConfig;
///
/// let base = ViTConfig::vit_base(10);
/// assert_eq!(base.embed_dim, 768);
/// assert_eq!(base.num_patches(), 196);
/// assert_eq!(base.head_dim(), 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ViTConfig {
    /// Which named variant this configuration corresponds to.
    pub variant: ViTVariant,
    /// Number of transformer blocks.
    pub depth: usize,
    /// Embedding width `d`.
    pub embed_dim: usize,
    /// Number of attention heads `h`.
    pub heads: usize,
    /// FFN hidden width as a multiple of `embed_dim` (4 for standard ViT).
    pub mlp_ratio: usize,
    /// Square patch size in pixels.
    pub patch_size: usize,
    /// Square input image resolution in pixels.
    pub image_size: usize,
    /// Number of input channels (3 for RGB vision tasks, 1 for audio
    /// spectrograms as in the paper's GTZAN / Speech Commands setup).
    pub channels: usize,
    /// Number of output classes.
    pub num_classes: usize,
}

impl ViTConfig {
    /// ViT-Small at 224×224 with 16×16 patches (Table I, row 1).
    pub fn vit_small(num_classes: usize) -> Self {
        ViTConfig {
            variant: ViTVariant::Small,
            depth: 12,
            embed_dim: 384,
            heads: 6,
            mlp_ratio: 4,
            patch_size: 16,
            image_size: 224,
            channels: 3,
            num_classes,
        }
    }

    /// ViT-Base at 224×224 with 16×16 patches (Table I, row 2).
    pub fn vit_base(num_classes: usize) -> Self {
        ViTConfig {
            variant: ViTVariant::Base,
            depth: 12,
            embed_dim: 768,
            heads: 12,
            mlp_ratio: 4,
            patch_size: 16,
            image_size: 224,
            channels: 3,
            num_classes,
        }
    }

    /// ViT-Large at 224×224 with 16×16 patches (Table I, row 3).
    pub fn vit_large(num_classes: usize) -> Self {
        ViTConfig {
            variant: ViTVariant::Large,
            depth: 24,
            embed_dim: 1024,
            heads: 16,
            mlp_ratio: 4,
            patch_size: 16,
            image_size: 224,
            channels: 3,
            num_classes,
        }
    }

    /// A variant for single-channel audio spectrogram inputs (224×224×1),
    /// matching the paper's audio-recognition setup.
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self
    }

    /// A tiny configuration that trains in milliseconds; used by tests,
    /// doctests and the quickstart example.
    pub fn tiny_test() -> Self {
        ViTConfig {
            variant: ViTVariant::TinyTest,
            depth: 2,
            embed_dim: 32,
            heads: 4,
            mlp_ratio: 2,
            patch_size: 8,
            image_size: 16,
            channels: 3,
            num_classes: 4,
        }
    }

    /// Builds the named paper variant.
    pub fn from_variant(variant: ViTVariant, num_classes: usize) -> Self {
        match variant {
            ViTVariant::Small => Self::vit_small(num_classes),
            ViTVariant::Base => Self::vit_base(num_classes),
            ViTVariant::Large => Self::vit_large(num_classes),
            ViTVariant::TinyTest => {
                let mut c = Self::tiny_test();
                c.num_classes = num_classes;
                c
            }
        }
    }

    /// Validates internal consistency (dimensions divide, nothing is zero).
    ///
    /// # Errors
    ///
    /// Returns [`ViTError::InvalidConfig`] describing the first problem found.
    pub fn validate(&self) -> Result<()> {
        if self.depth == 0
            || self.embed_dim == 0
            || self.heads == 0
            || self.mlp_ratio == 0
            || self.patch_size == 0
            || self.image_size == 0
            || self.channels == 0
            || self.num_classes == 0
        {
            return Err(ViTError::InvalidConfig {
                message: format!("configuration contains a zero-sized field: {self:?}"),
            });
        }
        if !self.embed_dim.is_multiple_of(self.heads) {
            return Err(ViTError::InvalidConfig {
                message: format!(
                    "embed_dim {} must be divisible by heads {}",
                    self.embed_dim, self.heads
                ),
            });
        }
        if !self.image_size.is_multiple_of(self.patch_size) {
            return Err(ViTError::InvalidConfig {
                message: format!(
                    "image_size {} must be divisible by patch_size {}",
                    self.image_size, self.patch_size
                ),
            });
        }
        Ok(())
    }

    /// Number of patches `p = (image / patch)^2`.
    pub fn num_patches(&self) -> usize {
        let per_side = self.image_size / self.patch_size;
        per_side * per_side
    }

    /// Flattened patch dimensionality `d_p = channels * patch^2`.
    pub fn patch_dim(&self) -> usize {
        self.channels * self.patch_size * self.patch_size
    }

    /// Per-head projection width `d_q = d_k = d_v = d / h`.
    pub fn head_dim(&self) -> usize {
        self.embed_dim / self.heads
    }

    /// FFN hidden width `c = mlp_ratio * d`.
    pub fn ffn_hidden(&self) -> usize {
        self.mlp_ratio * self.embed_dim
    }

    /// Maps this (possibly paper-scale) configuration onto a configuration
    /// that is actually trainable on CPU, preserving the head count, depth
    /// ordering between variants, class count and channel count.
    pub fn scaled_down(&self, profile: &ScaleProfile) -> ViTConfig {
        let depth = self.depth.clamp(1, profile.max_depth);
        // Preserve the head count but cap the embedding width, keeping it a
        // multiple of the head count.
        let heads = self.heads.min(profile.max_embed_dim);
        let embed_dim = (profile.max_embed_dim / heads).max(1) * heads;
        ViTConfig {
            variant: self.variant,
            depth,
            embed_dim,
            heads,
            mlp_ratio: self.mlp_ratio.min(2),
            patch_size: profile.patch_size,
            image_size: profile.image_size,
            channels: self.channels,
            num_classes: self.num_classes,
        }
    }
}

/// A structured-pruning plan for one sub-model, expressed as in the paper:
/// the number of "pruned heads" `hp` determines the retention factor
/// `s = (h - hp) / h`, which uniformly scales the residual width, the per-head
/// projection width and the FFN hidden width (Fig. 2 / Section IV-C).
#[derive(Debug, Clone, PartialEq)]
pub struct PrunedViTConfig {
    base: ViTConfig,
    pruned_heads: usize,
}

impl PrunedViTConfig {
    /// Creates a pruning plan that removes `pruned_heads` of the `h` heads'
    /// worth of width. `pruned_heads == 0` represents the unpruned model.
    ///
    /// # Errors
    ///
    /// Returns [`ViTError::InvalidPruning`] when `pruned_heads >= heads`
    /// (at least one head's worth of capacity must survive).
    pub fn new(base: ViTConfig, pruned_heads: usize) -> Result<Self> {
        base.validate()?;
        if pruned_heads >= base.heads {
            return Err(ViTError::InvalidPruning {
                message: format!(
                    "cannot prune {pruned_heads} of {} heads; at least one must remain",
                    base.heads
                ),
            });
        }
        Ok(PrunedViTConfig { base, pruned_heads })
    }

    /// The unpruned base configuration.
    pub fn base(&self) -> &ViTConfig {
        &self.base
    }

    /// Number of pruned heads `hp`.
    pub fn pruned_heads(&self) -> usize {
        self.pruned_heads
    }

    /// Retention factor `s = (h - hp) / h` from Section IV-C.
    pub fn retention(&self) -> f64 {
        (self.base.heads - self.pruned_heads) as f64 / self.base.heads as f64
    }

    /// Retained residual (embedding) width `s × d`, rounded to a multiple of
    /// the head count so heads stay rectangular.
    pub fn embed_dim(&self) -> usize {
        let kept_heads = self.base.heads - self.pruned_heads;
        kept_heads * self.base.head_dim()
    }

    /// Retained per-head projection width `s × d_q`.
    pub fn head_dim(&self) -> usize {
        let kept = (self.retention() * self.base.head_dim() as f64).round() as usize;
        kept.max(1)
    }

    /// Retained FFN hidden width `s × c`.
    pub fn ffn_hidden(&self) -> usize {
        let kept = (self.retention() * self.base.ffn_hidden() as f64).round() as usize;
        kept.max(1)
    }

    /// Number of heads, unchanged by pruning (the paper shrinks head width
    /// rather than deleting heads).
    pub fn heads(&self) -> usize {
        self.base.heads
    }

    /// Dimension of the pooled feature a sub-model transmits to the fusion
    /// device (`s × d`); multiplied by 4 bytes this gives the paper's
    /// communication payload (1536 B for ViT-Base at `s = 1/2`).
    pub fn feature_dim(&self) -> usize {
        self.embed_dim()
    }

    /// Returns a new plan with one more head's worth of width pruned —
    /// the adjustment step of Algorithm 1 (line 18) in reverse direction.
    ///
    /// # Errors
    ///
    /// Returns [`ViTError::InvalidPruning`] when no more width can be pruned.
    pub fn prune_one_more_head(&self) -> Result<PrunedViTConfig> {
        PrunedViTConfig::new(self.base.clone(), self.pruned_heads + 1)
    }

    /// Returns a new plan with one fewer pruned head (i.e. a bigger model),
    /// the adjustment used by Algorithm 1 when re-balancing.
    ///
    /// # Errors
    ///
    /// Returns [`ViTError::InvalidPruning`] when the plan is already unpruned.
    pub fn restore_one_head(&self) -> Result<PrunedViTConfig> {
        if self.pruned_heads == 0 {
            return Err(ViTError::InvalidPruning {
                message: "model is already unpruned".to_string(),
            });
        }
        PrunedViTConfig::new(self.base.clone(), self.pruned_heads - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_one() {
        let s = ViTConfig::vit_small(10);
        assert_eq!((s.depth, s.embed_dim, s.heads), (12, 384, 6));
        let b = ViTConfig::vit_base(10);
        assert_eq!((b.depth, b.embed_dim, b.heads), (12, 768, 12));
        let l = ViTConfig::vit_large(10);
        assert_eq!((l.depth, l.embed_dim, l.heads), (24, 1024, 16));
        for c in [&s, &b, &l] {
            assert_eq!(c.num_patches(), 196);
            assert_eq!(c.patch_size, 16);
            assert_eq!(c.image_size, 224);
            c.validate().unwrap();
        }
    }

    #[test]
    fn derived_dimensions() {
        let b = ViTConfig::vit_base(10);
        assert_eq!(b.head_dim(), 64);
        assert_eq!(b.ffn_hidden(), 3072);
        assert_eq!(b.patch_dim(), 768);
        let audio = ViTConfig::vit_base(10).with_channels(1);
        assert_eq!(audio.patch_dim(), 256);
    }

    #[test]
    fn from_variant_round_trips() {
        for v in [
            ViTVariant::Small,
            ViTVariant::Base,
            ViTVariant::Large,
            ViTVariant::TinyTest,
        ] {
            let c = ViTConfig::from_variant(v, 7);
            assert_eq!(c.variant, v);
            assert_eq!(c.num_classes, 7);
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn validation_catches_problems() {
        let mut c = ViTConfig::vit_base(10);
        c.embed_dim = 770; // not divisible by 12 heads
        assert!(c.validate().is_err());
        let mut c = ViTConfig::vit_base(10);
        c.image_size = 225;
        assert!(c.validate().is_err());
        let mut c = ViTConfig::vit_base(10);
        c.num_classes = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn scaled_down_is_trainable_and_consistent() {
        let profile = ScaleProfile::default();
        for base in [
            ViTConfig::vit_small(10),
            ViTConfig::vit_base(257),
            ViTConfig::vit_large(35).with_channels(1),
        ] {
            let small = base.scaled_down(&profile);
            small.validate().unwrap();
            assert!(small.embed_dim <= profile.max_embed_dim);
            assert!(small.depth <= profile.max_depth);
            assert_eq!(small.num_classes, base.num_classes);
            assert_eq!(small.channels, base.channels);
            assert_eq!(small.heads, base.heads.min(profile.max_embed_dim));
        }
    }

    #[test]
    fn pruned_config_retention_math() {
        let base = ViTConfig::vit_base(10);
        let p = PrunedViTConfig::new(base.clone(), 6).unwrap();
        assert!((p.retention() - 0.5).abs() < 1e-9);
        assert_eq!(p.embed_dim(), 384);
        assert_eq!(p.head_dim(), 32);
        assert_eq!(p.ffn_hidden(), 1536);
        assert_eq!(p.heads(), 12);
        // Communication payload: 384 floats * 4 bytes = 1536 bytes (paper §V-D).
        assert_eq!(p.feature_dim() * 4, 1536);
        let unpruned = PrunedViTConfig::new(base.clone(), 0).unwrap();
        assert_eq!(unpruned.embed_dim(), 768);
        assert!(PrunedViTConfig::new(base, 12).is_err());
    }

    #[test]
    fn prune_and_restore_heads() {
        let base = ViTConfig::vit_base(10);
        let p = PrunedViTConfig::new(base, 6).unwrap();
        let more = p.prune_one_more_head().unwrap();
        assert_eq!(more.pruned_heads(), 7);
        let back = more.restore_one_head().unwrap();
        assert_eq!(back.pruned_heads(), 6);
        let unpruned = back
            .restore_one_head()
            .unwrap()
            .restore_one_head()
            .unwrap()
            .restore_one_head()
            .unwrap()
            .restore_one_head()
            .unwrap()
            .restore_one_head()
            .unwrap()
            .restore_one_head()
            .unwrap();
        assert_eq!(unpruned.pruned_heads(), 0);
        assert!(unpruned.restore_one_head().is_err());
        // Pruning down to the last head is allowed, past it is not.
        let mut p = PrunedViTConfig::new(ViTConfig::vit_small(10), 0).unwrap();
        for _ in 0..5 {
            p = p.prune_one_more_head().unwrap();
        }
        assert!(p.prune_one_more_head().is_err());
    }

    #[test]
    fn tiny_test_config_is_valid() {
        let c = ViTConfig::tiny_test();
        c.validate().unwrap();
        assert_eq!(c.num_patches(), 4);
        assert!(c.embed_dim <= 64);
    }
}
