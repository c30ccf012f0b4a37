use edvit_nn::{Layer, LayerNorm, Linear, NnError, Parameter};
use edvit_parallel::ParallelPool;
use edvit_tensor::{init::TensorRng, Tensor};

use crate::{PatchEmbed, Result, ViTBlock, ViTConfig, ViTError};

/// Total pooled elements (`batch·tokens·dim`) below which the mean-pool
/// loops run sequentially — tiny training batches would otherwise pay a pool
/// wake-up for a few kilobytes of additions.
const PAR_POOL_WORK: usize = 1 << 15;

/// A trainable Vision Transformer for image (or spectrogram) classification.
///
/// The architecture is the standard pre-norm ViT: patch embedding with learned
/// positional embeddings, a stack of [`ViTBlock`]s, a final layer norm, mean
/// pooling over tokens, and a linear classification head. Mean pooling (rather
/// than a class token) keeps the pooled feature exactly `s × d` wide after
/// pruning, matching the communication payload the paper reports in §V-D.
///
/// A model's widths are read from its layers ([`VisionTransformer::embed_dim`],
/// [`VisionTransformer::num_classes`], each block's attention and FFN), so
/// they describe the model as it is after pruning or
/// [`VisionTransformer::replace_head`].
///
/// # Example
///
/// ```
/// use edvit_vit::{ViTConfig, VisionTransformer};
/// use edvit_tensor::init::TensorRng;
///
/// # fn main() -> Result<(), edvit_vit::ViTError> {
/// let config = ViTConfig::tiny_test();
/// let mut rng = TensorRng::new(7);
/// let model = VisionTransformer::new(&config, &mut rng)?;
/// let x = rng.randn(&[1, 3, 16, 16], 0.0, 1.0);
/// let logits = model.forward_images(&x)?;
/// assert_eq!(logits.dims(), &[1, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct VisionTransformer {
    patch_embed: PatchEmbed,
    blocks: Vec<ViTBlock>,
    final_ln: LayerNorm,
    head: Linear,
    /// `(batch, tokens)` of the mean pooling
    /// [`VisionTransformer::forward_features_train`] ran.
    record: Option<(usize, usize)>,
}

impl VisionTransformer {
    /// Creates a randomly-initialized Vision Transformer.
    ///
    /// # Errors
    ///
    /// Returns [`ViTError::InvalidConfig`] when the configuration is invalid.
    pub fn new(config: &ViTConfig, rng: &mut TensorRng) -> Result<Self> {
        config.validate()?;
        let patch_embed = PatchEmbed::new(config, rng)?;
        let mut blocks = Vec::with_capacity(config.depth);
        for _ in 0..config.depth {
            blocks.push(ViTBlock::new(
                config.embed_dim,
                config.heads,
                config.head_dim(),
                config.ffn_hidden(),
                rng,
            )?);
        }
        let final_ln = LayerNorm::new(config.embed_dim);
        let head = Linear::new(config.embed_dim, config.num_classes, rng);
        Ok(VisionTransformer {
            patch_embed,
            blocks,
            final_ln,
            head,
            record: None,
        })
    }

    /// Builds a model from existing components, of any widths they agree
    /// on.
    ///
    /// # Errors
    ///
    /// Returns [`ViTError::InvalidConfig`] when components disagree on widths
    /// or there is no block.
    pub fn from_parts(
        patch_embed: PatchEmbed,
        blocks: Vec<ViTBlock>,
        final_ln: LayerNorm,
        head: Linear,
    ) -> Result<Self> {
        let d = patch_embed.embed_dim();
        if blocks.iter().any(|b| b.embed_dim() != d)
            || final_ln.dim() != d
            || head.in_features() != d
        {
            return Err(ViTError::InvalidConfig {
                message: "model components disagree on embedding width".to_string(),
            });
        }
        if blocks.is_empty() {
            return Err(ViTError::InvalidConfig {
                message: "a Vision Transformer needs at least one block".to_string(),
            });
        }
        Ok(VisionTransformer {
            patch_embed,
            blocks,
            final_ln,
            head,
            record: None,
        })
    }

    /// Current residual (embedding) width.
    pub fn embed_dim(&self) -> usize {
        self.final_ln.dim()
    }

    /// Number of output classes of the classification head.
    pub fn num_classes(&self) -> usize {
        self.head.out_features()
    }

    /// Number of transformer blocks.
    pub fn depth(&self) -> usize {
        self.blocks.len()
    }

    /// Read-only access to the blocks, exposed for pruning and inspection.
    pub fn blocks(&self) -> &[ViTBlock] {
        &self.blocks
    }

    /// Read-only access to the patch embedding.
    pub fn patch_embed(&self) -> &PatchEmbed {
        &self.patch_embed
    }

    /// Read-only access to the classification head.
    pub fn head(&self) -> &Linear {
        &self.head
    }

    /// Read-only access to the final layer norm.
    pub fn final_ln(&self) -> &LayerNorm {
        &self.final_ln
    }

    /// Runs the full model on a batch of images `[b, c, H, W]`, returning
    /// logits `[b, classes]`. Records nothing.
    ///
    /// # Errors
    ///
    /// Returns an error when the image geometry does not match the config.
    pub fn forward_images(&self, images: &Tensor) -> Result<Tensor> {
        let features = self.forward_features(images)?;
        Ok(self.head.forward(&features)?)
    }

    /// Runs the backbone only, returning the pooled feature `[b, d]` that a
    /// sub-model would transmit to the fusion device. This is the inference
    /// entry: it records nothing, so a deployed model holds only weights.
    ///
    /// # Errors
    ///
    /// Returns an error when the image geometry does not match the config.
    pub fn forward_features(&self, images: &Tensor) -> Result<Tensor> {
        let mut tokens = self.patch_embed.forward(images)?;
        for block in &self.blocks {
            tokens = block.forward(&tokens)?;
        }
        mean_pool(&self.final_ln.forward(&tokens)?)
    }

    /// [`VisionTransformer::forward_features`] for a training step: the same
    /// bits, and every layer records what
    /// [`VisionTransformer::backward_from_features`] needs.
    ///
    /// # Errors
    ///
    /// Returns an error when the image geometry does not match the config.
    pub fn forward_features_train(&mut self, images: &Tensor) -> Result<Tensor> {
        let mut tokens = self.patch_embed.forward_train(images)?;
        for block in &mut self.blocks {
            tokens = block.forward_train(&tokens)?;
        }
        let normed = self.final_ln.forward_train(&tokens)?;
        let pooled = mean_pool(&normed)?;
        self.record = Some((normed.dims()[0], normed.dims()[1]));
        Ok(pooled)
    }

    /// Backpropagates a gradient with respect to the pooled features through
    /// what [`VisionTransformer::forward_features_train`] recorded, taking
    /// the record and accumulating gradients in the backbone (used for
    /// end-to-end retraining together with the fusion MLP).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MissingForwardCache`] (as [`ViTError::Nn`]) when no
    /// training forward is recorded.
    pub fn backward_from_features(&mut self, grad_features: &Tensor) -> Result<Tensor> {
        let (batch, p) = self
            .record
            .take()
            .ok_or(ViTError::Nn(NnError::MissingForwardCache {
                layer: "VisionTransformer",
            }))?;
        let d = self.embed_dim();
        // Distribute the pooled gradient back over tokens (mean pooling),
        // one sample per chunk.
        let mut grad_tokens = vec![0.0f32; batch * p * d];
        let grad = grad_features.data();
        let inv_p = 1.0 / p as f32;
        let spread_one = |base: usize, sample: &mut [f32]| {
            let b = base / (p * d);
            let grow = &grad[b * d..(b + 1) * d];
            for token in sample.chunks_exact_mut(d) {
                for (o, &g) in token.iter_mut().zip(grow) {
                    *o = g * inv_p;
                }
            }
        };
        if batch * p * d >= PAR_POOL_WORK {
            ParallelPool::global().scope_chunks(&mut grad_tokens, p * d, spread_one);
        } else {
            for (b, sample) in grad_tokens.chunks_mut((p * d).max(1)).enumerate() {
                spread_one(b * p * d, sample);
            }
        }
        let mut g = Tensor::from_vec(grad_tokens, &[batch, p, d])?;
        g = self.final_ln.backward(&g)?;
        for block in self.blocks.iter_mut().rev() {
            g = block.backward(&g)?;
        }
        Ok(self.patch_embed.backward(&g)?)
    }

    /// Predicts class indices for a batch of images.
    ///
    /// # Errors
    ///
    /// Returns an error when the image geometry does not match the config.
    pub fn predict(&self, images: &Tensor) -> Result<Vec<usize>> {
        let logits = self.forward_images(images)?;
        Ok(logits.argmax_last_axis()?)
    }

    /// Replaces the classification head with a freshly-initialized one of
    /// `num_outputs` outputs — used when a sub-model is retrained on its
    /// class subset (the subset classes plus one "other" output).
    pub fn replace_head(&mut self, num_outputs: usize, rng: &mut TensorRng) {
        self.head = Linear::new(self.embed_dim(), num_outputs, rng);
    }

    /// Total number of scalar parameters (measured, not analytic).
    pub fn parameter_count(&self) -> usize {
        Layer::parameter_count(self)
    }

    /// Memory footprint in bytes of the measured parameters (4 bytes each):
    /// what a deployed model holds, since a parameter holds a gradient only
    /// within a training step (`tests/layer_contract.rs` checks a fresh
    /// deployment's sub-models against it).
    pub fn memory_bytes(&self) -> u64 {
        self.parameter_count() as u64 * 4
    }

    // ------------------------------------------------------------------
    // Structured pruning (weight selection)
    // ------------------------------------------------------------------

    /// Stage-1 pruning: keep only the listed residual channels everywhere the
    /// residual width appears (patch embedding, every block, final norm and
    /// classification head).
    ///
    /// # Errors
    ///
    /// Returns [`ViTError::InvalidPruning`] for an empty keep list or
    /// out-of-range indices.
    pub fn prune_embed_channels(&self, keep: &[usize]) -> Result<VisionTransformer> {
        if keep.is_empty() {
            return Err(ViTError::InvalidPruning {
                message: "cannot prune away every residual channel".to_string(),
            });
        }
        Ok(VisionTransformer {
            patch_embed: self.patch_embed.prune_embed_channels(keep)?,
            blocks: self
                .blocks
                .iter()
                .map(|b| b.prune_embed_channels(keep))
                .collect::<Result<_>>()?,
            final_ln: self.final_ln.select_features(keep)?,
            head: self.head.select_inputs(keep)?,
            record: None,
        })
    }

    /// Stage-2 pruning: keep only the listed per-head inner dimensions inside
    /// every block's attention module.
    ///
    /// # Errors
    ///
    /// Returns an error when the keep lists are inconsistent.
    pub fn prune_head_dims(&self, keep_per_head: &[Vec<usize>]) -> Result<VisionTransformer> {
        self.prune_blocks(|block| block.prune_head_dims(keep_per_head))
    }

    /// Stage-3 pruning: keep only the listed FFN hidden units in every block.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty keep list or out-of-range indices.
    pub fn prune_ffn_hidden(&self, keep: &[usize]) -> Result<VisionTransformer> {
        if keep.is_empty() {
            return Err(ViTError::InvalidPruning {
                message: "cannot prune away every FFN hidden unit".to_string(),
            });
        }
        self.prune_blocks(|block| block.prune_ffn_hidden(keep))
    }

    /// A stage that prunes inside the blocks: `prune` applied to every
    /// block, and the patch embedding, final norm and head cloned as they
    /// are.
    fn prune_blocks(
        &self,
        prune: impl Fn(&ViTBlock) -> Result<ViTBlock>,
    ) -> Result<VisionTransformer> {
        Ok(VisionTransformer {
            blocks: self.blocks.iter().map(prune).collect::<Result<_>>()?,
            patch_embed: self.patch_embed.clone(),
            final_ln: self.final_ln.clone(),
            head: self.head.clone(),
            record: None,
        })
    }
}

/// Mean pooling of `[batch, tokens, d]` over the token axis, one output row
/// per sample; the per-sample loop runs across the pool for large eval
/// batches.
fn mean_pool(normed: &Tensor) -> Result<Tensor> {
    let (batch, p, d) = (normed.dims()[0], normed.dims()[1], normed.dims()[2]);
    let mut pooled = vec![0.0f32; batch * d];
    let data = normed.data();
    let inv_p = 1.0 / p as f32;
    let pool_one = |base: usize, row: &mut [f32]| {
        let b = base / d;
        let sample = &data[b * p * d..(b + 1) * p * d];
        for token in sample.chunks_exact(d) {
            for (o, &t) in row.iter_mut().zip(token) {
                *o += t;
            }
        }
        for o in row.iter_mut() {
            *o *= inv_p;
        }
    };
    if batch * p * d >= PAR_POOL_WORK {
        ParallelPool::global().scope_chunks(&mut pooled, d, pool_one);
    } else {
        for (b, row) in pooled.chunks_mut(d.max(1)).enumerate() {
            pool_one(b * d, row);
        }
    }
    Ok(Tensor::from_vec(pooled, &[batch, d])?)
}

/// A model error as the layer error the [`Layer`] impl returns.
fn as_layer_error(e: ViTError) -> NnError {
    NnError::InvalidConfig {
        message: e.to_string(),
    }
}

impl Layer for VisionTransformer {
    fn forward(&self, input: &Tensor) -> edvit_nn::Result<Tensor> {
        self.forward_images(input).map_err(as_layer_error)
    }

    fn forward_train(&mut self, input: &Tensor) -> edvit_nn::Result<Tensor> {
        let features = self.forward_features_train(input).map_err(as_layer_error)?;
        self.head.forward_train(&features)
    }

    fn backward(&mut self, grad_output: &Tensor) -> edvit_nn::Result<Tensor> {
        let grad_features = self.head.backward(grad_output)?;
        self.backward_from_features(&grad_features)
            .map_err(as_layer_error)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        let mut params = self.patch_embed.parameters_mut();
        for block in &mut self.blocks {
            params.extend(block.parameters_mut());
        }
        params.extend(self.final_ln.parameters_mut());
        params.extend(self.head.parameters_mut());
        params
    }

    fn parameters(&self) -> Vec<&Parameter> {
        let mut params = self.patch_embed.parameters();
        for block in &self.blocks {
            params.extend(block.parameters());
        }
        params.extend(self.final_ln.parameters());
        params.extend(self.head.parameters());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    fn tiny_model() -> VisionTransformer {
        let config = ViTConfig::tiny_test();
        VisionTransformer::new(&config, &mut TensorRng::new(0)).unwrap()
    }

    #[test]
    fn forward_shapes() {
        let model = tiny_model();
        let mut rng = TensorRng::new(1);
        let x = rng.randn(&[3, 3, 16, 16], 0.0, 1.0);
        let logits = model.forward_images(&x).unwrap();
        assert_eq!(logits.dims(), &[3, 4]);
        let features = model.forward_features(&x).unwrap();
        assert_eq!(features.dims(), &[3, 32]);
        let preds = model.predict(&x).unwrap();
        assert_eq!(preds.len(), 3);
        assert!(preds.iter().all(|&p| p < 4));
    }

    #[test]
    fn accessors() {
        let model = tiny_model();
        assert_eq!(model.embed_dim(), 32);
        assert_eq!(model.num_classes(), 4);
        assert_eq!(model.depth(), 2);
        assert_eq!(model.blocks().len(), 2);
        assert_eq!(model.memory_bytes(), model.parameter_count() as u64 * 4);
    }

    #[test]
    fn measured_params_match_analytic_model() {
        let config = ViTConfig::tiny_test();
        let model = VisionTransformer::new(&config, &mut TensorRng::new(0)).unwrap();
        let analytic = analysis::cost_of_config(&config);
        assert_eq!(model.parameter_count() as u64, analytic.params);
    }

    #[test]
    fn rejects_bad_geometry() {
        let mut model = tiny_model();
        assert!(model
            .forward_images(&Tensor::zeros(&[1, 3, 32, 32]))
            .is_err());
        assert!(model
            .backward_from_features(&Tensor::zeros(&[1, 32]))
            .is_err());
    }

    #[test]
    fn layer_trait_backward_runs() {
        let mut model = tiny_model();
        let mut rng = TensorRng::new(2);
        let x = rng.randn(&[2, 3, 16, 16], 0.0, 1.0);
        let logits = Layer::forward_train(&mut model, &x).unwrap();
        assert_eq!(Layer::forward(&model, &x).unwrap(), logits);
        let g = Layer::backward(&mut model, &Tensor::ones(logits.dims())).unwrap();
        assert_eq!(g.dims(), x.dims());
        // Every parameter received some gradient signal.
        let nonzero = model
            .parameters()
            .iter()
            .filter(|p| p.grad().is_some_and(|g| g.norm_l1() > 0.0))
            .count();
        assert!(nonzero > model.parameters().len() / 2);
    }

    #[test]
    fn replace_head_changes_output_width() {
        let mut model = tiny_model();
        model.replace_head(3, &mut TensorRng::new(3));
        assert_eq!(model.num_classes(), 3);
        let mut rng = TensorRng::new(4);
        let x = rng.randn(&[1, 3, 16, 16], 0.0, 1.0);
        assert_eq!(model.forward_images(&x).unwrap().dims(), &[1, 3]);
    }

    #[test]
    fn prune_embed_channels_produces_working_smaller_model() {
        let model = tiny_model();
        let keep: Vec<usize> = (0..16).collect();
        let pruned = model.prune_embed_channels(&keep).unwrap();
        assert_eq!(pruned.embed_dim(), 16);
        assert!(pruned.parameter_count() < model.parameter_count());
        let mut rng = TensorRng::new(5);
        let x = rng.randn(&[2, 3, 16, 16], 0.0, 1.0);
        assert_eq!(pruned.forward_images(&x).unwrap().dims(), &[2, 4]);
        assert!(model.prune_embed_channels(&[]).is_err());
    }

    #[test]
    fn prune_head_dims_and_ffn_hidden_produce_working_models() {
        let model = tiny_model();
        let keep_heads: Vec<Vec<usize>> = (0..4).map(|_| vec![0, 3]).collect();
        let pruned = model.prune_head_dims(&keep_heads).unwrap();
        assert_eq!(pruned.blocks()[0].attn().head_dim(), 2);
        let mut rng = TensorRng::new(6);
        let x = rng.randn(&[1, 3, 16, 16], 0.0, 1.0);
        assert_eq!(pruned.forward_images(&x).unwrap().dims(), &[1, 4]);

        let keep_ffn: Vec<usize> = (0..32).collect();
        let pruned2 = model.prune_ffn_hidden(&keep_ffn).unwrap();
        assert_eq!(pruned2.blocks()[0].ffn_hidden(), 32);
        assert_eq!(pruned2.forward_images(&x).unwrap().dims(), &[1, 4]);
        assert!(model.prune_ffn_hidden(&[]).is_err());
    }

    #[test]
    fn three_stage_pruning_composes() {
        // Apply the full Fig. 2 sequence and verify the result still runs and
        // is strictly smaller.
        let model = tiny_model();
        let keep_channels: Vec<usize> = (0..16).collect();
        let stage1 = model.prune_embed_channels(&keep_channels).unwrap();
        let keep_heads: Vec<Vec<usize>> = (0..4).map(|_| vec![0, 1]).collect();
        let stage2 = stage1.prune_head_dims(&keep_heads).unwrap();
        let keep_ffn: Vec<usize> = (0..24).collect();
        let stage3 = stage2.prune_ffn_hidden(&keep_ffn).unwrap();
        assert!(stage3.parameter_count() < stage1.parameter_count());
        assert!(stage1.parameter_count() < model.parameter_count());
        let pruned = stage3;
        let mut rng = TensorRng::new(7);
        let x = rng.randn(&[2, 3, 16, 16], 0.0, 1.0);
        let logits = pruned.forward_images(&x).unwrap();
        assert_eq!(logits.dims(), &[2, 4]);
        assert!(logits.all_finite());
    }

    #[test]
    fn from_parts_validates() {
        let config = ViTConfig::tiny_test();
        let parts = |head_inputs: usize, depth: usize| {
            let mut rng = TensorRng::new(8);
            let blocks = (0..depth)
                .map(|_| ViTBlock::new(32, 4, 8, 64, &mut rng).unwrap())
                .collect();
            let head = Linear::new(head_inputs, 4, &mut rng);
            let pe = PatchEmbed::new(&config, &mut rng).unwrap();
            VisionTransformer::from_parts(pe, blocks, LayerNorm::new(32), head)
        };
        let model = parts(32, 1).unwrap();
        assert_eq!((model.embed_dim(), model.depth()), (32, 1));
        let x = TensorRng::new(9).randn(&[1, 3, 16, 16], 0.0, 1.0);
        assert_eq!(model.forward_images(&x).unwrap().dims(), &[1, 4]);
        assert!(parts(16, 1).is_err());
        assert!(parts(32, 0).is_err());
    }
}
