use edvit_nn::{Layer, Linear, NnError, Parameter};
use edvit_tensor::{init::TensorRng, Tensor};

use crate::{Result, ViTConfig, ViTError};

/// Patch embedding: splits an image into non-overlapping square patches,
/// projects each flattened patch to the embedding width and adds a learned
/// positional embedding.
///
/// Input: `[batch, channels, H, W]`; output: `[batch, patches, embed_dim]`.
///
/// # Example
///
/// ```
/// use edvit_vit::{PatchEmbed, ViTConfig};
/// use edvit_nn::Layer;
/// use edvit_tensor::init::TensorRng;
///
/// # fn main() -> Result<(), edvit_vit::ViTError> {
/// let config = ViTConfig::tiny_test();
/// let mut rng = TensorRng::new(0);
/// let mut embed = PatchEmbed::new(&config, &mut rng)?;
/// let x = rng.randn(&[1, 3, 16, 16], 0.0, 1.0);
/// let tokens = embed.forward(&x)?;
/// assert_eq!(tokens.dims(), &[1, 4, 32]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PatchEmbed {
    projection: Linear,
    pos_embed: Parameter,
    channels: usize,
    image_size: usize,
    patch_size: usize,
    embed_dim: usize,
    cache_batch: Option<usize>,
}

impl PatchEmbed {
    /// Creates a patch embedding for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ViTError::InvalidConfig`] when the configuration is invalid.
    pub fn new(config: &ViTConfig, rng: &mut TensorRng) -> Result<Self> {
        config.validate()?;
        let projection = Linear::new(config.patch_dim(), config.embed_dim, rng);
        let pos_embed = rng.trunc_normal(&[config.num_patches(), config.embed_dim], 0.02);
        Ok(PatchEmbed {
            projection,
            pos_embed: Parameter::new("patch_embed.pos", pos_embed),
            channels: config.channels,
            image_size: config.image_size,
            patch_size: config.patch_size,
            embed_dim: config.embed_dim,
            cache_batch: None,
        })
    }

    /// Builds a patch embedding from existing weights (used for pruning).
    ///
    /// # Errors
    ///
    /// Returns [`ViTError::InvalidConfig`] when weights and geometry disagree.
    pub fn from_parts(
        projection: Linear,
        pos_embed: Tensor,
        channels: usize,
        image_size: usize,
        patch_size: usize,
    ) -> Result<Self> {
        let patch_dim = channels * patch_size * patch_size;
        if projection.in_features() != patch_dim {
            return Err(ViTError::InvalidConfig {
                message: format!(
                    "projection expects {} inputs but patches have {} values",
                    projection.in_features(),
                    patch_dim
                ),
            });
        }
        let per_side = image_size / patch_size;
        let patches = per_side * per_side;
        if pos_embed.dims() != [patches, projection.out_features()] {
            return Err(ViTError::InvalidConfig {
                message: format!(
                    "positional embedding {:?} does not match {} patches x {} dims",
                    pos_embed.dims(),
                    patches,
                    projection.out_features()
                ),
            });
        }
        let embed_dim = projection.out_features();
        Ok(PatchEmbed {
            projection,
            pos_embed: Parameter::new("patch_embed.pos", pos_embed),
            channels,
            image_size,
            patch_size,
            embed_dim,
            cache_batch: None,
        })
    }

    /// Number of patches per image.
    pub fn num_patches(&self) -> usize {
        let per_side = self.image_size / self.patch_size;
        per_side * per_side
    }

    /// Embedding width produced per token.
    pub fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    /// The linear projection (read-only), exposed for pruning.
    pub fn projection(&self) -> &Linear {
        &self.projection
    }

    /// The learned positional embedding (read-only), exposed for pruning.
    pub fn pos_embed(&self) -> &Parameter {
        &self.pos_embed
    }

    /// Returns a copy whose output (embedding) channels are restricted to
    /// `keep` — the residual-channel pruning stage.
    ///
    /// # Errors
    ///
    /// Returns an error if an index is out of range.
    pub fn prune_embed_channels(&self, keep: &[usize]) -> Result<PatchEmbed> {
        let projection = self
            .projection
            .select_outputs(keep)
            .map_err(ViTError::from)?;
        let pos = self.pos_embed.value().select_last_axis(keep)?;
        PatchEmbed::from_parts(
            projection,
            pos,
            self.channels,
            self.image_size,
            self.patch_size,
        )
    }

    /// Converts `[batch, channels, H, W]` images to flattened patches
    /// `[batch, patches, channels * patch²]`.
    ///
    /// # Errors
    ///
    /// Returns [`ViTError::InputMismatch`] when the geometry does not match.
    pub fn images_to_patches(&self, images: &Tensor) -> Result<Tensor> {
        if images.rank() != 4
            || images.dims()[1] != self.channels
            || images.dims()[2] != self.image_size
            || images.dims()[3] != self.image_size
        {
            return Err(ViTError::InputMismatch {
                expected: format!(
                    "[batch, {}, {}, {}]",
                    self.channels, self.image_size, self.image_size
                ),
                actual: images.dims().to_vec(),
            });
        }
        let batch = images.dims()[0];
        let per_side = self.image_size / self.patch_size;
        let p = per_side * per_side;
        let dp = self.channels * self.patch_size * self.patch_size;
        let mut out = vec![0.0f32; batch * p * dp];
        let data = images.data();
        let (c, hw, ps) = (self.channels, self.image_size, self.patch_size);
        for b in 0..batch {
            for py in 0..per_side {
                for px in 0..per_side {
                    let patch_index = py * per_side + px;
                    let base = b * p * dp + patch_index * dp;
                    for ci in 0..c {
                        for y in 0..ps {
                            // One patch row: `ps` contiguous pixels on both sides.
                            let dst = base + ci * ps * ps + y * ps;
                            let src = b * c * hw * hw + ci * hw * hw + (py * ps + y) * hw + px * ps;
                            out[dst..dst + ps].copy_from_slice(&data[src..src + ps]);
                        }
                    }
                }
            }
        }
        Ok(Tensor::from_vec(out, &[batch, p, dp])?)
    }

    /// Inverse of [`PatchEmbed::images_to_patches`], used to propagate input
    /// gradients back to image space.
    fn patches_to_images(&self, patches: &Tensor) -> Result<Tensor> {
        let batch = patches.dims()[0];
        let per_side = self.image_size / self.patch_size;
        let p = per_side * per_side;
        let dp = self.channels * self.patch_size * self.patch_size;
        let mut out = vec![0.0f32; batch * self.channels * self.image_size * self.image_size];
        let data = patches.data();
        let (c, hw, ps) = (self.channels, self.image_size, self.patch_size);
        for b in 0..batch {
            for py in 0..per_side {
                for px in 0..per_side {
                    let patch_index = py * per_side + px;
                    let base = b * p * dp + patch_index * dp;
                    for ci in 0..c {
                        for y in 0..ps {
                            for x in 0..ps {
                                let iy = py * ps + y;
                                let ix = px * ps + x;
                                out[b * c * hw * hw + ci * hw * hw + iy * hw + ix] =
                                    data[base + ci * ps * ps + y * ps + x];
                            }
                        }
                    }
                }
            }
        }
        Ok(Tensor::from_vec(
            out,
            &[batch, self.channels, self.image_size, self.image_size],
        )?)
    }
}

impl Layer for PatchEmbed {
    fn forward(&mut self, input: &Tensor) -> edvit_nn::Result<Tensor> {
        let patches = self
            .images_to_patches(input)
            .map_err(|e| NnError::InvalidConfig {
                message: e.to_string(),
            })?;
        let batch = patches.dims()[0];
        let mut out = self.projection.forward_owned(patches)?;
        // Add the positional embedding to every sample in the batch.
        let pos = self.pos_embed.value().data();
        if !pos.is_empty() {
            for sample in out.data_mut().chunks_exact_mut(pos.len()) {
                for (o, &e) in sample.iter_mut().zip(pos) {
                    *o += e;
                }
            }
        }
        self.cache_batch = Some(batch);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> edvit_nn::Result<Tensor> {
        let batch = self.cache_batch.ok_or(NnError::MissingForwardCache {
            layer: "PatchEmbed",
        })?;
        let p = self.num_patches();
        let d = self.embed_dim;
        // Positional-embedding gradient: sum over the batch.
        let mut pos_grad = vec![0.0f32; p * d];
        for b in 0..batch {
            for i in 0..p {
                for j in 0..d {
                    pos_grad[i * d + j] += grad_output.data()[b * p * d + i * d + j];
                }
            }
        }
        self.pos_embed
            .accumulate_grad(&Tensor::from_vec(pos_grad, &[p, d])?)?;
        let grad_patches = self.projection.backward(grad_output)?;
        self.patches_to_images(&grad_patches)
            .map_err(|e| NnError::InvalidConfig {
                message: e.to_string(),
            })
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        let mut params = self.projection.parameters_mut();
        params.push(&mut self.pos_embed);
        params
    }

    fn parameters(&self) -> Vec<&Parameter> {
        let mut params = self.projection.parameters();
        params.push(&self.pos_embed);
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (ViTConfig, PatchEmbed) {
        let config = ViTConfig::tiny_test();
        let mut rng = TensorRng::new(0);
        let embed = PatchEmbed::new(&config, &mut rng).unwrap();
        (config, embed)
    }

    #[test]
    fn patch_extraction_geometry() {
        let (config, embed) = tiny();
        assert_eq!(embed.num_patches(), config.num_patches());
        assert_eq!(embed.embed_dim(), config.embed_dim);
        let mut rng = TensorRng::new(1);
        let x = rng.randn(&[2, 3, 16, 16], 0.0, 1.0);
        let patches = embed.images_to_patches(&x).unwrap();
        assert_eq!(patches.dims(), &[2, 4, 3 * 8 * 8]);
        // First value of patch 0 equals the image's top-left pixel.
        assert_eq!(
            patches.get(&[0, 0, 0]).unwrap(),
            x.get(&[0, 0, 0, 0]).unwrap()
        );
        // Patch 1 starts at column `patch_size` of the image.
        assert_eq!(
            patches.get(&[0, 1, 0]).unwrap(),
            x.get(&[0, 0, 0, 8]).unwrap()
        );
        // Patch 2 starts at row `patch_size`.
        assert_eq!(
            patches.get(&[0, 2, 0]).unwrap(),
            x.get(&[0, 0, 8, 0]).unwrap()
        );
    }

    #[test]
    fn patches_round_trip_back_to_images() {
        let (_, embed) = tiny();
        let mut rng = TensorRng::new(2);
        let x = rng.randn(&[1, 3, 16, 16], 0.0, 1.0);
        let patches = embed.images_to_patches(&x).unwrap();
        let back = embed.patches_to_images(&patches).unwrap();
        assert_eq!(back.data(), x.data());
    }

    #[test]
    fn forward_backward_shapes() {
        let (config, mut embed) = tiny();
        let mut rng = TensorRng::new(3);
        let x = rng.randn(&[2, 3, 16, 16], 0.0, 1.0);
        let tokens = embed.forward(&x).unwrap();
        assert_eq!(tokens.dims(), &[2, config.num_patches(), config.embed_dim]);
        let g = embed
            .backward(&Tensor::ones(&[2, config.num_patches(), config.embed_dim]))
            .unwrap();
        assert_eq!(g.dims(), &[2, 3, 16, 16]);
        // Positional-embedding gradient accumulated (batch of 2, all-ones grad).
        let pos_grad_sum: f32 = embed.pos_embed().grad().sum();
        assert!((pos_grad_sum - (2 * config.num_patches() * config.embed_dim) as f32).abs() < 1e-3);
    }

    #[test]
    fn rejects_wrong_geometry() {
        let (_, mut embed) = tiny();
        assert!(embed.forward(&Tensor::zeros(&[1, 3, 32, 32])).is_err());
        assert!(embed.forward(&Tensor::zeros(&[1, 1, 16, 16])).is_err());
        assert!(PatchEmbed::new(
            &ViTConfig {
                image_size: 15,
                ..ViTConfig::tiny_test()
            },
            &mut TensorRng::new(0)
        )
        .is_err());
        let mut fresh = tiny().1;
        assert!(fresh.backward(&Tensor::zeros(&[1, 4, 32])).is_err());
    }

    #[test]
    fn prune_embed_channels_shrinks_projection_and_pos() {
        let (_, embed) = tiny();
        let keep: Vec<usize> = (0..16).collect();
        let pruned = embed.prune_embed_channels(&keep).unwrap();
        assert_eq!(pruned.embed_dim(), 16);
        assert_eq!(pruned.pos_embed().value().dims(), &[4, 16]);
        let mut pruned = pruned;
        let mut rng = TensorRng::new(4);
        let x = rng.randn(&[1, 3, 16, 16], 0.0, 1.0);
        assert_eq!(pruned.forward(&x).unwrap().dims(), &[1, 4, 16]);
        assert!(embed.prune_embed_channels(&[999]).is_err());
    }

    #[test]
    fn from_parts_validates() {
        let (_, embed) = tiny();
        let bad_pos = Tensor::zeros(&[3, 32]);
        assert!(PatchEmbed::from_parts(
            Linear::from_weights(Tensor::zeros(&[192, 32]), Tensor::zeros(&[32])).unwrap(),
            bad_pos,
            3,
            16,
            8
        )
        .is_err());
        assert!(PatchEmbed::from_parts(
            Linear::from_weights(Tensor::zeros(&[100, 32]), Tensor::zeros(&[32])).unwrap(),
            Tensor::zeros(&[4, 32]),
            3,
            16,
            8
        )
        .is_err());
        let _ = embed;
    }
}
