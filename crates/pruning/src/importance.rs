//! Importance scoring of prunable components.
//!
//! The paper scores a component group by the Kullback–Leibler divergence
//! between the original model's output distribution `P` and the distribution
//! `Q` of the model with the component removed, on a calibration batch —
//! components whose removal bends the output distribution the least are
//! pruned first. A weight-magnitude criterion is provided as a cheap
//! alternative for large sweeps; both produce "higher = more important"
//! scores so the selection logic is shared.

use edvit_datasets::Dataset;
use edvit_tensor::{stats, Tensor};
use edvit_vit::VisionTransformer;

use crate::{PruningError, Result};

/// How component importance is measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ImportanceMethod {
    /// The paper's criterion: KL divergence on a calibration batch of at most
    /// this many samples.
    KlDivergence {
        /// Maximum number of calibration samples drawn from the dataset.
        calibration_samples: usize,
    },
    /// L1 weight magnitude of the component — orders of magnitude faster and
    /// a common proxy; used by the large parameter sweeps.
    Magnitude,
}

impl Default for ImportanceMethod {
    fn default() -> Self {
        ImportanceMethod::KlDivergence {
            calibration_samples: 16,
        }
    }
}

fn calibration_images(dataset: &Dataset, limit: usize) -> Result<Tensor> {
    if dataset.is_empty() {
        return Err(PruningError::InvalidRequest {
            message: "calibration dataset is empty".to_string(),
        });
    }
    let take = limit.clamp(1, dataset.len());
    let indices: Vec<usize> = (0..take).collect();
    Ok(dataset.images().gather_rows(&indices)?)
}

fn output_distribution(model: &VisionTransformer, images: &Tensor) -> Result<Tensor> {
    let logits = model.forward_images(images)?;
    Ok(logits.softmax_last_axis()?)
}

/// Importance of each residual (embedding) channel; higher is more important.
///
/// # Errors
///
/// Returns an error when the calibration dataset is empty or the model cannot
/// be evaluated.
pub fn channel_importance(
    model: &VisionTransformer,
    calibration: &Dataset,
    method: &ImportanceMethod,
) -> Result<Vec<f32>> {
    let d = model.embed_dim();
    match method {
        ImportanceMethod::Magnitude => {
            let mut scores = vec![0.0f32; d];
            // Patch-embedding projection columns.
            let proj = model.patch_embed().projection().weight().value();
            let cols = proj.dims()[1];
            for row in proj.data().chunks(cols) {
                for (score, v) in scores.iter_mut().zip(row) {
                    *score += v.abs();
                }
            }
            // LayerNorm scale magnitudes accumulate channel relevance.
            for block in model.blocks() {
                for (i, score) in scores.iter_mut().enumerate() {
                    *score += block.ln1().gamma().value().data()[i].abs()
                        + block.ln2().gamma().value().data()[i].abs();
                }
            }
            for (i, score) in scores.iter_mut().enumerate() {
                *score += model.final_ln().gamma().value().data()[i].abs();
            }
            Ok(scores)
        }
        ImportanceMethod::KlDivergence {
            calibration_samples,
        } => {
            let images = calibration_images(calibration, *calibration_samples)?;
            let reference = output_distribution(model, &images)?;
            let mut scores = vec![0.0f32; d];
            for (channel, score) in scores.iter_mut().enumerate() {
                let keep: Vec<usize> = (0..d).filter(|&c| c != channel).collect();
                let ablated = model.prune_embed_channels(&keep)?;
                let probs = output_distribution(&ablated, &images)?;
                *score = stats::batch_kl_divergence(&reference, &probs)?;
            }
            Ok(scores)
        }
    }
}

/// Importance of every per-head inner dimension, indexed `[head][dim]`;
/// higher is more important.
///
/// For the KL criterion a dimension is ablated simultaneously in every head
/// (the pruned model keeps heads rectangular, as the paper's uniform `s × h`
/// reduction does), so all heads share the same score vector.
///
/// # Errors
///
/// Returns an error when the calibration dataset is empty or the model cannot
/// be evaluated.
pub fn head_dim_importance(
    model: &VisionTransformer,
    calibration: &Dataset,
    method: &ImportanceMethod,
) -> Result<Vec<Vec<f32>>> {
    let first_block = model
        .blocks()
        .first()
        .ok_or_else(|| PruningError::InvalidRequest {
            message: "model has no blocks".to_string(),
        })?;
    let heads = first_block.attn().heads();
    let head_dim = first_block.attn().head_dim();
    match method {
        ImportanceMethod::Magnitude => {
            let mut scores = vec![vec![0.0f32; head_dim]; heads];
            for block in model.blocks() {
                let attn = block.attn();
                let inner = heads * head_dim;
                for (proj, transposed) in [
                    (attn.q_proj(), false),
                    (attn.k_proj(), false),
                    (attn.v_proj(), false),
                    (attn.out_proj(), true),
                ] {
                    let w = proj.weight().value();
                    let (rows, cols) = (w.dims()[0], w.dims()[1]);
                    for r in 0..rows {
                        for c in 0..cols {
                            let inner_index = if transposed { r } else { c };
                            debug_assert!(inner_index < inner);
                            let h = inner_index / head_dim;
                            let dim = inner_index % head_dim;
                            scores[h][dim] += w.data()[r * cols + c].abs();
                        }
                    }
                }
            }
            Ok(scores)
        }
        ImportanceMethod::KlDivergence {
            calibration_samples,
        } => {
            let images = calibration_images(calibration, *calibration_samples)?;
            let reference = output_distribution(model, &images)?;
            let mut shared = vec![0.0f32; head_dim];
            for (dim, score) in shared.iter_mut().enumerate() {
                let keep_per_head: Vec<Vec<usize>> = (0..heads)
                    .map(|_| (0..head_dim).filter(|&i| i != dim).collect())
                    .collect();
                if keep_per_head[0].is_empty() {
                    // A single-dimension head cannot be ablated; give it the
                    // maximum importance instead.
                    *score = f32::INFINITY;
                    continue;
                }
                let ablated = model.prune_head_dims(&keep_per_head)?;
                let probs = output_distribution(&ablated, &images)?;
                *score = stats::batch_kl_divergence(&reference, &probs)?;
            }
            Ok(vec![shared; heads])
        }
    }
}

/// Importance of every FFN hidden unit; higher is more important.
///
/// # Errors
///
/// Returns an error when the calibration dataset is empty or the model cannot
/// be evaluated.
pub fn ffn_importance(
    model: &VisionTransformer,
    calibration: &Dataset,
    method: &ImportanceMethod,
) -> Result<Vec<f32>> {
    let first_block = model
        .blocks()
        .first()
        .ok_or_else(|| PruningError::InvalidRequest {
            message: "model has no blocks".to_string(),
        })?;
    let hidden = first_block.ffn_hidden();
    match method {
        ImportanceMethod::Magnitude => {
            let mut scores = vec![0.0f32; hidden];
            for block in model.blocks() {
                let fc1 = block.ffn().linears()[0].weight().value();
                let fc2 = block.ffn().linears()[1].weight().value();
                let c1 = fc1.dims()[1];
                for row in fc1.data().chunks(c1) {
                    for (score, v) in scores.iter_mut().zip(row) {
                        *score += v.abs();
                    }
                }
                let c2 = fc2.dims()[1];
                for (score, row) in scores.iter_mut().zip(fc2.data().chunks(c2)) {
                    *score += row.iter().map(|v| v.abs()).sum::<f32>();
                }
            }
            Ok(scores)
        }
        ImportanceMethod::KlDivergence {
            calibration_samples,
        } => {
            let images = calibration_images(calibration, *calibration_samples)?;
            let reference = output_distribution(model, &images)?;
            let mut scores = vec![0.0f32; hidden];
            for (unit, score) in scores.iter_mut().enumerate() {
                let keep: Vec<usize> = (0..hidden).filter(|&u| u != unit).collect();
                let ablated = model.prune_ffn_hidden(&keep)?;
                let probs = output_distribution(&ablated, &images)?;
                *score = stats::batch_kl_divergence(&reference, &probs)?;
            }
            Ok(scores)
        }
    }
}

/// Selects the indices of the `keep` highest-scoring components, returned in
/// ascending index order (so weight slicing preserves the original ordering).
pub(crate) fn top_k_indices(scores: &[f32], keep: usize) -> Vec<usize> {
    let mut indexed: Vec<(usize, f32)> = scores.iter().copied().enumerate().collect();
    indexed.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut kept: Vec<usize> = indexed.into_iter().take(keep).map(|(i, _)| i).collect();
    kept.sort_unstable();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use edvit_datasets::{DatasetKind, SyntheticConfig, SyntheticGenerator};
    use edvit_nn::Layer;
    use edvit_tensor::init::TensorRng;
    use edvit_vit::ViTConfig;

    fn tiny_setup() -> (VisionTransformer, Dataset) {
        let mut config = ViTConfig::tiny_test();
        config.num_classes = 4;
        let model = VisionTransformer::new(&config, &mut TensorRng::new(0)).unwrap();
        let mut dcfg = SyntheticConfig::tiny(DatasetKind::Cifar10Like);
        dcfg.class_limit = Some(4);
        dcfg.samples_per_class = 3;
        let dataset = SyntheticGenerator::new(1).generate(&dcfg).unwrap();
        (model, dataset)
    }

    #[test]
    fn top_k_indices_orders_and_sorts() {
        let scores = [0.1, 0.9, 0.5, 0.7];
        assert_eq!(top_k_indices(&scores, 2), vec![1, 3]);
        assert_eq!(top_k_indices(&scores, 4), vec![0, 1, 2, 3]);
        assert_eq!(top_k_indices(&scores, 0), Vec::<usize>::new());
    }

    #[test]
    fn magnitude_scores_have_right_shapes() {
        let (model, dataset) = tiny_setup();
        let m = ImportanceMethod::Magnitude;
        let channels = channel_importance(&model, &dataset, &m).unwrap();
        assert_eq!(channels.len(), 32);
        assert!(channels.iter().all(|&s| s > 0.0));
        let heads = head_dim_importance(&model, &dataset, &m).unwrap();
        assert_eq!(heads.len(), 4);
        assert_eq!(heads[0].len(), 8);
        let ffn = ffn_importance(&model, &dataset, &m).unwrap();
        assert_eq!(ffn.len(), 64);
    }

    #[test]
    fn kl_scores_have_right_shapes_and_are_nonnegative() {
        let (model, dataset) = tiny_setup();
        let m = ImportanceMethod::KlDivergence {
            calibration_samples: 4,
        };
        let channels = channel_importance(&model, &dataset, &m).unwrap();
        assert_eq!(channels.len(), 32);
        assert!(channels.iter().all(|&s| s >= 0.0));
        let heads = head_dim_importance(&model, &dataset, &m).unwrap();
        assert_eq!(heads.len(), 4);
        assert!(heads[0].iter().all(|&s| s >= 0.0));
        // All heads share the ablate-everywhere score under KL.
        assert_eq!(heads[0], heads[1]);
        let ffn = ffn_importance(&model, &dataset, &m).unwrap();
        assert_eq!(ffn.len(), 64);
    }

    #[test]
    fn kl_scoring_identifies_an_obviously_important_channel() {
        // Make channel 0 of the classification head huge: ablating it must
        // change the output distribution more than ablating a typical channel.
        let (mut boosted, dataset) = tiny_setup();
        for p in boosted.parameters_mut() {
            if p.name().contains("linear.weight") && p.value().dims() == [32, 4] {
                // This is the head weight. Make channel 0 dominate class 0's
                // logit (an asymmetric boost — a uniform boost across classes
                // would cancel inside the softmax).
                p.value_mut().data_mut()[0] = 8.0;
            }
        }
        let m = ImportanceMethod::KlDivergence {
            calibration_samples: 4,
        };
        let scores = channel_importance(&boosted, &dataset, &m).unwrap();
        let mean: f32 = scores.iter().sum::<f32>() / scores.len() as f32;
        assert!(
            scores[0] > mean,
            "boosted channel should score above the mean: {} vs {mean}",
            scores[0]
        );
    }

    #[test]
    fn empty_calibration_is_rejected() {
        let (model, dataset) = tiny_setup();
        let empty = dataset.subset(&[]).unwrap();
        let m = ImportanceMethod::KlDivergence {
            calibration_samples: 4,
        };
        assert!(channel_importance(&model, &empty, &m).is_err());
        assert!(ffn_importance(&model, &empty, &m).is_err());
        assert!(head_dim_importance(&model, &empty, &m).is_err());
    }

    #[test]
    fn default_method_is_kl() {
        assert!(matches!(
            ImportanceMethod::default(),
            ImportanceMethod::KlDivergence { .. }
        ));
    }
}
