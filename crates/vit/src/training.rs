//! Supervised training and evaluation loops.
//!
//! The paper trains with Adam (learning rate 1e-4, decaying) and batch size
//! 256 on A100 GPUs; at our CPU scale the same loop runs with smaller batches
//! and the scaled-down configurations, which is sufficient for the accuracy
//! *trends* ED-ViT's experiments rely on.

use edvit_nn::{Adam, CrossEntropyLoss, Layer};
use edvit_tensor::{init::TensorRng, stats, Tensor};

use crate::Result;

/// Hyper-parameters of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate (the paper uses 1e-4; scaled-down models train
    /// well with 1e-3).
    pub learning_rate: f32,
    /// Multiplicative learning-rate decay applied every epoch.
    pub lr_decay: f32,
    /// Seed controlling shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 32,
            learning_rate: 1e-3,
            lr_decay: 0.9,
            seed: 0,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub mean_loss: f32,
    /// Training accuracy over the epoch.
    pub train_accuracy: f32,
}

/// Outcome of a full training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Statistics per epoch in order.
    pub epochs: Vec<EpochStats>,
}

/// Trains any [`Layer`] that maps inputs `[n, ...]` to logits `[n, classes]`
/// with Adam + cross-entropy.
///
/// `inputs` must have the batch axis first and `labels.len()` must equal the
/// number of input rows.
///
/// # Errors
///
/// Propagates layer and tensor errors (shape mismatches, invalid labels).
pub fn train_classifier<M: Layer + ?Sized>(
    model: &mut M,
    inputs: &Tensor,
    labels: &[usize],
    config: &TrainConfig,
) -> Result<TrainReport> {
    let n = inputs.dims()[0];
    let mut optimizer = Adam::new(config.learning_rate);
    let mut loss_fn = CrossEntropyLoss::new();
    let mut rng = TensorRng::new(config.seed);
    let mut report = TrainReport { epochs: Vec::new() };

    for epoch in 0..config.epochs {
        optimizer.set_learning_rate(config.learning_rate * config.lr_decay.powf(epoch as f32));
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let mut losses = Vec::new();
        let mut correct = 0usize;
        let mut seen = 0usize;
        for batch_idx in order.chunks(config.batch_size.max(1)) {
            let batch_x = inputs.gather_rows(batch_idx)?;
            let batch_y: Vec<usize> = batch_idx.iter().map(|&i| labels[i]).collect();
            let logits = model.forward_train(&batch_x)?;
            let loss = loss_fn.forward(&logits, &batch_y)?;
            let grad = loss_fn.backward()?;
            model.backward(&grad)?;
            optimizer.step(&mut model.parameters_mut())?;
            losses.push(loss);
            let preds = logits.argmax_last_axis()?;
            correct += preds.iter().zip(&batch_y).filter(|(p, y)| p == y).count();
            seen += batch_y.len();
        }
        report.epochs.push(EpochStats {
            epoch,
            mean_loss: if losses.is_empty() {
                f32::INFINITY
            } else {
                losses.iter().sum::<f32>() / losses.len() as f32
            },
            train_accuracy: if seen == 0 {
                0.0
            } else {
                correct as f32 / seen as f32
            },
        });
    }
    Ok(report)
}

/// Evaluates classification accuracy of a model on a labelled set.
///
/// # Errors
///
/// Propagates layer and tensor errors.
pub fn evaluate_classifier<M: Layer + ?Sized>(
    model: &M,
    inputs: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> Result<f32> {
    let n = inputs.dims()[0];
    let mut predictions = Vec::with_capacity(n);
    let indices: Vec<usize> = (0..n).collect();
    for batch_idx in indices.chunks(batch_size.max(1)) {
        let batch_x = inputs.gather_rows(batch_idx)?;
        let logits = model.forward(&batch_x)?;
        predictions.extend(logits.argmax_last_axis()?);
    }
    Ok(stats::accuracy(&predictions, labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ViTConfig, VisionTransformer};
    use edvit_nn::{Mlp, MlpActivation};

    /// Builds a small linearly-separable 3-class problem.
    fn toy_problem(n_per_class: usize, dim: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = TensorRng::new(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for class in 0..3usize {
            for _ in 0..n_per_class {
                let mut row = rng.randn(&[dim], 0.0, 0.3).into_vec();
                row[class % dim] += 2.0;
                rows.extend(row);
                labels.push(class);
            }
        }
        (
            Tensor::from_vec(rows, &[3 * n_per_class, dim]).unwrap(),
            labels,
        )
    }

    #[test]
    fn mlp_learns_separable_problem() {
        let (x, y) = toy_problem(20, 8, 1);
        let mut model =
            Mlp::with_activation(&[8, 16, 3], MlpActivation::Gelu, &mut TensorRng::new(2)).unwrap();
        let config = TrainConfig {
            epochs: 30,
            batch_size: 16,
            learning_rate: 5e-3,
            lr_decay: 0.98,
            seed: 3,
        };
        let report = train_classifier(&mut model, &x, &y, &config).unwrap();
        assert_eq!(report.epochs.len(), 30);
        let last = &report.epochs[29];
        assert!(
            last.train_accuracy > 0.9,
            "accuracy {}",
            last.train_accuracy
        );
        assert!(last.mean_loss < 0.5);
        let eval = evaluate_classifier(&model, &x, &y, 16).unwrap();
        assert!(eval > 0.9);
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let (x, y) = toy_problem(15, 6, 4);
        let mut model = Mlp::new(&[6, 12, 3], &mut TensorRng::new(5)).unwrap();
        let config = TrainConfig {
            epochs: 15,
            batch_size: 8,
            learning_rate: 3e-3,
            ..TrainConfig::default()
        };
        let report = train_classifier(&mut model, &x, &y, &config).unwrap();
        let first = report.epochs.first().unwrap().mean_loss;
        let last = report.epochs.last().unwrap().mean_loss;
        assert!(last < first, "loss should decrease: {first} -> {last}");
    }

    #[test]
    fn tiny_vit_trains_above_chance() {
        // Build a 4-class image problem where each class lights up a different
        // quadrant of the image.
        let config = ViTConfig::tiny_test();
        let mut rng = TensorRng::new(6);
        let n_per_class = 12;
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for class in 0..config.num_classes {
            for _ in 0..n_per_class {
                let mut img = rng.randn(&[3 * 16 * 16], 0.0, 0.2).into_vec();
                let (qy, qx) = (class / 2, class % 2);
                for c in 0..3 {
                    for y in 0..8 {
                        for x in 0..8 {
                            img[c * 256 + (qy * 8 + y) * 16 + (qx * 8 + x)] += 1.5;
                        }
                    }
                }
                images.extend(img);
                labels.push(class);
            }
        }
        let n = config.num_classes * n_per_class;
        let x = Tensor::from_vec(images, &[n, 3, 16, 16]).unwrap();
        let mut model = VisionTransformer::new(&config, &mut TensorRng::new(7)).unwrap();
        let tc = TrainConfig {
            epochs: 8,
            batch_size: 16,
            learning_rate: 2e-3,
            lr_decay: 0.95,
            seed: 8,
        };
        let report = train_classifier(&mut model, &x, &labels, &tc).unwrap();
        // Chance is 25%; the quadrant signal is strong enough to beat it fast.
        let accuracy = report.epochs.last().unwrap().train_accuracy;
        assert!(accuracy > 0.5, "ViT accuracy {accuracy} not above chance");
    }

    #[test]
    fn default_config_is_sane() {
        let c = TrainConfig::default();
        assert!(c.epochs > 0 && c.batch_size > 0 && c.learning_rate > 0.0);
    }
}
