//! Trainable-scale VGG-style CNN used for baseline accuracy experiments.

use edvit_nn::{Conv2d, Flatten, Layer, Linear, MaxPool2d, NnError, Parameter, Relu};
use edvit_tensor::{init::TensorRng, Tensor};

use crate::Result;

/// Configuration of the small VGG-style CNN.
#[derive(Debug, Clone, PartialEq)]
pub struct SmallCnnConfig {
    /// Input channels (3 for vision datasets, 1 for audio spectrograms).
    pub channels: usize,
    /// Square input resolution.
    pub image_size: usize,
    /// Channel widths of the two convolutional stages.
    pub widths: [usize; 2],
    /// Number of output classes.
    pub num_classes: usize,
}

impl SmallCnnConfig {
    /// A configuration matched to the synthetic experiment datasets.
    pub fn for_dataset(channels: usize, image_size: usize, num_classes: usize) -> Self {
        SmallCnnConfig {
            channels,
            image_size,
            widths: [8, 16],
            num_classes,
        }
    }

    /// Returns a copy whose conv widths are scaled by `retention` (channel /
    /// filter pruning at the structural level), keeping at least one filter.
    pub fn pruned(&self, retention: f32) -> SmallCnnConfig {
        let scale = |w: usize| ((w as f32 * retention).round() as usize).max(1);
        SmallCnnConfig {
            widths: [scale(self.widths[0]), scale(self.widths[1])],
            ..self.clone()
        }
    }
}

/// A small VGG-style CNN: two conv/ReLU/maxpool stages followed by a linear
/// classifier on the flattened feature map. It plays the role VGG-16 plays
/// for NNFacet, at a scale that trains on a CPU in seconds.
#[derive(Debug)]
pub struct SmallCnn {
    conv1: Conv2d,
    relu1: Relu,
    pool1: MaxPool2d,
    conv2: Conv2d,
    relu2: Relu,
    pool2: MaxPool2d,
    flatten: Flatten,
    head: Linear,
    config: SmallCnnConfig,
}

impl SmallCnn {
    /// Creates a randomly-initialized CNN.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for degenerate configurations.
    pub fn new(config: &SmallCnnConfig, rng: &mut TensorRng) -> Result<Self> {
        if config.image_size < 4 {
            return Err(NnError::InvalidConfig {
                message: format!(
                    "image size {} too small for two pooling stages",
                    config.image_size
                ),
            });
        }
        Ok(SmallCnn {
            conv1: Conv2d::new(config.channels, config.widths[0], 3, 1, 1, rng)?,
            relu1: Relu::new(),
            pool1: MaxPool2d::new(2),
            conv2: Conv2d::new(config.widths[0], config.widths[1], 3, 1, 1, rng)?,
            relu2: Relu::new(),
            pool2: MaxPool2d::new(2),
            flatten: Flatten::new(),
            head: Linear::new(
                config.widths[1] * (config.image_size / 4) * (config.image_size / 4),
                config.num_classes,
                rng,
            ),
            config: config.clone(),
        })
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &SmallCnnConfig {
        &self.config
    }

    /// Measured parameter memory in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.parameter_count() as u64 * 4
    }

    /// Dimension of the penultimate feature this model would transmit to a
    /// fusion device (the flattened final feature map).
    pub fn feature_dim(&self) -> usize {
        self.config.widths[1] * (self.config.image_size / 4) * (self.config.image_size / 4)
    }

    /// Runs the backbone only, returning `[n, feature_dim]` pooled features.
    /// Records nothing.
    ///
    /// # Errors
    ///
    /// Returns an error for mismatched input geometry.
    pub fn forward_features(&self, images: &Tensor) -> Result<Tensor> {
        let x = self.conv1.forward(images)?;
        let x = self.relu1.forward(&x)?;
        let x = self.pool1.forward(&x)?;
        let x = self.conv2.forward(&x)?;
        let x = self.relu2.forward(&x)?;
        let x = self.pool2.forward(&x)?;
        self.flatten.forward(&x)
    }

    /// [`SmallCnn::forward_features`] recording what [`Layer::backward`]
    /// needs.
    fn forward_features_train(&mut self, images: &Tensor) -> Result<Tensor> {
        let x = self.conv1.forward_train(images)?;
        let x = self.relu1.forward_train(&x)?;
        let x = self.pool1.forward_train(&x)?;
        let x = self.conv2.forward_train(&x)?;
        let x = self.relu2.forward_train(&x)?;
        let x = self.pool2.forward_train(&x)?;
        self.flatten.forward_train(&x)
    }

    /// Filter-prunes both conv stages by weight magnitude, keeping a fraction
    /// `retention` of the filters (the NNFacet pruning step), and returns the
    /// smaller model. The classifier head is re-initialized for
    /// `new_classes` outputs.
    ///
    /// # Errors
    ///
    /// Returns an error if the pruned configuration is degenerate.
    pub fn prune_filters(
        &self,
        retention: f32,
        new_classes: usize,
        rng: &mut TensorRng,
    ) -> Result<SmallCnn> {
        let pruned_config = SmallCnnConfig {
            num_classes: new_classes,
            ..self.config.pruned(retention)
        };
        // Rank conv1 filters by L1 norm of their weights.
        let keep1 = top_filters(&self.conv1, pruned_config.widths[0]);
        let conv1 = self.conv1.prune_filters(&keep1)?;
        // conv2 must drop the corresponding input channels, then prune its own
        // filters.
        let conv2_inputs = self.conv2.prune_input_channels(&keep1)?;
        let keep2 = top_filters(&self.conv2, pruned_config.widths[1]);
        let conv2 = conv2_inputs.prune_filters(&keep2)?;
        let head = Linear::new(
            pruned_config.widths[1]
                * (pruned_config.image_size / 4)
                * (pruned_config.image_size / 4),
            new_classes,
            rng,
        );
        Ok(SmallCnn {
            conv1,
            relu1: Relu::new(),
            pool1: MaxPool2d::new(2),
            conv2,
            relu2: Relu::new(),
            pool2: MaxPool2d::new(2),
            flatten: Flatten::new(),
            head,
            config: pruned_config,
        })
    }
}

/// Indices of the `keep` filters with the largest L1 weight norm, ascending.
fn top_filters(conv: &Conv2d, keep: usize) -> Vec<usize> {
    let w = conv.weight().value();
    let cols = w.dims()[1];
    let mut norms = vec![0.0f32; cols];
    for row in w.data().chunks(cols) {
        for (norm, v) in norms.iter_mut().zip(row) {
            *norm += v.abs();
        }
    }
    let mut indexed: Vec<(usize, f32)> = norms.into_iter().enumerate().collect();
    indexed.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut kept: Vec<usize> = indexed
        .into_iter()
        .take(keep.max(1))
        .map(|(i, _)| i)
        .collect();
    kept.sort_unstable();
    kept
}

impl Layer for SmallCnn {
    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        self.head.forward(&self.forward_features(input)?)
    }

    fn forward_train(&mut self, input: &Tensor) -> Result<Tensor> {
        let features = self.forward_features_train(input)?;
        self.head.forward_train(&features)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let g = self.head.backward(grad_output)?;
        let g = self.flatten.backward(&g)?;
        let g = self.pool2.backward(&g)?;
        let g = self.relu2.backward(&g)?;
        let g = self.conv2.backward(&g)?;
        let g = self.pool1.backward(&g)?;
        let g = self.relu1.backward(&g)?;
        self.conv1.backward(&g)
    }

    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        let mut params = self.conv1.parameters_mut();
        params.extend(self.conv2.parameters_mut());
        params.extend(self.head.parameters_mut());
        params
    }

    fn parameters(&self) -> Vec<&Parameter> {
        let mut params = self.conv1.parameters();
        params.extend(self.conv2.parameters());
        params.extend(self.head.parameters());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SmallCnnConfig {
        SmallCnnConfig::for_dataset(3, 16, 4)
    }

    #[test]
    fn forward_shapes() {
        let cnn = SmallCnn::new(&config(), &mut TensorRng::new(0)).unwrap();
        let mut rng = TensorRng::new(1);
        let x = rng.randn(&[2, 3, 16, 16], 0.0, 1.0);
        let logits = cnn.forward(&x).unwrap();
        assert_eq!(logits.dims(), &[2, 4]);
        let features = cnn.forward_features(&x).unwrap();
        assert_eq!(features.dims(), &[2, 16 * 16]);
        assert_eq!(cnn.feature_dim(), 16 * 16);
        assert!(cnn.memory_bytes() > 0);
        assert_eq!(cnn.config().num_classes, 4);
    }

    #[test]
    fn backward_runs_and_accumulates() {
        let mut cnn = SmallCnn::new(&config(), &mut TensorRng::new(2)).unwrap();
        let mut rng = TensorRng::new(3);
        let x = rng.randn(&[2, 3, 16, 16], 0.0, 1.0);
        let logits = cnn.forward_train(&x).unwrap();
        let g = cnn.backward(&Tensor::ones(logits.dims())).unwrap();
        assert_eq!(g.dims(), x.dims());
        let mut grads = cnn.parameters().into_iter().filter_map(Parameter::grad);
        assert!(grads.any(|g| g.norm_l1() > 0.0));
    }

    #[test]
    fn pruning_shrinks_and_still_runs() {
        let cnn = SmallCnn::new(&config(), &mut TensorRng::new(4)).unwrap();
        let pruned = cnn.prune_filters(0.5, 3, &mut TensorRng::new(5)).unwrap();
        assert!(pruned.memory_bytes() < cnn.memory_bytes());
        assert_eq!(pruned.config().widths, [4, 8]);
        assert_eq!(pruned.config().num_classes, 3);
        let mut rng = TensorRng::new(6);
        let x = rng.randn(&[1, 3, 16, 16], 0.0, 1.0);
        assert_eq!(pruned.forward(&x).unwrap().dims(), &[1, 3]);
        // Extreme retention still keeps at least one filter.
        let tiny = cnn.prune_filters(0.0, 2, &mut TensorRng::new(7)).unwrap();
        assert_eq!(tiny.config().widths, [1, 1]);
    }

    #[test]
    fn config_validation() {
        let mut bad = config();
        bad.image_size = 2;
        assert!(SmallCnn::new(&bad, &mut TensorRng::new(0)).is_err());
        let pruned = config().pruned(0.25);
        assert_eq!(pruned.widths, [2, 4]);
    }
}
