use edvit_tensor::{init::TensorRng, Tensor};

use crate::{Dataset, DatasetError, DatasetKind, Result};

/// Parameters controlling synthetic dataset generation.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Which real dataset this synthetic one stands in for (fixes class and
    /// channel counts).
    pub kind: DatasetKind,
    /// Square image side length in pixels.
    pub image_size: usize,
    /// Samples generated per class.
    pub samples_per_class: usize,
    /// Number of distinct prototypes ("modes") per class; more modes means
    /// more within-class variation and a harder problem.
    pub modes_per_class: usize,
    /// Amplitude of the class signal relative to unit-variance noise.
    pub signal_strength: f32,
    /// Standard deviation of additive observation noise.
    pub noise_std: f32,
    /// Optional cap on the number of classes actually generated (useful for
    /// Caltech256's 257 classes at CPU scale); `None` keeps the real count.
    pub class_limit: Option<usize>,
}

impl SyntheticConfig {
    /// A configuration small enough for unit tests and doctests.
    pub fn tiny(kind: DatasetKind) -> Self {
        SyntheticConfig {
            kind,
            image_size: 16,
            samples_per_class: 8,
            modes_per_class: 2,
            signal_strength: 1.6,
            noise_std: 0.4,
            class_limit: Some(kind.num_classes().min(10)),
        }
    }

    /// The configuration used by the accuracy experiments: 32×32 inputs,
    /// enough samples per class for a stable train/test split.
    pub fn experiment(kind: DatasetKind) -> Self {
        SyntheticConfig {
            kind,
            image_size: 32,
            samples_per_class: 20,
            modes_per_class: 2,
            signal_strength: 1.6,
            noise_std: 0.5,
            class_limit: Some(kind.num_classes().min(10)),
        }
    }

    /// Number of classes actually generated.
    pub fn effective_classes(&self) -> usize {
        let real = self.kind.num_classes();
        self.class_limit
            .map_or(real, |limit| real.min(limit.max(1)))
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] for zero-valued fields.
    pub fn validate(&self) -> Result<()> {
        if self.image_size == 0
            || self.samples_per_class == 0
            || self.modes_per_class == 0
            || self.effective_classes() == 0
        {
            return Err(DatasetError::InvalidConfig {
                message: format!("synthetic config has a zero-sized field: {self:?}"),
            });
        }
        if self.signal_strength <= 0.0 || self.noise_std < 0.0 {
            return Err(DatasetError::InvalidConfig {
                message: "signal strength must be positive and noise non-negative".to_string(),
            });
        }
        Ok(())
    }
}

/// Deterministic generator of class-structured synthetic datasets.
///
/// Every class receives `modes_per_class` smooth random prototypes (low
/// frequency patterns upsampled to the target resolution). A sample is a
/// randomly-chosen prototype of its class scaled by `signal_strength`, plus
/// white noise. This mirrors what ED-ViT needs from CIFAR-10 et al.: classes
/// are separable but overlap enough that pruning too aggressively costs
/// accuracy.
#[derive(Debug, Clone)]
pub struct SyntheticGenerator {
    seed: u64,
}

impl SyntheticGenerator {
    /// Creates a generator with a master seed; the same seed and configuration
    /// always produce the same dataset.
    pub fn new(seed: u64) -> Self {
        SyntheticGenerator { seed }
    }

    /// Generates a dataset according to `config`.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] when the configuration is
    /// invalid.
    pub fn generate(&self, config: &SyntheticConfig) -> Result<Dataset> {
        config.validate()?;
        let classes = config.effective_classes();
        let channels = config.kind.channels();
        let size = config.image_size;
        let n = classes * config.samples_per_class;
        let mut rng = TensorRng::new(self.seed ^ dataset_salt(config.kind));

        // Low-resolution prototypes upsampled to the image size give smooth,
        // patch-friendly class patterns.
        let proto_res = (size / 4).max(2);
        let mut prototypes: Vec<Vec<Tensor>> = Vec::with_capacity(classes);
        for _ in 0..classes {
            let mut modes = Vec::with_capacity(config.modes_per_class);
            for _ in 0..config.modes_per_class {
                let low = rng.randn(&[channels, proto_res, proto_res], 0.0, 1.0);
                modes.push(upsample_nearest(&low, size));
            }
            prototypes.push(modes);
        }

        let mut data = Vec::with_capacity(n * channels * size * size);
        let mut labels = Vec::with_capacity(n);
        for (class, class_modes) in prototypes.iter().enumerate() {
            for _ in 0..config.samples_per_class {
                let mode = rng.index(config.modes_per_class);
                let proto = &class_modes[mode];
                let noise = rng.randn(&[channels, size, size], 0.0, config.noise_std);
                let sample = proto.scale(config.signal_strength).add(&noise)?;
                data.extend_from_slice(sample.data());
                labels.push(class);
            }
        }
        let images = Tensor::from_vec(data, &[n, channels, size, size])?;
        Dataset::new(config.kind, images, labels, classes)
    }
}

/// Nearest-neighbour upsampling of a `[c, r, r]` tensor to `[c, size, size]`.
fn upsample_nearest(low: &Tensor, size: usize) -> Tensor {
    let c = low.dims()[0];
    let r = low.dims()[1];
    let mut image = Tensor::zeros(&[c, size, size]);
    let out = image.data_mut();
    for ci in 0..c {
        for y in 0..size {
            for x in 0..size {
                let ly = (y * r / size).min(r - 1);
                let lx = (x * r / size).min(r - 1);
                out[ci * size * size + y * size + x] = low.data()[ci * r * r + ly * r + lx];
            }
        }
    }
    image
}

fn dataset_salt(kind: DatasetKind) -> u64 {
    match kind {
        DatasetKind::Cifar10Like => 0x1111,
        DatasetKind::MnistLike => 0x2222,
        DatasetKind::Caltech256Like => 0x3333,
        DatasetKind::GtzanLike => 0x4444,
        DatasetKind::SpeechCommandsLike => 0x5555,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_respects_config() {
        let config = SyntheticConfig::tiny(DatasetKind::Cifar10Like);
        let d = SyntheticGenerator::new(0).generate(&config).unwrap();
        assert_eq!(d.num_classes(), 10);
        assert_eq!(d.len(), 80);
        assert_eq!(d.channels(), 3);
        assert_eq!(d.image_size(), 16);
        assert_eq!(d.class_counts(), vec![8; 10]);
    }

    #[test]
    fn audio_datasets_are_single_channel() {
        let config = SyntheticConfig::tiny(DatasetKind::GtzanLike);
        let d = SyntheticGenerator::new(1).generate(&config).unwrap();
        assert_eq!(d.channels(), 1);
        assert_eq!(d.num_classes(), 10);
        let config = SyntheticConfig::tiny(DatasetKind::SpeechCommandsLike);
        let d = SyntheticGenerator::new(1).generate(&config).unwrap();
        assert_eq!(d.num_classes(), 10); // capped by class_limit in tiny()
    }

    #[test]
    fn caltech_class_limit() {
        let mut config = SyntheticConfig::tiny(DatasetKind::Caltech256Like);
        config.class_limit = Some(12);
        config.samples_per_class = 2;
        let d = SyntheticGenerator::new(2).generate(&config).unwrap();
        assert_eq!(d.num_classes(), 12);
        config.class_limit = None;
        assert_eq!(config.effective_classes(), 257);
    }

    #[test]
    fn determinism_and_trial_variation() {
        let config = SyntheticConfig::tiny(DatasetKind::MnistLike);
        let gen = SyntheticGenerator::new(7);
        let a = gen.generate(&config).unwrap();
        let b = gen.generate(&config).unwrap();
        assert_eq!(a.images().data(), b.images().data());
        // Trials differ only in the generator seed.
        let t1 = SyntheticGenerator::new(8).generate(&config).unwrap();
        assert_ne!(a.images().data(), t1.images().data());
        assert_eq!(a.labels(), t1.labels());
    }

    #[test]
    fn different_kinds_differ() {
        let c1 = SyntheticConfig::tiny(DatasetKind::Cifar10Like);
        let c2 = SyntheticConfig::tiny(DatasetKind::MnistLike);
        let gen = SyntheticGenerator::new(3);
        let a = gen.generate(&c1).unwrap();
        let b = gen.generate(&c2).unwrap();
        assert_ne!(a.images().data(), b.images().data());
    }

    #[test]
    fn classes_are_separable_by_nearest_prototype() {
        // A simple nearest-class-mean classifier on the raw pixels should get
        // well above chance on the synthetic data — this is the property the
        // accuracy experiments rely on.
        let mut config = SyntheticConfig::tiny(DatasetKind::Cifar10Like);
        config.samples_per_class = 12;
        let d = SyntheticGenerator::new(4).generate(&config).unwrap();
        let (train, test) = d.split(0.7, 5).unwrap();
        let dim = d.channels() * d.image_size() * d.image_size();
        // Class means from the training split.
        let mut means = vec![vec![0.0f32; dim]; d.num_classes()];
        let counts = train.class_counts();
        for i in 0..train.len() {
            let label = train.labels()[i];
            let row = train.images().row(i).unwrap();
            for (m, v) in means[label].iter_mut().zip(row.data()) {
                *m += v / counts[label].max(1) as f32;
            }
        }
        let mut correct = 0usize;
        for i in 0..test.len() {
            let row = test.images().row(i).unwrap();
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for (c, mean) in means.iter().enumerate() {
                let dist: f32 = row
                    .data()
                    .iter()
                    .zip(mean)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                if dist < best_d {
                    best_d = dist;
                    best = c;
                }
            }
            if best == test.labels()[i] {
                correct += 1;
            }
        }
        let acc = correct as f32 / test.len() as f32;
        assert!(
            acc > 0.5,
            "nearest-mean accuracy {acc} should beat 10% chance comfortably"
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut config = SyntheticConfig::tiny(DatasetKind::Cifar10Like);
        config.image_size = 0;
        assert!(SyntheticGenerator::new(0).generate(&config).is_err());
        let mut config = SyntheticConfig::tiny(DatasetKind::Cifar10Like);
        config.signal_strength = 0.0;
        assert!(SyntheticGenerator::new(0).generate(&config).is_err());
        let mut config = SyntheticConfig::tiny(DatasetKind::Cifar10Like);
        config.samples_per_class = 0;
        assert!(config.validate().is_err());
    }

    #[test]
    fn experiment_config_is_larger_than_tiny() {
        let tiny = SyntheticConfig::tiny(DatasetKind::Cifar10Like);
        let exp = SyntheticConfig::experiment(DatasetKind::Cifar10Like);
        assert!(exp.image_size > tiny.image_size);
        assert!(exp.samples_per_class > tiny.samples_per_class);
    }
}
