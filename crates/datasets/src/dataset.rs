use edvit_tensor::{init::TensorRng, Tensor};

use crate::{DatasetError, DatasetKind, Result};

/// Mapping produced by [`Dataset::resample_for_classes`]: how a sub-model's
/// local label space relates to the global class indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassSubsetMapping {
    /// Global class index for each local label `0..subset.len()`.
    pub subset: Vec<usize>,
    /// The local label reserved for "none of my classes" samples, if any.
    pub other_label: Option<usize>,
}

impl ClassSubsetMapping {
    /// Maps a global class index to the sub-model's local label, returning the
    /// "other" label (if present) for classes outside the subset.
    pub fn local_label(&self, global_class: usize) -> Option<usize> {
        if let Some(pos) = self.subset.iter().position(|&c| c == global_class) {
            Some(pos)
        } else {
            self.other_label
        }
    }

    /// Maps a local label back to the global class, if it is a real class.
    pub fn global_class(&self, local_label: usize) -> Option<usize> {
        self.subset.get(local_label).copied()
    }

    /// Number of local output labels (subset plus the optional "other").
    pub fn num_local_labels(&self) -> usize {
        self.subset.len() + usize::from(self.other_label.is_some())
    }
}

/// A labelled image/spectrogram classification dataset held in memory.
///
/// Samples are stored as a single `[n, channels, size, size]` tensor plus a
/// parallel label vector, which matches what the training loop consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    kind: DatasetKind,
    images: Tensor,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Creates a dataset from raw parts.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] when shapes and labels are
    /// inconsistent or any label is out of range.
    pub fn new(
        kind: DatasetKind,
        images: Tensor,
        labels: Vec<usize>,
        num_classes: usize,
    ) -> Result<Self> {
        if images.rank() != 4 {
            return Err(DatasetError::InvalidConfig {
                message: format!("images must be [n, c, h, w], got {:?}", images.dims()),
            });
        }
        if images.dims()[0] != labels.len() {
            return Err(DatasetError::InvalidConfig {
                message: format!("{} images but {} labels", images.dims()[0], labels.len()),
            });
        }
        if num_classes == 0 {
            return Err(DatasetError::InvalidConfig {
                message: "num_classes must be positive".to_string(),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= num_classes) {
            return Err(DatasetError::ClassOutOfRange {
                class: bad,
                num_classes,
            });
        }
        Ok(Dataset {
            kind,
            images,
            labels,
            num_classes,
        })
    }

    /// Which real dataset this stands in for.
    pub fn kind(&self) -> DatasetKind {
        self.kind
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of global classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The image tensor `[n, c, h, w]`.
    pub fn images(&self) -> &Tensor {
        &self.images
    }

    /// The label vector.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Image side length in pixels.
    pub fn image_size(&self) -> usize {
        self.images.dims()[2]
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.images.dims()[1]
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Returns the subset of samples at the given indices.
    ///
    /// # Errors
    ///
    /// Returns a tensor error for out-of-range indices.
    pub fn subset(&self, indices: &[usize]) -> Result<Dataset> {
        let images = self.images.gather_rows(indices)?;
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        Dataset::new(self.kind, images, labels, self.num_classes)
    }

    /// Deterministically splits into `(train, test)` with `train_fraction` of
    /// each class going to the training split (stratified).
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] when the fraction is outside
    /// `(0, 1)` or [`DatasetError::Empty`] for an empty dataset.
    pub fn split(&self, train_fraction: f32, seed: u64) -> Result<(Dataset, Dataset)> {
        if self.is_empty() {
            return Err(DatasetError::Empty { what: "dataset" });
        }
        if !(0.0..1.0).contains(&train_fraction) || train_fraction == 0.0 {
            return Err(DatasetError::InvalidConfig {
                message: format!("train fraction {train_fraction} must be in (0, 1)"),
            });
        }
        let mut rng = TensorRng::new(seed);
        let mut train_idx = Vec::new();
        let mut test_idx = Vec::new();
        for class in 0..self.num_classes {
            let mut members: Vec<usize> = (0..self.len())
                .filter(|&i| self.labels[i] == class)
                .collect();
            if members.is_empty() {
                continue;
            }
            rng.shuffle(&mut members);
            let cut =
                ((members.len() as f32 * train_fraction).round() as usize).clamp(1, members.len());
            train_idx.extend_from_slice(&members[..cut.min(members.len())]);
            if cut < members.len() {
                test_idx.extend_from_slice(&members[cut..]);
            }
        }
        // Guarantee a non-empty test split by moving one sample if needed.
        if test_idx.is_empty() && train_idx.len() > 1 {
            test_idx.extend(train_idx.pop());
        }
        Ok((self.subset(&train_idx)?, self.subset(&test_idx)?))
    }

    /// The `resample(X, y, C_i)` step of Algorithm 2: builds the training set
    /// for the sub-model responsible for class subset `subset`.
    ///
    /// All samples of the subset classes are kept and relabelled to
    /// `0..subset.len()`; a fraction (`other_fraction`) of the remaining
    /// samples is kept and labelled with an extra "other" class so the
    /// sub-model learns to reject inputs that are not its responsibility.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::ClassOutOfRange`] for invalid subset entries or
    /// [`DatasetError::Empty`] when the subset matches no samples.
    pub fn resample_for_classes(
        &self,
        subset: &[usize],
        other_fraction: f32,
        seed: u64,
    ) -> Result<(Dataset, ClassSubsetMapping)> {
        if subset.is_empty() {
            return Err(DatasetError::Empty {
                what: "class subset",
            });
        }
        for &c in subset {
            if c >= self.num_classes {
                return Err(DatasetError::ClassOutOfRange {
                    class: c,
                    num_classes: self.num_classes,
                });
            }
        }
        let mut rng = TensorRng::new(seed);
        let mut indices = Vec::new();
        let mut new_labels = Vec::new();
        for (i, &label) in self.labels.iter().enumerate() {
            if let Some(pos) = subset.iter().position(|&c| c == label) {
                indices.push(i);
                new_labels.push(pos);
            }
        }
        if indices.is_empty() {
            return Err(DatasetError::Empty {
                what: "class subset samples",
            });
        }
        let include_other = other_fraction > 0.0;
        if include_other {
            let others: Vec<usize> = (0..self.len())
                .filter(|&i| !subset.contains(&self.labels[i]))
                .collect();
            let take = (others.len() as f32 * other_fraction).round() as usize;
            let chosen = {
                let mut o = others;
                rng.shuffle(&mut o);
                o.truncate(take);
                o
            };
            for i in chosen {
                indices.push(i);
                new_labels.push(subset.len());
            }
        }
        let images = self.images.gather_rows(&indices)?;
        let mapping = ClassSubsetMapping {
            subset: subset.to_vec(),
            other_label: include_other.then_some(subset.len()),
        };
        let local_classes = mapping.num_local_labels();
        let dataset = Dataset::new(self.kind, images, new_labels, local_classes)?;
        Ok((dataset, mapping))
    }

    /// Iterates over `(images, labels)` mini-batches in a deterministic,
    /// shuffled order.
    ///
    /// # Errors
    ///
    /// Returns tensor errors if gathering fails (should not happen for a
    /// well-formed dataset).
    pub fn shuffled_batches(
        &self,
        batch_size: usize,
        seed: u64,
    ) -> Result<Vec<(Tensor, Vec<usize>)>> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        TensorRng::new(seed).shuffle(&mut order);
        let mut batches = Vec::new();
        for chunk in order.chunks(batch_size.max(1)) {
            let images = self.images.gather_rows(chunk)?;
            let labels = chunk.iter().map(|&i| self.labels[i]).collect();
            batches.push((images, labels));
        }
        Ok(batches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dataset(samples_per_class: usize, classes: usize) -> Dataset {
        let size = 4usize;
        let n = samples_per_class * classes;
        let mut data = Vec::with_capacity(n * 3 * size * size);
        let mut labels = Vec::with_capacity(n);
        for c in 0..classes {
            for s in 0..samples_per_class {
                let value = c as f32 + s as f32 * 0.01;
                data.extend(std::iter::repeat_n(value, 3 * size * size));
                labels.push(c);
            }
        }
        Dataset::new(
            DatasetKind::Cifar10Like,
            Tensor::from_vec(data, &[n, 3, size, size]).unwrap(),
            labels,
            classes,
        )
        .unwrap()
    }

    #[test]
    fn construction_validation() {
        let images = Tensor::zeros(&[2, 3, 4, 4]);
        assert!(Dataset::new(DatasetKind::MnistLike, images.clone(), vec![0, 1], 2).is_ok());
        assert!(Dataset::new(DatasetKind::MnistLike, images.clone(), vec![0], 2).is_err());
        assert!(Dataset::new(DatasetKind::MnistLike, images.clone(), vec![0, 5], 2).is_err());
        assert!(Dataset::new(DatasetKind::MnistLike, images, vec![0, 1], 0).is_err());
        assert!(Dataset::new(
            DatasetKind::MnistLike,
            Tensor::zeros(&[2, 48]),
            vec![0, 1],
            2
        )
        .is_err());
    }

    #[test]
    fn accessors_and_counts() {
        let d = toy_dataset(5, 4);
        assert_eq!(d.len(), 20);
        assert!(!d.is_empty());
        assert_eq!(d.num_classes(), 4);
        assert_eq!(d.image_size(), 4);
        assert_eq!(d.channels(), 3);
        assert_eq!(d.class_counts(), vec![5, 5, 5, 5]);
        assert_eq!(d.kind(), DatasetKind::Cifar10Like);
    }

    #[test]
    fn split_is_stratified_and_deterministic() {
        let d = toy_dataset(10, 3);
        let (train, test) = d.split(0.8, 1).unwrap();
        assert_eq!(train.len() + test.len(), d.len());
        assert_eq!(train.class_counts(), vec![8, 8, 8]);
        assert_eq!(test.class_counts(), vec![2, 2, 2]);
        let (train2, _) = d.split(0.8, 1).unwrap();
        assert_eq!(train.labels(), train2.labels());
        assert!(d.split(0.0, 1).is_err());
        assert!(d.split(1.5, 1).is_err());
    }

    #[test]
    fn resample_for_classes_relabels() {
        let d = toy_dataset(6, 5);
        let (sub, mapping) = d.resample_for_classes(&[3, 1], 0.0, 2).unwrap();
        assert_eq!(sub.len(), 12);
        assert_eq!(sub.num_classes(), 2);
        assert_eq!(mapping.subset, vec![3, 1]);
        assert_eq!(mapping.other_label, None);
        assert_eq!(mapping.local_label(3), Some(0));
        assert_eq!(mapping.local_label(1), Some(1));
        assert_eq!(mapping.local_label(0), None);
        assert_eq!(mapping.global_class(0), Some(3));
        assert_eq!(mapping.num_local_labels(), 2);
        // Image contents follow: local label 0 must correspond to class-3 images.
        for (i, &l) in sub.labels().iter().enumerate() {
            let pixel = sub.images().get(&[i, 0, 0, 0]).unwrap();
            let global = mapping.global_class(l).unwrap();
            assert_eq!(pixel.floor() as usize, global);
        }
    }

    #[test]
    fn resample_with_other_class() {
        let d = toy_dataset(4, 5);
        let (sub, mapping) = d.resample_for_classes(&[0], 0.5, 3).unwrap();
        assert_eq!(mapping.other_label, Some(1));
        assert_eq!(mapping.num_local_labels(), 2);
        assert_eq!(mapping.local_label(4), Some(1));
        // 4 own samples + half of the 16 others = 12.
        assert_eq!(sub.len(), 12);
        let counts = sub.class_counts();
        assert_eq!(counts[0], 4);
        assert_eq!(counts[1], 8);
    }

    #[test]
    fn resample_validation() {
        let d = toy_dataset(2, 3);
        assert!(d.resample_for_classes(&[], 0.0, 0).is_err());
        assert!(d.resample_for_classes(&[7], 0.0, 0).is_err());
    }

    #[test]
    fn shuffled_batches_cover_everything() {
        let d = toy_dataset(7, 2);
        let batches = d.shuffled_batches(4, 5).unwrap();
        let total: usize = batches.iter().map(|(_, l)| l.len()).sum();
        assert_eq!(total, 14);
        assert!(batches.iter().all(|(x, l)| x.dims()[0] == l.len()));
        // Determinism.
        let batches2 = d.shuffled_batches(4, 5).unwrap();
        assert_eq!(batches[0].1, batches2[0].1);
    }

    #[test]
    fn subset_picks_rows() {
        let d = toy_dataset(3, 2);
        let s = d.subset(&[0, 5]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.labels(), &[0, 1]);
        assert!(d.subset(&[100]).is_err());
    }

    #[test]
    fn empty_split_errors() {
        let d = toy_dataset(1, 1);
        let empty = d.subset(&[]).unwrap();
        assert!(empty.is_empty());
        assert!(empty.split(0.5, 0).is_err());
    }
}
