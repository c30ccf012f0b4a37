/// The five evaluation datasets of the paper, as synthetic stand-ins.
///
/// Each variant fixes the class count and channel count of the corresponding
/// real dataset; the image resolution is a free parameter so experiments can
/// run at the paper's 224×224 (for analytic cost purposes) or scaled down for
/// CPU training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// CIFAR-10: 10 classes, RGB images.
    Cifar10Like,
    /// MNIST: 10 classes, treated as RGB after the paper's 224×224×3 resize.
    MnistLike,
    /// Caltech256: 257 classes, RGB images.
    Caltech256Like,
    /// GTZAN music genres: 10 classes, single-channel spectrograms.
    GtzanLike,
    /// Speech Commands: 35 classes, single-channel spectrograms.
    SpeechCommandsLike,
}

impl DatasetKind {
    /// All five dataset kinds in the order the paper presents them.
    pub fn all() -> [DatasetKind; 5] {
        [
            DatasetKind::Cifar10Like,
            DatasetKind::MnistLike,
            DatasetKind::Caltech256Like,
            DatasetKind::GtzanLike,
            DatasetKind::SpeechCommandsLike,
        ]
    }

    /// The three computer-vision datasets (Fig. 4).
    pub fn vision() -> [DatasetKind; 3] {
        [
            DatasetKind::Cifar10Like,
            DatasetKind::MnistLike,
            DatasetKind::Caltech256Like,
        ]
    }

    /// The two audio-recognition datasets (Fig. 5).
    pub fn audio() -> [DatasetKind; 2] {
        [DatasetKind::GtzanLike, DatasetKind::SpeechCommandsLike]
    }

    /// Number of classes of the real dataset.
    pub fn num_classes(&self) -> usize {
        match self {
            DatasetKind::Cifar10Like => 10,
            DatasetKind::MnistLike => 10,
            DatasetKind::Caltech256Like => 257,
            DatasetKind::GtzanLike => 10,
            DatasetKind::SpeechCommandsLike => 35,
        }
    }

    /// Number of input channels after the paper's preprocessing
    /// (224×224×3 for vision, 224×224×1 for audio spectrograms).
    pub fn channels(&self) -> usize {
        match self {
            DatasetKind::Cifar10Like | DatasetKind::MnistLike | DatasetKind::Caltech256Like => 3,
            DatasetKind::GtzanLike | DatasetKind::SpeechCommandsLike => 1,
        }
    }

    /// Whether this is one of the audio-recognition datasets.
    pub fn is_audio(&self) -> bool {
        matches!(
            self,
            DatasetKind::GtzanLike | DatasetKind::SpeechCommandsLike
        )
    }

    /// The name of the real dataset this synthetic one stands in for.
    pub fn paper_name(&self) -> &'static str {
        match self {
            DatasetKind::Cifar10Like => "CIFAR-10",
            DatasetKind::MnistLike => "MNIST",
            DatasetKind::Caltech256Like => "Caltech256",
            DatasetKind::GtzanLike => "GTZAN",
            DatasetKind::SpeechCommandsLike => "Speech Commands",
        }
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (synthetic)", self.paper_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_counts_match_real_datasets() {
        assert_eq!(DatasetKind::Cifar10Like.num_classes(), 10);
        assert_eq!(DatasetKind::MnistLike.num_classes(), 10);
        assert_eq!(DatasetKind::Caltech256Like.num_classes(), 257);
        assert_eq!(DatasetKind::GtzanLike.num_classes(), 10);
        assert_eq!(DatasetKind::SpeechCommandsLike.num_classes(), 35);
    }

    #[test]
    fn channels_and_audio_flag() {
        assert_eq!(DatasetKind::Cifar10Like.channels(), 3);
        assert_eq!(DatasetKind::GtzanLike.channels(), 1);
        assert!(DatasetKind::GtzanLike.is_audio());
        assert!(DatasetKind::SpeechCommandsLike.is_audio());
        assert!(!DatasetKind::MnistLike.is_audio());
    }

    #[test]
    fn groupings_cover_all() {
        assert_eq!(DatasetKind::all().len(), 5);
        assert_eq!(DatasetKind::vision().len(), 3);
        assert_eq!(DatasetKind::audio().len(), 2);
        for k in DatasetKind::all() {
            assert!(!k.paper_name().is_empty());
            assert!(k.to_string().contains("synthetic"));
        }
    }
}
