//! Property-based tests of structured-pruning invariants: pruned models are
//! never larger than their parents, keep the requested widths, and still
//! produce finite outputs.

use edvit_datasets::{DatasetKind, SyntheticConfig, SyntheticGenerator};
use edvit_pruning::{ImportanceMethod, PrunerConfig, StructuredPruner};
use edvit_tensor::init::TensorRng;
use edvit_vit::{PrunedViTConfig, ViTConfig, VisionTransformer};
use proptest::prelude::*;

fn tiny_model_and_data(seed: u64) -> (VisionTransformer, edvit_datasets::Dataset, ViTConfig) {
    let mut config = ViTConfig::tiny_test();
    config.num_classes = 4;
    let model = VisionTransformer::new(&config, &mut TensorRng::new(seed)).unwrap();
    let mut dcfg = SyntheticConfig::tiny(DatasetKind::Cifar10Like);
    dcfg.class_limit = Some(4);
    dcfg.samples_per_class = 4;
    let dataset = SyntheticGenerator::new(seed).generate(&dcfg).unwrap();
    (model, dataset, config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pruned_sub_models_shrink_monotonically(seed in 0u64..50, classes_pick in 0usize..4) {
        let (model, dataset, config) = tiny_model_and_data(seed);
        let pruner = StructuredPruner::new(PrunerConfig {
            method: ImportanceMethod::Magnitude,
            other_fraction: 0.0,
            retrain: None,
            seed,
        });
        let classes = vec![classes_pick];
        let mut previous = usize::MAX;
        for hp in 1..config.heads {
            let plan = PrunedViTConfig::new(config.clone(), hp).unwrap();
            let sub = pruner.prune_sub_model(&model, &dataset, &classes, &plan).unwrap();
            let params = sub.model.parameter_count();
            prop_assert!(params < previous, "hp={hp}: {params} !< {previous}");
            prop_assert!(params < model.parameter_count());
            // Structural widths follow the plan.
            prop_assert_eq!(sub.model.embed_dim(), plan.embed_dim());
            prop_assert_eq!(sub.model.blocks()[0].attn().head_dim(), plan.head_dim());
            prop_assert_eq!(sub.model.blocks()[0].ffn_hidden(), plan.ffn_hidden());
            previous = params;
        }
    }

    #[test]
    fn pruned_models_produce_finite_logits(seed in 0u64..50, hp in 1usize..4) {
        let (model, dataset, config) = tiny_model_and_data(seed);
        let pruner = StructuredPruner::new(PrunerConfig {
            method: ImportanceMethod::Magnitude,
            other_fraction: 0.25,
            retrain: None,
            seed,
        });
        let plan = PrunedViTConfig::new(config, hp).unwrap();
        let sub = pruner.prune_sub_model(&model, &dataset, &[0, 2], &plan).unwrap();
        let pruned = sub.model;
        let mut rng = TensorRng::new(seed + 1);
        let x = rng.randn(&[2, 3, 16, 16], 0.0, 1.0);
        let logits = pruned.forward_images(&x).unwrap();
        prop_assert!(logits.all_finite());
        prop_assert_eq!(logits.dims()[1], sub.mapping.num_local_labels());
    }

    #[test]
    fn mapping_round_trips_between_local_and_global(seed in 0u64..100) {
        let (model, dataset, config) = tiny_model_and_data(seed);
        let pruner = StructuredPruner::new(PrunerConfig {
            method: ImportanceMethod::Magnitude,
            other_fraction: 0.5,
            retrain: None,
            seed,
        });
        let classes = vec![3, 1];
        let plan = PrunedViTConfig::new(config, 2).unwrap();
        let sub = pruner.prune_sub_model(&model, &dataset, &classes, &plan).unwrap();
        for (local, &global) in classes.iter().enumerate() {
            prop_assert_eq!(sub.mapping.local_label(global), Some(local));
            prop_assert_eq!(sub.mapping.global_class(local), Some(global));
        }
        // Classes outside the subset map to the "other" bucket.
        prop_assert_eq!(sub.mapping.local_label(0), sub.mapping.other_label);
    }
}
