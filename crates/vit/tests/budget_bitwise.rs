//! `forward_features` must produce the same bits however many threads its
//! kernels are allowed: under budget 1 (inline, the pool untouched), under
//! the whole global pool, under a fair share of it, and with a second thread
//! pushing regions through the same pool at the same time. CI runs this
//! under `EDVIT_THREADS` 1, 2 and 4, which covers the pool sizes.

use edvit_parallel::{with_budget, with_fair_share, ParallelPool};
use edvit_tensor::init::TensorRng;
use edvit_tensor::Tensor;
use edvit_vit::{ViTConfig, ViTVariant, VisionTransformer};

/// Wide enough that the MLP matmuls, the GELU and the per-sample attention
/// loop all cross their parallel thresholds on a two-image batch.
fn config() -> ViTConfig {
    ViTConfig {
        variant: ViTVariant::Small,
        depth: 2,
        embed_dim: 192,
        heads: 6,
        mlp_ratio: 4,
        patch_size: 8,
        image_size: 64,
        channels: 3,
        num_classes: 10,
    }
}

fn model_and_images() -> (VisionTransformer, Tensor) {
    let mut rng = TensorRng::new(0xB0D6E7);
    let model = VisionTransformer::new(&config(), &mut rng).unwrap();
    let images = rng.randn(&[2, 3, 64, 64], 0.0, 1.0);
    (model, images)
}

fn bits(features: &Tensor) -> Vec<u32> {
    features.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn forward_features_is_bitwise_equal_under_every_budget() {
    let (model, images) = model_and_images();
    let threads = ParallelPool::global().threads();
    let inline = with_budget(1, || bits(&model.forward_features(&images).unwrap()));
    assert!(inline.iter().any(|&b| b != 0));
    for budget in [2, threads, usize::MAX] {
        let got = with_budget(budget, || bits(&model.forward_features(&images).unwrap()));
        assert_eq!(got, inline, "budget {budget} of a {threads}-thread pool");
    }
    let unbudgeted = bits(&model.forward_features(&images).unwrap());
    assert_eq!(unbudgeted, inline, "no budget, {threads}-thread pool");
}

/// Three forwards of `model`, optionally as one of two sibling device
/// threads.
fn three_forwards(model: &VisionTransformer, images: &Tensor, fair_share: bool) -> Vec<Vec<u32>> {
    let forwards = || {
        (0..3)
            .map(|_| bits(&model.forward_features(images).unwrap()))
            .collect()
    };
    if fair_share {
        with_fair_share(2, forwards)
    } else {
        forwards()
    }
}

#[test]
fn concurrent_forwards_are_bitwise_equal_to_a_lone_inline_one() {
    let (model, images) = model_and_images();
    let inline = with_budget(1, || bits(&model.forward_features(&images).unwrap()));
    // Two threads at once on the one model (inference records nothing, so
    // they share it): first unbudgeted (both submit regions to the one
    // global pool and must not wait on each other), then as two sibling
    // device threads would.
    for fair_share in [false, true] {
        let (mine, theirs) = std::thread::scope(|scope| {
            let (model, images) = (&model, &images);
            let background = scope.spawn(move || three_forwards(model, images, fair_share));
            let mine = three_forwards(model, images, fair_share);
            (mine, background.join().unwrap())
        });
        for got in mine.iter().chain(&theirs) {
            assert_eq!(got, &inline, "fair_share = {fair_share}");
        }
    }
}
