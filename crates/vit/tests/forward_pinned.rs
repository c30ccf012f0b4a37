//! The forward and backward passes of three models, pinned to their bits:
//! any rewrite of `Linear`, `Mlp`, attention, layer norm, the patch embedding
//! or the matmul micro-kernels that moves a single rounding fails here.
//!
//! * The perfbench probe model: 64 tokens, 6 heads × 32, width 192.
//! * Two thin models whose products fall mostly in the register tiles'
//!   `n % 16` column tail: the tiny demo's deployed geometry (4 tokens, 12
//!   heads × 2, width 24) and the experiment profile's (16 tokens, 12 heads
//!   × 5, width 60). Their constants were recorded on commit 2d65df1,
//!   before the column tail moved onto the row tile and thin heads onto the
//!   one-pass attention, and have not been re-recorded.
//!
//! The probe model's constants were first recorded on commit a066498, before
//! the forward path was made lean. They were re-recorded twice, deliberately:
//!
//! * on top of commit c570b24, when attention's `Q·Kᵀ` moved from one `dot`
//!   per (query, key, head) onto the GEBP tile (scaled after the product)
//!   and layer norm's row mean and variance onto the 8-accumulator lane fold
//!   softmax sums with;
//! * on top of commit 0ea758d, when the backward's three `A·Bᵀ` products —
//!   `Linear`'s and `Conv2d`'s input gradient `g·Wᵀ` and attention's
//!   `dA = dOut·Vᵀ` — moved from one `dot` per output element onto GEBP
//!   `matmul` against the transposed operand. The forward did not move, so
//!   only the two gradient hashes changed:
//!
//! | batch | hash | a066498 | c570b24 + scores on GEBP, lane-sum stats | 0ea758d + backward on GEBP |
//! |---|---|---|---|---|
//! | 1 | features | `2ce5c8cbc640936a` | `1aea697f4aeada6a` | unchanged |
//! | 1 | logits | `95a56516aab9919d` | `1486ea6d8f063f90` | unchanged |
//! | 1 | image grad | `1c73f336e39608ad` | `4a778f73fdfa25f1` | `6472243328f06403` |
//! | 1 | param grads | `72f2e41de158167a` | `6f235b5f141e57f4` | `e152ce0104a96910` |
//! | 2 | features | `7cccb7b447c15cdb` | `d89b16f8d069d763` | unchanged |
//! | 2 | logits | `daa2186fcbff27ec` | `48e3870635cffe2b` | unchanged |
//! | 2 | image grad | `81100632c9b352ef` | `8e00f77fd195f2fe` | `3b0b1a42a54c03ad` |
//! | 2 | param grads | `aa3db92a91e711d4` | `5975d6e6f32f8c6f` | `006afbc438e9f5e0` |
//!
//! each time recorded with `EDVIT_THREADS=$t cargo test -p edvit-vit --test
//! forward_pinned -- --nocapture` for `t` in 1, 2 and 4 (the test prints
//! each batch's hashes before it compares them), identical at every `t` and
//! under `with_budget(1)`.
//!
//! The constants hold on x86-64 with AVX2+FMA and with AVX-512 (the two
//! tiles are bit-identical by construction, which `parallel_kernels.rs`
//! checks shape by shape); other CPUs take the portable kernel, whose
//! unfused multiply-adds round differently, and skip with a printed reason.
//! CI runs this under `EDVIT_THREADS` 1, 2 and 4; each case also runs under
//! `with_budget(1)`.

use edvit_nn::Layer;
use edvit_parallel::with_budget;
use edvit_tensor::init::TensorRng;
use edvit_tensor::kernels::MicroKernel;
use edvit_vit::{ViTConfig, ViTVariant, VisionTransformer};

/// `perfbench`'s `probe_vit_config()`: depth 4, width 192, 6 heads, 64
/// patches of 8×8 on a 64×64 RGB image.
fn probe_config() -> ViTConfig {
    ViTConfig {
        variant: ViTVariant::Small,
        depth: 4,
        embed_dim: 192,
        heads: 6,
        mlp_ratio: 4,
        patch_size: 8,
        image_size: 64,
        channels: 3,
        num_classes: 10,
    }
}

/// The tiny demo's sub-model geometry: `EdVitConfig::tiny_demo`'s scale
/// profile (16×16 images, 8×8 patches, width ≤ 32, depth ≤ 2) applied to
/// ViT-Base with 4 classes — 4 tokens, 12 heads × 2.
fn tiny_demo_config() -> ViTConfig {
    ViTConfig {
        variant: ViTVariant::Base,
        depth: 2,
        embed_dim: 24,
        heads: 12,
        mlp_ratio: 2,
        patch_size: 8,
        image_size: 16,
        channels: 3,
        num_classes: 4,
    }
}

/// The experiment profile's geometry: `ScaleProfile::default()` (32×32
/// images, 8×8 patches, width ≤ 64, depth ≤ 4) applied to ViT-Base with 10
/// classes — 16 tokens, 12 heads × 5.
fn experiment_config() -> ViTConfig {
    ViTConfig {
        variant: ViTVariant::Base,
        depth: 4,
        embed_dim: 60,
        heads: 12,
        mlp_ratio: 2,
        patch_size: 8,
        image_size: 32,
        channels: 3,
        num_classes: 10,
    }
}

/// FNV-1a (64-bit) over the little-endian bytes of every value's bit pattern.
fn fnv1a(values: &[f32]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Hashes of `forward_features`, `forward_images`, and what
/// `backward_from_features` leaves behind after `forward_features_train` —
/// the image gradient and every parameter gradient, in `parameters()` order
/// — for a `batch`-image input to a seed-0 model of `config`. The training
/// forward must give the inference forward's bits.
fn hashes(config: &ViTConfig, batch: usize) -> [u64; 4] {
    let mut rng = TensorRng::new(0);
    let mut model = VisionTransformer::new(config, &mut rng).unwrap();
    let (channels, side) = (config.channels, config.image_size);
    let images = rng.randn(&[batch, channels, side, side], 0.0, 1.0);
    let grad_features = rng.randn(&[batch, config.embed_dim], 0.0, 1.0);
    let logits = model.forward_images(&images).unwrap();
    let features = model.forward_features(&images).unwrap();
    let trained = model.forward_features_train(&images).unwrap();
    assert_eq!(fnv1a(trained.data()), fnv1a(features.data()));
    let grad_images = model.backward_from_features(&grad_features).unwrap();
    assert_eq!(grad_images.dims(), images.dims());
    // A parameter the backward did not reach (the classification head's,
    // behind `backward_from_features`) holds no gradient and hashes as the
    // zeros it held when every parameter carried one.
    let param_grads: Vec<f32> = model
        .parameters()
        .iter()
        .flat_map(|p| match p.grad() {
            Some(g) => g.data().to_vec(),
            None => vec![0.0; p.numel()],
        })
        .collect();
    [
        fnv1a(features.data()),
        fnv1a(logits.data()),
        fnv1a(grad_images.data()),
        fnv1a(&param_grads),
    ]
}

/// `(batch, [features, logits, image gradient, parameter gradients])`,
/// last re-recorded on top of commit 0ea758d on x86-64 with AVX-512 (see the
/// header), identical under `EDVIT_THREADS` 1, 2 and 4.
const PINNED: [(usize, [u64; 4]); 2] = [
    (
        1,
        [
            0x1aea_697f_4aea_da6a,
            0x1486_ea6d_8f06_3f90,
            0x6472_2433_28f0_6403,
            0xe152_ce01_04a9_6910,
        ],
    ),
    (
        2,
        [
            0xd89b_16f8_d069_d763,
            0x48e3_8706_35cf_fe2b,
            0x3b0b_1a42_a54c_03ad,
            0x006a_fbc4_38e9_f5e0,
        ],
    ),
];

/// The tiny demo geometry's `(batch, hashes)`, recorded on commit 2d65df1
/// on x86-64 with AVX-512, identical under `EDVIT_THREADS` 1, 2 and 4 and
/// under `with_budget(1)`.
const PINNED_TINY_DEMO: [(usize, [u64; 4]); 2] = [
    (
        1,
        [
            0x6ce7_a9dc_2891_ede5,
            0xb7d4_f7e0_daf9_38c3,
            0x1c5e_fffe_6f36_a396,
            0x806d_d02a_354b_e7a4,
        ],
    ),
    (
        2,
        [
            0x099c_d480_9322_8311,
            0x6390_3400_7b68_373d,
            0x04dc_57cb_94ff_5540,
            0x59ab_5f5b_1ced_0fcc,
        ],
    ),
];

/// The experiment profile's `(batch, hashes)`, recorded as
/// [`PINNED_TINY_DEMO`].
const PINNED_EXPERIMENT: [(usize, [u64; 4]); 2] = [
    (
        1,
        [
            0x1414_1969_d60b_7f70,
            0xab30_0e98_3877_fc2c,
            0x65d4_e6a9_0848_6ac0,
            0xafe7_b30f_5b91_c615,
        ],
    ),
    (
        2,
        [
            0x5812_db76_76c6_c4c8,
            0x3333_b040_95db_d909,
            0x6068_d90c_a93a_329e,
            0x1d7e_3343_a0f3_49f6,
        ],
    ),
];

/// Checks `config`'s hashes against `pinned` on the ambient pool and under
/// `with_budget(1)`, printing each batch's hashes first; skips, saying so,
/// on a CPU without the FMA micro-kernels.
fn assert_pinned(name: &str, config: &ViTConfig, pinned: &[(usize, [u64; 4])]) {
    if MicroKernel::detect() == MicroKernel::Portable {
        println!(
            "SKIPPED: {name}: the pinned bits are those of the FMA micro-kernels (needs x86-64 avx2+fma)"
        );
        return;
    }
    for &(batch, pinned) in pinned {
        let ambient = hashes(config, batch);
        println!("{name}, batch {batch}: {ambient:#018x?}");
        assert_eq!(ambient, pinned, "{name}, batch {batch}, ambient budget");
        assert_eq!(
            with_budget(1, || hashes(config, batch)),
            pinned,
            "{name}, batch {batch}, budget 1"
        );
    }
}

#[test]
fn probe_model_forward_and_backward_match_the_pinned_bits() {
    assert_pinned("probe model", &probe_config(), &PINNED);
}

#[test]
fn thin_models_forward_and_backward_match_the_pinned_bits() {
    assert_pinned("tiny demo", &tiny_demo_config(), &PINNED_TINY_DEMO);
    assert_pinned(
        "experiment profile",
        &experiment_config(),
        &PINNED_EXPERIMENT,
    );
}
