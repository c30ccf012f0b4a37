//! The forward and backward passes of the perfbench probe model, pinned to
//! the bits they produced before the forward path was made lean (PR 14): the
//! constants below were recorded on the parent commit, so any rewrite of
//! `Linear`, `Mlp`, attention, the patch embedding or the matmul micro-kernels
//! that moves a single rounding fails here.
//!
//! The constants hold on x86-64 with AVX2+FMA (the AVX-512 tile is bound to
//! produce the same bits); other CPUs take the portable kernel, whose
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

/// FNV-1a (64-bit) over the little-endian bytes of every value's bit pattern.
fn fnv1a(values: &[f32]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Hashes of `forward_features`, `forward_images`, and what
/// `backward_from_features` leaves behind — the image gradient and every
/// parameter gradient, in `parameters()` order — for a `batch`-image input.
fn hashes(batch: usize) -> [u64; 4] {
    let mut rng = TensorRng::new(0);
    let mut model = VisionTransformer::new(&probe_config(), &mut rng).unwrap();
    let images = rng.randn(&[batch, 3, 64, 64], 0.0, 1.0);
    let grad_features = rng.randn(&[batch, 192], 0.0, 1.0);
    let logits = model.forward_images(&images).unwrap();
    let features = model.forward_features(&images).unwrap();
    let grad_images = model.backward_from_features(&grad_features).unwrap();
    assert_eq!(grad_images.dims(), images.dims());
    let param_grads: Vec<f32> = model
        .parameters()
        .iter()
        .flat_map(|p| p.grad().data().iter().copied())
        .collect();
    [
        fnv1a(features.data()),
        fnv1a(logits.data()),
        fnv1a(grad_images.data()),
        fnv1a(&param_grads),
    ]
}

/// `(batch, [features, logits, image gradient, parameter gradients])`,
/// recorded on the parent of PR 14 (commit a066498) on x86-64 with AVX2+FMA,
/// identical under `EDVIT_THREADS` 1, 2 and 4.
const PINNED: [(usize, [u64; 4]); 2] = [
    (
        1,
        [
            0x2ce5_c8cb_c640_936a,
            0x95a5_6516_aab9_919d,
            0x1c73_f336_e396_08ad,
            0x72f2_e41d_e158_167a,
        ],
    ),
    (
        2,
        [
            0x7ccc_b7b4_47c1_5cdb,
            0xdaa2_186f_cbff_27ec,
            0x8110_0632_c9b3_52ef,
            0xaa3d_b92a_91e7_11d4,
        ],
    ),
];

#[test]
fn probe_model_forward_and_backward_match_the_pinned_bits() {
    if MicroKernel::detect() == MicroKernel::Portable {
        println!(
            "SKIPPED: the pinned bits are those of the FMA micro-kernels (needs x86-64 avx2+fma)"
        );
        return;
    }
    for (batch, pinned) in PINNED {
        let ambient = hashes(batch);
        println!("batch {batch}: {ambient:#018x?}");
        assert_eq!(ambient, pinned, "batch {batch}, ambient budget");
        assert_eq!(
            with_budget(1, || hashes(batch)),
            pinned,
            "batch {batch}, budget 1"
        );
    }
}
