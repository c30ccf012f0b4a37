//! `FusionMlp::predict_logits` on the serving shape (768 → 384 → 10), pinned
//! to the bits it produced before `matmul` stopped packing B for fewer than
//! four rows (PR 19). The constants below were recorded on the parent commit
//! (c36de3a) by copying this file and the `edvit-parallel` dev-dependency
//! into a clone of it and running
//!
//! ```text
//! cargo test -q -p edvit-fusion --test predict_pinned -- --nocapture
//! ```
//!
//! which prints every hash before comparing it. Batches 1, 2 and 3 are the
//! thin shapes the row tile serves on B where it lies; 4, 5 and 8 run whole
//! 4- and 8-row strips, and 5 leaves one remainder row on the row tile.
//!
//! This file is the guard on those bits: perfbench's single-threaded oracle
//! runs the *same* kernels as the run it checks, so a rounding change in
//! `matmul` leaves its `ok_share` at 1 and only a pin recorded on the parent
//! can see it.
//!
//! The constants hold on x86-64 with AVX2+FMA (the AVX-512 tile is bound to
//! produce the same bits); other CPUs take the portable kernel, whose
//! unfused strips round differently from batch 4 up, and skip with a printed
//! reason. Each case also runs under `with_budget(1)`.

use edvit_fusion::{FusionConfig, FusionMlp};
use edvit_parallel::with_budget;
use edvit_tensor::init::TensorRng;
use edvit_tensor::kernels::MicroKernel;

/// FNV-1a (64-bit) over the little-endian bytes of every value's bit pattern.
fn fnv1a(values: &[f32]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Hash of the logits of a `TensorRng::new(0)` fusion MLP on a seeded
/// `[batch, 768]` input.
fn logits_hash(batch: usize) -> u64 {
    let fusion = FusionMlp::new(&FusionConfig::new(768, 10), &mut TensorRng::new(0)).unwrap();
    let features = TensorRng::new(batch as u64).randn(&[batch, 768], 0.0, 1.0);
    let logits = fusion.predict_logits(&features).unwrap();
    assert_eq!(logits.dims(), &[batch, 10]);
    fnv1a(logits.data())
}

/// `(batch, logits hash)`, recorded on commit c36de3a on x86-64 with
/// `avx512f` (and so AVX2+FMA).
const PINNED: [(usize, u64); 6] = [
    (1, 0x46cf_5f89_b34b_1ac3),
    (2, 0xd83f_3f89_2008_9c40),
    (3, 0x0f29_181c_9db9_92ca),
    (4, 0x22ce_cc81_7aef_a72c),
    (5, 0x621d_8ebd_3e3e_335a),
    (8, 0x02c3_71aa_d862_4588),
];

#[test]
fn fusion_logits_match_the_bits_pinned_on_the_parent() {
    if MicroKernel::detect() == MicroKernel::Portable {
        println!(
            "SKIPPED: the pinned bits are those of the FMA micro-kernels (needs x86-64 avx2+fma)"
        );
        return;
    }
    let ambient = PINNED.map(|(batch, _)| (batch, logits_hash(batch)));
    for (batch, hash) in ambient {
        println!("batch {batch}: {hash:#018x}");
    }
    assert_eq!(ambient, PINNED, "ambient budget");
    for (batch, pinned) in PINNED {
        assert_eq!(
            with_budget(1, || logits_hash(batch)),
            pinned,
            "batch {batch}, budget 1"
        );
    }
}
