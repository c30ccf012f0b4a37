//! Every pruned weight, pinned to its bits: a rewrite of the three pruning
//! stages (Algorithm 2's PruneShortConnection, PruneMHSA and PruneFFN), of
//! the importance criteria or of the retraining loop that moves a single
//! bit of a sub-model fails here, and the failing case names the parameter.
//!
//! * The three `VisionTransformer::prune_*` stages, each on its own, applied
//!   to a perturbed seed-0 tiny model with unsorted, non-contiguous keep
//!   lists: pure weight selection, so these hold on every CPU.
//! * `StructuredPruner::prune_sub_model` on the same model and a synthetic
//!   dataset, for the magnitude and the KL-divergence criterion, with and
//!   without retraining (two epochs, so the per-epoch learning-rate decay
//!   runs). The criteria and the retraining run the model, so these are the
//!   bits of the FMA micro-kernels; other CPUs take the portable kernel,
//!   whose unfused multiply-adds round differently, and skip with a printed
//!   reason.
//!
//! Each entry is one hash per parameter, in `parameters()` order, over the
//! parameter's dims and the bit pattern of its values. The constants were
//! recorded on commit 2361470 with
//! `cargo test --release -p edvit-pruning --test pruned_pinned -- --nocapture`
//! (the test prints each case's hashes before it compares them), identical
//! under `EDVIT_THREADS` 1, 2 and 4, on x86-64 with AVX-512.

use edvit_datasets::{Dataset, DatasetKind, SyntheticConfig, SyntheticGenerator};
use edvit_nn::Layer;
use edvit_pruning::{ImportanceMethod, PrunerConfig, StructuredPruner};
use edvit_tensor::init::TensorRng;
use edvit_tensor::kernels::MicroKernel;
use edvit_vit::training::TrainConfig;
use edvit_vit::{PrunedViTConfig, ViTConfig, VisionTransformer};

/// FNV-1a (64-bit) over a parameter's dims, then the little-endian bytes of
/// every value's bit pattern.
fn param_hash(dims: &[usize], values: &[f32]) -> u64 {
    let dim_bytes = dims.iter().flat_map(|&d| (d as u64).to_le_bytes());
    let value_bytes = values.iter().flat_map(|v| v.to_bits().to_le_bytes());
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    for byte in dim_bytes.chain(value_bytes) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn param_hashes(model: &VisionTransformer) -> Vec<u64> {
    model
        .parameters()
        .iter()
        .map(|p| param_hash(p.value().dims(), p.value().data()))
        .collect()
}

/// A seed-0 tiny model with every parameter moved off its initial value,
/// layer-norm scales and zero biases included, so that slicing the wrong
/// entries of any tensor moves a hash.
fn tiny_model() -> VisionTransformer {
    let mut rng = TensorRng::new(0);
    let mut model = VisionTransformer::new(&ViTConfig::tiny_test(), &mut rng).unwrap();
    for p in model.parameters_mut() {
        let noise = rng.randn(p.value().dims(), 0.0, 0.1);
        *p.value_mut() = p.value().add(&noise).unwrap();
    }
    model
}

fn tiny_dataset() -> Dataset {
    let mut config = SyntheticConfig::tiny(DatasetKind::Cifar10Like);
    config.class_limit = Some(4);
    config.samples_per_class = 6;
    SyntheticGenerator::new(1).generate(&config).unwrap()
}

/// The three stages, each applied to the unpruned tiny model (width 32, 4
/// heads × 8, FFN 64).
fn stage_outputs() -> Vec<(&'static str, VisionTransformer)> {
    let model = tiny_model();
    let channels = [31, 0, 7, 12, 3, 30, 18, 9, 25, 1, 14, 22];
    let head_dims: Vec<Vec<usize>> = (0..4).map(|h| vec![(h + 5) % 8, 2, 7 - h]).collect();
    let hidden: Vec<usize> = (0..64).rev().filter(|i| i % 3 != 1).collect();
    vec![
        (
            "prune_embed_channels",
            model.prune_embed_channels(&channels).unwrap(),
        ),
        (
            "prune_head_dims",
            model.prune_head_dims(&head_dims).unwrap(),
        ),
        ("prune_ffn_hidden", model.prune_ffn_hidden(&hidden).unwrap()),
    ]
}

/// The sub-model for classes `[0, 1]` at two pruned heads of four.
fn sub_model(method: ImportanceMethod, retrain: bool) -> VisionTransformer {
    let pruner = StructuredPruner::new(PrunerConfig {
        method,
        other_fraction: 0.25,
        retrain: retrain.then_some(TrainConfig {
            epochs: 2,
            batch_size: 8,
            learning_rate: 2e-3,
            lr_decay: 0.9,
            seed: 1,
        }),
        seed: 2,
    });
    let plan = PrunedViTConfig::new(ViTConfig::tiny_test(), 2).unwrap();
    pruner
        .prune_sub_model(&tiny_model(), &tiny_dataset(), &[0, 1], &plan)
        .unwrap()
        .model
}

/// Prints every case's hashes, then compares each with its pinned entry.
fn assert_pinned(cases: &[(&str, VisionTransformer)], pinned: &[(&str, &[u64])]) {
    let hashes: Vec<Vec<u64>> = cases.iter().map(|(_, m)| param_hashes(m)).collect();
    for ((name, _), hashes) in cases.iter().zip(&hashes) {
        println!("{name}: {hashes:#018x?}");
    }
    assert_eq!(cases.len(), pinned.len());
    for (((name, model), hashes), &(pinned_name, pinned)) in cases.iter().zip(&hashes).zip(pinned) {
        assert_eq!(*name, pinned_name);
        assert_eq!(hashes.len(), pinned.len(), "{name}: parameter count");
        let named = model
            .parameters()
            .into_iter()
            .zip(hashes.iter().zip(pinned));
        for (i, (p, (got, want))) in named.enumerate() {
            assert_eq!(got, want, "{name}: parameter {i} ({})", p.name());
        }
    }
}

#[test]
fn each_pruning_stage_selects_the_pinned_bits() {
    assert_pinned(&stage_outputs(), &PINNED_STAGES);
}

#[test]
fn pruned_sub_models_match_the_pinned_bits() {
    if MicroKernel::detect() == MicroKernel::Portable {
        println!(
            "SKIPPED: pruned sub-models: the pinned bits are those of the FMA micro-kernels (needs x86-64 avx2+fma)"
        );
        return;
    }
    let kl = ImportanceMethod::KlDivergence {
        calibration_samples: 3,
    };
    let cases = [
        ("magnitude", sub_model(ImportanceMethod::Magnitude, false)),
        (
            "magnitude + retrain",
            sub_model(ImportanceMethod::Magnitude, true),
        ),
        ("KL divergence", sub_model(kl, false)),
        ("KL divergence + retrain", sub_model(kl, true)),
    ];
    assert_pinned(&cases, &PINNED_SUB_MODELS);
}

const PINNED_STAGES: [(&str, &[u64]); 3] = [
    (
        "prune_embed_channels",
        &[
            0x5895_6402_61a1_aea5,
            0xff84_8f69_f2b9_15c1,
            0x0391_068f_3b0a_3b33,
            0x2eba_9b95_cd95_9a57,
            0x41b4_5dfb_6f18_148f,
            0x963f_d659_8fb1_367d,
            0x69ba_5325_ed1b_d8d9,
            0x71be_a39a_4716_2752,
            0xe2f7_9ec3_52a3_2ae4,
            0x3914_843b_6305_8ea2,
            0xdd86_04cf_aa9e_cb8f,
            0xcdfd_65f4_a446_676f,
            0xab39_a6d6_0254_1e1a,
            0x75e3_525f_eb02_9db9,
            0xff8e_e5e7_efc9_48bb,
            0x54b0_d6c5_7b89_a624,
            0xfd7d_49c2_bb65_c2f2,
            0x1ff5_5ad2_aa80_baf9,
            0x811d_e5d0_6c94_4647,
            0xae2e_9c8c_0793_2368,
            0x5dd7_467c_2f4e_4031,
            0x1087_4c71_f526_7d1b,
            0x0deb_e331_54fd_3dac,
            0xe6fb_1e1c_331d_71b5,
            0x386c_d907_93ed_2375,
            0x1658_b9f3_d6da_7078,
            0x9402_f971_aa5a_a0cb,
            0x2b12_5df1_3ab9_19ad,
            0x4096_8250_fe1d_2b2c,
            0x17e5_bedb_4973_5442,
            0x4619_46b9_00e3_3940,
            0x5dc1_3955_5bb3_e80d,
            0x5507_8d33_6ff1_8485,
            0x9fe1_cd3d_ccd6_c6fa,
            0x153e_2ad9_30fe_d489,
            0xc6df_8e60_ae05_3c3c,
            0x2121_defa_49b2_25ce,
            0x6e46_adcb_a09c_a7d6,
            0xcf04_5603_cc8d_7a11,
        ],
    ),
    (
        "prune_head_dims",
        &[
            0xdf77_c76b_710d_e8ca,
            0x5ae5_13e4_8403_1e7c,
            0x586f_8e3e_536e_7559,
            0x6083_7d25_964d_0988,
            0xd4fc_8b34_a939_6cb7,
            0x76ae_d72e_0314_98f2,
            0xf2fb_9068_d322_85ac,
            0x1c3d_0538_c1ad_d8cb,
            0xbaf0_dcba_2472_de3f,
            0x6e76_9278_f30e_96c8,
            0x04dd_570a_236b_fd97,
            0xf631_cd29_41cf_40a0,
            0x5c49_b822_5583_b3c1,
            0x07b6_27f5_fe46_881e,
            0x1295_6a85_a5f0_5756,
            0xfcf0_6039_df51_20b1,
            0xfd7d_49c2_bb65_c2f2,
            0xc242_b14a_5d58_9d58,
            0x3303_2fa8_f38c_aa4a,
            0x6840_a2d5_47c1_4a32,
            0x60ec_59c7_db27_8ebc,
            0x757f_96fa_cafe_3c63,
            0x531e_5f40_a4f0_27be,
            0x1093_7a5d_2a50_c766,
            0x9086_84c6_9d1f_9d8e,
            0xf87a_270b_98a4_7ae2,
            0xb547_1cba_28a0_655a,
            0x581c_261d_550b_e261,
            0x4915_40a1_a730_2bd3,
            0x69c8_2d57_4628_e85f,
            0xd6e2_d0d4_f937_5d93,
            0x5883_7138_1d80_5ee3,
            0x5507_8d33_6ff1_8485,
            0x2a61_d4cb_0a0e_7485,
            0x2bce_db95_9012_8464,
            0xed5b_4a91_26eb_7fcd,
            0x182d_6c13_7084_8815,
            0xdd51_c1e0_895d_2049,
            0xcf04_5603_cc8d_7a11,
        ],
    ),
    (
        "prune_ffn_hidden",
        &[
            0xdf77_c76b_710d_e8ca,
            0x5ae5_13e4_8403_1e7c,
            0x586f_8e3e_536e_7559,
            0x6083_7d25_964d_0988,
            0xd4fc_8b34_a939_6cb7,
            0xa708_2ba9_3032_e0dd,
            0x69ba_5325_ed1b_d8d9,
            0x6b15_5b08_2668_6ae1,
            0xe2f7_9ec3_52a3_2ae4,
            0x81cb_06f9_6e5a_8d3f,
            0xdd86_04cf_aa9e_cb8f,
            0xfda5_0d3e_7bb9_16ce,
            0x5c49_b822_5583_b3c1,
            0x07b6_27f5_fe46_881e,
            0x1295_6a85_a5f0_5756,
            0x9975_84c2_34b8_c4e2,
            0xf1ba_9fee_8e2f_c302,
            0xe1c0_d905_1255_6302,
            0x3303_2fa8_f38c_aa4a,
            0x6840_a2d5_47c1_4a32,
            0x60ec_59c7_db27_8ebc,
            0x7c9b_4531_4270_2b0a,
            0x0deb_e331_54fd_3dac,
            0x01aa_0db4_197c_8a57,
            0x386c_d907_93ed_2375,
            0x2fd2_5285_6da2_cc32,
            0x9402_f971_aa5a_a0cb,
            0x7527_f1dc_ee73_da60,
            0x4915_40a1_a730_2bd3,
            0x69c8_2d57_4628_e85f,
            0xd6e2_d0d4_f937_5d93,
            0xfd24_42bc_e970_d0e8,
            0x8c41_9507_539b_631a,
            0x580c_3f80_4dc0_ad9a,
            0x2bce_db95_9012_8464,
            0xed5b_4a91_26eb_7fcd,
            0x182d_6c13_7084_8815,
            0xdd51_c1e0_895d_2049,
            0xcf04_5603_cc8d_7a11,
        ],
    ),
];

const PINNED_SUB_MODELS: [(&str, &[u64]); 4] = [
    (
        "magnitude",
        &[
            0xa0df_5fed_7683_d6dd,
            0xce0b_6732_5fbf_7d06,
            0x0ee5_8582_d740_9884,
            0xc164_3a67_3897_7b20,
            0x9b84_d183_1e77_0a02,
            0x4706_7d10_33f1_bf7b,
            0x16f9_2646_0efe_53df,
            0x8a91_b2f5_b35c_3783,
            0x447f_0292_bd2b_d77b,
            0x3f8e_361e_430f_e65d,
            0xd050_3784_a400_348b,
            0xdcc1_a838_b926_6464,
            0x7c65_8219_4c49_0191,
            0x348c_b305_b17a_538b,
            0xc7fc_3e8c_d112_2c26,
            0x859e_2669_7c46_b76e,
            0x8252_0cd1_c327_828a,
            0xc5f7_7fea_35cc_1469,
            0xfdc5_4dd3_8689_0c59,
            0x7b27_e601_44a4_0fe2,
            0xae1e_2c3d_97bc_9d20,
            0x20eb_4910_4e89_1ad8,
            0xda6c_bf99_2891_50ee,
            0xd542_ebe5_4875_0cc0,
            0x7af6_115f_8636_3e27,
            0xd1bd_66a0_430b_51ed,
            0x8e40_3d2b_c3c2_183d,
            0x9750_396e_7361_cf0a,
            0x2276_c647_23fd_f07e,
            0x0d33_298e_51bb_5501,
            0xf28c_2312_3e58_58c8,
            0x118b_51c8_a1aa_29c4,
            0x4aef_6bcb_2bbf_db37,
            0xf16e_9b6d_427a_3366,
            0x4f5c_1bcc_5369_4d6e,
            0x950d_ae41_c711_8f22,
            0xbb0b_10e9_58f4_711c,
            0x7f16_a35d_7d36_be92,
            0xd0b2_b6df_5d82_8206,
        ],
    ),
    (
        "magnitude + retrain",
        &[
            0xde59_a398_1921_c02c,
            0x087c_ba70_e55e_1494,
            0x33ef_26b9_d18e_cfca,
            0x0cae_68bf_cd85_d389,
            0x1f98_7c68_50a1_3a84,
            0xb801_ec69_e758_afe4,
            0xa3c0_5077_cd57_ef76,
            0x656d_9c72_5bb7_2d19,
            0x1cdb_5a25_50ca_b002,
            0x7014_b034_f79a_2bb0,
            0x8668_c3d4_256a_e9e8,
            0xb615_fdd1_23c4_c13a,
            0xbca1_8dd5_7f21_d907,
            0x1c32_32a1_f146_affb,
            0x7e48_3f10_c5dc_f544,
            0xdd5b_6af4_f747_ee4f,
            0xc543_703c_74a2_998b,
            0xc162_e115_058d_76a2,
            0x488e_ab54_e204_2002,
            0xe50d_d781_c1ab_6b7d,
            0x3f8b_d747_7af1_4c6e,
            0x86fb_4bc8_338c_df4c,
            0x54f2_0aed_0388_4376,
            0x0fae_17a5_ad34_c664,
            0x8748_5b91_b59b_164f,
            0x938d_f7a4_0765_b311,
            0x7d75_2a7b_0820_3583,
            0x55a9_1e88_116a_3c2a,
            0x4e89_5b22_1221_6782,
            0x0a16_d292_6629_6beb,
            0xb47d_c2f6_290b_7f03,
            0x0af9_09b6_0eb8_05cc,
            0x663e_e2b9_0cba_4e04,
            0x1df0_bdb5_8071_71da,
            0x6339_4083_8989_11a3,
            0x4646_581d_bf21_42bc,
            0x650e_6249_fd85_d4be,
            0xc7aa_bc6c_865a_214f,
            0x7bc1_c739_2d42_598b,
        ],
    ),
    (
        "KL divergence",
        &[
            0xb239_be12_5167_ffd2,
            0xcc6e_5b20_3616_95a4,
            0x46a7_a460_fa25_0822,
            0x04fa_1bd6_b44b_d429,
            0x69fa_3643_ebd5_8c80,
            0xf700_8989_55a8_024d,
            0xdf83_a238_b082_61c5,
            0xbf91_21ea_3133_1231,
            0x2785_8274_f3bc_bdd6,
            0xfdb2_d153_f723_9d65,
            0x6e3b_d629_2ec9_c80c,
            0xc320_b4b3_27cc_f3ef,
            0x31b8_c7a0_5d51_f03a,
            0x79a4_4427_b2b7_2b39,
            0x1bee_7196_d078_dec7,
            0x377c_0c08_5438_9e44,
            0xe27b_fa09_0b47_efdd,
            0x0eaa_c4c3_d3b4_05d7,
            0x4817_5221_4c72_0c26,
            0x44ad_226e_b063_77de,
            0xd318_3304_eac1_75f3,
            0x3b9a_8a79_a56a_41b2,
            0x5fc2_93d4_d20c_a32f,
            0x354d_296f_d732_dfe8,
            0x5b85_f50b_0445_cdb1,
            0xe944_01c1_9a5e_2f62,
            0x22b9_364a_ef51_057f,
            0xb95f_29ed_1594_08af,
            0x0b17_82b1_54b0_e4af,
            0x37d4_6346_bbf7_6511,
            0xa180_1bfb_2da9_a145,
            0xfea9_3624_15e7_4454,
            0x4b64_7729_8331_1fe1,
            0x0bfd_5514_5475_b429,
            0x4983_5fea_3df3_0ce8,
            0x2653_5b71_78f2_b742,
            0xd34a_b35a_bd12_50d4,
            0x7f16_a35d_7d36_be92,
            0xd0b2_b6df_5d82_8206,
        ],
    ),
    (
        "KL divergence + retrain",
        &[
            0x5316_282b_10f9_7c65,
            0xabe0_9c02_c4d0_a221,
            0x5b89_aed5_d205_03b1,
            0xa5ca_b35e_bf82_870a,
            0x1862_d9db_ca3e_5949,
            0x4e22_237f_b1fb_fb3c,
            0x512c_a763_8069_7afc,
            0xc443_c8e9_6b27_2ea1,
            0xbb8a_8f19_aa9d_8795,
            0x13a1_eb5c_e976_e563,
            0x0ab0_c2c9_a0e7_8781,
            0x29fc_318e_ee6d_fcc7,
            0xd650_bd59_cc75_b6a9,
            0xdacf_a2c3_1d37_ae90,
            0x82c3_8347_704b_5eb7,
            0x2e6a_a1fa_2de8_4ed0,
            0xd103_bf4f_1fd7_b2cc,
            0x955f_bfd7_f58f_b75b,
            0xdf5d_b96d_30b7_fbad,
            0xbfc7_5c22_5d3a_b358,
            0xbeef_c503_80bc_3190,
            0x12e3_47d3_a784_70c6,
            0x51e9_cc88_604b_1b47,
            0x7063_4a6b_f1d8_1604,
            0x3556_c99c_498c_d34e,
            0x6e87_53a7_ee40_b259,
            0x106a_a107_c37d_d9c8,
            0xa511_aa02_7ee4_8c09,
            0x9543_1326_35f5_d9ce,
            0xe1e3_0014_b7a7_ed31,
            0x9797_c4dc_a1f8_9713,
            0x18cd_c8e5_aee2_a8af,
            0xa8a9_bfd6_1c19_8bf0,
            0xdded_80d9_ab72_0cca,
            0xd3b2_0378_d85a_176c,
            0x91f2_1a11_dd9a_41b4,
            0x2f52_a6d1_847b_27a6,
            0x2c5e_d848_155f_8644,
            0xaeee_4295_035f_9bfc,
        ],
    ),
];
