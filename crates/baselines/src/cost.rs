//! Analytic cost model for the VGG-16 baseline backbone (paper scale).
//!
//! NNFacet and EC-SNN both build on VGG-16; the paper notes the baseline has
//! "a memory size similar to ViT-Base". The standard VGG-16 at 224×224 has
//! ≈138 M parameters and ≈15.5 GMACs; channel-wise filter pruning with
//! retention factor `s` scales both roughly with `s²` (every conv layer keeps
//! `s` of its input and output channels).
//!
//! Costs are the ViT cost model's [`ModelCost`], so a baseline and a ViT
//! sub-model compare field for field.

use edvit_vit::analysis::ModelCost;

/// Number of timesteps used by the rate-coded SNN conversion (EC-SNN uses a
/// small constant window; 8 keeps the latency ratio in the paper's band).
pub const SNN_TIMESTEPS: usize = 8;

/// VGG-16 convolutional architecture: (in_channels, out_channels, spatial
/// side at that stage for a 224×224 input).
const VGG16_CONVS: &[(u64, u64, u64)] = &[
    (3, 64, 224),
    (64, 64, 224),
    (64, 128, 112),
    (128, 128, 112),
    (128, 256, 56),
    (256, 256, 56),
    (256, 256, 56),
    (256, 512, 28),
    (512, 512, 28),
    (512, 512, 28),
    (512, 512, 14),
    (512, 512, 14),
    (512, 512, 14),
];

/// Fully-connected head of VGG-16: 7·7·512 → 4096 → 4096 → classes.
const VGG16_FCS: &[(u64, u64)] = &[(7 * 7 * 512, 4096), (4096, 4096)];

/// Cost of the full VGG-16 with `classes` output classes.
pub fn vgg16_cost(classes: u64) -> ModelCost {
    vgg16_pruned_cost(classes, 1.0)
}

/// Cost of a channel-pruned VGG-16 where every layer keeps a fraction
/// `retention` of its channels (clamped to `[1/64, 1]`).
pub fn vgg16_pruned_cost(classes: u64, retention: f64) -> ModelCost {
    let s = retention.clamp(1.0 / 64.0, 1.0);
    let mut params = 0u64;
    let mut flops = 0u64;
    for &(cin, cout, side) in VGG16_CONVS {
        let cin_kept = if cin == 3 { 3.0 } else { cin as f64 * s };
        let cout_kept = cout as f64 * s;
        let layer_params = cin_kept * cout_kept * 9.0 + cout_kept;
        params += layer_params as u64;
        flops += (layer_params * (side * side) as f64) as u64;
    }
    for &(fin, fout) in VGG16_FCS {
        let fin_kept = fin as f64 * s;
        let fout_kept = fout as f64 * s;
        params += (fin_kept * fout_kept + fout_kept) as u64;
        flops += (fin_kept * fout_kept) as u64;
    }
    // Final classifier layer.
    let last_hidden = 4096.0 * s;
    params += (last_hidden * classes as f64 + classes as f64) as u64;
    flops += (last_hidden * classes as f64) as u64;
    ModelCost {
        params,
        flops,
        memory_bytes: params * 4,
    }
}

/// Fraction of neurons that actually spike per timestep in the rate-coded
/// SNN; together with [`SNN_TIMESTEPS`] this sets the SNN compute multiplier.
pub const SNN_SPIKE_ACTIVITY: f64 = 0.2;

/// Cost of one NNFacet-style Split-CNN sub-model when the work is divided
/// across `n_devices` devices.
///
/// NNFacet prunes convolutional channels conservatively (accuracy collapses
/// otherwise) and the fully-connected layers aggressively, which we model as
/// a conv retention of `1/√N` and an FC retention of `1/N`. This reproduces
/// the orderings of Fig. 7: the CNN baseline ends up with a higher total
/// memory and higher per-device latency than ED-ViT at the same device count.
pub fn nnfacet_submodel_cost(classes: u64, n_devices: usize) -> ModelCost {
    let n = n_devices.max(1) as f64;
    let conv_retention = (1.0 / n).sqrt();
    let fc_retention = 1.0 / n;
    let conv = vgg16_pruned_cost(classes, conv_retention);
    let fc_full = vgg16_cost(classes);
    let full_conv = vgg16_pruned_cost(classes, 1.0);
    // Separate the FC contribution of the full model and re-scale it.
    let fc_params_full = fc_full.params - conv_params_only(1.0, classes);
    let fc_params = (fc_params_full as f64 * fc_retention * fc_retention) as u64;
    let conv_params = conv_params_only(conv_retention, classes);
    let params = conv_params + fc_params;
    let conv_flops_ratio = conv.flops as f64 / full_conv.flops as f64;
    let flops = (full_conv.flops as f64 * conv_flops_ratio) as u64;
    ModelCost {
        params,
        flops,
        memory_bytes: params * 4,
    }
}

/// Cost of one EC-SNN-style Split-SNN sub-model: same structure as the CNN
/// sub-model, 8-bit weights (4× smaller memory), and `timesteps × activity`
/// compute per inference.
pub fn ecsnn_submodel_cost(classes: u64, n_devices: usize) -> ModelCost {
    let cnn = nnfacet_submodel_cost(classes, n_devices);
    ModelCost {
        params: cnn.params,
        flops: (cnn.flops as f64 * SNN_TIMESTEPS as f64 * SNN_SPIKE_ACTIVITY) as u64,
        memory_bytes: cnn.memory_bytes / 4,
    }
}

fn conv_params_only(retention: f64, _classes: u64) -> u64 {
    let s = retention.clamp(1.0 / 64.0, 1.0);
    let mut params = 0u64;
    for &(cin, cout, _) in VGG16_CONVS {
        let cin_kept = if cin == 3 { 3.0 } else { cin as f64 * s };
        let cout_kept = cout as f64 * s;
        params += (cin_kept * cout_kept * 9.0 + cout_kept) as u64;
    }
    params
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_vgg16_matches_published_numbers() {
        let cost = vgg16_cost(1000);
        // ~138 M parameters, ~15.5 GMACs for VGG-16 at 224x224.
        assert!(
            (cost.params as f64 / 1e6 - 138.0).abs() < 5.0,
            "{}",
            cost.params
        );
        assert!((cost.gflops() - 15.5).abs() < 1.0, "{}", cost.gflops());
        // ~550 MB of f32 weights.
        assert!(
            (cost.memory_mb() - 553.0).abs() < 25.0,
            "{}",
            cost.memory_mb()
        );
    }

    #[test]
    fn pruning_shrinks_quadratically() {
        let full = vgg16_cost(10);
        let half = vgg16_pruned_cost(10, 0.5);
        let ratio = half.params as f64 / full.params as f64;
        assert!(ratio > 0.2 && ratio < 0.35, "ratio {ratio}");
        let tenth = vgg16_pruned_cost(10, 0.1);
        assert!(tenth.params < half.params);
        assert!(tenth.flops < half.flops);
    }

    #[test]
    fn retention_is_clamped() {
        let tiny = vgg16_pruned_cost(10, 0.0);
        assert!(tiny.params > 0);
        let over = vgg16_pruned_cost(10, 2.0);
        assert_eq!(over.params, vgg16_cost(10).params);
    }

    #[test]
    fn snn_timesteps_positive() {
        const {
            assert!(SNN_TIMESTEPS >= 2);
            assert!(SNN_SPIKE_ACTIVITY > 0.0 && SNN_SPIKE_ACTIVITY <= 1.0);
        }
    }

    #[test]
    fn fig7_orderings_hold_at_ten_devices() {
        // Raspberry-Pi effective throughput from Table I.
        let throughput = 16.86e9 / 36.94;
        let cnn = nnfacet_submodel_cost(10, 10);
        let snn = ecsnn_submodel_cost(10, 10);
        let cnn_latency = cnn.flops as f64 / throughput;
        let snn_latency = snn.flops as f64 / throughput;
        // ED-ViT's per-device latency at 10 devices is ~1.3 s (Fig. 4b); the
        // CNN baseline must be slower and the SNN baseline slower still.
        assert!(cnn_latency > 1.3, "cnn latency {cnn_latency}");
        assert!(
            snn_latency > cnn_latency,
            "snn {snn_latency} vs cnn {cnn_latency}"
        );
        // Memory ordering of Fig. 7c: CNN total > ED-ViT total (~96 MB),
        // SNN total well below the CNN total.
        let cnn_total_mb = cnn.memory_mb() * 10.0;
        let snn_total_mb = snn.memory_mb() * 10.0;
        assert!(cnn_total_mb > 96.0, "cnn memory {cnn_total_mb}");
        assert!(
            snn_total_mb < cnn_total_mb / 2.0,
            "snn memory {snn_total_mb}"
        );
    }

    #[test]
    fn baseline_costs_shrink_with_more_devices() {
        let few = nnfacet_submodel_cost(10, 2);
        let many = nnfacet_submodel_cost(10, 10);
        assert!(many.params < few.params);
        assert!(many.flops < few.flops);
        let snn_few = ecsnn_submodel_cost(10, 2);
        assert_eq!(snn_few.memory_bytes, few.memory_bytes / 4);
    }
}
