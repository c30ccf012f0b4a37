//! Low-power video analytics: the paper's motivating scenario. A ViT-Base
//! classifier for a 10-class video-frame task (CIFAR-10-like) is split over a
//! rack of Raspberry Pi 4B devices under a 180 MB total memory budget.
//!
//! Run with: `cargo run -p edvit --example video_analytics --release`

use edvit::datasets::DatasetKind;
use edvit::experiments::{split_curve, ExperimentOptions};
use edvit::vit::ViTVariant;

fn main() -> Result<(), edvit::EdVitError> {
    let options = ExperimentOptions::fast();
    let device_counts = [1usize, 2, 5];
    println!("Video analytics with split ViT-Base on the CIFAR-10-like dataset");
    println!(
        "(fast mode: tiny models, single trial — use `paper -- fig4 --full` from edvit-bench for full sweeps)\n"
    );
    let points = split_curve(
        DatasetKind::Cifar10Like,
        ViTVariant::Base,
        &device_counts,
        &options,
    )?;
    println!(
        "{:<10} {:>12} {:>16} {:>18}",
        "Devices", "Accuracy", "Latency (s)", "Total memory (MB)"
    );
    for p in &points {
        println!(
            "{:<10} {:>11.1}% {:>16.2} {:>18.1}",
            p.devices,
            p.accuracy_mean * 100.0,
            p.latency_seconds,
            p.total_memory_mb
        );
    }
    let first = points.first().expect("at least one point");
    let last = points.last().expect("at least one point");
    println!(
        "\nSplitting across {} devices cuts per-frame latency {:.1}x (from {:.1} s on one device; the unsplit model needs {:.1} s).",
        last.devices,
        first.latency_seconds / last.latency_seconds,
        first.latency_seconds,
        last.original_latency_seconds
    );
    Ok(())
}
