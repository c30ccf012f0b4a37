//! Comparing ED-ViT against the Split-CNN (NNFacet-style) and Split-SNN
//! (EC-SNN-style) baselines on the same synthetic CIFAR-10-like task —
//! a fast-mode version of Table III / Fig. 7.
//!
//! Run with: `cargo run -p edvit --example baseline_comparison --release`

use edvit::experiments::{table3, ExperimentOptions};

fn main() -> Result<(), edvit::EdVitError> {
    let options = ExperimentOptions::fast();
    let rows = table3(&[2], &options)?;
    println!("Method comparison on the CIFAR-10-like dataset (2 devices, fast mode)\n");
    println!(
        "{:<12} {:>12} {:>16} {:>18}",
        "Method", "Accuracy", "Latency (s)", "Total memory (MB)"
    );
    for row in &rows {
        println!(
            "{:<12} {:>11.1}% {:>16.2} {:>18.1}",
            row.method,
            row.accuracy_mean * 100.0,
            row.latency_seconds,
            row.total_memory_mb
        );
    }
    println!("\nThe paper's full five-trial sweep is regenerated by `cargo run --release -p edvit-bench --bin paper -- table3 --full`.");
    Ok(())
}
