//! # edvit-bench
//!
//! Benchmark harness of the ED-ViT reproduction.
//!
//! Two kinds of targets live here:
//!
//! * **report binaries** (`src/bin/*.rs`), one per table / figure of the
//!   paper, which run the corresponding experiment from `edvit::experiments`
//!   and print the rows (`cargo run -p edvit-bench --bin fig4 --release`).
//!   They default to fast mode; set `EDVIT_FULL=1` for the five-trial,
//!   experiment-scale sweep.
//! * **Criterion micro-benchmarks** (`benches/kernels.rs`,
//!   `benches/wire_codecs.rs`): developer microscopes over the hot kernels
//!   and the bytes path. The repo's benchmark is `perfbench/`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use edvit::experiments::ExperimentOptions;

/// Experiment options selected by the `EDVIT_FULL` environment variable:
/// unset / `0` → fast single-trial mode, anything else → the paper's
/// five-trial experiment-scale mode.
pub fn options_from_env() -> ExperimentOptions {
    match std::env::var("EDVIT_FULL") {
        Ok(v) if v != "0" && !v.is_empty() => ExperimentOptions::full(),
        _ => ExperimentOptions::fast(),
    }
}

/// Device counts selected by the `EDVIT_DEVICES` environment variable
/// (comma-separated), defaulting to the paper's 1, 2, 3, 5, 10 in full mode
/// and a shorter 1, 2, 5 sweep in fast mode.
pub fn device_counts_from_env(fast: bool) -> Vec<usize> {
    if let Ok(spec) = std::env::var("EDVIT_DEVICES") {
        let parsed: Vec<usize> = spec
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .filter(|&n| n > 0)
            .collect();
        if !parsed.is_empty() {
            return parsed;
        }
    }
    if fast {
        vec![1, 2, 5]
    } else {
        edvit::experiments::PAPER_DEVICE_COUNTS.to_vec()
    }
}

/// Formats a floating-point cell with a fixed width for aligned table output.
pub fn cell(value: f64, decimals: usize) -> String {
    format!("{value:>10.decimals$}")
}

/// Prints a Markdown-style separator row of the given column widths.
pub fn print_rule(widths: &[usize]) {
    let line: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|{}|", line.join("|"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_options_default_to_fast() {
        std::env::remove_var("EDVIT_FULL");
        assert!(options_from_env().fast);
        assert_eq!(options_from_env().trials, 1);
    }

    #[test]
    fn device_counts_default_by_mode() {
        std::env::remove_var("EDVIT_DEVICES");
        assert_eq!(device_counts_from_env(true), vec![1, 2, 5]);
        assert_eq!(device_counts_from_env(false), vec![1, 2, 3, 5, 10]);
    }

    #[test]
    fn cell_formats_width() {
        assert_eq!(cell(1.5, 2).len(), 10);
        assert!(cell(123.456, 1).contains("123.5"));
    }
}
