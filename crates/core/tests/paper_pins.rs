//! Pins every number the analytic paper tables produce: Table I, Table II,
//! the §V-D communication overhead, and the paper-scale latency and memory of
//! one fast `tiny_demo` deployment. None of these depend on training, so they
//! are exact; a change here moves a paper figure and must be deliberate.
//!
//! Recorded on commit 8a2273d, before the single-sample latency entry points
//! were folded into `estimate_batched(.., 1)` and `execution_seconds`: this
//! file with each `assert_eq!` replaced by a `println!("{:#?}", ..)` of its
//! left side, run as
//! `cargo test --release -p edvit --test paper_pins -- --nocapture`
//! (f64 `Debug` output round-trips exactly).

use edvit::experiments::{comm_overhead, table1, table2, CommRow, Table1Row, Table2Row};
use edvit::pipeline::{EdVitConfig, EdVitPipeline};

#[test]
fn table1_is_pinned() {
    let row = |model: &str, depth, width, heads, params, gflops, latency_ms, memory_mb| Table1Row {
        model: model.to_string(),
        depth,
        width,
        heads,
        params_millions: params,
        gflops,
        latency_ms,
        memory_mb,
    };
    assert_eq!(
        table1(),
        vec![
            row(
                "ViT-Small",
                12,
                384,
                6,
                22.049896,
                4.574026752,
                10021.622077039145,
                88.199584
            ),
            row(
                "ViT-Base",
                12,
                768,
                12,
                86.56612,
                17.471649792,
                38280.11526195018,
                346.26448
            ),
            row(
                "ViT-Large",
                24,
                1024,
                16,
                304.324584,
                61.233405952,
                134161.44815343298,
                1217.298336
            ),
        ]
    );
}

#[test]
fn table2_is_pinned() {
    let row = |dataset: &str, devices, gflops| Table2Row {
        dataset: dataset.to_string(),
        devices,
        gflops,
    };
    assert_eq!(
        table2().unwrap(),
        vec![
            row("CIFAR-10", None, 17.470889472),
            row("CIFAR-10", Some(2), 4.573646592),
            row("CIFAR-10", Some(3), 2.110931968),
            row("CIFAR-10", Some(5), 1.24637376),
            row("CIFAR-10", Some(10), 0.608209664),
            row("GTZAN", None, 17.393819136),
            row("GTZAN", Some(2), 4.535111424),
            row("GTZAN", Some(3), 2.085241856),
            row("GTZAN", Some(5), 1.227106176),
            row("GTZAN", Some(10), 0.595364608),
        ]
    );
}

#[test]
fn comm_overhead_is_pinned() {
    let row = |devices, payload_bytes, frame_bytes, transfer_ms, batched, reduction| CommRow {
        devices,
        payload_bytes,
        frame_bytes,
        transfer_ms,
        batched_ms_per_sample: batched,
        reduction_vs_raw_image: reduction,
    };
    assert_eq!(
        comm_overhead().unwrap(),
        vec![
            row(1, 2048, 2080, 8.692, 8.2845, 73.5),
            row(2, 1536, 1568, 6.644000000000001, 6.2364999999999995, 98.0),
            row(3, 1024, 1056, 4.595999999999999, 4.1885, 147.0),
            row(5, 768, 800, 3.572, 3.1645000000000003, 196.0),
            row(10, 512, 544, 2.548, 2.1405, 294.0),
        ]
    );
}

#[test]
fn tiny_demo_paper_scale_metrics_are_pinned() {
    let metrics = EdVitPipeline::new(EdVitConfig::tiny_demo(2))
        .run()
        .unwrap()
        .metrics;
    assert_eq!(metrics.latency_seconds, 10.028205617309608);
    assert_eq!(metrics.original_latency_seconds, 38.27843931649822);
    assert_eq!(metrics.total_memory_mb, 173.331488);
}
