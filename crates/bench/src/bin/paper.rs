//! Regenerates the paper's evaluation — Tables I–IV, Figs. 4–7 and the §V-D
//! communication overhead — and the reports beyond it, by name:
//!
//! ```text
//! cargo run --release -p edvit-bench --bin paper -- table1 fig4 streaming [--full]
//! ```
//!
//! Names: `table1 table2 table3 table4 fig4 fig5 fig6 fig7 comm ablations
//! streaming codecs serving`. The default fast mode runs one trial at the
//! trainable scale over 1, 2 and 5 devices; `--full` runs the paper's five
//! trials over `PAPER_DEVICE_COUNTS`. Every number comes from
//! `edvit::experiments`; this binary parses arguments and prints.

use edvit::edge::PayloadCodec;
use edvit::experiments::{self as exp, ComparisonRow, ExperimentOptions, SplitCurvePoint};

type Result<T = ()> = std::result::Result<T, Box<dyn std::error::Error>>;

const NAMES: &str =
    "table1 table2 table3 table4 fig4 fig5 fig6 fig7 comm ablations streaming codecs serving";

fn main() -> Result {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let names: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--full")
        .collect();
    if let Some(bad) = names.iter().find(|n| !NAMES.split(' ').any(|k| k == **n)) {
        return Err(format!("unknown table `{bad}`; the names are: {NAMES}").into());
    }
    if names.is_empty() {
        return Err(format!("usage: paper <name>... [--full]; the names are: {NAMES}").into());
    }
    let (options, devices) = if full {
        (ExperimentOptions::full(), exp::PAPER_DEVICE_COUNTS.to_vec())
    } else {
        (ExperimentOptions::fast(), vec![1, 2, 5])
    };
    let mode = format!("{} trial(s), fast={}", options.trials, options.fast);
    for (i, name) in names.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        match name {
            "table1" => table1(),
            "table2" => table2()?,
            "table3" => comparison(
                &format!("Table III — method comparison on CIFAR-10 ({mode})"),
                &exp::table3(&devices, &options)?,
                "ED-ViT beats Split-CNN by up to 4.06% and Split-SNN by up to 5.55%.",
            ),
            "table4" => table4(&exp::table4(&devices, &options)?),
            "fig4" => split_curves(
                &format!("Fig. 4 — split ViT-Base on vision datasets ({mode})"),
                &exp::fig4(&devices, &options)?,
                "accuracy >85% (CIFAR-10), latency 36.94 s -> 1.28 s, memory within 180 MB.",
            ),
            "fig5" => split_curves(
                &format!("Fig. 5 — split ViT-Base on audio datasets ({mode})"),
                &exp::fig5(&devices, &options)?,
                "GTZAN > 84%, Speech Commands > 90%, latency 32.16 s -> 1.28 s.",
            ),
            "fig6" => split_curves(
                &format!("Fig. 6 — split ViT-Small / ViT-Large ({mode})"),
                &exp::fig6(&devices, &options)?,
                "ViT-Small 2.58 MB/sub-model at 10 devices (32x), ViT-Large 18.73 MB (61.8x).",
            ),
            "fig7" => comparison(
                &format!("Fig. 7 — comparison at 10 edge devices ({mode})"),
                &exp::fig7(&options)?,
                "ED-ViT latency is 2.70x lower than Split-CNN and 4.36x lower than Split-SNN.",
            ),
            "comm" => comm()?,
            "ablations" => ablations()?,
            "streaming" => streaming(&options)?,
            "codecs" => codecs(&options)?,
            "serving" => serving(&options)?,
            _ => unreachable!("names are checked against NAMES above"),
        }
    }
    Ok(())
}

fn table1() {
    println!("Table I — standard Vision Transformer characteristics (Raspberry Pi 4B)");
    println!("Model         Depth  Width  Heads  Params(1e6)     GFLOPs  Latency(ms)    Mem(MB)");
    for r in exp::table1() {
        println!(
            "{:<12} {:>6} {:>6} {:>6} {:>12.1} {:>10.2} {:>12.0} {:>10.0}",
            r.model,
            r.depth,
            r.width,
            r.heads,
            r.params_millions,
            r.gflops,
            r.latency_ms,
            r.memory_mb
        );
    }
    println!("\nPaper reference: 22.1/86.6/304.4 M params, 4.25/16.86/59.69 GFLOPs,");
    println!("9628/36940/118828 ms latency, 83/327/1157 MB memory.");
}

fn table2() -> Result {
    println!("Table II — sub-model FLOPs (ViT-Base)");
    println!("Dataset             Devices     GFLOPs");
    for r in exp::table2()? {
        let devices = r
            .devices
            .map_or_else(|| "original".to_string(), |d| d.to_string());
        println!("{:<16} {:>10} {:>10.2}", r.dataset, devices, r.gflops);
    }
    println!("\nPaper reference (CIFAR-10): 16.86 / 4.25 / 1.90 / 1.08 / 0.48 GFLOPs.");
    Ok(())
}

/// Table III and Fig. 7.
fn comparison(title: &str, rows: &[ComparisonRow], reference: &str) {
    println!("{title}");
    println!("Method        Devices     Accuracy       ±std    Latency (s)   Total mem (MB)");
    for r in rows {
        println!(
            "{:<12} {:>8} {:>11.1}% {:>10.2} {:>14.2} {:>16.1}",
            r.method,
            r.devices,
            r.accuracy_mean * 100.0,
            r.accuracy_std * 100.0,
            r.latency_seconds,
            r.total_memory_mb
        );
    }
    println!("\nPaper reference: {reference}");
}

fn table4(rows: &[exp::Table4Row]) {
    println!("Table IV — retraining ablation (CIFAR-10, ViT-Base class)");
    println!("Method                  Devices     Accuracy");
    for r in rows {
        println!(
            "{:<22} {:>8} {:>11.1}%",
            r.method,
            r.devices,
            r.accuracy * 100.0
        );
    }
    println!("\nPaper reference: entire retrain improves fused accuracy by up to 6.15%.");
}

/// Figs. 4, 5 and 6.
fn split_curves(title: &str, rows: &[SplitCurvePoint], reference: &str) {
    println!("{title}");
    println!("Variant    Dataset           Devices     Accuracy       ±std    Latency (s)   Total mem (MB)");
    for r in rows {
        println!(
            "{:<10} {:<16} {:>8} {:>11.1}% {:>10.2} {:>14.2} {:>16.1}",
            r.variant,
            r.dataset,
            r.devices,
            r.accuracy_mean * 100.0,
            r.accuracy_std * 100.0,
            r.latency_seconds,
            r.total_memory_mb
        );
    }
    println!("\nPaper reference: {reference}");
}

fn comm() -> Result {
    println!("Section V-D — communication overhead (ViT-Base, 2 Mbps cap)");
    println!(
        "Devices       Payload (B)    Frame (B)  Transfer (ms)  Batched (ms/sm)   Reduction vs raw"
    );
    for r in exp::comm_overhead()? {
        println!(
            "{:<10} {:>14} {:>12} {:>14.2} {:>16.2} {:>17.0}x",
            r.devices,
            r.payload_bytes,
            r.frame_bytes,
            r.transfer_ms,
            r.batched_ms_per_sample,
            r.reduction_vs_raw_image
        );
    }
    println!(
        "\nPaper reference: payload 1536 B -> 512 B, <= 5.86 ms, up to 294x reduction. \
         Batched column: one wire-v2 frame carrying {} samples per device.",
        exp::COMM_BATCH_SAMPLES
    );
    Ok(())
}

fn ablations() -> Result {
    let a = exp::ablations()?;
    println!("== Ablation 1: KL-divergence vs magnitude importance ==");
    println!("Importance              Sub-model acc         Params");
    for (name, accuracy, params) in a.importance {
        println!("{name:<22} {:>13.1}% {params:>14}", accuracy * 100.0);
    }
    println!("\n== Ablation 2: memory budget sweep (ViT-Base, 5 devices) ==");
    println!("Budget (MB)    Total mem (MB) Latency-max (G)     Feasible");
    for (budget, plan) in a.budget {
        match plan {
            Some((memory, gflops)) => {
                println!("{budget:<14} {memory:>14.1} {gflops:>15.2} {:>12}", "yes");
            }
            None => println!("{budget:<14} {:>14} {:>15} {:>12}", "-", "-", "no"),
        }
    }
    println!("\n== Ablation 3: bandwidth cap ==");
    println!("Payload (B)           2 Mbps (ms)   gigabit (ms)");
    for (payload, capped, gigabit) in a.bandwidth {
        println!("{payload:<18} {capped:>14.2} {gigabit:>14.3}");
    }
    Ok(())
}

fn streaming(options: &ExperimentOptions) -> Result {
    let (rows, sweep) = exp::streaming_comparison(options)?;
    println!("Streaming scheduler — barrier vs pipelined vs failover (4 devices)");
    println!("scenario                    samples   steady s/s    total (s)   lost  replans recovery (s)   replayed");
    for row in &rows {
        let r = &row.report;
        println!(
            "{:<26} {:>8} {:>12.3} {:>12.2} {:>6} {:>8} {:>12.2} {:>10}",
            row.scenario,
            r.outputs.len(),
            r.steady_state_samples_per_second,
            r.simulated_total_seconds,
            r.devices_lost.len(),
            r.repartitions,
            r.recovery_seconds,
            r.samples_replayed
        );
    }
    println!(
        "\nPipelining gain: {:.2}x steady-state throughput over the barrier runtime \
         (simulated clock; every sample fused exactly once in all scenarios).",
        rows[1].report.steady_state_samples_per_second
            / rows[0].report.steady_state_samples_per_second
    );
    println!(
        "ED-ViT is compute-dominated (the fusion MLP is tiny next to a sub-model \
         forward), so the executed gain above is small; the pipeline pays off as \
         the fusion stage grows:"
    );
    println!("\nfusion stage (analytic)         barrier s/s  pipelined s/s     gain");
    for (label, barrier, pipelined) in sweep {
        let gain = pipelined / barrier;
        println!("{label:<28} {barrier:>14.3} {pipelined:>14.3} {gain:>7.2}x");
    }
    Ok(())
}

fn codecs(options: &ExperimentOptions) -> Result {
    let rows = exp::codec_comparison(options)?;
    println!("Wire payload codecs — bytes vs encode cost vs accuracy (2 devices, streamed)");
    println!("codec          wire bytes     data bytes      saved  encode ns/val  pred. delta   steady s/s");
    for r in &rows {
        println!(
            "{:<10} {:>14} {:>14} {:>9.1}% {:>14.2} {:>12} {:>12.3}",
            r.codec.to_string(),
            r.bytes_on_wire,
            r.data_frame_bytes,
            r.data_savings_vs_f32 * 100.0,
            r.encode_ns_per_value,
            r.predictions_changed,
            r.steady_state_samples_per_second
        );
    }
    let f16 = rows
        .iter()
        .find(|r| r.codec == PayloadCodec::F16)
        .ok_or("no f16 row")?;
    if f16.predictions_changed > 0 {
        return Err("f16 quantization changed top-1 predictions on the demo pipeline".into());
    }
    println!(
        "\nf16 halves the value bytes exactly (2 of 4 bytes per feature value); \
         whole-frame saving here is {:.1}% because headers and sample indices \
         are codec-independent. No top-1 prediction changed under any codec.",
        f16.data_savings_vs_f32 * 100.0
    );
    Ok(())
}

fn serving(options: &ExperimentOptions) -> Result {
    println!(
        "Serving front-door — barrier vs continuous batching, overload and a crash (4 devices)"
    );
    println!("scenario                   offered/s  admitted   shed  rounds  partial    p50 (s)    p99 (s)   served/s   depth recovery (s)  lost");
    for row in exp::serving_comparison(options)? {
        let r = &row.report;
        println!(
            "{:<26} {:>9.3} {:>9} {:>6} {:>7} {:>8} {:>10.2} {:>10.2} {:>10.3} {:>7} {:>12.2} {:>5}",
            row.scenario,
            r.offered_rate_per_second,
            r.admitted,
            r.shed,
            r.rounds_formed,
            r.partial_rounds,
            r.p50_latency_seconds,
            r.p99_latency_seconds,
            r.served_samples_per_second,
            r.depth_changes.len(),
            r.recovery_seconds,
            r.devices_lost.len()
        );
    }
    println!("\nEvery admitted request is either served or shed; virtual clock, seeded arrivals.");
    Ok(())
}
