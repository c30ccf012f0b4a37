//! Multi-process loopback cluster: every device worker is a real OS process.
//!
//! The parent trains the seeded tiny demo deployment, runs it once through
//! the in-process sim runtime as the reference, then binds a loopback
//! [`Coordinator`] and re-execs itself once per device
//! (`EDVIT_CLUSTER_WORKER=<id>`). Each child retrains the *same* seeded
//! deployment — deterministic training means identical weights without any
//! weight shipping — keeps only its own sub-model, and streams feature-batch
//! rounds over TCP: join, then per round one wire-v2 batch frame plus a
//! heartbeat, then a graceful leave. The coordinator fuses every sample
//! exactly once and the fused logits must be **bitwise identical** to the
//! sim run — the transport moves bytes, it does not touch numerics.
//!
//! Run with: `cargo run -p edvit --example cluster_proc --release`

use std::net::SocketAddr;
use std::process::Command;

use edvit::distributed::{into_executors, run_distributed, RunOptions};
use edvit::edge::{encode_device_round, PayloadCodec};
use edvit::net::{Coordinator, RoundSpec, WorkerClient};
use edvit::pipeline::{EdVitConfig, EdVitDeployment, EdVitPipeline};
use edvit::tensor::Tensor;

/// Seed shared by the parent and every worker process: same seed, same
/// trained weights, no weight shipping.
const SEED: u64 = 7;
/// Devices in the cluster — one worker process each.
const NUM_DEVICES: usize = 3;
/// Samples per streamed round.
const ROUND_SIZE: usize = 2;
/// Capacity every worker offers in its join frame (FLOP/s).
const CAPACITY_FLOPS: f64 = 1.0e9;

const WORKER_ENV: &str = "EDVIT_CLUSTER_WORKER";
const ADDR_ENV: &str = "EDVIT_CLUSTER_ADDR";

type DynError = Box<dyn std::error::Error>;

/// Trains the seeded demo and slices off the shared test samples.
fn trained_demo() -> Result<(EdVitDeployment, Vec<Tensor>), DynError> {
    let config = EdVitConfig::tiny_demo(NUM_DEVICES).with_seed(SEED);
    let deployment = EdVitPipeline::new(config).run()?;
    let test = deployment.test_set.clone();
    let n = test.len().min(8);
    let samples = (0..n)
        .map(|i| test.images().row(i))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((deployment, samples))
}

/// One worker process: compute this device's features round by round and
/// stream them to the coordinator.
fn worker(device_id: usize, addr: &SocketAddr) -> Result<(), DynError> {
    let (deployment, samples) = trained_demo()?;
    let (mut executors, _fusion) = into_executors(deployment);
    if device_id >= executors.len() {
        return Err(format!("device {device_id} has no sub-model").into());
    }
    let mut executor = executors.remove(device_id);

    let mut client = WorkerClient::connect(addr, device_id, CAPACITY_FLOPS)?;
    for lo in (0..samples.len()).step_by(ROUND_SIZE) {
        let round = samples.iter().enumerate().skip(lo).take(ROUND_SIZE);
        // The same device-side round encoder the in-process runtimes use.
        if let Some(frame) =
            encode_device_round(device_id, &mut executor, round, PayloadCodec::F32)?
        {
            client.send_frame(&frame)?;
        }
        client.heartbeat(CAPACITY_FLOPS)?;
    }
    client.leave()?;
    Ok(())
}

fn main() -> Result<(), DynError> {
    // Child branch: re-exec'd with the worker env vars set.
    if let Ok(device) = std::env::var(WORKER_ENV) {
        let device_id: usize = device.parse()?;
        let addr: SocketAddr = std::env::var(ADDR_ENV)?.parse()?;
        return worker(device_id, &addr);
    }

    println!("Training the seeded demo deployment ({NUM_DEVICES} devices)...");
    let (deployment, samples) = trained_demo()?;
    let sim = run_distributed(deployment.clone(), &samples, &RunOptions::default())?;

    let coordinator = Coordinator::bind()?;
    let addr = coordinator.local_addr();
    println!("Coordinator listening on {addr}; spawning {NUM_DEVICES} worker processes...");
    let exe = std::env::current_exe()?;
    let mut children = Vec::new();
    for device in 0..NUM_DEVICES {
        children.push(
            Command::new(&exe)
                .env(WORKER_ENV, device.to_string())
                .env(ADDR_ENV, addr.to_string())
                .spawn()?,
        );
    }

    let workers = coordinator.accept_workers(NUM_DEVICES)?;
    println!("\n== Admitted workers ==");
    for w in &workers {
        println!(
            "  device {} (pid {}): {:.1e} FLOP/s offered, {}-byte join frame",
            w.device_id,
            children[w.device_id].id(),
            w.capacity_flops,
            w.join_bytes
        );
    }

    let spec = RoundSpec {
        round_size: ROUND_SIZE,
        total_samples: samples.len(),
        num_sub_models: NUM_DEVICES,
    };
    let (_executors, mut fusion) = into_executors(deployment);
    let report =
        Coordinator::collect_rounds(workers, &spec, &mut |concat: &Tensor| fusion(concat))?;

    for (device, child) in children.iter_mut().enumerate() {
        let status = child.wait()?;
        if !status.success() {
            return Err(format!("worker process {device} exited with {status}").into());
        }
    }

    println!(
        "\n== Cluster report ({} samples over loopback TCP) ==",
        samples.len()
    );
    println!("  data frames     : {}", report.data_frames);
    println!(
        "  control frames  : {} ({} heartbeats)",
        report.control_frames, report.heartbeats_seen
    );
    println!("  bytes on wire   : {}", report.bytes_on_wire);
    for (device, rounds) in &report.per_device_rounds {
        println!("  device {device} closed {rounds} rounds");
    }

    // The acceptance check: multi-process fusion is bitwise the sim run.
    if report.outputs.len() != sim.outputs.len() {
        return Err("cluster fused a different number of samples than the sim run".into());
    }
    for (i, (tcp, reference)) in report.outputs.iter().zip(&sim.outputs).enumerate() {
        if tcp.data() != reference.data() {
            return Err(format!("sample {i}: cluster logits differ from the sim run").into());
        }
    }
    println!(
        "\nAll {} fused outputs are bitwise identical to the in-process sim run \
         (predictions: {:?}).",
        report.outputs.len(),
        report.predictions()?
    );
    Ok(())
}
