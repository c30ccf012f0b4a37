//! Multi-process loopback cluster: every device worker is a real OS process.
//!
//! The parent trains the seeded tiny demo deployment, streams it once
//! through the in-process sim scheduler as the reference, then binds a
//! loopback [`Coordinator`] and re-execs itself once per device
//! (`EDVIT_CLUSTER_WORKER=<id>`). Each child retrains the *same* seeded
//! deployment — deterministic training means identical weights without any
//! weight shipping — dials the coordinator and runs the scheduler's
//! [`DeviceProgram`] for the sub-models the plan puts on its device. The
//! parent turns the admitted connections into lanes and runs the scheduler's
//! collector over them (`StreamScheduler::collect_lanes`): the same two
//! halves of the stream-round protocol every in-process run executes, wired
//! through processes and sockets. The fused logits and every deterministic
//! counter must be **bitwise identical** to the sim run — the transport moves
//! bytes, it does not touch numerics — and the run's journal must replay to
//! its report.
//!
//! Run with: `cargo run -p edvit --example cluster_proc --release`

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::process::Command;

use edvit::distributed::into_executors;
use edvit::edge::SubModelFn;
use edvit::metrics::MetricsSink;
use edvit::net::{dial_lane, Coordinator, FrameRx};
use edvit::partition::DeviceSpec;
use edvit::pipeline::{EdVitConfig, EdVitDeployment, EdVitPipeline};
use edvit::sched::{DeviceProgram, RoundLayout, StreamConfig, StreamScheduler};
use edvit::streaming::run_streaming;
use edvit::tensor::Tensor;

/// Seed shared by the parent and every worker process: same seed, same
/// trained weights, no weight shipping.
const SEED: u64 = 7;
/// Devices in the cluster — one worker process each.
const NUM_DEVICES: usize = 3;
/// Samples per streamed round.
const ROUND_SIZE: usize = 2;

const WORKER_ENV: &str = "EDVIT_CLUSTER_WORKER";
const ADDR_ENV: &str = "EDVIT_CLUSTER_ADDR";

type DynError = Box<dyn std::error::Error>;

/// Trains the seeded demo; returns it with the devices it was planned for,
/// the shared test samples and their round layout.
fn trained_demo() -> Result<(EdVitDeployment, Vec<DeviceSpec>, Vec<Tensor>, RoundLayout), DynError>
{
    let config = EdVitConfig::tiny_demo(NUM_DEVICES).with_seed(SEED);
    let devices = config.devices.clone();
    let deployment = EdVitPipeline::new(config).run()?;
    let test = deployment.test_set.clone();
    let n = test.len().min(8);
    let samples = (0..n)
        .map(|i| test.images().row(i))
        .collect::<Result<Vec<_>, _>>()?;
    let layout = RoundLayout::uniform(samples.len(), ROUND_SIZE)?;
    Ok((deployment, devices, samples, layout))
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        round_size: ROUND_SIZE,
        ..StreamConfig::default()
    }
}

/// One worker process: dial, then run the device program for this device's
/// sub-models.
fn worker(device_id: usize, addr: &SocketAddr) -> Result<(), DynError> {
    let (deployment, devices, samples, layout) = trained_demo()?;
    let hosted = deployment.plan.assignment.sub_models_on(device_id);
    let capacity_flops = devices
        .iter()
        .find(|d| d.id == device_id)
        .ok_or_else(|| format!("device {device_id} is not in the deployment"))?
        .flops_per_second;
    let (mut executors, _fusion) = into_executors(deployment);
    let execs: Vec<(usize, &mut SubModelFn)> = executors
        .iter_mut()
        .enumerate()
        .filter(|(sub_model, _)| hosted.contains(sub_model))
        .collect();
    let rounds: Vec<u64> = (0..layout.rounds() as u64).collect();

    let lane = dial_lane(addr)?;
    let program = DeviceProgram::new(
        device_id,
        capacity_flops,
        stream_config().codec,
        &layout,
        &rounds,
    );
    let completed = program.run(execs, &samples, lane.as_ref());
    if completed != rounds.len() as u64 {
        return Err(format!("device {device_id} stopped after {completed} rounds").into());
    }
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
    let (deployment, devices, samples, layout) = trained_demo()?;
    let sim = run_streaming(
        deployment.clone(),
        &samples,
        devices.clone(),
        stream_config(),
    )?;

    let coordinator = Coordinator::bind()?;
    let addr = coordinator.local_addr();
    let hosting: Vec<usize> = devices
        .iter()
        .map(|d| d.id)
        .filter(|&id| !deployment.plan.assignment.sub_models_on(id).is_empty())
        .collect();
    println!(
        "Coordinator listening on {addr}; spawning {} worker processes...",
        hosting.len()
    );
    let exe = std::env::current_exe()?;
    let mut children = BTreeMap::new();
    for &device in &hosting {
        let child = Command::new(&exe)
            .env(WORKER_ENV, device.to_string())
            .env(ADDR_ENV, addr.to_string())
            .spawn()?;
        children.insert(device, child);
    }

    let workers = coordinator.accept_workers(hosting.len())?;
    println!("\n== Admitted workers ==");
    let mut lanes: BTreeMap<usize, Box<dyn FrameRx>> = BTreeMap::new();
    for worker in workers {
        println!(
            "  device {} (pid {}): {:.1e} FLOP/s offered",
            worker.device_id,
            children
                .get(&worker.device_id)
                .map_or(0, std::process::Child::id),
            worker.capacity_flops,
        );
        lanes.insert(worker.device_id, worker.into_lane());
    }

    let sink = MetricsSink::recording();
    let plan = deployment.plan.clone();
    let (_executors, fusion) = into_executors(deployment);
    let report = StreamScheduler::new(plan, devices, stream_config().with_sink(sink.clone()))?
        .collect_lanes(lanes, &layout, fusion)?;

    for (device, child) in &mut children {
        let status = child.wait()?;
        if !status.success() {
            return Err(format!("worker process {device} exited with {status}").into());
        }
    }

    println!(
        "\n== Stream report ({} samples over loopback TCP) ==",
        samples.len()
    );
    println!("  rounds fused    : {}", report.rounds);
    println!("  data frames     : {}", report.data_frames);
    println!(
        "  control frames  : {} ({} heartbeats)",
        report.control_frames, report.heartbeats_seen
    );
    println!("  bytes on wire   : {}", report.bytes_on_wire);
    for (device, rounds) in &report.per_device_rounds {
        println!("  device {device} closed {rounds} rounds");
    }

    // The acceptance checks: multi-process fusion is bitwise the sim run, in
    // its outputs and in everything it counted...
    if report.outputs.len() != sim.outputs.len() {
        return Err("cluster fused a different number of samples than the sim run".into());
    }
    for (i, (tcp, reference)) in report.outputs.iter().zip(&sim.outputs).enumerate() {
        if tcp.data() != reference.data() {
            return Err(format!("sample {i}: cluster logits differ from the sim run").into());
        }
    }
    let divergent: Vec<&str> = report
        .counters()
        .diff(&sim.counters())
        .into_iter()
        .filter(|&field| field != "max_rounds_in_flight")
        .collect();
    if !divergent.is_empty() {
        return Err(format!("cluster counters differ from the sim run: {divergent:?}").into());
    }
    // ...and the journal of the multi-process run replays to its report.
    let replayed = sink.journal().replay_stream()?;
    if !replayed.bitwise_eq(&report.counters()) {
        return Err(format!(
            "journal replay diverged from the live report on {:?}",
            replayed.diff(&report.counters())
        )
        .into());
    }
    println!(
        "\nAll {} fused outputs and every deterministic counter are bitwise identical to the \
         in-process sim run, and the {}-event journal replays to the report (predictions: {:?}).",
        report.outputs.len(),
        sink.journal().len(),
        report.predictions()?
    );
    Ok(())
}
