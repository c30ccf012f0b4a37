//! One-shot batch inference over loopback TCP: the socket-backed twin of
//! [`edvit_edge::ClusterRuntime::run`].
//!
//! Device workers are still threads (the *process* boundary lives in
//! `examples/cluster_proc.rs`), but every frame crosses a real socket: each
//! worker dials the coordinator, announces itself with a `Join` control
//! frame, ships its one encoded feature-batch frame and departs with a
//! `Leave`. The report mirrors the in-process runtime's accounting exactly —
//! `payload_bytes`, `per_device_wire_bytes` and
//! `simulated_communication_seconds` are priced on the data frames alone, so
//! they match the sim run bit for bit; `bytes_on_wire` additionally counts
//! the join/leave control frames that actually crossed the wire (one
//! [`edvit_edge::wire::CONTROL_FRAME_LEN`]-byte frame each way per device).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel;
use edvit_edge::{
    EdgeError, FeatureBatchMessage, FusionFn, NetworkConfig, PayloadCodec, RuntimeReport,
    SubModelFn, WireFrame,
};
use edvit_tensor::Tensor;

use crate::cluster::{Coordinator, WorkerClient};
use crate::framing::{read_envelope, Envelope};

/// Runs one batch of samples through the sub-model executors with every frame
/// carried over a loopback TCP socket, fusing per-sample features in
/// sub-model order — the TCP backend behind the unified
/// `run_distributed(.., transport: Tcp)` entry point.
///
/// Outputs are bitwise identical to
/// [`edvit_edge::ClusterRuntime::run`] with the same codec: the socket
/// carries the exact encoded frames the channel would.
///
/// # Errors
///
/// Returns [`EdgeError::InvalidConfig`] for empty inputs or executor lists,
/// and [`EdgeError::Runtime`] when a socket, executor or the fusion function
/// fails.
pub fn run_batch_over_tcp(
    inputs: &[Tensor],
    executors: Vec<SubModelFn>,
    mut fusion: FusionFn,
    codec: PayloadCodec,
    network: &NetworkConfig,
) -> edvit_edge::Result<RuntimeReport> {
    if inputs.is_empty() {
        return Err(EdgeError::InvalidConfig {
            message: "no input samples".to_string(),
        });
    }
    if executors.is_empty() {
        return Err(EdgeError::InvalidConfig {
            message: "no sub-model executors".to_string(),
        });
    }
    let started = Instant::now();
    let num_sub_models = executors.len();
    let shared_inputs: Arc<Vec<Tensor>> = Arc::new(inputs.to_vec());
    let coordinator = Coordinator::bind().map_err(runtime_err)?;
    let addr = coordinator.local_addr();
    let (timing_tx, timing_rx) = channel::unbounded::<(usize, f64)>();
    let (err_tx, err_rx) = channel::unbounded::<String>();

    struct Collected {
        per_sample: BTreeMap<u32, BTreeMap<u32, Tensor>>,
        frames: usize,
        payload_bytes: u64,
        bytes_on_wire: u64,
        per_device_wire_bytes: Vec<u64>,
        slowest_frame_seconds: f64,
    }

    let collected = crossbeam::scope(|scope| -> edvit_edge::Result<Collected> {
        for (sub_model_index, mut executor) in executors.into_iter().enumerate() {
            let timing_tx = timing_tx.clone();
            let err_tx = err_tx.clone();
            let inputs = Arc::clone(&shared_inputs);
            scope.spawn(move |_| {
                let client = match WorkerClient::connect(&addr, sub_model_index, 1.0) {
                    Ok(client) => client,
                    Err(e) => {
                        let _ = err_tx.send(format!("device {sub_model_index}: {e}"));
                        return;
                    }
                };
                let device_started = Instant::now();
                // Sibling device threads split the kernel pool evenly.
                let encoded = edvit_parallel::with_fair_share(num_sub_models, || {
                    encode_device_batch(sub_model_index, &mut executor, &inputs, codec)
                });
                let _ = timing_tx.send((sub_model_index, device_started.elapsed().as_secs_f64()));
                match encoded {
                    Ok(frame) => {
                        // A dead socket means the collector already failed;
                        // stop quietly, exactly as the channel workers do.
                        let mut client = client;
                        if client.send_frame(&frame).is_ok() {
                            let _ = client.leave();
                        }
                    }
                    Err(message) => {
                        let _ = client.fail(message);
                    }
                }
            });
        }
        drop(timing_tx);
        drop(err_tx);

        // Collect on this thread while the workers run, so a batch frame
        // larger than the kernel's socket buffers cannot deadlock the join.
        let workers = coordinator
            .accept_workers(num_sub_models)
            .map_err(runtime_err)?;
        let mut collected = Collected {
            per_sample: BTreeMap::new(),
            frames: 0,
            payload_bytes: 0,
            bytes_on_wire: workers.iter().map(|w| w.join_bytes).sum(),
            per_device_wire_bytes: vec![0u64; num_sub_models],
            slowest_frame_seconds: 0.0,
        };
        for worker in workers {
            let device = worker.device_id;
            let mut stream = worker.into_stream();
            loop {
                let envelope = read_envelope(&mut stream).map_err(|e| EdgeError::Runtime {
                    message: format!("device {device}: {e}"),
                })?;
                let frame = match envelope {
                    None => break,
                    Some(Envelope::Error(message)) => {
                        return Err(EdgeError::Runtime { message });
                    }
                    Some(Envelope::Frame(frame)) => frame,
                };
                let wire_bytes = frame.len() as u64;
                match WireFrame::decode(frame)? {
                    WireFrame::FeatureBatch(batch) => {
                        collected.frames += 1;
                        collected.payload_bytes += batch.payload_bytes() as u64;
                        collected.bytes_on_wire += wire_bytes;
                        if let Some(slot) = collected
                            .per_device_wire_bytes
                            .get_mut(batch.sub_model as usize)
                        {
                            *slot += wire_bytes;
                        }
                        let t = network.transfer_seconds(wire_bytes);
                        if t > collected.slowest_frame_seconds {
                            collected.slowest_frame_seconds = t;
                        }
                        let sub_model = batch.sub_model;
                        for message in batch.into_messages() {
                            collected
                                .per_sample
                                .entry(message.sample_index)
                                .or_default()
                                .insert(sub_model, message.into_tensor());
                        }
                    }
                    WireFrame::Control(control) => {
                        // The graceful leave; joins were consumed at accept.
                        collected.bytes_on_wire += wire_bytes;
                        if control.kind != edvit_edge::ControlKind::Leave {
                            return Err(EdgeError::Runtime {
                                message: format!(
                                    "device {device} sent a {:?} control frame mid-batch",
                                    control.kind
                                ),
                            });
                        }
                    }
                    other => {
                        return Err(EdgeError::Runtime {
                            message: format!(
                                "device {device} shipped a {} frame, expected a batch",
                                other.kind_name()
                            ),
                        });
                    }
                }
            }
        }
        Ok(collected)
    })
    .map_err(|_| EdgeError::Runtime {
        message: "a device worker thread panicked".to_string(),
    })??;

    if let Ok(message) = err_rx.try_recv() {
        return Err(EdgeError::Runtime { message });
    }
    let mut per_device_compute_seconds = vec![0.0f64; num_sub_models];
    for (device, seconds) in &timing_rx {
        per_device_compute_seconds[device] = seconds;
    }

    // Fuse each sample's features in sub-model order — same loop, same
    // errors, same outputs as the in-process runtime.
    let mut outputs = Vec::with_capacity(inputs.len());
    for sample_index in 0..inputs.len() as u32 {
        let features =
            collected
                .per_sample
                .get(&sample_index)
                .ok_or_else(|| EdgeError::Runtime {
                    message: format!("no features received for sample {sample_index}"),
                })?;
        if features.len() != num_sub_models {
            return Err(EdgeError::Runtime {
                message: format!(
                    "sample {sample_index} received {} of {num_sub_models} features",
                    features.len()
                ),
            });
        }
        let refs: Vec<&Tensor> = features.values().collect();
        let concatenated = Tensor::concat_last_axis(&refs).map_err(|e| EdgeError::Runtime {
            message: format!("feature concatenation failed: {e}"),
        })?;
        let fused = fusion(&concatenated).map_err(|message| EdgeError::Runtime { message })?;
        outputs.push(fused);
    }

    let wall_clock_seconds = started.elapsed().as_secs_f64();
    let samples_per_second = if wall_clock_seconds > 0.0 {
        outputs.len() as f64 / wall_clock_seconds
    } else {
        f64::INFINITY
    };
    Ok(RuntimeReport {
        outputs,
        worker_threads: num_sub_models,
        per_device_compute_seconds,
        frames: collected.frames,
        codec,
        payload_bytes: collected.payload_bytes,
        bytes_on_wire: collected.bytes_on_wire,
        per_device_wire_bytes: collected.per_device_wire_bytes,
        simulated_communication_seconds: collected.slowest_frame_seconds,
        wall_clock_seconds,
        samples_per_second,
    })
}

fn runtime_err(e: crate::NetError) -> EdgeError {
    EdgeError::Runtime {
        message: e.to_string(),
    }
}

/// Runs one device's executor over every sample and packs the results into a
/// single encoded batch frame — the exact frame the in-process runtime ships.
fn encode_device_batch(
    sub_model_index: usize,
    executor: &mut SubModelFn,
    inputs: &[Tensor],
    codec: PayloadCodec,
) -> std::result::Result<bytes::Bytes, String> {
    let mut batch: Option<FeatureBatchMessage> = None;
    for (sample_index, sample) in inputs.iter().enumerate() {
        let feature = executor(sample)?;
        let slot =
            batch.get_or_insert_with(|| FeatureBatchMessage::new(sub_model_index, feature.numel()));
        slot.push_tensor(sample_index, &feature)
            .map_err(|e| format!("device {sub_model_index}: {e}"))?;
    }
    let batch = batch.ok_or_else(|| format!("device {sub_model_index} saw no samples"))?;
    Ok(batch.encode_with(codec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use edvit_edge::wire::CONTROL_FRAME_LEN;
    use edvit_edge::ClusterRuntime;

    fn constant_executor(value: f32, dim: usize) -> SubModelFn {
        Box::new(move |_input: &Tensor| Ok(Tensor::full(&[dim], value)))
    }

    fn demo_executors() -> Vec<SubModelFn> {
        vec![
            constant_executor(0.5, 4),
            constant_executor(-2.0, 3),
            constant_executor(1.25, 5),
        ]
    }

    #[test]
    fn tcp_batch_matches_the_sim_run_bit_for_bit() {
        let inputs: Vec<Tensor> = (0..6).map(|i| Tensor::full(&[2], i as f32)).collect();
        let network = NetworkConfig::paper_default();
        let fusion = || -> FusionFn { Box::new(|concat: &Tensor| Ok(concat.clone())) };
        let sim = ClusterRuntime::new(network)
            .run(&inputs, demo_executors(), fusion())
            .unwrap();
        let tcp = run_batch_over_tcp(
            &inputs,
            demo_executors(),
            fusion(),
            PayloadCodec::F32,
            &network,
        )
        .unwrap();
        assert_eq!(sim.outputs.len(), tcp.outputs.len());
        for (a, b) in sim.outputs.iter().zip(&tcp.outputs) {
            assert_eq!(a.data(), b.data(), "fused outputs must be bitwise equal");
        }
        assert_eq!(sim.frames, tcp.frames);
        assert_eq!(sim.payload_bytes, tcp.payload_bytes);
        assert_eq!(sim.per_device_wire_bytes, tcp.per_device_wire_bytes);
        assert_eq!(
            sim.simulated_communication_seconds,
            tcp.simulated_communication_seconds
        );
        // The socket run additionally carries one join and one leave control
        // frame per device.
        assert_eq!(
            tcp.bytes_on_wire,
            sim.bytes_on_wire + 3 * 2 * CONTROL_FRAME_LEN as u64
        );
    }

    #[test]
    fn codec_choice_survives_the_socket() {
        let inputs: Vec<Tensor> = (0..4).map(|_| Tensor::zeros(&[1])).collect();
        let network = NetworkConfig::paper_default();
        let fusion = || -> FusionFn { Box::new(|concat: &Tensor| Ok(concat.clone())) };
        let base = run_batch_over_tcp(
            &inputs,
            demo_executors(),
            fusion(),
            PayloadCodec::F32,
            &network,
        )
        .unwrap();
        let coded = run_batch_over_tcp(
            &inputs,
            demo_executors(),
            fusion(),
            PayloadCodec::F16,
            &network,
        )
        .unwrap();
        assert_eq!(coded.codec, PayloadCodec::F16);
        assert!(coded.bytes_on_wire < base.bytes_on_wire);
        // 0.5 / -2.0 / 1.25 are exactly representable in f16.
        for (a, b) in base.outputs.iter().zip(&coded.outputs) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn executor_failures_cross_the_socket_in_band() {
        let inputs = vec![Tensor::zeros(&[1])];
        let network = NetworkConfig::paper_default();
        let failing: SubModelFn = Box::new(|_| Err("device out of memory".to_string()));
        let fusion: FusionFn = Box::new(|c: &Tensor| Ok(c.clone()));
        let err = run_batch_over_tcp(&inputs, vec![failing], fusion, PayloadCodec::F32, &network)
            .unwrap_err();
        assert!(matches!(err, EdgeError::Runtime { .. }));
        assert!(err.to_string().contains("out of memory"), "{err}");
    }

    #[test]
    fn empty_inputs_and_executors_error() {
        let network = NetworkConfig::paper_default();
        let fusion = || -> FusionFn { Box::new(|c: &Tensor| Ok(c.clone())) };
        assert!(run_batch_over_tcp(
            &[],
            vec![constant_executor(1.0, 1)],
            fusion(),
            PayloadCodec::F32,
            &network
        )
        .is_err());
        assert!(run_batch_over_tcp(
            &[Tensor::zeros(&[1])],
            vec![],
            fusion(),
            PayloadCodec::F32,
            &network
        )
        .is_err());
    }
}
