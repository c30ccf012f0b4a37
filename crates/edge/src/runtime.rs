//! Threaded distributed-inference runtime: the one one-shot round executor.
//!
//! Each sub-model runs as one job on a device thread ("edge device"),
//! extracts a feature vector per input sample, packs *all* of its samples
//! into a single [`FeatureBatchMessage`] and ships that one wire-v2 frame
//! down its own [`Transport`] lane ("the switch") to the fusion side — one
//! frame per device per round, so header and lane overhead are amortized
//! across the whole batch. The jobs run in an
//! [`edvit_parallel::device_scope`], on warm device threads: a finished
//! job's thread parks and runs a later round's job, so a request pays for a
//! hand-off, not a thread spawn, and the jobs borrow the caller's inputs
//! for the length of the round. On sim lanes the caller is the last device:
//! it runs that device's job itself, because a sim lane holds the round's
//! one envelope without a reader, and so wakes one parked thread fewer;
//! over TCP, where a send blocks until it is read, every device has a
//! thread of its own. The caller's thread then reads the
//! lanes, waits for every job, checks every frame against the lane it
//! arrived on and the round contract ([`RoundBatch::check`]), and fuses with
//! [`fuse_round`] — the same check and the same fusion-input builder the
//! stream collector runs. This mirrors the deployment in Fig. 3 of the
//! paper; the lanes come from whichever backend the caller hands in
//! (in-process channels by default, loopback TCP from `edvit-net`), and
//! because the same executor runs over both, every content-derived report
//! field is the same by construction. The *timing* numbers come from the
//! analytic [`crate::LatencyModel`], not from wall-clock measurements.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bytes::Bytes;
use edvit_metrics::{MetricsSink, RunEvent};
use edvit_tensor::Tensor;

use crate::{
    fuse_round, EdgeError, FeatureBatchMessage, FusionSource, LaneEvent, NetOptions, NetworkConfig,
    PayloadCodec, Result, RoundBatch, SimTransport, Transport, TransportKind, WireFrame,
};

/// A sub-model executor: maps one input sample to a feature vector.
///
/// The `String` error type keeps the closure signature independent of the
/// model crates; the runtime wraps failures into [`EdgeError::Runtime`].
pub type SubModelFn = Box<dyn FnMut(&Tensor) -> std::result::Result<Tensor, String> + Send>;

/// The fusion function: maps the concatenated feature vector of one sample to
/// the fused output (e.g. class logits).
pub type FusionFn = Box<dyn FnMut(&Tensor) -> std::result::Result<Tensor, String> + Send>;

/// Result of running a batch of samples through the cluster.
#[derive(Debug)]
pub struct RuntimeReport {
    /// Fused output per input sample, in input order.
    pub outputs: Vec<Tensor>,
    /// Number of wire frames exchanged: one batched frame per device per
    /// round (not one per sample, as the v1 protocol shipped).
    pub frames: usize,
    /// Wire codec the devices encoded their batch frames with.
    pub codec: PayloadCodec,
    /// Total bytes of feature values transferred to the fusion device,
    /// counted at `f32` width (`4 × dim` per sample, the quantity the paper
    /// reports) whatever the wire codec — compare against
    /// [`RuntimeReport::bytes_on_wire`] to see the codec's saving.
    pub payload_bytes: u64,
    /// Total encoded bytes on the wire, including v2 frame headers, sample
    /// indices and checksums — under the active codec, so this is where f16
    /// quantization and compression show up.
    pub bytes_on_wire: u64,
    /// Encoded frame bytes each device shipped (indexed by sub-model).
    pub per_device_wire_bytes: Vec<u64>,
    /// Communication time the round would take on the configured network:
    /// devices transmit their single batched frame concurrently, so this is
    /// the slowest device frame.
    pub simulated_communication_seconds: f64,
}

impl RuntimeReport {
    /// Argmax prediction per sample, for classification-style fusion outputs.
    ///
    /// # Errors
    ///
    /// Returns an error if any output is empty.
    pub fn predictions(&self) -> Result<Vec<usize>> {
        self.outputs
            .iter()
            .map(|o| {
                o.argmax().map_err(|e| EdgeError::Runtime {
                    message: format!("empty fusion output: {e}"),
                })
            })
            .collect()
    }
}

/// A simulated cluster of edge devices plus one fusion device.
#[derive(Debug, Clone)]
pub struct ClusterRuntime {
    network: NetworkConfig,
    codec: PayloadCodec,
    sink: MetricsSink,
}

impl ClusterRuntime {
    /// Creates a runtime with the given network model and the default
    /// [`PayloadCodec::F32`] wire codec.
    pub fn new(network: NetworkConfig) -> Self {
        ClusterRuntime {
            network,
            codec: PayloadCodec::F32,
            sink: MetricsSink::disabled(),
        }
    }

    /// Attaches an observability sink; each batch run journals its frame
    /// and byte accounting into it. Disabled (a no-op) by default.
    #[must_use]
    pub fn with_sink(mut self, sink: MetricsSink) -> Self {
        self.sink = sink;
        self
    }

    /// Applies the shared [`NetOptions`]: selects the wire codec every device
    /// encodes its batch frames with. The fusion worker decodes whatever
    /// codec the frame header declares, so this only changes what goes on the
    /// wire, not the call contract. The transport choice arrives as a value
    /// ([`ClusterRuntime::run_over`]'s argument — `edvit_net::transport_for`
    /// builds it from the same options).
    pub fn with_options(mut self, options: &NetOptions) -> Self {
        self.codec = options.codec;
        self
    }

    /// Runs every input sample through every sub-model executor concurrently
    /// over in-process channel lanes ([`SimTransport`]), fusing the per-sample
    /// features with `fusion`. See [`ClusterRuntime::run_over`].
    ///
    /// # Errors
    ///
    /// As [`ClusterRuntime::run_over`].
    pub fn run(
        &self,
        inputs: &[Tensor],
        executors: Vec<SubModelFn>,
        fusion: FusionFn,
    ) -> Result<RuntimeReport> {
        self.run_over(&mut SimTransport::new(), inputs, executors, fusion)
    }

    /// Runs one round over lanes opened from `transport`: one lane and one
    /// device thread per device — a parked one when any is idle, a new one
    /// otherwise, never a job queued behind another — each device packs all
    /// of its samples into one [`FeatureBatchMessage`] frame and sends it (or
    /// its failure, in-band). On [`TransportKind::Sim`] lanes this thread is
    /// the last device: it dispatches the others, then runs the last job
    /// itself (its panic counts like a device thread's), since a sim lane of
    /// capacity 1 holds that job's envelope unread; over TCP every device
    /// has its own thread. Then this thread reads the lanes, waits for every
    /// device, checks the frames in device order, fuses every sample's
    /// features in sub-model order and journals the round once.
    ///
    /// `inputs` holds one tensor per sample (e.g. a `[c, h, w]` image or a
    /// `[1, c, h, w]` batch of one — the executors decide how to interpret
    /// it).
    ///
    /// Each lane's envelope is read before waiting for the devices, because a
    /// TCP lane's `send` writes on the device thread: a frame larger than the
    /// socket buffers leaves its device blocked until the frame is read. Once
    /// every device has finished, each lane must report its close. A panicked
    /// device outranks any lane error, and its thread survives the panic. A
    /// TCP lane opened without [`Transport::set_round_deadline`] has no read
    /// timeout, so the sub-models may compute for as long as they need.
    ///
    /// A frame is checked against the lane it arrived on — it must be a
    /// feature batch of that lane's sub-model that [`RoundBatch::check`]
    /// accepts as the round of every input sample, and the only frame on the
    /// lane — so a forged or misrouted frame is an [`EdgeError::Protocol`],
    /// never a silent drop.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidConfig`] for empty inputs or executor
    /// lists, [`EdgeError::Runtime`] when a lane or a device thread cannot be
    /// opened or an executor or the fusion function fails, and the decode or
    /// [`EdgeError::Protocol`] error of a frame that fails the checks above.
    pub fn run_over(
        &self,
        transport: &mut dyn Transport,
        inputs: &[Tensor],
        executors: Vec<SubModelFn>,
        mut fusion: FusionFn,
    ) -> Result<RuntimeReport> {
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
        let num_sub_models = executors.len();
        let codec = self.codec;
        let lanes = (0..num_sub_models)
            .map(|device| transport.open_lane(device, 1))
            .collect::<Result<Vec<_>>>()?;
        let (senders, receivers): (Vec<_>, Vec<_>) = lanes.into_iter().unzip();

        // A sim send never waits for a reader here; a TCP send may.
        let caller_runs_last = transport.kind() == TransportKind::Sim;
        let mut caller_panicked = false;
        let (round, panicked) = edvit_parallel::device_scope(|scope| {
            // The scope waits for every job before it returns, so on an
            // early return below `receivers` must go first: dropping a lane
            // fails a TCP send still blocked on it.
            let mut receivers = receivers;
            for (device, (mut executor, tx)) in executors.into_iter().zip(senders).enumerate() {
                let work = move || {
                    // Sibling device threads split the kernel pool evenly.
                    let encoded = edvit_parallel::with_fair_share(num_sub_models, || {
                        encode_device_round(device, &mut executor, inputs.iter().enumerate(), codec)
                    });
                    // A closed lane means the collector is gone; stop quietly.
                    let _ = match encoded {
                        Ok(Some(frame)) => tx.send(frame),
                        Ok(None) => Ok(()),
                        Err(message) => tx.send_error(format!("device {device}: {message}")),
                    };
                };
                if caller_runs_last && device + 1 == num_sub_models {
                    // Counted like a device thread's panic.
                    caller_panicked = catch_unwind(AssertUnwindSafe(work)).is_err();
                } else {
                    scope.spawn(work).map_err(|e| EdgeError::Runtime {
                        message: format!("cannot start a device thread: {e}"),
                    })?;
                }
            }
            // Take each lane's one envelope before the scope waits for the
            // devices: a TCP send writes on the device thread, so a frame
            // larger than the socket buffers completes only while it is
            // being read. A device sends one envelope, so once every lane
            // has delivered none is blocked. Reading in reverse takes the
            // lane this thread filled first, then the device dispatched
            // last, which tends to finish last: this thread waits for one
            // wake-up, not one per lane.
            let mut delivered: Vec<LaneEvent> =
                receivers.iter_mut().rev().map(|rx| rx.recv()).collect();
            delivered.reverse();
            Ok((delivered, receivers))
        });
        // A panicked device outranks any other failure of the round.
        if panicked > 0 || caller_panicked {
            return Err(EdgeError::Runtime {
                message: "a device worker thread panicked".to_string(),
            });
        }
        let (delivered, mut receivers) = round?;
        let (batches, per_device_wire_bytes): (Vec<RoundBatch>, Vec<u64>) = delivered
            .into_iter()
            .enumerate()
            .map(|(device, event)| lane_round(device, event, inputs.len()))
            .collect::<Result<Vec<_>>>()?
            .into_iter()
            .unzip();
        // Every device has finished, so each lane must now be closed.
        for (device, rx) in receivers.iter_mut().enumerate() {
            let message = match rx.recv() {
                LaneEvent::Closed => continue,
                LaneEvent::PeerError(message) => return Err(EdgeError::Runtime { message }),
                LaneEvent::Frame(_) => {
                    format!("device {device} lane: a second frame in a one-shot round")
                }
            };
            return Err(EdgeError::Protocol { message });
        }

        let payload_bytes: u64 = batches
            .iter()
            .map(|b| b.batch().payload_bytes() as u64)
            .sum();
        let slowest_frame_seconds = per_device_wire_bytes
            .iter()
            .map(|&bytes| self.network.transfer_seconds(bytes))
            .fold(0.0f64, f64::max);
        let frames = batches.len();
        let bytes_on_wire: u64 = per_device_wire_bytes.iter().sum();

        let sources: Vec<FusionSource> = batches.iter().map(FusionSource::Frame).collect();
        let outputs = fuse_round(&sources, inputs.len(), &mut fusion)
            .map_err(|message| EdgeError::Runtime { message })?;

        record_batch_events(
            &self.sink,
            outputs.len(),
            &per_device_wire_bytes,
            slowest_frame_seconds,
        );

        Ok(RuntimeReport {
            outputs,
            frames,
            codec,
            payload_bytes,
            bytes_on_wire,
            per_device_wire_bytes,
            simulated_communication_seconds: slowest_frame_seconds,
        })
    }
}

/// Reads what a one-shot lane delivered: one frame holding a feature batch
/// of sub-model `device` that [`RoundBatch::check`] accepts as the round of
/// all `samples` inputs, and the bytes that frame arrived in.
fn lane_round(device: usize, event: LaneEvent, samples: usize) -> Result<(RoundBatch, u64)> {
    let frame = match event {
        LaneEvent::Frame(frame) => frame,
        LaneEvent::PeerError(message) => return Err(EdgeError::Runtime { message }),
        LaneEvent::Closed => {
            return Err(EdgeError::Runtime {
                message: format!("device {device} closed its lane without shipping a frame"),
            })
        }
    };
    let wire_bytes = frame.len() as u64;
    let protocol = |message: String| EdgeError::Protocol {
        message: format!("device {device} lane: {message}"),
    };
    let batch = match WireFrame::decode(frame)? {
        WireFrame::FeatureBatch(batch) => batch,
        other => {
            return Err(protocol(format!(
                "a {} frame where the round's batch was expected",
                other.kind_name()
            )))
        }
    };
    if batch.sub_model as usize != device {
        return Err(protocol(format!(
            "frame claims sub-model {}",
            batch.sub_model
        )));
    }
    let round = RoundBatch::check(batch, 0..samples).map_err(protocol)?;
    Ok((round, wire_bytes))
}

/// Journals one one-shot batch execution: a `BatchStarted` marker, one
/// `BatchDelivery` per sub-model (in index order) and a `BatchEnded` summary
/// stamped at the simulated communication time — all `Batch`-family rows, so
/// a journal shared with a stream or a serving drill still replays each.
fn record_batch_events(
    sink: &MetricsSink,
    samples: usize,
    per_device_wire_bytes: &[u64],
    simulated_seconds: f64,
) {
    if !sink.is_enabled() {
        return;
    }
    sink.record(
        0.0,
        RunEvent::BatchStarted {
            devices: per_device_wire_bytes.len() as u64,
            samples: samples as u64,
        },
    );
    for (device, &bytes) in per_device_wire_bytes.iter().enumerate() {
        sink.record(
            0.0,
            RunEvent::BatchDelivery {
                device: device as u64,
                bytes,
            },
        );
    }
    sink.record(
        simulated_seconds,
        RunEvent::BatchEnded {
            frames: per_device_wire_bytes.len() as u64,
            bytes_on_wire: per_device_wire_bytes.iter().sum(),
            simulated_seconds,
        },
    );
}

/// The device side of a round, shared by every executor of rounds (the
/// one-shot runtime here, the streaming scheduler's device worker, the
/// worker processes of `examples/cluster_proc.rs`): runs one sub-model's
/// `executor` over the round's `(sample_index, input)` pairs, packs the
/// features into one [`FeatureBatchMessage`] and encodes it under `codec`.
/// `Ok(None)` for a round without samples.
///
/// # Errors
///
/// Returns the executor's own message when it fails, and the batch's
/// dimension-mismatch message when its feature sizes are ragged.
pub fn encode_device_round<'a>(
    sub_model: usize,
    executor: &mut SubModelFn,
    samples: impl IntoIterator<Item = (usize, &'a Tensor)>,
    codec: PayloadCodec,
) -> std::result::Result<Option<Bytes>, String> {
    let samples = samples.into_iter();
    // The round's rows, reserved once the first feature gives the width.
    let rows = samples.size_hint().0;
    let mut batch: Option<FeatureBatchMessage> = None;
    for (sample_index, sample) in samples {
        let feature = executor(sample)?;
        batch
            .get_or_insert_with(|| {
                FeatureBatchMessage::with_capacity(sub_model, feature.numel(), rows)
            })
            .push_tensor(sample_index, &feature)
            .map_err(|e| e.to_string())?;
    }
    Ok(batch.map(|batch| batch.encode_with(codec)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::batch_frame_len;
    use std::sync::{mpsc, Arc, Barrier, Mutex, PoisonError};
    use std::time::Duration;

    /// Serializes the rounds of this module's tests: device threads are a
    /// process-wide resource, and `sequential_rounds_reuse_their_parked_threads`
    /// counts the threads its own rounds start.
    static ROUNDS: Mutex<()> = Mutex::new(());

    fn run_round(
        runtime: &ClusterRuntime,
        inputs: &[Tensor],
        executors: Vec<SubModelFn>,
        fusion: FusionFn,
    ) -> Result<RuntimeReport> {
        let _serial = ROUNDS.lock().unwrap_or_else(PoisonError::into_inner);
        runtime.run(inputs, executors, fusion)
    }

    fn constant_executor(value: f32, dim: usize) -> SubModelFn {
        Box::new(move |_input: &Tensor| Ok(Tensor::full(&[dim], value)))
    }

    #[test]
    fn features_are_fused_in_sub_model_order() {
        let runtime = ClusterRuntime::new(NetworkConfig::paper_default());
        let inputs = vec![Tensor::zeros(&[2]), Tensor::ones(&[2])];
        let executors = vec![constant_executor(1.0, 2), constant_executor(2.0, 3)];
        let fusion: FusionFn = Box::new(|concat: &Tensor| Ok(concat.clone()));
        let report = run_round(&runtime, &inputs, executors, fusion).unwrap();
        assert_eq!(report.outputs.len(), 2);
        assert_eq!(report.outputs[0].data(), &[1.0, 1.0, 2.0, 2.0, 2.0]);
        // One batched frame per device, not one message per sample.
        assert_eq!(report.frames, 2);
        assert_eq!(report.payload_bytes, 2 * (2 * 4 + 3 * 4));
        assert_eq!(
            report.bytes_on_wire,
            (batch_frame_len(2, 2) + batch_frame_len(2, 3)) as u64
        );
        assert!(report.bytes_on_wire > report.payload_bytes);
        assert_eq!(
            report.per_device_wire_bytes,
            vec![batch_frame_len(2, 2) as u64, batch_frame_len(2, 3) as u64]
        );
        assert!(report.simulated_communication_seconds > 0.0);
    }

    #[test]
    fn panicking_executors_are_a_typed_runtime_error_not_an_unwinding_scope() {
        // Both device workers panic: each panic must stay on its own device
        // thread and become the typed error, not unwind into the caller.
        let panicking = || -> SubModelFn { Box::new(|_: &Tensor| panic!("executor blew up")) };
        let fusion: FusionFn = Box::new(|concat: &Tensor| Ok(concat.clone()));
        let err = run_round(
            &ClusterRuntime::new(NetworkConfig::paper_default()),
            &[Tensor::zeros(&[1])],
            vec![panicking(), panicking()],
            fusion,
        )
        .unwrap_err();
        assert!(
            matches!(&err, EdgeError::Runtime { message } if message.contains("panicked")),
            "{err}"
        );
    }

    #[test]
    fn one_frame_transfer_beats_per_sample_messages() {
        // The batched round must put fewer bytes on the wire than shipping
        // one single-sample frame per (device, sample) pair would.
        let runtime = ClusterRuntime::new(NetworkConfig::paper_default());
        let samples = 16usize;
        let dim = 32usize;
        let inputs: Vec<Tensor> = (0..samples).map(|_| Tensor::zeros(&[1])).collect();
        let executors = vec![constant_executor(1.0, dim)];
        let fusion: FusionFn = Box::new(|concat: &Tensor| Ok(concat.clone()));
        let report = run_round(&runtime, &inputs, executors, fusion).unwrap();
        assert_eq!(report.frames, 1);
        let per_sample_frames = samples * crate::wire::batch_frame_len(1, dim);
        assert!(
            report.bytes_on_wire < per_sample_frames as u64,
            "{} !< {per_sample_frames}",
            report.bytes_on_wire
        );
    }

    #[test]
    fn f16_codec_run_shrinks_wire_bytes_with_identical_fusion_inputs() {
        let inputs: Vec<Tensor> = (0..4).map(|_| Tensor::zeros(&[1])).collect();
        let dim = 32usize;
        // 0.5 is exactly representable in f16, so quantization is lossless
        // here and the fused outputs must be bitwise identical.
        let run = |codec: PayloadCodec| {
            let runtime = ClusterRuntime::new(NetworkConfig::paper_default())
                .with_options(&NetOptions::default().with_codec(codec));
            let executors = vec![constant_executor(0.5, dim), constant_executor(-2.0, dim)];
            let fusion: FusionFn = Box::new(|concat: &Tensor| Ok(concat.clone()));
            run_round(&runtime, &inputs, executors, fusion).unwrap()
        };
        let base = run(PayloadCodec::F32);
        let coded = run(PayloadCodec::F16);
        assert_eq!(base.codec, PayloadCodec::F32);
        assert_eq!(coded.codec, PayloadCodec::F16);
        for (a, b) in base.outputs.iter().zip(&coded.outputs) {
            assert_eq!(a.data(), b.data());
        }
        // payload_bytes stays the paper's f32-width quantity; the wire shrinks
        // by exactly two bytes per value.
        assert_eq!(coded.payload_bytes, base.payload_bytes);
        let values = (2 * 4 * dim) as u64;
        assert_eq!(base.bytes_on_wire - coded.bytes_on_wire, values * 2);
        assert!(coded.simulated_communication_seconds < base.simulated_communication_seconds);
        // Constant features collapse under the rle codec.
        let rle = run(PayloadCodec::F16Rle);
        assert!(rle.bytes_on_wire < coded.bytes_on_wire);
        for (a, b) in base.outputs.iter().zip(&rle.outputs) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn executor_that_uses_input_sees_the_right_sample() {
        let runtime = ClusterRuntime::new(NetworkConfig::gigabit());
        let inputs = vec![Tensor::full(&[3], 1.0), Tensor::full(&[3], 5.0)];
        let sum_executor: SubModelFn =
            Box::new(|input: &Tensor| Ok(Tensor::from_vec(vec![input.sum()], &[1]).unwrap()));
        let fusion: FusionFn = Box::new(|concat: &Tensor| Ok(concat.clone()));
        let report = run_round(&runtime, &inputs, vec![sum_executor], fusion).unwrap();
        assert_eq!(report.outputs[0].data(), &[3.0]);
        assert_eq!(report.outputs[1].data(), &[15.0]);
    }

    #[test]
    fn predictions_take_argmax() {
        let runtime = ClusterRuntime::new(NetworkConfig::paper_default());
        let inputs = vec![Tensor::zeros(&[1])];
        let executors = vec![constant_executor(0.1, 2)];
        let fusion: FusionFn =
            Box::new(|_| Ok(Tensor::from_vec(vec![0.1, 0.9, 0.0], &[3]).unwrap()));
        let report = run_round(&runtime, &inputs, executors, fusion).unwrap();
        assert_eq!(report.predictions().unwrap(), vec![1]);
    }

    #[test]
    fn empty_inputs_and_executors_error() {
        let runtime = ClusterRuntime::new(NetworkConfig::paper_default());
        let fusion: FusionFn = Box::new(|c: &Tensor| Ok(c.clone()));
        assert!(run_round(&runtime, &[], vec![constant_executor(1.0, 1)], fusion).is_err());
        let fusion: FusionFn = Box::new(|c: &Tensor| Ok(c.clone()));
        assert!(run_round(&runtime, &[Tensor::zeros(&[1])], vec![], fusion).is_err());
    }

    #[test]
    fn executor_failures_propagate() {
        let runtime = ClusterRuntime::new(NetworkConfig::paper_default());
        let failing: SubModelFn = Box::new(|_| Err("device out of memory".to_string()));
        let fusion: FusionFn = Box::new(|c: &Tensor| Ok(c.clone()));
        let err = run_round(&runtime, &[Tensor::zeros(&[1])], vec![failing], fusion).unwrap_err();
        assert!(matches!(err, EdgeError::Runtime { .. }));
        assert!(err.to_string().contains("out of memory"));
    }

    #[test]
    fn inconsistent_feature_dims_are_rejected() {
        let runtime = ClusterRuntime::new(NetworkConfig::paper_default());
        let mut calls = 0usize;
        let ragged: SubModelFn = Box::new(move |_| {
            calls += 1;
            Ok(Tensor::zeros(&[calls]))
        });
        let fusion: FusionFn = Box::new(|c: &Tensor| Ok(c.clone()));
        let err = run_round(
            &runtime,
            &[Tensor::zeros(&[1]), Tensor::zeros(&[1])],
            vec![ragged],
            fusion,
        )
        .unwrap_err();
        assert!(err.to_string().contains("feature values"), "{err}");
    }

    #[test]
    fn fusion_failures_propagate() {
        let runtime = ClusterRuntime::new(NetworkConfig::paper_default());
        let fusion: FusionFn = Box::new(|_| Err("fusion MLP not trained".to_string()));
        let err = run_round(
            &runtime,
            &[Tensor::zeros(&[1])],
            vec![constant_executor(1.0, 2)],
            fusion,
        )
        .unwrap_err();
        assert!(err.to_string().contains("fusion MLP"));
    }

    #[test]
    fn many_devices_many_samples() {
        let runtime = ClusterRuntime::new(NetworkConfig::paper_default());
        let inputs: Vec<Tensor> = (0..8).map(|i| Tensor::full(&[4], i as f32)).collect();
        let executors: Vec<SubModelFn> = (0..10).map(|i| constant_executor(i as f32, 8)).collect();
        let fusion: FusionFn =
            Box::new(|concat: &Tensor| Ok(Tensor::from_vec(vec![concat.sum()], &[1]).unwrap()));
        let report = run_round(&runtime, &inputs, executors, fusion).unwrap();
        assert_eq!(report.outputs.len(), 8);
        assert_eq!(report.frames, 10);
        assert_eq!(report.payload_bytes, 10 * 8 * 8 * 4);
        // Sum of constants 0..10 each repeated 8 times = 8 * 45 = 360.
        assert_eq!(report.outputs[0].data(), &[360.0]);
    }

    /// Runs `test` on a thread of its own and fails if it is still running
    /// after 60 s.
    fn within_watchdog<T: Send + 'static>(test: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(test());
        });
        finished
            .recv_timeout(Duration::from_secs(60))
            .expect("still running after 60 s: deadlock")
    }

    #[test]
    fn every_device_job_gets_a_thread_of_its_own() {
        // Each executor blocks until every other has started: two jobs
        // queued on one thread would never finish. On sim lanes the last
        // device's thread is the caller's own, and the others are warm
        // threads, one each.
        let (caller, threads) = within_watchdog(|| {
            let started = Arc::new(Barrier::new(3));
            let threads = Arc::new(Mutex::new(vec![None; 3]));
            let executors: Vec<SubModelFn> = (0..3)
                .map(|device| -> SubModelFn {
                    let (started, threads) = (Arc::clone(&started), Arc::clone(&threads));
                    Box::new(move |_: &Tensor| {
                        threads.lock().unwrap()[device] = Some(std::thread::current().id());
                        started.wait();
                        Ok(Tensor::zeros(&[2]))
                    })
                })
                .collect();
            let fusion: FusionFn = Box::new(|concat: &Tensor| Ok(concat.clone()));
            let runtime = ClusterRuntime::new(NetworkConfig::paper_default());
            let report = run_round(&runtime, &[Tensor::zeros(&[1])], executors, fusion);
            assert_eq!(report.unwrap().outputs[0].dims(), &[6]);
            let threads: Vec<_> = threads.lock().unwrap().iter().flatten().copied().collect();
            (std::thread::current().id(), threads)
        });
        assert_eq!(threads.len(), 3);
        assert_eq!(threads[2], caller, "the caller runs the last device");
        assert!(threads[0] != caller && threads[1] != caller, "{threads:?}");
        assert_ne!(threads[0], threads[1]);
    }

    /// Runs a two-device round in which device `panicking` panics, then an
    /// honest one: the first must fail with the typed panic error, and
    /// device 0 must run on the same warm thread in both rounds.
    fn a_panicking_round_leaves_device_0_parked(panicking: usize) {
        let runtime = ClusterRuntime::new(NetworkConfig::paper_default());
        let _serial = ROUNDS.lock().unwrap_or_else(PoisonError::into_inner);
        let device_0_threads = Arc::new(Mutex::new(Vec::new()));
        let round = |panicking: Option<usize>| {
            let executors = (0..2)
                .map(|device| -> SubModelFn {
                    let device_0_threads = Arc::clone(&device_0_threads);
                    Box::new(move |_: &Tensor| {
                        if device == 0 {
                            let mut threads = device_0_threads.lock().unwrap();
                            threads.push(std::thread::current().id());
                        }
                        assert!(panicking != Some(device), "executor blew up");
                        Ok(Tensor::zeros(&[1]))
                    })
                })
                .collect();
            let fusion: FusionFn = Box::new(|concat: &Tensor| Ok(concat.clone()));
            runtime.run(&[Tensor::zeros(&[1])], executors, fusion)
        };
        let err = round(Some(panicking)).unwrap_err();
        assert!(
            matches!(&err, EdgeError::Runtime { message } if message == "a device worker thread panicked"),
            "{err}"
        );
        assert_eq!(round(None).unwrap().outputs.len(), 1);
        let threads = device_0_threads.lock().unwrap();
        assert_eq!(threads.len(), 2);
        assert_eq!(
            threads[0], threads[1],
            "device 0's thread ran the next round"
        );
        assert_ne!(threads[0], std::thread::current().id());
    }

    #[test]
    fn a_panicking_job_leaves_its_thread_parked_for_the_next_round() {
        // Device 0's job is dispatched to a warm thread and panics there.
        a_panicking_round_leaves_device_0_parked(0);
    }

    #[test]
    fn a_panic_in_the_callers_own_job_is_a_device_panic() {
        // Device 1, the last, runs on the caller and panics there; the
        // caller's kernel budget is restored as the panic unwinds.
        let pool = edvit_parallel::ParallelPool::global();
        let sequential = pool.is_sequential();
        a_panicking_round_leaves_device_0_parked(1);
        assert_eq!(pool.is_sequential(), sequential);
    }

    #[test]
    fn sequential_rounds_reuse_their_parked_threads() {
        let runtime = ClusterRuntime::new(NetworkConfig::paper_default());
        let _serial = ROUNDS.lock().unwrap_or_else(PoisonError::into_inner);
        let spawned_before = edvit_parallel::device_threads_started();
        for _ in 0..1_000 {
            let executors = vec![constant_executor(1.0, 2), constant_executor(2.0, 2)];
            let fusion: FusionFn = Box::new(|concat: &Tensor| Ok(concat.clone()));
            let report = runtime.run(&[Tensor::zeros(&[1])], executors, fusion);
            assert_eq!(report.unwrap().outputs[0].data(), &[1.0, 1.0, 2.0, 2.0]);
        }
        // Device 1 runs on the caller, so a round uses one warm thread.
        let spawned = edvit_parallel::device_threads_started() - spawned_before;
        assert!(
            spawned <= 1,
            "1 000 two-device rounds started {spawned} threads"
        );
    }
}
