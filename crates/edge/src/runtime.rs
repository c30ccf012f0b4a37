//! Threaded distributed-inference runtime: the one one-shot round executor.
//!
//! Each sub-model runs on its own worker thread ("edge device"), extracts a
//! feature vector per input sample, packs *all* of its samples into a single
//! [`FeatureBatchMessage`] and ships that one wire-v2 frame down its own
//! [`Transport`] lane ("the switch") to the fusion side — one frame per
//! device per round, so header and lane overhead are amortized across the
//! whole batch. The caller's thread reads the lanes while the devices run,
//! joins the devices, checks every frame against the lane it arrived on,
//! concatenates the per-sample features in sub-model order and applies the
//! fusion function. This mirrors the deployment in Fig. 3 of the paper; the
//! lanes come from whichever backend the caller hands in (in-process channels
//! by default, loopback TCP from `edvit-net`), and because the same executor
//! runs over both, every content-derived report field is the same by
//! construction. The *timing* numbers come from the analytic
//! [`crate::LatencyModel`], not from wall-clock measurements.

use std::time::Instant;

use bytes::Bytes;
use edvit_metrics::{MetricsSink, RunEvent};
use edvit_tensor::Tensor;

use crate::{
    EdgeError, FeatureBatchMessage, LaneEvent, NetOptions, NetworkConfig, PayloadCodec, Result,
    SimTransport, Transport, WireFrame,
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
    /// Worker threads used for sub-model execution (one per device).
    pub worker_threads: usize,
    /// Measured wall-clock seconds each device spent running its sub-model
    /// over all samples (indexed by sub-model). Informational, like
    /// [`RuntimeReport::wall_clock_seconds`]: reproducible latency numbers
    /// come from the analytic model.
    pub per_device_compute_seconds: Vec<f64>,
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
    /// Wall-clock time of the threaded execution (informational only; the
    /// reproducible latency numbers come from the analytic model).
    pub wall_clock_seconds: f64,
    /// Measured end-to-end throughput: samples fused per wall-clock second.
    pub samples_per_second: f64,
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
    /// builds it from the same options), and the retry budget only applies
    /// to streaming.
    pub fn with_options(mut self, options: &NetOptions) -> Self {
        self.codec = options.codec;
        self
    }

    /// The wire codec this runtime deploys.
    pub fn codec(&self) -> PayloadCodec {
        self.codec
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
    /// thread per device, each device packs all of its samples into one
    /// [`FeatureBatchMessage`] frame and sends it (or its failure, in-band),
    /// while this thread reads the lanes; then it joins the devices, checks
    /// the frames in device order, fuses every sample's features in sub-model
    /// order and journals the round once.
    ///
    /// `inputs` holds one tensor per sample (e.g. a `[c, h, w]` image or a
    /// `[1, c, h, w]` batch of one — the executors decide how to interpret
    /// it).
    ///
    /// Each lane's envelope is read before the join, because a TCP lane's
    /// `send` writes on the device thread: a frame larger than the socket
    /// buffers leaves its device blocked until the frame is read. Once every
    /// device is joined, each lane must report its close. A panicked device
    /// outranks any lane error. A TCP lane opened without
    /// [`Transport::set_round_deadline`] has no read timeout, so the
    /// sub-models may compute for as long as they need.
    ///
    /// A frame is checked against the lane it arrived on — it must be a
    /// feature batch of that lane's sub-model holding every input sample
    /// exactly once, and the only frame on the lane — so a forged or
    /// misrouted frame is an [`EdgeError::Protocol`], never a silent drop.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidConfig`] for empty inputs or executor
    /// lists, [`EdgeError::Runtime`] when a lane cannot be opened or an
    /// executor or the fusion function fails, and the decode or
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
        let started = Instant::now();
        let num_sub_models = executors.len();
        let codec = self.codec;
        let lanes = (0..num_sub_models)
            .map(|device| transport.open_lane(device, 1))
            .collect::<Result<Vec<_>>>()?;
        let (senders, mut receivers): (Vec<_>, Vec<_>) = lanes.into_iter().unzip();

        let (joined, delivered) = std::thread::scope(|scope| {
            let devices: Vec<_> = executors
                .into_iter()
                .zip(senders)
                .enumerate()
                .map(|(device, (mut executor, tx))| {
                    scope.spawn(move || {
                        let device_started = Instant::now();
                        // Sibling device threads split the kernel pool evenly.
                        let encoded = edvit_parallel::with_fair_share(num_sub_models, || {
                            encode_device_round(
                                device,
                                &mut executor,
                                inputs.iter().enumerate(),
                                codec,
                            )
                        });
                        let seconds = device_started.elapsed().as_secs_f64();
                        // A closed lane means the collector is gone; stop
                        // quietly.
                        let _ = match encoded {
                            Ok(Some(frame)) => tx.send(frame),
                            Ok(None) => Ok(()),
                            Err(message) => tx.send_error(format!("device {device}: {message}")),
                        };
                        seconds
                    })
                })
                .collect();
            // Take each lane's one envelope before joining: a TCP send writes
            // on the device thread, so a frame larger than the socket buffers
            // completes only while it is being read. A device sends one
            // envelope, so once every lane has delivered none is blocked. The
            // device spawned last tends to finish last: reading it first
            // leaves this thread one wake-up to wait for, not one per lane.
            let mut delivered: Vec<LaneEvent> =
                receivers.iter_mut().rev().map(|rx| rx.recv()).collect();
            delivered.reverse();
            // Join every handle before looking at any result: a panicked
            // worker left unjoined would unwind out of `scope` instead of
            // becoming the typed error below.
            let joined: Vec<_> = devices
                .into_iter()
                .map(std::thread::ScopedJoinHandle::join)
                .collect();
            let joined: std::thread::Result<Vec<f64>> = joined.into_iter().collect();
            (joined, delivered)
        });
        let per_device_compute_seconds = joined.map_err(|_| EdgeError::Runtime {
            message: "a device worker thread panicked".to_string(),
        })?;
        let batches = delivered
            .into_iter()
            .enumerate()
            .map(|(device, event)| check_round_frame(device, event, inputs.len()))
            .collect::<Result<Vec<_>>>()?;
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

        let payload_bytes: u64 = batches.iter().map(|b| b.batch.payload_bytes() as u64).sum();
        let per_device_wire_bytes: Vec<u64> = batches.iter().map(|b| b.wire_bytes).collect();
        let slowest_frame_seconds = per_device_wire_bytes
            .iter()
            .map(|&bytes| self.network.transfer_seconds(bytes))
            .fold(0.0f64, f64::max);
        let frames = batches.len();
        let bytes_on_wire: u64 = per_device_wire_bytes.iter().sum();

        // Fuse each sample's features in sub-model order.
        let fused_dim: usize = batches.iter().map(|b| b.batch.feature_dim as usize).sum();
        let mut outputs = Vec::with_capacity(inputs.len());
        for sample in 0..inputs.len() {
            let mut concatenated = Vec::with_capacity(fused_dim);
            for lane in &batches {
                concatenated.extend_from_slice(lane.batch.feature_row(lane.row_of[sample]));
            }
            let concatenated =
                Tensor::from_vec(concatenated, &[fused_dim]).map_err(|e| EdgeError::Runtime {
                    message: format!("feature concatenation failed: {e}"),
                })?;
            outputs.push(fusion(&concatenated).map_err(|message| EdgeError::Runtime { message })?);
        }

        record_batch_events(
            &self.sink,
            outputs.len(),
            &per_device_wire_bytes,
            slowest_frame_seconds,
        );

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
            frames,
            codec,
            payload_bytes,
            bytes_on_wire,
            per_device_wire_bytes,
            simulated_communication_seconds: slowest_frame_seconds,
            wall_clock_seconds,
            samples_per_second,
        })
    }
}

/// One device's round as the collector accepted it: the decoded batch, the
/// encoded size it arrived at, and where each input sample sits in it.
struct LaneBatch {
    batch: FeatureBatchMessage,
    wire_bytes: u64,
    /// `row_of[sample]` is the batch row holding that sample's features.
    row_of: Vec<usize>,
}

/// Checks what a one-shot lane delivered against the lane: a frame holding a
/// feature batch of sub-model `device` with each of the `samples` inputs
/// exactly once.
fn check_round_frame(device: usize, event: LaneEvent, samples: usize) -> Result<LaneBatch> {
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
    // `usize::MAX` marks an input no row has claimed yet.
    let mut row_of = vec![usize::MAX; samples];
    for (row, &sample) in batch.sample_indices.iter().enumerate() {
        let slot = row_of
            .get_mut(sample as usize)
            .ok_or_else(|| protocol(format!("sample {sample} is beyond the {samples} inputs")))?;
        if *slot != usize::MAX {
            return Err(protocol(format!("sample {sample} appears twice")));
        }
        *slot = row;
    }
    if batch.num_samples() != samples {
        return Err(protocol(format!(
            "frame holds {} of {samples} samples",
            batch.num_samples()
        )));
    }
    Ok(LaneBatch {
        batch,
        wire_bytes,
        row_of,
    })
}

/// Journals one one-shot batch execution: a `BatchStarted` marker, one
/// `Delivery` + `DataFrame` pair per sub-model (in index order) and a
/// `BatchEnded` summary stamped at the simulated communication time.
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
            RunEvent::Delivery {
                device: device as u64,
                bytes,
            },
        );
        sink.record(
            0.0,
            RunEvent::DataFrame {
                device: device as u64,
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
    let mut batch: Option<FeatureBatchMessage> = None;
    for (sample_index, sample) in samples {
        let feature = executor(sample)?;
        batch
            .get_or_insert_with(|| FeatureBatchMessage::new(sub_model, feature.numel()))
            .push_tensor(sample_index, &feature)
            .map_err(|e| e.to_string())?;
    }
    Ok(batch.map(|batch| batch.encode_with(codec)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::batch_frame_len;

    fn constant_executor(value: f32, dim: usize) -> SubModelFn {
        Box::new(move |_input: &Tensor| Ok(Tensor::full(&[dim], value)))
    }

    #[test]
    fn throughput_divides_by_samples_actually_processed() {
        // Regression pin for partial-round accounting: a batch that
        // under-fills any nominal round size must still divide throughput by
        // the samples actually fused — `outputs.len()` — never a nominal
        // round size. 3 samples is deliberately not a power-of-two fill.
        let runtime = ClusterRuntime::new(NetworkConfig::paper_default());
        let inputs = vec![Tensor::zeros(&[2]), Tensor::ones(&[2]), Tensor::zeros(&[2])];
        let executors = vec![constant_executor(1.0, 2)];
        let fusion: FusionFn = Box::new(|concat: &Tensor| Ok(concat.clone()));
        let report = runtime.run(&inputs, executors, fusion).unwrap();
        assert_eq!(report.outputs.len(), 3);
        if report.wall_clock_seconds > 0.0 {
            let expected = report.outputs.len() as f64 / report.wall_clock_seconds;
            assert!(
                (report.samples_per_second - expected).abs() <= expected * 1e-12,
                "samples_per_second {} must equal outputs/wall = {expected}",
                report.samples_per_second
            );
        } else {
            assert_eq!(report.samples_per_second, f64::INFINITY);
        }
    }

    #[test]
    fn features_are_fused_in_sub_model_order() {
        let runtime = ClusterRuntime::new(NetworkConfig::paper_default());
        let inputs = vec![Tensor::zeros(&[2]), Tensor::ones(&[2])];
        let executors = vec![constant_executor(1.0, 2), constant_executor(2.0, 3)];
        let fusion: FusionFn = Box::new(|concat: &Tensor| Ok(concat.clone()));
        let report = runtime.run(&inputs, executors, fusion).unwrap();
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
        assert!(report.wall_clock_seconds >= 0.0);
        assert!(report.samples_per_second > 0.0);
        assert_eq!(report.worker_threads, 2);
        assert_eq!(report.per_device_compute_seconds.len(), 2);
        assert!(report
            .per_device_compute_seconds
            .iter()
            .all(|&s| s >= 0.0 && s <= report.wall_clock_seconds));
    }

    #[test]
    fn panicking_executors_are_a_typed_runtime_error_not_an_unwinding_scope() {
        // Both device workers panic: the first failed join must not leave
        // the second unjoined, or its panic would unwind out of the scope.
        let panicking = || -> SubModelFn { Box::new(|_: &Tensor| panic!("executor blew up")) };
        let fusion: FusionFn = Box::new(|concat: &Tensor| Ok(concat.clone()));
        let err = ClusterRuntime::new(NetworkConfig::paper_default())
            .run(
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
        let report = runtime.run(&inputs, executors, fusion).unwrap();
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
            assert_eq!(runtime.codec(), codec);
            let executors = vec![constant_executor(0.5, dim), constant_executor(-2.0, dim)];
            let fusion: FusionFn = Box::new(|concat: &Tensor| Ok(concat.clone()));
            runtime.run(&inputs, executors, fusion).unwrap()
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
        let report = runtime.run(&inputs, vec![sum_executor], fusion).unwrap();
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
        let report = runtime.run(&inputs, executors, fusion).unwrap();
        assert_eq!(report.predictions().unwrap(), vec![1]);
    }

    #[test]
    fn empty_inputs_and_executors_error() {
        let runtime = ClusterRuntime::new(NetworkConfig::paper_default());
        let fusion: FusionFn = Box::new(|c: &Tensor| Ok(c.clone()));
        assert!(runtime
            .run(&[], vec![constant_executor(1.0, 1)], fusion)
            .is_err());
        let fusion: FusionFn = Box::new(|c: &Tensor| Ok(c.clone()));
        assert!(runtime.run(&[Tensor::zeros(&[1])], vec![], fusion).is_err());
    }

    #[test]
    fn executor_failures_propagate() {
        let runtime = ClusterRuntime::new(NetworkConfig::paper_default());
        let failing: SubModelFn = Box::new(|_| Err("device out of memory".to_string()));
        let fusion: FusionFn = Box::new(|c: &Tensor| Ok(c.clone()));
        let err = runtime
            .run(&[Tensor::zeros(&[1])], vec![failing], fusion)
            .unwrap_err();
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
        let err = runtime
            .run(
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
        let err = runtime
            .run(
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
        let report = runtime.run(&inputs, executors, fusion).unwrap();
        assert_eq!(report.outputs.len(), 8);
        assert_eq!(report.frames, 10);
        assert_eq!(report.payload_bytes, 10 * 8 * 8 * 4);
        // Sum of constants 0..10 each repeated 8 times = 8 * 45 = 360.
        assert_eq!(report.outputs[0].data(), &[360.0]);
    }
}
