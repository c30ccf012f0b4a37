//! Threaded distributed-inference runtime: the one one-shot round executor.
//!
//! Each sub-model runs as one job on a device thread ("edge device"),
//! extracts a feature vector per input sample, packs *all* of its samples
//! into a single [`FeatureBatchMessage`] and ships that one wire-v2 frame
//! down its own [`Transport`] lane ("the switch") to the fusion side — one
//! frame per device per round, so header and lane overhead are amortized
//! across the whole batch. Device threads are kept warm: a finished job's
//! thread parks in a process-wide idle list and runs a later round's job,
//! so a request pays for a hand-off, not a thread spawn. The caller's thread
//! reads the lanes while the devices run, waits for every job, checks every
//! frame against the lane it arrived on and the round contract
//! ([`RoundBatch::check`]), and fuses with [`fuse_round`] — the same check
//! and the same fusion-input builder the stream collector runs. This mirrors
//! the deployment in Fig. 3 of the paper; the lanes come from whichever
//! backend the caller hands in (in-process channels by default, loopback TCP
//! from `edvit-net`), and because the same executor runs over both, every
//! content-derived report field is the same by construction. The *timing*
//! numbers come from the analytic [`crate::LatencyModel`], not from
//! wall-clock measurements.

use std::sync::{mpsc, Arc};

use bytes::Bytes;
use edvit_metrics::{MetricsSink, RunEvent};
use edvit_tensor::Tensor;

use crate::{
    fuse_round, EdgeError, FeatureBatchMessage, FusionSource, LaneEvent, NetOptions, NetworkConfig,
    PayloadCodec, Result, RoundBatch, SimTransport, Transport, WireFrame,
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
    /// its failure, in-band), while this thread reads the lanes; then it
    /// waits for every device, checks the frames in device order, fuses every
    /// sample's features in sub-model order and journals the round once.
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
        let (senders, mut receivers): (Vec<_>, Vec<_>) = lanes.into_iter().unzip();

        let shared: Arc<[Tensor]> = Arc::from(inputs);
        let (done, finished) = mpsc::channel();
        for (device, (mut executor, tx)) in executors.into_iter().zip(senders).enumerate() {
            let inputs = Arc::clone(&shared);
            let work = Box::new(move || {
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
            });
            warm::dispatch((work, done.clone()))?;
        }
        drop(done);
        // Take each lane's one envelope before waiting for the devices: a TCP
        // send writes on the device thread, so a frame larger than the socket
        // buffers completes only while it is being read. A device sends one
        // envelope, so once every lane has delivered none is blocked. The
        // device dispatched last tends to finish last: reading it first
        // leaves this thread one wake-up to wait for, not one per lane.
        let mut delivered: Vec<LaneEvent> =
            receivers.iter_mut().rev().map(|rx| rx.recv()).collect();
        delivered.reverse();
        // Wait for every device before looking at any result.
        let completed = finished.iter().take(num_sub_models);
        if completed.filter(|&ok| ok).count() < num_sub_models {
            return Err(EdgeError::Runtime {
                message: "a device worker thread panicked".to_string(),
            });
        }
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

/// Device threads kept warm between one-shot rounds: a process-wide list of
/// parked threads, each waiting on its own job channel. A round hands each
/// device's job to a parked thread — or to a new one when none is idle, never
/// to a queue, because a TCP `send` blocks until the collector reads it and a
/// job queued behind a blocked one could never start.
mod warm {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc::{self, Sender};
    use std::sync::{Mutex, PoisonError};

    use crate::{EdgeError, Result};

    /// One device's share of a round: the work and where to report whether
    /// it finished — `false` when it panicked.
    pub(super) type Job = (Box<dyn FnOnce() + Send>, Sender<bool>);

    /// Job inboxes of the device threads parked right now. Every update is
    /// one `push` or `pop`, so the list is valid even if a holder panicked.
    static IDLE: Mutex<Vec<Sender<Job>>> = Mutex::new(Vec::new());

    /// Device threads started so far in this process.
    #[cfg(test)]
    pub(super) static SPAWNED: std::sync::atomic::AtomicUsize =
        std::sync::atomic::AtomicUsize::new(0);

    /// Starts `job` on a parked device thread, or on a new one.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::Runtime`] when no thread can be started.
    pub(super) fn dispatch(job: Job) -> Result<()> {
        let runtime = |message: String| EdgeError::Runtime { message };
        if let Some(inbox) = IDLE.lock().unwrap_or_else(PoisonError::into_inner).pop() {
            // A parked thread holds its own inbox, so it never hangs up.
            return inbox
                .send(job)
                .map_err(|_| runtime("a parked device thread is gone".to_string()));
        }
        let (inbox, jobs) = mpsc::channel::<Job>();
        let _ = inbox.send(job);
        // Detached on purpose: the thread serves jobs until the process
        // exits. Each job's panic is caught and reported as `false`, and the
        // thread parks itself again *before* reporting the job done, so the
        // caller's next round finds it idle.
        std::thread::Builder::new()
            .name("edvit-device".to_string())
            .spawn(move || {
                for (work, done) in &jobs {
                    let finished = catch_unwind(AssertUnwindSafe(work)).is_ok();
                    IDLE.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(inbox.clone());
                    let _ = done.send(finished);
                }
            })
            .map_err(|e| runtime(format!("cannot start a device thread: {e}")))?;
        #[cfg(test)]
        SPAWNED.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }
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
    use std::sync::atomic::Ordering;
    use std::sync::{Barrier, Mutex, PoisonError};
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
        // Each executor blocks until the other has started: two jobs queued
        // on one thread would never finish.
        let report = within_watchdog(|| {
            let started = Arc::new(Barrier::new(2));
            let executors: Vec<SubModelFn> = (0..2)
                .map(|_| {
                    let started = Arc::clone(&started);
                    let executor: SubModelFn = Box::new(move |_: &Tensor| {
                        started.wait();
                        Ok(Tensor::zeros(&[2]))
                    });
                    executor
                })
                .collect();
            let fusion: FusionFn = Box::new(|concat: &Tensor| Ok(concat.clone()));
            let runtime = ClusterRuntime::new(NetworkConfig::paper_default());
            run_round(&runtime, &[Tensor::zeros(&[1])], executors, fusion)
        });
        assert_eq!(report.expect("both devices finish").outputs[0].dims(), &[4]);
    }

    #[test]
    fn a_panicking_job_leaves_its_thread_parked_for_the_next_round() {
        let runtime = ClusterRuntime::new(NetworkConfig::paper_default());
        let _serial = ROUNDS.lock().unwrap_or_else(PoisonError::into_inner);
        let thread_of = Arc::new(Mutex::new(Vec::new()));
        let recording = |fail: bool| -> SubModelFn {
            let thread_of = Arc::clone(&thread_of);
            Box::new(move |_: &Tensor| {
                thread_of.lock().unwrap().push(std::thread::current().id());
                assert!(!fail, "executor blew up");
                Ok(Tensor::zeros(&[1]))
            })
        };
        let fusion = || -> FusionFn { Box::new(|concat: &Tensor| Ok(concat.clone())) };
        let inputs = [Tensor::zeros(&[1])];
        let err = runtime
            .run(&inputs, vec![recording(true)], fusion())
            .unwrap_err();
        assert!(
            matches!(&err, EdgeError::Runtime { message } if message == "a device worker thread panicked"),
            "{err}"
        );
        let report = runtime.run(&inputs, vec![recording(false)], fusion());
        assert_eq!(report.unwrap().outputs.len(), 1);
        let thread_of = thread_of.lock().unwrap();
        assert_eq!(thread_of.len(), 2);
        assert_eq!(
            thread_of[0], thread_of[1],
            "the panicked thread ran the next round"
        );
    }

    #[test]
    fn sequential_rounds_reuse_their_parked_threads() {
        let runtime = ClusterRuntime::new(NetworkConfig::paper_default());
        let _serial = ROUNDS.lock().unwrap_or_else(PoisonError::into_inner);
        let spawned_before = warm::SPAWNED.load(Ordering::Relaxed);
        for _ in 0..1_000 {
            let executors = vec![constant_executor(1.0, 2), constant_executor(2.0, 2)];
            let fusion: FusionFn = Box::new(|concat: &Tensor| Ok(concat.clone()));
            let report = runtime.run(&[Tensor::zeros(&[1])], executors, fusion);
            assert_eq!(report.unwrap().outputs[0].data(), &[1.0, 1.0, 2.0, 2.0]);
        }
        let spawned = warm::SPAWNED.load(Ordering::Relaxed) - spawned_before;
        assert!(
            spawned <= 2,
            "1 000 two-device rounds started {spawned} threads"
        );
    }
}
