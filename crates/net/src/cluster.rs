//! Multi-process cluster primitives: a fusion-side [`Coordinator`] that
//! admits workers via `Join` control frames, and a device-side
//! [`WorkerClient`] that streams rounds to it — the pieces
//! `examples/cluster_proc.rs` assembles into a cluster of real OS processes
//! on loopback.
//!
//! The coordinator's collection loop is the healthy-path twin of the
//! streaming scheduler's collector: frames are consumed round by round per
//! device, control frames pass the same [`ControlDeduper`], data frames
//! stash first-delivery-wins, and every sample fuses exactly once in
//! sub-model order — so a multi-process run produces bitwise-identical
//! outputs to the in-process sim run of the same deployment.

use std::collections::BTreeMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use bytes::Bytes;
use edvit_edge::{ControlDeduper, ControlKind, ControlMessage, WireFrame};
use edvit_tensor::Tensor;

use crate::framing::{read_envelope, write_envelope, Envelope};
use crate::tcp::{connect_with_backoff, CONNECT_ATTEMPTS};
use crate::{NetError, Result};

/// Read timeout armed on every accepted worker socket: generous enough for a
/// child process to train/compute, bounded so a hung worker cannot wedge the
/// drill past its CI timeout.
const WORKER_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One admitted worker connection, as the `Join` handshake described it.
#[derive(Debug)]
pub struct WorkerConn {
    /// Device id the worker announced.
    pub device_id: usize,
    /// Capacity the worker offered (FLOP/s).
    pub capacity_flops: f64,
    /// Encoded bytes of the join frame (already received).
    pub join_bytes: u64,
    stream: TcpStream,
}

/// Round structure of a collection run.
#[derive(Debug, Clone, Copy)]
pub struct RoundSpec {
    /// Samples per round (≥ 1).
    pub round_size: usize,
    /// Samples in the whole stream.
    pub total_samples: usize,
    /// Sub-models whose features every sample must fuse.
    pub num_sub_models: usize,
}

impl RoundSpec {
    fn total_rounds(&self) -> usize {
        self.total_samples.div_ceil(self.round_size.max(1))
    }

    fn round_span(&self, round: usize) -> std::ops::Range<usize> {
        let lo = round * self.round_size;
        let hi = (lo + self.round_size).min(self.total_samples);
        lo..hi
    }
}

/// What a multi-process collection run reports.
#[derive(Debug)]
pub struct ClusterReport {
    /// Fused output per input sample, in input order — every sample exactly
    /// once.
    pub outputs: Vec<Tensor>,
    /// Feature-batch data frames received.
    pub data_frames: usize,
    /// Control frames received (join + heartbeat + leave).
    pub control_frames: usize,
    /// Heartbeat frames among them.
    pub heartbeats_seen: u64,
    /// Encoded wire-frame bytes received (envelope framing not counted — the
    /// number prices the same quantity the sim scheduler's report does).
    pub bytes_on_wire: u64,
    /// Rounds each device closed with a fresh heartbeat or leave.
    pub per_device_rounds: BTreeMap<usize, u64>,
}

impl ClusterReport {
    /// Argmax prediction per sample, for classification-style fusion outputs.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Protocol`] if any output is empty.
    pub fn predictions(&self) -> Result<Vec<usize>> {
        self.outputs
            .iter()
            .map(|o| {
                o.argmax().map_err(|e| NetError::Protocol {
                    message: format!("empty fusion output: {e}"),
                })
            })
            .collect()
    }
}

/// The fusion-side listener: admits workers and collects their rounds.
#[derive(Debug)]
pub struct Coordinator {
    listener: TcpListener,
    addr: SocketAddr,
}

impl Coordinator {
    /// Binds a loopback listener on an OS-assigned port.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Bind`] when the OS refuses the socket.
    pub fn bind() -> Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| NetError::Bind {
            message: e.to_string(),
        })?;
        let addr = listener.local_addr().map_err(|e| NetError::Bind {
            message: e.to_string(),
        })?;
        Ok(Coordinator { listener, addr })
    }

    /// The address workers dial.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accepts exactly `count` workers, validating each one's `Join`
    /// handshake at the wire boundary (the decode path rejects e.g. a
    /// non-positive capacity offer). Connections may arrive in any order —
    /// the join frame, not the accept order, names the device.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Accept`] for socket failures or a worker that
    /// never completes its handshake, [`NetError::Protocol`] for a handshake
    /// that is not a valid join, and [`NetError::Protocol`] when two workers
    /// claim the same device id.
    pub fn accept_workers(&self, count: usize) -> Result<Vec<WorkerConn>> {
        let mut workers = Vec::with_capacity(count);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..count {
            let (stream, _) = self.listener.accept().map_err(|e| NetError::Accept {
                message: e.to_string(),
            })?;
            stream.set_nodelay(true).map_err(|e| NetError::io(&e))?;
            stream
                .set_read_timeout(Some(WORKER_READ_TIMEOUT))
                .map_err(|e| NetError::io(&e))?;
            let mut stream = stream;
            let envelope = read_envelope(&mut stream)
                .map_err(|e| NetError::Accept {
                    message: format!("worker handshake: {e}"),
                })?
                .ok_or_else(|| NetError::Accept {
                    message: "worker closed before its join handshake".to_string(),
                })?;
            let Envelope::Frame(frame) = envelope else {
                return Err(NetError::Protocol {
                    message: "worker opened with an error record, not a join frame".to_string(),
                });
            };
            let join_bytes = frame.len() as u64;
            let decoded = WireFrame::decode(frame).map_err(|e| NetError::Protocol {
                message: format!("worker handshake frame: {e}"),
            })?;
            let control = match decoded {
                WireFrame::Control(control) => control,
                other => {
                    return Err(NetError::Protocol {
                        message: format!(
                            "worker opened with a {} frame, expected a join",
                            other.kind_name()
                        ),
                    });
                }
            };
            if control.kind != ControlKind::Join {
                return Err(NetError::Protocol {
                    message: format!("worker opened with a {:?} control frame", control.kind),
                });
            }
            let device_id = control.device_id as usize;
            if !seen.insert(device_id) {
                return Err(NetError::Protocol {
                    message: format!("two workers claimed device id {device_id}"),
                });
            }
            workers.push(WorkerConn {
                device_id,
                capacity_flops: control.capacity_flops_per_second,
                join_bytes,
                stream,
            });
        }
        workers.sort_by_key(|w| w.device_id);
        Ok(workers)
    }

    /// Collects every round from the admitted workers and fuses each sample
    /// exactly once: the healthy path of the streaming scheduler's collector,
    /// over sockets. A device's round is closed by its fresh heartbeat (or
    /// leave), so the collector needs no per-device frame count; `fusion`
    /// maps a sample's concatenated feature vector (sub-model order) to its
    /// fused output.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when a worker connection dies mid-round,
    /// [`NetError::Protocol`] for non-conforming frames, duplicate fusion or
    /// an incomplete round, and propagates fusion failures as
    /// [`NetError::Protocol`].
    pub fn collect_rounds(
        workers: Vec<WorkerConn>,
        spec: &RoundSpec,
        fusion: &mut dyn FnMut(&Tensor) -> std::result::Result<Tensor, String>,
    ) -> Result<ClusterReport> {
        let mut report = ClusterReport {
            outputs: Vec::new(),
            data_frames: 0,
            control_frames: workers.len(),
            heartbeats_seen: 0,
            bytes_on_wire: workers.iter().map(|w| w.join_bytes).sum(),
            per_device_rounds: BTreeMap::new(),
        };
        let mut deduper = ControlDeduper::new();
        for worker in &workers {
            // Replay the handshake through the deduper so in-stream control
            // frames face the same monotonicity rules as in the scheduler.
            deduper.admit(worker.device_id as u32, ControlKind::Join, 0);
        }
        let mut streams: BTreeMap<usize, TcpStream> = workers
            .into_iter()
            .map(|w| (w.device_id, w.stream))
            .collect();
        // round -> sample -> (sub-model -> feature), first delivery wins.
        let mut partial: BTreeMap<usize, BTreeMap<usize, BTreeMap<u32, Tensor>>> = BTreeMap::new();
        let mut fused: Vec<Option<Tensor>> = vec![None; spec.total_samples];

        for round in 0..spec.total_rounds() {
            let expected_sequence = round as u64 + 1;
            for (&device, stream) in &mut streams {
                loop {
                    match next_frame(stream, device)? {
                        None => {
                            return Err(NetError::Io {
                                message: format!(
                                    "device {device} closed before finishing round {round}"
                                ),
                            })
                        }
                        Some(frame) => {
                            let closed = ingest(
                                frame,
                                device,
                                spec,
                                &mut deduper,
                                &mut partial,
                                &mut report,
                            )?;
                            if closed.is_some_and(|seq| seq >= expected_sequence) {
                                report
                                    .per_device_rounds
                                    .entry(device)
                                    .and_modify(|r| *r = (*r).max(expected_sequence))
                                    .or_insert(expected_sequence);
                                break;
                            }
                        }
                    }
                }
            }
            fuse_round(round, spec, &mut partial, &mut fused, fusion)?;
        }

        // Graceful tail: drain the leave announcements down to EOF.
        for (&device, stream) in &mut streams {
            while let Some(frame) = next_frame(stream, device)? {
                ingest(frame, device, spec, &mut deduper, &mut partial, &mut report)?;
            }
        }

        report.outputs = fused
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.ok_or_else(|| NetError::Protocol {
                    message: format!("sample {i} was never fused"),
                })
            })
            .collect::<Result<Vec<Tensor>>>()?;
        Ok(report)
    }
}

/// Reads the next wire frame from a worker socket; `None` is a clean EOF.
fn next_frame(stream: &mut TcpStream, device: usize) -> Result<Option<Bytes>> {
    match read_envelope(stream) {
        Ok(Some(Envelope::Frame(frame))) => Ok(Some(frame)),
        Ok(Some(Envelope::Error(message))) => Err(NetError::Protocol {
            message: format!("device {device} reported: {message}"),
        }),
        Ok(None) => Ok(None),
        Err(e) => Err(NetError::Io {
            message: format!("device {device}: {e}"),
        }),
    }
}

/// Decodes and accounts one frame; returns the closing sequence when it was a
/// fresh heartbeat or leave.
fn ingest(
    encoded: Bytes,
    device: usize,
    spec: &RoundSpec,
    deduper: &mut ControlDeduper,
    partial: &mut BTreeMap<usize, BTreeMap<usize, BTreeMap<u32, Tensor>>>,
    report: &mut ClusterReport,
) -> Result<Option<u64>> {
    report.bytes_on_wire += encoded.len() as u64;
    let frame = WireFrame::decode(encoded).map_err(|e| NetError::Protocol {
        message: format!("device {device}: {e}"),
    })?;
    match frame {
        WireFrame::Control(control) => {
            report.control_frames += 1;
            let fresh = deduper.admit(control.device_id, control.kind, control.sequence);
            match control.kind {
                ControlKind::Heartbeat => {
                    report.heartbeats_seen += 1;
                    Ok(fresh.then_some(control.sequence))
                }
                ControlKind::Leave => Ok(fresh.then_some(control.sequence)),
                ControlKind::Join => Ok(None),
            }
        }
        WireFrame::FeatureBatch(batch) => {
            report.data_frames += 1;
            let sub_model = batch.sub_model;
            for single in batch.into_messages() {
                let sample = single.sample_index as usize;
                if sample >= spec.total_samples {
                    return Err(NetError::Protocol {
                        message: format!(
                            "device {device} shipped sample {sample} beyond the stream of {}",
                            spec.total_samples
                        ),
                    });
                }
                let round = sample / spec.round_size.max(1);
                partial
                    .entry(round)
                    .or_default()
                    .entry(sample)
                    .or_default()
                    .entry(sub_model)
                    .or_insert_with(|| single.into_tensor());
            }
            Ok(None)
        }
        WireFrame::Feature(_) => Err(NetError::Protocol {
            message: format!("device {device} shipped a single-feature frame, expected batches"),
        }),
    }
}

/// Fuses one complete round; every output slot is written exactly once.
fn fuse_round(
    round: usize,
    spec: &RoundSpec,
    partial: &mut BTreeMap<usize, BTreeMap<usize, BTreeMap<u32, Tensor>>>,
    fused: &mut [Option<Tensor>],
    fusion: &mut dyn FnMut(&Tensor) -> std::result::Result<Tensor, String>,
) -> Result<()> {
    let span = spec.round_span(round);
    let samples = partial.remove(&round).unwrap_or_default();
    if span.len() != samples.len()
        || samples
            .values()
            .any(|features| features.len() != spec.num_sub_models)
    {
        return Err(NetError::Protocol {
            message: format!(
                "round {round} incomplete after every device heartbeat: {}/{} samples present",
                samples.len(),
                span.len()
            ),
        });
    }
    for (sample, features) in samples {
        if fused.get(sample).is_none_or(Option::is_some) {
            return Err(NetError::Protocol {
                message: format!("sample {sample} would be fused twice or is out of range"),
            });
        }
        let refs: Vec<&Tensor> = features.values().collect();
        let concatenated = Tensor::concat_last_axis(&refs).map_err(|e| NetError::Protocol {
            message: format!("feature concatenation failed: {e}"),
        })?;
        let output = fusion(&concatenated).map_err(|message| NetError::Protocol { message })?;
        fused[sample] = Some(output);
    }
    Ok(())
}

/// Device-side client: joins the coordinator and streams rounds to it.
#[derive(Debug)]
pub struct WorkerClient {
    stream: TcpStream,
    device_id: usize,
    completed: u64,
}

impl WorkerClient {
    /// Dials the coordinator (with the round-denominated backoff schedule)
    /// and announces this device with a `Join` frame. `capacity_flops` must
    /// be positive — the wire decode path rejects a non-positive offer.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Connect`] when the coordinator stays unreachable
    /// and [`NetError::Io`] when the handshake write fails.
    pub fn connect(addr: &SocketAddr, device_id: usize, capacity_flops: f64) -> Result<Self> {
        let stream = connect_with_backoff(addr, CONNECT_ATTEMPTS)?;
        stream.set_nodelay(true).map_err(|e| NetError::io(&e))?;
        let mut client = WorkerClient {
            stream,
            device_id,
            completed: 0,
        };
        let join = ControlMessage::join(device_id, capacity_flops).encode();
        client.send_frame(&join)?;
        Ok(client)
    }

    /// The device id this client announced.
    pub fn device_id(&self) -> usize {
        self.device_id
    }

    /// Ships one encoded wire frame.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the socket write fails.
    pub fn send_frame(&mut self, frame: &Bytes) -> Result<()> {
        write_envelope(&mut self.stream, &Envelope::Frame(frame.clone()))
            .map_err(|e| NetError::io(&e))
    }

    /// Closes the current round with a heartbeat; returns the new completed
    /// sequence.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the socket write fails.
    pub fn heartbeat(&mut self, capacity_flops: f64) -> Result<u64> {
        self.completed += 1;
        let beat =
            ControlMessage::heartbeat(self.device_id, self.completed, capacity_flops).encode();
        self.send_frame(&beat)?;
        Ok(self.completed)
    }

    /// Reports a fatal worker-side failure in-band, then closes.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the socket write fails.
    pub fn fail(mut self, message: String) -> Result<()> {
        write_envelope(&mut self.stream, &Envelope::Error(message))
            .map_err(|e| NetError::io(&e))?;
        self.stream
            .shutdown(Shutdown::Write)
            .map_err(|e| NetError::io(&e))
    }

    /// Announces a graceful departure and half-closes the connection, so the
    /// coordinator's EOF lands after the leave frame.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the socket write fails.
    pub fn leave(mut self) -> Result<()> {
        let leave = ControlMessage::leave(self.device_id, self.completed).encode();
        self.send_frame(&leave)?;
        self.stream
            .shutdown(Shutdown::Write)
            .map_err(|e| NetError::io(&e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edvit_edge::{FeatureBatchMessage, PayloadCodec};

    /// Streams `total_samples` constant-feature samples from `devices` worker
    /// threads through a coordinator, one frame + heartbeat per round.
    fn run_cluster(devices: usize, spec: RoundSpec) -> ClusterReport {
        let coordinator = Coordinator::bind().unwrap();
        let addr = coordinator.local_addr();
        let mut handles = Vec::new();
        for device in 0..devices {
            handles.push(std::thread::spawn(move || {
                let mut client = WorkerClient::connect(&addr, device, 1.0e9).unwrap();
                assert_eq!(client.device_id(), device);
                for round in 0..spec.total_samples.div_ceil(spec.round_size) {
                    let lo = round * spec.round_size;
                    let hi = (lo + spec.round_size).min(spec.total_samples);
                    let mut batch = FeatureBatchMessage::new(device, 2);
                    for sample in lo..hi {
                        let feature = Tensor::full(&[2], (device * 100 + sample) as f32);
                        batch.push_tensor(sample, &feature).unwrap();
                    }
                    client
                        .send_frame(&batch.encode_with(PayloadCodec::F32))
                        .unwrap();
                    client.heartbeat(1.0e9).unwrap();
                }
                client.leave().unwrap();
            }));
        }
        let workers = coordinator.accept_workers(devices).unwrap();
        let report =
            Coordinator::collect_rounds(workers, &spec, &mut |concat: &Tensor| Ok(concat.clone()))
                .unwrap();
        for handle in handles {
            handle.join().unwrap();
        }
        report
    }

    #[test]
    fn three_workers_stream_rounds_to_exactly_once_fusion() {
        let spec = RoundSpec {
            round_size: 2,
            total_samples: 5,
            num_sub_models: 3,
        };
        let report = run_cluster(3, spec);
        assert_eq!(report.outputs.len(), 5);
        // Sub-model order fusion: device 0's feature comes first.
        assert_eq!(
            report.outputs[3].data(),
            &[3.0, 3.0, 103.0, 103.0, 203.0, 203.0]
        );
        // 3 rounds of (one frame + one heartbeat) per device, plus join/leave.
        assert_eq!(report.data_frames, 9);
        assert_eq!(report.heartbeats_seen, 9);
        assert_eq!(report.control_frames, 3 + 9 + 3);
        assert_eq!(
            report.per_device_rounds,
            BTreeMap::from([(0, 3), (1, 3), (2, 3)])
        );
        assert!(report.bytes_on_wire > 0);
        assert_eq!(report.predictions().unwrap().len(), 5);
    }

    #[test]
    fn duplicate_device_ids_are_rejected_at_admission() {
        let coordinator = Coordinator::bind().unwrap();
        let addr = coordinator.local_addr();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(move || {
                    // Both claim device 0; admission must refuse the second.
                    let _client = WorkerClient::connect(&addr, 0, 1.0);
                })
            })
            .collect();
        let err = coordinator.accept_workers(2).unwrap_err();
        assert!(matches!(err, NetError::Protocol { .. }), "{err}");
        assert!(err.to_string().contains("device id 0"), "{err}");
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    fn a_worker_dying_mid_round_surfaces_as_an_io_error() {
        let spec = RoundSpec {
            round_size: 1,
            total_samples: 2,
            num_sub_models: 1,
        };
        let coordinator = Coordinator::bind().unwrap();
        let addr = coordinator.local_addr();
        let handle = std::thread::spawn(move || {
            // Join, then vanish without ever closing a round.
            let client = WorkerClient::connect(&addr, 0, 1.0).unwrap();
            drop(client);
        });
        let workers = coordinator.accept_workers(1).unwrap();
        let err = Coordinator::collect_rounds(workers, &spec, &mut |c: &Tensor| Ok(c.clone()))
            .unwrap_err();
        assert!(matches!(err, NetError::Io { .. }), "{err}");
        handle.join().unwrap();
    }
}
