//! The fusion side of the stream-round protocol: the one collector every
//! wiring runs — in-process lanes on either transport, or lanes a
//! coordinator accepted from worker processes.
//!
//! # Consumption order
//!
//! The collector consumes the per-device lanes *round by round*: for round
//! *k* it drains every device's frames, in device order, up to and including
//! that round's heartbeat, then fuses the round. Consumption order, not OS
//! scheduling or arrival order, therefore decides what the collector
//! observes — which keeps failure detection and the journal deterministic. A
//! device death (scripted or real) silences its sender; the collector sees
//! the disconnect exactly when it needs the dead device's next round and
//! declares the death (the [`HealthTracker`](crate::HealthTracker) records
//! the device's last heartbeat and terminal state). The exactly-once check on
//! the output slots makes duplication a hard error rather than a silent
//! possibility.
//!
//! # Lane identity
//!
//! A frame is validated against the lane it arrived on before anything else
//! believes it: a feature batch must belong to a sub-model the plan assigns
//! to the lane's device, and a control frame must name the lane's device.
//! Anything else is an [`EdgeError::Protocol`] — never stashed, never shown
//! to the health tracker or the deduper — so one device can neither ship
//! another's features first (first delivery wins) nor retire it with a
//! forged leave.
//!
//! # Fault handling
//!
//! The collector applies a deterministic [`FaultScript`](crate::FaultScript) to the bytes it
//! receives *before* decoding them — the same place a lossy link would bite.
//! A corrupted, truncated or eaten data frame is a failed delivery: the
//! collector re-requests it (the script indexes faults by attempt, so a
//! re-request can fail again) up to [`StreamConfig::max_retries`] times, each
//! retry priced at the analytic
//! [`StreamTiming::retry_backoff_seconds`](edvit_edge::StreamTiming) backoff.
//! A frame still failing past the budget escalates to device death — the same
//! terminal path a crash takes. Duplicated deliveries are absorbed:
//! feature frames by first-delivery-wins slot stashing, control frames by a
//! per-epoch [`ControlDeduper`] enforcing strict sequence monotonicity.
//!
//! [`StreamConfig::max_retries`]: crate::StreamConfig::max_retries

use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use edvit_edge::{
    ControlDeduper, ControlKind, EdgeError, FeatureBatchMessage, FusionFn, WireFrame,
};
use edvit_metrics::RunEvent;
use edvit_net::{FrameRx, LaneEvent};
use edvit_tensor::Tensor;

use crate::epoch::{Epoch, EpochOutcome, Run};
use crate::faults::{apply_fault, FaultedDelivery, FrameFault, FrameSlot};
use crate::{Result, SchedError};

/// How the collector disposed of one delivery.
enum Seen {
    /// A fresh heartbeat or leave: closes rounds up to its sequence.
    Closes(u64),
    Other,
    /// The link is dead: the frame's retry budget ran out, or the lane
    /// closed before the round's heartbeat (its deadline passed).
    Dead,
}

/// One sub-model's features for one round, as delivered: slot `i` is the
/// round's `i`-th sample, held as the decoded frame that first delivered it
/// and the row it occupies there. The frame is shared by every slot it
/// filled, so stashing a delivery copies no feature value.
type StashedRows = Vec<Option<(Rc<FeatureBatchMessage>, usize)>>;

/// The collector's per-epoch state: fault cursors, dedupe, the partial-round
/// stash and the outcome under construction.
struct Collector<'a> {
    epoch: &'a Epoch<'a>,
    run: &'a mut Run,
    deduper: ControlDeduper,
    /// Frames received so far per device — the positional identity that maps
    /// a delivery to its `(round, slot)` fault key.
    cursor: BTreeMap<usize, u64>,
    /// round -> sub-model -> the round's stashed rows, ordered so fusion
    /// walks sub-models in index order.
    partial: BTreeMap<u64, BTreeMap<u32, StashedRows>>,
    outcome: EpochOutcome,
}

impl Collector<'_> {
    /// Maps the next frame from `device` to its fault key: the frame's
    /// position in the device's send order pins it to a round and slot
    /// (k data frames then a heartbeat per round, after the initial join and
    /// before the final leave — those two carry no fault key).
    fn fault_key(&mut self, device: usize) -> Option<(u64, FrameSlot)> {
        let index = self.cursor.entry(device).or_insert(0);
        let my_index = *index;
        *index += 1;
        if my_index == 0 {
            return None; // the join announcement
        }
        let hosted = self
            .epoch
            .frames_per_round
            .get(&device)
            .copied()
            .unwrap_or(0);
        let per_round = hosted + 1;
        let idx = my_index - 1;
        let round_pos = (idx / per_round) as usize;
        let offset = idx % per_round;
        if round_pos >= self.epoch.rounds.len() {
            return None; // the leave announcement
        }
        let slot = if offset == hosted {
            FrameSlot::Heartbeat
        } else {
            FrameSlot::Data(offset as u32)
        };
        Some((self.epoch.rounds[round_pos], slot))
    }

    /// Records one of the epoch's events, stamped with the epoch-start time.
    fn record(&mut self, event: RunEvent) {
        self.run.ledger.record(self.epoch.at, event);
    }

    /// Charges one delivery's bytes to its sender. Every frame that
    /// travelled is charged — including mutated copies, eaten data frames
    /// and lost beacons.
    fn account(&mut self, device: usize, bytes: u64) {
        self.record(RunEvent::Delivery {
            device: device as u64,
            bytes,
        });
    }

    /// Runs one delivery through the fault script: clean frames ingest
    /// directly; duplicates ingest twice (the copy hits the dedupers); a
    /// lost heartbeat is a lost beacon; corrupt, truncated or lost data
    /// frames burn retry attempts until the script exhausts (clean
    /// re-delivery) or the budget does (escalation).
    fn process(&mut self, pristine: Bytes, device: usize) -> Result<Seen> {
        let config = self.epoch.config;
        let key = self.fault_key(device);
        let mut attempt: u32 = 0;
        loop {
            let fault = key
                .and_then(|(round, slot)| config.faults.fault_for(device, round, slot, attempt))
                .copied();
            match fault {
                None => return self.ingest(pristine, device),
                Some(FrameFault::Duplicate) => {
                    let seen = self.ingest(pristine.clone(), device)?;
                    self.ingest(pristine, device)?;
                    return Ok(seen);
                }
                Some(FrameFault::Drop) if matches!(key, Some((_, FrameSlot::Heartbeat))) => {
                    // The link ate a beacon — after it travelled, so its
                    // bytes are still charged to the sender. Beacons are not
                    // re-requested: the next fresh beacon (or the leave)
                    // closes the round.
                    self.account(device, pristine.len() as u64);
                    self.record(RunEvent::DroppedHeartbeat {
                        device: device as u64,
                    });
                    return Ok(Seen::Other);
                }
                Some(fault) => {
                    match apply_fault(&fault, &pristine) {
                        FaultedDelivery::Deliver(mutated)
                        | FaultedDelivery::DeliverTwice(mutated) => {
                            match self.ingest(mutated, device) {
                                // The wire layer caught the damage (checksum,
                                // decode or lane-identity failure): a failed
                                // delivery.
                                Err(SchedError::Edge(_)) => {
                                    self.record(RunEvent::CorruptFrame {
                                        device: device as u64,
                                    });
                                }
                                // A mutation the codec happened to survive
                                // delivers as-is.
                                Ok(seen) => return Ok(seen),
                                Err(e) => return Err(e),
                            }
                        }
                        FaultedDelivery::Dropped => {
                            // An eaten data frame travelled to the drop
                            // point: charge its bytes before re-requesting.
                            self.account(device, pristine.len() as u64);
                            self.record(RunEvent::CorruptFrame {
                                device: device as u64,
                            });
                        }
                    }
                    attempt += 1;
                    if attempt > config.max_retries {
                        return Ok(Seen::Dead);
                    }
                    self.outcome.retry_attempts.push(attempt);
                    self.record(RunEvent::Retry {
                        device: device as u64,
                        attempt: u64::from(attempt),
                    });
                }
            }
        }
    }

    /// Decodes and accounts one delivered frame: control frames pass the
    /// sequence deduper and update the health tracker, data frames are
    /// stashed for fusion first-delivery-wins — each only after the frame's
    /// claim matches the lane (`device`) it arrived on.
    fn ingest(&mut self, encoded: Bytes, device: usize) -> Result<Seen> {
        self.account(device, encoded.len() as u64);
        match WireFrame::decode(encoded).map_err(SchedError::Edge)? {
            WireFrame::Control(control) => {
                if control.device_id as usize != device {
                    return Err(wrong_lane(
                        device,
                        format!(
                            "a {:?} control frame for device {}",
                            control.kind, control.device_id
                        ),
                    ));
                }
                self.record(RunEvent::ControlFrame {
                    device: device as u64,
                });
                let fresh = self
                    .deduper
                    .admit(control.device_id, control.kind, control.sequence);
                if control.kind == ControlKind::Heartbeat {
                    self.record(RunEvent::Heartbeat {
                        device: device as u64,
                        sequence: control.sequence,
                    });
                    // The tracker sees every beacon and says which are stale;
                    // only a deduper-fresh beacon closes rounds.
                    if !self.run.tracker.observe_heartbeat(device, control.sequence) {
                        self.record(RunEvent::StaleHeartbeat {
                            device: device as u64,
                        });
                    }
                }
                if !fresh {
                    // A replay or stale reordering the deduper rejected.
                    self.record(RunEvent::StaleControlFrame {
                        device: device as u64,
                    });
                    return Ok(Seen::Other);
                }
                match control.kind {
                    ControlKind::Join => {
                        self.run.tracker.observe_join(device);
                        Ok(Seen::Other)
                    }
                    ControlKind::Heartbeat => Ok(Seen::Closes(control.sequence)),
                    ControlKind::Leave => {
                        self.run.tracker.observe_leave(device, control.sequence);
                        Ok(Seen::Closes(control.sequence))
                    }
                }
            }
            WireFrame::FeatureBatch(batch) => {
                let owner = self.epoch.owners.get(batch.sub_model as usize);
                if owner != Some(&Some(device)) {
                    return Err(wrong_lane(
                        device,
                        format!(
                            "features of sub-model {}, hosted elsewhere",
                            batch.sub_model
                        ),
                    ));
                }
                self.record(RunEvent::DataFrame {
                    device: device as u64,
                });
                let layout = self.epoch.layout;
                let batch = Rc::new(batch);
                let mut stashed = false;
                let mut duplicated = false;
                for (row, &sample) in batch.sample_indices.iter().enumerate() {
                    let sample = sample as usize;
                    let Some(round) = layout.round_of(sample) else {
                        return Err(SchedError::Runtime {
                            message: format!(
                                "frame references sample {sample} beyond the stream of {}",
                                layout.total_samples()
                            ),
                        });
                    };
                    let span = layout.span(round);
                    let rows = self
                        .partial
                        .entry(round)
                        .or_default()
                        .entry(batch.sub_model)
                        .or_insert_with(|| vec![None; span.len()]);
                    let slot = &mut rows[sample - span.start];
                    if slot.is_none() {
                        *slot = Some((Rc::clone(&batch), row));
                        stashed = true;
                    } else {
                        // First delivery wins; a re-delivered feature can
                        // only echo what is already stashed.
                        duplicated = true;
                    }
                }
                if stashed {
                    let dim = batch.feature_dim as usize;
                    self.run.known_dims.insert(batch.sub_model, dim);
                }
                if duplicated {
                    self.record(RunEvent::DuplicateFrame {
                        device: device as u64,
                    });
                }
                Ok(Seen::Other)
            }
        }
    }

    /// Fuses `round`, which must be complete for every *hosted* sub-model
    /// (guaranteed once every device delivered its heartbeat for the round).
    /// Missing sub-models are zero-filled at their recorded width so the
    /// concat layout — and with it the fusion function's input contract —
    /// stays stable across degraded rounds. Each output slot is written
    /// exactly once; a second write is a hard error.
    fn fuse(&mut self, round: u64, fusion: &mut FusionFn) -> Result<()> {
        let epoch = self.epoch;
        let missing_dims = &epoch.missing_dims;
        let span = epoch.layout.span(round);
        let stash = self.partial.remove(&round).unwrap_or_default();
        let hosted = epoch.owners.iter().flatten().count();
        let delivered = |offset: usize| stash.values().filter(move |rows| rows[offset].is_some());
        if (0..span.len()).any(|offset| delivered(offset).count() != hosted) {
            return Err(SchedError::Runtime {
                message: format!(
                    "round {round} incomplete after every device heartbeat: {}/{} samples present",
                    (0..span.len())
                        .filter(|&offset| delivered(offset).next().is_some())
                        .count(),
                    span.len()
                ),
            });
        }
        // What each sample's fusion input is assembled from, in sub-model
        // order: a stashed sub-model's rows, and/or the width a missing one is
        // zero-filled at (a delivered row always wins over the zero-fill).
        let mut sources: BTreeMap<u32, (Option<&StashedRows>, usize)> = stash
            .iter()
            .map(|(&sub, rows)| (sub, (Some(rows), 0)))
            .collect();
        for &(sub, dim) in missing_dims {
            sources.entry(sub).or_insert((None, 0)).1 = dim;
        }
        let mut fused_dim = 0;
        for (offset, sample) in span.clone().enumerate() {
            if self.run.fused[sample].is_some() {
                return Err(SchedError::Runtime {
                    message: format!(
                        "sample {sample} would be fused twice (round {round} replayed after it \
                         was already complete)"
                    ),
                });
            }
            let mut concatenated = Vec::with_capacity(fused_dim);
            for &(rows, zero_fill) in sources.values() {
                match rows.and_then(|rows| rows[offset].as_ref()) {
                    Some((batch, row)) => concatenated.extend_from_slice(batch.feature_row(*row)),
                    None => concatenated.resize(concatenated.len() + zero_fill, 0.0),
                }
            }
            fused_dim = concatenated.len();
            let concatenated =
                Tensor::from_vec(concatenated, &[fused_dim]).map_err(|e| SchedError::Runtime {
                    message: format!("feature concatenation failed: {e}"),
                })?;
            let output =
                fusion(&concatenated).map_err(|message| SchedError::Runtime { message })?;
            self.run.fused[sample] = Some(output);
        }
        self.record(RunEvent::RoundFused {
            round,
            samples: span.len() as u64,
            degraded: !missing_dims.is_empty(),
        });
        Ok(())
    }

    /// The terminal path a crash and an exhausted retry budget share.
    fn declare_dead(&mut self, device: usize) {
        self.run.tracker.declare_dead(device);
        self.outcome.newly_dead.push(device);
        self.record(RunEvent::DeviceDead {
            device: device as u64,
        });
    }
}

/// The protocol error of a frame whose claim does not match its lane.
fn wrong_lane(device: usize, carried: String) -> SchedError {
    SchedError::Edge(EdgeError::Protocol {
        message: format!("the lane of device {device} carried {carried}"),
    })
}

/// The fusion worker's epoch loop: drain every device up to round *k*'s
/// heartbeat (or leave, when a beacon was lost), fuse round *k*, repeat. A
/// closed lane before a device closes the current round — or a frame whose
/// retry budget ran out — is that device's death. A scripted join barrier
/// ends the epoch early with the fused frontier as the checkpoint.
///
/// `produced_max` is how far any producer has run, where the caller can see
/// that (in-process workers); it only feeds the scheduling-dependent
/// `max_in_flight` statistic — timing and replay accounting never read it,
/// so they stay deterministic.
pub(crate) fn collect_epoch(
    epoch: &Epoch<'_>,
    mut lanes: BTreeMap<usize, Box<dyn FrameRx>>,
    fusion: &mut FusionFn,
    produced_max: &AtomicU64,
    run: &mut Run,
) -> Result<EpochOutcome> {
    for &device in lanes.keys() {
        run.tracker.register(device);
    }
    let mut collector = Collector {
        epoch,
        run,
        deduper: ControlDeduper::new(),
        cursor: BTreeMap::new(),
        partial: BTreeMap::new(),
        outcome: EpochOutcome::default(),
    };

    'rounds: for (position, &round) in epoch.rounds.iter().enumerate() {
        if epoch.join_barrier.is_some_and(|at| round >= at) {
            collector.outcome.join_due = true;
            break 'rounds;
        }
        let expected_sequence = position as u64 + 1;
        for (&device, rx) in &mut lanes {
            loop {
                let seen = match rx.recv() {
                    LaneEvent::Frame(frame) => collector.process(frame, device)?,
                    // The device reported a fatal executor failure in-band;
                    // the stream must abort, not repartition around it.
                    LaneEvent::PeerError(message) => {
                        return Err(SchedError::Runtime { message });
                    }
                    LaneEvent::Closed => Seen::Dead,
                };
                match seen {
                    Seen::Closes(seq) if seq >= expected_sequence => break,
                    Seen::Closes(_) | Seen::Other => {}
                    Seen::Dead => {
                        collector.declare_dead(device);
                        break 'rounds;
                    }
                }
            }
        }
        // Every device delivered the round; the in-flight window is however
        // far the fastest producer has run ahead of fusion.
        let produced = produced_max.load(Ordering::Relaxed) as usize;
        collector.outcome.max_in_flight = collector
            .outcome
            .max_in_flight
            .max(produced.saturating_sub(collector.outcome.rounds_fused));
        collector.fuse(round, fusion)?;
        collector.outcome.rounds_fused += 1;
    }

    if collector.outcome.newly_dead.is_empty() && !collector.outcome.join_due {
        // Graceful tail: consume the leave announcements down to lane close.
        for (&device, rx) in &mut lanes {
            loop {
                match rx.recv() {
                    LaneEvent::Frame(frame) => {
                        collector.process(frame, device)?;
                    }
                    LaneEvent::PeerError(message) => {
                        return Err(SchedError::Runtime { message });
                    }
                    LaneEvent::Closed => break,
                }
            }
        }
    } else if !collector.outcome.newly_dead.is_empty()
        && collector.outcome.rounds_fused < epoch.rounds.len()
    {
        // The replay set is what was in flight *at the fusion worker* when
        // the death was declared: exactly the round under collection (earlier
        // rounds were fused and removed, later rounds were never ingested —
        // any frames for them still queued in survivor lanes are dropped
        // unread when the receivers fall at return, which also unblocks any
        // survivor still in `send`). Deriving this from the collector's
        // deterministic consumption order — never from how far worker
        // threads happened to race ahead — keeps `samples_replayed` and
        // `recovery_seconds` reproducible run to run and machine to machine.
        collector.outcome.partial_rounds = vec![epoch.rounds[collector.outcome.rounds_fused]];
    }
    // A join barrier keeps the fused frontier as its checkpoint: rounds past
    // the barrier replay on the new membership without a replay charge.
    for &device in lanes.keys() {
        let rounds = collector.run.tracker.sequence_of(device);
        collector.record(RunEvent::DeviceRounds {
            device: device as u64,
            rounds,
        });
    }
    Ok(collector.outcome)
}
