//! The `Transport` trait — the seam between the round executors (the
//! one-shot [`crate::ClusterRuntime`] here, the streaming scheduler in
//! `edvit-sched`) and whatever actually carries their frames — and the
//! deterministic [`SimTransport`] backend.
//!
//! A transport hands out *lanes*: one ordered, bounded, device→fusion byte
//! pipe per peer. An executor's contract with a lane is deliberately
//! minimal and identical across backends:
//!
//! * the sender ships encoded wire-v2 frames in order; `send` **blocks**
//!   while the lane is full (a sim lane at `capacity` undrained frames, a
//!   TCP lane when the kernel's socket buffers are);
//! * the receiver observes the same frames in the same order, then exactly
//!   one [`LaneEvent::Closed`] — whether the peer left gracefully, crashed,
//!   or went silent past the heartbeat deadline. The scheduler cannot (and
//!   must not) distinguish those cases at the transport level: "the next
//!   heartbeat never arrived" is the one failure signal, exactly as in the
//!   channel-based implementation this trait was extracted from;
//! * a peer-side executor failure travels in-band as
//!   [`LaneEvent::PeerError`] and aborts the stream.
//!
//! [`SimTransport`] is the bit-identical twin of the scheduler's original
//! hard-wired channel plumbing: bounded channels, disconnect-as-death, no
//! wall clock anywhere. `edvit_net::TcpTransport` carries the same contract
//! over loopback sockets.

use bytes::Bytes;
use std::sync::mpsc;

use crate::{Result, TransportKind};

/// What a lane receiver observes next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaneEvent {
    /// An encoded wire-v2 frame arrived.
    Frame(Bytes),
    /// The peer reported a runtime error; the stream must abort.
    PeerError(String),
    /// The lane is finished: graceful close, crash, or heartbeat deadline —
    /// all equivalent to the scheduler.
    Closed,
}

/// The receiving half of a lane went away; the sender should stop quietly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneClosed;

/// Device-side half of a lane.
pub trait FrameTx: Send {
    /// Ships one encoded frame, blocking while the lane is full: `capacity`
    /// undrained frames on a sim lane, full socket buffers on a TCP lane.
    ///
    /// # Errors
    ///
    /// Returns [`LaneClosed`] when the receiving side is gone.
    fn send(&self, frame: Bytes) -> std::result::Result<(), LaneClosed>;

    /// Reports a fatal peer-side error in-band.
    ///
    /// # Errors
    ///
    /// Returns [`LaneClosed`] when the receiving side is gone.
    fn send_error(&self, message: String) -> std::result::Result<(), LaneClosed>;
}

/// Fusion-side half of a lane.
pub trait FrameRx: Send {
    /// Blocks for the next lane event. After the first [`LaneEvent::Closed`]
    /// every further call returns `Closed` again.
    fn recv(&mut self) -> LaneEvent;
}

/// A frame carrier: hands out one lane per peer and maps the scheduler's
/// round-denominated liveness deadline onto whatever clock it runs on.
pub trait Transport: Send {
    /// Opens the lane to `peer`, bounded at `capacity` undrained frames on a
    /// sim lane (a TCP lane is bounded by its socket buffers).
    ///
    /// # Errors
    ///
    /// Returns [`crate::EdgeError::Runtime`] when the backend cannot stand
    /// the lane up (socket connect/accept failures; the sim backend is
    /// infallible).
    fn open_lane(
        &mut self,
        peer: usize,
        capacity: usize,
    ) -> Result<(Box<dyn FrameTx>, Box<dyn FrameRx>)>;

    /// Installs the heartbeat deadline for lanes opened afterwards, given in
    /// the scheduler's native unit: a device whose next frame is
    /// `grace_rounds + 1` round intervals overdue is dead. The sim backend
    /// ignores this (its virtual clock charges the deadline analytically);
    /// the TCP backend maps it to a socket read timeout.
    fn set_round_deadline(&mut self, grace_rounds: u64, round_interval_seconds: f64);

    /// Which backend this is, for reports.
    fn kind(&self) -> TransportKind;
}

/// What travels through a sim lane: the same `Result<Bytes, String>` the
/// scheduler's original channel carried.
enum LaneItem {
    Frame(Bytes),
    Error(String),
}

/// The deterministic in-process backend: bounded `std::sync::mpsc` channels with
/// disconnect-as-death semantics, bit-identical to the plumbing the
/// [`Transport`] trait was extracted from.
#[derive(Debug, Default)]
pub struct SimTransport;

impl SimTransport {
    /// Creates the sim backend (stateless — every lane is independent).
    pub fn new() -> Self {
        SimTransport
    }
}

struct SimTx {
    tx: mpsc::SyncSender<LaneItem>,
}

struct SimRx {
    rx: mpsc::Receiver<LaneItem>,
}

impl FrameTx for SimTx {
    fn send(&self, frame: Bytes) -> std::result::Result<(), LaneClosed> {
        self.tx.send(LaneItem::Frame(frame)).map_err(|_| LaneClosed)
    }

    fn send_error(&self, message: String) -> std::result::Result<(), LaneClosed> {
        self.tx
            .send(LaneItem::Error(message))
            .map_err(|_| LaneClosed)
    }
}

impl FrameRx for SimRx {
    fn recv(&mut self) -> LaneEvent {
        match self.rx.recv() {
            Ok(LaneItem::Frame(frame)) => LaneEvent::Frame(frame),
            Ok(LaneItem::Error(message)) => LaneEvent::PeerError(message),
            Err(_) => LaneEvent::Closed,
        }
    }
}

impl Transport for SimTransport {
    fn open_lane(
        &mut self,
        _peer: usize,
        capacity: usize,
    ) -> Result<(Box<dyn FrameTx>, Box<dyn FrameRx>)> {
        let (tx, rx) = mpsc::sync_channel::<LaneItem>(capacity);
        Ok((Box::new(SimTx { tx }), Box::new(SimRx { rx })))
    }

    fn set_round_deadline(&mut self, _grace_rounds: u64, _round_interval_seconds: f64) {
        // Virtual time: the scheduler charges the deadline analytically and a
        // dead peer surfaces as a channel disconnect, so there is nothing to
        // arm here.
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_lane_preserves_order_and_closes_on_drop() {
        let mut transport = SimTransport::new();
        let (tx, mut rx) = transport.open_lane(0, 8).unwrap();
        tx.send(Bytes::copy_from_slice(b"one")).unwrap();
        tx.send(Bytes::copy_from_slice(b"two")).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), LaneEvent::Frame(Bytes::copy_from_slice(b"one")));
        assert_eq!(rx.recv(), LaneEvent::Frame(Bytes::copy_from_slice(b"two")));
        assert_eq!(rx.recv(), LaneEvent::Closed);
        assert_eq!(rx.recv(), LaneEvent::Closed);
    }

    #[test]
    fn sim_lane_delivers_peer_errors_in_band() {
        let mut transport = SimTransport::new();
        let (tx, mut rx) = transport.open_lane(3, 2).unwrap();
        tx.send_error("device 3: executor failed".to_string())
            .unwrap();
        assert_eq!(
            rx.recv(),
            LaneEvent::PeerError("device 3: executor failed".to_string())
        );
    }

    #[test]
    fn sender_sees_lane_closed_after_receiver_drops() {
        let mut transport = SimTransport::new();
        let (tx, rx) = transport.open_lane(0, 1).unwrap();
        drop(rx);
        assert_eq!(tx.send(Bytes::copy_from_slice(b"x")), Err(LaneClosed));
        assert_eq!(tx.send_error("late".to_string()), Err(LaneClosed));
    }
}
