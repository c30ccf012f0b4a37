//! Multi-process cluster admission: a fusion-side [`Coordinator`] that
//! admits worker connections by their `Join` control frame and turns each
//! into a lane. With the device-side [`crate::dial_lane`] a worker process
//! opens towards it, these are the pieces `examples/cluster_proc.rs`
//! assembles into a cluster of real OS processes on loopback.
//!
//! Nothing here knows what a round is. An admitted connection becomes a
//! [`FrameRx`] whose first event is the join frame it was admitted by, so
//! the scheduler's collector (`edvit_sched::StreamScheduler::collect_lanes`)
//! sees exactly the frame sequence an in-process lane carries and charges
//! the same bytes; the worker runs the scheduler's device program
//! (`edvit_sched::DeviceProgram`) over the dialed lane.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use bytes::Bytes;
use edvit_edge::{ControlKind, WireFrame};

use crate::tcp::{bind_loopback, TcpRx};
use crate::transport::{FrameRx, LaneEvent};
use crate::{NetError, Result};

/// Read timeout armed on every accepted worker socket, and the bound on a
/// whole admission: generous enough for a child process to train/compute,
/// bounded so a hung or never-started worker cannot wedge the drill.
#[cfg(not(test))]
const WORKER_READ_TIMEOUT: Duration = Duration::from_secs(30);
#[cfg(test)]
const WORKER_READ_TIMEOUT: Duration = Duration::from_millis(300);

/// How often a pending admission looks at the listener again.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// One admitted worker connection, as the `Join` handshake described it.
#[derive(Debug)]
pub struct WorkerConn {
    /// Device id the worker announced.
    pub device_id: usize,
    /// Capacity the worker offered (FLOP/s).
    pub capacity_flops: f64,
    /// The join frame as received, until the lane hands it on.
    join: Option<Bytes>,
    rx: TcpRx,
}

impl WorkerConn {
    /// The connection as a lane: the join frame it was admitted by is the
    /// first event, then whatever the worker sends, then `Closed`.
    pub fn into_lane(self) -> Box<dyn FrameRx> {
        Box::new(self)
    }
}

impl FrameRx for WorkerConn {
    fn recv(&mut self) -> LaneEvent {
        match self.join.take() {
            Some(join) => LaneEvent::Frame(join),
            None => self.rx.recv(),
        }
    }
}

/// The fusion-side listener workers dial.
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
        let (listener, addr) = bind_loopback()?;
        // Admission polls, so that it can give up (see `accept_workers`).
        listener.set_nonblocking(true).map_err(|e| NetError::Bind {
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
    /// non-positive capacity offer). The join frame, not the accept order,
    /// names the device; the result is sorted by device id.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Accept`] when fewer than `count` workers dialed
    /// within the worker read timeout (saying how many did) or one never
    /// completed its handshake, and [`NetError::Protocol`] for a handshake
    /// that is not a valid join or a device id claimed twice.
    pub fn accept_workers(&self, count: usize) -> Result<Vec<WorkerConn>> {
        let deadline = Instant::now() + WORKER_READ_TIMEOUT;
        let mut workers: Vec<WorkerConn> = Vec::with_capacity(count);
        while workers.len() < count {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock && Instant::now() < deadline =>
                {
                    std::thread::sleep(ACCEPT_POLL);
                    continue;
                }
                Err(e) => {
                    return Err(NetError::Accept {
                        message: format!(
                            "{} of {count} workers joined within {WORKER_READ_TIMEOUT:?}: {e}",
                            workers.len()
                        ),
                    })
                }
            };
            stream
                .set_nonblocking(false)
                .map_err(|e| NetError::io(&e))?;
            let worker = admit(stream)?;
            if workers.iter().any(|w| w.device_id == worker.device_id) {
                return Err(NetError::Protocol {
                    message: format!("two workers claimed device id {}", worker.device_id),
                });
            }
            workers.push(worker);
        }
        workers.sort_by_key(|w| w.device_id);
        Ok(workers)
    }
}

/// Reads and validates one connection's join handshake.
fn admit(stream: TcpStream) -> Result<WorkerConn> {
    let mut rx = TcpRx::new(stream, Some(WORKER_READ_TIMEOUT))?;
    let LaneEvent::Frame(frame) = rx.recv() else {
        return Err(NetError::Accept {
            message: "worker closed, went silent or reported an error before its join".to_string(),
        });
    };
    match WireFrame::decode(frame.clone()) {
        Ok(WireFrame::Control(control)) if control.kind == ControlKind::Join => Ok(WorkerConn {
            device_id: control.device_id as usize,
            capacity_flops: control.capacity_flops_per_second,
            join: Some(frame),
            rx,
        }),
        Ok(other) => Err(NetError::Protocol {
            message: format!(
                "worker opened with a {} frame, not a join",
                other.kind_name()
            ),
        }),
        Err(e) => Err(NetError::Protocol {
            message: format!("worker handshake frame: {e}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dial_lane, FrameTx};
    use edvit_edge::ControlMessage;

    #[test]
    fn an_admitted_lane_replays_its_join_then_the_stream_then_closes() {
        let coordinator = Coordinator::bind().unwrap();
        let join = ControlMessage::join(4, 2.5e9).encode();
        let tx = dial_lane(&coordinator.local_addr()).unwrap();
        tx.send(join.clone()).unwrap();
        tx.send_error("device 4: boom".to_string()).unwrap();
        drop(tx); // half-close: the EOF lands after everything written

        let worker = coordinator.accept_workers(1).unwrap().remove(0);
        assert_eq!((worker.device_id, worker.capacity_flops), (4, 2.5e9));
        let mut lane = worker.into_lane();
        assert_eq!(lane.recv(), LaneEvent::Frame(join));
        assert_eq!(
            lane.recv(),
            LaneEvent::PeerError("device 4: boom".to_string())
        );
        assert_eq!(lane.recv(), LaneEvent::Closed);
    }

    /// Dials and opens with `frame`, returning the lane so it stays open.
    fn dial_with(coordinator: &Coordinator, frame: Bytes) -> Box<dyn FrameTx> {
        let tx = dial_lane(&coordinator.local_addr()).unwrap();
        tx.send(frame).unwrap();
        tx
    }

    #[test]
    fn duplicate_device_ids_are_rejected_at_admission() {
        let coordinator = Coordinator::bind().unwrap();
        // Both claim device 0; admission must refuse the second.
        let join = ControlMessage::join(0, 1.0).encode();
        let _lanes = [join.clone(), join].map(|frame| dial_with(&coordinator, frame));
        let err = coordinator.accept_workers(2).unwrap_err();
        assert!(matches!(err, NetError::Protocol { .. }), "{err}");
        assert!(err.to_string().contains("device id 0"), "{err}");
    }

    #[test]
    fn admission_gives_up_saying_how_many_workers_joined() {
        // One worker of two never dials (a process that died before
        // connecting): the shortened test timeout bounds the wait.
        let coordinator = Coordinator::bind().unwrap();
        let err = coordinator.accept_workers(2).unwrap_err();
        assert!(matches!(err, NetError::Accept { .. }), "{err}");
        assert!(err.to_string().contains("0 of 2 workers"), "{err}");
        // A non-join opener is a protocol violation, not a timeout.
        let _lane = dial_with(&coordinator, ControlMessage::leave(1, 0).encode());
        let err = coordinator.accept_workers(1).unwrap_err();
        assert!(matches!(err, NetError::Protocol { .. }), "{err}");
    }
}
