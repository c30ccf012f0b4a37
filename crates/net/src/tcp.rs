//! The loopback TCP backend: the [`Transport`] contract over real sockets.
//!
//! Every lane is one TCP connection. Its sender, [`TcpTx`], writes each
//! envelope on the sending thread with one vectored write, so `send` blocks
//! only while the kernel's socket buffers are full: they, not `capacity`,
//! bound a TCP lane. [`dial_lane`] hands the same sender to a device that is
//! a process of its own. The fusion side reads envelopes through a fixed
//! 64 KiB buffer (`LANE_READ_BUFFER`), so a heartbeat and the data frame
//! behind it arrive in one `read`. A stream arms a read timeout from the
//! scheduler's round-denominated heartbeat deadline: a peer whose next frame
//! misses it looks exactly like a disconnect, the trait's one failure signal.
//! A one-shot lane carries no heartbeat and gets no deadline.
//!
//! Connection establishment retries with the same `min(2^(n−1), 8)` backoff
//! factor schedule the scheduler prices retries with on the virtual clock
//! ([`edvit_edge::StreamTiming::retry_backoff_seconds`]) — mapped to wall
//! time via [`RECONNECT_BASE`].

use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use bytes::Bytes;
use edvit_edge::TransportKind;

use crate::framing::{read_envelope, write_envelope, Envelope};
use crate::transport::{FrameRx, FrameTx, LaneClosed, LaneEvent, Transport};
use crate::{NetError, Result};

/// Wall-time unit of one reconnect backoff step.
pub const RECONNECT_BASE: Duration = Duration::from_millis(50);

/// Connection attempts before [`connect_with_backoff`] gives up.
pub const CONNECT_ATTEMPTS: u32 = 6;

/// Read buffer of a lane's receiving socket: a few rounds of control frames
/// and a paper-scale batch frame fit, so the common record costs no syscall
/// of its own; a record larger than this bypasses the buffer.
const LANE_READ_BUFFER: usize = 64 * 1024;

/// Floor of the mapped heartbeat deadline: virtual round intervals can be
/// microseconds, but a real worker needs wall time to compute a round.
const MIN_DEADLINE_SECONDS: f64 = 5.0;

/// Cap of the mapped heartbeat deadline, so a mis-configured run cannot hang
/// CI for longer than the job timeout.
const MAX_DEADLINE_SECONDS: f64 = 600.0;

/// Wall sleep before reconnect attempt `attempt` (1-based): the factor
/// schedule is `min(2^(attempt−1), 8)`, the same one
/// [`edvit_edge::StreamTiming::retry_backoff_seconds`] prices on the virtual
/// clock.
pub fn backoff_delay(attempt: u32) -> Duration {
    let factor = 1u64 << u64::from(attempt.saturating_sub(1)).min(3);
    RECONNECT_BASE * u32::try_from(factor).unwrap_or(8)
}

/// Dials `addr`, retrying up to `attempts` times with the round-denominated
/// backoff schedule between attempts.
///
/// # Errors
///
/// Returns [`NetError::Connect`] carrying the last OS error once the whole
/// schedule is exhausted.
pub fn connect_with_backoff(addr: &SocketAddr, attempts: u32) -> Result<TcpStream> {
    let mut last = "no attempt made".to_string();
    for attempt in 1..=attempts.max(1) {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e.to_string(),
        }
        if attempt < attempts {
            std::thread::sleep(backoff_delay(attempt));
        }
    }
    Err(NetError::Connect {
        addr: addr.to_string(),
        message: last,
    })
}

/// Binds a loopback listener on an OS-assigned port.
pub(crate) fn bind_loopback() -> Result<(TcpListener, SocketAddr)> {
    let bind_error = |e: std::io::Error| NetError::Bind {
        message: e.to_string(),
    };
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(bind_error)?;
    let addr = listener.local_addr().map_err(bind_error)?;
    Ok((listener, addr))
}

/// The loopback TCP transport: one listener, one connection per lane.
#[derive(Debug)]
pub struct TcpTransport {
    listener: TcpListener,
    addr: SocketAddr,
    /// Armed by [`Transport::set_round_deadline`]; `None` until then.
    read_timeout: Option<Duration>,
}

impl TcpTransport {
    /// Binds a fresh loopback listener on an OS-assigned port.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Bind`] when the OS refuses the socket.
    pub fn bind() -> Result<Self> {
        let (listener, addr) = bind_loopback()?;
        Ok(TcpTransport {
            listener,
            addr,
            read_timeout: None,
        })
    }

    /// The loopback address lanes connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connects one lane's two ends. Loopback connect completes against the
    /// listen backlog, so dialing before accepting cannot deadlock.
    fn lane(&self, peer: usize) -> Result<(TcpTx, TcpRx)> {
        let sender = connect_with_backoff(&self.addr, CONNECT_ATTEMPTS)?;
        let (receiver, _) = self.listener.accept().map_err(|e| NetError::Accept {
            message: format!("lane for peer {peer}: {e}"),
        })?;
        let receiver = TcpRx::new(receiver, self.read_timeout)?;
        Ok((TcpTx::new(sender)?, receiver))
    }
}

/// Device-side half of a TCP lane, whoever runs the device: a thread of this
/// process ([`TcpTransport`]) or a process of its own ([`dial_lane`]). Every
/// envelope is written before `send` returns and the connection half-closes
/// on drop, so the receiver's EOF lands after the last frame and a worker
/// process may exit right after its leave frame.
struct TcpTx {
    stream: TcpStream,
}

impl TcpTx {
    fn new(stream: TcpStream) -> Result<Self> {
        stream.set_nodelay(true).map_err(|e| NetError::io(&e))?;
        Ok(TcpTx { stream })
    }

    fn write(&self, envelope: &Envelope) -> std::result::Result<(), LaneClosed> {
        write_envelope(&mut &self.stream, envelope).map_err(|_| LaneClosed)
    }
}

impl FrameTx for TcpTx {
    fn send(&self, frame: Bytes) -> std::result::Result<(), LaneClosed> {
        self.write(&Envelope::Frame(frame))
    }

    fn send_error(&self, message: String) -> std::result::Result<(), LaneClosed> {
        self.write(&Envelope::Error(message))
    }
}

impl Drop for TcpTx {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Write);
    }
}

/// Dials a [`crate::Coordinator`] (with the round-denominated backoff
/// schedule) and returns the device side of the lane. The first frame sent
/// must be the device's `Join` — which is how the scheduler's device program
/// starts.
///
/// # Errors
///
/// Returns [`NetError::Connect`] when the coordinator stays unreachable and
/// [`NetError::Io`] when the socket cannot be configured.
pub fn dial_lane(addr: &SocketAddr) -> Result<Box<dyn FrameTx>> {
    let stream = connect_with_backoff(addr, CONNECT_ATTEMPTS)?;
    Ok(Box::new(TcpTx::new(stream)?))
}

/// Fusion-side half of a TCP lane: reads envelopes off the accepted socket.
#[derive(Debug)]
pub(crate) struct TcpRx {
    stream: BufReader<TcpStream>,
    closed: bool,
}

impl TcpRx {
    /// Arms an accepted socket as a lane receiver: no Nagle delay, the read
    /// deadline if there is one, and the lane read buffer.
    pub(crate) fn new(stream: TcpStream, read_timeout: Option<Duration>) -> Result<Self> {
        stream.set_nodelay(true).map_err(|e| NetError::io(&e))?;
        stream
            .set_read_timeout(read_timeout)
            .map_err(|e| NetError::io(&e))?;
        Ok(TcpRx {
            stream: BufReader::with_capacity(LANE_READ_BUFFER, stream),
            closed: false,
        })
    }
}

impl FrameRx for TcpRx {
    fn recv(&mut self) -> LaneEvent {
        if self.closed {
            return LaneEvent::Closed;
        }
        match read_envelope(&mut self.stream) {
            Ok(Some(Envelope::Frame(frame))) => LaneEvent::Frame(frame),
            Ok(Some(Envelope::Error(message))) => LaneEvent::PeerError(message),
            // Clean EOF, a torn connection, a hostile envelope, or a missed
            // read deadline: all of them mean "the next heartbeat never
            // arrived", the trait's one failure signal.
            Ok(None) | Err(_) => {
                self.closed = true;
                LaneEvent::Closed
            }
        }
    }
}

impl Transport for TcpTransport {
    fn open_lane(
        &mut self,
        peer: usize,
        _capacity: usize,
    ) -> edvit_edge::Result<(Box<dyn FrameTx>, Box<dyn FrameRx>)> {
        // No `capacity` here: the socket buffers are the lane's bound.
        let (sender, receiver) = self.lane(peer)?;
        Ok((Box::new(sender), Box::new(receiver)))
    }

    fn set_round_deadline(&mut self, grace_rounds: u64, round_interval_seconds: f64) {
        let virtual_seconds = (grace_rounds + 1) as f64 * round_interval_seconds.max(0.0);
        let clamped = virtual_seconds.clamp(MIN_DEADLINE_SECONDS, MAX_DEADLINE_SECONDS);
        self.read_timeout = Some(Duration::from_secs_f64(clamped));
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Tcp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_matches_the_virtual_factors() {
        assert_eq!(backoff_delay(1), RECONNECT_BASE);
        assert_eq!(backoff_delay(2), RECONNECT_BASE * 2);
        assert_eq!(backoff_delay(3), RECONNECT_BASE * 4);
        assert_eq!(backoff_delay(4), RECONNECT_BASE * 8);
        assert_eq!(
            backoff_delay(9),
            RECONNECT_BASE * 8,
            "factor saturates at 8"
        );
    }

    #[test]
    fn connect_to_a_dead_port_exhausts_the_schedule() {
        // Bind-then-drop guarantees a port nothing listens on right now.
        let addr = {
            let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            listener.local_addr().unwrap()
        };
        let err = connect_with_backoff(&addr, 2).unwrap_err();
        assert!(matches!(err, NetError::Connect { .. }), "{err}");
        assert!(err.to_string().contains(&addr.to_string()), "{err}");
    }

    #[test]
    fn tcp_lane_round_trips_frames_and_closes_cleanly() {
        let mut transport = TcpTransport::bind().unwrap();
        let (tx, mut rx) = transport.open_lane(0, 4).unwrap();
        tx.send(Bytes::copy_from_slice(b"alpha")).unwrap();
        tx.send_error("device 0: boom".to_string()).unwrap();
        tx.send(Bytes::copy_from_slice(b"omega")).unwrap();
        drop(tx);
        assert_eq!(
            rx.recv(),
            LaneEvent::Frame(Bytes::copy_from_slice(b"alpha"))
        );
        assert_eq!(
            rx.recv(),
            LaneEvent::PeerError("device 0: boom".to_string())
        );
        assert_eq!(
            rx.recv(),
            LaneEvent::Frame(Bytes::copy_from_slice(b"omega"))
        );
        assert_eq!(rx.recv(), LaneEvent::Closed);
        assert_eq!(rx.recv(), LaneEvent::Closed, "closed is sticky");
    }

    #[test]
    fn deadline_mapping_clamps_to_the_wall_window() {
        let mut transport = TcpTransport::bind().unwrap();
        transport.set_round_deadline(2, 1e-6);
        assert_eq!(transport.read_timeout, Some(Duration::from_secs(5)));
        transport.set_round_deadline(2, 1e6);
        assert_eq!(transport.read_timeout, Some(Duration::from_secs(600)));
        transport.set_round_deadline(1, 10.0);
        assert_eq!(transport.read_timeout, Some(Duration::from_secs(20)));
    }

    #[test]
    fn only_a_stream_deadline_arms_a_lane_read_timeout() {
        let mut transport = TcpTransport::bind().unwrap();
        let lane_timeout = |transport: &TcpTransport| {
            let (_tx, rx) = transport.lane(0).unwrap();
            rx.stream.get_ref().read_timeout().unwrap()
        };
        assert_eq!(lane_timeout(&transport), None, "a one-shot lane has none");
        transport.set_round_deadline(1, 10.0);
        assert_eq!(lane_timeout(&transport), Some(Duration::from_secs(20)));
    }
}
