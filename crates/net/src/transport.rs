//! The [`Transport`] seam as `edvit-net` serves it: the backend-neutral
//! trait, lane halves and [`SimTransport`] live in `edvit-edge` (next to the
//! one-shot executor that runs over them) and are re-exported here, where
//! the factory can also see [`TcpTransport`].

use edvit_edge::TransportKind;
pub use edvit_edge::{FrameRx, FrameTx, LaneClosed, LaneEvent, SimTransport, Transport};

use crate::{Result, TcpTransport};

/// Builds the transport for a [`TransportKind`].
///
/// # Errors
///
/// Returns [`crate::NetError::Bind`] when the TCP backend cannot bind its
/// loopback listener.
pub fn transport_for(kind: TransportKind) -> Result<Box<dyn Transport>> {
    match kind {
        TransportKind::Sim => Ok(Box::new(SimTransport::new())),
        TransportKind::Tcp => Ok(Box::new(TcpTransport::bind()?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_the_requested_backend() {
        let sim = transport_for(TransportKind::Sim).unwrap();
        assert_eq!(sim.kind(), TransportKind::Sim);
        let tcp = transport_for(TransportKind::Tcp).unwrap();
        assert_eq!(tcp.kind(), TransportKind::Tcp);
    }
}
