//! Error taxonomy of the transport layer.

/// Errors raised while standing up or driving a transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Binding the coordinator's listening socket failed.
    Bind {
        /// The underlying OS error.
        message: String,
    },
    /// Connecting to a peer failed after the whole backoff schedule.
    Connect {
        /// Address dialed.
        addr: String,
        /// The last OS error observed.
        message: String,
    },
    /// Accepting an inbound peer connection failed or timed out.
    Accept {
        /// What went wrong.
        message: String,
    },
    /// A socket read or write failed mid-stream.
    Io {
        /// The underlying OS error.
        message: String,
    },
    /// The peer violated the lane protocol: a malformed envelope, an
    /// unexpected frame kind, or a handshake that was not a valid `Join`.
    Protocol {
        /// What the peer did wrong.
        message: String,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Bind { message } => write!(f, "bind failed: {message}"),
            NetError::Connect { addr, message } => {
                write!(f, "connect to {addr} failed: {message}")
            }
            NetError::Accept { message } => write!(f, "accept failed: {message}"),
            NetError::Io { message } => write!(f, "socket i/o failed: {message}"),
            NetError::Protocol { message } => write!(f, "peer protocol violation: {message}"),
        }
    }
}

impl std::error::Error for NetError {}

/// A transport failure under a lane-level caller (`Transport::open_lane`, the
/// one-shot executor) is a runtime failure of the cluster.
impl From<NetError> for edvit_edge::EdgeError {
    fn from(e: NetError) -> Self {
        edvit_edge::EdgeError::Runtime {
            message: e.to_string(),
        }
    }
}

impl NetError {
    /// Wraps a mid-stream socket error.
    pub fn io(e: &std::io::Error) -> Self {
        NetError::Io {
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let cases: Vec<(NetError, &str)> = vec![
            (
                NetError::Bind {
                    message: "in use".to_string(),
                },
                "bind failed: in use",
            ),
            (
                NetError::Connect {
                    addr: "127.0.0.1:9".to_string(),
                    message: "refused".to_string(),
                },
                "connect to 127.0.0.1:9 failed: refused",
            ),
            (
                NetError::Accept {
                    message: "timed out".to_string(),
                },
                "accept failed: timed out",
            ),
            (
                NetError::Io {
                    message: "reset".to_string(),
                },
                "socket i/o failed: reset",
            ),
            (
                NetError::Protocol {
                    message: "bad tag".to_string(),
                },
                "peer protocol violation: bad tag",
            ),
        ];
        for (error, expected) in cases {
            assert_eq!(error.to_string(), expected);
        }
    }

    #[test]
    fn io_wrapper_carries_the_os_message() {
        let os = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "peer reset");
        let wrapped = NetError::io(&os);
        assert!(wrapped.to_string().contains("peer reset"));
    }
}
