//! Shared network-facing configuration ([`NetOptions`]) consumed by every
//! runtime that moves wire frames: the batch [`ClusterRuntime`], the analytic
//! [`LatencyModel`] and the streaming scheduler in `edvit-sched`.
//!
//! Before this module each surface grew its own `with_codec`-style builder
//! and the knobs drifted independently. `NetOptions` is the one home for
//! codec and transport configuration — the per-surface builders are gone,
//! not deprecated — and CI's `static-analysis` job fails when
//! `fn with_codec` or `fn with_transport` appears in any other file. The
//! per-frame retry budget is the stream scheduler's constant
//! `edvit_sched::MAX_RETRIES`. The transport choice reaches an executor as a
//! value: `edvit_net::transport_for(options.transport)` builds the
//! `Transport` that `ClusterRuntime::run_over` and the scheduler open their
//! lanes from.
//!
//! [`ClusterRuntime`]: crate::ClusterRuntime
//! [`LatencyModel`]: crate::LatencyModel

use crate::wire::PayloadCodec;

/// Which transport carries wire frames between devices and the fusion worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process bounded channels with the deterministic virtual clock and
    /// the analytic latency model — every run is bit-reproducible.
    #[default]
    Sim,
    /// Real loopback TCP sockets (`edvit-net`): frames cross the kernel,
    /// heartbeat deadlines are wall-clock durations mapped from rounds.
    Tcp,
}

impl TransportKind {
    /// Short lowercase name, for reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Sim => "sim",
            TransportKind::Tcp => "tcp",
        }
    }
}

/// Network-facing knobs shared by every frame-moving surface: the wire
/// codec and the transport backend.
///
/// Construct with [`NetOptions::default`] and override with the builders:
///
/// ```
/// use edvit_edge::{NetOptions, PayloadCodec, TransportKind};
///
/// let options = NetOptions::default()
///     .with_codec(PayloadCodec::F16)
///     .with_transport(TransportKind::Sim);
/// assert_eq!(options.codec, PayloadCodec::F16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetOptions {
    /// Payload codec every device encodes its feature frames with.
    pub codec: PayloadCodec,
    /// Transport backend carrying the frames.
    pub transport: TransportKind,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            codec: PayloadCodec::F32,
            transport: TransportKind::Sim,
        }
    }
}

impl NetOptions {
    /// Sets the wire codec.
    pub fn with_codec(mut self, codec: PayloadCodec) -> Self {
        self.codec = codec;
        self
    }

    /// Sets the transport backend.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_deterministic_backend() {
        let options = NetOptions::default();
        assert_eq!(options.codec, PayloadCodec::F32);
        assert_eq!(options.transport, TransportKind::Sim);
    }

    #[test]
    fn builders_override_each_knob_independently() {
        let options = NetOptions::default()
            .with_codec(PayloadCodec::F16Rle)
            .with_transport(TransportKind::Tcp);
        assert_eq!(options.codec, PayloadCodec::F16Rle);
        assert_eq!(options.transport, TransportKind::Tcp);
    }

    #[test]
    fn transport_names_are_stable() {
        assert_eq!(TransportKind::Sim.name(), "sim");
        assert_eq!(TransportKind::Tcp.name(), "tcp");
    }
}
