//! The recording handle instrumented code holds: a [`MetricsSink`].
//!
//! A sink is either *disabled* — the default, a `None` that makes every
//! `record` call a branch-and-return no-op so the hot paths pay nothing —
//! or *recording*, in which case each event is appended to a [`RunJournal`],
//! the sink's one store. [`MetricsSink::expose`] folds that journal into a
//! fresh [`MetricsRegistry`] when called, so the exposition is a projection
//! of the journal by construction. Cloning a recording sink shares the
//! journal, which is how one sink threads through scheduler, admission queue
//! and transport and still produces a single ordered journal.

use std::sync::{Arc, Mutex, PoisonError};

use crate::event::RunEvent;
use crate::journal::RunJournal;
use crate::registry::{MetricKind, MetricsRegistry, LATENCY_BUCKETS};

/// A shareable event sink; see the module docs for the two states.
#[derive(Debug, Clone, Default)]
pub struct MetricsSink {
    inner: Option<Arc<Mutex<RunJournal>>>,
}

/// Two sinks are equal when both are disabled or both share one store.
/// (Needed so config structs that embed a sink can keep deriving
/// `PartialEq`; content comparison would race with concurrent recorders.)
impl PartialEq for MetricsSink {
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl MetricsSink {
    /// The no-op sink instrumented code defaults to.
    pub fn disabled() -> Self {
        MetricsSink::default()
    }

    /// A live sink with an empty journal.
    pub fn recording() -> Self {
        MetricsSink {
            inner: Some(Arc::new(Mutex::new(RunJournal::new()))),
        }
    }

    /// True when events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event at virtual time `at` into the journal. A no-op on a
    /// disabled sink.
    pub fn record(&self, at: f64, event: RunEvent) {
        let Some(inner) = &self.inner else {
            return;
        };
        inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(at, event);
    }

    /// Prometheus text exposition of the journal so far, folded in record
    /// order into a registry described with `# HELP` / `# TYPE` headers;
    /// empty when disabled.
    pub fn expose(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let mut registry = MetricsRegistry::new();
        describe_families(&mut registry);
        let journal = inner.lock().unwrap_or_else(PoisonError::into_inner);
        for record in journal.records() {
            apply_event(&mut registry, &record.event);
        }
        registry.expose()
    }

    /// A snapshot of the journal so far; empty when disabled.
    pub fn journal(&self) -> RunJournal {
        match &self.inner {
            Some(inner) => inner.lock().unwrap_or_else(PoisonError::into_inner).clone(),
            None => RunJournal::new(),
        }
    }
}

fn describe_families(r: &mut MetricsRegistry) {
    r.describe(
        "edvit_heartbeats_total",
        MetricKind::Counter,
        "Heartbeat control frames observed by the fusion worker",
        None,
    );
    r.describe(
        "edvit_frames_total",
        MetricKind::Counter,
        "Frames observed, by kind (control/data)",
        None,
    );
    r.describe(
        "edvit_wire_bytes_total",
        MetricKind::Counter,
        "Encoded bytes on the wire, by sending device",
        None,
    );
    r.describe(
        "edvit_frame_anomalies_total",
        MetricKind::Counter,
        "Faulted or rejected deliveries, by kind",
        None,
    );
    r.describe(
        "edvit_retries_total",
        MetricKind::Counter,
        "Data-frame re-requests issued",
        None,
    );
    r.describe(
        "edvit_retry_seconds_total",
        MetricKind::Counter,
        "Virtual seconds spent in retry backoff",
        None,
    );
    r.describe(
        "edvit_rounds_fused_total",
        MetricKind::Counter,
        "Rounds fused, by degraded flag",
        None,
    );
    r.describe(
        "edvit_epochs_total",
        MetricKind::Counter,
        "Membership epochs executed",
        None,
    );
    r.describe(
        "edvit_devices_lost_total",
        MetricKind::Counter,
        "Devices declared dead",
        None,
    );
    r.describe(
        "edvit_devices_joined_total",
        MetricKind::Counter,
        "Devices admitted mid-stream, by rejoin flag",
        None,
    );
    r.describe(
        "edvit_replans_total",
        MetricKind::Counter,
        "Planner re-runs, by cause",
        None,
    );
    r.describe(
        "edvit_samples_replayed_total",
        MetricKind::Counter,
        "Samples recomputed after device deaths",
        None,
    );
    r.describe(
        "edvit_recovery_seconds_total",
        MetricKind::Counter,
        "Virtual seconds charged to crash recovery",
        None,
    );
    r.describe(
        "edvit_requests_total",
        MetricKind::Counter,
        "Serving requests, by tenant and outcome",
        None,
    );
    r.describe(
        "edvit_queue_depth_peak",
        MetricKind::Gauge,
        "Deepest each tenant queue grew",
        None,
    );
    r.describe(
        "edvit_pipeline_depth",
        MetricKind::Gauge,
        "Current adaptive pipeline depth",
        None,
    );
    r.describe(
        "edvit_serve_rounds_total",
        MetricKind::Counter,
        "Rounds the serving batcher dispatched",
        None,
    );
    r.describe(
        "edvit_round_latency_seconds",
        MetricKind::Histogram,
        "Virtual wall time from round start to fused completion",
        Some(&LATENCY_BUCKETS),
    );
    r.describe(
        "edvit_batches_total",
        MetricKind::Counter,
        "One-shot batch executions",
        None,
    );
    r.describe(
        "edvit_batch_samples_total",
        MetricKind::Counter,
        "Samples pushed through one-shot batch executions",
        None,
    );
}

/// Folds one event into the registry. Pure function of (event), so the
/// registry is a deterministic projection of the journal.
fn apply_event(r: &mut MetricsRegistry, event: &RunEvent) {
    match event {
        RunEvent::Delivery { device, bytes } => {
            r.add(
                "edvit_wire_bytes_total",
                &[("device", &device.to_string())],
                *bytes as f64,
            );
        }
        // A one-shot device's frame is a delivery and a data frame at once.
        RunEvent::BatchDelivery { device, bytes } => {
            r.add(
                "edvit_wire_bytes_total",
                &[("device", &device.to_string())],
                *bytes as f64,
            );
            r.add("edvit_frames_total", &[("kind", "data")], 1.0);
        }
        RunEvent::ControlFrame { .. } => {
            r.add("edvit_frames_total", &[("kind", "control")], 1.0);
        }
        RunEvent::DataFrame { .. } => {
            r.add("edvit_frames_total", &[("kind", "data")], 1.0);
        }
        RunEvent::Heartbeat { .. } => {
            r.add("edvit_heartbeats_total", &[], 1.0);
        }
        RunEvent::StaleControlFrame { .. } => {
            r.add(
                "edvit_frame_anomalies_total",
                &[("kind", "stale_control")],
                1.0,
            );
        }
        RunEvent::StaleHeartbeat { .. } => {
            r.add(
                "edvit_frame_anomalies_total",
                &[("kind", "stale_heartbeat")],
                1.0,
            );
        }
        RunEvent::CorruptFrame { .. } => {
            r.add("edvit_frame_anomalies_total", &[("kind", "corrupt")], 1.0);
        }
        RunEvent::DuplicateFrame { .. } => {
            r.add("edvit_frame_anomalies_total", &[("kind", "duplicate")], 1.0);
        }
        RunEvent::DroppedHeartbeat { .. } => {
            r.add(
                "edvit_frame_anomalies_total",
                &[("kind", "dropped_heartbeat")],
                1.0,
            );
        }
        RunEvent::Retry { .. } => {
            r.add("edvit_retries_total", &[], 1.0);
        }
        RunEvent::RetryCost { seconds } => {
            r.add("edvit_retry_seconds_total", &[], *seconds);
        }
        RunEvent::RoundFused { degraded, .. } => {
            let flag = if *degraded { "true" } else { "false" };
            r.add("edvit_rounds_fused_total", &[("degraded", flag)], 1.0);
        }
        RunEvent::EpochStarted { .. } => {
            r.add("edvit_epochs_total", &[], 1.0);
        }
        RunEvent::DeviceDead { .. } => {
            r.add("edvit_devices_lost_total", &[], 1.0);
        }
        RunEvent::DeviceJoined { rejoin, .. } => {
            let flag = if *rejoin { "true" } else { "false" };
            r.add("edvit_devices_joined_total", &[("rejoin", flag)], 1.0);
        }
        RunEvent::Replan { cause, .. } => {
            r.add("edvit_replans_total", &[("cause", cause.as_str())], 1.0);
        }
        RunEvent::RoundsReplayed { samples, .. } => {
            r.add("edvit_samples_replayed_total", &[], *samples as f64);
        }
        RunEvent::Recovery { seconds } | RunEvent::ServeRecovery { seconds } => {
            r.add("edvit_recovery_seconds_total", &[], *seconds);
        }
        RunEvent::ServeStarted { initial_depth, .. } => {
            r.set("edvit_pipeline_depth", &[], *initial_depth as f64);
        }
        RunEvent::RequestAdmitted { tenant, .. } => {
            r.add(
                "edvit_requests_total",
                &[("tenant", &tenant.to_string()), ("outcome", "admitted")],
                1.0,
            );
        }
        RunEvent::QueueDepth { tenant, depth } => {
            r.set_max(
                "edvit_queue_depth_peak",
                &[("tenant", &tenant.to_string())],
                *depth as f64,
            );
        }
        RunEvent::RequestShedOverflow { tenant, .. } => {
            r.add(
                "edvit_requests_total",
                &[
                    ("tenant", &tenant.to_string()),
                    ("outcome", "shed_overflow"),
                ],
                1.0,
            );
        }
        RunEvent::RequestShedDeadline { tenant, .. } => {
            r.add(
                "edvit_requests_total",
                &[
                    ("tenant", &tenant.to_string()),
                    ("outcome", "shed_deadline"),
                ],
                1.0,
            );
        }
        RunEvent::RequestDispatched { tenant, .. } => {
            r.add(
                "edvit_requests_total",
                &[("tenant", &tenant.to_string()), ("outcome", "dispatched")],
                1.0,
            );
        }
        RunEvent::DepthChanged { to, .. } => {
            r.set("edvit_pipeline_depth", &[], *to as f64);
        }
        RunEvent::ServeCrash { .. } => {
            r.add("edvit_devices_lost_total", &[], 1.0);
        }
        RunEvent::ServeRound {
            start_seconds,
            completion_seconds,
            ..
        } => {
            r.add("edvit_serve_rounds_total", &[], 1.0);
            r.observe(
                "edvit_round_latency_seconds",
                &[],
                completion_seconds - start_seconds,
            );
        }
        RunEvent::BatchStarted { samples, .. } => {
            r.add("edvit_batches_total", &[], 1.0);
            r.add("edvit_batch_samples_total", &[], *samples as f64);
        }
        // Lifecycle markers that carry no registry-shaped data; the journal
        // still keeps them for replay.
        RunEvent::StreamStarted { .. }
        | RunEvent::EpochEnded { .. }
        | RunEvent::DeviceRounds { .. }
        | RunEvent::StreamEnded { .. }
        | RunEvent::TenantRegistered { .. }
        | RunEvent::ServeEnded
        | RunEvent::BatchEnded { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_a_cheap_no_op() {
        let sink = MetricsSink::disabled();
        assert!(!sink.is_enabled());
        sink.record(
            0.0,
            RunEvent::Heartbeat {
                device: 0,
                sequence: 1,
            },
        );
        assert!(sink.journal().is_empty());
        assert_eq!(sink.expose(), "");
        assert_eq!(sink, MetricsSink::default());
    }

    #[test]
    fn recording_sink_journals_and_exposes() {
        let sink = MetricsSink::recording();
        assert!(sink.is_enabled());
        sink.record(0.0, RunEvent::ControlFrame { device: 3 });
        sink.record(0.1, RunEvent::DataFrame { device: 3 });
        sink.record(
            0.1,
            RunEvent::Delivery {
                device: 3,
                bytes: 128,
            },
        );
        sink.record(
            0.2,
            RunEvent::ServeRound {
                round: 0,
                start_seconds: 0.1,
                completion_seconds: 0.2,
                size: 2,
            },
        );
        let journal = sink.journal();
        assert_eq!(journal.len(), 4);
        let text = sink.expose();
        assert!(text.contains("edvit_frames_total{kind=\"control\"} 1\n"));
        assert!(text.contains("edvit_frames_total{kind=\"data\"} 1\n"));
        assert!(text.contains("edvit_wire_bytes_total{device=\"3\"} 128\n"));
        assert!(text.contains("# TYPE edvit_round_latency_seconds histogram\n"));
        assert!(text.contains("edvit_round_latency_seconds_count 1\n"));
    }

    #[test]
    fn clones_share_one_store_and_compare_by_identity() {
        let sink = MetricsSink::recording();
        let clone = sink.clone();
        clone.record(
            0.0,
            RunEvent::Retry {
                device: 1,
                attempt: 1,
            },
        );
        assert_eq!(sink.journal().len(), 1);
        assert_eq!(sink, clone);
        assert_ne!(sink, MetricsSink::recording());
        assert_ne!(sink, MetricsSink::disabled());
    }

    #[test]
    fn registry_is_a_projection_of_the_journal() {
        let sink = MetricsSink::recording();
        for device in 0..4u64 {
            sink.record(
                0.0,
                RunEvent::Delivery {
                    device,
                    bytes: 10 * (device + 1),
                },
            );
            sink.record(
                0.0,
                RunEvent::QueueDepth {
                    tenant: device,
                    depth: device + 2,
                },
            );
        }
        sink.record(
            0.0,
            RunEvent::Replan {
                cause: crate::event::ReplanCause::Death,
                missing: vec![1, 2],
            },
        );
        let text = sink.expose();
        assert!(text.contains("edvit_wire_bytes_total{device=\"2\"} 30\n"));
        assert!(text.contains("edvit_queue_depth_peak{tenant=\"3\"} 5\n"));
        assert!(text.contains("edvit_replans_total{cause=\"death\"} 1\n"));
    }
}
