//! The event-sourced run journal and the folds that turn it into counters.
//!
//! A [`RunJournal`] is an append-only sequence of [`EventRecord`]s.
//! [`StreamCounters::apply`] folds one stream event into the accounting of a
//! `StreamReport`, and it is the *only* place a stream counter changes: the
//! live scheduler folds each event as it records it, and
//! [`RunJournal::replay_stream`] folds the same events offline, so a journal
//! reconstructs every counter **bitwise** (`f64`s compared by bit pattern,
//! not epsilon) by construction. [`RunJournal::replay_serve`] does the same
//! for a `ServeReport`, mirroring the serving drill's arithmetic in the same
//! order. That property is what makes the journal a post-mortem artifact: a
//! replay that diverges from the report it came with is a real difference,
//! never float noise.
//!
//! One journal can hold all three event families (stream, serve, batch);
//! each fold takes its own family and names the others it passes over, so a
//! serving run that embeds a streaming execution pass replays both ways from
//! one file — and a new event does not compile until every fold places it.

use std::collections::BTreeMap;

use crate::error::{MetricsError, Result};
use crate::event::{EventRecord, RunEvent};

/// Nearest-rank percentile of an ascending-sorted latency slice.
///
/// `q` is in `[0, 1]`; an empty slice reports `0.0` so all-shed tenants show
/// a flat (not `NaN`) row. The serving report and its replay both price
/// percentiles here.
pub fn percentile(sorted_ascending: &[f64], q: f64) -> f64 {
    if sorted_ascending.is_empty() {
        return 0.0;
    }
    let n = sorted_ascending.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted_ascending[rank.saturating_sub(1).min(n - 1)]
}

/// Equality for counter fields: floats by bit pattern, everything else `==`.
trait SameBits {
    fn same_bits(&self, other: &Self) -> bool;
}

impl SameBits for f64 {
    fn same_bits(&self, other: &Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}

impl<T: SameBits> SameBits for Vec<T> {
    fn same_bits(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| a.same_bits(b))
    }
}

macro_rules! same_bits_is_eq {
    ($($ty:ty),+) => {$(
        impl SameBits for $ty {
            fn same_bits(&self, other: &Self) -> bool {
                self == other
            }
        }
    )+};
}
same_bits_is_eq!(u64, usize, String, DepthStep, BTreeMap<usize, u64>);

/// Declares a counter struct from its field list — the one place the fields
/// are named — and generates `diff` / `bitwise_eq` over that list. `state`
/// fields are private bookkeeping of the fold: not compared, not printed.
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$field_meta:meta])* pub $field:ident: $ty:ty,)+
        }
        $(state {
            $($(#[$state_meta:meta])* $state:ident: $state_ty:ty,)+
        })?
    ) => {
        $(#[$meta])*
        #[derive(Clone, Default, PartialEq)]
        pub struct $name {
            $($(#[$field_meta])* pub $field: $ty,)+
            $($($(#[$state_meta])* $state: $state_ty,)+)?
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($name))
                    $(.field(stringify!($field), &self.$field))+
                    .finish()
            }
        }

        impl $name {
            /// Field names whose values differ from `other`, comparing floats
            /// by bit pattern (inside nested rows too). Empty means
            /// bitwise-identical accounting.
            pub fn diff(&self, other: &Self) -> Vec<&'static str> {
                let mut out = Vec::new();
                $(if !self.$field.same_bits(&other.$field) {
                    out.push(stringify!($field));
                })+
                out
            }

            /// Whether every counter matches `other` bitwise.
            pub fn bitwise_eq(&self, other: &Self) -> bool {
                self.diff(other).is_empty()
            }
        }
    };
}

counters! {
    /// The accounting fields of a `StreamReport`: the fold of a run's stream
    /// events, live in the scheduler and offline in the replay.
    pub struct StreamCounters {
        /// Total rounds in the layout.
        pub rounds: usize,
        /// Configured samples per round.
        pub round_size: usize,
        /// Membership epochs executed.
        pub epochs: usize,
        /// Most rounds simultaneously in flight.
        pub max_rounds_in_flight: usize,
        /// Heartbeat control frames observed.
        pub heartbeats_seen: u64,
        /// All control frames observed.
        pub control_frames: usize,
        /// Feature-batch data frames observed.
        pub data_frames: usize,
        /// Encoded bytes shipped over the channel.
        pub bytes_on_wire: u64,
        /// Encoded bytes per sending device.
        pub per_device_wire_bytes: BTreeMap<usize, u64>,
        /// Rounds delivered per device, accumulated across epochs.
        pub per_device_rounds: BTreeMap<usize, u64>,
        /// Devices declared dead, in detection order.
        pub devices_lost: Vec<usize>,
        /// Devices admitted mid-stream, in admission order.
        pub devices_joined: Vec<usize>,
        /// Admissions that were rejoins.
        pub rejoins: usize,
        /// Planner re-runs.
        pub repartitions: usize,
        /// Samples recomputed after deaths.
        pub samples_replayed: usize,
        /// Data-frame re-requests issued.
        pub retries: u64,
        /// Virtual seconds spent in retry backoff.
        pub retry_seconds: f64,
        /// Failed deliveries observed.
        pub corrupt_frames: u64,
        /// Duplicate data frames observed.
        pub duplicate_frames: u64,
        /// Heartbeat beacons the link ate.
        pub dropped_heartbeats: u64,
        /// Control frames rejected as replays.
        pub stale_control_frames: u64,
        /// Heartbeats the health tracker ignored as stale.
        pub stale_heartbeats: u64,
        /// Rounds fused in degraded mode, in fusion order.
        pub degraded_rounds: Vec<u64>,
        /// Sub-models unhosted by the final membership.
        pub missing_sub_models: Vec<usize>,
        /// Virtual seconds charged to crash recovery.
        pub recovery_seconds: f64,
        /// Steady-state throughput of the final membership.
        pub steady_state_samples_per_second: f64,
        /// Realized throughput (samples over virtual end-to-end time).
        pub effective_samples_per_second: f64,
        /// Virtual end-to-end seconds.
        pub simulated_total_seconds: f64,
    }
    state {
        /// Total input samples, from `StreamStarted` — what `StreamEnded`
        /// divides by the end time.
        samples: u64,
        started: bool,
        ended: bool,
    }
}

impl StreamCounters {
    /// Folds one event, recorded at virtual time `at`, into the counters.
    /// This is the single definition of what each stream event counts.
    pub fn apply(&mut self, at: f64, event: &RunEvent) {
        match event {
            RunEvent::StreamStarted {
                rounds,
                round_size,
                samples,
                devices: _,
            } => {
                self.started = true;
                self.rounds = *rounds as usize;
                self.round_size = *round_size as usize;
                self.samples = *samples;
            }
            RunEvent::EpochStarted { .. } => self.epochs += 1,
            // Every frame that travelled is charged here — mutated copies,
            // eaten data frames and lost beacons included — which is what
            // keeps `bytes_on_wire == Σ per_device_wire_bytes` an invariant
            // instead of a coincidence.
            RunEvent::Delivery { device, bytes } => {
                self.bytes_on_wire += bytes;
                *self
                    .per_device_wire_bytes
                    .entry(*device as usize)
                    .or_insert(0) += bytes;
            }
            RunEvent::ControlFrame { .. } => self.control_frames += 1,
            RunEvent::DataFrame { .. } => self.data_frames += 1,
            RunEvent::Heartbeat { .. } => self.heartbeats_seen += 1,
            RunEvent::StaleControlFrame { .. } => self.stale_control_frames += 1,
            RunEvent::StaleHeartbeat { .. } => self.stale_heartbeats += 1,
            RunEvent::CorruptFrame { .. } => self.corrupt_frames += 1,
            RunEvent::DuplicateFrame { .. } => self.duplicate_frames += 1,
            RunEvent::DroppedHeartbeat { .. } => self.dropped_heartbeats += 1,
            RunEvent::Retry { .. } => self.retries += 1,
            RunEvent::RetryCost { seconds } => self.retry_seconds += seconds,
            RunEvent::RoundFused {
                round, degraded, ..
            } => {
                if *degraded {
                    self.degraded_rounds.push(*round);
                }
            }
            RunEvent::EpochEnded { max_in_flight, .. } => {
                self.max_rounds_in_flight = self.max_rounds_in_flight.max(*max_in_flight as usize);
            }
            RunEvent::DeviceRounds { device, rounds } => {
                *self.per_device_rounds.entry(*device as usize).or_insert(0) += rounds;
            }
            RunEvent::DeviceDead { device } => self.devices_lost.push(*device as usize),
            RunEvent::DeviceJoined { device, rejoin } => {
                self.devices_joined.push(*device as usize);
                self.rejoins += usize::from(*rejoin);
            }
            RunEvent::Replan { missing, .. } => {
                self.repartitions += 1;
                self.missing_sub_models = missing.iter().map(|&m| m as usize).collect();
            }
            RunEvent::RoundsReplayed { samples, .. } => {
                self.samples_replayed += *samples as usize;
            }
            RunEvent::Recovery { seconds } => self.recovery_seconds += seconds,
            RunEvent::StreamEnded {
                steady_state_samples_per_second,
            } => {
                self.ended = true;
                self.steady_state_samples_per_second = *steady_state_samples_per_second;
                self.simulated_total_seconds = at;
                self.effective_samples_per_second = if at > 0.0 {
                    self.samples as f64 / at
                } else {
                    f64::INFINITY // an idle stream
                };
            }
            // Serve and batch events belong to the other folds.
            RunEvent::ServeStarted { .. }
            | RunEvent::TenantRegistered { .. }
            | RunEvent::RequestAdmitted { .. }
            | RunEvent::QueueDepth { .. }
            | RunEvent::RequestShedOverflow { .. }
            | RunEvent::RequestShedDeadline { .. }
            | RunEvent::RequestDispatched { .. }
            | RunEvent::DepthChanged { .. }
            | RunEvent::ServeCrash { .. }
            | RunEvent::ServeRecovery { .. }
            | RunEvent::ServeRound { .. }
            | RunEvent::ServeEnded
            | RunEvent::BatchStarted { .. }
            | RunEvent::BatchEnded { .. } => {}
        }
    }
}

counters! {
    /// One tenant's row of a `ServeReport`.
    pub struct TenantRow {
        /// Tenant display name.
        pub name: String,
        /// Requests that arrived for this tenant.
        pub admitted: u64,
        /// Requests served to completion (dispatched).
        pub completed: u64,
        /// Requests shed on arrival (queue full).
        pub shed_overflow: u64,
        /// Requests dropped at dispatch (deadline expired).
        pub shed_deadline: u64,
        /// Deepest this tenant's queue ever grew.
        pub max_queue_depth: usize,
        /// Median round-trip latency (arrival to fused output) in virtual
        /// seconds; 0 when nothing completed.
        pub p50_latency_seconds: f64,
        /// 99th-percentile round-trip latency in virtual seconds.
        pub p99_latency_seconds: f64,
    }
}

impl SameBits for TenantRow {
    fn same_bits(&self, other: &Self) -> bool {
        self.bitwise_eq(other)
    }
}

/// One adaptive pipeline-depth transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthStep {
    /// Round ordinal the transition took effect before.
    pub round: u64,
    /// Depth before.
    pub from: usize,
    /// Depth after.
    pub to: usize,
}

counters! {
    /// The accounting fields of a `ServeReport`, reconstructed by replay.
    pub struct ServeCounters {
        /// Per-tenant rows, in tenant index order.
        pub tenants: Vec<TenantRow>,
        /// Requests that arrived across all tenants.
        pub admitted: u64,
        /// Requests served to completion across all tenants.
        pub completed: u64,
        /// Requests shed across all tenants.
        pub shed: u64,
        /// Rounds the batcher formed.
        pub rounds_formed: usize,
        /// Rounds dispatched below capacity.
        pub partial_rounds: usize,
        /// Every depth transition, in round order.
        pub depth_changes: Vec<DepthStep>,
        /// Pipeline depth the drill started at (post-clamp).
        pub initial_depth: usize,
        /// Pipeline depth after the last round.
        pub final_depth: usize,
        /// Median round-trip latency over all completions.
        pub p50_latency_seconds: f64,
        /// 99th-percentile round-trip latency over all completions.
        pub p99_latency_seconds: f64,
        /// Configured open-loop offered load.
        pub offered_rate_per_second: f64,
        /// Completions per virtual second achieved.
        pub served_samples_per_second: f64,
        /// Virtual time of the last completion.
        pub simulated_total_seconds: f64,
        /// Virtual seconds charged to mid-drill crash recovery.
        pub recovery_seconds: f64,
        /// Devices lost mid-drill, in crash order.
        pub devices_lost: Vec<usize>,
    }
}

/// The append-only event journal of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunJournal {
    events: Vec<EventRecord>,
}

impl RunJournal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        RunJournal::default()
    }

    /// Appends one event at virtual time `at`.
    pub fn push(&mut self, at: f64, event: RunEvent) {
        self.events.push(EventRecord { at, event });
    }

    /// The recorded events, in append order.
    pub fn records(&self) -> &[EventRecord] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the journal: one event per line, trailing newline.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for record in &self.events {
            record.write_line(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parses a journal back from its text form. Blank lines and `#` comment
    /// lines are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`MetricsError::Parse`] with the offending 1-based line number.
    pub fn from_text(text: &str) -> Result<Self> {
        let mut events = Vec::new();
        for (index, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            events.push(EventRecord::from_line(trimmed, index + 1)?);
        }
        Ok(RunJournal { events })
    }

    /// Replays the journal's streaming events into [`StreamCounters`],
    /// ignoring serve and batch events.
    ///
    /// # Errors
    ///
    /// Returns [`MetricsError::Replay`] when the journal holds no complete
    /// stream run (missing `StreamStarted` or `StreamEnded`).
    pub fn replay_stream(&self) -> Result<StreamCounters> {
        let mut counters = StreamCounters::default();
        for record in &self.events {
            counters.apply(record.at, &record.event);
        }
        if !counters.started {
            return Err(MetricsError::Replay {
                message: "no StreamStarted event in the journal".to_string(),
            });
        }
        if !counters.ended {
            return Err(MetricsError::Replay {
                message: "journal records a stream that never ended".to_string(),
            });
        }
        Ok(counters)
    }

    /// Replays the journal's serving events into [`ServeCounters`], ignoring
    /// stream and batch events.
    ///
    /// # Errors
    ///
    /// Returns [`MetricsError::Replay`] when the journal holds no complete
    /// serving drill, names an out-of-range tenant, or carries a round whose
    /// size disagrees with its dispatch events.
    pub fn replay_serve(&self) -> Result<ServeCounters> {
        let mut c = ServeCounters::default();
        let mut capacity: usize = 0;
        let mut started = false;
        let mut ended = false;
        // Requests dispatched since the last formed round: (tenant, arrival).
        let mut pending: Vec<(usize, f64)> = Vec::new();
        let mut per_tenant: Vec<Vec<f64>> = Vec::new();
        let mut all: Vec<f64> = Vec::new();
        let tenant_err = |t: usize| MetricsError::Replay {
            message: format!("event names tenant {t} beyond the registered set"),
        };
        for record in &self.events {
            match &record.event {
                RunEvent::ServeStarted {
                    tenants,
                    capacity: cap,
                    initial_depth,
                    offered_rate_per_second,
                } => {
                    started = true;
                    capacity = *cap as usize;
                    c.initial_depth = *initial_depth as usize;
                    c.offered_rate_per_second = *offered_rate_per_second;
                    c.tenants = vec![TenantRow::default(); *tenants as usize];
                    per_tenant = vec![Vec::new(); *tenants as usize];
                }
                RunEvent::TenantRegistered { tenant, name } => {
                    let t = *tenant as usize;
                    let row = c.tenants.get_mut(t).ok_or_else(|| tenant_err(t))?;
                    row.name.clone_from(name);
                }
                RunEvent::RequestAdmitted { tenant, .. } => {
                    let t = *tenant as usize;
                    c.tenants.get_mut(t).ok_or_else(|| tenant_err(t))?.admitted += 1;
                }
                RunEvent::QueueDepth { tenant, depth } => {
                    let t = *tenant as usize;
                    let row = c.tenants.get_mut(t).ok_or_else(|| tenant_err(t))?;
                    row.max_queue_depth = row.max_queue_depth.max(*depth as usize);
                }
                RunEvent::RequestShedOverflow { tenant, .. } => {
                    let t = *tenant as usize;
                    c.tenants
                        .get_mut(t)
                        .ok_or_else(|| tenant_err(t))?
                        .shed_overflow += 1;
                }
                RunEvent::RequestShedDeadline { tenant, .. } => {
                    let t = *tenant as usize;
                    c.tenants
                        .get_mut(t)
                        .ok_or_else(|| tenant_err(t))?
                        .shed_deadline += 1;
                }
                RunEvent::RequestDispatched {
                    tenant,
                    arrival_seconds,
                    ..
                } => {
                    let t = *tenant as usize;
                    c.tenants.get_mut(t).ok_or_else(|| tenant_err(t))?.completed += 1;
                    pending.push((t, *arrival_seconds));
                }
                RunEvent::DepthChanged { round, from, to } => {
                    c.depth_changes.push(DepthStep {
                        round: *round,
                        from: *from as usize,
                        to: *to as usize,
                    });
                }
                RunEvent::ServeCrash { device, .. } => {
                    c.devices_lost.push(*device as usize);
                }
                RunEvent::ServeRecovery { seconds } => c.recovery_seconds += seconds,
                RunEvent::ServeRound {
                    completion_seconds,
                    size,
                    ..
                } => {
                    if pending.len() != *size as usize {
                        return Err(MetricsError::Replay {
                            message: format!(
                                "round of size {size} but {} dispatch events precede it",
                                pending.len()
                            ),
                        });
                    }
                    c.rounds_formed += 1;
                    if (*size as usize) < capacity {
                        c.partial_rounds += 1;
                    }
                    // Same fold the live drill uses for `end_seconds`.
                    c.simulated_total_seconds =
                        f64::max(c.simulated_total_seconds, *completion_seconds);
                    for &(tenant, arrival) in &pending {
                        let latency = completion_seconds - arrival;
                        per_tenant
                            .get_mut(tenant)
                            .ok_or_else(|| tenant_err(tenant))?
                            .push(latency);
                        all.push(latency);
                    }
                    pending.clear();
                }
                RunEvent::ServeEnded => ended = true,
                // Stream and batch events belong to the other folds.
                RunEvent::StreamStarted { .. }
                | RunEvent::EpochStarted { .. }
                | RunEvent::Delivery { .. }
                | RunEvent::ControlFrame { .. }
                | RunEvent::DataFrame { .. }
                | RunEvent::Heartbeat { .. }
                | RunEvent::StaleControlFrame { .. }
                | RunEvent::StaleHeartbeat { .. }
                | RunEvent::CorruptFrame { .. }
                | RunEvent::DuplicateFrame { .. }
                | RunEvent::DroppedHeartbeat { .. }
                | RunEvent::Retry { .. }
                | RunEvent::RetryCost { .. }
                | RunEvent::RoundFused { .. }
                | RunEvent::EpochEnded { .. }
                | RunEvent::DeviceRounds { .. }
                | RunEvent::DeviceDead { .. }
                | RunEvent::DeviceJoined { .. }
                | RunEvent::Replan { .. }
                | RunEvent::RoundsReplayed { .. }
                | RunEvent::Recovery { .. }
                | RunEvent::StreamEnded { .. }
                | RunEvent::BatchStarted { .. }
                | RunEvent::BatchEnded { .. } => {}
            }
        }
        if !started {
            return Err(MetricsError::Replay {
                message: "no ServeStarted event in the journal".to_string(),
            });
        }
        if !ended {
            return Err(MetricsError::Replay {
                message: "journal records a serving drill that never ended".to_string(),
            });
        }
        all.sort_by(f64::total_cmp);
        for lats in &mut per_tenant {
            lats.sort_by(f64::total_cmp);
        }
        for (row, lats) in c.tenants.iter_mut().zip(&per_tenant) {
            row.p50_latency_seconds = percentile(lats, 0.50);
            row.p99_latency_seconds = percentile(lats, 0.99);
        }
        c.admitted = c.tenants.iter().map(|t| t.admitted).sum();
        c.completed = c.tenants.iter().map(|t| t.completed).sum();
        c.shed = c
            .tenants
            .iter()
            .map(|t| t.shed_overflow + t.shed_deadline)
            .sum();
        c.p50_latency_seconds = percentile(&all, 0.50);
        c.p99_latency_seconds = percentile(&all, 0.99);
        c.served_samples_per_second = if c.simulated_total_seconds > 0.0 {
            c.completed as f64 / c.simulated_total_seconds
        } else {
            0.0
        };
        c.final_depth = c
            .depth_changes
            .last()
            .map_or(c.initial_depth, |step| step.to);
        Ok(c)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ReplanCause;

    fn stream_fixture() -> RunJournal {
        let mut j = RunJournal::new();
        j.push(
            0.0,
            RunEvent::StreamStarted {
                rounds: 4,
                round_size: 2,
                samples: 8,
                devices: 2,
            },
        );
        j.push(0.0, RunEvent::EpochStarted { epoch: 1 });
        for device in 0..2u64 {
            j.push(
                0.0,
                RunEvent::Delivery {
                    device,
                    bytes: 100 + device,
                },
            );
            j.push(0.0, RunEvent::ControlFrame { device });
            j.push(
                0.0,
                RunEvent::Heartbeat {
                    device,
                    sequence: 1,
                },
            );
            j.push(0.0, RunEvent::DataFrame { device });
        }
        j.push(
            0.0,
            RunEvent::Retry {
                device: 1,
                attempt: 1,
            },
        );
        j.push(0.0, RunEvent::RetryCost { seconds: 0.25 });
        j.push(
            0.0,
            RunEvent::RoundFused {
                round: 0,
                samples: 2,
                degraded: true,
            },
        );
        j.push(
            1.0,
            RunEvent::EpochEnded {
                epoch: 1,
                max_in_flight: 2,
            },
        );
        j.push(
            1.0,
            RunEvent::DeviceRounds {
                device: 0,
                rounds: 4,
            },
        );
        j.push(
            1.0,
            RunEvent::DeviceRounds {
                device: 1,
                rounds: 0,
            },
        );
        j.push(1.0, RunEvent::DeviceDead { device: 1 });
        j.push(
            1.0,
            RunEvent::Replan {
                cause: ReplanCause::Death,
                missing: vec![2],
            },
        );
        j.push(
            1.0,
            RunEvent::RoundsReplayed {
                rounds: 1,
                samples: 2,
            },
        );
        j.push(1.0, RunEvent::Recovery { seconds: 0.5 });
        j.push(
            2.0,
            RunEvent::StreamEnded {
                steady_state_samples_per_second: 4.0,
            },
        );
        j
    }

    #[test]
    fn nearest_rank_percentile_matches_hand_computed_values() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.5), 2.0);
        assert_eq!(percentile(&sorted, 0.99), 4.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 1.0), 4.0);
        assert_eq!(percentile(&sorted, 2.0), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn stream_replay_folds_every_counter() {
        let c = stream_fixture().replay_stream().unwrap();
        assert_eq!(c.rounds, 4);
        assert_eq!(c.round_size, 2);
        assert_eq!(c.epochs, 1);
        assert_eq!(c.heartbeats_seen, 2);
        assert_eq!(c.control_frames, 2);
        assert_eq!(c.data_frames, 2);
        assert_eq!(c.bytes_on_wire, 201);
        assert_eq!(c.per_device_wire_bytes[&0], 100);
        assert_eq!(c.per_device_wire_bytes[&1], 101);
        assert_eq!(c.per_device_rounds[&0], 4);
        assert_eq!(c.per_device_rounds[&1], 0);
        assert_eq!(c.devices_lost, vec![1]);
        assert_eq!(c.retries, 1);
        assert_eq!(c.retry_seconds, 0.25);
        assert_eq!(c.degraded_rounds, vec![0]);
        assert_eq!(c.missing_sub_models, vec![2]);
        assert_eq!(c.repartitions, 1);
        assert_eq!(c.samples_replayed, 2);
        assert_eq!(c.recovery_seconds, 0.5);
        assert_eq!(c.max_rounds_in_flight, 2);
        assert_eq!(c.simulated_total_seconds, 2.0);
        assert_eq!(c.effective_samples_per_second, 4.0);
        let again = stream_fixture().replay_stream().unwrap();
        assert!(c.bitwise_eq(&again));
        assert!(c.diff(&again).is_empty());
    }

    #[test]
    fn diff_names_differing_fields_and_compares_floats_by_bit_pattern() {
        let a = ServeCounters {
            tenants: vec![TenantRow::default()],
            simulated_total_seconds: f64::NAN,
            ..ServeCounters::default()
        };
        let mut b = a.clone();
        // Same NaN bits: identical accounting, though `a != b`.
        assert!(a.bitwise_eq(&b));
        // -0.0 == 0.0, but the bits differ — inside a tenant row too.
        b.tenants[0].p99_latency_seconds = -0.0;
        b.shed = 1;
        assert_eq!(a.diff(&b), ["tenants", "shed"]);
    }

    #[test]
    fn journal_text_round_trips_and_replays_identically() {
        let journal = stream_fixture();
        let text = journal.to_text();
        let back = RunJournal::from_text(&text).unwrap();
        assert_eq!(back, journal);
        assert_eq!(back.len(), journal.len());
        assert!(!back.is_empty());
        assert!(journal
            .replay_stream()
            .unwrap()
            .bitwise_eq(&back.replay_stream().unwrap()));
        // Comments and blank lines are tolerated.
        let annotated = format!("# post-mortem dump\n\n{text}");
        assert_eq!(RunJournal::from_text(&annotated).unwrap(), journal);
    }

    #[test]
    fn incomplete_journals_are_replay_errors() {
        let empty = RunJournal::new();
        assert!(matches!(
            empty.replay_stream(),
            Err(MetricsError::Replay { .. })
        ));
        assert!(matches!(
            empty.replay_serve(),
            Err(MetricsError::Replay { .. })
        ));
        let mut truncated = RunJournal::new();
        truncated.push(
            0.0,
            RunEvent::StreamStarted {
                rounds: 1,
                round_size: 1,
                samples: 1,
                devices: 1,
            },
        );
        assert!(matches!(
            truncated.replay_stream(),
            Err(MetricsError::Replay { .. })
        ));
        // A bad line surfaces as a parse error with its line number.
        let err = RunJournal::from_text("t=0 StreamStarted rounds=1\n").unwrap_err();
        assert!(matches!(err, MetricsError::Parse { line: 1, .. }));
    }

    #[test]
    fn serve_replay_reconstructs_tenant_rows_and_depth_chain() {
        let mut j = RunJournal::new();
        j.push(
            0.0,
            RunEvent::ServeStarted {
                tenants: 2,
                capacity: 2,
                initial_depth: 2,
                offered_rate_per_second: 3.5,
            },
        );
        j.push(
            0.0,
            RunEvent::TenantRegistered {
                tenant: 0,
                name: "interactive".to_string(),
            },
        );
        j.push(
            0.0,
            RunEvent::TenantRegistered {
                tenant: 1,
                name: "batch".to_string(),
            },
        );
        for id in 0..3u64 {
            j.push(0.1, RunEvent::RequestAdmitted { tenant: 0, id });
        }
        j.push(
            0.1,
            RunEvent::QueueDepth {
                tenant: 0,
                depth: 2,
            },
        );
        j.push(0.1, RunEvent::RequestShedOverflow { tenant: 0, id: 2 });
        j.push(0.2, RunEvent::RequestAdmitted { tenant: 1, id: 3 });
        j.push(
            0.2,
            RunEvent::QueueDepth {
                tenant: 1,
                depth: 1,
            },
        );
        j.push(
            0.3,
            RunEvent::RequestDispatched {
                tenant: 0,
                id: 0,
                arrival_seconds: 0.1,
            },
        );
        j.push(
            0.3,
            RunEvent::RequestDispatched {
                tenant: 1,
                id: 3,
                arrival_seconds: 0.2,
            },
        );
        j.push(
            0.3,
            RunEvent::DepthChanged {
                round: 0,
                from: 2,
                to: 3,
            },
        );
        j.push(
            0.3,
            RunEvent::ServeCrash {
                device: 1,
                round: 0,
            },
        );
        j.push(0.3, RunEvent::ServeRecovery { seconds: 0.4 });
        j.push(
            0.3,
            RunEvent::ServeRound {
                round: 0,
                start_seconds: 0.3,
                completion_seconds: 1.3,
                size: 2,
            },
        );
        j.push(
            0.9,
            RunEvent::RequestDispatched {
                tenant: 0,
                id: 1,
                arrival_seconds: 0.1,
            },
        );
        j.push(0.9, RunEvent::RequestShedDeadline { tenant: 0, id: 9 });
        j.push(
            0.9,
            RunEvent::ServeRound {
                round: 1,
                start_seconds: 0.9,
                completion_seconds: 1.9,
                size: 1,
            },
        );
        j.push(1.9, RunEvent::ServeEnded);
        let c = j.replay_serve().unwrap();
        assert_eq!(c.tenants[0].name, "interactive");
        assert_eq!(c.tenants[0].admitted, 3);
        assert_eq!(c.tenants[0].completed, 2);
        assert_eq!(c.tenants[0].shed_overflow, 1);
        assert_eq!(c.tenants[0].shed_deadline, 1);
        assert_eq!(c.tenants[0].max_queue_depth, 2);
        assert_eq!(c.tenants[1].completed, 1);
        assert_eq!(c.admitted, 4);
        assert_eq!(c.completed, 3);
        assert_eq!(c.shed, 2);
        assert_eq!(c.rounds_formed, 2);
        assert_eq!(c.partial_rounds, 1);
        assert_eq!(c.initial_depth, 2);
        assert_eq!(c.final_depth, 3);
        assert_eq!(c.depth_changes.len(), 1);
        assert_eq!(c.devices_lost, vec![1]);
        assert_eq!(c.recovery_seconds, 0.4);
        assert_eq!(c.simulated_total_seconds, 1.9);
        // p50 over [1.1, 1.2, 1.8] sorted.
        assert_eq!(c.p50_latency_seconds, 1.2);
        assert!(c.bitwise_eq(&j.replay_serve().unwrap()));
    }

    #[test]
    fn serve_replay_rejects_inconsistent_rounds_and_unknown_tenants() {
        let mut j = RunJournal::new();
        j.push(
            0.0,
            RunEvent::ServeStarted {
                tenants: 1,
                capacity: 2,
                initial_depth: 1,
                offered_rate_per_second: 1.0,
            },
        );
        j.push(0.0, RunEvent::RequestAdmitted { tenant: 5, id: 0 });
        assert!(matches!(j.replay_serve(), Err(MetricsError::Replay { .. })));
        let mut j = RunJournal::new();
        j.push(
            0.0,
            RunEvent::ServeStarted {
                tenants: 1,
                capacity: 2,
                initial_depth: 1,
                offered_rate_per_second: 1.0,
            },
        );
        j.push(
            0.0,
            RunEvent::ServeRound {
                round: 0,
                start_seconds: 0.0,
                completion_seconds: 1.0,
                size: 3,
            },
        );
        j.push(1.0, RunEvent::ServeEnded);
        assert!(matches!(j.replay_serve(), Err(MetricsError::Replay { .. })));
    }
}
