//! The event-sourced run journal and the folds that turn it into counters.
//!
//! A [`RunJournal`] is an append-only sequence of [`EventRecord`]s.
//! [`StreamCounters::apply`] folds one stream event into the accounting of a
//! `StreamReport` and [`ServeCounters::apply`] one serve event into that of a
//! `ServeReport`, and they are the *only* places a counter changes: a live
//! run records each event through a [`Ledger`], which folds it and forwards
//! it to the sink, and [`RunJournal::replay_stream`] /
//! [`RunJournal::replay_serve`] fold the same events offline with the same
//! code, so a journal reconstructs every counter **bitwise** (`f64`s compared
//! by bit pattern, not epsilon) by construction. That property is what makes
//! the journal a post-mortem artifact: a replay that diverges from the report
//! it came with is a real difference, never float noise.
//!
//! One journal can hold all three event families (stream, serve, batch);
//! each fold takes its own family and names the others it passes over, so a
//! serving run that embeds a streaming execution pass replays both ways from
//! one file — and a new event does not compile until every fold places it.
//! A fold counts exactly **one** run of its family: a second `*Started`, or
//! anything of the family outside `*Started` … `*Ended`, is a
//! [`MetricsError::Replay`] from [`Fold::finish`], never a silent mixture.

use std::collections::BTreeMap;

use crate::error::{MetricsError, Result};
use crate::event::{EventFamily, EventRecord, RunEvent};
use crate::sink::MetricsSink;

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

/// The accounting of one run as a fold over its events: what a [`Ledger`]
/// keeps live and what a [`RunJournal`] replays offline.
pub trait Fold: Default {
    /// Folds one event, recorded at virtual time `at`, into the counters.
    /// Total: an event the fold cannot place is remembered, not panicked on.
    fn apply(&mut self, at: f64, event: &RunEvent);

    /// The counters of a complete run.
    ///
    /// # Errors
    ///
    /// Returns [`MetricsError::Replay`] naming the first event the fold
    /// could not place, or saying that the run never started or never ended.
    fn finish(self) -> Result<Self>;
}

/// Where a fold is in the one run it counts. After a fault — the first event
/// it could not place — the fold counts nothing more, and [`Fold::finish`]
/// reports it.
#[derive(Clone, Default, PartialEq)]
enum Run {
    #[default]
    Idle,
    Open,
    Closed,
    Faulted(String),
}

impl Run {
    /// Whether `event` is the fold's to count: of `family`, inside the one
    /// run that an `opens` event starts and a `closes` event ends.
    fn admits(&mut self, family: EventFamily, event: &RunEvent, opens: bool, closes: bool) -> bool {
        if event.family() != family {
            return false;
        }
        // Only a fault formats anything: this runs once per live event.
        let fault = |what: &str| Run::Faulted(format!("{}: {what}", event.name()));
        *self = match (&*self, opens) {
            (Run::Faulted(_), _) => return false,
            (Run::Idle, true) | (Run::Open, false) if closes => Run::Closed,
            (Run::Idle, true) | (Run::Open, false) => Run::Open,
            (Run::Idle, false) => fault("before its run started"),
            (Run::Open, true) => fault("a second start; a fold counts one run"),
            (Run::Closed, _) => fault("after its run ended"),
        };
        !matches!(self, Run::Faulted(_))
    }

    fn finish(&self, family: EventFamily) -> Result<()> {
        let message = match self {
            Run::Closed => return Ok(()),
            Run::Faulted(fault) => fault.clone(),
            Run::Idle => format!("no {family:?}Started event in the journal"),
            Run::Open => format!("journal records a {family:?} run that never ended"),
        };
        Err(MetricsError::Replay { message })
    }
}

/// Declares a counter struct from its field list — the one place the fields
/// are named — and generates `diff` / `bitwise_eq` over that list. A
/// `fold(family)` block makes the struct a [`Fold`] of that family's events:
/// its fields are private bookkeeping (not compared by `diff`, not printed)
/// next to the run's lifecycle state, and `finish` is generated; the
/// struct's own `apply` says what each event counts.
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$field_meta:meta])* pub $field:ident: $ty:ty,)+
        }
        $(fold($family:ident) {
            $($(#[$state_meta:meta])* $state:ident: $state_ty:ty,)*
        })?
    ) => {
        $(#[$meta])*
        #[derive(Clone, Default, PartialEq)]
        pub struct $name {
            $($(#[$field_meta])* pub $field: $ty,)+
            $(
                /// Lifecycle of the one run this fold counts.
                run: Run,
                $($(#[$state_meta])* $state: $state_ty,)*
            )?
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

        $(impl Fold for $name {
            fn apply(&mut self, at: f64, event: &RunEvent) {
                $name::apply(self, at, event);
            }

            fn finish(self) -> Result<Self> {
                self.run.finish(EventFamily::$family)?;
                Ok(self)
            }
        })?
    };
}

counters! {
    /// The accounting of a `StreamReport`: the fold of a run's stream events,
    /// live in the scheduler and offline in the replay.
    pub struct StreamCounters {
        /// Total rounds in the layout.
        pub rounds: usize,
        /// Configured samples per round.
        pub round_size: usize,
        /// Membership epochs executed (1 + number of repartitions).
        pub epochs: usize,
        /// Most rounds simultaneously in flight (produced by some device but
        /// not yet fused), as the device workers observed it. This is the one
        /// scheduling-dependent statistic — where it lands depends on OS
        /// thread interleaving; every timing and replay number is
        /// deterministic. In-process lanes hold it to `pipeline_depth + 1`;
        /// TCP lanes do not (socket buffers let a device run 183–185 rounds
        /// ahead at depth 2). Always 0 from `StreamScheduler::collect_lanes`:
        /// the collector cannot see how far a remote producer has run ahead.
        pub max_rounds_in_flight: usize,
        /// Heartbeat control frames observed.
        pub heartbeats_seen: u64,
        /// All control frames observed (join + leave + heartbeat).
        pub control_frames: usize,
        /// Feature-batch data frames observed.
        pub data_frames: usize,
        /// Encoded bytes shipped over the channel (data + control frames),
        /// including corrupted and duplicated deliveries — they travelled too.
        pub bytes_on_wire: u64,
        /// Encoded bytes each device shipped, keyed by device id. Devices
        /// that joined in any epoch appear, including ones that later died.
        pub per_device_wire_bytes: BTreeMap<usize, u64>,
        /// Rounds each device delivered (heartbeats received from it), keyed
        /// by device id and accumulated across epochs.
        pub per_device_rounds: BTreeMap<usize, u64>,
        /// Devices declared dead, in detection order (crashes and links whose
        /// retry budget ran out).
        pub devices_lost: Vec<usize>,
        /// Devices admitted mid-stream via a `Join` frame, in admission order.
        pub devices_joined: Vec<usize>,
        /// How many of those admissions were rejoins — a previously dead or
        /// departed id coming back as a new identity-epoch.
        pub rejoins: usize,
        /// Times the planner re-assigned sub-models (deaths and joins).
        pub repartitions: usize,
        /// Samples that were in flight at a death and had to be recomputed.
        pub samples_replayed: usize,
        /// Data-frame re-requests issued after corrupt, truncated or dropped
        /// deliveries. Bounded by `max_retries` per frame.
        pub retries: u64,
        /// Virtual seconds spent in retry backoff, already included in
        /// `simulated_total_seconds`.
        pub retry_seconds: f64,
        /// Failed deliveries observed: frames that arrived corrupted or
        /// truncated, or data frames the link ate.
        pub corrupt_frames: u64,
        /// Data frames whose payload duplicated already-stashed samples
        /// (first delivery wins; the copy is counted and discarded).
        pub duplicate_frames: u64,
        /// Heartbeat beacons the link ate. A lost beacon is not retried — the
        /// next fresh beacon or the device's leave closes the round instead.
        pub dropped_heartbeats: u64,
        /// Control frames rejected by the sequence deduper as replays or
        /// stale reorderings.
        pub stale_control_frames: u64,
        /// Heartbeats the health tracker ignored as stale (replayed,
        /// reordered, wrapped, or sent by an already-terminal device).
        pub stale_heartbeats: u64,
        /// Rounds fused in degraded mode (some sub-model unhosted, its
        /// feature zero-filled), in fusion order.
        pub degraded_rounds: Vec<u64>,
        /// Sub-models left unhosted by the *final* membership (empty when the
        /// stream ended at full fidelity).
        pub missing_sub_models: Vec<usize>,
        /// Virtual seconds from a device's death to its sub-models producing
        /// fused output again: detection (the missed heartbeat plus the
        /// `grace_rounds` deadline) + re-planning + replaying the in-flight
        /// rounds. Zero when no device died.
        pub recovery_seconds: f64,
        /// Steady-state throughput of the final membership, from the analytic
        /// stream timing at the *nominal* round size — what the pipeline
        /// would sustain if every round were full.
        pub steady_state_samples_per_second: f64,
        /// Realized throughput: samples actually fused divided by the virtual
        /// end-to-end time. Unlike the steady-state figure this divides by
        /// what the rounds really carried, so an under-filled final round (or
        /// a stream of partial continuous batches) is priced at its true
        /// sample count instead of the nominal `round_size`.
        pub effective_samples_per_second: f64,
        /// Virtual end-to-end seconds on the scheduler's `SimClock`.
        pub simulated_total_seconds: f64,
    }
    fold(Stream) {
        /// Total input samples, from `StreamStarted` — what `StreamEnded`
        /// divides by the end time.
        samples: u64,
    }
}

impl StreamCounters {
    /// Folds one event, recorded at virtual time `at`, into the counters.
    /// This is the single definition of what each stream event counts.
    pub fn apply(&mut self, at: f64, event: &RunEvent) {
        let opens = matches!(event, RunEvent::StreamStarted { .. });
        let closes = matches!(event, RunEvent::StreamEnded { .. });
        if !self.run.admits(EventFamily::Stream, event, opens, closes) {
            return;
        }
        match event {
            RunEvent::StreamStarted {
                rounds,
                round_size,
                samples,
                devices: _,
            } => {
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
    /// One tenant's row of a `ServeReport`. At every step of a drill
    /// `admitted == completed + shed_overflow + shed_deadline + queued`.
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
    /// The accounting of a `ServeReport`: the fold of a drill's serve events,
    /// live in the serving scheduler and offline in the replay. Percentiles
    /// and the served rate are priced when `ServeEnded` is folded; every
    /// other field is current after each event.
    pub struct ServeCounters {
        /// Per-tenant rows, in tenant index order.
        pub tenants: Vec<TenantRow>,
        /// Requests that arrived across all tenants.
        pub admitted: u64,
        /// Requests served to completion across all tenants.
        pub completed: u64,
        /// Requests shed across all tenants (overflow + deadline).
        pub shed: u64,
        /// Rounds the batcher formed.
        pub rounds_formed: usize,
        /// Rounds dispatched below the configured capacity (continuous
        /// batching never waits to fill — partial rounds are the feature,
        /// not a bug).
        pub partial_rounds: usize,
        /// Every adaptive pipeline-depth transition, in round order.
        pub depth_changes: Vec<DepthStep>,
        /// Pipeline depth the drill started at (post-clamp). The transition
        /// chain is anchored here: the first `depth_changes` entry, when
        /// any, departs *from* this value.
        pub initial_depth: usize,
        /// Pipeline depth after the last transition so far — the depth the
        /// drill is running at.
        pub final_depth: usize,
        /// Median round-trip latency over all completed requests.
        pub p50_latency_seconds: f64,
        /// 99th-percentile round-trip latency over all completed requests.
        pub p99_latency_seconds: f64,
        /// The open-loop offered load, arrivals per virtual second.
        pub offered_rate_per_second: f64,
        /// Completions per virtual second actually achieved.
        pub served_samples_per_second: f64,
        /// Virtual time of the last completion, on a clock that starts at 0
        /// (not at the first arrival).
        pub simulated_total_seconds: f64,
        /// Virtual seconds spent detecting crashes, re-planning, and
        /// replaying.
        pub recovery_seconds: f64,
        /// Device ids lost to mid-drill crashes, in crash order.
        pub devices_lost: Vec<usize>,
    }
    fold(Serve) {
        /// Round capacity, from `ServeStarted` — what a partial round is
        /// smaller than.
        capacity: usize,
        /// Requests dispatched since the last formed round: (tenant, arrival).
        pending: Vec<(usize, f64)>,
        /// Round-trip latency of every completed request, per tenant.
        latencies: Vec<Vec<f64>>,
    }
}

impl ServeCounters {
    /// Folds one event, recorded at virtual time `at`, into the counters.
    /// This is the single definition of what each serve event counts.
    pub fn apply(&mut self, _at: f64, event: &RunEvent) {
        let opens = matches!(event, RunEvent::ServeStarted { .. });
        let closes = matches!(event, RunEvent::ServeEnded);
        if !self.run.admits(EventFamily::Serve, event, opens, closes) {
            return;
        }
        match event {
            RunEvent::ServeStarted {
                tenants,
                capacity,
                initial_depth,
                offered_rate_per_second,
            } => {
                self.capacity = *capacity as usize;
                self.initial_depth = *initial_depth as usize;
                self.final_depth = self.initial_depth;
                self.offered_rate_per_second = *offered_rate_per_second;
                self.tenants = vec![TenantRow::default(); *tenants as usize];
                self.latencies = vec![Vec::new(); *tenants as usize];
            }
            RunEvent::TenantRegistered { tenant, name } => {
                if let Some(row) = self.row(*tenant) {
                    row.name.clone_from(name);
                }
            }
            RunEvent::RequestAdmitted { tenant, .. } => {
                if let Some(row) = self.row(*tenant) {
                    row.admitted += 1;
                    self.admitted += 1;
                }
            }
            RunEvent::QueueDepth { tenant, depth } => {
                if let Some(row) = self.row(*tenant) {
                    row.max_queue_depth = row.max_queue_depth.max(*depth as usize);
                }
            }
            RunEvent::RequestShedOverflow { tenant, .. } => {
                if let Some(row) = self.row(*tenant) {
                    row.shed_overflow += 1;
                    self.shed += 1;
                }
            }
            RunEvent::RequestShedDeadline { tenant, .. } => {
                if let Some(row) = self.row(*tenant) {
                    row.shed_deadline += 1;
                    self.shed += 1;
                }
            }
            RunEvent::RequestDispatched {
                tenant,
                arrival_seconds,
                ..
            } => {
                if let Some(row) = self.row(*tenant) {
                    row.completed += 1;
                    self.completed += 1;
                    self.pending.push((*tenant as usize, *arrival_seconds));
                }
            }
            RunEvent::DepthChanged { round, from, to } => {
                self.final_depth = *to as usize;
                self.depth_changes.push(DepthStep {
                    round: *round,
                    from: *from as usize,
                    to: self.final_depth,
                });
            }
            RunEvent::ServeCrash { device, .. } => self.devices_lost.push(*device as usize),
            RunEvent::ServeRecovery { seconds } => self.recovery_seconds += seconds,
            RunEvent::ServeRound {
                completion_seconds,
                size,
                ..
            } => {
                if self.pending.len() != *size as usize {
                    self.run = Run::Faulted(format!(
                        "round of size {size} but {} dispatch events precede it",
                        self.pending.len()
                    ));
                    return;
                }
                self.rounds_formed += 1;
                self.partial_rounds += usize::from((*size as usize) < self.capacity);
                self.simulated_total_seconds =
                    f64::max(self.simulated_total_seconds, *completion_seconds);
                // The requests dispatched since the previous round ride in
                // this one; their tenants were checked at dispatch.
                for (tenant, arrival) in self.pending.drain(..) {
                    self.latencies[tenant].push(completion_seconds - arrival);
                }
            }
            RunEvent::ServeEnded => {
                for (row, latencies) in self.tenants.iter_mut().zip(&mut self.latencies) {
                    latencies.sort_by(f64::total_cmp);
                    row.p50_latency_seconds = percentile(latencies, 0.50);
                    row.p99_latency_seconds = percentile(latencies, 0.99);
                }
                let mut all = self.latencies.concat();
                all.sort_by(f64::total_cmp);
                self.p50_latency_seconds = percentile(&all, 0.50);
                self.p99_latency_seconds = percentile(&all, 0.99);
                self.served_samples_per_second = if self.simulated_total_seconds > 0.0 {
                    self.completed as f64 / self.simulated_total_seconds
                } else {
                    0.0
                };
            }
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

    /// The row an event's `tenant` names; an index beyond the registered set
    /// faults the fold.
    fn row(&mut self, tenant: u64) -> Option<&mut TenantRow> {
        let row = self.tenants.get_mut(tenant as usize);
        if row.is_none() {
            self.run = Run::Faulted(format!(
                "event names tenant {tenant} beyond the registered set"
            ));
        }
        row
    }
}

/// A live run's accounting. Every event the run observes goes through
/// [`Ledger::record`], which folds it into `counters` — always, so a report
/// never depends on the sink — and forwards it to the sink (the optional
/// journal and registry). No counter changes anywhere else: the report is
/// this fold, and so is the journal's offline replay.
#[derive(Debug, Clone, Default)]
pub struct Ledger<C> {
    /// The fold of everything recorded so far.
    pub counters: C,
    sink: MetricsSink,
}

impl<C: Fold> Ledger<C> {
    /// An empty ledger forwarding to `sink`.
    pub fn new(sink: MetricsSink) -> Self {
        Ledger {
            counters: C::default(),
            sink,
        }
    }

    /// Counts one event, recorded at virtual time `at`, and forwards it.
    pub fn record(&mut self, at: f64, event: RunEvent) {
        self.counters.apply(at, &event);
        self.sink.record(at, event);
    }

    /// The counters of the finished run.
    ///
    /// # Errors
    ///
    /// Whatever [`Fold::finish`] returns.
    pub fn finish(self) -> Result<C> {
        self.counters.finish()
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

    /// Folds every record, in order, into a fresh `C` and finishes it.
    fn replay<C: Fold>(&self) -> Result<C> {
        let mut counters = C::default();
        for record in &self.events {
            counters.apply(record.at, &record.event);
        }
        counters.finish()
    }

    /// Replays the journal's streaming events into [`StreamCounters`],
    /// ignoring serve and batch events.
    ///
    /// # Errors
    ///
    /// Returns [`MetricsError::Replay`] unless the journal holds exactly one
    /// complete stream run (`StreamStarted` … `StreamEnded`).
    pub fn replay_stream(&self) -> Result<StreamCounters> {
        self.replay()
    }

    /// Replays the journal's serving events into [`ServeCounters`], ignoring
    /// stream and batch events.
    ///
    /// # Errors
    ///
    /// Returns [`MetricsError::Replay`] unless the journal holds exactly one
    /// complete serving drill, or when it names an out-of-range tenant or
    /// carries a round whose size disagrees with its dispatch events.
    pub fn replay_serve(&self) -> Result<ServeCounters> {
        self.replay()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One epoch of a two-device stream: a retry, a degraded round, then
    /// device 1 dies and the survivors are re-planned.
    fn stream_fixture() -> RunJournal {
        RunJournal::from_text(
            "t=0 StreamStarted rounds=4 round_size=2 samples=8 devices=2
             t=0 EpochStarted epoch=1
             t=0 Delivery device=0 bytes=100
             t=0 ControlFrame device=0
             t=0 Heartbeat device=0 sequence=1
             t=0 DataFrame device=0
             t=0 Delivery device=1 bytes=101
             t=0 ControlFrame device=1
             t=0 Heartbeat device=1 sequence=1
             t=0 DataFrame device=1
             t=0 Retry device=1 attempt=1
             t=0 RetryCost seconds=0.25
             t=0 RoundFused round=0 samples=2 degraded=true
             t=1 EpochEnded epoch=1 max_in_flight=2
             t=1 DeviceRounds device=0 rounds=4
             t=1 DeviceRounds device=1 rounds=0
             t=1 DeviceDead device=1
             t=1 Replan cause=death missing=2
             t=1 RoundsReplayed rounds=1 samples=2
             t=1 Recovery seconds=0.5
             t=2 StreamEnded steady_state=4",
        )
        .unwrap()
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
        let j = RunJournal::from_text(
            "t=0 ServeStarted tenants=2 capacity=2 initial_depth=2 offered_rate=3.5
             t=0 TenantRegistered tenant=0 name=\"interactive\"
             t=0 TenantRegistered tenant=1 name=\"batch\"
             t=0.1 RequestAdmitted tenant=0 id=0
             t=0.1 RequestAdmitted tenant=0 id=1
             t=0.1 RequestAdmitted tenant=0 id=2
             t=0.1 QueueDepth tenant=0 depth=2
             t=0.1 RequestShedOverflow tenant=0 id=2
             t=0.2 RequestAdmitted tenant=1 id=3
             t=0.2 QueueDepth tenant=1 depth=1
             t=0.3 RequestDispatched tenant=0 id=0 arrival=0.1
             t=0.3 RequestDispatched tenant=1 id=3 arrival=0.2
             t=0.3 DepthChanged round=0 from=2 to=3
             t=0.3 ServeCrash device=1 round=0
             t=0.3 ServeRecovery seconds=0.4
             t=0.3 ServeRound round=0 start=0.3 completion=1.3 size=2
             t=0.9 RequestDispatched tenant=0 id=1 arrival=0.1
             t=0.9 RequestShedDeadline tenant=0 id=9
             t=0.9 ServeRound round=1 start=0.9 completion=1.9 size=1
             t=1.9 ServeEnded",
        )
        .unwrap();
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
