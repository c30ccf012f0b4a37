//! The multi-tenant admission queue: bounded per-tenant FIFOs, deadline
//! drops at dispatch, and round-robin fairness when a round is formed.
//!
//! The state machine a request moves through:
//!
//! ```text
//!            offer()                    drain_round()
//! arrival ──────────────► queued ─────────────────────► dispatched
//!    │                       │
//!    │ queue full            │ older than the tenant deadline at dispatch
//!    ▼                       ▼
//!  shed_overflow          shed_deadline
//! ```
//!
//! Every offered request ends in exactly one of `dispatched`,
//! `shed_overflow` or `shed_deadline` (or is still queued); the counters are
//! maintained so that `admitted == dispatched + shed + queued` holds per
//! tenant at every step — the invariant the admission proptests pin.

use std::collections::VecDeque;

use edvit_metrics::{MetricsSink, RunEvent};

use crate::request::{Request, TenantSpec};
use crate::{Result, ServeError};

/// What [`AdmissionQueue::offer`] did with a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// The request was queued for dispatch.
    Queued,
    /// The tenant's queue was full; the request was shed on arrival.
    ShedOverflow,
}

/// Per-tenant admission accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Requests offered to admission (everything that arrived).
    pub admitted: u64,
    /// Requests shed on arrival because the queue was full.
    pub shed_overflow: u64,
    /// Requests dropped at dispatch because they outlived their deadline.
    pub shed_deadline: u64,
    /// Requests handed to a round.
    pub dispatched: u64,
    /// Deepest the queue ever grew.
    pub max_queue_depth: usize,
}

impl TenantCounters {
    /// Total requests shed, for whatever reason.
    pub fn shed(&self) -> u64 {
        self.shed_overflow + self.shed_deadline
    }
}

/// Bounded multi-tenant admission queues with round-robin draining.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    tenants: Vec<TenantSpec>,
    queues: Vec<VecDeque<Request>>,
    counters: Vec<TenantCounters>,
    /// Next tenant the round-robin drain visits; persists across rounds so a
    /// busy tenant cannot starve a quiet one.
    cursor: usize,
    /// Observability sink admission decisions are journaled into. Disabled
    /// (a no-op) unless [`AdmissionQueue::attach_sink`] hands in a recorder.
    sink: MetricsSink,
}

impl AdmissionQueue {
    /// Creates the queues for the given tenants.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when the tenant list is empty.
    pub fn new(tenants: Vec<TenantSpec>) -> Result<Self> {
        if tenants.is_empty() {
            return Err(ServeError::InvalidConfig {
                message: "admission needs at least one tenant".to_string(),
            });
        }
        let n = tenants.len();
        Ok(AdmissionQueue {
            tenants,
            queues: vec![VecDeque::new(); n],
            counters: vec![TenantCounters::default(); n],
            cursor: 0,
            sink: MetricsSink::disabled(),
        })
    }

    /// Attaches the observability sink admission events are recorded into.
    /// Events mirror the counters one-for-one, so an offline replay of the
    /// journal reconstructs every [`TenantCounters`] field exactly.
    pub fn attach_sink(&mut self, sink: MetricsSink) {
        self.sink = sink;
    }

    /// The tenant specifications, in index order.
    pub fn tenants(&self) -> &[TenantSpec] {
        &self.tenants
    }

    /// Offers one arriving request: queued when the tenant has room, shed
    /// immediately when not.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when the request names an
    /// unknown tenant.
    pub fn offer(&mut self, request: Request) -> Result<AdmissionVerdict> {
        let t = request.tenant;
        if t >= self.tenants.len() {
            return Err(ServeError::InvalidConfig {
                message: format!(
                    "request {} names tenant {t}, but only {} exist",
                    request.id,
                    self.tenants.len()
                ),
            });
        }
        self.counters[t].admitted += 1;
        let at = request.arrival_seconds;
        self.sink.record(
            at,
            RunEvent::RequestAdmitted {
                tenant: t as u64,
                id: request.id,
            },
        );
        if self.queues[t].len() >= self.tenants[t].max_queue {
            self.counters[t].shed_overflow += 1;
            self.sink.record(
                at,
                RunEvent::RequestShedOverflow {
                    tenant: t as u64,
                    id: request.id,
                },
            );
            return Ok(AdmissionVerdict::ShedOverflow);
        }
        self.queues[t].push_back(request);
        self.counters[t].max_queue_depth =
            self.counters[t].max_queue_depth.max(self.queues[t].len());
        self.sink.record(
            at,
            RunEvent::QueueDepth {
                tenant: t as u64,
                depth: self.queues[t].len() as u64,
            },
        );
        Ok(AdmissionVerdict::Queued)
    }

    /// Forms one round of up to `capacity` requests at virtual time `now`:
    /// round-robin across tenants (one request per visit, cursor persisted
    /// across rounds), preserving FIFO order within each tenant. Queued
    /// requests older than their tenant's deadline are dropped instead of
    /// dispatched.
    pub fn drain_round(&mut self, now: f64, capacity: usize) -> Vec<Request> {
        let mut batch = Vec::new();
        let n = self.queues.len();
        let mut empty_streak = 0usize;
        while batch.len() < capacity && empty_streak < n {
            let t = self.cursor;
            self.cursor = (self.cursor + 1) % n;
            let deadline = self.tenants[t].deadline_seconds;
            // Expired requests sit at the front (per-tenant FIFO ages in
            // arrival order); shed them before dispatching the head.
            while let Some(front) = self.queues[t].front() {
                if deadline > 0.0 && front.arrival_seconds + deadline < now {
                    let expired = self.queues[t].pop_front();
                    self.counters[t].shed_deadline += 1;
                    if let Some(expired) = expired {
                        self.sink.record(
                            now,
                            RunEvent::RequestShedDeadline {
                                tenant: t as u64,
                                id: expired.id,
                            },
                        );
                    }
                } else {
                    break;
                }
            }
            match self.queues[t].pop_front() {
                Some(request) => {
                    self.counters[t].dispatched += 1;
                    self.sink.record(
                        now,
                        RunEvent::RequestDispatched {
                            tenant: t as u64,
                            id: request.id,
                            arrival_seconds: request.arrival_seconds,
                        },
                    );
                    batch.push(request);
                    empty_streak = 0;
                }
                None => empty_streak += 1,
            }
        }
        batch
    }

    /// Total requests currently queued across all tenants.
    pub fn queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Requests currently queued for one tenant (0 for unknown tenants).
    pub fn queued_of(&self, tenant: usize) -> usize {
        self.queues.get(tenant).map_or(0, VecDeque::len)
    }

    /// Per-tenant counters, in tenant index order.
    pub fn counters(&self) -> &[TenantCounters] {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64, tenant: usize, at: f64) -> Request {
        Request {
            id,
            tenant,
            sample: 0,
            arrival_seconds: at,
        }
    }

    #[test]
    fn bounded_queue_sheds_overflow_and_tracks_high_water() {
        let mut q = AdmissionQueue::new(vec![TenantSpec::new("a", 2)]).unwrap();
        assert_eq!(
            q.offer(request(0, 0, 0.0)).unwrap(),
            AdmissionVerdict::Queued
        );
        assert_eq!(
            q.offer(request(1, 0, 0.1)).unwrap(),
            AdmissionVerdict::Queued
        );
        assert_eq!(
            q.offer(request(2, 0, 0.2)).unwrap(),
            AdmissionVerdict::ShedOverflow
        );
        assert_eq!(q.queued(), 2);
        assert_eq!(q.queued_of(0), 2);
        assert_eq!(q.queued_of(9), 0);
        let c = q.counters()[0];
        assert_eq!(c.admitted, 3);
        assert_eq!(c.shed_overflow, 1);
        assert_eq!(c.max_queue_depth, 2);
        assert_eq!(c.shed(), 1);
        // Unknown tenants are a typed error, not an index panic.
        assert!(q.offer(request(3, 7, 0.3)).is_err());
        assert_eq!(q.tenants().len(), 1);
    }

    #[test]
    fn drain_is_round_robin_across_tenants_and_fifo_within() {
        let mut q =
            AdmissionQueue::new(vec![TenantSpec::new("a", 10), TenantSpec::new("b", 10)]).unwrap();
        for id in 0..4 {
            q.offer(request(id, 0, id as f64 * 0.01)).unwrap();
        }
        for id in 4..6 {
            q.offer(request(id, 1, id as f64 * 0.01)).unwrap();
        }
        let round = q.drain_round(1.0, 4);
        let ids: Vec<u64> = round.iter().map(|r| r.id).collect();
        // Alternating tenants, each FIFO: a0, b4, a1, b5.
        assert_eq!(ids, vec![0, 4, 1, 5]);
        // The cursor persists: the next round starts where this one stopped.
        let ids: Vec<u64> = q.drain_round(1.0, 4).iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![2, 3]);
        assert_eq!(q.queued(), 0);
    }

    #[test]
    fn deadline_expired_requests_are_dropped_at_dispatch() {
        let mut q =
            AdmissionQueue::new(vec![TenantSpec::new("rt", 10).with_deadline(0.5)]).unwrap();
        q.offer(request(0, 0, 0.0)).unwrap();
        q.offer(request(1, 0, 0.4)).unwrap();
        // At t=0.7 the first request (deadline 0.5) has expired; the second
        // has not.
        let round = q.drain_round(0.7, 4);
        assert_eq!(round.len(), 1);
        assert_eq!(round[0].id, 1);
        let c = q.counters()[0];
        assert_eq!(c.shed_deadline, 1);
        assert_eq!(c.dispatched, 1);
        assert_eq!(c.admitted, c.shed() + c.dispatched);
    }

    #[test]
    fn zero_capacity_tenant_sheds_everything() {
        let mut q = AdmissionQueue::new(vec![TenantSpec::new("blocked", 0)]).unwrap();
        for id in 0..5 {
            assert_eq!(
                q.offer(request(id, 0, id as f64)).unwrap(),
                AdmissionVerdict::ShedOverflow
            );
        }
        assert_eq!(q.queued(), 0);
        assert!(q.drain_round(10.0, 8).is_empty());
        let c = q.counters()[0];
        assert_eq!(c.admitted, 5);
        assert_eq!(c.shed_overflow, 5);
        assert_eq!(c.dispatched, 0);
    }

    #[test]
    fn empty_tenant_list_is_rejected() {
        assert!(AdmissionQueue::new(vec![]).is_err());
    }
}
