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
//! `shed_overflow` or `shed_deadline` (or is still queued). The queue keeps
//! no counters of its own: each decision is a [`RunEvent`] recorded in the
//! drill's [`Ledger`], and the fold's per-tenant [`TenantRow`]s satisfy
//! `admitted == completed + shed + queued` at every step — the invariant the
//! admission proptests pin.

use std::collections::VecDeque;

use edvit_metrics::{Ledger, MetricsSink, RunEvent, ServeCounters, TenantRow};

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

/// Bounded multi-tenant admission queues with round-robin draining.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    tenants: Vec<TenantSpec>,
    queues: Vec<VecDeque<Request>>,
    /// Next tenant the round-robin drain visits; persists across rounds so a
    /// busy tenant cannot starve a quiet one.
    cursor: usize,
    /// Where every admission decision is counted (and journaled, when its
    /// sink records) — the drill's own ledger, so the drill records its
    /// depth, crash and round events into the same fold.
    pub(crate) ledger: Ledger<ServeCounters>,
}

impl AdmissionQueue {
    /// Creates the queues for the given tenants, counting into a ledger of
    /// their own that journals nothing: a bare queue is a drill without a
    /// batcher (round capacity and pipeline depth 0).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when the tenant list is empty.
    pub fn new(tenants: Vec<TenantSpec>) -> Result<Self> {
        AdmissionQueue::open(tenants, MetricsSink::disabled(), 0, 0, 0.0)
    }

    /// Creates the queues and opens the drill's ledger on `sink` with its
    /// `ServeStarted` and one `TenantRegistered` per tenant.
    pub(crate) fn open(
        tenants: Vec<TenantSpec>,
        sink: MetricsSink,
        capacity: usize,
        initial_depth: usize,
        offered_rate_per_second: f64,
    ) -> Result<Self> {
        if tenants.is_empty() {
            return Err(ServeError::InvalidConfig {
                message: "admission needs at least one tenant".to_string(),
            });
        }
        let mut ledger = Ledger::new(sink);
        ledger.record(
            0.0,
            RunEvent::ServeStarted {
                tenants: tenants.len() as u64,
                capacity: capacity as u64,
                initial_depth: initial_depth as u64,
                offered_rate_per_second,
            },
        );
        for (index, tenant) in tenants.iter().enumerate() {
            ledger.record(
                0.0,
                RunEvent::TenantRegistered {
                    tenant: index as u64,
                    name: tenant.name.clone(),
                },
            );
        }
        Ok(AdmissionQueue {
            queues: vec![VecDeque::new(); tenants.len()],
            tenants,
            cursor: 0,
            ledger,
        })
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
        let at = request.arrival_seconds;
        self.ledger.record(
            at,
            RunEvent::RequestAdmitted {
                tenant: t as u64,
                id: request.id,
            },
        );
        if self.queues[t].len() >= self.tenants[t].max_queue {
            self.ledger.record(
                at,
                RunEvent::RequestShedOverflow {
                    tenant: t as u64,
                    id: request.id,
                },
            );
            return Ok(AdmissionVerdict::ShedOverflow);
        }
        self.queues[t].push_back(request);
        self.ledger.record(
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
                    if let Some(expired) = self.queues[t].pop_front() {
                        self.ledger.record(
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
                    self.ledger.record(
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

    /// Per-tenant rows of the fold so far, in tenant index order.
    pub fn counters(&self) -> &[TenantRow] {
        &self.ledger.counters.tenants
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
        let c = &q.counters()[0];
        assert_eq!(c.name, "a");
        assert_eq!(c.admitted, 3);
        assert_eq!(c.shed_overflow, 1);
        assert_eq!(c.max_queue_depth, 2);
        // Unknown tenants are a typed error, not an index panic.
        assert!(q.offer(request(3, 7, 0.3)).is_err());
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
        let c = &q.counters()[0];
        assert_eq!(c.shed_deadline, 1);
        assert_eq!(c.completed, 1);
        assert_eq!(c.admitted, c.shed_deadline + c.completed);
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
        let c = &q.counters()[0];
        assert_eq!(c.admitted, 5);
        assert_eq!(c.shed_overflow, 5);
        assert_eq!(c.completed, 0);
    }

    #[test]
    fn empty_tenant_list_is_rejected() {
        assert!(AdmissionQueue::new(vec![]).is_err());
    }
}
