//! Property tests of the admission queue invariants, plus the degenerate
//! edge-case trio (zero tenants, burst arrivals, all-shed).
//!
//! The properties pinned here are the serving front-door's contract:
//! every offered request ends in exactly one disposition (dispatched,
//! shed on overflow, or shed on deadline), per-tenant FIFO order is
//! preserved, and queue bounds are never exceeded.

use std::collections::BTreeSet;

use edvit_serve::{AdmissionQueue, AdmissionVerdict, ArrivalSpec, Request, TenantSpec};
use proptest::prelude::*;

fn tenant_specs(count: usize, bounds: &[usize], deadline: f64) -> Vec<TenantSpec> {
    (0..count)
        .map(|t| {
            let spec = TenantSpec::new(format!("tenant-{t}"), bounds[t % bounds.len()]);
            if t % 2 == 1 && deadline > 0.0 {
                spec.with_deadline(deadline)
            } else {
                spec
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Drive a random arrival sequence through offer/drain cycles and check,
    /// at every step and at the end, that the books — the serve fold's
    /// per-tenant rows, the only counters there are — balance: admitted ==
    /// completed + shed + queued, no double disposition, FIFO per tenant,
    /// bounds respected.
    #[test]
    fn admission_books_always_balance(
        tenants in 1usize..4,
        bound_a in 0usize..6,
        bound_b in 1usize..8,
        deadline in 0.0f64..0.5,
        rate in 0.5f64..200.0,
        count in 1usize..96,
        drain_every in 1usize..6,
        capacity in 1usize..8,
        seed in 0u64..500,
    ) {
        let specs = tenant_specs(tenants, &[bound_a, bound_b], deadline);
        let requests = ArrivalSpec::new(rate, count, seed)
            .generate(tenants, 16)
            .unwrap();
        let mut queue = AdmissionQueue::new(specs.clone()).unwrap();
        let mut offered: BTreeSet<u64> = BTreeSet::new();
        let mut dispatched: Vec<Request> = Vec::new();
        let mut now = 0.0f64;

        let check = |queue: &AdmissionQueue| {
            for (t, c) in queue.counters().iter().enumerate() {
                // Exactly-one-disposition, counting the still-queued rump.
                prop_assert_eq!(
                    c.admitted,
                    c.completed + c.shed_overflow + c.shed_deadline + queue.queued_of(t) as u64,
                    "tenant {} books unbalanced", t
                );
                // The queue bound is a hard ceiling, even at the high-water mark.
                prop_assert!(c.max_queue_depth <= specs[t].max_queue);
            }
        };

        for (i, request) in requests.iter().enumerate() {
            now = request.arrival_seconds;
            offered.insert(request.id);
            let verdict = queue.offer(request.clone()).unwrap();
            if specs[request.tenant].max_queue == 0 {
                prop_assert_eq!(verdict, AdmissionVerdict::ShedOverflow);
            }
            check(&queue);
            if (i + 1) % drain_every == 0 {
                dispatched.extend(queue.drain_round(now, capacity));
                check(&queue);
            }
        }
        // Final drain: keep forming rounds until the queues are dry.
        while queue.queued() > 0 {
            dispatched.extend(queue.drain_round(now, capacity));
            check(&queue);
        }

        // No request is both shed and completed: every dispatched id is
        // unique and was actually offered.
        let ids: BTreeSet<u64> = dispatched.iter().map(|r| r.id).collect();
        prop_assert_eq!(ids.len(), dispatched.len(), "a request was dispatched twice");
        prop_assert!(ids.is_subset(&offered));

        // Global accounting: offered == dispatched + shed.
        let total_dispatched: u64 = queue.counters().iter().map(|c| c.completed).sum();
        let total_shed: u64 = queue
            .counters()
            .iter()
            .map(|c| c.shed_overflow + c.shed_deadline)
            .sum();
        prop_assert_eq!(total_dispatched as usize, dispatched.len());
        prop_assert_eq!(total_dispatched + total_shed, offered.len() as u64);

        // Per-tenant FIFO: dispatch order preserves arrival (id) order.
        for t in 0..tenants {
            let order: Vec<u64> = dispatched
                .iter()
                .filter(|r| r.tenant == t)
                .map(|r| r.id)
                .collect();
            prop_assert!(
                order.windows(2).all(|w| w[0] < w[1]),
                "tenant {} dispatched out of arrival order: {:?}", t, order
            );
        }
    }

    /// The drain never over-fills a round and never invents requests.
    #[test]
    fn drained_rounds_respect_capacity(
        queued in 0usize..40,
        capacity in 1usize..10,
        seed in 0u64..100,
    ) {
        let mut queue = AdmissionQueue::new(vec![
            TenantSpec::new("a", usize::MAX),
            TenantSpec::new("b", usize::MAX),
        ])
        .unwrap();
        for r in ArrivalSpec::new(50.0, queued, seed).generate(2, 4).unwrap() {
            queue.offer(r).unwrap();
        }
        let round = queue.drain_round(1e9, capacity);
        prop_assert!(round.len() <= capacity);
        prop_assert_eq!(round.len(), queued.min(capacity));
        prop_assert_eq!(queue.queued(), queued.saturating_sub(capacity));
    }
}

// ---- the degenerate edge-case trio -------------------------------------

#[test]
fn zero_tenants_are_rejected_everywhere() {
    assert!(AdmissionQueue::new(Vec::new()).is_err());
    assert!(ArrivalSpec::new(10.0, 8, 1).generate(0, 4).is_err());
}

#[test]
fn burst_arrivals_respect_every_queue_bound() {
    // An extreme burst: 200 requests at ~the same virtual instant, against
    // two tenants bounded at 3 and 5. Everything past the bounds sheds; the
    // bounds are never pierced, and the outcome is seed-deterministic.
    let tenants = vec![TenantSpec::new("small", 3), TenantSpec::new("medium", 5)];
    let burst = ArrivalSpec::new(1e6, 200, 42);
    let run = || {
        let mut queue = AdmissionQueue::new(tenants.clone()).unwrap();
        for r in burst.generate(2, 8).unwrap() {
            queue.offer(r).unwrap();
        }
        queue
    };
    let queue = run();
    assert_eq!(queue.queued_of(0), 3);
    assert_eq!(queue.queued_of(1), 5);
    let c = queue.counters();
    assert_eq!(c[0].max_queue_depth, 3);
    assert_eq!(c[1].max_queue_depth, 5);
    assert_eq!(c[0].admitted + c[1].admitted, 200);
    assert_eq!(
        c[0].shed_overflow + c[1].shed_overflow,
        200 - 8,
        "everything past the two bounds sheds on arrival"
    );
    // Same seed, same burst, same shed counts — bit-for-bit.
    let again = run();
    assert_eq!(queue.counters(), again.counters());
}

#[test]
fn all_shed_tenant_never_dispatches() {
    let mut queue = AdmissionQueue::new(vec![TenantSpec::new("blocked", 0)]).unwrap();
    for r in ArrivalSpec::new(100.0, 64, 7).generate(1, 4).unwrap() {
        assert_eq!(queue.offer(r).unwrap(), AdmissionVerdict::ShedOverflow);
    }
    assert_eq!(queue.queued(), 0);
    assert!(queue.drain_round(1e9, 16).is_empty());
    let c = &queue.counters()[0];
    assert_eq!(c.admitted, 64);
    assert_eq!(c.shed_overflow, 64);
    assert_eq!(c.completed, 0);
}
