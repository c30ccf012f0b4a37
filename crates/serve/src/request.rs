//! Requests, tenants, and the seeded open-loop arrival generator.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::{Result, ServeError};

/// One tenant's admission contract: how deep its queue may grow and how long
/// a request may wait before it is dropped instead of served.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Display name, used in the per-tenant report rows.
    pub name: String,
    /// Most requests this tenant may have queued at once. A request arriving
    /// with the queue full is shed immediately (`shed_overflow`). A bound of
    /// 0 blocks the tenant entirely — every request sheds on arrival.
    pub max_queue: usize,
    /// Deadline in virtual seconds from arrival: a queued request older than
    /// this at dispatch time is dropped (`shed_deadline`) rather than served
    /// uselessly late. Non-positive means no deadline.
    pub deadline_seconds: f64,
}

impl TenantSpec {
    /// A tenant with the given queue bound and no deadline.
    pub fn new(name: impl Into<String>, max_queue: usize) -> Self {
        TenantSpec {
            name: name.into(),
            max_queue,
            deadline_seconds: 0.0,
        }
    }

    /// Sets a dispatch deadline in virtual seconds from arrival.
    #[must_use]
    pub fn with_deadline(mut self, deadline_seconds: f64) -> Self {
        self.deadline_seconds = deadline_seconds;
        self
    }
}

/// One admitted-or-not inference request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Unique id in arrival order.
    pub id: u64,
    /// Index into the tenant list.
    pub tenant: usize,
    /// Index into the sample pool the server was given.
    pub sample: usize,
    /// Virtual arrival time.
    pub arrival_seconds: f64,
}

/// A seeded open-loop Poisson arrival process: requests arrive at
/// `rate_per_second` on the virtual clock regardless of how the server keeps
/// up (that is what makes overload and shedding observable). Same seed, same
/// arrivals — shed counts and latency percentiles are reproducible bit for
/// bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalSpec {
    /// Mean arrivals per virtual second (> 0).
    pub rate_per_second: f64,
    /// Total requests to generate.
    pub count: usize,
    /// ChaCha8 seed for inter-arrival gaps and tenant/sample assignment.
    pub seed: u64,
}

impl ArrivalSpec {
    /// An arrival process with the given rate, count and seed.
    pub fn new(rate_per_second: f64, count: usize, seed: u64) -> Self {
        ArrivalSpec {
            rate_per_second,
            count,
            seed,
        }
    }

    /// Generates the arrival sequence: exponential inter-arrival gaps via
    /// inverse-CDF sampling, tenant and sample drawn uniformly. Arrival times
    /// are strictly increasing.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when the rate is non-positive or
    /// either the tenant list or the sample pool is empty.
    pub fn generate(&self, tenants: usize, sample_pool: usize) -> Result<Vec<Request>> {
        if self.rate_per_second <= 0.0 || !self.rate_per_second.is_finite() {
            return Err(ServeError::InvalidConfig {
                message: format!(
                    "arrival rate must be positive and finite, got {}",
                    self.rate_per_second
                ),
            });
        }
        if tenants == 0 {
            return Err(ServeError::InvalidConfig {
                message: "cannot generate arrivals without tenants".to_string(),
            });
        }
        if sample_pool == 0 {
            return Err(ServeError::InvalidConfig {
                message: "cannot generate arrivals from an empty sample pool".to_string(),
            });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut requests = Vec::with_capacity(self.count);
        let mut t = 0.0f64;
        for id in 0..self.count as u64 {
            let u: f64 = rng.gen();
            // Inverse CDF of Exp(rate); u ∈ [0, 1) keeps the log finite.
            t += -(1.0 - u).ln() / self.rate_per_second;
            requests.push(Request {
                id,
                tenant: rng.gen_range(0..tenants),
                sample: rng.gen_range(0..sample_pool),
                arrival_seconds: t,
            });
        }
        Ok(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_seed_deterministic_and_strictly_increasing() {
        let spec = ArrivalSpec::new(10.0, 64, 7);
        let a = spec.generate(3, 8).unwrap();
        let b = spec.generate(3, 8).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        for pair in a.windows(2) {
            assert!(pair[0].arrival_seconds < pair[1].arrival_seconds);
        }
        assert!(a.iter().all(|r| r.tenant < 3 && r.sample < 8));
        // Mean inter-arrival should be in the right ballpark of 1/rate.
        let mean = a.last().map_or(0.0, |r| r.arrival_seconds) / 64.0;
        assert!(mean > 0.02 && mean < 0.5, "mean gap {mean}");
        // A different seed produces a different sequence.
        let c = ArrivalSpec::new(10.0, 64, 8).generate(3, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn degenerate_arrival_specs_are_rejected() {
        assert!(ArrivalSpec::new(0.0, 4, 1).generate(1, 1).is_err());
        assert!(ArrivalSpec::new(-1.0, 4, 1).generate(1, 1).is_err());
        assert!(ArrivalSpec::new(f64::INFINITY, 4, 1)
            .generate(1, 1)
            .is_err());
        assert!(ArrivalSpec::new(1.0, 4, 1).generate(0, 1).is_err());
        assert!(ArrivalSpec::new(1.0, 4, 1).generate(1, 0).is_err());
        assert_eq!(ArrivalSpec::new(1.0, 0, 1).generate(1, 1).unwrap().len(), 0);
    }

    #[test]
    fn tenant_spec_builder_sets_deadline() {
        let spec = TenantSpec::new("batch", 8).with_deadline(2.5);
        assert_eq!(spec.name, "batch");
        assert_eq!(spec.max_queue, 8);
        assert_eq!(spec.deadline_seconds, 2.5);
        assert_eq!(TenantSpec::new("x", 1).deadline_seconds, 0.0);
    }
}
