//! The serving scheduler: admit arrivals, coalesce whatever is queued into
//! rounds (continuous batching), time the rounds on the virtual clock, and
//! execute them through the streaming scheduler.
//!
//! The drill is split from execution on purpose: [`ServeScheduler::drill`]
//! is a pure virtual-time event loop (no model runs, no threads) that decides
//! *which* requests form *which* rounds and *when* each round completes —
//! that is where admission, shedding, fairness, adaptive depth and crash
//! recovery live, and it is cheap enough to proptest and benchmark densely.
//! [`ServeScheduler::run`] then replays the formed rounds through
//! [`StreamScheduler::run_rounds`] so every dispatched request produces a
//! real fused tensor with exactly-once accounting.
//!
//! The drill counts nothing itself: every decision is a [`RunEvent`] recorded
//! in one [`edvit_metrics::Ledger`], whose [`ServeCounters`] fold is the
//! drill's accounting — and, read back mid-drill, its current depth.

use std::collections::BTreeMap;

use edvit_edge::{FusionFn, SubModelFn};
use edvit_metrics::{MetricsSink, RunEvent, ServeCounters};
use edvit_partition::{DeviceSpec, SplitPlan};
use edvit_sched::{
    DepthController, Membership, RoundLayout, SchedError, ScheduleMode, StreamConfig,
    StreamScheduler,
};
use edvit_tensor::Tensor;

use crate::admission::AdmissionQueue;
use crate::report::ServeReport;
use crate::request::{ArrivalSpec, Request, TenantSpec};
use crate::{Result, ServeError};

/// How the front door turns queued requests into rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionMode {
    /// Continuous batching: at every dispatch opportunity, fill a round with
    /// whatever is queued (up to the round capacity) and go — never wait for
    /// the round to fill. Rounds overlap up to the adaptive pipeline depth.
    Continuous,
    /// One request per round, the next admitted only after the previous
    /// completes. The baseline continuous batching is measured against.
    BarrierPerRequest,
}

/// Configuration of a serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Batching discipline.
    pub mode: AdmissionMode,
    /// Adaptive pipeline-depth policy (ignored in
    /// [`AdmissionMode::BarrierPerRequest`], which is always depth 1).
    pub depth: DepthController,
    /// The tenants and their admission contracts.
    pub tenants: Vec<TenantSpec>,
    /// The seeded open-loop arrival process driving the run.
    pub arrivals: ArrivalSpec,
    /// The embedded streaming scheduler's configuration. `round_size` is the
    /// round capacity continuous batching fills up to (one knob for both
    /// layers); `failures` crash devices mid-drill; timing knobs (network,
    /// codec, grace rounds, replan cost) price the virtual clock.
    pub stream: StreamConfig,
}

impl ServeConfig {
    /// Continuous batching with default depth policy and stream settings.
    pub fn new(tenants: Vec<TenantSpec>, arrivals: ArrivalSpec) -> Self {
        ServeConfig {
            mode: AdmissionMode::Continuous,
            depth: DepthController::default(),
            tenants,
            arrivals,
            stream: StreamConfig::default(),
        }
    }

    /// Switches to the one-request-per-round baseline.
    #[must_use]
    pub fn barrier_per_request(mut self) -> Self {
        self.mode = AdmissionMode::BarrierPerRequest;
        self
    }

    /// Attaches an observability sink. The drill journals admission,
    /// depth, crash and round events into it, and the embedded streaming
    /// scheduler (which shares the stream configuration) records its wire
    /// events into the same journal.
    #[must_use]
    pub fn with_sink(mut self, sink: MetricsSink) -> Self {
        self.stream.sink = sink;
        self
    }
}

/// One round the drill formed: which requests, dispatched when, fused when.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedRound {
    /// Virtual dispatch time.
    pub start_seconds: f64,
    /// Virtual time the round's fused outputs are available; per-request
    /// latency is `completion_seconds - arrival_seconds`.
    pub completion_seconds: f64,
    /// The dispatched requests, in batch order.
    pub requests: Vec<Request>,
}

/// The pure virtual-time result of a drill: the rounds it formed and the
/// fold of everything it decided — everything except the actual tensors.
#[derive(Debug, Clone)]
pub struct DrillOutcome {
    /// The rounds in dispatch order.
    pub rounds: Vec<PlannedRound>,
    /// The drill's accounting: admission, depth, recovery and latency.
    pub counters: ServeCounters,
}

/// The request front-door: owns the deployment plan, the device membership
/// and the serving configuration.
#[derive(Debug, Clone)]
pub struct ServeScheduler {
    plan: SplitPlan,
    devices: Vec<DeviceSpec>,
    config: ServeConfig,
}

impl ServeScheduler {
    /// Creates a serving scheduler.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when there are no devices, no
    /// tenants, or a zero round capacity.
    pub fn new(plan: SplitPlan, devices: Vec<DeviceSpec>, config: ServeConfig) -> Result<Self> {
        if devices.is_empty() {
            return Err(ServeError::InvalidConfig {
                message: "no devices to serve on".to_string(),
            });
        }
        if config.tenants.is_empty() {
            return Err(ServeError::InvalidConfig {
                message: "serving needs at least one tenant".to_string(),
            });
        }
        if config.stream.round_size == 0 {
            return Err(ServeError::InvalidConfig {
                message: "round capacity must be at least 1".to_string(),
            });
        }
        Ok(ServeScheduler {
            plan,
            devices,
            config,
        })
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Round capacity: the configured round size under continuous batching,
    /// 1 in the barrier baseline.
    pub fn capacity(&self) -> usize {
        match self.config.mode {
            AdmissionMode::Continuous => self.config.stream.round_size,
            AdmissionMode::BarrierPerRequest => 1,
        }
    }

    fn pipelined(&self) -> bool {
        self.config.mode == AdmissionMode::Continuous
    }

    fn initial_membership(&self) -> Membership {
        Membership::new(self.plan.clone(), self.devices.clone())
    }

    /// Nominal steady-state service capacity in samples per virtual second:
    /// a full round's size over its issue interval on the initial membership.
    /// Offered loads above this back the queues up (shedding under bounded
    /// queues); loads below it drain.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Edge`] when the latency model rejects the plan.
    pub fn nominal_capacity_per_second(&self) -> Result<f64> {
        let mut timings = self
            .initial_membership()
            .timings(&self.config.stream, self.pipelined());
        let timing = timings.timing_for(self.capacity())?;
        Ok(self.capacity() as f64 / timing.round_interval_seconds)
    }

    /// Runs the admission/batching drill over an explicit arrival sequence
    /// (sorted by arrival time) without executing any model code.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for unsorted arrivals or
    /// unknown tenants, [`ServeError::Sched`] when a crash leaves survivors
    /// that [`Membership::replan`] cannot re-plan onto — exactly when the
    /// stream the drill feeds fails the same way — and
    /// [`ServeError::AllDevicesLost`] when scripted crashes kill everyone.
    pub fn drill(&self, requests: &[Request]) -> Result<DrillOutcome> {
        if requests
            .windows(2)
            .any(|w| w[0].arrival_seconds > w[1].arrival_seconds)
        {
            return Err(ServeError::InvalidConfig {
                message: "drill arrivals must be sorted by arrival time".to_string(),
            });
        }
        let cap = self.capacity();
        let pipelined = self.pipelined();
        let stream_cfg = &self.config.stream;
        let ctl = self.config.depth;

        let min_depth = ctl.min_depth.max(1);
        let initial_depth = if pipelined {
            stream_cfg
                .pipeline_depth
                .clamp(min_depth, ctl.max_depth.max(min_depth))
        } else {
            1
        };
        let mut queue = AdmissionQueue::open(
            self.config.tenants.clone(),
            stream_cfg.sink.clone(),
            cap,
            initial_depth,
            self.config.arrivals.rate_per_second,
        )?;
        let mut members = self.initial_membership();
        let mut failures = stream_cfg.failures.clone();
        failures.sort_by_key(|f| f.at_round);
        let mut timings = members.timings(stream_cfg, pipelined);
        let mut nominal = timings.timing_for(cap)?;

        let mut next_arrival = 0usize;
        let mut now = 0.0f64;
        let mut rounds: Vec<PlannedRound> = Vec::new();
        // Issue interval of the previous round: the pipeline cannot accept a
        // new round faster than its bottleneck stage drains the last one.
        let mut last_interval = 0.0f64;

        loop {
            admit_until(&mut queue, requests, &mut next_arrival, now)?;
            if queue.queued() == 0 {
                match requests.get(next_arrival) {
                    // Idle: jump the virtual clock to the next arrival.
                    Some(r) => {
                        now = r.arrival_seconds;
                        continue;
                    }
                    None => break,
                }
            }
            let k = rounds.len();
            let mut depth = queue.ledger.counters.final_depth;
            if pipelined {
                let queued_rounds = queue.queued().div_ceil(cap);
                let fusion_bound = nominal.fusion_round_seconds > nominal.device_round_seconds;
                let next_depth = ctl.decide(fusion_bound, queued_rounds, depth);
                if next_depth != depth {
                    queue.ledger.record(
                        now,
                        RunEvent::DepthChanged {
                            round: k as u64,
                            from: depth as u64,
                            to: next_depth as u64,
                        },
                    );
                    depth = next_depth;
                }
            }
            // Dispatch when (a) work is queued, (b) the pipeline can issue
            // (one round per bottleneck interval), and (c) at most `depth`
            // rounds are in flight.
            let mut start = now;
            if let Some(prev) = rounds.last() {
                start = start.max(prev.start_seconds + last_interval);
            }
            if k >= depth {
                start = start.max(rounds[k - depth].completion_seconds);
            }
            // Stragglers arriving before the actual dispatch instant still
            // make this round — that is the "never wait, but never leave a
            // seat empty" half of continuous batching.
            admit_until(&mut queue, requests, &mut next_arrival, start)?;
            let batch = queue.drain_round(start, cap);
            if batch.is_empty() {
                // Everything queued had expired; the sheds are counted, move
                // time forward and look again.
                now = start;
                continue;
            }

            let crashed = {
                let mut hit = None;
                while let Some(f) = failures.first().copied() {
                    if f.at_round > k as u64 {
                        break;
                    }
                    failures.remove(0);
                    if members.devices().iter().any(|d| d.id == f.device_id) {
                        hit = Some(f.device_id);
                        break;
                    }
                }
                hit
            };
            let completion;
            if let Some(dead) = crashed {
                // The streaming scheduler's crash rule, step for step: the
                // stall on the *old* membership's nominal interval, the one
                // replan (degraded within the stream's limit), then the round
                // replays on the survivors.
                let stall = Membership::crash_stall_seconds(nominal.round_interval_seconds);
                members.remove(&[dead]);
                if members.devices().is_empty() {
                    let mut lost = queue.ledger.counters.devices_lost;
                    lost.push(dead);
                    return Err(ServeError::AllDevicesLost { lost });
                }
                members.replan(stream_cfg.max_missing_sub_models)?;
                timings = members.timings(stream_cfg, pipelined);
                nominal = timings.timing_for(cap)?;
                let t = timings.timing_for(batch.len())?;
                completion = start + stall + t.device_round_seconds + t.fusion_round_seconds;
                // One pre-summed charge per crash, so an offline replay of
                // the journal re-adds the exact f64 the live drill added.
                let charge = stall + t.round_interval_seconds;
                queue.ledger.record(
                    start,
                    RunEvent::ServeCrash {
                        device: dead as u64,
                        round: k as u64,
                    },
                );
                queue
                    .ledger
                    .record(start, RunEvent::ServeRecovery { seconds: charge });
                // The pipe stalls through recovery: the next round cannot
                // issue until the replayed round has cleared the new
                // membership's bottleneck stage.
                last_interval = charge;
            } else {
                let t = timings.timing_for(batch.len())?;
                completion = start + t.device_round_seconds + t.fusion_round_seconds;
                last_interval = t.round_interval_seconds;
            }
            queue.ledger.record(
                start,
                RunEvent::ServeRound {
                    round: k as u64,
                    start_seconds: start,
                    completion_seconds: completion,
                    size: batch.len() as u64,
                },
            );
            rounds.push(PlannedRound {
                start_seconds: start,
                completion_seconds: completion,
                requests: batch,
            });
            now = start;
        }

        let end_seconds = queue.ledger.counters.simulated_total_seconds;
        queue.ledger.record(end_seconds, RunEvent::ServeEnded);
        let counters = queue.ledger.finish().map_err(|e| SchedError::Runtime {
            message: format!("the drill's own events do not fold: {e}"),
        })?;
        Ok(DrillOutcome { rounds, counters })
    }

    /// Generates the configured arrival sequence, drills it, executes the
    /// formed rounds through the streaming scheduler, and assembles the
    /// [`ServeReport`] with per-tenant SLO statistics and fused outputs
    /// keyed by request id.
    ///
    /// `samples` is the pool arrivals draw from; `executors`/`fusion` come
    /// from the deployment exactly as for [`StreamScheduler::run`].
    ///
    /// # Errors
    ///
    /// Everything [`ServeScheduler::drill`] can return, plus
    /// [`ServeError::Sched`] when the execution pass fails.
    pub fn run(
        &self,
        samples: &[Tensor],
        executors: Vec<SubModelFn>,
        fusion: FusionFn,
    ) -> Result<ServeReport> {
        let requests = self
            .config
            .arrivals
            .generate(self.config.tenants.len(), samples.len())?;
        let DrillOutcome { rounds, counters } = self.drill(&requests)?;

        let mut outputs: BTreeMap<u64, Tensor> = BTreeMap::new();
        let stream = if rounds.is_empty() {
            None
        } else {
            let sizes: Vec<usize> = rounds.iter().map(|r| r.requests.len()).collect();
            let layout = RoundLayout::from_sizes(&sizes)?;
            let flat: Vec<Tensor> = rounds
                .iter()
                .flat_map(|r| r.requests.iter().map(|q| samples[q.sample].clone()))
                .collect();
            let mut cfg = self.config.stream.clone();
            cfg.round_size = self.capacity();
            cfg.mode = if self.pipelined() {
                ScheduleMode::Pipelined
            } else {
                ScheduleMode::Barrier
            };
            // Size the lanes to the deepest the drill's pipeline ever ran.
            cfg.pipeline_depth = counters
                .depth_changes
                .iter()
                .map(|step| step.to)
                .fold(counters.initial_depth, usize::max);
            let report = StreamScheduler::new(self.plan.clone(), self.devices.clone(), cfg)?
                .run_rounds(&flat, &layout, executors, fusion)?;
            let ids = rounds.iter().flat_map(|r| r.requests.iter().map(|q| q.id));
            outputs.extend(ids.zip(report.outputs.iter().cloned()));
            Some(report)
        };

        Ok(ServeReport {
            outputs,
            stream,
            counters,
        })
    }
}

/// Offers every request with `arrival_seconds <= time`, in order.
fn admit_until(
    queue: &mut AdmissionQueue,
    requests: &[Request],
    next: &mut usize,
    time: f64,
) -> Result<()> {
    while *next < requests.len() && requests[*next].arrival_seconds <= time {
        queue.offer(requests[*next].clone())?;
        *next += 1;
    }
    Ok(())
}
