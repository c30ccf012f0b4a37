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

use std::collections::BTreeMap;

use edvit_edge::{FusionFn, LatencyModel, RoundTimings, SubModelFn};
use edvit_metrics::{percentile, MetricsSink, RunEvent};
use edvit_partition::{DeviceSpec, SplitPlan};
use edvit_sched::{
    DepthChange, DepthController, RoundLayout, ScheduleMode, StreamConfig, StreamScheduler,
};
use edvit_tensor::Tensor;

use crate::admission::{AdmissionQueue, TenantCounters};
use crate::report::ServeReport;
use crate::request::{ArrivalSpec, Request, TenantSpec};
use crate::{Result, ServeError, TenantStats};

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

/// The pure virtual-time result of a drill: rounds, accounting, depth and
/// recovery behaviour — everything except the actual tensors.
#[derive(Debug, Clone)]
pub struct DrillOutcome {
    /// The rounds in dispatch order.
    pub rounds: Vec<PlannedRound>,
    /// Per-tenant admission counters at the end of the drill.
    pub counters: Vec<TenantCounters>,
    /// Every adaptive-depth transition, in round order.
    pub depth_changes: Vec<DepthChange>,
    /// Pipeline depth the drill started at (after clamping the configured
    /// depth into the controller's band). The first entry of
    /// `depth_changes`, when any, transitions *from* this value.
    pub initial_depth: usize,
    /// Pipeline depth after the last round.
    pub final_depth: usize,
    /// Deepest the pipeline ever ran; the execution pass sizes its lanes to
    /// this.
    pub max_depth_used: usize,
    /// Devices lost to scripted crashes, in crash order.
    pub devices_lost: Vec<usize>,
    /// Virtual seconds spent detecting crashes, re-planning and refilling.
    pub recovery_seconds: f64,
    /// Virtual time of the last completion (0 when nothing dispatched).
    pub end_seconds: f64,
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

    fn timings_for(&self, plan: &SplitPlan, devices: &[DeviceSpec]) -> RoundTimings {
        let stream = &self.config.stream;
        let mut model = LatencyModel::new(stream.network).with_options(&stream.net_options());
        if stream.fusion_flops > 0 {
            model = model.with_fusion_flops(stream.fusion_flops);
        }
        RoundTimings::new(model, plan.clone(), devices.to_vec(), self.pipelined())
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
        let mut timings = self.timings_for(&self.plan, &self.devices);
        let timing = timings.timing_for(self.capacity())?;
        Ok(self.capacity() as f64 / timing.round_interval_seconds)
    }

    /// Runs the admission/batching drill over an explicit arrival sequence
    /// (sorted by arrival time) without executing any model code.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for unsorted arrivals or
    /// unknown tenants, [`ServeError::Partition`] when a crash leaves
    /// survivors that cannot host the plan, and
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

        let sink = stream_cfg.sink.clone();
        let mut queue = AdmissionQueue::new(self.config.tenants.clone())?;
        queue.attach_sink(sink.clone());
        let mut devices = self.devices.clone();
        let mut plan = self.plan.clone();
        let mut failures = stream_cfg.failures.clone();
        failures.sort_by_key(|f| f.at_round);
        let mut timings = self.timings_for(&plan, &devices);
        let mut nominal = timings.timing_for(cap)?;

        let min_depth = ctl.min_depth.max(1);
        let max_depth = ctl.max_depth.max(min_depth);
        let mut depth = if pipelined {
            stream_cfg.pipeline_depth.clamp(min_depth, max_depth)
        } else {
            1
        };
        let initial_depth = depth;
        let mut max_depth_used = depth;
        let mut depth_changes: Vec<DepthChange> = Vec::new();

        sink.record(
            0.0,
            RunEvent::ServeStarted {
                tenants: self.config.tenants.len() as u64,
                capacity: cap as u64,
                initial_depth: initial_depth as u64,
                offered_rate_per_second: self.config.arrivals.rate_per_second,
            },
        );
        for (index, tenant) in self.config.tenants.iter().enumerate() {
            sink.record(
                0.0,
                RunEvent::TenantRegistered {
                    tenant: index as u64,
                    name: tenant.name.clone(),
                },
            );
        }

        let mut next_arrival = 0usize;
        let mut now = 0.0f64;
        let mut rounds: Vec<PlannedRound> = Vec::new();
        // Issue interval of the previous round: the pipeline cannot accept a
        // new round faster than its bottleneck stage drains the last one.
        let mut last_interval = 0.0f64;
        let mut devices_lost: Vec<usize> = Vec::new();
        let mut recovery_seconds = 0.0f64;

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
            if pipelined {
                let queued_rounds = queue.queued().div_ceil(cap);
                let fusion_bound = nominal.fusion_round_seconds > nominal.device_round_seconds;
                let next_depth = ctl.decide(fusion_bound, queued_rounds, depth);
                if next_depth != depth {
                    depth_changes.push(DepthChange {
                        round: k as u64,
                        from: depth,
                        to: next_depth,
                    });
                    sink.record(
                        now,
                        RunEvent::DepthChanged {
                            round: k as u64,
                            from: depth as u64,
                            to: next_depth as u64,
                        },
                    );
                    depth = next_depth;
                    max_depth_used = max_depth_used.max(depth);
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
                    if devices.iter().any(|d| d.id == f.device_id) {
                        hit = Some(f.device_id);
                        break;
                    }
                }
                hit
            };
            let completion;
            if let Some(dead) = crashed {
                // Detection is round-denominated on the *old* membership's
                // nominal interval, matching the streaming scheduler's
                // heartbeat deadline; then the planner runs; then the round
                // replays on the survivors.
                let detection =
                    (stream_cfg.grace_rounds + 1) as f64 * nominal.round_interval_seconds;
                devices.retain(|d| d.id != dead);
                devices_lost.push(dead);
                if devices.is_empty() {
                    return Err(ServeError::AllDevicesLost { lost: devices_lost });
                }
                plan = plan.replan_for_survivors(&devices, stream_cfg.energy_samples_per_round)?;
                timings = self.timings_for(&plan, &devices);
                nominal = timings.timing_for(cap)?;
                let t = timings.timing_for(batch.len())?;
                let stall = detection + stream_cfg.replan_seconds;
                completion = start + stall + t.device_round_seconds + t.fusion_round_seconds;
                // One pre-summed charge per crash, so an offline replay of
                // the journal re-adds the exact f64 the live drill added.
                let charge = stall + t.round_interval_seconds;
                recovery_seconds += charge;
                sink.record(
                    start,
                    RunEvent::ServeCrash {
                        device: dead as u64,
                        round: k as u64,
                    },
                );
                sink.record(start, RunEvent::ServeRecovery { seconds: charge });
                // The pipe stalls through recovery: the next round cannot
                // issue until the replayed round has cleared the new
                // membership's bottleneck stage.
                last_interval = charge;
            } else {
                let t = timings.timing_for(batch.len())?;
                completion = start + t.device_round_seconds + t.fusion_round_seconds;
                last_interval = t.round_interval_seconds;
            }
            sink.record(
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

        let end_seconds = rounds
            .iter()
            .map(|r| r.completion_seconds)
            .fold(0.0f64, f64::max);
        sink.record(end_seconds, RunEvent::ServeEnded);
        Ok(DrillOutcome {
            counters: queue.counters().to_vec(),
            depth_changes,
            initial_depth,
            final_depth: depth,
            max_depth_used,
            devices_lost,
            recovery_seconds,
            end_seconds,
            rounds,
        })
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
        let drill = self.drill(&requests)?;
        let cap = self.capacity();

        let sizes: Vec<usize> = drill.rounds.iter().map(|r| r.requests.len()).collect();
        let mut outputs: BTreeMap<u64, Tensor> = BTreeMap::new();
        let stream = if sizes.is_empty() {
            None
        } else {
            let layout = RoundLayout::from_sizes(&sizes)?;
            let flat: Vec<Tensor> = drill
                .rounds
                .iter()
                .flat_map(|r| r.requests.iter().map(|q| samples[q.sample].clone()))
                .collect();
            let mut cfg = self.config.stream.clone();
            cfg.round_size = cap;
            cfg.mode = if self.pipelined() {
                ScheduleMode::Pipelined
            } else {
                ScheduleMode::Barrier
            };
            cfg.pipeline_depth = drill.max_depth_used.max(1);
            let report = StreamScheduler::new(self.plan.clone(), self.devices.clone(), cfg)?
                .run_rounds(&flat, &layout, executors, fusion)?;
            let mut fused = report.outputs.iter();
            for round in &drill.rounds {
                for request in &round.requests {
                    if let Some(tensor) = fused.next() {
                        outputs.insert(request.id, tensor.clone());
                    }
                }
            }
            Some(report)
        };

        let tenant_count = self.config.tenants.len();
        let mut per_tenant: Vec<Vec<f64>> = vec![Vec::new(); tenant_count];
        let mut all: Vec<f64> = Vec::new();
        for round in &drill.rounds {
            for request in &round.requests {
                let latency = round.completion_seconds - request.arrival_seconds;
                per_tenant[request.tenant].push(latency);
                all.push(latency);
            }
        }
        all.sort_by(f64::total_cmp);
        for lats in &mut per_tenant {
            lats.sort_by(f64::total_cmp);
        }

        let tenants: Vec<TenantStats> = self
            .config
            .tenants
            .iter()
            .zip(&drill.counters)
            .zip(&per_tenant)
            .map(|((spec, c), lats)| TenantStats {
                name: spec.name.clone(),
                admitted: c.admitted,
                completed: c.dispatched,
                shed_overflow: c.shed_overflow,
                shed_deadline: c.shed_deadline,
                max_queue_depth: c.max_queue_depth,
                p50_latency_seconds: percentile(lats, 0.50),
                p99_latency_seconds: percentile(lats, 0.99),
            })
            .collect();
        let admitted: u64 = drill.counters.iter().map(|c| c.admitted).sum();
        let completed: u64 = drill.counters.iter().map(|c| c.dispatched).sum();
        let shed: u64 = drill.counters.iter().map(TenantCounters::shed).sum();

        Ok(ServeReport {
            tenants,
            admitted,
            completed,
            shed,
            rounds_formed: drill.rounds.len(),
            partial_rounds: sizes.iter().filter(|&&s| s < cap).count(),
            depth_changes: drill.depth_changes,
            initial_depth: drill.initial_depth,
            final_depth: drill.final_depth,
            p50_latency_seconds: percentile(&all, 0.50),
            p99_latency_seconds: percentile(&all, 0.99),
            offered_rate_per_second: self.config.arrivals.rate_per_second,
            served_samples_per_second: if drill.end_seconds > 0.0 {
                completed as f64 / drill.end_seconds
            } else {
                0.0
            },
            simulated_total_seconds: drill.end_seconds,
            recovery_seconds: drill.recovery_seconds,
            devices_lost: drill.devices_lost,
            outputs,
            stream,
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
