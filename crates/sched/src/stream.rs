//! The streaming scheduler's membership loop: epochs, live repartitioning
//! and the virtual clock — and the two ways it wires the protocol's halves
//! together.
//!
//! # Execution model
//!
//! The input stream is cut into *rounds* of `round_size` samples. Execution
//! proceeds in *epochs*: one epoch per cluster membership. Within an epoch,
//! every active device runs the [`DeviceProgram`] and the fusion side runs
//! the collector (`collector.rs`) over one lane per device:
//!
//! * [`StreamScheduler::run`] / [`StreamScheduler::run_rounds`] open
//!   *bounded* lanes from the configured [`Transport`] backend (in-process
//!   channels or real loopback sockets), sized for `pipeline_depth` rounds
//!   of frames, and run each device program as a job of an
//!   [`edvit_parallel::device_scope`]: on a warm device thread that parks
//!   between epochs and between runs, so an epoch pays a hand-off per
//!   device, not a thread spawn. When the fusion side falls behind, `send`
//!   blocks, so on a sim lane a device can buffer at most `pipeline_depth`
//!   undrained rounds (and thus run at most `pipeline_depth + 1` rounds
//!   ahead of the fused frontier, counting the one it is computing); a TCP
//!   lane holds it back only once the socket buffers are full. On a death
//!   the epoch is torn down, the survivors are re-planned by
//!   [`Membership::replan`], and every round that was produced but not
//!   fused is replayed: in-flight samples are recomputed, never lost.
//! * [`StreamScheduler::collect_lanes`] is handed its lanes — e.g. the
//!   connections an `edvit_net::Coordinator` admitted — and runs the same
//!   collector over them as one epoch; the device programs run wherever the
//!   caller put them (worker processes that dialed in).
//!
//! Three membership events extend the state machine beyond death:
//!
//! * **elastic rejoin** — a scripted [`JoinInjection`] admits a device
//!   mid-stream via a real `Join` control frame (decode-validated, so a
//!   non-positive capacity offer is rejected like any other protocol error).
//!   The stream finishes the rounds before the join barrier, checkpoints the
//!   fused frontier, replans over the enlarged membership and opens a new
//!   epoch. A device id that previously died or left is admitted as a **new
//!   identity-epoch** ([`HealthTracker::observe_rejoin`]); an id that is
//!   still live is a [`SchedError::RejoinConflict`].
//! * **graceful degradation** — when a replan cannot host every sub-model,
//!   the scheduler (if [`StreamConfig::max_missing_sub_models`] allows) drops
//!   the largest sub-models (the degraded half of [`Membership::replan`])
//!   and keeps fusing: missing features are zero-filled at their observed
//!   width so the fusion layout stays stable, and every round fused that way
//!   is listed in [`StreamReport::degraded_rounds`].
//! * **recovery to full fidelity** — a later join that makes the full set
//!   feasible again clears the missing list; degradation is a mode, not a
//!   ratchet.
//!
//! # Timing
//!
//! Thread interleaving on the host machine is nondeterministic, so all
//! reported timing comes from the virtual [`SimClock`], advanced with the
//! analytic [`edvit_edge::StreamTiming`] model: barrier mode pays
//! device-stage + fusion-stage per round, pipelined mode pays the wider of
//! the two stages per round once the pipeline is full, and every retry pays
//! its round-denominated backoff.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;

use edvit_edge::{FusionFn, RoundTimings, SubModelFn};
use edvit_metrics::{ReplanCause, RunEvent};
use edvit_net::{transport_for, FrameRx, Transport};
use edvit_partition::{DeviceSpec, SplitPlan};
use edvit_tensor::Tensor;

use crate::collector::collect_epoch;
use crate::epoch::{Epoch, EpochOutcome, Run};
use crate::membership::admit_join;
use crate::rounds::RoundLayout;
use crate::{
    DeviceProgram, JoinInjection, Membership, Result, SchedError, ScheduleMode, StreamConfig,
    StreamReport, GRACE_ROUNDS, REPLAN_SECONDS,
};

/// The streaming fault-tolerant scheduler.
#[derive(Debug, Clone)]
pub struct StreamScheduler {
    pub(crate) plan: SplitPlan,
    pub(crate) devices: Vec<DeviceSpec>,
    pub(crate) config: StreamConfig,
}

impl StreamScheduler {
    /// Creates a scheduler for `plan` deployed across `devices`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidConfig`] for empty device lists,
    /// zero-sized rounds or zero pipeline depth.
    pub fn new(plan: SplitPlan, devices: Vec<DeviceSpec>, config: StreamConfig) -> Result<Self> {
        if devices.is_empty() {
            return Err(SchedError::InvalidConfig {
                message: "no devices".to_string(),
            });
        }
        if config.round_size == 0 {
            return Err(SchedError::InvalidConfig {
                message: "round size must be at least 1".to_string(),
            });
        }
        if config.pipeline_depth == 0 {
            return Err(SchedError::InvalidConfig {
                message: "pipeline depth must be at least 1".to_string(),
            });
        }
        Ok(StreamScheduler {
            plan,
            devices,
            config,
        })
    }

    /// The scheduler configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Runs the stream: every input sample is fused exactly once, across as
    /// many membership epochs as device deaths and joins require.
    ///
    /// `executors[i]` computes sub-model `i`'s feature vector for one sample;
    /// there must be exactly one executor per sub-model in the plan.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidConfig`] for empty inputs or a mismatched
    /// executor count, [`SchedError::Runtime`] for executor/fusion failures
    /// or violated exactly-once invariants, [`SchedError::Partition`] when
    /// survivors cannot host the sub-models (and degraded mode is off),
    /// [`SchedError::DegradationLimit`] when a degraded replan would exceed
    /// the missing-sub-model tolerance, [`SchedError::RejoinConflict`] when a
    /// scripted join collides with a live member,
    /// [`SchedError::Edge`] when a frame fails wire or lane validation,
    /// and [`SchedError::AllDevicesLost`] when every device dies.
    pub fn run(
        &self,
        inputs: &[Tensor],
        executors: Vec<SubModelFn>,
        fusion: FusionFn,
    ) -> Result<StreamReport> {
        let layout = RoundLayout::uniform(inputs.len(), self.config.round_size)?;
        self.run_rounds(inputs, &layout, executors, fusion)
    }

    /// Runs the stream over an explicit [`RoundLayout`] — the round-source
    /// seam continuous batching plugs into. [`StreamScheduler::run`] is this
    /// with the uniform layout; a serving front end hands in whatever
    /// variable-size rounds its queues produced. Every virtual-clock charge
    /// prices each round at its *own* sample count.
    ///
    /// # Errors
    ///
    /// As [`StreamScheduler::run`], plus [`SchedError::InvalidConfig`] when
    /// the layout does not cover `inputs` exactly.
    pub fn run_rounds(
        &self,
        inputs: &[Tensor],
        layout: &RoundLayout,
        mut executors: Vec<SubModelFn>,
        mut fusion: FusionFn,
    ) -> Result<StreamReport> {
        // A layout is never empty, so this also rejects an empty stream.
        if layout.total_samples() != inputs.len() {
            return Err(SchedError::InvalidConfig {
                message: format!(
                    "round layout covers {} samples but {} were provided",
                    layout.total_samples(),
                    inputs.len()
                ),
            });
        }
        if executors.len() != self.plan.sub_models.len() {
            return Err(SchedError::InvalidConfig {
                message: format!(
                    "{} executors for {} sub-models",
                    executors.len(),
                    self.plan.sub_models.len()
                ),
            });
        }
        let cfg = &self.config;
        let mut failures: BTreeMap<usize, u64> = cfg
            .failures
            .iter()
            .map(|f| (f.device_id, f.at_round))
            .collect();
        let mut join_queue: Vec<JoinInjection> = cfg.joins.clone();
        join_queue.sort_by_key(|j| j.at_round);

        // One transport for the whole run: epochs reuse the backend (and, on
        // TCP, its listener) while opening fresh per-device lanes.
        let mut transport = transport_for(cfg.transport).map_err(|e| SchedError::Transport {
            message: e.to_string(),
        })?;
        let mut members = Membership::new(self.plan.clone(), self.devices.clone());
        let mut pending: Vec<u64> = (0..layout.rounds() as u64).collect();
        let mut run = self.start(layout);

        let steady_state_samples_per_second = loop {
            // ---- Scripted joins due before the next unfused round. ---------
            let next_round = pending.first().copied().unwrap_or(0);
            let mut admitted = false;
            while join_queue.first().is_some_and(|j| j.at_round <= next_round) {
                admit_join(&join_queue.remove(0), &mut members.devices, &mut run)?;
                admitted = true;
            }
            if admitted {
                self.replan(&mut members, ReplanCause::Join, &mut run)?;
                run.clock.advance(REPLAN_SECONDS);
            }

            let join_barrier = join_queue.first().map(|j| j.at_round);
            let mut epoch = self.open_epoch(&mut run, &members, &pending, layout, join_barrier)?;
            let timing = epoch.timing.clone();
            // Hand the backend this epoch's liveness deadline in its native
            // round denomination; the TCP backend maps it to a read timeout,
            // the sim backend charges it analytically.
            transport.set_round_deadline(GRACE_ROUNDS, timing.round_interval_seconds);
            let outcome = Self::run_epoch(
                &epoch,
                &members.devices,
                &failures,
                inputs,
                &mut executors,
                &mut fusion,
                transport.as_mut(),
                &mut run,
            )?;
            Self::close_epoch(&mut run, &mut epoch, &outcome)?;

            pending.retain(|&round| layout.span(round).any(|sample| run.fused[sample].is_none()));

            if outcome.newly_dead.is_empty() {
                if outcome.join_due {
                    continue; // checkpointed handoff; the join opens the next epoch
                }
                if !pending.is_empty() {
                    return Err(SchedError::Runtime {
                        message: format!(
                            "epoch ended with {} unfused round(s) but no device death",
                            pending.len()
                        ),
                    });
                }
                break timing.steady_state_samples_per_second();
            }

            // ---- A death: repartition onto the survivors and replay. -------
            for device in &outcome.newly_dead {
                failures.remove(device); // a scripted death fires once
            }
            members.remove(&outcome.newly_dead);
            if members.devices.is_empty() {
                return Err(SchedError::AllDevicesLost {
                    lost: run.ledger.counters.devices_lost,
                });
            }
            self.replan(&mut members, ReplanCause::Death, &mut run)?;
            let replayed: usize = outcome
                .partial_rounds
                .iter()
                .map(|&r| layout.len_of(r))
                .sum();
            run.ledger.record(
                run.clock.now(),
                RunEvent::RoundsReplayed {
                    rounds: outcome.partial_rounds.len() as u64,
                    samples: replayed as u64,
                },
            );

            // The pipe stalls for detection and the planner, priced on the
            // old membership's nominal interval; then the in-flight rounds
            // replay on the new membership (their compute is charged to the
            // next epoch's clock advance, but they are part of the recovery
            // window), each at its own sample count.
            let stall = Membership::crash_stall_seconds(timing.round_interval_seconds);
            let mut new_timings = self.round_timings(&members);
            let mut replay_seconds = 0.0f64;
            for &round in &outcome.partial_rounds {
                replay_seconds += new_timings
                    .timing_for(layout.len_of(round))?
                    .round_interval_seconds;
            }
            run.ledger.record(
                run.clock.now(),
                RunEvent::Recovery {
                    seconds: stall + replay_seconds,
                },
            );
            run.clock.advance(stall);
        };

        self.finish(run, steady_state_samples_per_second, members.plan)
    }

    /// Runs the fusion side alone, over lanes the caller hands in — one per
    /// hosting device of the plan, keyed by device id — while the
    /// [`DeviceProgram`]s run wherever the caller put them (e.g. worker
    /// processes whose connections an `edvit_net::Coordinator` admitted).
    /// It is the collector, ledger, events and virtual-clock pricing of
    /// [`StreamScheduler::run_rounds`] as a single epoch, so a healthy run
    /// reports — and journals — exactly what the in-process wirings do.
    ///
    /// Two things differ, both because the devices are out of reach: a lost
    /// device cannot be re-planned around, so it ends the stream with an
    /// error; and [`StreamReport::max_rounds_in_flight`] is always 0.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidConfig`] when the configuration scripts
    /// deaths or joins (they drive in-process workers) or `lanes` are not
    /// exactly the plan's hosting devices, [`SchedError::Runtime`] naming the
    /// device and round when a lane closes (or exhausts its retry budget)
    /// before its round is complete, and otherwise as
    /// [`StreamScheduler::run`].
    pub fn collect_lanes(
        &self,
        lanes: BTreeMap<usize, Box<dyn FrameRx>>,
        layout: &RoundLayout,
        mut fusion: FusionFn,
    ) -> Result<StreamReport> {
        if !self.config.failures.is_empty() || !self.config.joins.is_empty() {
            return Err(SchedError::InvalidConfig {
                message: "scripted deaths and joins need in-process device workers".to_string(),
            });
        }
        let members = Membership::new(self.plan.clone(), self.devices.clone());
        let rounds: Vec<u64> = (0..layout.rounds() as u64).collect();
        let mut run = self.start(layout);
        let mut epoch = self.open_epoch(&mut run, &members, &rounds, layout, None)?;
        if !lanes.keys().eq(epoch.frames_per_round.keys()) {
            return Err(SchedError::InvalidConfig {
                message: format!(
                    "lanes for devices {:?} but the plan's hosting devices are {:?}",
                    lanes.keys().collect::<Vec<_>>(),
                    epoch.frames_per_round.keys().collect::<Vec<_>>()
                ),
            });
        }
        let outcome = collect_epoch(&epoch, lanes, &mut fusion, &AtomicU64::new(0), &mut run)?;
        Self::close_epoch(&mut run, &mut epoch, &outcome)?;
        if let Some(device) = outcome.newly_dead.first() {
            return Err(SchedError::Runtime {
                message: format!(
                    "device {device} was lost before finishing round {} (lane closed or retry \
                     budget exhausted); handed lanes cannot be re-planned",
                    rounds[outcome.rounds_fused]
                ),
            });
        }
        let steady_state = epoch.timing.steady_state_samples_per_second();
        self.finish(run, steady_state, members.plan)
    }

    /// Replans onto the current membership by the one membership-change rule
    /// and journals the result.
    fn replan(&self, members: &mut Membership, cause: ReplanCause, run: &mut Run) -> Result<()> {
        members.replan(self.config.max_missing_sub_models)?;
        run.ledger.record(
            run.clock.now(),
            RunEvent::Replan {
                cause,
                missing: members.missing.iter().map(|&m| m as u64).collect(),
            },
        );
        Ok(())
    }

    /// The timing table for `members` under this scheduler's configuration.
    pub(crate) fn round_timings(&self, members: &Membership) -> RoundTimings {
        members.timings(&self.config, self.config.mode == ScheduleMode::Pipelined)
    }

    /// One in-process membership epoch: opens a lane per hosting device and
    /// runs its [`DeviceProgram`] as a job of an
    /// [`edvit_parallel::device_scope`] — on a warm device thread — and
    /// collects the lanes on the calling thread.
    #[allow(clippy::too_many_arguments)]
    fn run_epoch(
        epoch: &Epoch<'_>,
        devices: &[DeviceSpec],
        failures: &BTreeMap<usize, u64>,
        inputs: &[Tensor],
        executors: &mut [SubModelFn],
        fusion: &mut FusionFn,
        transport: &mut dyn Transport,
        run: &mut Run,
    ) -> Result<EpochOutcome> {
        // Group the per-sub-model executors by hosting device. `iter_mut`
        // hands out disjoint `&mut` borrows, so each device job exclusively
        // owns the executors of its device for the duration of the epoch
        // scope. Sub-models the degraded plan left unhosted are skipped —
        // their executors idle.
        let mut by_device: BTreeMap<usize, Vec<(usize, &mut SubModelFn)>> = BTreeMap::new();
        for (sub_index, executor) in executors.iter_mut().enumerate() {
            if let Some(device_id) = epoch.owners[sub_index] {
                by_device
                    .entry(device_id)
                    .or_default()
                    .push((sub_index, executor));
            }
        }
        // Highest round count any device has produced this epoch.
        let produced_max = AtomicU64::new(0);
        // The device jobs are the outer parallel loop: each computes under its
        // share of the kernel pool instead of all of them queueing for it.
        let device_threads = by_device.len();
        let depth = epoch.config.effective_depth();

        let (outcome, panicked) = edvit_parallel::device_scope(|scope| {
            let mut lanes: BTreeMap<usize, Box<dyn FrameRx>> = BTreeMap::new();
            let mut start_error = None;
            // Drain in ascending device order (BTreeMap) so start order — and
            // with it the deterministic replay accounting — is stable. Each
            // device starts as soon as its lane is open.
            while let Some((device_id, execs)) = by_device.pop_first() {
                // Per-device bounded lane: `pipeline_depth` rounds of frames
                // (data frames for each hosted sub-model plus the heartbeat),
                // with two slots of slack for the join and leave
                // announcements. Once a sim lane is full the device blocks in
                // `send`. A TCP lane ignores the capacity: only the kernel's
                // socket buffers hold its device back.
                let capacity = (execs.len() + 1) * depth + 2;
                let (tx, rx) = match transport.open_lane(device_id, capacity) {
                    Ok(lane) => lane,
                    Err(e) => {
                        start_error = Some(SchedError::Transport {
                            message: e.to_string(),
                        });
                        break;
                    }
                };
                lanes.insert(device_id, rx);
                let capacity_flops = devices
                    .iter()
                    .find(|d| d.id == device_id)
                    .map_or(0.0, |d| d.flops_per_second);
                let program = DeviceProgram::new(
                    device_id,
                    capacity_flops,
                    epoch.config.codec,
                    epoch.layout,
                    epoch.rounds,
                )
                .scripted(failures.get(&device_id).copied(), &produced_max);
                let started = scope.spawn(move || {
                    edvit_parallel::with_fair_share(device_threads, || {
                        program.run(execs, inputs, tx.as_ref());
                    });
                });
                if let Err(e) = started {
                    start_error = Some(SchedError::Runtime {
                        message: format!("cannot start a device thread: {e}"),
                    });
                    break;
                }
            }
            match start_error {
                // Dropping the lanes already open fails their devices' next
                // send, so they finish and the scope's wait returns.
                Some(error) => {
                    drop(lanes);
                    Err(error)
                }
                // The collector drops every lane before it returns, also on
                // an error, for the same reason.
                None => collect_epoch(epoch, lanes, fusion, &produced_max, run),
            }
        });
        // The scope waited for every device; a panicked one outranks the
        // collector's verdict.
        if panicked > 0 {
            return Err(SchedError::Runtime {
                message: "a device worker thread panicked".to_string(),
            });
        }
        outcome
    }
}
