//! One membership epoch, as the ledger and the virtual clock see it: what is
//! fixed while it runs ([`Epoch`]), what it hands back ([`EpochOutcome`]),
//! the run state every epoch shares ([`Run`]), and the bookkeeping that
//! opens and closes each — shared by every wiring of the scheduler.

use std::collections::BTreeMap;

use edvit_edge::{RoundTimings, StreamTiming};
use edvit_metrics::{Ledger, RunEvent, StreamCounters};
use edvit_partition::{DeviceSpec, SplitPlan};
use edvit_tensor::Tensor;

use crate::membership::Membership;
use crate::rounds::RoundLayout;
use crate::{
    HealthTracker, Result, SchedError, SimClock, StreamConfig, StreamReport, StreamScheduler,
};

/// The mutable state of one streaming run, shared by all of its epochs.
pub(crate) struct Run {
    pub(crate) ledger: Ledger<StreamCounters>,
    pub(crate) tracker: HealthTracker,
    /// One output slot per input sample; each is written exactly once.
    pub(crate) fused: Vec<Option<Tensor>>,
    pub(crate) clock: SimClock,
    /// Feature width observed per sub-model so far — what degraded rounds
    /// zero-fill with.
    pub(crate) known_dims: BTreeMap<u32, usize>,
}

/// Everything fixed for the length of one membership epoch: the rounds it
/// covers, who hosts what, and the fault and retry rules its collector runs
/// under.
pub(crate) struct Epoch<'a> {
    /// 1-based epoch number, as journaled.
    pub(crate) number: u64,
    /// Virtual time the epoch started at — the timestamp its events carry
    /// (the clock only advances between epochs).
    pub(crate) at: f64,
    /// Global rounds still unfused when the epoch opened, ascending.
    pub(crate) rounds: &'a [u64],
    /// Which sample span each global round covers.
    pub(crate) layout: &'a RoundLayout,
    /// Hosting device per sub-model; `None` where the (degraded) plan leaves
    /// the sub-model unhosted.
    pub(crate) owners: Vec<Option<usize>>,
    /// Data frames each hosting device ships per round (= hosted
    /// sub-models) — the arity that lets the collector identify every frame
    /// positionally.
    pub(crate) frames_per_round: BTreeMap<usize, u64>,
    /// `(sub-model, feature width)` for every unhosted sub-model, zero-filled
    /// at fusion so the concat layout stays stable.
    pub(crate) missing_dims: Vec<(u32, usize)>,
    /// The fault script and retry budget the collector runs under.
    pub(crate) config: &'a StreamConfig,
    /// First scripted-join round: the collector stops fusing there.
    pub(crate) join_barrier: Option<u64>,
    /// The membership's timing table, and its timing at the *configured*
    /// round size: the heartbeat deadline, retry backoff and
    /// failure-detection windows stay round-denominated in the nominal size,
    /// so partial rounds don't jitter the liveness machinery.
    round_timings: RoundTimings,
    pub(crate) timing: StreamTiming,
}

/// Maps every sub-model to the device hosting it under `plan`, skipping the
/// `missing` ones a degraded plan dropped.
pub(crate) fn sub_model_owners(
    plan: &SplitPlan,
    devices: &[DeviceSpec],
    missing: &[usize],
) -> Result<Vec<Option<usize>>> {
    (0..plan.sub_models.len())
        .map(|sub_index| {
            if missing.contains(&sub_index) {
                return Ok(None);
            }
            let device_id =
                plan.assignment
                    .device_for(sub_index)
                    .ok_or_else(|| SchedError::InvalidConfig {
                        message: format!("sub-model {sub_index} has no assigned device"),
                    })?;
            if !devices.iter().any(|d| d.id == device_id) {
                return Err(SchedError::InvalidConfig {
                    message: format!(
                        "sub-model {sub_index} assigned to unknown device {device_id}"
                    ),
                });
            }
            Ok(Some(device_id))
        })
        .collect()
}

/// What one epoch hands back to the scheduler loop: control state only —
/// everything the epoch *counted* went through the ledger.
#[derive(Default)]
pub(crate) struct EpochOutcome {
    pub(crate) newly_dead: Vec<usize>,
    pub(crate) rounds_fused: usize,
    /// Unfused rounds that had received at least one frame (in flight at the
    /// death) — these are the replayed rounds.
    pub(crate) partial_rounds: Vec<u64>,
    /// The epoch stopped at a scripted join barrier: the fused frontier is
    /// the checkpoint, nothing is replayed, membership changes next.
    pub(crate) join_due: bool,
    /// Most rounds in flight this epoch — what `EpochEnded` reports once the
    /// clock has been advanced past the epoch.
    pub(crate) max_in_flight: usize,
    /// Attempt number of every re-request issued, for backoff pricing.
    pub(crate) retry_attempts: Vec<u32>,
}

impl StreamScheduler {
    /// Opens a run's ledger with its `StreamStarted` event.
    pub(crate) fn start(&self, layout: &RoundLayout) -> Run {
        let mut run = Run {
            ledger: Ledger::new(self.config.sink.clone()),
            tracker: HealthTracker::new(),
            fused: vec![None; layout.total_samples()],
            clock: SimClock::new(),
            known_dims: BTreeMap::new(),
        };
        run.ledger.record(
            0.0,
            RunEvent::StreamStarted {
                rounds: layout.rounds() as u64,
                round_size: self.config.round_size as u64,
                samples: layout.total_samples() as u64,
                devices: self.devices.len() as u64,
            },
        );
        run
    }

    /// Opens the next epoch for `members` over the unfused `rounds`: journals
    /// its start, prices the membership, and fixes who hosts what.
    pub(crate) fn open_epoch<'a>(
        &'a self,
        run: &mut Run,
        members: &Membership,
        rounds: &'a [u64],
        layout: &'a RoundLayout,
        join_barrier: Option<u64>,
    ) -> Result<Epoch<'a>> {
        run.tracker.begin_epoch();
        let number = run.ledger.counters.epochs as u64 + 1;
        let at = run.clock.now();
        run.ledger
            .record(at, RunEvent::EpochStarted { epoch: number });
        let mut round_timings = self.round_timings(members);
        let timing = round_timings.timing_for(self.config.round_size)?;
        let missing_dims = members
            .missing
            .iter()
            .map(|&i| {
                let sub = i as u32;
                let dim = run
                    .known_dims
                    .get(&sub)
                    .copied()
                    .unwrap_or_else(|| members.plan.sub_models[i].pruned.feature_dim());
                (sub, dim)
            })
            .collect();
        let owners = sub_model_owners(&members.plan, &members.devices, &members.missing)?;
        let mut frames_per_round = BTreeMap::new();
        for &device in owners.iter().flatten() {
            *frames_per_round.entry(device).or_insert(0) += 1;
        }
        Ok(Epoch {
            number,
            at,
            rounds,
            layout,
            owners,
            frames_per_round,
            missing_dims,
            config: &self.config,
            join_barrier,
            round_timings,
            timing,
        })
    }

    /// Closes an epoch on the clock and the ledger: retry backoff, the fused
    /// rounds at their own sizes, then `EpochEnded`.
    pub(crate) fn close_epoch(
        run: &mut Run,
        epoch: &mut Epoch<'_>,
        outcome: &EpochOutcome,
    ) -> Result<()> {
        let retry_seconds: f64 = outcome
            .retry_attempts
            .iter()
            .map(|&attempt| epoch.timing.retry_backoff_seconds(attempt))
            .sum();
        // One event per epoch, pre-summed in the order the clock is charged
        // below; zero-retry epochs would add an exact +0.0 and need no event
        // at all.
        if !outcome.retry_attempts.is_empty() {
            run.ledger.record(
                epoch.at,
                RunEvent::RetryCost {
                    seconds: retry_seconds,
                },
            );
        }
        // Price the epoch round by round at each round's actual sample
        // count: a partial round (under-filled tail or continuous batch)
        // costs what it carried, not the nominal `round_size`.
        let fused_sizes: Vec<usize> = epoch.rounds[..outcome.rounds_fused]
            .iter()
            .map(|&round| epoch.layout.len_of(round))
            .collect();
        let fused_seconds = epoch.round_timings.seconds_for_rounds(&fused_sizes)?;
        run.clock.advance(fused_seconds + retry_seconds);
        run.ledger.record(
            run.clock.now(),
            RunEvent::EpochEnded {
                epoch: epoch.number,
                max_in_flight: outcome.max_in_flight as u64,
            },
        );
        Ok(())
    }

    /// Ends the stream on the ledger and turns the run into its report.
    pub(crate) fn finish(
        &self,
        mut run: Run,
        steady_state_samples_per_second: f64,
        final_plan: SplitPlan,
    ) -> Result<StreamReport> {
        run.ledger.record(
            run.clock.now(),
            RunEvent::StreamEnded {
                steady_state_samples_per_second,
            },
        );
        let outputs = run
            .fused
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.ok_or_else(|| SchedError::Runtime {
                    message: format!("sample {i} was never fused"),
                })
            })
            .collect::<Result<Vec<Tensor>>>()?;
        let counters = run.ledger.finish().map_err(|e| SchedError::Runtime {
            message: format!("the run's own events do not fold: {e}"),
        })?;
        Ok(StreamReport::new(
            outputs,
            &self.config,
            final_plan,
            counters,
        ))
    }
}
