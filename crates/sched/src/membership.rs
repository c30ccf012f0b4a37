//! Cluster membership and how it changes mid-stream: scripted joins admitted
//! through the wire path, and the one rule every membership change runs —
//! replan (full, or degraded when allowed), price, and charge a crash's stall.

use edvit_edge::{ControlMessage, LatencyModel, RoundTimings, WireFrame};
use edvit_metrics::RunEvent;
use edvit_partition::{DeviceSpec, PartitionError, SplitPlan};

use crate::epoch::Run;
use crate::{
    JoinInjection, Result, SchedError, StreamConfig, ENERGY_SAMPLES_PER_ROUND, GRACE_ROUNDS,
    REPLAN_SECONDS,
};

/// A cluster membership: who is in, what each member hosts, and what nobody
/// does.
///
/// Both the streaming scheduler and the serving drill change membership
/// through this type only, so a crash re-plans, prices and stalls the same
/// way in the drill as in the stream it feeds.
#[derive(Debug, Clone)]
pub struct Membership {
    pub(crate) plan: SplitPlan,
    pub(crate) devices: Vec<DeviceSpec>,
    /// Sub-models the current (degraded) plan leaves unhosted.
    pub(crate) missing: Vec<usize>,
}

impl Membership {
    /// The membership `plan` deploys across `devices`, every sub-model hosted.
    pub fn new(plan: SplitPlan, devices: Vec<DeviceSpec>) -> Self {
        Membership {
            plan,
            devices,
            missing: Vec::new(),
        }
    }

    /// The current members.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }

    /// Removes the devices in `ids` from the membership; the plan is stale
    /// until the next [`Membership::replan`].
    pub fn remove(&mut self, ids: &[usize]) {
        self.devices.retain(|d| !ids.contains(&d.id));
    }

    /// Replans onto the current members, whatever changed them: full
    /// coverage when feasible, else — when `max_missing_sub_models > 0` — a
    /// degraded plan that drops the largest sub-models. `missing` becomes
    /// the new set of unhosted sub-models; a successful full replan clears
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::Partition`] when the members cannot host every
    /// sub-model and degradation is off (or cannot host even one), and
    /// [`SchedError::DegradationLimit`] when the degraded plan would leave
    /// more than `max_missing_sub_models` unhosted.
    pub fn replan(&mut self, max_missing_sub_models: usize) -> Result<()> {
        let samples = ENERGY_SAMPLES_PER_ROUND;
        match self.plan.replan_for_joiners(&self.devices, samples) {
            Ok(new_plan) => {
                self.plan = new_plan;
                self.missing.clear();
            }
            Err(PartitionError::Infeasible { .. }) if max_missing_sub_models > 0 => {
                let (new_plan, dropped) = self.plan.replan_degraded(&self.devices, samples)?;
                if dropped.len() > max_missing_sub_models {
                    return Err(SchedError::DegradationLimit {
                        missing: dropped,
                        limit: max_missing_sub_models,
                    });
                }
                self.plan = new_plan;
                self.missing = dropped;
            }
            Err(e) => return Err(e.into()),
        }
        Ok(())
    }

    /// The per-round-size timing table for this membership: the analytic
    /// model under `config`'s network, codec and fusion override, priced
    /// over the hosted sub-models only (a degraded plan carries unassigned
    /// sub-models the latency model would reject).
    pub fn timings(&self, config: &StreamConfig, pipelined: bool) -> RoundTimings {
        let mut model = LatencyModel::new(config.network).with_options(&config.net_options());
        if config.fusion_flops > 0 {
            model = model.with_fusion_flops(config.fusion_flops);
        }
        let mut priced = self.plan.clone();
        priced
            .sub_models
            .retain(|s| self.plan.assignment.device_for(s.index).is_some());
        RoundTimings::new(model, priced, self.devices.clone(), pipelined)
    }

    /// Virtual seconds a crash stalls the pipe before the replayed work
    /// starts: one round interval of the *old* membership for the missed
    /// heartbeat to fall due, [`GRACE_ROUNDS`] more of deadline, then one
    /// run of the planner.
    pub fn crash_stall_seconds(nominal_round_interval_seconds: f64) -> f64 {
        (GRACE_ROUNDS + 1) as f64 * nominal_round_interval_seconds + REPLAN_SECONDS
    }
}

/// Admits one scripted join through the same wire path a real device would
/// use: the `Join` control frame is encoded, accounted and decode-validated
/// (so e.g. a non-positive capacity offer fails as a protocol error), then
/// fed to the health tracker — as a new identity-epoch when the id was
/// previously terminal.
pub(crate) fn admit_join(
    injection: &JoinInjection,
    current_devices: &mut Vec<DeviceSpec>,
    run: &mut Run,
) -> Result<()> {
    let at = run.clock.now();
    let device_id = injection.device.id;
    if current_devices.iter().any(|d| d.id == device_id) {
        return Err(SchedError::RejoinConflict { device: device_id });
    }
    let frame = ControlMessage::join(device_id, injection.device.flops_per_second).encode();
    run.ledger.record(
        at,
        RunEvent::Delivery {
            device: device_id as u64,
            bytes: frame.len() as u64,
        },
    );
    run.ledger.record(
        at,
        RunEvent::ControlFrame {
            device: device_id as u64,
        },
    );
    let decoded = WireFrame::decode(frame).map_err(SchedError::Edge)?;
    if !matches!(decoded, WireFrame::Control(_)) {
        return Err(SchedError::Runtime {
            message: format!("join frame for device {device_id} decoded as a non-control frame"),
        });
    }
    let was_terminal = matches!(
        run.tracker.health_of(device_id),
        Some(health) if !health.is_live()
    );
    if was_terminal {
        run.tracker.observe_rejoin(device_id);
    } else {
        run.tracker.register(device_id);
    }
    run.ledger.record(
        at,
        RunEvent::DeviceJoined {
            device: device_id as u64,
            rejoin: was_terminal,
        },
    );
    current_devices.push(injection.device.clone());
    Ok(())
}
