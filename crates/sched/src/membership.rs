//! Cluster membership and how it changes mid-stream: scripted joins admitted
//! through the wire path, and the replan (full, or degraded when allowed)
//! every death and join triggers.

use edvit_edge::{ControlMessage, LatencyModel, RoundTimings, WireFrame};
use edvit_metrics::{ReplanCause, RunEvent};
use edvit_partition::{DeviceSpec, PartitionError, SplitPlan};

use crate::epoch::Run;
use crate::{
    JoinInjection, Result, SchedError, ScheduleMode, StreamScheduler, ENERGY_SAMPLES_PER_ROUND,
};

/// A cluster membership: who is in, what each member hosts, and what nobody
/// does.
pub(crate) struct Membership {
    pub(crate) plan: SplitPlan,
    pub(crate) devices: Vec<DeviceSpec>,
    /// Sub-models the current (degraded) plan leaves unhosted.
    pub(crate) missing: Vec<usize>,
}

impl StreamScheduler {
    pub(crate) fn initial_membership(&self) -> Membership {
        Membership {
            plan: self.plan.clone(),
            devices: self.devices.clone(),
            missing: Vec::new(),
        }
    }

    /// Replans onto the current membership — full coverage when feasible,
    /// degraded (if allowed) when not — and journals it. `members.missing`
    /// becomes the new set of unhosted sub-models; a successful full replan
    /// clears it.
    pub(crate) fn replan(
        &self,
        members: &mut Membership,
        cause: ReplanCause,
        run: &mut Run,
    ) -> Result<()> {
        let samples = ENERGY_SAMPLES_PER_ROUND;
        let full = match cause {
            ReplanCause::Join => members.plan.replan_for_joiners(&members.devices, samples),
            ReplanCause::Death => members.plan.replan_for_survivors(&members.devices, samples),
        };
        match full {
            Ok(new_plan) => {
                members.plan = new_plan;
                members.missing.clear();
            }
            Err(PartitionError::Infeasible { .. }) if self.config.max_missing_sub_models > 0 => {
                let (new_plan, dropped) =
                    members.plan.replan_degraded(&members.devices, samples)?;
                if dropped.len() > self.config.max_missing_sub_models {
                    return Err(SchedError::DegradationLimit {
                        missing: dropped,
                        limit: self.config.max_missing_sub_models,
                    });
                }
                members.plan = new_plan;
                members.missing = dropped;
            }
            Err(e) => return Err(e.into()),
        }
        run.ledger.record(
            run.clock.now(),
            RunEvent::Replan {
                cause,
                missing: members.missing.iter().map(|&m| m as u64).collect(),
            },
        );
        Ok(())
    }

    /// The per-round-size timing table for a membership: the analytic model
    /// under this configuration's codec and fusion override, priced over the
    /// hosted sub-models only (a degraded plan carries unassigned sub-models
    /// the latency model would reject).
    pub(crate) fn round_timings(&self, members: &Membership) -> RoundTimings {
        let mut model =
            LatencyModel::new(self.config.network).with_options(&self.config.net_options());
        if self.config.fusion_flops > 0 {
            model = model.with_fusion_flops(self.config.fusion_flops);
        }
        let mut priced = members.plan.clone();
        priced
            .sub_models
            .retain(|s| members.plan.assignment.device_for(s.index).is_some());
        RoundTimings::new(
            model,
            priced,
            members.devices.clone(),
            self.config.mode == ScheduleMode::Pipelined,
        )
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
