//! Declarative, seeded fault plans and their compilation into scheduler
//! scripts.

use edvit_partition::{DeviceSpec, SplitPlan};
use edvit_sched::{
    FailureInjection, FaultScript, FrameFault, FrameSlot, JoinInjection, StreamConfig,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::{ChaosError, Result};

/// Corruption attempts scripted for [`FaultKind::PersistentCorruption`]:
/// comfortably past any sane retry budget, so the frame keeps failing until
/// the scheduler escalates to device death.
const PERSISTENT_ATTEMPTS: u32 = 16;

/// One declarative fault in a [`FaultPlan`]. Rounds are *global* stream round
/// ids, devices are [`DeviceSpec::id`]s of the deployment the plan compiles
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// One data frame of the round arrives with a flipped payload bit (the
    /// CRC catches it); the re-requested copy is clean.
    CorruptFrame {
        /// Victim device id.
        device: usize,
        /// Global round whose frame is corrupted.
        round: u64,
    },
    /// Every delivery attempt of one data frame arrives corrupted, so the
    /// retry budget runs out and the link escalates to device death.
    PersistentCorruption {
        /// Victim device id.
        device: usize,
        /// Global round whose frame keeps failing.
        round: u64,
    },
    /// One data frame arrives truncated (decode failure); the re-requested
    /// copy is clean.
    TruncateFrame {
        /// Victim device id.
        device: usize,
        /// Global round whose frame is truncated.
        round: u64,
    },
    /// The link eats one data frame; the re-requested copy is clean.
    DropDataFrame {
        /// Victim device id.
        device: usize,
        /// Global round whose frame is eaten.
        round: u64,
    },
    /// One data frame is delivered twice; the copy must be absorbed: the
    /// receiver keeps the first frame of each (round, sub-model).
    DuplicateFrame {
        /// Victim device id.
        device: usize,
        /// Global round whose frame is duplicated.
        round: u64,
    },
    /// The link eats (or delays past usefulness) one heartbeat beacon; the
    /// next fresh beacon or the device's leave closes the round.
    DropHeartbeat {
        /// Victim device id.
        device: usize,
        /// Global round whose beacon is lost.
        round: u64,
    },
    /// One heartbeat is delivered twice; the replayed copy must read stale
    /// to the receiver's freshness rule and never satisfy a deadline.
    ReplayHeartbeat {
        /// Victim device id.
        device: usize,
        /// Global round whose beacon is replayed.
        round: u64,
    },
    /// The device crashes: silence instead of processing `at_round`.
    Crash {
        /// Victim device id.
        device: usize,
        /// First global round the device will not process.
        at_round: u64,
    },
    /// The device crashes at `at_round` and rejoins `rejoin_after` rounds
    /// later as a new identity-epoch, offering its original capacity.
    CrashThenRejoin {
        /// Victim device id.
        device: usize,
        /// First global round the device will not process.
        at_round: u64,
        /// Rounds between the crash and the rejoin offer (≥ 1).
        rejoin_after: u64,
    },
    /// A flaky link: every round of the stream, this device's frames are
    /// independently corrupted with probability `corrupt_per_mille`/1000
    /// (each corruption recovers on retry).
    FlakyLink {
        /// Victim device id.
        device: usize,
        /// Per-round corruption probability in thousandths (0..=1000).
        corrupt_per_mille: u32,
    },
}

/// What a [`FaultPlan`] compiles into: the three scheduler-side injection
/// channels, ready to install on a [`StreamConfig`].
#[derive(Debug, Clone, Default)]
pub struct CompiledChaos {
    /// Frame-level faults, applied by the collector at the wire boundary.
    pub script: FaultScript,
    /// Scripted crashes.
    pub failures: Vec<FailureInjection>,
    /// Scripted (re)joins.
    pub joins: Vec<JoinInjection>,
}

impl CompiledChaos {
    /// Installs the compiled chaos on a stream configuration: the fault
    /// script replaces the config's, crashes and joins are appended.
    pub fn apply(self, config: StreamConfig) -> StreamConfig {
        let mut config = config.with_faults(self.script);
        config.failures.extend(self.failures);
        config.joins.extend(self.joins);
        config
    }
}

/// A declarative, seeded fault-injection plan.
///
/// The plan names *what* goes wrong ([`FaultKind`]) and the seed fixes every
/// remaining choice (which frame slot, which payload bit, which rounds a
/// flaky link fires on) through a [`ChaCha8Rng`] stream — so one `(plan,
/// seed, deployment)` triple always compiles to the bit-identical
/// [`CompiledChaos`], and a drill that found a bug replays exactly.
///
/// # Example
///
/// ```
/// use edvit_chaos::{FaultKind, FaultPlan};
/// use edvit_partition::{DeviceSpec, PlannerConfig, SplitPlanner};
/// use edvit_vit::ViTConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let devices = DeviceSpec::raspberry_pi_cluster(3);
/// let plan = SplitPlanner::new(PlannerConfig::default())
///     .plan(&ViTConfig::vit_base(10), &devices, 0)?;
/// let chaos = FaultPlan::new(7)
///     .with(FaultKind::CorruptFrame { device: 0, round: 2 })
///     .with(FaultKind::DropHeartbeat { device: 1, round: 1 })
///     .compile(&plan, &devices, 6)?;
/// assert_eq!(chaos.script.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<FaultKind>,
}

impl FaultPlan {
    /// Creates an empty plan; `seed` fixes every randomized choice made
    /// during compilation.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Appends one declarative fault.
    pub fn with(mut self, fault: FaultKind) -> Self {
        self.faults.push(fault);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The declared faults, in insertion order.
    pub fn faults(&self) -> &[FaultKind] {
        &self.faults
    }

    /// Compiles the plan against a concrete deployment into the scheduler's
    /// injection channels. Compilation is total validation: every fault must
    /// name a device of the deployment (frame faults additionally one that
    /// hosts at least one sub-model) and rounds inside `0..total_rounds`, so
    /// a drill can never silently inject nothing.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::InvalidPlan`] when any fault contradicts the
    /// deployment.
    pub fn compile(
        &self,
        plan: &SplitPlan,
        devices: &[DeviceSpec],
        total_rounds: u64,
    ) -> Result<CompiledChaos> {
        if total_rounds == 0 {
            return Err(ChaosError::InvalidPlan {
                message: "the stream has zero rounds; nothing to inject into".to_string(),
            });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut compiled = CompiledChaos::default();
        for fault in &self.faults {
            match *fault {
                FaultKind::CorruptFrame { device, round } => {
                    let slot =
                        self.data_slot(plan, devices, device, round, total_rounds, &mut rng)?;
                    compiled.script.push(
                        device,
                        round,
                        slot,
                        FrameFault::CorruptBit {
                            bit: rng.gen::<u32>(),
                        },
                    );
                }
                FaultKind::PersistentCorruption { device, round } => {
                    let slot =
                        self.data_slot(plan, devices, device, round, total_rounds, &mut rng)?;
                    for _ in 0..PERSISTENT_ATTEMPTS {
                        compiled.script.push(
                            device,
                            round,
                            slot,
                            FrameFault::CorruptBit {
                                bit: rng.gen::<u32>(),
                            },
                        );
                    }
                }
                FaultKind::TruncateFrame { device, round } => {
                    let slot =
                        self.data_slot(plan, devices, device, round, total_rounds, &mut rng)?;
                    compiled.script.push(
                        device,
                        round,
                        slot,
                        FrameFault::Truncate {
                            keep: rng.gen::<u32>(),
                        },
                    );
                }
                FaultKind::DropDataFrame { device, round } => {
                    let slot =
                        self.data_slot(plan, devices, device, round, total_rounds, &mut rng)?;
                    compiled.script.push(device, round, slot, FrameFault::Drop);
                }
                FaultKind::DuplicateFrame { device, round } => {
                    let slot =
                        self.data_slot(plan, devices, device, round, total_rounds, &mut rng)?;
                    compiled
                        .script
                        .push(device, round, slot, FrameFault::Duplicate);
                }
                FaultKind::DropHeartbeat { device, round } => {
                    self.check_frame_target(plan, devices, device, round, total_rounds)?;
                    compiled
                        .script
                        .push(device, round, FrameSlot::Heartbeat, FrameFault::Drop);
                }
                FaultKind::ReplayHeartbeat { device, round } => {
                    self.check_frame_target(plan, devices, device, round, total_rounds)?;
                    compiled.script.push(
                        device,
                        round,
                        FrameSlot::Heartbeat,
                        FrameFault::Duplicate,
                    );
                }
                FaultKind::Crash { device, at_round } => {
                    self.check_device(devices, device)?;
                    self.check_round(at_round, total_rounds, "crash")?;
                    compiled.failures.push(FailureInjection {
                        device_id: device,
                        at_round,
                    });
                }
                FaultKind::CrashThenRejoin {
                    device,
                    at_round,
                    rejoin_after,
                } => {
                    let spec = self.check_device(devices, device)?;
                    self.check_round(at_round, total_rounds, "crash")?;
                    if rejoin_after == 0 {
                        return Err(ChaosError::InvalidPlan {
                            message: format!(
                                "device {device} cannot rejoin in the same round it crashes"
                            ),
                        });
                    }
                    let rejoin_round = at_round.saturating_add(rejoin_after);
                    self.check_round(rejoin_round, total_rounds, "rejoin")?;
                    compiled.failures.push(FailureInjection {
                        device_id: device,
                        at_round,
                    });
                    compiled.joins.push(JoinInjection {
                        device: spec.clone(),
                        at_round: rejoin_round,
                    });
                }
                FaultKind::FlakyLink {
                    device,
                    corrupt_per_mille,
                } => {
                    if corrupt_per_mille > 1000 {
                        return Err(ChaosError::InvalidPlan {
                            message: format!(
                                "flaky link on device {device}: {corrupt_per_mille}‰ is not a \
                                 probability (0..=1000)"
                            ),
                        });
                    }
                    let hosted = self.hosted_count(plan, devices, device)?;
                    for round in 0..total_rounds {
                        if rng.gen_range(0..1000u32) < corrupt_per_mille {
                            let slot = FrameSlot::Data(rng.gen_range(0..hosted as u32));
                            compiled.script.push(
                                device,
                                round,
                                slot,
                                FrameFault::CorruptBit {
                                    bit: rng.gen::<u32>(),
                                },
                            );
                        }
                    }
                }
            }
        }
        Ok(compiled)
    }

    fn check_device<'a>(&self, devices: &'a [DeviceSpec], device: usize) -> Result<&'a DeviceSpec> {
        devices
            .iter()
            .find(|d| d.id == device)
            .ok_or_else(|| ChaosError::InvalidPlan {
                message: format!("device {device} is not part of the deployment"),
            })
    }

    fn check_round(&self, round: u64, total_rounds: u64, what: &str) -> Result<()> {
        if round >= total_rounds {
            return Err(ChaosError::InvalidPlan {
                message: format!(
                    "{what} at round {round} lies past the stream's {total_rounds} round(s)"
                ),
            });
        }
        Ok(())
    }

    fn hosted_count(
        &self,
        plan: &SplitPlan,
        devices: &[DeviceSpec],
        device: usize,
    ) -> Result<usize> {
        self.check_device(devices, device)?;
        let hosted = plan.assignment.sub_models_on(device).len();
        if hosted == 0 {
            return Err(ChaosError::InvalidPlan {
                message: format!("device {device} hosts no sub-models; it ships no data frames"),
            });
        }
        Ok(hosted)
    }

    fn check_frame_target(
        &self,
        plan: &SplitPlan,
        devices: &[DeviceSpec],
        device: usize,
        round: u64,
        total_rounds: u64,
    ) -> Result<()> {
        self.hosted_count(plan, devices, device)?;
        self.check_round(round, total_rounds, "frame fault")
    }

    /// Picks (seeded) which of the device's data frames the fault lands on.
    fn data_slot(
        &self,
        plan: &SplitPlan,
        devices: &[DeviceSpec],
        device: usize,
        round: u64,
        total_rounds: u64,
        rng: &mut ChaCha8Rng,
    ) -> Result<FrameSlot> {
        let hosted = self.hosted_count(plan, devices, device)?;
        self.check_round(round, total_rounds, "frame fault")?;
        Ok(FrameSlot::Data(rng.gen_range(0..hosted as u32)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edvit_partition::{PlannerConfig, SplitPlanner};
    use edvit_vit::ViTConfig;

    fn deployment() -> (SplitPlan, Vec<DeviceSpec>) {
        let devices = DeviceSpec::raspberry_pi_cluster(3);
        let plan = SplitPlanner::new(PlannerConfig::default())
            .plan(&ViTConfig::vit_base(10), &devices, 0)
            .unwrap();
        (plan, devices)
    }

    #[test]
    fn compilation_is_deterministic_per_seed_and_differs_across_seeds() {
        let (plan, devices) = deployment();
        let declared = |seed| {
            FaultPlan::new(seed)
                .with(FaultKind::CorruptFrame {
                    device: 0,
                    round: 1,
                })
                .with(FaultKind::FlakyLink {
                    device: 1,
                    corrupt_per_mille: 400,
                })
        };
        let a = declared(3).compile(&plan, &devices, 8).unwrap();
        let b = declared(3).compile(&plan, &devices, 8).unwrap();
        let c = declared(4).compile(&plan, &devices, 8).unwrap();
        assert_eq!(a.script, b.script);
        // Different seed, different slots/bits/flaky rounds (the flaky link
        // makes a collision across seeds astronomically unlikely).
        assert_ne!(a.script, c.script);
    }

    #[test]
    fn crash_then_rejoin_compiles_into_failure_plus_join() {
        let (plan, devices) = deployment();
        let chaos = FaultPlan::new(0)
            .with(FaultKind::CrashThenRejoin {
                device: 2,
                at_round: 3,
                rejoin_after: 2,
            })
            .compile(&plan, &devices, 8)
            .unwrap();
        assert!(chaos.script.is_empty());
        assert_eq!(
            chaos.failures,
            vec![FailureInjection {
                device_id: 2,
                at_round: 3
            }]
        );
        assert_eq!(chaos.joins.len(), 1);
        assert_eq!(chaos.joins[0].device.id, 2);
        assert_eq!(chaos.joins[0].at_round, 5);
    }

    #[test]
    fn invalid_plans_fail_compilation_loudly() {
        let (plan, devices) = deployment();
        // Unknown device.
        let err = FaultPlan::new(0)
            .with(FaultKind::CorruptFrame {
                device: 9,
                round: 0,
            })
            .compile(&plan, &devices, 4)
            .unwrap_err();
        assert!(matches!(err, ChaosError::InvalidPlan { .. }));
        assert!(err.to_string().contains("device 9"));
        // Round past the stream.
        assert!(matches!(
            FaultPlan::new(0)
                .with(FaultKind::Crash {
                    device: 0,
                    at_round: 4
                })
                .compile(&plan, &devices, 4),
            Err(ChaosError::InvalidPlan { .. })
        ));
        // Rejoin past the stream.
        assert!(matches!(
            FaultPlan::new(0)
                .with(FaultKind::CrashThenRejoin {
                    device: 0,
                    at_round: 2,
                    rejoin_after: 9,
                })
                .compile(&plan, &devices, 4),
            Err(ChaosError::InvalidPlan { .. })
        ));
        // Rejoin in the crash round.
        assert!(matches!(
            FaultPlan::new(0)
                .with(FaultKind::CrashThenRejoin {
                    device: 0,
                    at_round: 2,
                    rejoin_after: 0,
                })
                .compile(&plan, &devices, 8),
            Err(ChaosError::InvalidPlan { .. })
        ));
        // Probability over 1000 per mille.
        assert!(matches!(
            FaultPlan::new(0)
                .with(FaultKind::FlakyLink {
                    device: 0,
                    corrupt_per_mille: 1001,
                })
                .compile(&plan, &devices, 4),
            Err(ChaosError::InvalidPlan { .. })
        ));
        // Zero-round stream.
        assert!(matches!(
            FaultPlan::new(0).compile(&plan, &devices, 0),
            Err(ChaosError::InvalidPlan { .. })
        ));
    }

    #[test]
    fn flaky_link_respects_the_per_mille_dial() {
        let (plan, devices) = deployment();
        let never = FaultPlan::new(1)
            .with(FaultKind::FlakyLink {
                device: 0,
                corrupt_per_mille: 0,
            })
            .compile(&plan, &devices, 64)
            .unwrap();
        assert!(never.script.is_empty());
        let always = FaultPlan::new(1)
            .with(FaultKind::FlakyLink {
                device: 0,
                corrupt_per_mille: 1000,
            })
            .compile(&plan, &devices, 64)
            .unwrap();
        assert_eq!(always.script.len(), 64);
    }

    #[test]
    fn apply_installs_all_three_channels_on_a_stream_config() {
        let (plan, devices) = deployment();
        let chaos = FaultPlan::new(5)
            .with(FaultKind::DuplicateFrame {
                device: 1,
                round: 0,
            })
            .with(FaultKind::CrashThenRejoin {
                device: 0,
                at_round: 1,
                rejoin_after: 1,
            })
            .compile(&plan, &devices, 4)
            .unwrap();
        let config = chaos.apply(StreamConfig::default());
        assert_eq!(config.faults.len(), 1);
        assert_eq!(config.failures.len(), 1);
        assert_eq!(config.joins.len(), 1);
    }
}
