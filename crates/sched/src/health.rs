//! Heartbeat device-health state machine.
//!
//! Every device emits one [`edvit_edge::ControlMessage`] heartbeat per round,
//! carrying the number of rounds it has completed this epoch. The scheduler's
//! fusion worker consumes each device's channel round by round, so the
//! heartbeat deadline manifests deterministically: a device that goes silent
//! surfaces as a disconnect exactly where its next heartbeat was due, and the
//! collector calls [`HealthTracker::declare_dead`] at that point (the virtual
//! clock separately charges the `grace_rounds` deadline window to
//! `recovery_seconds`). The tracker holds the per-device state and the
//! monotone sequence bookkeeping:
//!
//! ```text
//! Expected --Join/Heartbeat--> Alive --deadline missed--> Dead   (repartition)
//!                                │                          │
//!                                └-------Leave------> Left   │
//!                                                       │    │
//!                                    Rejoined <--Join---┴----┘  (new identity-epoch)
//! ```
//!
//! `Left` is terminal and benign (the device finished its rounds); `Dead` is
//! terminal and triggers a repartition of the dead device's sub-models. A
//! terminal state is never *resurrected*: a `Join` from a dead or departed
//! device opens a **new identity-epoch** — [`DeviceHealth::Rejoined`], with a
//! fresh sequence domain — rather than flipping the old record back to
//! `Alive`. Stale (reordered or replayed)
//! heartbeats never roll a sequence back and never satisfy a deadline; the
//! tracker tells its caller which beacons were stale, and the caller journals
//! them, so the scheduler can surface replay pressure.

use std::collections::BTreeMap;

/// Liveness state of one device within an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceHealth {
    /// Registered; may not have beaten yet (a fresh device is at sequence 0).
    Alive,
    /// Announced a graceful leave after finishing its rounds.
    Left,
    /// Missed its heartbeat deadline; its sub-models must be re-hosted.
    Dead,
    /// Came back after a terminal state, as a new identity-epoch. Behaves like
    /// [`DeviceHealth::Alive`] for liveness purposes but records that the old
    /// incarnation was never resurrected.
    Rejoined,
}

impl DeviceHealth {
    /// Whether the device currently participates in rounds (heartbeats are
    /// accepted, a missed deadline would kill it).
    pub fn is_live(self) -> bool {
        matches!(self, DeviceHealth::Alive | DeviceHealth::Rejoined)
    }
}

#[derive(Debug, Clone)]
struct DeviceState {
    health: DeviceHealth,
    /// Highest heartbeat sequence seen (rounds completed this epoch).
    last_sequence: u64,
}

/// Tracks per-device heartbeat sequences and liveness.
#[derive(Debug, Clone, Default)]
pub struct HealthTracker {
    devices: BTreeMap<usize, DeviceState>,
}

impl HealthTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        HealthTracker::default()
    }

    /// Registers a device the scheduler expects to participate. Idempotent.
    pub fn register(&mut self, device_id: usize) {
        self.devices.entry(device_id).or_insert(DeviceState {
            health: DeviceHealth::Alive,
            last_sequence: 0,
        });
    }

    /// Records a join announcement.
    pub fn observe_join(&mut self, device_id: usize) {
        self.register(device_id);
    }

    /// Admits a device back after a terminal state (`Dead` or `Left`) as a
    /// **new identity-epoch**: the health becomes [`DeviceHealth::Rejoined`]
    /// and the sequence domain restarts at 0. The terminal fact about the
    /// previous incarnation is thereby preserved — nothing is resurrected.
    /// Called on a device that was never terminal (unknown, `Alive` or already
    /// `Rejoined`) this degrades to a plain [`HealthTracker::observe_join`].
    pub fn observe_rejoin(&mut self, device_id: usize) {
        self.register(device_id);
        if let Some(state) = self.devices.get_mut(&device_id) {
            if matches!(state.health, DeviceHealth::Dead | DeviceHealth::Left) {
                state.health = DeviceHealth::Rejoined;
                state.last_sequence = 0;
            }
        }
    }

    /// Records a heartbeat, enforcing per-device sequence monotonicity: a
    /// stale or replayed sequence (`sequence <= last`) is ignored — it can
    /// never push a deadline forward. The comparison is on the raw `u64`, so
    /// after a (theoretical) wraparound to 0 every beacon is stale until the
    /// sequence domain is reset by a new epoch; a wrapped counter is
    /// indistinguishable from a replay and must not buy liveness.
    /// Heartbeats from a device already in a terminal state are ignored too —
    /// death is terminal within an identity-epoch.
    ///
    /// Returns whether the beacon was fresh (it advanced the sequence), which
    /// is what lets the caller journal stale beacons without re-deriving the
    /// tracker's freshness rule.
    pub fn observe_heartbeat(&mut self, device_id: usize, sequence: u64) -> bool {
        self.register(device_id);
        match self.devices.get_mut(&device_id) {
            Some(state) if state.health.is_live() && sequence > state.last_sequence => {
                state.last_sequence = sequence;
                true
            }
            _ => false,
        }
    }

    /// Records a graceful leave: the device finished its work and said so.
    pub fn observe_leave(&mut self, device_id: usize, sequence: u64) {
        self.register(device_id);
        if let Some(state) = self.devices.get_mut(&device_id) {
            if state.health.is_live() {
                state.last_sequence = state.last_sequence.max(sequence);
                state.health = DeviceHealth::Left;
            }
        }
    }

    /// Declares a device dead: its transport disconnected before it delivered
    /// its expected rounds — the threaded manifestation of the heartbeat
    /// deadline passing. Terminal and idempotent; a device that announced a
    /// graceful leave stays `Left`.
    pub fn declare_dead(&mut self, device_id: usize) {
        self.register(device_id);
        if let Some(state) = self.devices.get_mut(&device_id) {
            if state.health.is_live() {
                state.health = DeviceHealth::Dead;
            }
        }
    }

    /// Starts a new scheduling epoch: every live device's heartbeat sequence
    /// domain restarts at 0 (workers count rounds per epoch). Terminal states
    /// are untouched.
    pub fn begin_epoch(&mut self) {
        for state in self.devices.values_mut() {
            if state.health.is_live() {
                state.last_sequence = 0;
            }
        }
    }

    /// Health of `device_id`, if registered.
    pub fn health_of(&self, device_id: usize) -> Option<DeviceHealth> {
        self.devices.get(&device_id).map(|s| s.health)
    }

    /// Rounds completed (highest heartbeat sequence) by `device_id`.
    pub fn sequence_of(&self, device_id: usize) -> u64 {
        self.devices.get(&device_id).map_or(0, |s| s.last_sequence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graceful_leave_is_not_a_death() {
        let mut tracker = HealthTracker::new();
        tracker.register(0);
        tracker.register(1);
        tracker.observe_heartbeat(0, 5);
        tracker.observe_leave(1, 5);
        tracker.observe_heartbeat(0, 9);
        assert_eq!(tracker.health_of(0), Some(DeviceHealth::Alive));
        assert_eq!(tracker.health_of(1), Some(DeviceHealth::Left));
        assert_eq!(tracker.sequence_of(1), 5);
    }

    #[test]
    fn stale_heartbeats_never_roll_the_sequence_back() {
        let mut tracker = HealthTracker::new();
        assert!(tracker.observe_heartbeat(0, 7));
        assert!(!tracker.observe_heartbeat(0, 3));
        assert_eq!(tracker.sequence_of(0), 7);
    }

    #[test]
    fn replayed_sequence_is_counted_and_cannot_extend_a_deadline() {
        let mut tracker = HealthTracker::new();
        assert!(tracker.observe_heartbeat(0, 4));
        // An attacker (or a duplicating link) replays the same beacon: the
        // sequence must not advance — a replay can never buy liveness.
        assert!(!tracker.observe_heartbeat(0, 4));
        assert!(!tracker.observe_heartbeat(0, 4));
        assert_eq!(tracker.sequence_of(0), 4);
        // A genuinely newer beacon still works.
        assert!(tracker.observe_heartbeat(0, 5));
        assert_eq!(tracker.sequence_of(0), 5);
    }

    #[test]
    fn wraparound_sequences_are_stale_not_fresh() {
        let mut tracker = HealthTracker::new();
        assert!(tracker.observe_heartbeat(0, u64::MAX));
        // A counter that wrapped to 0 is indistinguishable from a replay: it
        // must be ignored and reported stale, not treated as progress.
        assert!(!tracker.observe_heartbeat(0, 0));
        assert!(!tracker.observe_heartbeat(0, 1));
        assert_eq!(tracker.sequence_of(0), u64::MAX);
        // A new epoch resets the domain; sequencing works again.
        tracker.begin_epoch();
        assert!(tracker.observe_heartbeat(0, 1));
        assert_eq!(tracker.sequence_of(0), 1);
    }

    #[test]
    fn declare_dead_is_terminal_but_spares_the_gracefully_left() {
        let mut tracker = HealthTracker::new();
        tracker.observe_heartbeat(0, 3);
        tracker.declare_dead(0);
        assert_eq!(tracker.health_of(0), Some(DeviceHealth::Dead));
        // Death is terminal: late heartbeats cannot resurrect the device or
        // advance its sequence (they are stale).
        assert!(!tracker.observe_heartbeat(0, 9));
        assert_eq!(tracker.health_of(0), Some(DeviceHealth::Dead));
        assert_eq!(tracker.sequence_of(0), 3);
        tracker.observe_leave(1, 5);
        tracker.declare_dead(1);
        assert_eq!(tracker.health_of(1), Some(DeviceHealth::Left));
        // Declaring an unknown device registers it as dead.
        tracker.declare_dead(7);
        assert_eq!(tracker.health_of(7), Some(DeviceHealth::Dead));
    }

    #[test]
    fn rejoin_is_a_new_identity_epoch_not_a_resurrection() {
        let mut tracker = HealthTracker::new();
        tracker.observe_heartbeat(0, 6);
        tracker.declare_dead(0);
        tracker.observe_rejoin(0);
        assert_eq!(tracker.health_of(0), Some(DeviceHealth::Rejoined));
        assert!(tracker.health_of(0).unwrap().is_live());
        // Fresh sequence domain: the old incarnation's progress is gone.
        assert_eq!(tracker.sequence_of(0), 0);
        tracker.observe_heartbeat(0, 1);
        assert_eq!(tracker.sequence_of(0), 1);
        // The new incarnation can die too, and rejoin again.
        tracker.declare_dead(0);
        assert_eq!(tracker.health_of(0), Some(DeviceHealth::Dead));
        tracker.observe_rejoin(0);
        assert_eq!(tracker.health_of(0), Some(DeviceHealth::Rejoined));
        assert_eq!(tracker.sequence_of(0), 0);
        // A device that gracefully left can also come back as a new identity.
        tracker.observe_leave(1, 4);
        tracker.observe_rejoin(1);
        assert_eq!(tracker.health_of(1), Some(DeviceHealth::Rejoined));
        assert_eq!(tracker.sequence_of(1), 0);
    }

    #[test]
    fn rejoin_on_a_live_or_unknown_device_degrades_to_a_plain_join() {
        let mut tracker = HealthTracker::new();
        tracker.observe_rejoin(5);
        assert_eq!(tracker.health_of(5), Some(DeviceHealth::Alive));
        tracker.observe_heartbeat(5, 2);
        tracker.observe_rejoin(5);
        assert_eq!(tracker.health_of(5), Some(DeviceHealth::Alive));
        assert_eq!(tracker.sequence_of(5), 2, "no sequence reset on a no-op");
    }

    #[test]
    fn begin_epoch_resets_live_sequences_only() {
        let mut tracker = HealthTracker::new();
        tracker.observe_heartbeat(0, 8);
        tracker.observe_heartbeat(1, 8);
        tracker.declare_dead(1);
        tracker.begin_epoch();
        assert_eq!(tracker.sequence_of(0), 0);
        assert_eq!(tracker.sequence_of(1), 8, "terminal state is frozen");
        assert!(tracker.observe_heartbeat(0, 1));
        assert_eq!(tracker.sequence_of(0), 1);
    }

    #[test]
    fn join_registers_and_unknown_devices_are_none() {
        let mut tracker = HealthTracker::new();
        tracker.observe_join(3);
        assert_eq!(tracker.health_of(3), Some(DeviceHealth::Alive));
        assert_eq!(tracker.health_of(99), None);
        assert_eq!(tracker.sequence_of(99), 0);
    }
}
