//! Heartbeat device-health state machine.
//!
//! Every device emits one [`edvit_edge::ControlMessage`] heartbeat per round,
//! carrying the number of rounds it has completed this epoch. The scheduler's
//! fusion worker consumes each device's channel round by round, so the
//! heartbeat deadline manifests deterministically: a device that goes silent
//! surfaces as a disconnect exactly where its next heartbeat was due, and the
//! collector calls [`HealthTracker::declare_dead`] at that point (the virtual
//! clock separately charges the [`crate::GRACE_ROUNDS`] deadline window to
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
//! `Alive`.
//!
//! # One freshness rule for control frames
//!
//! The wire gives every control frame a per-device sequence number so the
//! receiver can tell a fresh announcement from a replayed or reordered one.
//! [`HealthTracker::admit`] is that rule, and the collector asks nothing
//! else:
//!
//! * a **heartbeat** is fresh iff the device is live and its raw `u64`
//!   sequence beats the device's last one — so a replay, a reordered
//!   straggler, a counter that wrapped (until a new epoch resets the
//!   sequence domain), a beacon at sequence 0 and a beacon after the
//!   device's own leave are all stale;
//! * a **join** is fresh iff it is the device's first this epoch;
//! * a **leave** is fresh iff the device is live.
//!
//! A stale frame changes no state, so it can never push a deadline forward;
//! the caller journals it, so the scheduler can surface replay pressure.

use std::collections::BTreeMap;

use edvit_edge::ControlKind;

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
    /// Whether a join was admitted this epoch.
    joined: bool,
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
        self.state(device_id);
    }

    fn state(&mut self, device_id: usize) -> &mut DeviceState {
        self.devices.entry(device_id).or_insert(DeviceState {
            health: DeviceHealth::Alive,
            last_sequence: 0,
            joined: false,
        })
    }

    /// Admits a device back after a terminal state (`Dead` or `Left`) as a
    /// **new identity-epoch**: the health becomes [`DeviceHealth::Rejoined`]
    /// and the sequence domain restarts at 0. The terminal fact about the
    /// previous incarnation is thereby preserved — nothing is resurrected.
    /// Called on a device that was never terminal (unknown, `Alive` or already
    /// `Rejoined`) this degrades to a plain [`HealthTracker::register`].
    pub fn observe_rejoin(&mut self, device_id: usize) {
        let state = self.state(device_id);
        if matches!(state.health, DeviceHealth::Dead | DeviceHealth::Left) {
            state.health = DeviceHealth::Rejoined;
            state.last_sequence = 0;
        }
    }

    /// Admits or rejects one control frame of `device_id` by the rule in the
    /// module docs, applying a fresh one: a heartbeat advances the sequence,
    /// a join is remembered for the epoch, and a leave retires the device as
    /// `Left` at the higher of its sequences. Returns whether the frame was
    /// fresh; a stale one changes nothing.
    pub fn admit(&mut self, device_id: usize, kind: ControlKind, sequence: u64) -> bool {
        let state = self.state(device_id);
        let live = state.health.is_live();
        match kind {
            ControlKind::Heartbeat if live && sequence > state.last_sequence => {
                state.last_sequence = sequence;
                true
            }
            ControlKind::Join => !std::mem::replace(&mut state.joined, true),
            ControlKind::Leave if live => {
                state.last_sequence = state.last_sequence.max(sequence);
                state.health = DeviceHealth::Left;
                true
            }
            ControlKind::Heartbeat | ControlKind::Leave => false,
        }
    }

    /// Declares a device dead: its transport disconnected before it delivered
    /// its expected rounds — the threaded manifestation of the heartbeat
    /// deadline passing. Terminal and idempotent; a device that announced a
    /// graceful leave stays `Left`.
    pub fn declare_dead(&mut self, device_id: usize) {
        let state = self.state(device_id);
        if state.health.is_live() {
            state.health = DeviceHealth::Dead;
        }
    }

    /// Starts a new scheduling epoch: every live device's heartbeat sequence
    /// domain restarts at 0 (workers count rounds per epoch), and every
    /// device may join once more. Terminal states are untouched.
    pub fn begin_epoch(&mut self) {
        for state in self.devices.values_mut() {
            state.joined = false;
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
    use ControlKind::{Heartbeat, Join, Leave};

    #[test]
    fn graceful_leave_is_not_a_death() {
        let mut tracker = HealthTracker::new();
        tracker.register(0);
        tracker.register(1);
        tracker.admit(0, Heartbeat, 5);
        tracker.admit(1, Leave, 5);
        tracker.admit(0, Heartbeat, 9);
        assert_eq!(tracker.health_of(0), Some(DeviceHealth::Alive));
        assert_eq!(tracker.health_of(1), Some(DeviceHealth::Left));
        assert_eq!(tracker.sequence_of(1), 5);
    }

    #[test]
    fn stale_heartbeats_never_roll_the_sequence_back() {
        let mut tracker = HealthTracker::new();
        assert!(tracker.admit(0, Heartbeat, 7));
        assert!(!tracker.admit(0, Heartbeat, 3));
        assert_eq!(tracker.sequence_of(0), 7);
    }

    #[test]
    fn replayed_sequence_is_counted_and_cannot_extend_a_deadline() {
        let mut tracker = HealthTracker::new();
        assert!(tracker.admit(0, Heartbeat, 4));
        // An attacker (or a duplicating link) replays the same beacon: the
        // sequence must not advance — a replay can never buy liveness.
        assert!(!tracker.admit(0, Heartbeat, 4));
        assert!(!tracker.admit(0, Heartbeat, 4));
        assert_eq!(tracker.sequence_of(0), 4);
        // A genuinely newer beacon still works.
        assert!(tracker.admit(0, Heartbeat, 5));
        assert_eq!(tracker.sequence_of(0), 5);
    }

    #[test]
    fn wraparound_sequences_are_stale_not_fresh() {
        let mut tracker = HealthTracker::new();
        assert!(tracker.admit(0, Heartbeat, u64::MAX));
        // A counter that wrapped to 0 is indistinguishable from a replay: it
        // must be ignored and reported stale, not treated as progress.
        assert!(!tracker.admit(0, Heartbeat, 0));
        assert!(!tracker.admit(0, Heartbeat, 1));
        assert_eq!(tracker.sequence_of(0), u64::MAX);
        // A new epoch resets the domain; sequencing works again.
        tracker.begin_epoch();
        assert!(tracker.admit(0, Heartbeat, 1));
        assert_eq!(tracker.sequence_of(0), 1);
    }

    #[test]
    fn a_wrapped_counter_never_moves_the_sequence_off_its_max() {
        let mut tracker = HealthTracker::new();
        assert!(tracker.admit(0, Heartbeat, u64::MAX));
        assert!(!tracker.admit(0, Heartbeat, 0));
        // The wrapped value did not move the device off `u64::MAX`, so the
        // top sequence itself is still a replay.
        assert!(!tracker.admit(0, Heartbeat, u64::MAX));
        // A leave is admitted whatever its sequence, but a wrapped one
        // retires the device at the higher of the two.
        assert!(tracker.admit(0, Leave, 0));
        assert_eq!(tracker.sequence_of(0), u64::MAX);
    }

    #[test]
    fn declare_dead_is_terminal_but_spares_the_gracefully_left() {
        let mut tracker = HealthTracker::new();
        tracker.admit(0, Heartbeat, 3);
        tracker.declare_dead(0);
        assert_eq!(tracker.health_of(0), Some(DeviceHealth::Dead));
        // Death is terminal: late heartbeats cannot resurrect the device or
        // advance its sequence (they are stale).
        assert!(!tracker.admit(0, Heartbeat, 9));
        assert_eq!(tracker.health_of(0), Some(DeviceHealth::Dead));
        assert_eq!(tracker.sequence_of(0), 3);
        tracker.admit(1, Leave, 5);
        tracker.declare_dead(1);
        assert_eq!(tracker.health_of(1), Some(DeviceHealth::Left));
        // Declaring an unknown device registers it as dead.
        tracker.declare_dead(7);
        assert_eq!(tracker.health_of(7), Some(DeviceHealth::Dead));
    }

    #[test]
    fn rejoin_is_a_new_identity_epoch_not_a_resurrection() {
        let mut tracker = HealthTracker::new();
        tracker.admit(0, Heartbeat, 6);
        tracker.declare_dead(0);
        tracker.observe_rejoin(0);
        assert_eq!(tracker.health_of(0), Some(DeviceHealth::Rejoined));
        assert!(tracker.health_of(0).unwrap().is_live());
        // Fresh sequence domain: the old incarnation's progress is gone.
        assert_eq!(tracker.sequence_of(0), 0);
        tracker.admit(0, Heartbeat, 1);
        assert_eq!(tracker.sequence_of(0), 1);
        // The new incarnation can die too, and rejoin again.
        tracker.declare_dead(0);
        assert_eq!(tracker.health_of(0), Some(DeviceHealth::Dead));
        tracker.observe_rejoin(0);
        assert_eq!(tracker.health_of(0), Some(DeviceHealth::Rejoined));
        assert_eq!(tracker.sequence_of(0), 0);
        // A device that gracefully left can also come back as a new identity.
        tracker.admit(1, Leave, 4);
        tracker.observe_rejoin(1);
        assert_eq!(tracker.health_of(1), Some(DeviceHealth::Rejoined));
        assert_eq!(tracker.sequence_of(1), 0);
    }

    #[test]
    fn rejoin_on_a_live_or_unknown_device_degrades_to_a_plain_join() {
        let mut tracker = HealthTracker::new();
        tracker.observe_rejoin(5);
        assert_eq!(tracker.health_of(5), Some(DeviceHealth::Alive));
        tracker.admit(5, Heartbeat, 2);
        tracker.observe_rejoin(5);
        assert_eq!(tracker.health_of(5), Some(DeviceHealth::Alive));
        assert_eq!(tracker.sequence_of(5), 2, "no sequence reset on a no-op");
    }

    #[test]
    fn begin_epoch_resets_live_sequences_only() {
        let mut tracker = HealthTracker::new();
        tracker.admit(0, Heartbeat, 8);
        tracker.admit(1, Heartbeat, 8);
        tracker.declare_dead(1);
        tracker.begin_epoch();
        assert_eq!(tracker.sequence_of(0), 0);
        assert_eq!(tracker.sequence_of(1), 8, "terminal state is frozen");
        assert!(tracker.admit(0, Heartbeat, 1));
        assert_eq!(tracker.sequence_of(0), 1);
    }

    #[test]
    fn join_registers_and_unknown_devices_are_none() {
        let mut tracker = HealthTracker::new();
        assert!(tracker.admit(3, Join, 0));
        assert_eq!(tracker.health_of(3), Some(DeviceHealth::Alive));
        assert_eq!(tracker.health_of(99), None);
        assert_eq!(tracker.sequence_of(99), 0);
    }

    #[test]
    fn a_join_is_admitted_once_per_epoch() {
        let mut tracker = HealthTracker::new();
        assert!(tracker.admit(4, Join, 0));
        // Re-announcing the join on the same link is a replay, whatever its
        // sequence.
        assert!(!tracker.admit(4, Join, 0));
        assert!(!tracker.admit(4, Join, 1));
        tracker.begin_epoch();
        assert!(tracker.admit(4, Join, 0));
    }

    #[test]
    fn a_beacon_at_sequence_zero_or_after_the_devices_leave_is_stale() {
        let mut tracker = HealthTracker::new();
        tracker.register(0);
        assert!(!tracker.admit(0, Heartbeat, 0), "0 beats no round");
        assert!(tracker.admit(0, Heartbeat, 1));
        assert!(tracker.admit(0, Leave, 1));
        assert!(!tracker.admit(0, Heartbeat, 2), "the device has left");
        assert_eq!(tracker.sequence_of(0), 1);
    }

    #[test]
    fn a_leave_is_admitted_only_while_the_device_is_live() {
        let mut tracker = HealthTracker::new();
        assert!(tracker.admit(0, Leave, 3));
        assert!(!tracker.admit(0, Leave, 4), "a second leave is a replay");
        assert_eq!(tracker.sequence_of(0), 3);
        tracker.declare_dead(1);
        assert!(!tracker.admit(1, Leave, 1));
        assert_eq!(tracker.health_of(1), Some(DeviceHealth::Dead));
    }

    #[test]
    fn devices_are_sequenced_independently() {
        let mut tracker = HealthTracker::new();
        assert!(tracker.admit(0, Heartbeat, 5));
        // The same sequence from another device is that device's progress.
        assert!(tracker.admit(1, Heartbeat, 5));
        assert!(!tracker.admit(0, Heartbeat, 5));
    }
}
