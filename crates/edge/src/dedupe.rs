//! Control-frame sequence dedupe.
//!
//! The wire gives every [`crate::ControlMessage`] a monotone per-device
//! sequence number precisely so the receiver can tell a fresh announcement
//! from a replayed or reordered one. [`ControlDeduper`] is that receiver-side
//! rule, factored out of the scheduler so any consumer of control frames
//! enforces the same contract:
//!
//! * per `(device, control kind)` stream, a frame is **admitted** only when
//!   its sequence is strictly greater than the last admitted sequence;
//! * everything else — an exact replay, a reordered straggler, or a counter
//!   that wrapped around to a smaller value — is **rejected** (the caller
//!   journals it). A rejected frame must never advance any deadline or state
//!   downstream.
//!
//! The first frame of a stream is always admitted (there is no previous
//! sequence to compare against), which makes `Join` frames with their fixed
//! sequence 0 admissible exactly once per deduper lifetime — re-announcing a
//! join on the same link is itself a replay.

use std::collections::BTreeMap;

use crate::wire::ControlKind;

/// Receiver-side sequence-monotonicity filter for control frames.
#[derive(Debug, Clone, Default)]
pub struct ControlDeduper {
    /// Last admitted sequence per (device, kind) stream.
    admitted: BTreeMap<(u32, ControlKind), u64>,
}

impl ControlDeduper {
    /// Creates an empty deduper (everything is fresh).
    pub fn new() -> Self {
        ControlDeduper::default()
    }

    /// Admits or rejects one control frame: returns `true` (and records the
    /// sequence) when the frame is fresh for its `(device, kind)` stream,
    /// `false` when it is a replay or stale.
    pub fn admit(&mut self, device_id: u32, kind: ControlKind, sequence: u64) -> bool {
        match self.admitted.get_mut(&(device_id, kind)) {
            None => {
                self.admitted.insert((device_id, kind), sequence);
                true
            }
            Some(last) if sequence > *last => {
                *last = sequence;
                true
            }
            Some(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_frame_is_always_admitted_then_monotone() {
        let mut dedupe = ControlDeduper::new();
        assert!(dedupe.admit(0, ControlKind::Heartbeat, 1));
        assert!(dedupe.admit(0, ControlKind::Heartbeat, 2));
        // Exact replay and stale reorder are both rejected.
        assert!(!dedupe.admit(0, ControlKind::Heartbeat, 2));
        assert!(!dedupe.admit(0, ControlKind::Heartbeat, 1));
        // A rejection leaves the last admitted sequence where it was.
        assert!(dedupe.admit(0, ControlKind::Heartbeat, 3));
        assert!(!dedupe.admit(0, ControlKind::Heartbeat, 3));
    }

    #[test]
    fn streams_are_independent_per_device_and_kind() {
        let mut dedupe = ControlDeduper::new();
        assert!(dedupe.admit(0, ControlKind::Heartbeat, 5));
        // Same sequence from another device, or another kind from the same
        // device, is a different stream.
        assert!(dedupe.admit(1, ControlKind::Heartbeat, 5));
        assert!(dedupe.admit(0, ControlKind::Leave, 5));
        // A stream nothing was admitted on yet takes any first sequence.
        assert!(dedupe.admit(0, ControlKind::Join, 0));
    }

    #[test]
    fn join_sequence_zero_is_admitted_once_per_link() {
        let mut dedupe = ControlDeduper::new();
        assert!(dedupe.admit(4, ControlKind::Join, 0));
        // Re-announcing the same join is a replay.
        assert!(!dedupe.admit(4, ControlKind::Join, 0));
        // A later join with a higher sequence (a new identity-epoch) passes.
        assert!(dedupe.admit(4, ControlKind::Join, 1));
    }

    #[test]
    fn wraparound_counts_as_stale_not_fresh() {
        let mut dedupe = ControlDeduper::new();
        assert!(dedupe.admit(0, ControlKind::Heartbeat, u64::MAX));
        assert!(!dedupe.admit(0, ControlKind::Heartbeat, 0));
        assert!(!dedupe.admit(0, ControlKind::Heartbeat, 1));
        // The wrapped values did not move the stream off `u64::MAX`.
        assert!(!dedupe.admit(0, ControlKind::Heartbeat, u64::MAX));
    }
}
