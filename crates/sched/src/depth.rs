//! Adaptive pipeline depth: deepen while fusion is the bottleneck, shallow
//! out when queues back up.
//!
//! The rule is deliberately small and hysteresis-free — one step per
//! decision, clamped to `[min_depth, max_depth]`:
//!
//! 1. **Backlog wins.** When the admission queue holds more than
//!    `backlog_rounds` rounds' worth of requests, step the depth *down*: a
//!    deep pipeline buffers more in-flight rounds, and under backlog that
//!    in-flight inventory is pure added latency for everything queued behind
//!    it.
//! 2. **Otherwise, chase the bottleneck.** While the fusion stage is wider
//!    than the device stage, step the depth *up* — extra buffered rounds keep
//!    the devices busy across the fusion stalls. When the device stage
//!    dominates, depth buys nothing; hold.
//!
//! The controller is pure (state lives with the caller), so every decision is
//! deterministic and unit-testable in isolation.

/// The adaptive pipeline-depth policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthController {
    /// Smallest depth the controller will shallow to (≥ 1).
    pub min_depth: usize,
    /// Largest depth the controller will deepen to.
    pub max_depth: usize,
    /// Queue backlog, in rounds, beyond which the controller steps down
    /// regardless of the stage balance.
    pub backlog_rounds: usize,
}

impl Default for DepthController {
    fn default() -> Self {
        DepthController {
            min_depth: 1,
            max_depth: 4,
            backlog_rounds: 4,
        }
    }
}

impl DepthController {
    /// Decides the next pipeline depth from the current stage balance and
    /// queue backlog. `fusion_bound` is whether the fusion stage is currently
    /// wider than the device stage; `queued_rounds` is the admission backlog
    /// measured in nominal rounds.
    pub fn decide(&self, fusion_bound: bool, queued_rounds: usize, current: usize) -> usize {
        let min = self.min_depth.max(1);
        let max = self.max_depth.max(min);
        if queued_rounds > self.backlog_rounds {
            return current.saturating_sub(1).clamp(min, max);
        }
        if fusion_bound {
            return (current + 1).clamp(min, max);
        }
        current.clamp(min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deepens_while_fusion_bound_and_clamps_at_max() {
        let ctl = DepthController {
            min_depth: 1,
            max_depth: 3,
            backlog_rounds: 4,
        };
        assert_eq!(ctl.decide(true, 0, 1), 2);
        assert_eq!(ctl.decide(true, 0, 2), 3);
        assert_eq!(ctl.decide(true, 0, 3), 3);
    }

    #[test]
    fn backlog_steps_down_and_overrides_fusion_pressure() {
        let ctl = DepthController {
            min_depth: 1,
            max_depth: 4,
            backlog_rounds: 2,
        };
        assert_eq!(ctl.decide(true, 3, 3), 2);
        assert_eq!(ctl.decide(false, 5, 2), 1);
        // Never below min_depth.
        assert_eq!(ctl.decide(false, 5, 1), 1);
        // Backlog at the threshold is not yet a backlog.
        assert_eq!(ctl.decide(false, 2, 2), 2);
    }

    #[test]
    fn device_bound_holds_and_degenerate_bounds_normalize() {
        let ctl = DepthController {
            min_depth: 0,
            max_depth: 0,
            backlog_rounds: 0,
        };
        // min/max normalize to at least 1.
        assert_eq!(ctl.decide(false, 0, 5), 1);
        assert_eq!(ctl.decide(true, 0, 1), 1);
        let ctl = DepthController::default();
        assert_eq!(ctl.decide(false, 0, 2), 2);
    }
}
