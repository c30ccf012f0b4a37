//! Variable-size round layouts: which contiguous span of the input stream
//! each global round covers.
//!
//! The streaming scheduler originally hard-wired "round `k` = samples
//! `[k·round_size, (k+1)·round_size)`". A serving front-door forms rounds
//! from whatever happens to be queued — continuous batching — so round sizes
//! vary run to run. [`RoundLayout`] is the seam between the two: it maps
//! rounds to sample spans (and samples back to rounds) without assuming the
//! rounds are uniform, and [`crate::StreamScheduler::run_rounds`] executes
//! any layout the caller hands it.

use std::ops::Range;

use crate::{Result, SchedError};

/// A partition of the flat input stream into contiguous, non-empty rounds.
///
/// Round `r` covers `span(r)`; spans tile `0..total_samples` in order with no
/// gaps. Construction validates the shape once, so every accessor is
/// panic-free afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundLayout {
    /// `bounds[r]..bounds[r + 1]` is round `r`'s sample span; `bounds[0]` is
    /// always 0 and the last entry is the total sample count.
    bounds: Vec<usize>,
}

impl RoundLayout {
    /// The classic uniform layout: rounds of `round_size` samples, with a
    /// final partial round when `total_samples` is not a multiple.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidConfig`] when `total_samples` or
    /// `round_size` is zero.
    pub fn uniform(total_samples: usize, round_size: usize) -> Result<Self> {
        if round_size == 0 {
            return Err(SchedError::InvalidConfig {
                message: "round size must be at least 1".to_string(),
            });
        }
        if total_samples == 0 {
            return Err(SchedError::InvalidConfig {
                message: "a round layout must cover at least one sample".to_string(),
            });
        }
        let rounds = total_samples.div_ceil(round_size);
        let mut bounds = Vec::with_capacity(rounds + 1);
        for r in 0..rounds {
            bounds.push(r * round_size);
        }
        bounds.push(total_samples);
        Ok(RoundLayout { bounds })
    }

    /// A layout from explicit per-round sizes, e.g. the batches a
    /// continuous-batching front end formed from its queues.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidConfig`] when `sizes` is empty or any
    /// round is empty.
    pub fn from_sizes(sizes: &[usize]) -> Result<Self> {
        if sizes.is_empty() {
            return Err(SchedError::InvalidConfig {
                message: "a round layout needs at least one round".to_string(),
            });
        }
        let mut bounds = Vec::with_capacity(sizes.len() + 1);
        let mut offset = 0usize;
        bounds.push(0);
        for (r, &size) in sizes.iter().enumerate() {
            if size == 0 {
                return Err(SchedError::InvalidConfig {
                    message: format!("round {r} is empty; every round must carry a sample"),
                });
            }
            offset += size;
            bounds.push(offset);
        }
        Ok(RoundLayout { bounds })
    }

    /// Number of rounds in the layout.
    pub fn rounds(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total samples covered by the layout.
    pub fn total_samples(&self) -> usize {
        *self.bounds.last().unwrap_or(&0)
    }

    /// Sample span of the given global round (empty when the round is out of
    /// range).
    pub fn span(&self, round: u64) -> Range<usize> {
        let r = round as usize;
        if r + 1 >= self.bounds.len() {
            let end = self.total_samples();
            return end..end;
        }
        self.bounds[r]..self.bounds[r + 1]
    }

    /// Samples carried by the given round (0 when out of range).
    pub fn len_of(&self, round: u64) -> usize {
        self.span(round).len()
    }

    /// The round that covers the given sample index, if any.
    pub fn round_of(&self, sample: usize) -> Option<u64> {
        if sample >= self.total_samples() {
            return None;
        }
        // First bound strictly above `sample`; its predecessor starts the round.
        let upper = self.bounds.partition_point(|&b| b <= sample);
        Some((upper - 1) as u64)
    }

    /// Per-round sizes, in round order.
    pub fn sizes(&self) -> Vec<usize> {
        self.bounds.windows(2).map(|w| w[1] - w[0]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_layout_matches_div_ceil_arithmetic() {
        let layout = RoundLayout::uniform(10, 4).unwrap();
        assert_eq!(layout.rounds(), 3);
        assert_eq!(layout.total_samples(), 10);
        assert_eq!(layout.span(0), 0..4);
        assert_eq!(layout.span(1), 4..8);
        assert_eq!(layout.span(2), 8..10);
        assert_eq!(layout.len_of(2), 2);
        assert_eq!(layout.sizes(), vec![4, 4, 2]);
        // Out-of-range rounds are empty, not a panic.
        assert_eq!(layout.span(3), 10..10);
        assert_eq!(layout.len_of(99), 0);
    }

    #[test]
    fn round_of_inverts_span() {
        let layout = RoundLayout::from_sizes(&[3, 1, 5, 2]).unwrap();
        assert_eq!(layout.rounds(), 4);
        assert_eq!(layout.total_samples(), 11);
        for round in 0..layout.rounds() as u64 {
            for sample in layout.span(round) {
                assert_eq!(layout.round_of(sample), Some(round));
            }
        }
        assert_eq!(layout.round_of(11), None);
        assert_eq!(layout.sizes(), vec![3, 1, 5, 2]);
    }

    #[test]
    fn invalid_layouts_are_rejected() {
        assert!(RoundLayout::uniform(0, 4).is_err());
        assert!(RoundLayout::uniform(4, 0).is_err());
        assert!(RoundLayout::from_sizes(&[]).is_err());
        assert!(RoundLayout::from_sizes(&[2, 0, 1]).is_err());
    }
}
