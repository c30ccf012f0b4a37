//! The fusion side's round contract, shared by both collectors — the
//! one-shot ([`crate::ClusterRuntime::run_over`]) and the stream collector in
//! `edvit-sched`: which feature frames make a round, and how a sample's
//! fusion input is assembled from them.
//!
//! Every feature frame a device sends is one sub-model's whole round
//! ([`crate::encode_device_round`] over the round's sample span), so
//! [`RoundBatch::check`] accepts exactly that: each sample of the span once
//! and nothing else. [`fuse_round`] then concatenates each sample's rows in
//! source order — sub-model order, as in ED-ViT's aggregation device — with
//! zeros standing in for a sub-model no device hosts.

use std::ops::Range;

use edvit_tensor::Tensor;

use crate::{FeatureBatchMessage, FusionFn};

/// One sub-model's features for one round, checked against the round's
/// sample span.
#[derive(Debug)]
pub struct RoundBatch {
    batch: FeatureBatchMessage,
    /// `row_of[offset]` is the batch row holding sample `span.start + offset`.
    row_of: Vec<usize>,
}

impl RoundBatch {
    /// Accepts `batch` as the round covering `span` if it holds every sample
    /// of `span` exactly once and nothing else.
    ///
    /// # Errors
    ///
    /// Names the first sample outside `span` or repeated, or how many of the
    /// span's samples the batch holds.
    pub fn check(batch: FeatureBatchMessage, span: Range<usize>) -> Result<RoundBatch, String> {
        // `usize::MAX` marks a sample no row has claimed yet.
        let mut row_of = vec![usize::MAX; span.len()];
        for (row, &sample) in batch.sample_indices.iter().enumerate() {
            let sample = sample as usize;
            let slot = sample
                .checked_sub(span.start)
                .and_then(|offset| row_of.get_mut(offset))
                .ok_or_else(|| {
                    format!(
                        "sample {sample} is outside the round's samples {}..{}",
                        span.start, span.end
                    )
                })?;
            if *slot != usize::MAX {
                return Err(format!("sample {sample} appears twice"));
            }
            *slot = row;
        }
        if batch.num_samples() != span.len() {
            return Err(format!(
                "frame holds {} of {} samples",
                batch.num_samples(),
                span.len()
            ));
        }
        Ok(RoundBatch { batch, row_of })
    }

    /// The checked batch.
    pub fn batch(&self) -> &FeatureBatchMessage {
        &self.batch
    }
}

/// What one sub-model contributes to each fusion input of a round.
#[derive(Debug, Clone, Copy)]
pub enum FusionSource<'a> {
    /// The rows of a checked frame.
    Frame(&'a RoundBatch),
    /// Zeros of this width, for a sub-model no device hosts.
    Zeros(usize),
}

/// Fuses the first `samples` samples of a round: each sample's fusion input
/// is its rows from `sources` concatenated in order, and `fusion` maps it to
/// that sample's output.
///
/// # Errors
///
/// Returns the fusion function's own message when it fails.
pub fn fuse_round(
    sources: &[FusionSource<'_>],
    samples: usize,
    fusion: &mut FusionFn,
) -> Result<Vec<Tensor>, String> {
    let mut fused_dim = 0;
    (0..samples)
        .map(|offset| {
            let mut concatenated = Vec::with_capacity(fused_dim);
            for source in sources {
                match source {
                    FusionSource::Frame(round) => concatenated
                        .extend_from_slice(round.batch.feature_row(round.row_of[offset])),
                    FusionSource::Zeros(width) => {
                        concatenated.resize(concatenated.len() + width, 0.0);
                    }
                }
            }
            fused_dim = concatenated.len();
            let concatenated = Tensor::from_vec(concatenated, &[fused_dim])
                .map_err(|e| format!("feature concatenation failed: {e}"))?;
            fusion(&concatenated)
        })
        .collect()
}
