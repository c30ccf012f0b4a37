//! Analytic end-to-end latency model for a deployed split plan.

use edvit_partition::{DeviceSpec, SplitPlan};

use crate::wire::{self, PayloadCodec};
use crate::{EdgeError, NetOptions, NetworkConfig, Result};

/// Latency contribution of one edge device.
#[derive(Debug, Clone, PartialEq)]
pub struct PerDeviceLatency {
    /// Device identifier.
    pub device_id: usize,
    /// Seconds spent computing all sub-models hosted on this device
    /// (sequentially, as a single Pi runs them one after another).
    pub compute_seconds: f64,
    /// Seconds spent transmitting this device's feature frames to the fusion
    /// device, amortized per sample when frames are batched.
    pub communication_seconds: f64,
    /// Encoded wire-v2 bytes this device ships per round (one batched frame
    /// per hosted sub-model, headers and sample indices included).
    pub wire_bytes: u64,
}

impl PerDeviceLatency {
    /// Total busy time of this device for one input sample.
    pub fn total_seconds(&self) -> f64 {
        self.compute_seconds + self.communication_seconds
    }
}

/// End-to-end latency breakdown for one inference sample.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyBreakdown {
    /// Per-device compute + communication times.
    pub per_device: Vec<PerDeviceLatency>,
    /// Seconds the fusion device spends running the fusion MLP.
    pub fusion_seconds: f64,
    /// End-to-end latency: the slowest device (devices work in parallel on
    /// the same sample) plus fusion.
    pub total_seconds: f64,
}

impl LatencyBreakdown {
    /// Fraction of the end-to-end latency spent on communication (the paper
    /// argues this is negligible: ≤ 5.86 ms against seconds of compute).
    pub fn communication_fraction(&self) -> f64 {
        if self.total_seconds <= 0.0 {
            return 0.0;
        }
        let comm: f64 = self
            .per_device
            .iter()
            .map(|d| d.communication_seconds)
            .fold(0.0, f64::max);
        comm / self.total_seconds
    }
}

/// Analytic timing of a *streaming* deployment processing rounds of samples,
/// produced by [`LatencyModel::estimate_stream`].
///
/// The stream is a two-stage pipeline: every edge device computes and ships
/// its round (stage 1, all devices in parallel — the stage time is the
/// slowest device), then the fusion device drains it (stage 2). A barrier
/// scheduler runs the stages strictly in sequence per round; a pipelined
/// scheduler overlaps them, so the steady-state round interval is the *wider*
/// stage instead of the sum.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamTiming {
    /// Samples carried by each round.
    pub samples_per_round: usize,
    /// Whether rounds overlap (pipelined) or barrier-synchronize.
    pub pipelined: bool,
    /// Stage-1 time: slowest device's per-round compute + its batched data
    /// frames + one heartbeat control frame on the wire.
    pub device_round_seconds: f64,
    /// Stage-2 time: fusion MLP over one round of samples.
    pub fusion_round_seconds: f64,
    /// Steady-state spacing between consecutive round completions.
    pub round_interval_seconds: f64,
    /// Encoded wire bytes per round across all devices (data frames plus one
    /// control frame per active device).
    pub per_round_wire_bytes: u64,
}

impl StreamTiming {
    /// Steady-state throughput in samples per second (infinite when the round
    /// interval rounds to zero).
    pub fn steady_state_samples_per_second(&self) -> f64 {
        if self.round_interval_seconds > 0.0 {
            self.samples_per_round as f64 / self.round_interval_seconds
        } else {
            f64::INFINITY
        }
    }

    /// End-to-end virtual time to fuse `rounds` rounds. Barrier mode pays
    /// both stages per round; pipelined mode pays the pipeline fill once and
    /// then one round interval per round.
    pub fn total_seconds(&self, rounds: usize) -> f64 {
        if rounds == 0 {
            return 0.0;
        }
        if self.pipelined {
            self.device_round_seconds
                + self.fusion_round_seconds
                + (rounds - 1) as f64 * self.round_interval_seconds
        } else {
            rounds as f64 * self.round_interval_seconds
        }
    }

    /// Virtual time charged for re-requesting a frame, round-denominated and
    /// exponential in the attempt number with a capped exponent:
    /// `min(2^(attempt-1), 8) × round_interval`. Attempt 1 is the first
    /// re-request (one round interval); the cap keeps a long retry chain's
    /// cost linear instead of exploding, and attempt 0 (the original
    /// delivery) costs nothing extra.
    ///
    /// The bound follows: a retry chain of `n ≤ edvit_sched::MAX_RETRIES`
    /// attempts costs at most `8 · n` round intervals of virtual time.
    pub fn retry_backoff_seconds(&self, attempt: u32) -> f64 {
        if attempt == 0 {
            return 0.0;
        }
        let factor = 1u64 << (attempt - 1).min(3);
        factor as f64 * self.round_interval_seconds
    }
}

/// Analytic latency model: FLOPs ÷ device throughput for compute, payload ÷
/// bandwidth for communication, plus a fusion-MLP term.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    network: NetworkConfig,
    /// FLOPs attributed to the fusion MLP per sample; derived from the fusion
    /// layer sizes (`N·d·s → λ·N·d·s → classes`, λ = 0.5).
    fusion_flops_override: Option<u64>,
    /// Wire codec the deployment ships batch frames with; prices the frame
    /// bytes in every estimate (pessimistically for the compressed codec,
    /// whose true size is data-dependent).
    codec: PayloadCodec,
}

impl LatencyModel {
    /// Creates a latency model with the given network configuration and the
    /// default [`PayloadCodec::F32`] wire codec.
    pub fn new(network: NetworkConfig) -> Self {
        LatencyModel {
            network,
            fusion_flops_override: None,
            codec: PayloadCodec::F32,
        }
    }

    /// Overrides the fusion-MLP FLOPs (useful when the caller has the actual
    /// fusion model and wants measured sizes instead of the default formula).
    pub fn with_fusion_flops(mut self, flops: u64) -> Self {
        self.fusion_flops_override = Some(flops);
        self
    }

    /// Prices every estimate under the shared [`NetOptions`]: f16 halves the
    /// per-value frame bytes, and the compressed codec is charged its
    /// worst-case (all-literal) size, since the analytic model cannot know
    /// the entropy of the features a deployment will ship. The transport does
    /// not change the analytic prices — timing is transport-independent by
    /// design — so only the codec is consumed here.
    pub fn with_options(mut self, options: &NetOptions) -> Self {
        self.codec = options.codec;
        self
    }

    /// Estimates the per-sample latency when each sub-model batches
    /// `samples_per_round` samples into one wire-v2 frame: compute scales
    /// per sample while frame headers and the per-message network overhead
    /// are amortized across the round. The fusion device is assumed to be an
    /// additional device of the same profile as `devices[0]`, matching the
    /// paper's setup of one dedicated fusion Pi.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidConfig`] when the plan references devices
    /// that are not in `devices`, the plan is empty, or `samples_per_round`
    /// is zero.
    pub fn estimate_batched(
        &self,
        plan: &SplitPlan,
        devices: &[DeviceSpec],
        samples_per_round: usize,
    ) -> Result<LatencyBreakdown> {
        if plan.sub_models.is_empty() || devices.is_empty() {
            return Err(EdgeError::InvalidConfig {
                message: "empty plan or device list".to_string(),
            });
        }
        if samples_per_round == 0 {
            return Err(EdgeError::InvalidConfig {
                message: "a round must carry at least one sample".to_string(),
            });
        }
        let mut per_device: Vec<PerDeviceLatency> = devices
            .iter()
            .map(|d| PerDeviceLatency {
                device_id: d.id,
                compute_seconds: 0.0,
                communication_seconds: 0.0,
                wire_bytes: 0,
            })
            .collect();

        let mut total_feature_dim = 0usize;
        for sub in &plan.sub_models {
            let device_id =
                plan.assignment
                    .device_for(sub.index)
                    .ok_or_else(|| EdgeError::InvalidConfig {
                        message: format!("sub-model {} has no assigned device", sub.index),
                    })?;
            let device = devices.iter().find(|d| d.id == device_id).ok_or_else(|| {
                EdgeError::InvalidConfig {
                    message: format!("device {device_id} not present in the device list"),
                }
            })?;
            let slot = per_device
                .iter_mut()
                .find(|p| p.device_id == device_id)
                .ok_or_else(|| EdgeError::InvalidConfig {
                    message: format!("device {device_id} missing from the per-device table"),
                })?;
            slot.compute_seconds += device.execution_seconds(sub.cost.flops);
            let frame_bytes = wire::batch_frame_len_coded(
                samples_per_round,
                sub.pruned.feature_dim(),
                self.codec,
            ) as u64;
            slot.communication_seconds += self
                .network
                .amortized_transfer_seconds(frame_bytes, samples_per_round);
            slot.wire_bytes += frame_bytes;
            total_feature_dim += sub.pruned.feature_dim();
        }

        // Fusion MLP: concat(N features) -> λ·total -> classes, λ = 0.5.
        let classes = plan
            .sub_models
            .first()
            .map_or(0, |s| s.pruned.base().num_classes);
        let hidden = (total_feature_dim as f64 * 0.5).ceil() as u64;
        let fusion_flops = self
            .fusion_flops_override
            .unwrap_or(total_feature_dim as u64 * hidden + hidden * classes as u64);
        let fusion_device = &devices[0];
        let fusion_seconds = fusion_device.execution_seconds(fusion_flops);

        let slowest = per_device
            .iter()
            .map(PerDeviceLatency::total_seconds)
            .fold(0.0, f64::max);
        Ok(LatencyBreakdown {
            per_device,
            fusion_seconds,
            total_seconds: slowest + fusion_seconds,
        })
    }

    /// Analytic round timing of a streaming deployment shipping
    /// `samples_per_round` samples per round, either barrier-synchronized or
    /// pipelined. On top of [`LatencyModel::estimate_batched`] this charges
    /// every active device one [`wire::CONTROL_FRAME_LEN`]-byte heartbeat
    /// frame per round, because the streaming scheduler's failure detector
    /// rides on those beacons.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LatencyModel::estimate_batched`].
    pub fn estimate_stream(
        &self,
        plan: &SplitPlan,
        devices: &[DeviceSpec],
        samples_per_round: usize,
        pipelined: bool,
    ) -> Result<StreamTiming> {
        let batched = self.estimate_batched(plan, devices, samples_per_round)?;
        let heartbeat_seconds = self
            .network
            .transfer_seconds(wire::CONTROL_FRAME_LEN as u64);
        let spr = samples_per_round as f64;
        let mut device_round_seconds = 0.0f64;
        let mut per_round_wire_bytes = 0u64;
        for d in &batched.per_device {
            if d.wire_bytes == 0 {
                // Hosts no sub-model: it neither computes nor heartbeats.
                continue;
            }
            // `estimate_batched` reports per-sample (amortized) times; a round
            // pays them for every sample, plus one heartbeat frame.
            let round = (d.compute_seconds + d.communication_seconds) * spr + heartbeat_seconds;
            device_round_seconds = device_round_seconds.max(round);
            per_round_wire_bytes += d.wire_bytes + wire::CONTROL_FRAME_LEN as u64;
        }
        let fusion_round_seconds = batched.fusion_seconds * spr;
        let round_interval_seconds = if pipelined {
            device_round_seconds.max(fusion_round_seconds)
        } else {
            device_round_seconds + fusion_round_seconds
        };
        Ok(StreamTiming {
            samples_per_round,
            pipelined,
            device_round_seconds,
            fusion_round_seconds,
            round_interval_seconds,
            per_round_wire_bytes,
        })
    }
}

/// Per-round-size stream timings for one `(plan, devices)` deployment.
///
/// Continuous batching makes round sizes vary round to round (fill the batch
/// from whatever is queued, never wait for stragglers), so callers need
/// [`StreamTiming`]s for many `samples_per_round` values against the same
/// deployment. `RoundTimings` memoizes [`LatencyModel::estimate_stream`] per
/// size and knows how to price a whole *sequence* of heterogeneous rounds —
/// the accounting that replaces "rounds × nominal interval" once partial
/// rounds are legal.
#[derive(Debug, Clone)]
pub struct RoundTimings {
    model: LatencyModel,
    plan: SplitPlan,
    devices: Vec<DeviceSpec>,
    pipelined: bool,
    cache: std::collections::BTreeMap<usize, StreamTiming>,
}

impl RoundTimings {
    /// Creates a timing table for the deployment. The plan must only contain
    /// hosted sub-models (a degraded caller filters first, exactly as it
    /// would for [`LatencyModel::estimate_stream`]).
    pub fn new(
        model: LatencyModel,
        plan: SplitPlan,
        devices: Vec<DeviceSpec>,
        pipelined: bool,
    ) -> Self {
        RoundTimings {
            model,
            plan,
            devices,
            pipelined,
            cache: std::collections::BTreeMap::new(),
        }
    }

    /// The stream timing for a round of `samples` samples, memoized.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LatencyModel::estimate_stream`] (notably
    /// `samples == 0`).
    pub fn timing_for(&mut self, samples: usize) -> Result<StreamTiming> {
        if let Some(timing) = self.cache.get(&samples) {
            return Ok(timing.clone());
        }
        let timing =
            self.model
                .estimate_stream(&self.plan, &self.devices, samples, self.pipelined)?;
        self.cache.insert(samples, timing.clone());
        Ok(timing)
    }

    /// Virtual seconds to fuse the given sequence of round sizes back to
    /// back. Pipelined mode pays the first round's fill (device stage +
    /// fusion stage) and then one per-size round interval for each later
    /// round; barrier mode pays both stages for every round. For a uniform
    /// sequence this is exactly [`StreamTiming::total_seconds`]; for a mixed
    /// sequence every round is charged at *its own* sample count — an
    /// under-filled final round no longer pays for samples it did not carry.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LatencyModel::estimate_stream`].
    pub fn seconds_for_rounds(&mut self, sizes: &[usize]) -> Result<f64> {
        let mut total = 0.0f64;
        for (index, &size) in sizes.iter().enumerate() {
            let timing = self.timing_for(size)?;
            total += if self.pipelined && index == 0 {
                timing.device_round_seconds + timing.fusion_round_seconds
            } else {
                timing.round_interval_seconds
            };
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edvit_partition::{PlannerConfig, SplitPlanner};
    use edvit_vit::ViTConfig;

    fn plan_for(n: usize) -> (SplitPlan, Vec<DeviceSpec>) {
        let devices = DeviceSpec::raspberry_pi_cluster(n);
        let plan = SplitPlanner::new(PlannerConfig::default())
            .plan(&ViTConfig::vit_base(10), &devices, 1)
            .unwrap();
        (plan, devices)
    }

    fn wire_bytes(latency: &LatencyBreakdown) -> u64 {
        latency.per_device.iter().map(|d| d.wire_bytes).sum()
    }

    #[test]
    fn latency_decreases_with_more_devices() {
        let model = LatencyModel::new(NetworkConfig::paper_default());
        let mut last = f64::INFINITY;
        for n in [2usize, 3, 5, 10] {
            let (plan, devices) = plan_for(n);
            let latency = model.estimate_batched(&plan, &devices, 1).unwrap();
            assert!(
                latency.total_seconds < last,
                "latency should fall with more devices: {} !< {last}",
                latency.total_seconds
            );
            last = latency.total_seconds;
        }
    }

    #[test]
    fn paper_scale_latency_band() {
        // Fig. 4(b): ViT-Base split over 2 devices ~9.6 s per sample, over 10
        // devices ~1.3 s, against an original-model latency of 36.94 s.
        let model = LatencyModel::new(NetworkConfig::paper_default());
        let (plan2, devices2) = plan_for(2);
        let l2 = model.estimate_batched(&plan2, &devices2, 1).unwrap();
        assert!(
            l2.total_seconds > 5.0 && l2.total_seconds < 14.0,
            "{}",
            l2.total_seconds
        );
        let (plan10, devices10) = plan_for(10);
        let l10 = model.estimate_batched(&plan10, &devices10, 1).unwrap();
        assert!(
            l10.total_seconds > 0.4 && l10.total_seconds < 3.0,
            "{}",
            l10.total_seconds
        );
        let original = devices2[0].execution_seconds(16_860_000_000);
        assert!((original - 36.94).abs() < 1.0);
        assert!(
            original / l10.total_seconds > 10.0,
            "speedup should be >10x"
        );
    }

    #[test]
    fn batching_amortizes_communication_and_tracks_wire_bytes() {
        let model = LatencyModel::new(NetworkConfig::paper_default());
        let (plan, devices) = plan_for(4);
        let single = model.estimate_batched(&plan, &devices, 1).unwrap();
        let batched = model.estimate_batched(&plan, &devices, 32).unwrap();
        // Every device ships at least one frame's worth of header bytes.
        assert!(single.per_device.iter().any(|d| d.wire_bytes > 0));
        // A 32-sample frame carries more bytes but costs less per sample.
        for (s, b) in single.per_device.iter().zip(&batched.per_device) {
            if s.wire_bytes == 0 {
                continue; // device hosts no sub-model
            }
            assert!(b.wire_bytes > s.wire_bytes);
            assert!(b.communication_seconds < s.communication_seconds);
            // Compute is per-sample and unaffected by the round size.
            assert_eq!(b.compute_seconds, s.compute_seconds);
        }
        assert!(wire_bytes(&batched) > wire_bytes(&single));
        assert!(batched.total_seconds <= single.total_seconds);
        // A zero-sample round is a configuration error.
        assert!(model.estimate_batched(&plan, &devices, 0).is_err());
    }

    #[test]
    fn communication_is_negligible_fraction() {
        let model = LatencyModel::new(NetworkConfig::paper_default());
        let (plan, devices) = plan_for(5);
        let latency = model.estimate_batched(&plan, &devices, 1).unwrap();
        assert!(latency.communication_fraction() < 0.05);
        assert!(latency.fusion_seconds >= 0.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let model = LatencyModel::new(NetworkConfig::paper_default());
        let (plan, devices) = plan_for(3);
        assert!(model.estimate_batched(&plan, &[], 1).is_err());
        // Device list that does not contain the assigned device ids.
        let wrong: Vec<DeviceSpec> = (100..103).map(DeviceSpec::raspberry_pi_4b).collect();
        assert!(model.estimate_batched(&plan, &wrong, 1).is_err());
        let _ = devices;
    }

    #[test]
    fn fusion_flops_override_is_used() {
        let (plan, devices) = plan_for(2);
        let base = LatencyModel::new(NetworkConfig::paper_default())
            .estimate_batched(&plan, &devices, 1)
            .unwrap();
        let slow_fusion = LatencyModel::new(NetworkConfig::paper_default())
            .with_fusion_flops(10_000_000_000)
            .estimate_batched(&plan, &devices, 1)
            .unwrap();
        assert!(slow_fusion.fusion_seconds > base.fusion_seconds);
        assert!(slow_fusion.total_seconds > base.total_seconds);
    }

    #[test]
    fn pipelined_stream_beats_barrier_and_is_bounded_by_its_stages() {
        let model = LatencyModel::new(NetworkConfig::paper_default());
        let (plan, devices) = plan_for(4);
        let barrier = model.estimate_stream(&plan, &devices, 8, false).unwrap();
        let pipelined = model.estimate_stream(&plan, &devices, 8, true).unwrap();
        // Stage times agree; only the interval differs.
        assert_eq!(barrier.device_round_seconds, pipelined.device_round_seconds);
        assert_eq!(barrier.fusion_round_seconds, pipelined.fusion_round_seconds);
        assert!(pipelined.round_interval_seconds < barrier.round_interval_seconds);
        assert!(
            pipelined.steady_state_samples_per_second() > barrier.steady_state_samples_per_second()
        );
        // The pipelined interval is exactly the wider stage.
        assert_eq!(
            pipelined.round_interval_seconds,
            pipelined
                .device_round_seconds
                .max(pipelined.fusion_round_seconds)
        );
        // Heartbeats are charged: the round ships more than the data frames.
        let batched = model.estimate_batched(&plan, &devices, 8).unwrap();
        assert!(pipelined.per_round_wire_bytes > wire_bytes(&batched));
        // Totals: pipelined total over many rounds approaches interval*rounds
        // and never exceeds barrier.
        for rounds in [1usize, 2, 10] {
            assert!(pipelined.total_seconds(rounds) <= barrier.total_seconds(rounds) + 1e-12);
        }
        assert_eq!(pipelined.total_seconds(0), 0.0);
        assert!(pipelined.total_seconds(1) >= pipelined.device_round_seconds);
    }

    #[test]
    fn retry_backoff_is_round_denominated_exponential_with_a_cap() {
        let model = LatencyModel::new(NetworkConfig::paper_default());
        let (plan, devices) = plan_for(3);
        let timing = model.estimate_stream(&plan, &devices, 4, true).unwrap();
        let interval = timing.round_interval_seconds;
        assert_eq!(timing.retry_backoff_seconds(0), 0.0);
        assert_eq!(timing.retry_backoff_seconds(1), interval);
        assert_eq!(timing.retry_backoff_seconds(2), 2.0 * interval);
        assert_eq!(timing.retry_backoff_seconds(3), 4.0 * interval);
        assert_eq!(timing.retry_backoff_seconds(4), 8.0 * interval);
        // Capped thereafter: cost grows linearly, never exponentially.
        assert_eq!(timing.retry_backoff_seconds(5), 8.0 * interval);
        assert_eq!(timing.retry_backoff_seconds(40), 8.0 * interval);
    }

    #[test]
    fn f16_codec_shrinks_wire_bytes_and_communication_but_not_compute() {
        let (plan, devices) = plan_for(4);
        let f32_model = LatencyModel::new(NetworkConfig::paper_default());
        let f16_model = LatencyModel::new(NetworkConfig::paper_default())
            .with_options(&NetOptions::default().with_codec(PayloadCodec::F16));
        let base = f32_model.estimate_batched(&plan, &devices, 16).unwrap();
        let coded = f16_model.estimate_batched(&plan, &devices, 16).unwrap();
        for (a, b) in base.per_device.iter().zip(&coded.per_device) {
            if a.wire_bytes == 0 {
                continue;
            }
            assert!(b.wire_bytes < a.wire_bytes);
            assert!(b.communication_seconds < a.communication_seconds);
            assert_eq!(b.compute_seconds, a.compute_seconds);
        }
        // The value payload is exactly halved; only the fixed framing and
        // sample indices keep the whole frame above 50%.
        let dim_bytes: u64 = plan
            .sub_models
            .iter()
            .map(|s| 16 * s.pruned.feature_dim() as u64)
            .sum();
        assert_eq!(wire_bytes(&base) - wire_bytes(&coded), dim_bytes * 2);
        // The streaming estimate inherits the codec.
        let base_stream = f32_model
            .estimate_stream(&plan, &devices, 16, true)
            .unwrap();
        let coded_stream = f16_model
            .estimate_stream(&plan, &devices, 16, true)
            .unwrap();
        assert!(coded_stream.per_round_wire_bytes < base_stream.per_round_wire_bytes);
        assert!(coded_stream.device_round_seconds <= base_stream.device_round_seconds);
        // The pessimistic rle bound never beats plain f16 analytically.
        let rle = LatencyModel::new(NetworkConfig::paper_default())
            .with_options(&NetOptions::default().with_codec(PayloadCodec::F16Rle))
            .estimate_batched(&plan, &devices, 16)
            .unwrap();
        assert!(wire_bytes(&rle) >= wire_bytes(&coded));
        assert!(wire_bytes(&rle) < wire_bytes(&base));
    }

    #[test]
    fn round_timings_match_uniform_totals_and_charge_partial_rounds_less() {
        let model = LatencyModel::new(NetworkConfig::paper_default());
        let (plan, devices) = plan_for(3);
        for pipelined in [true, false] {
            let mut table =
                RoundTimings::new(model.clone(), plan.clone(), devices.clone(), pipelined);
            let reference = model
                .estimate_stream(&plan, &devices, 4, pipelined)
                .unwrap();
            // Memoized lookups agree with the direct estimate.
            assert_eq!(table.timing_for(4).unwrap(), reference);
            assert_eq!(table.timing_for(4).unwrap(), reference);
            // A uniform sequence prices exactly like the closed form.
            let uniform = table.seconds_for_rounds(&[4, 4, 4]).unwrap();
            assert!((uniform - reference.total_seconds(3)).abs() < 1e-12);
            // An under-filled final round costs strictly less than a full one.
            let partial = table.seconds_for_rounds(&[4, 4, 2]).unwrap();
            assert!(
                partial < uniform,
                "{partial} !< {uniform} (pipelined={pipelined})"
            );
            // ... but more than dropping the round entirely.
            assert!(partial > table.seconds_for_rounds(&[4, 4]).unwrap());
            // Zero-sample rounds stay a configuration error.
            assert!(table.timing_for(0).is_err());
            assert!(table.seconds_for_rounds(&[4, 0]).is_err());
            // The empty sequence costs nothing.
            assert_eq!(table.seconds_for_rounds(&[]).unwrap(), 0.0);
        }
    }

    #[test]
    fn accessors() {
        let d = PerDeviceLatency {
            device_id: 0,
            compute_seconds: 1.0,
            communication_seconds: 0.5,
            wire_bytes: 64,
        };
        assert_eq!(d.total_seconds(), 1.5);
        let empty = LatencyBreakdown {
            per_device: vec![],
            fusion_seconds: 0.0,
            total_seconds: 0.0,
        };
        assert_eq!(empty.communication_fraction(), 0.0);
    }
}
