//! Bridging a trained [`crate::pipeline::EdVitDeployment`] onto the threaded
//! cluster runtime of `edvit-edge`, so that distributed inference actually
//! executes across worker threads with serialized feature messages — the
//! software analogue of the paper's Raspberry-Pi prototype (Fig. 3).

use edvit_edge::{
    ClusterRuntime, EdgeError, FusionFn, NetOptions, NetworkConfig, RuntimeReport, SubModelFn,
};
use edvit_metrics::MetricsSink;
use edvit_net::transport_for;
use edvit_tensor::Tensor;
use edvit_vit::VisionTransformer;

use crate::pipeline::EdVitDeployment;
use crate::{EdVitError, Result};

/// Everything a distributed run needs beyond the deployment and samples:
/// the network model and the shared [`NetOptions`] (wire codec + transport
/// backend). Construct with a struct literal over [`RunOptions::default`]:
///
/// ```
/// use edvit::distributed::RunOptions;
/// use edvit_edge::{NetOptions, PayloadCodec, TransportKind};
///
/// let options = RunOptions {
///     net: NetOptions::default()
///         .with_codec(PayloadCodec::F16)
///         .with_transport(TransportKind::Tcp),
///     ..RunOptions::default()
/// };
/// assert_eq!(options.net.codec, PayloadCodec::F16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Network model pricing the simulated communication time.
    pub network: NetworkConfig,
    /// Wire codec and transport backend, shared with every other
    /// `with_options` surface.
    pub net: NetOptions,
    /// Observability sink the run journals its batch accounting into.
    /// Disabled (a no-op) by default; sim and TCP transports emit the same
    /// event stream for the same workload.
    pub sink: MetricsSink,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            network: NetworkConfig::paper_default(),
            net: NetOptions::default(),
            sink: MetricsSink::disabled(),
        }
    }
}

/// Converts a deployment into per-device executors plus a fusion executor.
///
/// The deployment is consumed: each sub-model moves onto "its" device thread
/// (exactly as weights are copied onto a physical Pi), and the fusion MLP
/// moves to the aggregation thread. Inference records no backward state and
/// a trained model keeps no gradient, so an executor holds weights only and
/// mutates nothing.
pub fn into_executors(deployment: EdVitDeployment) -> (Vec<SubModelFn>, FusionFn) {
    let EdVitDeployment {
        sub_models, fusion, ..
    } = deployment;
    let executors: Vec<SubModelFn> = sub_models
        .into_iter()
        .map(|sub| {
            let model = sub.model;
            let executor: SubModelFn =
                Box::new(move |sample: &Tensor| sample_features(&model, sample));
            executor
        })
        .collect();
    let fusion_fn: FusionFn = Box::new(move |concat: &Tensor| {
        let batched = concat
            .reshape(&[1, concat.numel()])
            .map_err(|e| e.to_string())?;
        let logits = fusion.predict_logits(&batched).map_err(|e| e.to_string())?;
        logits.row(0).map_err(|e| e.to_string())
    });
    (executors, fusion_fn)
}

/// One sample's pooled feature vector from `model`: a `[c, h, w]` sample
/// gets a batch axis, and row 0 of the features is returned.
pub(crate) fn sample_features(
    model: &VisionTransformer,
    sample: &Tensor,
) -> std::result::Result<Tensor, String> {
    let batched = if sample.rank() == 3 {
        let mut dims = vec![1];
        dims.extend_from_slice(sample.dims());
        sample.reshape(&dims).map_err(|e| e.to_string())?
    } else {
        sample.clone()
    };
    let features = model
        .forward_features(&batched)
        .map_err(|e| e.to_string())?;
    features.row(0).map_err(|e| e.to_string())
}

/// Runs a batch of image samples through the deployment and returns the
/// runtime report (fused logits per sample, batched wire-v2 frame counts,
/// payload and wire bytes, and the network model's simulated communication
/// time; the report holds no wall-clock measurement). The one
/// distributed-inference entry point: [`RunOptions`] picks the wire codec and
/// whether the frames travel over in-process channel lanes
/// (`TransportKind::Sim`) or real loopback TCP sockets (`TransportKind::Tcp`)
/// — one executor ([`ClusterRuntime::run_over`]) runs over either, so the
/// report's content fields and the journal are identical both ways.
///
/// # Errors
///
/// Returns an error when the runtime fails or the inputs are empty.
pub fn run_distributed(
    deployment: EdVitDeployment,
    samples: &[Tensor],
    options: &RunOptions,
) -> Result<RuntimeReport> {
    if samples.is_empty() {
        return Err(EdVitError::InvalidConfig {
            message: "no samples to run through the cluster".to_string(),
        });
    }
    let (executors, fusion) = into_executors(deployment);
    let mut transport = transport_for(options.net.transport).map_err(EdgeError::from)?;
    let runtime = ClusterRuntime::new(options.network)
        .with_options(&options.net)
        .with_sink(options.sink.clone());
    Ok(runtime.run_over(transport.as_mut(), samples, executors, fusion)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{EdVitConfig, EdVitPipeline};
    use edvit_edge::TransportKind;
    use edvit_tensor::stats;

    #[test]
    fn distributed_inference_matches_label_space() {
        let deployment = EdVitPipeline::new(EdVitConfig::tiny_demo(2)).run().unwrap();
        let test = deployment.test_set.clone();
        let n = test.len().min(6);
        let samples: Vec<Tensor> = (0..n).map(|i| test.images().row(i).unwrap()).collect();
        let report = run_distributed(deployment, &samples, &RunOptions::default()).unwrap();
        assert_eq!(report.outputs.len(), n);
        // Wire v2 batches: one frame per device per round, not one per sample.
        assert_eq!(report.frames, 2);
        assert!(report.bytes_on_wire > report.payload_bytes);
        assert_eq!(report.per_device_wire_bytes.len(), 2);
        assert!(report.simulated_communication_seconds > 0.0);
        let predictions = report.predictions().unwrap();
        assert!(predictions.iter().all(|&p| p < test.num_classes()));
        // Sanity: the distributed path should not be wildly worse than chance.
        let labels: Vec<usize> = test.labels()[..n].to_vec();
        let _acc = stats::accuracy(&predictions, &labels);
    }

    #[test]
    fn empty_sample_list_is_rejected() {
        let deployment = EdVitPipeline::new(EdVitConfig::tiny_demo(2)).run().unwrap();
        assert!(run_distributed(deployment, &[], &RunOptions::default()).is_err());
    }

    #[test]
    fn tcp_transport_produces_identical_logits() {
        let deployment = EdVitPipeline::new(EdVitConfig::tiny_demo(2)).run().unwrap();
        let test = deployment.test_set.clone();
        let n = test.len().min(4);
        let samples: Vec<Tensor> = (0..n).map(|i| test.images().row(i).unwrap()).collect();
        let sim = run_distributed(deployment.clone(), &samples, &RunOptions::default()).unwrap();
        let tcp = run_distributed(
            deployment,
            &samples,
            &RunOptions {
                net: NetOptions::default().with_transport(TransportKind::Tcp),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(sim.outputs.len(), tcp.outputs.len());
        for (a, b) in sim.outputs.iter().zip(&tcp.outputs) {
            assert_eq!(
                a.data(),
                b.data(),
                "sim and tcp logits must be bitwise equal"
            );
        }
        assert_eq!(sim.frames, tcp.frames);
        assert_eq!(sim.payload_bytes, tcp.payload_bytes);
        assert_eq!(sim.per_device_wire_bytes, tcp.per_device_wire_bytes);
    }
}
