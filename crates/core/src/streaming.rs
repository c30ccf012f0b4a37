//! Bridging a trained [`crate::pipeline::EdVitDeployment`] onto the streaming
//! fault-tolerant scheduler of `edvit-sched`: long-running inference with
//! pipelined rounds, heartbeat health tracking and live repartitioning,
//! instead of the one-shot batch of [`crate::distributed`].

use edvit_partition::DeviceSpec;
use edvit_sched::{StreamConfig, StreamReport, StreamScheduler};
use edvit_tensor::Tensor;

use crate::distributed::into_executors;
use crate::pipeline::EdVitDeployment;
use crate::Result;

/// Runs a stream of image samples through the deployment on the streaming
/// scheduler. The deployment is consumed (sub-models move onto their device
/// threads); its split plan and the `devices` it was planned for drive the
/// scheduler's assignment, virtual timing and — if a scripted failure in
/// `config` kills a device — the mid-stream repartition.
///
/// # Errors
///
/// Returns an error when the inputs are empty, the configuration is
/// inconsistent, or the stream loses every device.
pub fn run_streaming(
    deployment: EdVitDeployment,
    samples: &[Tensor],
    devices: Vec<DeviceSpec>,
    config: StreamConfig,
) -> Result<StreamReport> {
    let plan = deployment.plan.clone();
    let (executors, fusion) = into_executors(deployment);
    let scheduler = StreamScheduler::new(plan, devices, config)?;
    Ok(scheduler.run(samples, executors, fusion)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{EdVitConfig, EdVitPipeline};
    use edvit_sched::ScheduleMode;

    fn deployment_and_samples(
        devices: usize,
        samples: usize,
    ) -> (EdVitDeployment, Vec<Tensor>, Vec<DeviceSpec>) {
        let config = EdVitConfig::tiny_demo(devices);
        let device_specs = config.devices.clone();
        let deployment = EdVitPipeline::new(config).run().unwrap();
        let test = deployment.test_set.clone();
        let n = test.len().min(samples);
        let inputs: Vec<Tensor> = (0..n).map(|i| test.images().row(i).unwrap()).collect();
        (deployment, inputs, device_specs)
    }

    #[test]
    fn streaming_deployment_fuses_every_sample_once() {
        let (deployment, samples, devices) = deployment_and_samples(2, 8);
        let config = StreamConfig {
            round_size: 2,
            ..StreamConfig::default()
        };
        let report = run_streaming(deployment, &samples, devices, config).unwrap();
        assert_eq!(report.outputs.len(), samples.len());
        assert_eq!(report.mode, ScheduleMode::Pipelined);
        assert_eq!(report.rounds, samples.len().div_ceil(2));
        assert!(report.heartbeats_seen > 0);
        assert!(report.steady_state_samples_per_second > 0.0);
        assert!(report.simulated_total_seconds > 0.0);
        assert!(report.devices_lost.is_empty());
        let predictions = report.predictions().unwrap();
        assert_eq!(predictions.len(), samples.len());
    }

    #[test]
    fn streaming_survives_a_scripted_death() {
        let (deployment, samples, devices) = deployment_and_samples(2, 8);
        let config = StreamConfig {
            round_size: 2,
            ..StreamConfig::default()
        }
        .with_failure(1, 1);
        let report = run_streaming(deployment, &samples, devices, config).unwrap();
        assert_eq!(report.outputs.len(), samples.len());
        assert_eq!(report.devices_lost, vec![1]);
        assert_eq!(report.repartitions, 1);
        assert!(report.recovery_seconds > 0.0);
    }

    #[test]
    fn empty_sample_list_is_rejected() {
        let (deployment, _, devices) = deployment_and_samples(2, 4);
        assert!(run_streaming(deployment, &[], devices, StreamConfig::default()).is_err());
    }
}
