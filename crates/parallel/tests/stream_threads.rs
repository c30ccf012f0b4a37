//! Stream epochs run on the warm device threads: sequential runs of a
//! two-device stream reuse the threads their first run started. (A file of
//! its own, so no other test in the process starts device threads while the
//! count is taken.)

use edvit_edge::{FusionFn, SubModelFn};
use edvit_parallel::device_threads_started;
use edvit_partition::{DeviceSpec, PlannerConfig, SplitPlanner};
use edvit_sched::{StreamConfig, StreamScheduler};
use edvit_tensor::Tensor;
use edvit_vit::ViTConfig;

#[test]
fn sequential_two_device_streams_reuse_their_parked_threads() {
    let devices = DeviceSpec::raspberry_pi_cluster(2);
    let plan = SplitPlanner::new(PlannerConfig::default())
        .plan(&ViTConfig::vit_base(10), &devices, 7)
        .unwrap();
    for device in 0..2 {
        assert!(
            !plan.assignment.sub_models_on(device).is_empty(),
            "device {device} idles"
        );
    }
    let scheduler = StreamScheduler::new(plan.clone(), devices, StreamConfig::default()).unwrap();
    let inputs = [Tensor::zeros(&[1])];
    let started_before = device_threads_started();
    for _ in 0..1_000 {
        let executors: Vec<SubModelFn> = (0..plan.sub_models.len())
            .map(|i| -> SubModelFn { Box::new(move |_: &Tensor| Ok(Tensor::full(&[1], i as f32))) })
            .collect();
        let fusion: FusionFn = Box::new(|concat: &Tensor| Ok(concat.clone()));
        let report = scheduler.run(&inputs, executors, fusion).unwrap();
        assert_eq!(report.outputs.len(), 1);
    }
    // Each epoch's two devices run on device threads; the calling thread
    // collects.
    let started = device_threads_started() - started_before;
    assert!(
        (1..=2).contains(&started),
        "1 000 two-device streams started {started} device threads"
    );
}
