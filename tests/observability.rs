//! Cross-crate observability integration: every execution surface of the
//! facade — one-shot batches on both transports, the streaming scheduler and
//! the serving front door — journals into the same `MetricsSink`, the
//! journal's text form replays bitwise against the live reports, and the
//! Prometheus exposition is a projection of the same events.

use edvit::distributed::{run_distributed, RunOptions};
use edvit::edge::{NetOptions, TransportKind};
use edvit::metrics::{MetricsSink, RunJournal};
use edvit::partition::DeviceSpec;
use edvit::pipeline::{EdVitConfig, EdVitDeployment, EdVitPipeline};
use edvit::sched::StreamConfig;
use edvit::serve::run_server;
use edvit::serving::{ArrivalSpec, ServeConfig, TenantSpec};
use edvit::streaming::run_streaming;
use edvit::tensor::Tensor;

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

/// Round-trips a sink's journal through its text codec.
fn reparse(sink: &MetricsSink) -> RunJournal {
    let live = sink.journal();
    let parsed = RunJournal::from_text(&live.to_text()).unwrap();
    assert_eq!(parsed.len(), live.len(), "text round-trip lost events");
    parsed
}

#[test]
fn default_run_options_keep_observability_off() {
    let options = RunOptions::default();
    assert_eq!(options.sink, MetricsSink::disabled());
    assert!(!options.sink.is_enabled());
}

#[test]
fn streamed_deployment_journal_replays_bitwise_through_a_failover() {
    let (deployment, samples, devices) = deployment_and_samples(2, 8);
    let sink = MetricsSink::recording();
    let config = StreamConfig {
        round_size: 2,
        ..StreamConfig::default()
    }
    .with_failure(1, 1)
    .with_sink(sink.clone());
    let report = run_streaming(deployment, &samples, devices, config).unwrap();
    assert_eq!(report.devices_lost, vec![1]);

    // Satellite invariant: the wire books balance device by device.
    assert_eq!(
        report.bytes_on_wire,
        report.per_device_wire_bytes.values().sum::<u64>(),
        "bytes_on_wire must equal the per-device wire-byte sum"
    );

    let live = report.counters();
    let replayed = reparse(&sink).replay_stream().unwrap();
    assert!(
        replayed.bitwise_eq(&live),
        "stream replay diverged on {:?}",
        replayed.diff(&live)
    );
}

#[test]
fn served_deployment_journal_replays_both_event_spaces_bitwise() {
    let (deployment, samples, devices) = deployment_and_samples(2, 6);
    let sink = MetricsSink::recording();
    let tenants = vec![
        TenantSpec::new("cam-north", 2),
        TenantSpec::new("cam-south", 64),
    ];
    // Arrivals faster than the virtual service rate, so overflow shedding,
    // queue-depth peaks and partial rounds all appear in the journal.
    let config = ServeConfig::new(tenants, ArrivalSpec::new(50.0, 24, 3)).with_sink(sink.clone());
    let report = run_server(deployment, &samples, devices, config).unwrap();
    assert!(report.shed > 0, "overload must shed");
    assert!(report.no_lost_requests());

    // Depth-transition consistency: anchored, contiguous, ends at final.
    if let Some(first) = report.depth_changes.first() {
        assert_eq!(first.from, report.initial_depth);
    }
    for pair in report.depth_changes.windows(2) {
        assert_eq!(pair[1].from, pair[0].to, "depth chain must be contiguous");
    }
    assert_eq!(
        report
            .depth_changes
            .last()
            .map_or(report.initial_depth, |step| step.to),
        report.final_depth
    );

    // One journal, two event spaces: the drill's own serve events and the
    // embedded streaming scheduler's, each replaying bitwise.
    let journal = reparse(&sink);
    let serve_live = report.counters();
    let serve_replayed = journal.replay_serve().unwrap();
    assert!(
        serve_replayed.bitwise_eq(&serve_live),
        "serve replay diverged on {:?}",
        serve_replayed.diff(&serve_live)
    );
    let stream = report.stream.as_ref().expect("drill ran a stream");
    let stream_live = stream.counters();
    let stream_replayed = journal.replay_stream().unwrap();
    assert!(
        stream_replayed.bitwise_eq(&stream_live),
        "embedded stream replay diverged on {:?}",
        stream_replayed.diff(&stream_live)
    );

    // The registry exposition is a projection of the same journal.
    let exposition = sink.expose();
    assert!(exposition.contains("# TYPE edvit_requests_total counter\n"));
    assert!(exposition.contains("outcome=\"shed_overflow\""));
    assert!(exposition.contains("# TYPE edvit_round_latency_seconds histogram\n"));
}

#[test]
fn sim_and_tcp_batches_emit_the_same_event_stream() {
    let deployment = EdVitPipeline::new(EdVitConfig::tiny_demo(2)).run().unwrap();
    let test = deployment.test_set.clone();
    let n = test.len().min(4);
    let samples: Vec<Tensor> = (0..n).map(|i| test.images().row(i).unwrap()).collect();

    let sim_sink = MetricsSink::recording();
    let sim = run_distributed(
        deployment.clone(),
        &samples,
        &RunOptions {
            sink: sim_sink.clone(),
            ..RunOptions::default()
        },
    )
    .unwrap();
    let tcp_sink = MetricsSink::recording();
    let tcp = run_distributed(
        deployment,
        &samples,
        &RunOptions {
            net: NetOptions::default().with_transport(TransportKind::Tcp),
            sink: tcp_sink.clone(),
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(sim.per_device_wire_bytes, tcp.per_device_wire_bytes);

    // One executor journals the round whichever backend carried it, so the
    // event streams are identical.
    assert_eq!(
        sim_sink.journal().to_text(),
        tcp_sink.journal().to_text(),
        "sim and tcp transports journaled different event streams"
    );
    let exposition = sim_sink.expose();
    assert!(exposition.contains("edvit_batches_total 1\n"));
    assert!(exposition.contains(&format!("edvit_batch_samples_total {n}\n")));
}
