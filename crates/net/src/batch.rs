//! One-shot batch inference over loopback TCP: [`ClusterRuntime::run_over`]
//! handed a [`TcpTransport`].

use edvit_edge::{
    ClusterRuntime, FusionFn, NetOptions, NetworkConfig, PayloadCodec, RuntimeReport, SubModelFn,
};
use edvit_tensor::Tensor;

use crate::TcpTransport;

/// Runs one batch of samples through the sub-model executors with every frame
/// carried over a loopback TCP socket — the one one-shot executor,
/// [`ClusterRuntime::run_over`], on freshly bound [`TcpTransport`] lanes. The
/// report equals the in-process run's in every content-derived field: the
/// socket carries the exact encoded frames the channel would, and nothing
/// else.
///
/// # Errors
///
/// As [`ClusterRuntime::run_over`]; a socket failure is an
/// [`edvit_edge::EdgeError::Runtime`].
pub fn run_batch_over_tcp(
    inputs: &[Tensor],
    executors: Vec<SubModelFn>,
    fusion: FusionFn,
    codec: PayloadCodec,
    network: &NetworkConfig,
) -> edvit_edge::Result<RuntimeReport> {
    ClusterRuntime::new(*network)
        .with_options(&NetOptions::default().with_codec(codec))
        .run_over(&mut TcpTransport::bind()?, inputs, executors, fusion)
}

/// The one-shot suite, run over both backends from one table: every case
/// goes through [`ClusterRuntime::run_over`] on sim lanes and on TCP lanes,
/// and everything the two runs derive from frame content must be equal.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport_for;
    use edvit_edge::wire::batch_frame_len;
    use edvit_edge::{EdgeError, TransportKind};
    use edvit_metrics::MetricsSink;
    use std::sync::{mpsc, Arc, Mutex};
    use std::time::Duration;

    type Closures = (Vec<SubModelFn>, FusionFn);

    fn constant_executor(value: f32, dim: usize) -> SubModelFn {
        Box::new(move |_input: &Tensor| Ok(Tensor::full(&[dim], value)))
    }

    fn identity_fusion() -> FusionFn {
        Box::new(|concat: &Tensor| Ok(concat.clone()))
    }

    /// 0.5 / -2.0 / 1.25 are exactly representable in f16.
    fn demo() -> Closures {
        let executors = vec![
            constant_executor(0.5, 4),
            constant_executor(-2.0, 3),
            constant_executor(1.25, 5),
        ];
        (executors, identity_fusion())
    }

    fn zeros(samples: usize) -> Vec<Tensor> {
        (0..samples).map(|_| Tensor::zeros(&[1])).collect()
    }

    /// Runs one case over sim and TCP lanes, asserts the two backends agree
    /// on every content-derived report field (or on the error) and on the
    /// journal text, and hands back the TCP result.
    fn on_both_backends(
        codec: PayloadCodec,
        inputs: &[Tensor],
        closures: impl Fn() -> Closures,
    ) -> edvit_edge::Result<RuntimeReport> {
        let [(sim, sim_journal), (tcp, tcp_journal)] = [TransportKind::Sim, TransportKind::Tcp]
            .map(|kind| {
                let (executors, fusion) = closures();
                let sink = MetricsSink::recording();
                let result = ClusterRuntime::new(NetworkConfig::paper_default())
                    .with_options(&NetOptions::default().with_codec(codec))
                    .with_sink(sink.clone())
                    .run_over(
                        transport_for(kind).unwrap().as_mut(),
                        inputs,
                        executors,
                        fusion,
                    );
                (result, sink.journal().to_text())
            });
        match (&sim, &tcp) {
            (Ok(sim), Ok(tcp)) => {
                assert_eq!(sim.outputs.len(), tcp.outputs.len());
                for (a, b) in sim.outputs.iter().zip(&tcp.outputs) {
                    assert_eq!(a.data(), b.data(), "fused outputs must be bitwise equal");
                }
                assert_eq!(sim.frames, tcp.frames);
                assert_eq!(sim.codec, tcp.codec);
                assert_eq!(sim.payload_bytes, tcp.payload_bytes);
                assert_eq!(sim.bytes_on_wire, tcp.bytes_on_wire);
                assert_eq!(sim.per_device_wire_bytes, tcp.per_device_wire_bytes);
                assert_eq!(
                    sim.simulated_communication_seconds,
                    tcp.simulated_communication_seconds
                );
            }
            (Err(sim), Err(tcp)) => assert_eq!(sim, tcp),
            (sim, tcp) => panic!("backends disagree: sim {sim:?}, tcp {tcp:?}"),
        }
        assert_eq!(sim_journal, tcp_journal, "journal text must be identical");
        tcp
    }

    #[test]
    fn tcp_batch_matches_the_sim_run_bit_for_bit() {
        let inputs: Vec<Tensor> = (0..6).map(|i| Tensor::full(&[2], i as f32)).collect();
        let report = on_both_backends(PayloadCodec::F32, &inputs, demo).unwrap();
        // Features are fused in sub-model order.
        assert_eq!(
            report.outputs[0].data(),
            &[0.5, 0.5, 0.5, 0.5, -2.0, -2.0, -2.0, 1.25, 1.25, 1.25, 1.25, 1.25]
        );
        // One batch frame per device and nothing else on either wire.
        let frames = [4, 3, 5].map(|dim| batch_frame_len(6, dim) as u64);
        assert_eq!(report.frames, 3);
        assert_eq!(report.per_device_wire_bytes, frames);
        assert_eq!(report.bytes_on_wire, frames.iter().sum::<u64>());
        assert_eq!(report.payload_bytes, 6 * (4 + 3 + 5) * 4);
    }

    #[test]
    fn codec_choice_survives_the_socket() {
        let inputs = zeros(4);
        let base = on_both_backends(PayloadCodec::F32, &inputs, demo).unwrap();
        let coded = on_both_backends(PayloadCodec::F16, &inputs, demo).unwrap();
        let rle = on_both_backends(PayloadCodec::F16Rle, &inputs, demo).unwrap();
        assert_eq!(coded.codec, PayloadCodec::F16);
        assert_eq!(rle.codec, PayloadCodec::F16Rle);
        // Two bytes saved per value; constant features collapse under rle.
        let values = 4 * (4 + 3 + 5) as u64;
        assert_eq!(base.bytes_on_wire - coded.bytes_on_wire, values * 2);
        assert!(rle.bytes_on_wire < coded.bytes_on_wire);
        assert_eq!(coded.payload_bytes, base.payload_bytes);
        for other in [&coded, &rle] {
            for (a, b) in base.outputs.iter().zip(&other.outputs) {
                assert_eq!(a.data(), b.data());
            }
        }
    }

    #[test]
    fn many_devices_many_samples_on_both_backends() {
        let inputs: Vec<Tensor> = (0..8).map(|i| Tensor::full(&[4], i as f32)).collect();
        let report = on_both_backends(PayloadCodec::F32, &inputs, || {
            let executors = (0..10).map(|i| constant_executor(i as f32, 8)).collect();
            let fusion: FusionFn =
                Box::new(|concat: &Tensor| Ok(Tensor::from_vec(vec![concat.sum()], &[1]).unwrap()));
            (executors, fusion)
        })
        .unwrap();
        assert_eq!(report.frames, 10);
        assert_eq!(report.payload_bytes, 10 * 8 * 8 * 4);
        // Sum of constants 0..10 each repeated 8 times = 8 * 45 = 360.
        assert!(report.outputs.iter().all(|o| o.data() == [360.0]));
    }

    #[test]
    fn executor_failures_cross_the_socket_in_band() {
        let err = on_both_backends(PayloadCodec::F32, &zeros(1), || {
            let failing: SubModelFn = Box::new(|_| Err("device out of memory".to_string()));
            (vec![constant_executor(1.0, 2), failing], identity_fusion())
        })
        .unwrap_err();
        assert!(matches!(err, EdgeError::Runtime { .. }));
        assert!(
            err.to_string().contains("device 1: device out of memory"),
            "{err}"
        );
    }

    #[test]
    fn ragged_feature_dims_are_rejected_on_both_backends() {
        let err = on_both_backends(PayloadCodec::F32, &zeros(2), || {
            let mut calls = 0usize;
            let ragged: SubModelFn = Box::new(move |_| {
                calls += 1;
                Ok(Tensor::zeros(&[calls]))
            });
            (vec![ragged], identity_fusion())
        })
        .unwrap_err();
        assert!(matches!(err, EdgeError::Runtime { .. }));
        assert!(err.to_string().contains("feature values"), "{err}");
    }

    #[test]
    fn fusion_failures_propagate_on_both_backends() {
        let err = on_both_backends(PayloadCodec::F32, &zeros(1), || {
            let fusion: FusionFn = Box::new(|_| Err("fusion MLP not trained".to_string()));
            (vec![constant_executor(1.0, 2)], fusion)
        })
        .unwrap_err();
        assert!(matches!(err, EdgeError::Runtime { .. }));
        assert!(err.to_string().contains("fusion MLP"), "{err}");
    }

    #[test]
    fn empty_inputs_and_executors_error() {
        let no_inputs = on_both_backends(PayloadCodec::F32, &[], demo).unwrap_err();
        assert!(matches!(no_inputs, EdgeError::InvalidConfig { .. }));
        let no_executors =
            on_both_backends(PayloadCodec::F32, &zeros(1), || (vec![], identity_fusion()))
                .unwrap_err();
        assert!(matches!(no_executors, EdgeError::InvalidConfig { .. }));
    }

    #[test]
    fn a_frame_larger_than_a_socket_buffer_completes_over_tcp() {
        // 2 048 samples × 1 024 f32 from one device ≈ 8 MiB in one frame: far
        // more than a loopback socket buffers. The device's send blocks on
        // the socket until the collector, reading before it joins, has
        // drained the frame.
        let (samples, dim) = (2_048, 1_024);
        let report = run_batch_over_tcp(
            &zeros(samples),
            vec![constant_executor(0.25, dim)],
            Box::new(|concat: &Tensor| Ok(Tensor::from_vec(vec![concat.sum()], &[1]).unwrap())),
            PayloadCodec::F32,
            &NetworkConfig::paper_default(),
        )
        .unwrap();
        assert_eq!(report.bytes_on_wire, batch_frame_len(samples, dim) as u64);
        assert!(report.bytes_on_wire > 8 << 20);
        assert!(report.outputs.iter().all(|o| o.data() == [256.0]));
    }

    #[test]
    fn no_executor_runs_on_the_calling_thread_over_tcp() {
        // Device 1, the last, ships one ~8 MiB frame, more than a loopback
        // socket buffers: on the thread that reads the lanes its send could
        // never complete, and the watchdog fails the test.
        let (caller, threads) = within_watchdog(|| {
            let threads = Arc::new(Mutex::new(vec![None; 2]));
            let executors = [4, 1_024]
                .into_iter()
                .enumerate()
                .map(|(device, dim)| -> SubModelFn {
                    let threads = Arc::clone(&threads);
                    Box::new(move |_: &Tensor| {
                        threads.lock().unwrap()[device] = Some(std::thread::current().id());
                        Ok(Tensor::full(&[dim], 0.25))
                    })
                })
                .collect();
            let report = run_batch_over_tcp(
                &zeros(2_048),
                executors,
                identity_fusion(),
                PayloadCodec::F32,
                &NetworkConfig::paper_default(),
            )
            .unwrap();
            assert!(report.bytes_on_wire > 8 << 20);
            let threads: Vec<_> = threads.lock().unwrap().iter().flatten().copied().collect();
            (std::thread::current().id(), threads)
        });
        assert_eq!(threads.len(), 2);
        assert!(
            threads.iter().all(|&thread| thread != caller),
            "{threads:?}"
        );
    }

    /// Runs `test` on a thread of its own and fails if it is still running
    /// after 60 s.
    fn within_watchdog<T: Send + 'static>(test: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(test());
        });
        finished
            .recv_timeout(Duration::from_secs(60))
            .expect("still running after 60 s: deadlock")
    }
}
