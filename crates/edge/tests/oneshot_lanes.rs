//! The one-shot collector against a hostile lane: a fake [`Transport`] whose
//! lanes deliver scripted events stands in for whoever dialed the fusion
//! side's loopback socket, and every frame that does not belong on the lane
//! it arrived on must surface as a typed error — never a panic, a silent
//! drop or a last-write-wins overwrite.

use bytes::Bytes;
use edvit_edge::wire::batch_frame_len;
use edvit_edge::{
    ClusterRuntime, ControlMessage, EdgeError, FeatureBatchMessage, FrameRx, FrameTx, FusionFn,
    LaneEvent, NetworkConfig, Result, SimTransport, SubModelFn, Transport, TransportKind,
};
use edvit_tensor::Tensor;

fn constant_executor(value: f32, dim: usize) -> SubModelFn {
    Box::new(move |_input: &Tensor| Ok(Tensor::full(&[dim], value)))
}

/// A transport whose every lane delivers a scripted sequence of events
/// (then closes), whatever the device behind it sent: how a frame forged
/// by someone who dialed the fusion side's socket looks to the collector.
struct ScriptedLanes(Vec<LaneEvent>);

struct ScriptedRx(std::vec::IntoIter<LaneEvent>);

impl FrameRx for ScriptedRx {
    fn recv(&mut self) -> LaneEvent {
        self.0.next().unwrap_or(LaneEvent::Closed)
    }
}

impl Transport for ScriptedLanes {
    fn open_lane(
        &mut self,
        peer: usize,
        capacity: usize,
    ) -> Result<(Box<dyn FrameTx>, Box<dyn FrameRx>)> {
        // The device's own lane is cut (its send fails quietly).
        let (tx, _cut) = SimTransport::new().open_lane(peer, capacity)?;
        Ok((tx, Box::new(ScriptedRx(self.0.clone().into_iter()))))
    }

    fn set_round_deadline(&mut self, _grace_rounds: u64, _round_interval_seconds: f64) {}

    fn kind(&self) -> TransportKind {
        TransportKind::Sim
    }
}

fn batch_bytes(sub_model: usize, samples: &[usize]) -> Bytes {
    let mut batch = FeatureBatchMessage::new(sub_model, 2);
    for &sample in samples {
        batch.push_feature(sample, &[1.0, 2.0]).unwrap();
    }
    batch.encode()
}

fn batch_frame(sub_model: usize, samples: &[usize]) -> LaneEvent {
    LaneEvent::Frame(batch_bytes(sub_model, samples))
}

#[test]
fn collector_checks_every_frame_against_the_lane_it_arrived_on() {
    let run = |script: Vec<LaneEvent>| {
        let inputs = vec![Tensor::zeros(&[1]), Tensor::zeros(&[1])];
        let fusion: FusionFn = Box::new(|concat: &Tensor| Ok(concat.clone()));
        ClusterRuntime::new(NetworkConfig::paper_default()).run_over(
            &mut ScriptedLanes(script),
            &inputs,
            vec![constant_executor(1.0, 2)],
            fusion,
        )
    };
    // The honest frame of device 0 over two inputs passes.
    let report = run(vec![batch_frame(0, &[0, 1])]).unwrap();
    assert_eq!(report.outputs.len(), 2);
    assert_eq!(
        report.per_device_wire_bytes,
        vec![batch_frame_len(2, 2) as u64]
    );
    // Samples may arrive in any pack order; fusion still walks input order.
    assert!(run(vec![batch_frame(0, &[1, 0])]).is_ok());

    let control = LaneEvent::Frame(ControlMessage::leave(0, 1).encode());
    let forged: Vec<(&str, Vec<LaneEvent>, &str)> = vec![
        (
            "another sub-model's batch",
            vec![batch_frame(1, &[0, 1])],
            "sub-model 1",
        ),
        (
            "sample out of range",
            vec![batch_frame(0, &[0, 2])],
            "outside the round's samples 0..2",
        ),
        (
            "repeated sample",
            vec![batch_frame(0, &[0, 0])],
            "appears twice",
        ),
        (
            "missing sample",
            vec![batch_frame(0, &[1])],
            "1 of 2 samples",
        ),
        ("control frame", vec![control], "control frame"),
        (
            "trailing frame",
            vec![batch_frame(0, &[0, 1]), batch_frame(0, &[0, 1])],
            "second frame",
        ),
    ];
    for (what, script, needle) in forged {
        let err = run(script).unwrap_err();
        assert!(matches!(err, EdgeError::Protocol { .. }), "{what}: {err}");
        let text = err.to_string();
        assert!(
            text.contains("device 0 lane") && text.contains(needle),
            "{what}: {text}"
        );
    }
    // Bytes that are no frame at all stay a decode error, and so does an
    // intact frame of the retired single-feature kind (byte 6, outside the
    // CRC); an empty lane is a runtime failure. None panics.
    let garbage = LaneEvent::Frame(Bytes::from_static(&[1, 2, 3]));
    assert!(matches!(run(vec![garbage]), Err(EdgeError::Decode { .. })));
    let mut retired = batch_bytes(0, &[0, 1]).as_slice().to_vec();
    retired[6] = 1;
    let retired = LaneEvent::Frame(Bytes::from(retired));
    assert!(matches!(run(vec![retired]), Err(EdgeError::Decode { .. })));
    assert!(matches!(run(vec![]), Err(EdgeError::Runtime { .. })));
}
