//! The device side of the stream-round protocol: what one device says on
//! its lane, whoever runs it — a device thread of an in-process epoch, or a
//! worker process that dialed a coordinator.
//!
//! The program is: a `Join` control frame; then per round one wire-v2
//! [`FeatureBatchMessage`](edvit_edge::FeatureBatchMessage) frame per
//! hosted sub-model, in sub-model order, followed by a `Heartbeat` carrying
//! the count of rounds completed; then a `Leave`. That positional order is
//! what lets the collector name every frame by `(round, slot)`.

use std::sync::atomic::{AtomicU64, Ordering};

use edvit_edge::{encode_device_round, ControlMessage, PayloadCodec, SubModelFn};
use edvit_net::FrameTx;
use edvit_tensor::Tensor;

use crate::RoundLayout;

/// One device's part in a stream: which rounds it computes, under which
/// layout and codec, and what it announces about itself.
#[derive(Debug, Clone, Copy)]
pub struct DeviceProgram<'a> {
    device_id: usize,
    capacity_flops: f64,
    codec: PayloadCodec,
    layout: &'a RoundLayout,
    rounds: &'a [u64],
    /// Scripted crash: the first global round the device will not process.
    dies_at: Option<u64>,
    /// Where an in-process epoch watches how far its producers have run.
    produced_max: Option<&'a AtomicU64>,
}

impl<'a> DeviceProgram<'a> {
    /// The program of device `device_id`, offering `capacity_flops` in its
    /// join and heartbeats, computing the global rounds `rounds` of `layout`
    /// in order and encoding its batch frames with `codec`.
    pub fn new(
        device_id: usize,
        capacity_flops: f64,
        codec: PayloadCodec,
        layout: &'a RoundLayout,
        rounds: &'a [u64],
    ) -> Self {
        DeviceProgram {
            device_id,
            capacity_flops,
            codec,
            layout,
            rounds,
            dies_at: None,
            produced_max: None,
        }
    }

    /// Adds what only an in-process epoch scripts or watches.
    pub(crate) fn scripted(mut self, dies_at: Option<u64>, produced_max: &'a AtomicU64) -> Self {
        self.dies_at = dies_at;
        self.produced_max = Some(produced_max);
        self
    }

    /// Runs the program over `tx` and returns the rounds completed (the
    /// last heartbeat sequence sent). `execs` are the hosted sub-models as
    /// `(sub-model index, executor)` in index order; `inputs` is the whole
    /// stream the layout covers.
    ///
    /// Nothing here returns an error: an executor failure (or an `inputs`
    /// that does not match the layout) travels in-band as a peer error and
    /// aborts the stream at the collector; a closed lane means the collector
    /// bailed, and the device stops quietly. A scripted death returns
    /// silently — no leave frame, no further beacons — so the fusion side
    /// observes exactly what a crashed device looks like: a lane that goes
    /// quiet and then closes.
    pub fn run(
        &self,
        mut execs: Vec<(usize, &mut SubModelFn)>,
        inputs: &[Tensor],
        tx: &dyn FrameTx,
    ) -> u64 {
        let device_id = self.device_id;
        if inputs.len() != self.layout.total_samples() {
            let _ = tx.send_error(format!(
                "device {device_id}: {} inputs for a layout of {} samples",
                inputs.len(),
                self.layout.total_samples()
            ));
            return 0;
        }
        if tx
            .send(ControlMessage::join(device_id, self.capacity_flops).encode())
            .is_err()
        {
            return 0;
        }
        let mut completed = 0u64;
        for &round in self.rounds {
            if self.dies_at.is_some_and(|at| round >= at) {
                return completed; // scripted crash: silence, not a leave
            }
            let span = self.layout.span(round);
            for (sub_index, executor) in &mut execs {
                let samples = span.clone().map(|sample| (sample, &inputs[sample]));
                match encode_device_round(*sub_index, executor, samples, self.codec) {
                    Ok(Some(frame)) => {
                        if tx.send(frame).is_err() {
                            return completed;
                        }
                    }
                    Ok(None) => {}
                    Err(message) => {
                        let _ = tx.send_error(format!("device {device_id}: {message}"));
                        return completed;
                    }
                }
            }
            completed += 1;
            if let Some(produced_max) = self.produced_max {
                produced_max.fetch_max(completed, Ordering::Relaxed);
            }
            let beat = ControlMessage::heartbeat(device_id, completed, self.capacity_flops);
            if tx.send(beat.encode()).is_err() {
                return completed;
            }
        }
        let _ = tx.send(ControlMessage::leave(device_id, completed).encode());
        completed
    }
}
