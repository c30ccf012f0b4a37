//! Span recording for the traced rep. The benchmark times layers from
//! outside: every executor and the fusion function enter the system through
//! its `SubModelFn` / `FusionFn` closure seam, so wrapping those closures
//! gives one span per call without touching the program under test.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use edvit::edge::SubModelFn;
use edvit::tensor::Tensor;

use crate::json::Json;

/// Device id recorded on fusion spans (fusion runs on the caller's thread).
pub const FUSION: i64 = -1;

/// One call into a wrapped closure.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `"executor"` or `"fusion"`.
    pub name: &'static str,
    /// Sub-model index for executors, [`FUSION`] for the fusion function.
    pub device: i64,
    /// Round the call's sample belongs to.
    pub round: u32,
    /// Microseconds since the recorder was created.
    pub start_us: f64,
    /// Microseconds since the recorder was created.
    pub end_us: f64,
    /// The rep this span belongs to (its parent span's id).
    pub parent: u32,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Hands out wrapped closures and collects their spans afterwards. Each
/// wrapper appends to a buffer of its own, so recording never contends.
pub struct Recorder {
    epoch: Instant,
    parent: u32,
    /// `round_of[k]` is the round of the `k`-th call a closure receives:
    /// every device, and the fusion function, sees samples in stream order.
    round_of: Arc<Vec<u32>>,
    buffers: Vec<Arc<Mutex<Vec<Span>>>>,
}

impl Recorder {
    pub fn new(parent: u32, round_of: Vec<u32>) -> Self {
        Recorder {
            epoch: Instant::now(),
            parent,
            round_of: Arc::new(round_of),
            buffers: Vec::new(),
        }
    }

    /// Wraps an executor or fusion closure (the two aliases are one type).
    pub fn wrap(&mut self, name: &'static str, device: i64, mut inner: SubModelFn) -> SubModelFn {
        let buffer = Arc::new(Mutex::new(Vec::new()));
        self.buffers.push(Arc::clone(&buffer));
        let epoch = self.epoch;
        let parent = self.parent;
        let round_of = Arc::clone(&self.round_of);
        let mut calls = 0usize;
        Box::new(move |input: &Tensor| {
            let start = epoch.elapsed();
            let output = inner(input);
            let end = epoch.elapsed();
            let round = round_of
                .get(calls)
                .or(round_of.last())
                .copied()
                .unwrap_or(0);
            calls += 1;
            buffer
                .lock()
                .map_err(|_| "span buffer poisoned".to_string())?
                .push(Span {
                    name,
                    device,
                    round,
                    start_us: start.as_secs_f64() * 1e6,
                    end_us: end.as_secs_f64() * 1e6,
                    parent,
                });
            output
        })
    }

    /// Microseconds since the recorder was created.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// All spans recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut all: Vec<Span> = self
            .buffers
            .iter()
            .flat_map(|buffer| match buffer.lock() {
                Ok(guard) => guard.clone(),
                Err(poisoned) => poisoned.into_inner().clone(),
            })
            .collect();
        all.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        all
    }
}

/// What the traced rep's spans add up to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Busy {
    /// Executor time of the device that spent the most, µs.
    pub busiest_device_us: f64,
    /// Fusion time, µs.
    pub fusion_us: f64,
}

/// Sums span durations per device and for fusion.
pub fn busy(spans: &[Span]) -> Busy {
    let mut per_device: std::collections::BTreeMap<i64, f64> = std::collections::BTreeMap::new();
    for span in spans {
        *per_device.entry(span.device).or_insert(0.0) += span.duration_us();
    }
    let fusion_us = per_device.remove(&FUSION).unwrap_or(0.0);
    let busiest_device_us = per_device.values().copied().fold(0.0, f64::max);
    Busy {
        busiest_device_us,
        fusion_us,
    }
}

/// The trace dump: the rep's own span followed by its children.
pub fn dump(rep_id: u32, rep_start_us: f64, rep_end_us: f64, spans: &[Span]) -> Json {
    let mut out = vec![Json::obj([
        ("id", Json::Num(f64::from(rep_id))),
        ("name", Json::str("rep")),
        ("start_us", Json::Num(rep_start_us)),
        ("end_us", Json::Num(rep_end_us)),
        ("parent", Json::Null),
    ])];
    out.extend(spans.iter().map(|s| {
        Json::obj([
            ("name", Json::str(s.name)),
            ("device", Json::Num(s.device as f64)),
            ("round", Json::Num(f64::from(s.round))),
            ("start_us", Json::Num(s.start_us)),
            ("end_us", Json::Num(s.end_us)),
            ("parent", Json::Num(f64::from(s.parent))),
        ])
    }));
    Json::Arr(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity() -> SubModelFn {
        Box::new(|t: &Tensor| Ok(t.clone()))
    }

    #[test]
    fn wrapped_closures_record_one_span_per_call_with_rounds() {
        let mut recorder = Recorder::new(7, vec![0, 0, 1]);
        let mut exec = recorder.wrap("executor", 0, identity());
        let mut fusion = recorder.wrap("fusion", FUSION, identity());
        let x = Tensor::zeros(&[2]);
        for _ in 0..3 {
            assert_eq!(exec(&x).unwrap().data(), x.data());
        }
        fusion(&x).unwrap();
        let spans = recorder.spans();
        assert_eq!(spans.len(), 4);
        let rounds: Vec<u32> = spans
            .iter()
            .filter(|s| s.name == "executor")
            .map(|s| s.round)
            .collect();
        assert_eq!(rounds, vec![0, 0, 1]);
        assert!(spans
            .iter()
            .all(|s| s.parent == 7 && s.end_us >= s.start_us));
        assert!(spans.windows(2).all(|w| w[0].start_us <= w[1].start_us));
    }

    #[test]
    fn wrapped_closures_pass_errors_through() {
        let mut recorder = Recorder::new(0, vec![0]);
        let failing: SubModelFn = Box::new(|_: &Tensor| Err("boom".to_string()));
        let mut wrapped = recorder.wrap("executor", 1, failing);
        assert_eq!(wrapped(&Tensor::zeros(&[1])), Err("boom".to_string()));
        assert_eq!(recorder.spans().len(), 1, "a failed call is still a span");
    }

    #[test]
    fn busy_takes_the_busiest_device_and_separates_fusion() {
        let span = |device, start, end| Span {
            name: "x",
            device,
            round: 0,
            start_us: start,
            end_us: end,
            parent: 0,
        };
        let spans = [
            span(0, 0.0, 10.0),
            span(1, 0.0, 4.0),
            span(1, 5.0, 12.0),
            span(FUSION, 12.0, 15.0),
        ];
        let b = busy(&spans);
        assert_eq!(b.busiest_device_us, 11.0);
        assert_eq!(b.fusion_us, 3.0);
    }

    #[test]
    fn dump_is_parseable_json_with_the_rep_as_root() {
        let mut recorder = Recorder::new(1, vec![0]);
        let mut exec = recorder.wrap("executor", 0, identity());
        exec(&Tensor::zeros(&[1])).unwrap();
        let text = dump(1, 0.0, recorder.now_us(), &recorder.spans()).render();
        let parsed = Json::parse(&text).unwrap();
        let Json::Arr(items) = parsed else {
            panic!("dump is an array")
        };
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("parent"), Some(&Json::Null));
        assert_eq!(items[1].get("parent").and_then(Json::as_f64), Some(1.0));
    }
}
