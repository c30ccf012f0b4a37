//! A dependency-free registry of counters, gauges and fixed-bucket
//! histograms with deterministic Prometheus-style text exposition.
//!
//! Determinism is the contract: families are exposed in lexicographic name
//! order, series within a family in lexicographic label order, histogram
//! buckets in ascending bound order with a trailing `+Inf`. Two registries
//! fed the same updates in the same order expose byte-identical text, which
//! is what the golden exposition test pins.
//!
//! All timestamps around this registry are *virtual* (the scheduler's
//! `SimClock`); the registry itself never reads a clock of any kind.

use std::collections::BTreeMap;

/// Default latency buckets in virtual seconds: two per decade from 1 ms to
/// 10 s, the range edge-cluster rounds actually land in.
pub const LATENCY_BUCKETS: [f64; 9] = [0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0];

/// What kind of metric a family is, for the `# TYPE` exposition line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing total.
    Counter,
    /// Last-write-wins instantaneous value.
    Gauge,
    /// Fixed-bucket cumulative histogram.
    Histogram,
}

impl MetricKind {
    fn exposition_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One fixed-bucket histogram series.
#[derive(Debug, Clone, PartialEq)]
struct Histogram {
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts; exposition sums them
    /// into the cumulative `le` form.
    counts: Vec<u64>,
    /// Observations above the last bound (the `+Inf` bucket).
    overflow: u64,
    sum: f64,
    count: u64,
}

impl Histogram {
    fn new(bounds: Vec<f64>) -> Self {
        let n = bounds.len();
        Histogram {
            bounds,
            counts: vec![0; n],
            overflow: 0,
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        match self.bounds.iter().position(|&b| value <= b) {
            Some(i) => self.counts[i] += 1,
            None => self.overflow += 1,
        }
        self.sum += value;
        self.count += 1;
    }
}

/// A series key: sorted `(label, value)` pairs.
type Labels = Vec<(String, String)>;

#[derive(Debug, Clone, Default, PartialEq)]
struct Family {
    kind: Option<MetricKind>,
    help: Option<String>,
    counters: BTreeMap<Labels, f64>,
    gauges: BTreeMap<Labels, f64>,
    histograms: BTreeMap<Labels, Histogram>,
}

/// The registry: a name-keyed map of metric families.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    families: BTreeMap<String, Family>,
    /// Histogram bounds per family, installed by [`MetricsRegistry::describe`]
    /// (falling back to [`LATENCY_BUCKETS`]).
    bounds: BTreeMap<String, Vec<f64>>,
}

fn sorted_labels(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

/// Escapes a label value for exposition: backslash, double quote and
/// newline, per the Prometheus text format.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Escapes a help string: backslash and newline only (quotes are legal).
fn escape_help(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn render_series(name: &str, labels: &Labels, suffix: &str, extra: Option<(&str, &str)>) -> String {
    let mut rendered: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        rendered.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if rendered.is_empty() {
        format!("{name}{suffix}")
    } else {
        format!("{name}{suffix}{{{}}}", rendered.join(","))
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers family metadata: kind, help text and (for histograms) the
    /// bucket bounds. Idempotent; later calls overwrite the metadata.
    pub fn describe(&mut self, name: &str, kind: MetricKind, help: &str, buckets: Option<&[f64]>) {
        let family = self.families.entry(name.to_string()).or_default();
        family.kind = Some(kind);
        family.help = Some(help.to_string());
        if let Some(bounds) = buckets {
            self.bounds.insert(name.to_string(), bounds.to_vec());
        }
    }

    /// Adds `by` to a counter series, creating it at zero first.
    pub fn add(&mut self, name: &str, labels: &[(&str, &str)], by: f64) {
        let family = self.families.entry(name.to_string()).or_default();
        family.kind.get_or_insert(MetricKind::Counter);
        *family.counters.entry(sorted_labels(labels)).or_insert(0.0) += by;
    }

    /// Sets a gauge series to `value`.
    pub fn set(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let family = self.families.entry(name.to_string()).or_default();
        family.kind.get_or_insert(MetricKind::Gauge);
        family.gauges.insert(sorted_labels(labels), value);
    }

    /// Raises a gauge series to `value` if it is above the current reading —
    /// the high-water-mark idiom queue depths use.
    pub fn set_max(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let family = self.families.entry(name.to_string()).or_default();
        family.kind.get_or_insert(MetricKind::Gauge);
        let slot = family.gauges.entry(sorted_labels(labels)).or_insert(value);
        if value > *slot {
            *slot = value;
        }
    }

    /// Observes `value` into a histogram series, using the family's described
    /// buckets or [`LATENCY_BUCKETS`] when none were described.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let bounds = self
            .bounds
            .get(name)
            .cloned()
            .unwrap_or_else(|| LATENCY_BUCKETS.to_vec());
        let family = self.families.entry(name.to_string()).or_default();
        family.kind.get_or_insert(MetricKind::Histogram);
        family
            .histograms
            .entry(sorted_labels(labels))
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Renders the registry as Prometheus text exposition format, version
    /// 0.0.4: `# HELP` / `# TYPE` headers then one line per series, families
    /// and series both in deterministic sorted order.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            if let Some(help) = &family.help {
                out.push_str(&format!("# HELP {name} {}\n", escape_help(help)));
            }
            if let Some(kind) = family.kind {
                out.push_str(&format!("# TYPE {name} {}\n", kind.exposition_name()));
            }
            for (labels, value) in &family.counters {
                out.push_str(&format!(
                    "{} {value}\n",
                    render_series(name, labels, "", None)
                ));
            }
            for (labels, value) in &family.gauges {
                out.push_str(&format!(
                    "{} {value}\n",
                    render_series(name, labels, "", None)
                ));
            }
            for (labels, histogram) in &family.histograms {
                let mut cumulative = 0u64;
                for (bound, count) in histogram.bounds.iter().zip(&histogram.counts) {
                    cumulative += count;
                    let le = format!("{bound}");
                    out.push_str(&format!(
                        "{} {cumulative}\n",
                        render_series(name, labels, "_bucket", Some(("le", &le)))
                    ));
                }
                cumulative += histogram.overflow;
                out.push_str(&format!(
                    "{} {cumulative}\n",
                    render_series(name, labels, "_bucket", Some(("le", "+Inf")))
                ));
                out.push_str(&format!(
                    "{} {}\n",
                    render_series(name, labels, "_sum", None),
                    histogram.sum
                ));
                out.push_str(&format!(
                    "{} {}\n",
                    render_series(name, labels, "_count", None),
                    histogram.count
                ));
            }
        }
        out
    }

    /// Current value of a counter series (0 when absent).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.families
            .get(name)
            .and_then(|f| f.counters.get(&sorted_labels(labels)))
            .copied()
            .unwrap_or(0.0)
    }

    /// `(count, sum)` of a histogram series ((0, 0.0) when absent).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> (u64, f64) {
        self.families
            .get(name)
            .and_then(|f| f.histograms.get(&sorted_labels(labels)))
            .map_or((0, 0.0), |h| (h.count, h.sum))
    }

    /// True when nothing has been recorded or described.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_series_are_label_keyed() {
        let mut r = MetricsRegistry::new();
        r.add("frames_total", &[("device", "0")], 1.0);
        r.add("frames_total", &[("device", "0")], 2.0);
        r.add("frames_total", &[("device", "1")], 5.0);
        assert_eq!(r.counter("frames_total", &[("device", "0")]), 3.0);
        assert_eq!(r.counter("frames_total", &[("device", "1")]), 5.0);
        assert_eq!(r.counter("frames_total", &[("device", "9")]), 0.0);
        assert!(!r.is_empty());
    }

    #[test]
    fn gauges_last_write_and_high_water_variants() {
        let mut r = MetricsRegistry::new();
        r.set("depth", &[], 2.0);
        r.set("depth", &[], 1.0);
        r.set_max("peak", &[], 3.0);
        r.set_max("peak", &[], 2.0);
        assert_eq!(
            r.expose(),
            "# TYPE depth gauge\ndepth 1\n# TYPE peak gauge\npeak 3\n"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_exposition() {
        let mut r = MetricsRegistry::new();
        r.describe("lat", MetricKind::Histogram, "latency", Some(&[0.1, 1.0]));
        r.observe("lat", &[], 0.05);
        r.observe("lat", &[], 0.5);
        r.observe("lat", &[], 5.0);
        let text = r.expose();
        assert!(text.contains("lat_bucket{le=\"0.1\"} 1\n"));
        assert!(text.contains("lat_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_count 3\n"));
        assert_eq!(r.histogram("lat", &[]), (3, 5.55));
        assert_eq!(r.histogram("absent", &[]), (0, 0.0));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut r = MetricsRegistry::new();
        r.add("odd", &[("name", "a\"b\\c\nd")], 1.0);
        let text = r.expose();
        assert!(text.contains("odd{name=\"a\\\"b\\\\c\\nd\"} 1\n"));
    }

    #[test]
    fn exposition_order_is_deterministic() {
        let mut a = MetricsRegistry::new();
        a.add("zz", &[], 1.0);
        a.add("aa", &[("t", "1")], 1.0);
        a.add("aa", &[("t", "0")], 1.0);
        let mut b = MetricsRegistry::new();
        b.add("aa", &[("t", "0")], 1.0);
        b.add("zz", &[], 1.0);
        b.add("aa", &[("t", "1")], 1.0);
        assert_eq!(a.expose(), b.expose());
        let text = a.expose();
        let aa = text.find("aa{t=\"0\"}").unwrap();
        let aa1 = text.find("aa{t=\"1\"}").unwrap();
        let zz = text.find("zz ").unwrap();
        assert!(aa < aa1 && aa1 < zz);
    }
}
