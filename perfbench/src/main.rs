//! The repo benchmark: five inference workloads, six end-to-end metrics,
//! per-layer probes and a traced run. See `README.md` beside `Cargo.toml`
//! for the tables (workload -> why, layer metric -> end-to-end metric) and
//! `BENCHMARK.json` at the repo root for the contract the driver checks.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]   one run, result on the last line
//! benchmark --all [--seed N] [--seconds S] [--smoke] [--check]      every workload, each in a child process
//! ```

mod alloc;
mod json;
mod machine;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::error::Error;
use std::process::Command;
use std::time::{Duration, Instant};

use edvit::metrics::MetricsSink;

use json::Json;
use probes::{metric, value_of, Metric};
use stats::{median, percentile};
use trace::Recorder;
use workloads::{count_failures, BenchResult, Hooks, Kind, Outcome, Workload, DEVICES};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Whether a larger or a smaller value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Better {
    Higher,
    Lower,
}

/// The end-to-end metrics: `(name, unit, better, bound)`, the same rows as
/// `BENCHMARK.json` (a unit test holds the two together). `bound` is the
/// share of the earlier value by which a later one may be worse.
const END_TO_END: [(&str, &str, Better, f64); 6] = [
    ("samples_per_s", "1/s", Better::Higher, 0.24),
    ("latency_ms_p50", "ms", Better::Lower, 0.24),
    ("wire_bytes_per_sample", "B", Better::Lower, 0.05),
    ("ok_share", "ratio", Better::Higher, 0.0),
    ("peak_rss_mib", "MiB", Better::Lower, 0.15),
    ("setup_s", "s", Better::Lower, 0.25),
];

/// `setup_s` is the median over a run's set-ups: at least this many, and as
/// many more as fit into `SETUP_SHARE` of the run.
const MIN_SETUPS: usize = 3;
const SETUP_SHARE: f64 = 0.15;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Kind>,
    all: bool,
    check: bool,
    smoke: bool,
    trace: bool,
    /// Test-only: flip one bit of the reference so the oracle must object.
    corrupt_reference: bool,
    seed: u64,
    seconds: f64,
}

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        check: false,
        smoke: false,
        trace: false,
        corrupt_reference: false,
        seed: 0,
        seconds: 20.0,
    };
    let mut raw = raw.peekable();
    while let Some(flag) = raw.next() {
        let mut value = |name: &str| raw.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--all" => args.all = true,
            "--check" => args.check = true,
            "--smoke" => args.smoke = true,
            "--corrupt-reference" => args.corrupt_reference = true,
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(Kind::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.all == args.workload.is_some() {
        return Err("give exactly one of --workload NAME and --all".to_string());
    }
    if args.check && !args.all {
        return Err("--check goes with --all".to_string());
    }
    Ok(args)
}

impl Args {
    /// Seconds one run measures for: `--smoke` shrinks them like the reps.
    fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * if self.smoke { 0.05 } else { 1.0 })
    }
}

/// What one run prints on its last line.
#[derive(Debug, Clone, PartialEq)]
struct RunResult {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name.as_str(),
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(m.unit.as_str())),
                        ]),
                    )
                })),
            ),
        ])
    }

    fn value(&self, name: &str) -> Option<f64> {
        value_of(&self.metrics, name)
    }
}

/// Checks every output of every run against the reference.
struct Oracle<'a> {
    reference: Vec<edvit::tensor::Tensor>,
    expect: &'a [usize],
    attempted: usize,
    failed: usize,
}

impl<'a> Oracle<'a> {
    fn new(workload: &'a Workload, corrupt: bool) -> BenchResult<Oracle<'a>> {
        let mut reference = workload.reference()?;
        if corrupt {
            if let Some(first) = reference.first_mut().and_then(|t| t.data_mut().first_mut()) {
                *first = f32::from_bits(first.to_bits() ^ 1);
            }
        }
        Ok(Oracle {
            reference,
            expect: workload.expect(),
            attempted: 0,
            failed: 0,
        })
    }

    fn check_rep(&mut self, outcome: &Outcome) {
        self.attempted += self.expect.len();
        self.failed += count_failures(&outcome.outputs, self.expect, &self.reference);
    }

    fn check_request(&mut self, outcome: &Outcome, expect: &[usize]) {
        self.attempted += expect.len();
        self.failed += count_failures(&outcome.outputs, expect, &self.reference);
    }
}

/// Single-round requests, nothing else in flight, until `budget` is spent
/// or `max` are done, and at least `min`; returns each request's wall
/// milliseconds.
fn latency_phase(
    workload: &Workload,
    oracle: &mut Oracle,
    budget: Duration,
    (min, max): (usize, usize),
) -> BenchResult<Vec<f64>> {
    let started = Instant::now();
    let mut wall_ms = Vec::new();
    while wall_ms.len() < min || (started.elapsed() < budget && wall_ms.len() < max) {
        let (outcome, expect) = workload.request()?;
        oracle.check_request(&outcome, expect);
        wall_ms.push(outcome.wall_s * 1e3);
    }
    Ok(wall_ms)
}

/// One set-up: build the workload from the seed and run one warm-up rep.
/// Returns its wall seconds too.
fn set_up(kind: Kind, args: &Args) -> BenchResult<(Workload, Outcome, f64)> {
    let started = Instant::now();
    let workload = Workload::build(kind, args.seed, args.smoke)?;
    let warm_up = workload.rep(Hooks::default())?;
    Ok((workload, warm_up, started.elapsed().as_secs_f64()))
}

/// `--trace 0`: set-up, timed reps, latency phase; the six end-to-end metrics.
fn run_end_to_end(kind: Kind, args: &Args) -> BenchResult<RunResult> {
    let (workload, warm_up, first_setup_s) = set_up(kind, args)?;
    let mut setup_s = vec![first_setup_s];
    let mut oracle = Oracle::new(&workload, args.corrupt_reference)?;
    oracle.check_rep(&warm_up);
    drop(warm_up);

    // Timed reps and single-round requests take turns until the budget is
    // spent (at least 0.7 of it in reps), so both medians sample the whole
    // run and a slow stretch of the machine weighs on them alike. At most 16
    // requests follow a rep: each opens its own lanes, and on TCP tens of
    // thousands of closed sockets would linger into the next run.
    // `oneshot_latency` times every call of its reps: its latency is their
    // per-call median and it needs no requests of its own. Further set-ups
    // (each builds a workload of its own, runs its warm-up rep and drops it)
    // are spread over the run the same way, for up to `SETUP_SHARE` of it.
    let budget = args.budget();
    let min_reps = if args.smoke { 2 } else { 5 };
    let started = Instant::now();
    let mut rates = Vec::new();
    let mut latency_ms = Vec::new();
    let mut wire_bytes_per_sample = 0.0;
    while rates.len() < min_reps || started.elapsed() < budget {
        let outcome = workload.rep(Hooks::default())?;
        oracle.check_rep(&outcome);
        let samples = outcome.outputs.len() as f64;
        rates.push(samples / outcome.wall_s);
        wire_bytes_per_sample = outcome.bytes_on_wire as f64 / samples;
        latency_ms.extend(outcome.call_ms);
        if kind != Kind::OneshotLatency {
            let slice = Duration::from_secs_f64(0.4 * outcome.wall_s);
            latency_ms.extend(latency_phase(&workload, &mut oracle, slice, (2, 16))?);
        }
        if setup_s.len() < MIN_SETUPS
            || setup_s.iter().sum::<f64>() < SETUP_SHARE * started.elapsed().as_secs_f64()
        {
            let (_, warm_up, seconds) = set_up(kind, args)?;
            oracle.check_rep(&warm_up);
            setup_s.push(seconds);
        }
    }
    eprintln!(
        "{}: {} reps, {} set-ups, {} latency requests, p99 {:.3} ms (not gated)",
        kind.name(),
        rates.len(),
        setup_s.len(),
        latency_ms.len(),
        percentile(&latency_ms, 0.99)
    );

    let values = [
        median(&rates),
        median(&latency_ms),
        wire_bytes_per_sample,
        1.0 - oracle.failed as f64 / oracle.attempted.max(1) as f64,
        machine::peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?,
        median(&setup_s),
    ];
    Ok(RunResult {
        attempted: oracle.attempted,
        failed: oracle.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _, _), value)| metric(name, value, unit))
            .collect(),
    })
}

/// `--trace 1`: one untraced and one traced rep, a journaled rep, a short
/// latency phase and the direct-call probes; the per-layer metrics.
fn run_traced(kind: Kind, args: &Args) -> BenchResult<RunResult> {
    let workload = Workload::build(kind, args.seed, args.smoke)?;
    let mut oracle = Oracle::new(&workload, args.corrupt_reference)?;
    oracle.check_rep(&workload.rep(Hooks::default())?);

    let untraced = workload.rep(Hooks::default())?;
    oracle.check_rep(&untraced);

    const REP_ID: u32 = 1;
    let mut recorder = Recorder::new(REP_ID, workload.round_table()?);
    let rep_start_us = recorder.now_us();
    alloc::start();
    let traced = workload.rep(Hooks {
        recorder: Some(&mut recorder),
        sink: None,
    });
    let (allocations, allocated_bytes) = alloc::stop();
    let traced = traced?;
    let rep_end_us = recorder.now_us();
    oracle.check_rep(&traced);
    let spans = recorder.spans();
    let busy = trace::busy(&spans);

    let sink = MetricsSink::recording();
    let journaled = workload.rep(Hooks {
        recorder: None,
        sink: Some(sink.clone()),
    })?;
    oracle.check_rep(&journaled);

    let latency_ms = latency_phase(
        &workload,
        &mut oracle,
        args.budget().mul_f64(0.15),
        (20, 500),
    )?;
    let latency_p50_us = median(&latency_ms) * 1e3;

    let probed = probes::run(
        &workload,
        &sink.journal(),
        journaled.rounds,
        args.seed,
        args.smoke,
    )?;

    // The one-round critical path, from the probe medians: open the lanes,
    // then per sample the executor, the push and the fusion, and once per
    // frame the encode, the hop and the decode. Device threads run side by
    // side, so one device's chain is on the path.
    let request_samples = match kind {
        Kind::ServeFusionSim | Kind::OneshotLatency => 1.0,
        _ => kind.round_size() as f64,
    };
    let frame_share = request_samples / kind.round_size() as f64;
    let p = |name: &str| value_of(&probed, name).unwrap_or(0.0);
    let mut path_us = request_samples
        * (p("edge.executor_us") + p("edge.push_us") + p("fusion.predict_us"))
        + frame_share * (p("edge.encode_us") + p("edge.decode_us"));
    if kind != Kind::OneshotLatency {
        // The one-shot runtime hands frames over on its own channel: no
        // `Transport` lane is opened or crossed.
        path_us += DEVICES as f64 * p("net.open_lane_us") + frame_share * p("net.frame_us");
    }
    if kind == Kind::ServeFusionSim {
        path_us += p("serve.generate_us_per_request") + p("serve.drill_us_per_request");
    }

    let wall_us = traced.wall_s * 1e6;
    let rounds = traced.rounds.max(1) as f64;
    let samples = traced.outputs.len().max(1) as f64;
    let mut metrics = probed;
    metrics.extend([
        metric("fusion.busy_share", busy.fusion_us / wall_us, "ratio"),
        metric(
            "sched.self_us_per_round",
            (wall_us - busy.busiest_device_us.max(busy.fusion_us)) / rounds,
            "us",
        ),
        metric(
            "sched.device_busy_share",
            busy.busiest_device_us / wall_us,
            "ratio",
        ),
        metric(
            "sched.frames_per_round",
            traced.frames as f64 / rounds,
            "count",
        ),
        metric(
            "sched.max_rounds_in_flight",
            traced.max_rounds_in_flight as f64,
            "count",
        ),
        metric("sched.latency_ms_p99", percentile(&latency_ms, 0.99), "ms"),
        metric("sched.attributed_share", path_us / latency_p50_us, "ratio"),
        metric(
            "alloc.count_per_sample",
            allocations as f64 / samples,
            "count",
        ),
        metric(
            "alloc.bytes_per_sample",
            allocated_bytes as f64 / samples,
            "B",
        ),
        metric(
            "trace_overhead_share",
            (traced.wall_s - untraced.wall_s) / untraced.wall_s,
            "ratio",
        ),
    ]);
    metrics.sort_by(|a, b| a.name.cmp(&b.name));

    let dump_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dump_dir)?;
    let dump_path = dump_dir.join(format!("trace_{}.json", kind.name()));
    std::fs::write(
        &dump_path,
        trace::dump(REP_ID, rep_start_us, rep_end_us, &spans).render(),
    )?;
    eprintln!(
        "{}: {} spans dumped to {}",
        kind.name(),
        spans.len(),
        dump_path.display()
    );

    Ok(RunResult {
        attempted: oracle.attempted,
        failed: oracle.failed,
        metrics,
    })
}

// ---- `--all`: every workload, each run in a child of its own ---------------

/// Re-executes this binary for one run, so pool size, allocator state and
/// `VmHWM` are the run's own, and parses the child's last line.
fn run_child(kind: Kind, args: &Args, trace: bool) -> BenchResult<RunResult> {
    let mut command = Command::new(std::env::current_exe()?);
    command
        .args(["--workload", kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    if args.corrupt_reference {
        command.arg("--corrupt-reference");
    }
    // `output` waits for the child; its diagnostics pass straight through.
    let output = command.stderr(std::process::Stdio::inherit()).output()?;
    let stdout = String::from_utf8(output.stdout)?;
    let line = stdout.lines().last().ok_or("child printed no result")?;
    let result = parse_result(&Json::parse(line)?)?;
    if !output.status.success() && result.failed == 0 {
        return Err(format!("{} child failed: {}", kind.name(), output.status).into());
    }
    Ok(result)
}

fn parse_result(doc: &Json) -> BenchResult<RunResult> {
    let whole = |key: &str| -> BenchResult<usize> {
        Ok(doc
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("result line has no {key}"))? as usize)
    };
    let metrics = doc
        .get("metrics")
        .ok_or("result line has no metrics")?
        .entries()
        .iter()
        .map(|(name, entry)| {
            let value = entry.get("value").and_then(Json::as_f64);
            let unit = match entry.get("unit") {
                Some(Json::Str(unit)) => Some(unit),
                _ => None,
            };
            match (value, unit) {
                (Some(value), Some(unit)) => Ok(metric(name, value, unit)),
                _ => Err(format!("metric {name} has no value or unit")),
            }
        })
        .collect::<Result<Vec<Metric>, String>>()?;
    Ok(RunResult {
        attempted: whole("attempted")?,
        failed: whole("failed")?,
        metrics,
    })
}

/// One pass over every workload: end-to-end and traced results per workload.
fn run_set(args: &Args) -> BenchResult<Vec<(Kind, RunResult, RunResult)>> {
    Kind::ALL
        .into_iter()
        .map(|kind| {
            Ok((
                kind,
                run_child(kind, args, false)?,
                run_child(kind, args, true)?,
            ))
        })
        .collect()
}

fn print_table(set: &[(Kind, RunResult, RunResult)]) {
    println!("\nend-to-end metrics (medians; bound = share a later run may be worse by)");
    print!("{:<44}", "metric [unit] (bound)");
    for (kind, _, _) in set {
        print!(" {:>19}", kind.name());
    }
    println!();
    for (name, unit, _, bound) in END_TO_END {
        print!("{:<44}", format!("{name} [{unit}] ({bound})"));
        for (_, end_to_end, _) in set {
            print!(" {:>19.4}", end_to_end.value(name).unwrap_or(f64::NAN));
        }
        println!();
    }
    println!("\nper-layer metrics (traced run and direct-call probes)");
    print!("{:<44}", "metric [unit]");
    for (kind, _, _) in set {
        print!(" {:>19}", kind.name());
    }
    println!();
    let names: Vec<&Metric> = set
        .first()
        .map_or(Vec::new(), |(_, _, t)| t.metrics.iter().collect());
    for first in names {
        print!("{:<44}", format!("{} [{}]", first.name, first.unit));
        for (_, _, traced) in set {
            print!(" {:>19.4}", traced.value(&first.name).unwrap_or(f64::NAN));
        }
        println!();
    }
}

/// How much worse `later` is than `earlier`, as a share of `earlier`.
fn worsening(better: Better, earlier: f64, later: f64) -> f64 {
    let worse_by = match better {
        Better::Higher => earlier - later,
        Better::Lower => later - earlier,
    };
    worse_by / earlier.abs()
}

/// `--check`: metrics of two sets of runs that differ, in either direction,
/// by more than their bound.
fn disagreements(
    first: &[(Kind, RunResult, RunResult)],
    second: &[(Kind, RunResult, RunResult)],
) -> Vec<String> {
    let mut out = Vec::new();
    for ((kind, a, _), (_, b, _)) in first.iter().zip(second) {
        for (name, _, better, bound) in END_TO_END {
            let (Some(x), Some(y)) = (a.value(name), b.value(name)) else {
                out.push(format!("{}: {name} missing", kind.name()));
                continue;
            };
            let apart = worsening(better, x, y).max(worsening(better, y, x));
            if apart > bound {
                out.push(format!(
                    "{}: {name} {x} vs {y} differ by {apart:.4} > bound {bound}",
                    kind.name()
                ));
            }
        }
    }
    out
}

fn run_all(args: &Args) -> BenchResult<()> {
    let fingerprint = machine::fingerprint();
    println!("machine: {}", fingerprint.render());
    let first = run_set(args)?;
    print_table(&first);
    let mut problems: Vec<String> = first
        .iter()
        .flat_map(|(kind, end_to_end, traced)| {
            [end_to_end, traced]
                .into_iter()
                .filter(|r| r.failed > 0)
                .map(|r| {
                    format!(
                        "{}: {} of {} samples failed",
                        kind.name(),
                        r.failed,
                        r.attempted
                    )
                })
        })
        .collect();
    if args.check {
        let second = run_set(args)?;
        print_table(&second);
        problems.extend(disagreements(&first, &second));
    }
    let summary = Json::obj([
        ("machine", fingerprint),
        ("seed", Json::Num(args.seed as f64)),
        (
            "workloads",
            Json::obj(first.iter().map(|(kind, end_to_end, traced)| {
                (
                    kind.name(),
                    Json::obj([
                        ("end_to_end", end_to_end.to_json()),
                        ("per_layer", traced.to_json()),
                    ]),
                )
            })),
        ),
        (
            "problems",
            Json::Arr(problems.iter().map(Json::str).collect()),
        ),
    ]);
    println!("\n{}", summary.render());
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; ").into())
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    let args = parse_args(std::env::args().skip(1))?;
    let Some(kind) = args.workload else {
        return run_all(&args);
    };
    eprintln!("machine: {}", machine::fingerprint().render());
    let result = if args.trace {
        run_traced(kind, &args)?
    } else {
        run_end_to_end(kind, &args)?
    };
    println!("{}", result.to_json().render());
    if result.failed > 0 {
        return Err(format!(
            "{}: {} of {} samples were missing or not bitwise equal to the reference",
            kind.name(),
            result.failed,
            result.attempted
        )
        .into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(ToString::to_string))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "wire_f32_tcp",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Kind::WireF32Tcp));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args(&["--all", "--check", "--smoke"]).unwrap().check);
    }

    #[test]
    fn bad_command_lines_are_errors() {
        for bad in [
            &[][..],
            &["--workload", "nope"],
            &["--workload", "oneshot_latency", "--all"],
            &["--workload", "oneshot_latency", "--check"],
            &["--all", "--seconds", "0"],
            &["--all", "--seconds", "nan"],
            &["--all", "--trace", "2"],
            &["--all", "--seed"],
            &["--all", "--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_parses_and_names_are_well_formed() {
        let result = RunResult {
            attempted: 1000,
            failed: 0,
            metrics: vec![
                metric("samples_per_s", 38.123_456_789, "1/s"),
                metric("tensor.matmul_us", 412.5, "us"),
            ],
        };
        let line = result.to_json().render();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parse_result(&doc).unwrap(), result);
        for (name, _) in doc.get("metrics").unwrap().entries() {
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let failing = RunResult {
            failed: 3,
            ..result
        };
        assert_eq!(failing.to_json().get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(Json::Arr(rows)) = doc.get("end_to_end") else {
            panic!("end_to_end is a list")
        };
        assert_eq!(rows.len(), END_TO_END.len());
        for (row, (name, unit, better, bound)) in rows.iter().zip(END_TO_END) {
            assert_eq!(row.get("name"), Some(&Json::str(name)));
            assert_eq!(row.get("unit"), Some(&Json::str(unit)));
            let word = match better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            assert_eq!(row.get("better"), Some(&Json::str(word)));
            assert_eq!(row.get("bound").and_then(Json::as_f64), Some(bound));
        }
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads is a list")
        };
        let names: Vec<&Json> = workloads.iter().filter_map(|w| w.get("name")).collect();
        let ours: Vec<Json> = Kind::ALL.iter().map(|k| Json::str(k.name())).collect();
        assert_eq!(names, ours.iter().collect::<Vec<_>>());
    }

    #[test]
    fn check_flags_only_differences_beyond_the_bound() {
        let set = |rate: f64, ok: f64| {
            let row = RunResult {
                attempted: 1,
                failed: 0,
                metrics: END_TO_END
                    .iter()
                    .map(|&(name, unit, _, _)| {
                        let value = match name {
                            "samples_per_s" => rate,
                            "ok_share" => ok,
                            _ => 1.0,
                        };
                        metric(name, value, unit)
                    })
                    .collect(),
            };
            vec![(Kind::WireF32Tcp, row.clone(), row)]
        };
        assert!(disagreements(&set(100.0, 1.0), &set(90.0, 1.0)).is_empty());
        assert_eq!(disagreements(&set(100.0, 1.0), &set(70.0, 1.0)).len(), 1);
        assert_eq!(
            disagreements(&set(70.0, 1.0), &set(100.0, 1.0)).len(),
            1,
            "either direction"
        );
        // An exact metric (bound 0) must be identical.
        assert_eq!(disagreements(&set(100.0, 1.0), &set(100.0, 0.999)).len(), 1);
        assert_eq!(worsening(Better::Lower, 10.0, 12.0), 0.2);
        assert_eq!(worsening(Better::Higher, 10.0, 12.0), -0.2);
    }

    #[test]
    fn a_corrupted_reference_fails_the_oracle() {
        let workload = Workload::build(Kind::WireF32Tcp, 2, true).unwrap();
        let rep = workload.rep(Hooks::default()).unwrap();
        let mut honest = Oracle::new(&workload, false).unwrap();
        honest.check_rep(&rep);
        assert_eq!(honest.failed, 0);
        let mut corrupted = Oracle::new(&workload, true).unwrap();
        corrupted.check_rep(&rep);
        assert!(corrupted.failed > 0 && corrupted.failed < corrupted.attempted);
    }
}
