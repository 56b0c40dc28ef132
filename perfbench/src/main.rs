//! perfbench — one benchmark command for the collab-workflows engine.
//!
//! ```text
//! perfbench --workload <admit-durable|live-explain|explain-batch>
//!           --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! Every workload is a closed loop with one client on one process: the next
//! operation starts when the previous one returns. Inputs are generated from
//! `--seed` during set-up; the engine only ever sees the generated events and
//! runs. Every answer is checked, and the last line of standard output is the
//! JSON result (`correct`, `attempted`, `failed`, `metrics`).
//!
//! With `--trace 0` the result carries the end-to-end metrics. With
//! `--trace 1` the run alternates untraced and traced passes: the traced ones
//! record spans around every call the benchmark makes into a layer, plus
//! isolated probe calls on the same inputs, and the result carries the
//! per-layer metrics. The spans are written once, at exit, to
//! `<work-dir>/trace-<workload>-seed<n>.tsv`. See `perfbench/README.md`.

mod admit;
mod batch;
mod live;
mod probes;
mod report;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{print_metric, result_line, Blocks, Metric, Samples};

/// The end-to-end metrics of the result line (untraced runs). The p99
/// latencies are printed but left out: on a shared host they follow its
/// contention more than the p50 does (on `admit-durable`, a ten-run spread
/// up to 0.09 above the p50's, and over 0.25 in two sets of runs).
const END_TO_END: &[&str] = &["setup_s", "ops_per_s", "op_p50_us", "peak_rss_mb"];

/// The per-layer metrics every workload reports (traced runs). A layer the
/// workload's path does not call reads 0 and is marked as bypassed.
const PER_LAYER: &[(&str, &str)] = &[
    ("eval.candidates_us", "us"),
    ("eval.candidates_per_call", "count"),
    ("transition.apply_us", "us"),
    ("view_plane.delta_us", "us"),
    ("run.push_us", "us"),
    ("run.push_growth", "ratio"),
    ("run.replay_us", "us"),
    ("prov.step_us", "us"),
    ("prov.explain_us", "us"),
    ("prov.support_events", "count"),
    ("codec.encode_us", "us"),
    ("wal.append_us", "us"),
    ("wal.sync_us", "us"),
    ("wal.syncs_per_event", "count"),
    ("wal.records_per_event", "count"),
    ("shard.submit_us", "us"),
    ("shard.self_us", "us"),
    ("shard.cross_shard_frac", "frac"),
    ("delivery.converge_us", "us"),
    ("delivery.deltas_per_event", "count"),
    ("delivery.retries", "count"),
    ("core.index_ms", "ms"),
    ("core.tp_closure_ms", "ms"),
    ("core.cone_ms", "ms"),
    ("core.cone_frac", "frac"),
    ("core.search_nodes", "count"),
    ("core.ns_per_node", "ns"),
    ("core.cutoffs", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Set-up runs at least [`SETUP_MIN_REPS`] times and then until
/// [`SETUP_BUDGET_S`] seconds are spent, at most [`SETUP_MAX_REPS`] times;
/// `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 1_001;
const SETUP_BUDGET_S: f64 = 1.5;

/// A seed kept out of every tuning run, for confirming later claims.
pub const HELD_OUT_SEED: u64 = 7_331;

/// What every workload gets from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Ctx {
    /// Has the measured window of `seconds` elapsed since `start`?
    pub fn done(&self, start: Instant) -> bool {
        start.elapsed().as_secs_f64() >= self.seconds
    }

    /// Is pass `n` of a run traced? Trace runs alternate untraced and
    /// traced passes, so both see the same machine conditions.
    pub fn traced_pass(&self, n: usize) -> bool {
        self.trace && n % 2 == 1
    }
}

/// Runs `build` repeatedly (see [`SETUP_MIN_REPS`]) and returns the median
/// wall time, as a metric, with the last result.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (Metric, T) {
    let mut times = Samples::default();
    let mut out = None;
    while times.len() < SETUP_MIN_REPS
        || (times.len() < SETUP_MAX_REPS && times.sum() < SETUP_BUDGET_S)
    {
        drop(out.take());
        let t0 = Instant::now();
        out = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    let metric = Metric::new("setup_s", times.median(), "s", "per set-up", times.len());
    (metric, out.expect("set-up ran at least once"))
}

/// The latency metrics of one operation kind: `<name>_p50_<unit>` and
/// `<name>_p99_<unit>`, from samples in that unit, each the lower decile
/// over blocks of the block's percentile.
pub fn latency(name: &str, unit: &'static str, s: &Blocks, base: &str) -> [Metric; 2] {
    let base = format!("{base}; lower decile over {} blocks", s.count());
    [
        Metric::new(
            &format!("{name}_p50_{unit}"),
            s.quantile(0.5),
            unit,
            &base,
            s.len(),
        ),
        Metric::new(
            &format!("{name}_p99_{unit}"),
            s.quantile(0.99),
            unit,
            &base,
            s.len(),
        ),
    ]
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let mut report = match args.workload.as_str() {
        "admit-durable" => admit::run(&ctx),
        "live-explain" => live::run(&ctx),
        "explain-batch" => batch::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    report.end_to_end.push(Metric::new(
        "peak_rss_mb",
        peak_rss_mb(),
        "MB",
        "VmHWM of this process",
        1,
    ));
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.end_to_end.push(Metric::new(
        "failed_frac",
        failed_frac,
        "frac",
        "failed over attempted operations",
        report.attempted as usize,
    ));

    println!(
        "perfbench workload={} seed={} seconds={} trace={} (held-out seed {HELD_OUT_SEED})",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (k, v) in &report.facts {
        println!("  {k}: {v}");
    }
    println!("end-to-end:");
    report.end_to_end.iter().for_each(print_metric);
    for (generic, specific) in &report.aliases {
        println!("  (result line: {generic} is {specific})");
    }
    if args.trace {
        for (name, unit) in PER_LAYER {
            if !report.layers.iter().any(|m| m.name == *name) {
                report
                    .layers
                    .push(Metric::new(name, 0.0, unit, "bypassed on this workload", 0));
            }
        }
        println!("per-layer:");
        report.layers.iter().for_each(print_metric);
        let spans = trace::spans();
        println!("spans (traced part only; self = total minus direct child spans):");
        for (name, t) in trace::totals(&spans) {
            println!(
                "  {name:<28} n={:<8} mean {:>12.3} us  self {:>12.3} us",
                t.count,
                t.mean_us(),
                t.self_ns as f64 / t.count as f64 / 1e3
            );
        }
        let path = args
            .work_dir
            .join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(&args.work_dir).and_then(|()| trace::write_tsv(&spans, &path));
        match written {
            Ok(()) => println!("  spans: {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let line = if args.trace {
        let names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        result_line(&report, &report.layers, &names)
    } else {
        result_line(&report, &report.end_to_end, END_TO_END)
    };
    println!("{line}");
    if report.wrong > 0 {
        eprintln!("perfbench: {} wrong answers", report.wrong);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
