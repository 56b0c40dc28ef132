//! Bench regression check: re-runs the plane benchmarks and compares
//! their *normalized* metrics against the checked-in baselines.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p cwf-bench --bin bench_check
//! ```
//!
//! Raw events/s numbers shift with the host, so the check compares
//! hardware-independent ratios only:
//!
//! * `BENCH_view_plane.json` — the incremental-maintenance `speedup`
//!   (rescan cost over plane cost);
//! * `BENCH_shard_plane.json` — `plane_N_shards_events_per_sec` at 2 and
//!   4 shards relative to `plane_1_shards_events_per_sec` (the sharding
//!   overhead over the single-node master server);
//! * `BENCH_dist_admission.json` — the durable plane throughput at 2 and 4
//!   shards relative to the durable shards=1 plane (the
//!   distributed-admission overhead);
//! * `BENCH_reshard_admission.json` — admission throughput with a live
//!   split in flight relative to the idle map (the resharding tax);
//! * `BENCH_par_analysis.json` — the 4-thread min-scenario and boundedness
//!   speedups over the sequential oracle (the pooled-analysis overhead);
//! * `BENCH_provenance.json` — the explain-from-index speedup over a
//!   witness-reconstructing scenario search, and the cone-pruning node
//!   reduction on byte-identical minimum-scenario verdicts;
//! * `BENCH_run_history.json` — the peak resident set of a process that
//!   built the `live-explain` procurement run (E23).
//! * `BENCH_subrun_replay.json` — the speedup of history-resumed subrun
//!   replays (`Run::try_subrun`) over `Run::replay` on the faithful index
//!   sets of the `explain-batch` corpus (E24).
//! * `BENCH_search_node_cost.json` — the minimum-scenario search's time per
//!   node over `ScratchRun::try_push`'s time per event on the same corpus
//!   (E25), a cost.
//! * `BENCH_run_facts.json` — the median (run, peer) pair's explanation
//!   request time with the run's facts cached over the same request on a
//!   fresh clone that rebuilds them (E26), a cost.
//!
//! A fresh ratio more than 25% below its baseline is a regression. Some
//! metrics are deterministic counts instead — the search node counts of
//! `BENCH_provenance.json`, taken on the sequential pool — and those carry a
//! ceiling: any fresh count above its baseline is a regression. A peak
//! memory reading or a cost more than 25% above its baseline is a
//! regression. The check prints every comparison, restores the baseline
//! files (the bench binaries overwrite them in place) on every exit path,
//! and exits non-zero if anything regressed.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Allowed slack: a fresh ratio must be at least `1 − TOLERANCE` of its
/// baseline, a fresh peak at most `1 + TOLERANCE` of its baseline.
const TOLERANCE: f64 = 0.25;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Pulls the number out of a `"key": 12.5,`-style line. The bench files
/// are flat one-level JSON written by our own benches, so a hand-rolled
/// scan is enough (no JSON dependency).
fn metric(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    for line in json.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix(&needle) {
            let value = rest
                .trim_start_matches(':')
                .trim()
                .trim_end_matches(',')
                .trim_matches('"');
            return value.parse().ok();
        }
    }
    None
}

/// How a fresh metric may move against its baseline.
#[derive(Clone, Copy)]
enum Bound {
    /// A normalized ratio (higher is better): at least `1 − TOLERANCE` of
    /// the baseline.
    Floor,
    /// A deterministic count: at most the baseline.
    Ceiling,
    /// A measured peak or cost (lower is better): at most `1 + TOLERANCE`
    /// of the baseline.
    Peak,
}

/// One gated metric of a bench file: the numerator key, an optional
/// denominator key (a ratio with none is the metric itself), and its bound.
struct Gate {
    label: String,
    num: String,
    den: Option<&'static str>,
    bound: Bound,
}

struct Check {
    label: String,
    baseline: f64,
    fresh: f64,
    bound: Bound,
}

impl Check {
    fn regressed(&self) -> bool {
        match self.bound {
            Bound::Floor => self.fresh < self.baseline * (1.0 - TOLERANCE),
            Bound::Ceiling => self.fresh > self.baseline,
            Bound::Peak => self.fresh > self.baseline * (1.0 + TOLERANCE),
        }
    }
}

/// The checked-in baselines, restored in place when dropped: the benches
/// rewrite their JSON files, and every exit path — a failing bench, a spawn
/// error, a panic, or a finished comparison — must leave the tree clean.
struct Baselines(Vec<(PathBuf, String)>);

impl Baselines {
    /// Writes every baseline back (once); false if any write failed.
    fn restore(&mut self) -> bool {
        let mut ok = true;
        for (path, baseline) in std::mem::take(&mut self.0) {
            if let Err(e) = std::fs::write(&path, baseline) {
                eprintln!(
                    "bench_check: cannot restore baseline {}: {e}",
                    path.display()
                );
                ok = false;
            }
        }
        ok
    }
}

impl Drop for Baselines {
    fn drop(&mut self) {
        self.restore();
    }
}

/// The gated metrics of one bench file.
fn gates(experiment: &str) -> Vec<Gate> {
    let gate = |label: &str, num: &str, den: Option<&'static str>, bound| Gate {
        label: label.into(),
        num: num.into(),
        den,
        bound,
    };
    let per_shard = |prefix: &str| -> Vec<Gate> {
        [2, 4]
            .iter()
            .map(|n| {
                gate(
                    &format!("{prefix}plane_{n}_shards / plane_1_shards"),
                    &format!("plane_{n}_shards_events_per_sec"),
                    Some("plane_1_shards_events_per_sec"),
                    Bound::Floor,
                )
            })
            .collect()
    };
    match experiment {
        "BENCH_view_plane.json" => vec![gate("speedup", "speedup", None, Bound::Floor)],
        "BENCH_shard_plane.json" => per_shard(""),
        "BENCH_dist_admission.json" => per_shard("durable "),
        "BENCH_reshard_admission.json" => vec![gate(
            "admission during split / idle",
            "migrating_4_shards_events_per_sec",
            Some("idle_4_shards_events_per_sec"),
            Bound::Floor,
        )],
        "BENCH_provenance.json" => vec![
            gate(
                "explain speedup over scenario search",
                "explain_speedup",
                None,
                Bound::Floor,
            ),
            gate(
                "cone node reduction",
                "cone_node_reduction",
                None,
                Bound::Floor,
            ),
            gate(
                "cone search nodes (ceiling)",
                "cone_nodes",
                None,
                Bound::Ceiling,
            ),
            gate(
                "no-cone search nodes (ceiling)",
                "full_nodes",
                None,
                Bound::Ceiling,
            ),
        ],
        "BENCH_par_analysis.json" => vec![
            gate(
                "min-scenario speedup at 4 threads",
                "min_scenario_speedup_4t",
                None,
                Bound::Floor,
            ),
            gate(
                "boundedness speedup at 4 threads",
                "boundedness_speedup_4t",
                None,
                Bound::Floor,
            ),
        ],
        "BENCH_run_history.json" => vec![gate(
            "peak RSS of the built run (MB)",
            "peak_rss_mb",
            None,
            Bound::Peak,
        )],
        "BENCH_subrun_replay.json" => vec![gate(
            "try_subrun speedup over Run::replay",
            "subrun_speedup",
            None,
            Bound::Floor,
        )],
        "BENCH_search_node_cost.json" => vec![gate(
            "search time per node / try_push per event",
            "node_cost",
            None,
            Bound::Peak,
        )],
        "BENCH_run_facts.json" => vec![gate(
            "request time, warm facts / cold facts",
            "warm_over_cold",
            None,
            Bound::Peak,
        )],
        _ => Vec::new(),
    }
}

fn extract(json: &str, num: &str, den: Option<&str>) -> Option<f64> {
    let n = metric(json, num)?;
    match den {
        Some(d) => {
            let d = metric(json, d)?;
            (d > 0.0).then_some(n / d)
        }
        None => Some(n),
    }
}

fn main() -> ExitCode {
    let root = repo_root();
    let files = [
        ("BENCH_view_plane.json", "view_plane"),
        ("BENCH_shard_plane.json", "shard_plane"),
        ("BENCH_dist_admission.json", "dist_admission"),
        ("BENCH_reshard_admission.json", "reshard_admission"),
        ("BENCH_par_analysis.json", "par_analysis"),
        ("BENCH_provenance.json", "provenance"),
        ("BENCH_run_history.json", "run_history"),
        ("BENCH_subrun_replay.json", "subrun_replay"),
        ("BENCH_search_node_cost.json", "search_node_cost"),
        ("BENCH_run_facts.json", "run_facts"),
    ];
    // Snapshot the checked-in baselines before the benches overwrite them;
    // the guard writes them back however this function exits.
    let mut baselines = Baselines(Vec::new());
    for (file, _) in files {
        let path = root.join(file);
        match std::fs::read_to_string(&path) {
            Ok(s) => baselines.0.push((path, s)),
            Err(e) => {
                eprintln!("bench_check: missing baseline {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Re-run the benches (each rewrites its JSON at the repo root).
    for (file, bench) in files {
        println!("bench_check: running {bench} ...");
        let status = Command::new(env!("CARGO"))
            .args(["bench", "-q", "-p", "cwf-bench", "--bench", bench])
            .current_dir(&root)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("bench_check: bench {bench} exited with {s}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("bench_check: cannot run bench {bench} for {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Compare the gated metrics, then restore the baselines in place so
    // the working tree stays clean.
    let mut checks = Vec::new();
    let mut broken = false;
    for ((file, _), (path, baseline)) in files.iter().zip(&baselines.0) {
        let fresh = std::fs::read_to_string(path).unwrap_or_default();
        for g in gates(file) {
            match (
                extract(baseline, &g.num, g.den),
                extract(&fresh, &g.num, g.den),
            ) {
                (Some(b), Some(f)) => checks.push(Check {
                    label: format!("{file}: {}", g.label),
                    baseline: b,
                    fresh: f,
                    bound: g.bound,
                }),
                _ => {
                    eprintln!("bench_check: cannot extract {} from {file}", g.label);
                    broken = true;
                }
            }
        }
    }
    broken |= !baselines.restore();
    let mut regressed = false;
    for c in &checks {
        let verdict = if c.regressed() {
            regressed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "bench_check: {:<55} baseline {:>7.3}  fresh {:>7.3}  ({:+.1}%)  {verdict}",
            c.label,
            c.baseline,
            c.fresh,
            (c.fresh / c.baseline - 1.0) * 100.0,
        );
    }
    if regressed || broken {
        eprintln!(
            "bench_check: FAILED (a normalized ratio fell more than {:.0}% below baseline, \
             a count rose above its ceiling, or a peak or cost rose more than {:.0}% above \
             baseline)",
            TOLERANCE * 100.0,
            TOLERANCE * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!(
            "bench_check: all normalized ratios, peaks and costs within {:.0}% of baseline, all \
             counts at or below their ceilings",
            TOLERANCE * 100.0
        );
        ExitCode::SUCCESS
    }
}
