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
//!   reduction on byte-identical minimum-scenario verdicts.
//!
//! A fresh ratio more than 25% below its baseline is a regression. Some
//! metrics are deterministic counts instead — the search node counts of
//! `BENCH_provenance.json`, taken on the sequential pool — and those carry a
//! ceiling: any fresh count above its baseline is a regression. The check
//! prints every comparison, restores the baseline files (the bench binaries
//! overwrite them in place) on every exit path, and exits non-zero if
//! anything regressed.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Allowed slack: fresh ratio must be at least this fraction of baseline.
const FLOOR: f64 = 0.75;

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

struct Check {
    label: String,
    baseline: f64,
    fresh: f64,
    /// A deterministic count that must not exceed its baseline, rather than
    /// a ratio that must stay above the floor.
    ceiling: bool,
}

impl Check {
    fn regressed(&self) -> bool {
        if self.ceiling {
            self.fresh > self.baseline
        } else {
            self.fresh < self.baseline * FLOOR
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

/// The deterministic counts of one bench file that carry a ceiling:
/// `(label, key)` pairs.
fn ceilings(experiment: &str) -> Vec<(String, String)> {
    match experiment {
        "BENCH_provenance.json" => vec![
            ("cone search nodes (ceiling)".into(), "cone_nodes".into()),
            ("no-cone search nodes (ceiling)".into(), "full_nodes".into()),
        ],
        _ => Vec::new(),
    }
}

/// The normalized ratios of one bench file: `(label, numerator, denominator)`
/// key pairs; a ratio with no denominator key is the metric itself.
fn ratios(experiment: &str) -> Vec<(String, String, Option<String>)> {
    match experiment {
        "BENCH_view_plane.json" => vec![("speedup".into(), "speedup".into(), None)],
        "BENCH_shard_plane.json" => [2, 4]
            .iter()
            .map(|n| {
                (
                    format!("plane_{n}_shards / plane_1_shards"),
                    format!("plane_{n}_shards_events_per_sec"),
                    Some("plane_1_shards_events_per_sec".into()),
                )
            })
            .collect(),
        "BENCH_dist_admission.json" => [2, 4]
            .iter()
            .map(|n| {
                (
                    format!("durable plane_{n}_shards / plane_1_shards"),
                    format!("plane_{n}_shards_events_per_sec"),
                    Some("plane_1_shards_events_per_sec".into()),
                )
            })
            .collect(),
        "BENCH_reshard_admission.json" => vec![(
            "admission during split / idle".into(),
            "migrating_4_shards_events_per_sec".into(),
            Some("idle_4_shards_events_per_sec".into()),
        )],
        "BENCH_provenance.json" => vec![
            (
                "explain speedup over scenario search".into(),
                "explain_speedup".into(),
                None,
            ),
            (
                "cone node reduction".into(),
                "cone_node_reduction".into(),
                None,
            ),
        ],
        "BENCH_par_analysis.json" => vec![
            (
                "min-scenario speedup at 4 threads".into(),
                "min_scenario_speedup_4t".into(),
                None,
            ),
            (
                "boundedness speedup at 4 threads".into(),
                "boundedness_speedup_4t".into(),
                None,
            ),
        ],
        _ => Vec::new(),
    }
}

fn extract(json: &str, num: &str, den: &Option<String>) -> Option<f64> {
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
    // Compare normalized ratios, then restore the baselines in place so
    // the working tree stays clean.
    let mut checks = Vec::new();
    let mut broken = false;
    for ((file, _), (path, baseline)) in files.iter().zip(&baselines.0) {
        let fresh = std::fs::read_to_string(path).unwrap_or_default();
        let gates = ratios(file)
            .into_iter()
            .map(|(label, num, den)| (label, num, den, false))
            .chain(
                ceilings(file)
                    .into_iter()
                    .map(|(label, key)| (label, key, None, true)),
            );
        for (label, num, den, ceiling) in gates {
            match (extract(baseline, &num, &den), extract(&fresh, &num, &den)) {
                (Some(b), Some(f)) => checks.push(Check {
                    label: format!("{file}: {label}"),
                    baseline: b,
                    fresh: f,
                    ceiling,
                }),
                _ => {
                    eprintln!("bench_check: cannot extract {label} from {file}");
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
             or a count rose above its ceiling)",
            (1.0 - FLOOR) * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!(
            "bench_check: all normalized ratios within {:.0}% of baseline, all counts \
             at or below their ceilings",
            (1.0 - FLOOR) * 100.0
        );
        ExitCode::SUCCESS
    }
}
