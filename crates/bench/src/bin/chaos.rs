//! The chaos sweep driver: runs the seeded whole-system simulation over a
//! range of seeds and reports failures as machine-readable repro lines.
//!
//! ```sh
//! cargo run -p cwf-bench --release --bin chaos -- --seeds 100
//! cargo run -p cwf-bench --release --bin chaos -- \
//!     --seeds 200 --steps 60 --profile all --out chaos-failures.txt
//! ```
//!
//! Options (all optional):
//!
//! * `--seeds N` — seeds per profile (default 20)
//! * `--start S` — first seed (default 0; seeds are `S..S+N`)
//! * `--steps M` — generated actions per trace (default 40)
//! * `--profile default|crash|storage|mod|partition|commit|reshard|all` —
//!   fault profile (default `all`; `mod` is the modification-heavy profile,
//!   which runs over the null-filling task-tracker spec unless `--spec
//!   random` is given; `partition` enables the shard actions — partitions,
//!   failovers, hand-offs — and `reshard` additionally drives live shard
//!   splits, merges, and rebalances; both are most interesting with
//!   `--shards` > 1)
//! * `--shards N` — shard count of the state plane under test (default 1,
//!   the single-node master server)
//! * `--spec editorial|random` — workflow under test (default `editorial`;
//!   `random` derives a fresh propositional spec per seed)
//! * `--out PATH` — also append failure lines to PATH (for CI artifacts)
//!
//! On failure, two lines per incident:
//!
//! ```text
//! CHAOS-FAIL seed=17 profile=crash-heavy spec=editorial shards=1 oracle=shard-wal-replay step=12 detail=...
//! CHAOS-TRACE seed=17 submit(3) pump(2) crash(8) ...
//! ```
//!
//! The trace is the *minimized* repro: paste it into
//! `cwf_engine::chaos::parse_trace` and replay with `ChaosSim::run_trace`
//! under the same seed, profile, spec, and shard count. Exit status is 1
//! iff any seed failed.

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use cwf_engine::chaos::{default_spec, format_trace, modification_spec, ChaosProfile, ChaosSim};
use cwf_workloads::chaos_workload;

struct Options {
    seeds: u64,
    start: u64,
    steps: usize,
    profiles: Vec<ChaosProfile>,
    shards: usize,
    random_spec: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        seeds: 20,
        start: 0,
        steps: 40,
        profiles: all_profiles(),
        shards: 1,
        random_spec: false,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seeds" => {
                opts.seeds = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?
            }
            "--start" => {
                opts.start = value("--start")?
                    .parse()
                    .map_err(|e| format!("--start: {e}"))?
            }
            "--steps" => {
                opts.steps = value("--steps")?
                    .parse()
                    .map_err(|e| format!("--steps: {e}"))?
            }
            "--profile" => {
                opts.profiles = match value("--profile")?.as_str() {
                    "default" => vec![ChaosProfile::Default],
                    "crash" => vec![ChaosProfile::CrashHeavy],
                    "storage" => vec![ChaosProfile::StorageHeavy],
                    "mod" => vec![ChaosProfile::ModificationHeavy],
                    "partition" => vec![ChaosProfile::PartitionHeavy],
                    "commit" => vec![ChaosProfile::CommitHeavy],
                    "reshard" => vec![ChaosProfile::ReshardHeavy],
                    "all" => all_profiles(),
                    other => return Err(format!("unknown profile {other:?}")),
                }
            }
            "--shards" => {
                let n: usize = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
                if n == 0 {
                    return Err("--shards must be at least 1".into());
                }
                opts.shards = n;
            }
            "--spec" => {
                opts.random_spec = match value("--spec")?.as_str() {
                    "editorial" => false,
                    "random" => true,
                    other => return Err(format!("unknown spec {other:?}")),
                }
            }
            "--out" => opts.out = Some(value("--out")?),
            other => return Err(format!("unknown flag {other:?} (see module docs)")),
        }
    }
    Ok(opts)
}

fn all_profiles() -> Vec<ChaosProfile> {
    vec![
        ChaosProfile::Default,
        ChaosProfile::CrashHeavy,
        ChaosProfile::StorageHeavy,
        ChaosProfile::ModificationHeavy,
        ChaosProfile::PartitionHeavy,
        ChaosProfile::CommitHeavy,
        ChaosProfile::ReshardHeavy,
    ]
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("chaos: {e}");
            return ExitCode::from(2);
        }
    };
    let spec_name = if opts.random_spec {
        "random"
    } else {
        "editorial"
    };
    let started = Instant::now();
    let mut failures = String::new();
    let mut runs = 0u64;
    let mut failed = 0u64;
    let mut events = 0usize;
    let mut restarts = 0u64;
    for &profile in &opts.profiles {
        for seed in opts.start..opts.start + opts.seeds {
            let spec = if opts.random_spec {
                chaos_workload(seed).spec
            } else if profile == ChaosProfile::ModificationHeavy {
                modification_spec()
            } else {
                default_spec()
            };
            runs += 1;
            match ChaosSim::new(spec, profile, opts.shards).check_seed(seed, opts.steps) {
                Ok(report) => {
                    events += report.events;
                    restarts += report.restarts;
                }
                Err(f) => {
                    failed += 1;
                    let _ = writeln!(
                        failures,
                        "CHAOS-FAIL seed={} profile={} spec={} shards={} oracle={} step={} detail={}",
                        f.seed,
                        f.profile.name(),
                        spec_name,
                        opts.shards,
                        f.oracle,
                        f.step,
                        f.detail.replace('\n', " | "),
                    );
                    let _ = writeln!(
                        failures,
                        "CHAOS-TRACE seed={} {}",
                        f.seed,
                        format_trace(f.repro()),
                    );
                }
            }
        }
        println!(
            "profile {:<13} done ({} seeds, {:.1}s elapsed)",
            profile.name(),
            opts.seeds,
            started.elapsed().as_secs_f64()
        );
    }
    print!("{failures}");
    if let (Some(path), false) = (&opts.out, failures.is_empty()) {
        match std::fs::File::options()
            .create(true)
            .append(true)
            .open(path)
        {
            Ok(mut f) => {
                let _ = f.write_all(failures.as_bytes());
            }
            Err(e) => eprintln!("chaos: cannot write {path}: {e}"),
        }
    }
    println!(
        "chaos: {runs} runs, {failed} failures, {events} events accepted, \
         {restarts} crash-restarts, {:.1}s",
        started.elapsed().as_secs_f64()
    );
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
