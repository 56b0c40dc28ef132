//! # cwf-bench — shared fixtures for the benchmark harness
//!
//! Each Criterion bench under `benches/` regenerates one experiment of
//! DESIGN.md §5 (E1–E12); the `experiments` binary prints the corresponding
//! tables for EXPERIMENTS.md. This library hosts the fixtures shared by
//! both.

#![forbid(unsafe_code)]

use std::sync::Arc;

use cwf_engine::Run;
use cwf_lang::{parse_workflow, WorkflowSpec};
use cwf_model::PeerId;
use cwf_workloads::{build_procurement_run, build_review_run, build_triage_run};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A linear silent-chain program `s_0 → … → s_{k−1} → Out` where only `Out`
/// is visible to `p` — its minimal silent-relevant chain has length `k + 1`,
/// so it is `(k+1)`-bounded and not `k`-bounded (fixture for E6/E9).
pub fn chain_program(k: usize) -> Arc<WorkflowSpec> {
    let mut schema = String::new();
    let mut rules = String::new();
    let mut sees = String::new();
    for i in 0..k {
        schema.push_str(&format!("L{i}(K); "));
        sees.push_str(&format!("L{i}(*), "));
        if i == 0 {
            rules.push_str("s0 @ q: +L0(0) :- ;\n");
        } else {
            rules.push_str(&format!("s{i} @ q: +L{i}(0) :- L{}(0);\n", i - 1));
        }
    }
    schema.push_str("Out(K);");
    let last_body = if k == 0 {
        String::new()
    } else {
        format!("L{}(0)", k - 1)
    };
    rules.push_str(&format!("out @ q: +Out(0) :- {last_body};\n"));
    let src = format!(
        "schema {{ {schema} }}\n\
         peers {{ q sees {sees}Out(*); p sees Out(*); }}\n\
         rules {{ {rules} }}"
    );
    Arc::new(parse_workflow(&src).expect("chain program parses"))
}

/// The observer peer of a [`chain_program`].
pub fn chain_observer(spec: &WorkflowSpec) -> PeerId {
    spec.collab().peer("p").expect("observer exists")
}

/// The 12 runs of perfbench's `explain-batch` workload: the same builders,
/// shapes and generator seed (fixture for E24/E25).
pub fn explain_batch_corpus() -> Vec<Run> {
    let mut rng = StdRng::seed_from_u64(0x00c0_4b05);
    let mut runs = Vec::new();
    for (n, stalled) in [(2, 1), (3, 1), (4, 1), (5, 1)] {
        runs.push(build_procurement_run(n, stalled, &mut rng).run);
    }
    for (n, hot) in [(8, 3), (10, 3), (11, 4), (12, 4)] {
        runs.push(build_triage_run(n, hot, &mut rng).run);
    }
    for (n, extra) in [(3, 1), (5, 1), (6, 2), (8, 1)] {
        runs.push(build_review_run(n, extra, &mut rng).run);
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fires the full chain of a [`chain_program`] as one run.
    fn chain_run(spec: &Arc<WorkflowSpec>, k: usize) -> Run {
        let mut run = Run::new(Arc::clone(spec));
        for i in 0..k {
            let rid = spec.program().rule_by_name(&format!("s{i}")).unwrap();
            run.push(cwf_engine::Event::new(spec, rid, cwf_engine::Bindings::empty(0)).unwrap())
                .unwrap();
        }
        let rid = spec.program().rule_by_name("out").unwrap();
        run.push(cwf_engine::Event::new(spec, rid, cwf_engine::Bindings::empty(0)).unwrap())
            .unwrap();
        run
    }

    #[test]
    fn chain_program_shapes() {
        for k in [0usize, 1, 3] {
            let spec = chain_program(k);
            assert_eq!(spec.program().rules().len(), k + 1);
            let run = chain_run(&spec, k);
            assert_eq!(run.len(), k + 1);
            let p = chain_observer(&spec);
            assert_eq!(run.visible_events(p), vec![k]);
        }
    }
}
