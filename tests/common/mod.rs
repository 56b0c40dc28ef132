//! Fixtures shared by the integration tests.

use collab_workflows::engine::Run;
use collab_workflows::workloads::{build_procurement_run, build_review_run, build_triage_run};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The `explain-batch` corpus: the same builders, shapes and generator seed
/// as the benchmark, so the golden files pin the answers it measures.
pub fn batch_corpus() -> Vec<(String, Run)> {
    let mut rng = StdRng::seed_from_u64(0x00c0_4b05);
    let mut corpus = Vec::new();
    for (n, stalled) in [(2, 1), (3, 1), (4, 1), (5, 1)] {
        let run = build_procurement_run(n, stalled, &mut rng).run;
        corpus.push((format!("procurement({n},{stalled})"), run));
    }
    for (n, hot) in [(8, 3), (10, 3), (11, 4), (12, 4)] {
        let run = build_triage_run(n, hot, &mut rng).run;
        corpus.push((format!("triage({n},{hot})"), run));
    }
    for (n, extra) in [(3, 1), (5, 1), (6, 2), (8, 1)] {
        let run = build_review_run(n, extra, &mut rng).run;
        corpus.push((format!("review({n},{extra})"), run));
    }
    corpus
}
