//! Figure 3 — coverage and accuracy of a TAGE-like spatial prefetcher as
//! the number of events grows from 1 (`PC+Address` only) to 5 (all events
//! down to bare `Offset`), averaged across all applications.
//!
//! The paper's takeaway: the step from one to two events is large, and
//! returns diminish beyond two — which is why Bingo uses exactly two.

use bingo_bench::{
    mean, pct, telemetry_from_env, throttle_from_env, ParallelHarness, PrefetcherKind, RunScale,
    RunSpec, Table,
};
use bingo_workloads::Workload;

fn main() {
    let scale = RunScale::from_args();
    let (telemetry, throttle) = (telemetry_from_env(), throttle_from_env());
    let kinds: Vec<PrefetcherKind> = (1..=5).map(PrefetcherKind::MultiEvent).collect();
    let specs = RunSpec::grid(scale, &Workload::ALL, &kinds, telemetry, throttle);
    let evals = ParallelHarness::from_env().evaluate(&specs);
    let mut t = Table::new(vec!["Events", "Coverage", "Accuracy"]);
    for (j, n) in (1..=5).enumerate() {
        let mut covs = Vec::new();
        let mut accs = Vec::new();
        for i in 0..Workload::ALL.len() {
            let e = &evals[i * kinds.len() + j];
            covs.push(e.coverage.coverage);
            accs.push(e.coverage.accuracy);
        }
        t.row(vec![n.to_string(), pct(mean(&covs)), pct(mean(&accs))]);
    }
    println!(
        "Figure 3. Coverage and accuracy vs. number of events in a\n\
         TAGE-like spatial prefetcher (paper: the 1→2 step dominates).\n\n{t}"
    );
}
