//! Figure 2 — accuracy and match probability of the five event heuristics,
//! averaged across all applications.
//!
//! Each event is evaluated as a single-event spatial prefetcher; accuracy
//! is the fraction of completed prefetches used before eviction, and match
//! probability is the fraction of history lookups that found an entry.

use bingo::EventKind;
use bingo_bench::{
    mean, pct, telemetry_from_env, throttle_from_env, ParallelHarness, PrefetcherKind, RunScale,
    RunSpec, Table,
};
use bingo_workloads::Workload;

fn main() {
    let scale = RunScale::from_args();
    let (telemetry, throttle) = (telemetry_from_env(), throttle_from_env());
    let kinds: Vec<PrefetcherKind> = EventKind::LONGEST_FIRST
        .into_iter()
        .map(PrefetcherKind::SingleEvent)
        .collect();
    let specs = RunSpec::grid(scale, &Workload::ALL, &kinds, telemetry, throttle);
    let mut report = ParallelHarness::from_env().try_evaluate(&specs);
    // A renamed counter must fail the figure by name, not plot as zero.
    report.require_metrics(&["lookups", "matches"]);
    let evals = report.into_complete();
    let mut t = Table::new(vec!["Event", "Accuracy", "Match Probability"]);
    for (j, kind) in EventKind::LONGEST_FIRST.into_iter().enumerate() {
        let mut accs = Vec::new();
        let mut probs = Vec::new();
        for i in 0..Workload::ALL.len() {
            let e = &evals[i * kinds.len() + j];
            accs.push(e.coverage.accuracy);
            let lookups = e.result.metric_sum("lookups").expect("required above");
            let matches = e.result.metric_sum("matches").expect("required above");
            probs.push(if lookups > 0.0 {
                matches / lookups
            } else {
                0.0
            });
        }
        t.row(vec![
            kind.label().to_string(),
            pct(mean(&accs)),
            pct(mean(&probs)),
        ]);
    }
    t.write_csv_if_requested("fig2_events");
    println!(
        "Figure 2. Accuracy and match probability of event heuristics\n\
         (longest event first; paper: accuracy decreases and match\n\
         probability increases as the event shortens).\n\n{t}"
    );
}
