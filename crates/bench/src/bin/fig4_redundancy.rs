//! Figure 4 — redundancy in the metadata of a naive two-table TAGE-like
//! spatial prefetcher: the fraction of lookups for which the long
//! (`PC+Address`) and short (`PC+Offset`) tables offer an *identical*
//! prediction. High redundancy is what justifies Bingo's unified table.
//!
//! The paper reports redundancy from 26% (SAT Solver) to 93% (Mix 2).

use bingo_bench::{
    mean, pct, telemetry_from_env, throttle_from_env, ParallelHarness, PrefetcherKind, RunScale,
    RunSpec, Table,
};
use bingo_workloads::Workload;

fn main() {
    let scale = RunScale::from_args();
    let (telemetry, throttle) = (telemetry_from_env(), throttle_from_env());
    let kinds = [PrefetcherKind::MultiEvent(2)];
    let specs = RunSpec::grid(scale, &Workload::ALL, &kinds, telemetry, throttle);
    let mut report = ParallelHarness::from_env().try_evaluate(&specs);
    // A renamed counter must fail the figure by name, not plot as zero.
    report.require_metrics(&["lookups", "dual_identical", "dual_both_matched"]);
    let evals = report.into_complete();
    let mut t = Table::new(vec!["Workload", "Redundancy", "Both-matched"]);
    let mut all = Vec::new();
    for (w, e) in Workload::ALL.iter().zip(&evals) {
        let lookups = e.result.metric_sum("lookups").expect("required above");
        let identical = e
            .result
            .metric_sum("dual_identical")
            .expect("required above");
        let both = e
            .result
            .metric_sum("dual_both_matched")
            .expect("required above");
        let redundancy = if lookups > 0.0 {
            identical / lookups
        } else {
            0.0
        };
        let both_frac = if lookups > 0.0 { both / lookups } else { 0.0 };
        all.push(redundancy);
        t.row(vec![w.name().to_string(), pct(redundancy), pct(both_frac)]);
    }
    t.row(vec!["Average".to_string(), pct(mean(&all)), String::new()]);
    t.write_csv_if_requested("fig4_redundancy");
    println!(
        "Figure 4. Redundancy of naive two-table TAGE metadata: fraction of\n\
         lookups where long and short events predict identically\n\
         (paper: 26%–93%).\n\n{t}"
    );
}
