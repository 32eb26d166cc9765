//! Figure 8 — performance improvement of every prefetcher over the
//! no-prefetcher baseline, per workload plus the geometric mean.
//!
//! The paper reports Bingo at +60% gmean (11% in Zeus to 285% in em3d),
//! 11% above the best prior spatial prefetcher.

use bingo_bench::{
    geometric_mean, pct, telemetry_from_env, throttle_from_env, ParallelHarness, PrefetcherKind,
    RunScale, RunSpec, Table,
};
use bingo_workloads::Workload;

fn main() {
    let scale = RunScale::from_args();
    let (telemetry, throttle) = (telemetry_from_env(), throttle_from_env());
    let specs = RunSpec::grid(
        scale,
        &Workload::ALL,
        &PrefetcherKind::HEADLINE,
        telemetry,
        throttle,
    );
    let evals = ParallelHarness::from_env().evaluate(&specs);
    let mut header = vec!["Workload".to_string()];
    header.extend(PrefetcherKind::HEADLINE.iter().map(|k| k.name()));
    let mut t = Table::new(header);
    let n_kinds = PrefetcherKind::HEADLINE.len();
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); n_kinds];
    for (wi, w) in Workload::ALL.into_iter().enumerate() {
        let mut row = vec![w.name().to_string()];
        for (i, e) in evals[wi * n_kinds..(wi + 1) * n_kinds].iter().enumerate() {
            speedups[i].push(e.speedup);
            row.push(pct(e.improvement()));
        }
        t.row(row);
    }
    let mut gmean_row = vec!["GMean".to_string()];
    for s in &speedups {
        gmean_row.push(pct(geometric_mean(s) - 1.0));
    }
    t.row(gmean_row);
    t.write_csv_if_requested("fig8_performance");
    println!(
        "Figure 8. Performance improvement over the no-prefetcher baseline\n\
         (paper: Bingo +60% gmean, +11% Zeus, +285% em3d).\n\n{t}"
    );
}
