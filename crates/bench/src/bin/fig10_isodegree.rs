//! Figure 10 — iso-degree comparison: the SHH prefetchers with their
//! degree restrictions lifted (BOP and VLDP at degree 32, SPP at a 1%
//! confidence threshold) against their original configurations and Bingo.
//!
//! The paper's result: aggressiveness buys a little performance and a lot
//! of overprediction; Bingo still wins.

use bingo_bench::{
    geometric_mean, mean, pct, telemetry_from_env, throttle_from_env, ParallelHarness,
    PrefetcherKind, RunScale, RunSpec, Table,
};
use bingo_workloads::Workload;

fn main() {
    let scale = RunScale::from_args();
    let (telemetry, throttle) = (telemetry_from_env(), throttle_from_env());
    let rows = [
        ("BOP-Orig", PrefetcherKind::Bop),
        ("BOP-Aggr", PrefetcherKind::BopAggressive),
        ("SPP-Orig", PrefetcherKind::Spp),
        ("SPP-Aggr", PrefetcherKind::SppAggressive),
        ("VLDP-Orig", PrefetcherKind::Vldp),
        ("VLDP-Aggr", PrefetcherKind::VldpAggressive),
        ("Bingo", PrefetcherKind::Bingo),
    ];
    // Kind-major grid: all workloads of one row are contiguous.
    let specs: Vec<RunSpec> = rows
        .iter()
        .flat_map(|&(_, k)| RunSpec::grid(scale, &Workload::ALL, &[k], telemetry, throttle))
        .collect();
    let evals = ParallelHarness::from_env().evaluate(&specs);
    let mut t = Table::new(vec![
        "Prefetcher",
        "Perf gmean",
        "Coverage",
        "Overprediction",
    ]);
    let n_workloads = Workload::ALL.len();
    for (i, (name, _)) in rows.into_iter().enumerate() {
        let chunk = &evals[i * n_workloads..(i + 1) * n_workloads];
        let speedups: Vec<f64> = chunk.iter().map(|e| e.speedup).collect();
        let covs: Vec<f64> = chunk.iter().map(|e| e.coverage.coverage).collect();
        let ovs: Vec<f64> = chunk.iter().map(|e| e.coverage.overprediction).collect();
        t.row(vec![
            name.to_string(),
            pct(geometric_mean(&speedups) - 1.0),
            pct(mean(&covs)),
            pct(mean(&ovs)),
        ]);
    }
    t.write_csv_if_requested("fig10_isodegree");
    println!(
        "Figure 10. Iso-degree comparison (paper: lifting the degree raises\n\
         SHH coverage slightly and overprediction sharply; Bingo still wins).\n\n{t}"
    );
}
