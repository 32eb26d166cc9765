//! Figure 9 — performance-density improvement (throughput per unit chip
//! area) of every prefetcher over the no-prefetcher baseline.
//!
//! The paper reports Bingo at +59%: the area of its metadata tables costs
//! less than 1% of the performance gain.

use bingo_bench::{
    geometric_mean, pct, telemetry_from_env, throttle_from_env, AreaModel, ParallelHarness,
    PrefetcherKind, RunScale, RunSpec, Table,
};
use bingo_sim::SystemConfig;
use bingo_workloads::Workload;

fn main() {
    let scale = RunScale::from_args();
    let (telemetry, throttle) = (telemetry_from_env(), throttle_from_env());
    let area = AreaModel::default_14nm();
    let cfg = SystemConfig::paper();
    let llc_mb = cfg.llc.size_bytes as f64 / 1024.0 / 1024.0;

    // Kind-major grid: all workloads of one prefetcher are contiguous.
    let specs: Vec<RunSpec> = PrefetcherKind::HEADLINE
        .iter()
        .flat_map(|&k| RunSpec::grid(scale, &Workload::ALL, &[k], telemetry, throttle))
        .collect();
    let evals = ParallelHarness::from_env().evaluate(&specs);

    let mut t = Table::new(vec![
        "Prefetcher",
        "Storage/core (KB)",
        "Perf gmean",
        "Perf density",
    ]);
    let n_workloads = Workload::ALL.len();
    for (i, &kind) in PrefetcherKind::HEADLINE.iter().enumerate() {
        let kb = kind.storage_kb();
        let speedups: Vec<f64> = evals[i * n_workloads..(i + 1) * n_workloads]
            .iter()
            .map(|e| e.speedup)
            .collect();
        let gmean = geometric_mean(&speedups);
        let density = area.density_improvement(cfg.cores, llc_mb, kb, gmean);
        t.row(vec![
            kind.name(),
            format!("{kb:.1}"),
            pct(gmean - 1.0),
            pct(density),
        ]);
    }
    t.write_csv_if_requested("fig9_density");
    println!(
        "Figure 9. Performance-density improvement over the baseline\n\
         (paper: Bingo +59%, within 1% of its raw performance gain).\n\n{t}"
    );
}
