//! Ablation — spatial region size (1 KB / 2 KB / 4 KB).
//!
//! The region is the unit over which footprints are recorded and
//! prefetched; 2 KB is the reference ChampSim Bingo choice. Larger regions
//! amortize more blocks per trigger but dilute pattern stability. The
//! region geometry is part of [`BingoConfig`], so each size is one
//! [`PrefetcherKind::BingoWith`] on the paper machine.

use bingo::BingoConfig;
use bingo_bench::{
    geometric_mean, mean, pct, telemetry_from_env, throttle_from_env, ParallelHarness,
    PrefetcherKind, RunScale, RunSpec, Table,
};
use bingo_sim::RegionGeometry;
use bingo_workloads::Workload;

const REGION_BYTES: [u64; 3] = [1024, 2048, 4096];

fn main() {
    let scale = RunScale::from_args();
    let (telemetry, throttle) = (telemetry_from_env(), throttle_from_env());
    // Region-major grid: all workloads of one region size are contiguous.
    let specs: Vec<RunSpec> = REGION_BYTES
        .iter()
        .flat_map(|&bytes| {
            let kind = PrefetcherKind::BingoWith(BingoConfig {
                region: RegionGeometry::new(bytes),
                ..BingoConfig::paper()
            });
            RunSpec::grid(scale, &Workload::ALL, &[kind], telemetry, throttle)
        })
        .collect();
    let evals = ParallelHarness::from_env().evaluate(&specs);
    let mut t = Table::new(vec!["Region", "Perf gmean", "Coverage", "Overprediction"]);
    let n_workloads = Workload::ALL.len();
    for (i, &bytes) in REGION_BYTES.iter().enumerate() {
        let chunk = &evals[i * n_workloads..(i + 1) * n_workloads];
        let speedups: Vec<f64> = chunk.iter().map(|e| e.speedup).collect();
        let covs: Vec<f64> = chunk.iter().map(|e| e.coverage.coverage).collect();
        let ovs: Vec<f64> = chunk.iter().map(|e| e.coverage.overprediction).collect();
        t.row(vec![
            format!("{} KB", bytes / 1024),
            pct(geometric_mean(&speedups) - 1.0),
            pct(mean(&covs)),
            pct(mean(&ovs)),
        ]);
    }
    println!("Ablation: spatial region size for Bingo.\n\n{t}");
}
