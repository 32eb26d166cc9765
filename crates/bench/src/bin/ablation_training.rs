//! Ablation — Bingo's end-of-residency training signal.
//!
//! The paper (following SMS) ends a region's residency — and trains the
//! history table — "whenever a block from the page is invalidated or
//! evicted from the cache". The alternative is to train only when the
//! accumulation table overflows (no cache feedback at all). This ablation
//! quantifies how much the eviction signal matters.

use bingo::BingoConfig;
use bingo_bench::{
    geometric_mean, mean, pct, telemetry_from_env, throttle_from_env, ParallelHarness,
    PrefetcherKind, RunScale, RunSpec, Table,
};
use bingo_workloads::Workload;

fn main() {
    let scale = RunScale::from_args();
    let (telemetry, throttle) = (telemetry_from_env(), throttle_from_env());
    let variants = [
        ("eviction + overflow (paper)", BingoConfig::paper()),
        (
            "overflow only",
            BingoConfig {
                train_on_eviction: false,
                ..BingoConfig::paper()
            },
        ),
    ];
    // Variant-major grid: all workloads of one variant are contiguous.
    let specs: Vec<RunSpec> = variants
        .iter()
        .flat_map(|&(_, cfg)| {
            let kind = PrefetcherKind::BingoWith(cfg);
            RunSpec::grid(scale, &Workload::ALL, &[kind], telemetry, throttle)
        })
        .collect();
    let evals = ParallelHarness::from_env().evaluate(&specs);
    let mut t = Table::new(vec![
        "Training signal",
        "Perf gmean",
        "Coverage",
        "Overprediction",
    ]);
    let n_workloads = Workload::ALL.len();
    for (i, (name, _)) in variants.into_iter().enumerate() {
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
    println!("Ablation: Bingo end-of-residency training signal.\n\n{t}");
}
