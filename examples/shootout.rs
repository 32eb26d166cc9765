//! Prefetcher shootout: all six prefetchers of the paper's comparison on a
//! server workload (Data Serving), printing coverage, overprediction,
//! accuracy, and speedup — a miniature of Figs. 7 and 8.
//!
//! ```sh
//! cargo run --release --example shootout [workload]
//! ```
//!
//! `workload` is one of: data-serving, sat-solver, streaming, zeus, em3d,
//! mix1..mix5 (default: data-serving). The six cells run in parallel; set
//! `BINGO_JOBS` to bound the worker count.

use bingo_repro::bench::{
    telemetry_from_env, throttle_from_env, ParallelHarness, PrefetcherKind, RunScale, RunSpec,
};
use bingo_repro::workloads::Workload;

fn parse_workload(name: &str) -> Option<Workload> {
    Some(match name.to_ascii_lowercase().as_str() {
        "data-serving" => Workload::DataServing,
        "sat-solver" => Workload::SatSolver,
        "streaming" => Workload::Streaming,
        "zeus" => Workload::Zeus,
        "em3d" => Workload::Em3d,
        "mix1" => Workload::Mix1,
        "mix2" => Workload::Mix2,
        "mix3" => Workload::Mix3,
        "mix4" => Workload::Mix4,
        "mix5" => Workload::Mix5,
        _ => return None,
    })
}

fn main() {
    let workload = std::env::args()
        .nth(1)
        .and_then(|a| parse_workload(&a))
        .unwrap_or(Workload::DataServing);
    println!("workload: {workload} — {}\n", workload.description());

    let scale = RunScale {
        instructions_per_core: 400_000,
        warmup_per_core: 600_000,
        seed: 42,
    };
    let kinds = PrefetcherKind::headline();
    let (telemetry, throttle) = (telemetry_from_env(), throttle_from_env());
    let specs = RunSpec::grid(scale, &[workload], &kinds, telemetry, throttle);
    let mut harness = ParallelHarness::from_env().quiet();
    harness.export_stats_as("shootout");
    let evals = harness.evaluate(&specs);

    let baseline = &evals[0].baseline;
    println!(
        "baseline: IPC {:.3}, {} LLC misses (MPKI {:.1})\n",
        baseline.aggregate_ipc(),
        baseline.llc.demand_misses,
        baseline.llc_mpki()
    );
    println!(
        "{:>6}  {:>9}  {:>9}  {:>9}  {:>8}",
        "", "coverage", "overpred", "accuracy", "speedup"
    );
    for (kind, e) in kinds.iter().zip(&evals) {
        println!(
            "{:>6}  {:>8.1}%  {:>8.1}%  {:>8.1}%  {:>7.1}%",
            kind.name(),
            e.coverage.coverage * 100.0,
            e.coverage.overprediction * 100.0,
            e.coverage.accuracy * 100.0,
            (e.speedup - 1.0) * 100.0
        );
    }
}
