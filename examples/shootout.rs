//! Prefetcher shootout: all six prefetchers of the paper's comparison on a
//! server workload (Data Serving), printing coverage, overprediction,
//! accuracy, and speedup — a miniature of Figs. 7 and 8.
//!
//! ```sh
//! cargo run --release --example shootout [workload]
//! ```
//!
//! `workload` is a slug (`data-serving`, `sat-solver`, `streaming`,
//! `zeus`, `em3d`, `mix-1`..`mix-5`), paper name or variant name (default:
//! data-serving); an unknown name panics listing the slugs. The six cells
//! run in parallel; set `BINGO_JOBS` to bound the worker count.

use bingo_repro::bench::{workload_named, ParallelHarness, PrefetcherKind, RunScale, RunSpec};
use bingo_repro::workloads::Workload;

fn main() {
    let workload = std::env::args().nth(1).map_or(Workload::DataServing, |a| {
        workload_named(&a, &Workload::ALL)
    });
    println!("workload: {workload} — {}\n", workload.description());

    let scale = RunScale {
        instructions_per_core: 400_000,
        warmup_per_core: 600_000,
        seed: 42,
    };
    let kinds = PrefetcherKind::headline();
    let specs = RunSpec::grid(scale, &[workload], &kinds);
    let evals = ParallelHarness::from_env().quiet().evaluate(&specs);

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
