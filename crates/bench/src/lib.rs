//! # bingo-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation. Each
//! figure is a function of [`figures`] over one [`figures::Session`], and a
//! binary of the same name in `src/bin/` prints it alone; `cargo run -p
//! bingo-bench --release --bin all` prints every figure of
//! [`figures::ALL`] in one process, simulating each cell once. Pass
//! `--quick` for a reduced instruction budget (CI scale). Every cell is
//! the one configuration its figure states: telemetry and throttling are
//! off unless the figure sets them in code (`fig_timeliness` counts,
//! `fig_qos` and `stress_degrade` vary the throttle mode). `fig_multicore`
//! and `fig_qos` also write a JSON report, `<figure>_report.json`, into
//! `--report DIR` (default `target`).
//!
//! | Binary | Reproduces |
//! |--------|------------|
//! | `table1_config` | Table I system configuration + Bingo storage (§VI-A) |
//! | `table2_workloads` | Table II baseline LLC MPKI |
//! | `fig2_events` | Fig. 2: accuracy & match probability of 5 event heuristics |
//! | `fig3_num_events` | Fig. 3: coverage & accuracy vs number of events |
//! | `fig4_redundancy` | Fig. 4: metadata redundancy of two-table TAGE |
//! | `fig6_table_size` | Fig. 6: Bingo coverage vs history entries |
//! | `fig7_coverage` | Fig. 7: coverage & overprediction, 6 prefetchers |
//! | `fig8_performance` | Fig. 8: performance improvement |
//! | `fig9_density` | Fig. 9: performance-density improvement |
//! | `fig10_isodegree` | Fig. 10: iso-degree comparison |
//! | `fig_timeliness` | prefetch-lifecycle timeliness & event-kind attribution |
//! | `fig_traces` | headline prefetchers replayed on recorded `.btrc` traces |
//! | `fig_multicore` | multi-core capacity search & per-core fairness over [`contention_mixes`] |
//! | `fig_qos` | throttle starvation on [`polite_vs_storm`]: off / chip-wide / per-core arms + chaos cell |
//! | `ablation_voting` / `ablation_region` / `ablation_training` | design-choice ablations |
//! | `workload_stats` | spatial structure of each workload's access stream |
//! | `stress_degrade` | graceful degradation under memory pressure (not in `all`) |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod area;
pub mod capture;
pub mod checkpoint;
pub mod cli;
pub mod differential;
pub mod figures;
mod json;
pub mod knobs;
pub mod mix;
pub mod perf_record;
pub mod runner;
pub mod stats_export;
pub mod table;

pub use area::AreaModel;
pub use capture::{ensure_capture, CAPTURE_SLACK};
pub use checkpoint::{Checkpoint, CHECKPOINT_ENV};
pub use cli::{flag_value, flag_values, workload_args, workload_named};
pub use differential::{
    bingo_config_variants, diff_bingo, diff_bingo_instances, diff_with_oracle, fuzz_baseline,
    fuzz_bingo, shrink_bingo_mismatch, FuzzFailure, FuzzReport, Mismatch,
};
pub use mix::{
    contention_mixes, find_knee, polite_vs_storm, CapacityCell, CapacitySearch, FairnessReport,
    MixConfig, Pressure, Ramp, KNEE_FRACTION,
};
pub use perf_record::{
    calibration_record, load_records, time_median, BenchRecord, BenchWriter, Sample,
    BENCH_JSON_ENV, CALIBRATION_KEY,
};
pub use runner::{
    default_jobs, geometric_mean, mean, parallel_map, run_one, Evaluation, Failure, MixEvaluation,
    ParallelHarness, PrefetcherKind, Report, RunScale, RunSpec, Slot, Stream,
};
pub use stats_export::{StatsExport, STATS_ENV};
pub use table::{f2, pct, Table};
