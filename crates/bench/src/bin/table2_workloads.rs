//! Table II — application parameters: baseline LLC MPKI of every workload
//! (no prefetcher), compared against the paper's reported values.

use bingo_bench::{
    telemetry_from_env, throttle_from_env, ParallelHarness, PrefetcherKind, RunScale, RunSpec,
    Table,
};
use bingo_workloads::Workload;

fn main() {
    let scale = RunScale::from_args();
    let (telemetry, throttle) = (telemetry_from_env(), throttle_from_env());
    let kinds = [PrefetcherKind::None];
    let specs = RunSpec::grid(scale, &Workload::ALL, &kinds, telemetry, throttle);
    let baselines = ParallelHarness::from_env().try_run(&specs).into_complete();
    let mut t = Table::new(vec!["Application", "Description", "MPKI", "Paper MPKI"]);
    for (w, base) in Workload::ALL.into_iter().zip(&baselines) {
        t.row(vec![
            w.name().to_string(),
            w.description().to_string(),
            format!("{:.1}", base.llc_mpki()),
            format!("{:.1}", w.paper_mpki()),
        ]);
    }
    println!("Table II. Application parameters (baseline LLC MPKI).\n\n{t}");
}
