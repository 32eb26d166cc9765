//! Figure 6 — Bingo's miss coverage as a function of history-table entries
//! (1K to 64K), per workload. The paper picks 16K entries as the knee.

use bingo::BingoConfig;
use bingo_bench::{
    pct, telemetry_from_env, throttle_from_env, ParallelHarness, PrefetcherKind, RunScale, RunSpec,
    Table,
};
use bingo_workloads::Workload;

const SIZES: [usize; 7] = [1024, 2048, 4096, 8192, 16384, 32768, 65536];

fn main() {
    let scale = RunScale::from_args();
    let (telemetry, throttle) = (telemetry_from_env(), throttle_from_env());
    let kinds: Vec<PrefetcherKind> = SIZES
        .into_iter()
        .map(|n| PrefetcherKind::BingoWith(BingoConfig::with_history_entries(n)))
        .collect();
    let specs = RunSpec::grid(scale, &Workload::ALL, &kinds, telemetry, throttle);
    let evals = ParallelHarness::from_env().evaluate(&specs);
    let mut header = vec!["Workload".to_string()];
    header.extend(SIZES.iter().map(|s| format!("{}K", s / 1024)));
    let mut t = Table::new(header);
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let mut row = vec![w.name().to_string()];
        for j in 0..kinds.len() {
            row.push(pct(evals[i * kinds.len() + j].coverage.coverage));
        }
        t.row(row);
    }
    t.write_csv_if_requested("fig6_table_size");
    println!(
        "Figure 6. Bingo miss coverage vs. history-table entries\n\
         (paper: coverage plateaus beyond 16K entries).\n\n{t}"
    );
}
