//! Figure 7 — miss coverage and overprediction of all six prefetchers on
//! every workload (overprediction normalized to baseline misses).
//!
//! The paper reports Bingo covering >63% of misses on average, 8% above
//! the second-best prefetcher, with overprediction on par with the rest.

use bingo_bench::{
    mean, pct, telemetry_from_env, throttle_from_env, ParallelHarness, PrefetcherKind, RunScale,
    RunSpec, Table,
};
use bingo_workloads::Workload;

fn main() {
    let scale = RunScale::from_args();
    let (telemetry, throttle) = (telemetry_from_env(), throttle_from_env());
    let kinds = PrefetcherKind::HEADLINE;
    let specs = RunSpec::grid(scale, &Workload::ALL, &kinds, telemetry, throttle);
    let evals = ParallelHarness::from_env().evaluate(&specs);
    let mut t = Table::new(vec![
        "Workload",
        "Prefetcher",
        "Coverage",
        "Overprediction",
        "Accuracy",
        "Timeliness",
    ]);
    let mut avg: Vec<(String, Vec<f64>, Vec<f64>)> = kinds
        .iter()
        .map(|k| (k.name(), Vec::new(), Vec::new()))
        .collect();
    for (idx, e) in evals.iter().enumerate() {
        let i = idx % kinds.len();
        t.row(vec![
            Workload::ALL[idx / kinds.len()].name().to_string(),
            kinds[i].name(),
            pct(e.coverage.coverage),
            pct(e.coverage.overprediction),
            pct(e.coverage.accuracy),
            pct(e.coverage.timeliness),
        ]);
        avg[i].1.push(e.coverage.coverage);
        avg[i].2.push(e.coverage.overprediction);
    }
    for (name, covs, ovs) in &avg {
        t.row(vec![
            "Average".to_string(),
            name.clone(),
            pct(mean(covs)),
            pct(mean(ovs)),
            String::new(),
            String::new(),
        ]);
    }
    println!(
        "Figure 7. Coverage and overprediction of all prefetchers\n\
         (paper: Bingo highest coverage on every workload, >63% average).\n\n{t}"
    );
}
