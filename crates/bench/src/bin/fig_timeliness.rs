//! Prefetch-lifecycle timeliness breakdown (observability companion to
//! Fig. 7): for every workload × headline prefetcher, the full fate of
//! every issued prefetch — used timely, used late, evicted unused, or
//! dropped before issue — plus the average fill latency, from the
//! [`bingo_sim::TelemetryReport`] attached to each run.
//!
//! A second table attributes Bingo's prefetches to the originating event
//! kind (long `PC+Address` event vs voted short `PC+Offset` event) and
//! reports per-event-kind accuracy — the observable counterpart of the
//! paper's Fig. 2 accuracy argument.
//!
//! Telemetry is always `counts` here (this binary is *about* telemetry);
//! a garbage `BINGO_TELEMETRY` still aborts. Pass `--workload <name>`
//! (repeatable; a slug, paper name or variant name) to restrict the sweep —
//! the CI smoke job runs a single cheap workload this way.

use bingo_bench::{
    f2, mean, pct, telemetry_from_env, throttle_from_env, workload_args, ParallelHarness,
    PrefetcherKind, RunScale, RunSpec, Table,
};
use bingo_sim::{SourceCounters, TelemetryLevel, TelemetryReport};
use bingo_workloads::Workload;

fn report(e: &bingo_bench::Evaluation) -> &TelemetryReport {
    e.result
        .telemetry
        .as_ref()
        .expect("harness runs with telemetry enabled")
}

fn source_timeliness(c: &SourceCounters) -> f64 {
    let used = c.timely + c.late;
    if used == 0 {
        0.0
    } else {
        c.timely as f64 / used as f64
    }
}

fn main() {
    let scale = RunScale::from_args();
    let telemetry = match telemetry_from_env() {
        TelemetryLevel::Off => TelemetryLevel::Counts,
        level => level,
    };
    let throttle = throttle_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workloads = workload_args(&args, &Workload::ALL);
    let kinds = PrefetcherKind::HEADLINE;
    let specs = RunSpec::grid(scale, &workloads, &kinds, telemetry, throttle);
    let evals = ParallelHarness::from_env().evaluate(&specs);

    let mut t = Table::new(vec![
        "Workload",
        "Prefetcher",
        "Coverage",
        "Accuracy",
        "Timeliness",
        "Timely",
        "Late",
        "Unused",
        "Dropped",
        "Fill lat",
    ]);
    let mut timeliness_by_kind: Vec<(String, Vec<f64>)> =
        kinds.iter().map(|k| (k.name(), Vec::new())).collect();
    let workload_of = |idx: usize| workloads[idx / kinds.len()].name().to_string();
    for (idx, e) in evals.iter().enumerate() {
        let r = report(e);
        t.row(vec![
            workload_of(idx),
            kinds[idx % kinds.len()].name(),
            pct(e.coverage.coverage),
            pct(r.accuracy()),
            pct(r.timeliness()),
            r.timely.to_string(),
            r.late.to_string(),
            r.unused.to_string(),
            (r.dropped_duplicate + r.dropped_mshr).to_string(),
            f2(r.avg_fill_latency()),
        ]);
        timeliness_by_kind[idx % kinds.len()].1.push(r.timeliness());
    }
    for (name, vals) in &timeliness_by_kind {
        t.row(vec![
            "Average".to_string(),
            name.clone(),
            String::new(),
            String::new(),
            pct(mean(vals)),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }

    let mut s = Table::new(vec![
        "Workload",
        "Event kind",
        "Issued",
        "Accuracy",
        "Timeliness",
    ]);
    for (idx, e) in evals.iter().enumerate() {
        if kinds[idx % kinds.len()] != PrefetcherKind::Bingo {
            continue;
        }
        for (label, c) in &report(e).by_source {
            s.row(vec![
                workload_of(idx),
                label.clone(),
                c.issued.to_string(),
                pct(c.accuracy()),
                pct(source_timeliness(c)),
            ]);
        }
    }

    println!(
        "Prefetch lifecycle: timeliness and attribution of every issued\n\
         prefetch (timely + late + unused = issued minus still-in-flight).\n\n{t}"
    );
    println!(
        "Bingo prefetches by originating event kind (long = PC+Address\n\
         history replay, short = voted PC+Offset footprints).\n\n{s}"
    );
}
