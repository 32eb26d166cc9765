//! Corpus-driven replay figure: every headline prefetcher replayed on
//! *recorded* instruction streams instead of the live generators.
//!
//! ```text
//! fig_traces [--traces DIR] [--workload NAME]... [--quick]
//! ```
//!
//! Missing captures, and captures too short for the current [`RunScale`]
//! (they would wrap during replay), are recorded on the fly into `DIR`
//! (default `target/traces/`, the `trace_capture` tool's default); then
//! the (trace × prefetcher) grid runs through
//! [`ParallelHarness::evaluate`] with per-trace no-prefetcher baselines. Because capture and replay are bit-for-bit (see the
//! `trace_capture --verify` round trip), the numbers here match the
//! generator-driven Fig. 7/8 sweeps at the same scale — what the figure
//! *adds* is the ingestion evidence: every row reports how many records
//! the loader delivered. A damaged capture fails its cells with the
//! reader's typed error, byte offset included, and the binary exits
//! nonzero.

use std::path::PathBuf;

use bingo_bench::{
    ensure_capture, flag_value, geometric_mean, pct, telemetry_from_env, throttle_from_env,
    workload_args, ParallelHarness, PrefetcherKind, RunScale, RunSpec, Table, CAPTURE_SLACK,
};
use bingo_sim::SystemConfig;
use bingo_trace::DEFAULT_CHUNK_RECORDS;
use bingo_workloads::{TraceWorkload, Workload};

fn main() {
    let scale = RunScale::from_args();
    let (telemetry, throttle) = (telemetry_from_env(), throttle_from_env());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workloads = workload_args(&args, &Workload::ALL);
    let root =
        PathBuf::from(flag_value(&args, "--traces").unwrap_or_else(|| "target/traces".into()));
    let cores = SystemConfig::paper().cores;
    let records = scale.warmup_per_core + scale.instructions_per_core + CAPTURE_SLACK;

    let traces: Vec<TraceWorkload> = workloads
        .iter()
        .map(|&w| {
            let dir = root.join(w.slug());
            ensure_capture(w, cores, scale.seed, records, DEFAULT_CHUNK_RECORDS, &dir)
                .unwrap_or_else(|e| panic!("capture of {} in {}: {e}", w.name(), dir.display()))
        })
        .collect();

    let kinds = PrefetcherKind::HEADLINE;
    let specs: Vec<RunSpec> = traces
        .iter()
        .flat_map(|t| {
            kinds
                .iter()
                .map(move |&k| RunSpec::trace(scale, t, k, telemetry, throttle))
        })
        .collect();
    let evals = ParallelHarness::from_env().evaluate(&specs);

    let mut t = Table::new(vec![
        "Trace",
        "Prefetcher",
        "Coverage",
        "Overpred",
        "Speedup",
        "Delivered",
    ]);
    let mut speedups_by_kind: Vec<(String, Vec<f64>)> =
        kinds.iter().map(|k| (k.name(), Vec::new())).collect();
    for (idx, e) in evals.iter().enumerate() {
        let ingest = e
            .result
            .ingest
            .as_ref()
            .expect("trace replays attach an ingest report");
        t.row(vec![
            traces[idx / kinds.len()].name().to_string(),
            kinds[idx % kinds.len()].name(),
            pct(e.coverage.coverage),
            pct(e.coverage.overprediction),
            format!("{:.3}x", e.speedup),
            ingest.delivered_records.to_string(),
        ]);
        speedups_by_kind[idx % kinds.len()].1.push(e.speedup);
    }
    for (name, vals) in &speedups_by_kind {
        t.row(vec![
            "Geomean".to_string(),
            name.clone(),
            String::new(),
            String::new(),
            format!("{:.3}x", geometric_mean(vals)),
            String::new(),
        ]);
    }

    println!(
        "Recorded-trace replay: headline prefetchers on the captured\n\
         corpus under {} (streamed chunk-at-a-time).\n\n{t}",
        root.display()
    );
}
