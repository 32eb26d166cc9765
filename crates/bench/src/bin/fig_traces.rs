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
//! the loader delivered and how many it quarantined, which must be zero
//! for a pristine corpus.

use std::path::PathBuf;

use bingo_bench::{
    ensure_capture, geometric_mean, pct, telemetry_from_env, throttle_from_env,
    trace_chunk_from_env, ParallelHarness, PrefetcherKind, RunScale, RunSpec, Table, CAPTURE_SLACK,
};
use bingo_sim::SystemConfig;
use bingo_trace::DEFAULT_CHUNK_RECORDS;
use bingo_workloads::{TraceWorkload, Workload};

fn parse_workloads(args: &[String]) -> Vec<Workload> {
    let mut picked = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--workload" {
            let name = args
                .get(i + 1)
                .unwrap_or_else(|| panic!("--workload requires a name"));
            let canon = |s: &str| s.replace([' ', '-'], "").to_ascii_lowercase();
            let w = *Workload::ALL
                .iter()
                .find(|w| canon(w.slug()) == canon(name) || canon(w.name()) == canon(name))
                .unwrap_or_else(|| {
                    let slugs: Vec<&str> = Workload::ALL.iter().map(|w| w.slug()).collect();
                    panic!("unknown workload {name:?}; valid slugs: {slugs:?}")
                });
            if !picked.contains(&w) {
                picked.push(w);
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    if picked.is_empty() {
        Workload::ALL.to_vec()
    } else {
        picked
    }
}

fn parse_traces_dir(args: &[String]) -> PathBuf {
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--traces" {
            return PathBuf::from(
                args.get(i + 1)
                    .unwrap_or_else(|| panic!("--traces requires a directory")),
            );
        }
        i += 1;
    }
    PathBuf::from("target/traces")
}

fn main() {
    let scale = RunScale::from_args();
    let (telemetry, throttle) = (telemetry_from_env(), throttle_from_env());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workloads = parse_workloads(&args);
    let root = parse_traces_dir(&args);
    let cores = SystemConfig::paper().cores;
    let records = scale.warmup_per_core + scale.instructions_per_core + CAPTURE_SLACK;
    let chunk = trace_chunk_from_env().unwrap_or(DEFAULT_CHUNK_RECORDS);

    let traces: Vec<TraceWorkload> = workloads
        .iter()
        .map(|&w| {
            let dir = root.join(w.slug());
            ensure_capture(w, cores, scale.seed, records, chunk, &dir)
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
        "Quarantined",
    ]);
    let mut speedups_by_kind: Vec<(String, Vec<f64>)> =
        kinds.iter().map(|k| (k.name(), Vec::new())).collect();
    let mut quarantined_total = 0u64;
    for (idx, e) in evals.iter().enumerate() {
        let ingest = e
            .result
            .ingest
            .as_ref()
            .expect("trace replays attach an ingest report");
        quarantined_total += ingest.quarantined_records;
        t.row(vec![
            traces[idx / kinds.len()].name().to_string(),
            kinds[idx % kinds.len()].name(),
            pct(e.coverage.coverage),
            pct(e.coverage.overprediction),
            format!("{:.3}x", e.speedup),
            ingest.delivered_records.to_string(),
            ingest.quarantined_records.to_string(),
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
            String::new(),
        ]);
    }

    t.write_csv_if_requested("fig_traces");
    println!(
        "Recorded-trace replay: headline prefetchers on the captured\n\
         corpus under {} (streamed chunk-at-a-time; quarantined must be 0\n\
         for a pristine corpus).\n\n{t}",
        root.display()
    );
    assert_eq!(
        quarantined_total, 0,
        "pristine corpus reported quarantined records — the capture or the loader is corrupt"
    );
}
