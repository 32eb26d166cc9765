//! Trace capture tool: records the synthetic evaluation suite (and the
//! stress workloads) as framed `.btrc` captures for offline replay.
//!
//! ```text
//! trace_capture [--out DIR] [--workload NAME]... [--quick] [--verify]
//! ```
//!
//! Each workload lands in `DIR/<slug>/core<i>.btrc` (default
//! `target/traces/`), one stream per core of the paper's 4-core system,
//! sized to the current [`RunScale`] plus fetch-ahead slack so a replay
//! at the same scale never wraps. `BINGO_TRACE_CHUNK` overrides the
//! records-per-chunk of the written files (the chunk size bounds replay
//! memory; see EXPERIMENTS.md).
//!
//! `--verify` replays every fresh capture through the no-prefetcher
//! system and asserts the [`bingo_sim::SimResult`] is bit-for-bit the
//! live generator run — the round-trip guarantee that makes captures
//! trustworthy substitutes for the generators. The process exits nonzero
//! on any divergence.

use std::path::PathBuf;
use std::process::ExitCode;

use bingo_bench::{
    telemetry_from_env, throttle_from_env, trace_chunk_from_env, PrefetcherKind, RunScale, RunSpec,
    CAPTURE_SLACK,
};
use bingo_sim::SystemConfig;
use bingo_trace::DEFAULT_CHUNK_RECORDS;
use bingo_workloads::{capture_workload, TraceWorkload, Workload};

struct Args {
    out: PathBuf,
    workloads: Vec<Workload>,
    verify: bool,
}

fn suite() -> Vec<Workload> {
    Workload::ALL
        .iter()
        .chain(Workload::STRESS.iter())
        .copied()
        .collect()
}

fn parse_args() -> Args {
    let mut args = Args {
        out: PathBuf::from("target/traces"),
        workloads: Vec::new(),
        verify: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => args.out = PathBuf::from(it.next().expect("--out needs a path")),
            "--workload" => {
                let name = it.next().expect("--workload needs a name");
                let canon = |s: &str| s.replace([' ', '-'], "").to_ascii_lowercase();
                let w = *suite()
                    .iter()
                    .find(|w| canon(w.slug()) == canon(&name) || canon(w.name()) == canon(&name))
                    .unwrap_or_else(|| {
                        let slugs: Vec<&str> = suite().iter().map(|w| w.slug()).collect();
                        panic!("unknown workload {name:?}; valid slugs: {slugs:?}")
                    });
                if !args.workloads.contains(&w) {
                    args.workloads.push(w);
                }
            }
            "--verify" => args.verify = true,
            "--quick" => {} // consumed by RunScale::from_args
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if args.workloads.is_empty() {
        args.workloads = suite();
    }
    args
}

fn main() -> ExitCode {
    let scale = RunScale::from_args();
    let (telemetry, throttle) = (telemetry_from_env(), throttle_from_env());
    let args = parse_args();
    let cores = SystemConfig::paper().cores;
    let records = scale.warmup_per_core + scale.instructions_per_core + CAPTURE_SLACK;
    let chunk = trace_chunk_from_env().unwrap_or(DEFAULT_CHUNK_RECORDS);
    let mut mismatches = 0usize;

    for &w in &args.workloads {
        let dir = args.out.join(w.slug());
        capture_workload(w, cores, scale.seed, records, chunk, &dir).unwrap_or_else(|e| {
            panic!("capture of {} into {} failed: {e}", w.name(), dir.display())
        });
        let bytes: u64 = (0..cores)
            .filter_map(|i| std::fs::metadata(dir.join(format!("core{i}.btrc"))).ok())
            .map(|m| m.len())
            .sum();
        println!(
            "captured {:<14} {} records/core x {cores} cores ({} bytes) -> {}",
            w.name(),
            records,
            bytes,
            dir.display()
        );
        if !args.verify {
            continue;
        }
        let trace = TraceWorkload::open(&dir)
            .unwrap_or_else(|e| panic!("reopening capture {}: {e}", dir.display()));
        // Run directly, never from a checkpoint: this is the check.
        let kind = PrefetcherKind::None;
        let mut replayed = RunSpec::trace(scale, &trace, kind, telemetry, throttle)
            .run(None)
            .unwrap_or_else(|abort| panic!("replay of {} aborted: {abort}", dir.display()));
        let ingest = replayed
            .ingest
            .take()
            .expect("replay attaches an ingest report");
        let live = RunSpec::classic(scale, w, kind, telemetry, throttle)
            .run(None)
            .unwrap_or_else(|abort| panic!("live run of {} aborted: {abort}", w.name()));
        if !ingest.is_clean() {
            eprintln!(
                "VERIFY FAIL {}: fresh capture reported quarantine: {ingest}",
                w.name()
            );
            mismatches += 1;
        } else if live != replayed {
            eprintln!(
                "VERIFY FAIL {}: replayed SimResult diverges from the live generator run",
                w.name()
            );
            mismatches += 1;
        } else {
            println!("verified {:<14} replay == live (bit-for-bit)", w.name());
        }
    }

    if mismatches > 0 {
        eprintln!("{mismatches} capture(s) failed round-trip verification");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
