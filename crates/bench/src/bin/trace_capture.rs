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
//! at the same scale never wraps. Every file is written with
//! [`DEFAULT_CHUNK_RECORDS`] records per chunk (the chunk size bounds
//! replay memory; see EXPERIMENTS.md).
//!
//! `--verify` replays every fresh capture through the no-prefetcher
//! system and asserts the [`bingo_sim::SimResult`] is bit-for-bit the
//! live generator run — the round-trip guarantee that makes captures
//! trustworthy substitutes for the generators. The process exits nonzero
//! on any divergence.

use std::path::PathBuf;
use std::process::ExitCode;

use bingo_bench::{
    flag_value, knobs, workload_args, PrefetcherKind, RunScale, RunSpec, CAPTURE_SLACK,
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
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut verify = false;
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            // Their values are read below.
            "--out" | "--workload" => {
                it.next();
            }
            "--verify" => verify = true,
            "--quick" => {} // consumed by RunScale::from_args
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    Args {
        out: PathBuf::from(flag_value(&raw, "--out").unwrap_or_else(|| "target/traces".into())),
        workloads: workload_args(&raw, &suite()),
        verify,
    }
}

fn main() -> ExitCode {
    let scale = RunScale::from_args();
    knobs::reject_retired();
    let args = parse_args();
    let cores = SystemConfig::paper().cores;
    let records = scale.warmup_per_core + scale.instructions_per_core + CAPTURE_SLACK;
    let mut mismatches = 0usize;

    for &w in &args.workloads {
        let dir = args.out.join(w.slug());
        capture_workload(w, cores, scale.seed, records, DEFAULT_CHUNK_RECORDS, &dir)
            .unwrap_or_else(|e| {
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
        let mut replayed = RunSpec::trace(scale, &trace, kind)
            .run(None)
            .unwrap_or_else(|abort| panic!("replay of {} aborted: {abort}", dir.display()));
        // Only a replay attaches an ingest report; strip it so the
        // comparison with the live run covers everything else.
        replayed
            .ingest
            .take()
            .expect("replay attaches an ingest report");
        let live = RunSpec::classic(scale, w, kind)
            .run(None)
            .unwrap_or_else(|abort| panic!("live run of {} aborted: {abort}", w.name()));
        if live != replayed {
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
