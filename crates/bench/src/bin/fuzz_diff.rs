//! Differential fuzzer CLI: real prefetchers vs their oracles.
//!
//! ```text
//! fuzz_diff [--traces N] [--out DIR]      run the fuzz sweep (default 125
//!                                         seeds x 4 presets = 500 traces)
//! fuzz_diff --fault [--out DIR]           demonstrate detection: find a
//!                                         seeded-fault divergence, shrink
//!                                         it, and write the minimal trace
//! fuzz_diff --throttle [--traces N]       sweep throttled Bingo against
//!                                         the unthrottled spec: the burst
//!                                         must stay a subsequence of the
//!                                         spec's at every step (exact at
//!                                         Full), under a deterministic
//!                                         level schedule
//! ```
//!
//! The sweep replays every generated trace through clean Bingo under all
//! [`bingo_config_variants`] geometries against `SpecBingo`, and through
//! the stride/BOP/next-line/SMS baselines against their invariant oracles.
//! On any divergence the failing trace is shrunk and written to `--out`
//! (default `target/differential/`), and the process exits nonzero — CI
//! uploads that directory as an artifact. `--fault` runs the same loop
//! with a deliberately corrupted Bingo ([`bingo::Bingo::with_faults`]) and
//! *expects* a divergence; it exits nonzero if none is found, because that
//! would mean the harness has lost its detection power.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bingo::{Bingo, BingoConfig};
use bingo_baselines::{Bop, BopConfig, Sms, SmsConfig, StrideConfig, StridePrefetcher};
use bingo_bench::differential::{
    bingo_config_variants, diff_bingo, diff_bingo_instances, diff_bingo_throttled, fuzz_baseline,
    fuzz_bingo, FuzzFailure,
};
use bingo_oracle::{
    generate, shrink, BopOracle, GeneratorConfig, NextLineOracle, SmsOracle, SpecBingo,
    StrideOracle,
};
use bingo_sim::{FaultPlan, NextLinePrefetcher, PrefetchTrace};

/// A fresh (prefetcher, oracle) pair for one baseline fuzz replay.
type OraclePair = (
    Box<dyn bingo_sim::Prefetcher>,
    Box<dyn bingo_oracle::StepOracle>,
);
type MakePair = Box<dyn FnMut(bingo_sim::RegionGeometry) -> OraclePair>;

struct Args {
    traces_per_preset: u64,
    out: PathBuf,
    fault: bool,
    throttle: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        traces_per_preset: 125,
        out: PathBuf::from("target/differential"),
        fault: false,
        throttle: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--traces" => {
                let n: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--traces needs a number");
                args.traces_per_preset = n.div_ceil(GeneratorConfig::all().len() as u64).max(1);
            }
            "--out" => args.out = PathBuf::from(it.next().expect("--out needs a path")),
            "--fault" => args.fault = true,
            "--throttle" => args.throttle = true,
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn write_trace(dir: &Path, name: &str, header: &str, trace: &PrefetchTrace) -> PathBuf {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("creating output dir {}: {e}", dir.display()));
    let path = dir.join(name);
    let mut text = String::new();
    for line in header.lines() {
        text.push_str(&format!("# {line}\n"));
    }
    text.push_str(&trace.to_text());
    std::fs::write(&path, text)
        .unwrap_or_else(|e| panic!("writing shrunk trace {}: {e}", path.display()));
    path
}

fn report_failure(out: &Path, who: &str, f: &FuzzFailure, shrunk: &PrefetchTrace) -> PathBuf {
    let header = format!(
        "differential mismatch: {who}\nseed {} variant {}\n{}",
        f.seed, f.variant, f.mismatch
    );
    write_trace(out, &format!("mismatch_{who}.txt"), &header, shrunk)
}

fn run_sweep(args: &Args) -> ExitCode {
    let seeds = 0..args.traces_per_preset;
    let mut total_traces = 0usize;
    let mut total_events = 0usize;

    for (pi, gen) in GeneratorConfig::all().iter().enumerate() {
        // Disjoint seed ranges per preset so every trace is distinct.
        let base = pi as u64 * args.traces_per_preset;
        let range = base..base + seeds.end;

        match fuzz_bingo(gen, range.clone(), diff_bingo) {
            Ok(r) => {
                total_traces += r.traces;
                total_events += r.events;
            }
            Err(f) => {
                let cfg = bingo_config_variants(f.trace.geometry())
                    .into_iter()
                    .find(|(n, _)| *n == f.variant)
                    .map(|(_, c)| c)
                    .expect("variant came from the same table");
                let shrunk = bingo_bench::shrink_bingo_mismatch(&cfg, &f.trace);
                let path = report_failure(&args.out, "bingo", &f, &shrunk);
                eprintln!(
                    "FAIL bingo: {}\nshrunk trace: {}",
                    f.mismatch,
                    path.display()
                );
                return ExitCode::FAILURE;
            }
        }

        let baselines: Vec<(&str, MakePair)> = vec![
            (
                "stride",
                Box::new(|_g| {
                    let cfg = StrideConfig::typical();
                    (
                        Box::new(StridePrefetcher::new(cfg)) as Box<dyn bingo_sim::Prefetcher>,
                        Box::new(StrideOracle::new(&cfg)) as Box<dyn bingo_oracle::StepOracle>,
                    )
                }),
            ),
            (
                "bop",
                Box::new(|_g| {
                    let cfg = BopConfig::paper();
                    (
                        Box::new(Bop::new(cfg.clone())) as _,
                        Box::new(BopOracle::new(&cfg)) as _,
                    )
                }),
            ),
            (
                "next-line",
                Box::new(|_g| {
                    (
                        Box::new(NextLinePrefetcher::new(4)) as _,
                        Box::new(NextLineOracle::new(4)) as _,
                    )
                }),
            ),
            (
                "sms",
                Box::new(|g| {
                    let cfg = SmsConfig {
                        region: g,
                        ..SmsConfig::paper()
                    };
                    (
                        Box::new(Sms::new(cfg)) as _,
                        Box::new(SmsOracle::new(g)) as _,
                    )
                }),
            ),
        ];
        for (who, mut make) in baselines {
            match fuzz_baseline(gen, range.clone(), &mut *make) {
                Ok(r) => {
                    total_traces += r.traces;
                    total_events += r.events;
                }
                Err(f) => {
                    let path = report_failure(&args.out, who, &f, &f.trace);
                    eprintln!("FAIL {who}: {}\ntrace: {}", f.mismatch, path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    println!(
        "differential sweep clean: {total_traces} trace replays, {total_events} events, \
         {} Bingo config variants, 4 baseline oracles",
        bingo_config_variants(Default::default()).len()
    );
    ExitCode::SUCCESS
}

/// Sweeps throttled Bingo against the unthrottled spec (see
/// [`bingo_bench::differential::diff_bingo_throttled`]): with the level
/// walked up and down a deterministic schedule, every burst must stay an
/// ordered subsequence of the spec's, exactly equal whenever the schedule
/// says `Full`. Seed ranges are offset from the main sweep's so the two
/// modes cover disjoint traces.
fn run_throttle_sweep(args: &Args) -> ExitCode {
    const SEED_BASE: u64 = 31_000;
    let mut total_traces = 0usize;
    let mut total_events = 0usize;
    for (pi, gen) in GeneratorConfig::all().iter().enumerate() {
        let base = SEED_BASE + pi as u64 * args.traces_per_preset;
        match fuzz_bingo(
            gen,
            base..base + args.traces_per_preset,
            diff_bingo_throttled,
        ) {
            Ok(r) => {
                total_traces += r.traces;
                total_events += r.events;
            }
            Err(f) => {
                let cfg = bingo_config_variants(f.trace.geometry())
                    .into_iter()
                    .find(|(n, _)| *n == f.variant)
                    .map(|(_, c)| c)
                    .expect("variant came from the same table");
                let shrunk = shrink(&f.trace, &mut |t| diff_bingo_throttled(&cfg, t).is_err());
                let path = report_failure(&args.out, "bingo_throttled", &f, &shrunk);
                eprintln!(
                    "FAIL throttled bingo: {}\nshrunk trace: {}",
                    f.mismatch,
                    path.display()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "throttled differential sweep clean: {total_traces} trace replays, {total_events} \
         events, {} Bingo config variants, subtractive contract held at every step",
        bingo_config_variants(Default::default()).len()
    );
    ExitCode::SUCCESS
}

/// Finds a trace on which a fault-injected Bingo diverges from the clean
/// spec, shrinks it under the same (deterministic) faulty predicate, and
/// writes the minimal trace. This is the harness's self-test: if a 10%
/// metadata-corruption rate can hide from the diff, a real bug could too.
fn run_fault_demo(args: &Args) -> ExitCode {
    const FAULT_SEED: u64 = 7;
    const FAULT_RATE: f64 = 0.1;
    let gen = GeneratorConfig::small();
    let diverges = |trace: &PrefetchTrace| {
        let cfg = BingoConfig {
            region: trace.geometry(),
            ..BingoConfig::paper()
        };
        let mut real = Bingo::with_faults(cfg, FaultPlan::uniform(FAULT_SEED, FAULT_RATE));
        let mut spec = SpecBingo::new(cfg);
        diff_bingo_instances(&mut real, &mut spec, trace).is_err()
    };
    for seed in 0..200 {
        let trace = generate(&gen, seed);
        if !diverges(&trace) {
            continue;
        }
        let shrunk = shrink(&trace, &mut |t| diverges(t));
        let header = format!(
            "fault-detection demo: Bingo with FaultPlan::uniform(seed={FAULT_SEED}, rate={FAULT_RATE})\n\
             diverges from SpecBingo on this trace (generator seed {seed}, shrunk from {} to {} events).\n\
             A clean Bingo must match the spec exactly on it.",
            trace.len(),
            shrunk.len()
        );
        let path = write_trace(&args.out, "fault_divergence.txt", &header, &shrunk);
        println!(
            "fault divergence found at generator seed {seed}; shrunk {} -> {} events: {}",
            trace.len(),
            shrunk.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }
    eprintln!("no divergence in 200 traces — the differential harness lost its detection power");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.fault {
        run_fault_demo(&args)
    } else if args.throttle {
        run_throttle_sweep(&args)
    } else {
        run_sweep(&args)
    }
}
