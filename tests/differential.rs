//! Differential regression tests: the committed trace corpus plus a
//! fixed-seed fuzz smoke budget, run as ordinary `cargo test`.
//!
//! The corpus in `tests/corpus/` holds small, readable traces — targeted
//! scenarios (long-event replay, short-vote generalization, region-boundary
//! straddles, trigger/retrigger races, eviction-before-fill) plus the
//! shrunk counterexample produced by fault injection. Every trace is
//! replayed through the real Bingo under every fuzzer config variant and
//! diffed step-by-step against `SpecBingo`, and through the baseline
//! prefetchers against their invariant oracles. The full 500-trace budget
//! runs in release mode via `cargo run --release -p bingo-bench --bin
//! fuzz_diff` (the CI `differential` job); the smoke sweep here keeps the
//! same machinery honest in debug builds.
//!
//! On a fuzz divergence the failing trace is shrunk and written to
//! `target/differential/` (override with `BINGO_DIFF_DIR`) so it can be
//! reviewed and, once understood, committed to the corpus.

use std::fs;
use std::path::PathBuf;

use bingo::{Bingo, BingoConfig};
use bingo_baselines::{Bop, BopConfig, Sms, SmsConfig, StrideConfig, StridePrefetcher};
use bingo_bench::differential::{
    bingo_config_variants, diff_bingo, diff_bingo_instances, diff_bingo_throttled,
    diff_with_oracle, fuzz_baseline, fuzz_bingo, shrink_bingo_mismatch,
};
use bingo_oracle::{
    BopOracle, GeneratorConfig, NextLineOracle, SmsOracle, SpecBingo, StrideOracle,
};
use bingo_sim::{FaultPlan, NextLinePrefetcher, PrefetchTrace};

/// Seeds per generator preset for the in-test smoke sweep. The release-mode
/// `fuzz_diff` binary covers 125 per preset (500 traces); debug builds get
/// a slice of the same seed space.
const SMOKE_SEEDS: u64 = 6;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn artifact_dir() -> PathBuf {
    std::env::var_os("BINGO_DIFF_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/differential"))
}

fn corpus_traces() -> Vec<(String, PrefetchTrace)> {
    let mut traces = Vec::new();
    for entry in fs::read_dir(corpus_dir()).expect("tests/corpus exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_none_or(|e| e != "txt") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = fs::read_to_string(&path).expect("readable corpus file");
        let trace = PrefetchTrace::parse_text(&text)
            .unwrap_or_else(|e| panic!("{name}: corpus trace does not parse: {e}"));
        traces.push((name, trace));
    }
    assert!(traces.len() >= 6, "corpus went missing? found {traces:?}");
    traces
}

#[test]
fn corpus_bingo_matches_spec_under_every_config_variant() {
    for (name, trace) in corpus_traces() {
        for (variant, cfg) in bingo_config_variants(trace.geometry()) {
            if let Err(m) = diff_bingo(&cfg, &trace) {
                panic!("{name} under {variant}: {m}");
            }
        }
    }
}

/// The subtractive-throttling contract on every committed corpus trace:
/// with the throttle level walked up and down a deterministic schedule,
/// the real Bingo's burst stays an ordered subsequence of the unthrottled
/// spec's at every step, matches it exactly at Full, and trigger
/// classification (hence training) is untouched.
#[test]
fn corpus_throttled_bingo_stays_a_subset_of_the_spec() {
    for (name, trace) in corpus_traces() {
        for (variant, cfg) in bingo_config_variants(trace.geometry()) {
            if let Err(m) = diff_bingo_throttled(&cfg, &trace) {
                panic!("{name} under {variant}: {m}");
            }
        }
    }
}

#[test]
fn fuzz_smoke_throttled_bingo_stays_a_subset_of_the_spec() {
    for (pi, gen) in GeneratorConfig::all().iter().enumerate() {
        let base = 31_000 + pi as u64 * SMOKE_SEEDS;
        if let Err(f) = fuzz_bingo(gen, base..base + SMOKE_SEEDS, diff_bingo_throttled) {
            panic!("seed {} variant {}: {}", f.seed, f.variant, f.mismatch);
        }
    }
}

#[test]
fn corpus_baselines_satisfy_their_invariant_oracles() {
    for (name, trace) in corpus_traces() {
        let g = trace.geometry();

        let stride_cfg = StrideConfig::typical();
        let mut stride = StridePrefetcher::new(stride_cfg);
        let mut stride_oracle = StrideOracle::new(&stride_cfg);
        diff_with_oracle(&mut stride, &mut stride_oracle, &trace)
            .unwrap_or_else(|m| panic!("{name}: {m}"));

        let bop_cfg = BopConfig::paper();
        let mut bop = Bop::new(bop_cfg.clone());
        let mut bop_oracle = BopOracle::new(&bop_cfg);
        diff_with_oracle(&mut bop, &mut bop_oracle, &trace)
            .unwrap_or_else(|m| panic!("{name}: {m}"));

        let mut next = NextLinePrefetcher::new(4);
        let mut next_oracle = NextLineOracle::new(4);
        diff_with_oracle(&mut next, &mut next_oracle, &trace)
            .unwrap_or_else(|m| panic!("{name}: {m}"));

        let sms_cfg = SmsConfig {
            region: g,
            ..SmsConfig::paper()
        };
        let mut sms = Sms::new(sms_cfg);
        let mut sms_oracle = SmsOracle::new(g);
        diff_with_oracle(&mut sms, &mut sms_oracle, &trace)
            .unwrap_or_else(|m| panic!("{name}: {m}"));
    }
}

/// The committed fault trace must keep both of its properties: a clean
/// Bingo matches the spec on it, and the exact fault plan that produced it
/// (`FaultPlan::uniform(7, 0.1)`, recorded in the trace header and in
/// `fuzz_diff --fault`) still diverges. Losing the second property means
/// the harness can no longer detect the corruption it once caught.
#[test]
fn fault_divergence_trace_still_reproduces() {
    let text = fs::read_to_string(corpus_dir().join("fault_divergence.txt"))
        .expect("fault_divergence.txt is committed");
    let trace = PrefetchTrace::parse_text(&text).expect("parses");
    let cfg = BingoConfig {
        region: trace.geometry(),
        ..BingoConfig::paper()
    };

    diff_bingo(&cfg, &trace).expect("clean Bingo must match the spec on the fault trace");

    let mut faulty = Bingo::with_faults(cfg, FaultPlan::uniform(7, 0.1));
    let mut spec = SpecBingo::new(cfg);
    let diverged = diff_bingo_instances(&mut faulty, &mut spec, &trace);
    assert!(
        diverged.is_err(),
        "the recorded fault plan no longer diverges on the committed trace"
    );
}

#[test]
fn fuzz_smoke_bingo_matches_spec() {
    for (pi, gen) in GeneratorConfig::all().iter().enumerate() {
        let base = pi as u64 * SMOKE_SEEDS;
        if let Err(f) = fuzz_bingo(gen, base..base + SMOKE_SEEDS, diff_bingo) {
            let variant_cfg = bingo_config_variants(f.trace.geometry())
                .into_iter()
                .find(|(n, _)| *n == f.variant)
                .map(|(_, c)| c)
                .expect("variant name from the same table");
            let shrunk = shrink_bingo_mismatch(&variant_cfg, &f.trace);
            let dir = artifact_dir();
            fs::create_dir_all(&dir).expect("create artifact dir");
            let path = dir.join("mismatch_bingo.txt");
            fs::write(
                &path,
                format!(
                    "# seed {} variant {}\n# {}\n{}",
                    f.seed,
                    f.variant,
                    f.mismatch,
                    shrunk.to_text()
                ),
            )
            .expect("write artifact");
            panic!(
                "seed {} variant {}: {}\nshrunk trace written to {}",
                f.seed,
                f.variant,
                f.mismatch,
                path.display()
            );
        }
    }
}

#[test]
fn fuzz_smoke_baselines_satisfy_their_oracles() {
    for (pi, gen) in GeneratorConfig::all().iter().enumerate() {
        let base = pi as u64 * SMOKE_SEEDS;
        let seeds = base..base + SMOKE_SEEDS;

        fuzz_baseline(gen, seeds.clone(), |_g| {
            let cfg = StrideConfig::typical();
            (
                Box::new(StridePrefetcher::new(cfg)),
                Box::new(StrideOracle::new(&cfg)),
            )
        })
        .unwrap_or_else(|f| panic!("stride seed {}: {}", f.seed, f.mismatch));

        fuzz_baseline(gen, seeds.clone(), |_g| {
            let cfg = BopConfig::paper();
            (
                Box::new(Bop::new(cfg.clone())),
                Box::new(BopOracle::new(&cfg)),
            )
        })
        .unwrap_or_else(|f| panic!("bop seed {}: {}", f.seed, f.mismatch));

        fuzz_baseline(gen, seeds.clone(), |_g| {
            (
                Box::new(NextLinePrefetcher::new(4)),
                Box::new(NextLineOracle::new(4)),
            )
        })
        .unwrap_or_else(|f| panic!("next-line seed {}: {}", f.seed, f.mismatch));

        fuzz_baseline(gen, seeds, |g| {
            let cfg = SmsConfig {
                region: g,
                ..SmsConfig::paper()
            };
            (Box::new(Sms::new(cfg)), Box::new(SmsOracle::new(g)))
        })
        .unwrap_or_else(|f| panic!("sms seed {}: {}", f.seed, f.mismatch));
    }
}
