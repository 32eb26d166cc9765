//! Differential verification harness: real prefetchers vs their oracles.
//!
//! This module is the glue between three independently written pieces —
//! the optimized prefetchers (`bingo`, `bingo-baselines`), the executable
//! specification and invariant oracles (`bingo-oracle`), and the
//! step-level trace replay (`bingo-sim::replay`). A trace is replayed
//! through the real prefetcher one event at a time; the oracle sees the
//! same stimuli plus what the real side emitted, and the first divergence
//! is reported as a [`Mismatch`] naming the event index and both sides'
//! bursts. Fuzzing drivers ([`fuzz_bingo`], [`fuzz_baseline`]) sweep
//! seeded adversarial traces over a matrix of table geometries, and
//! [`shrink_bingo_mismatch`] reduces any counterexample to a minimal
//! trace fit for `tests/corpus/`.
//!
//! For Bingo the comparison is exact and three-way: trigger classification,
//! prediction source, and the full candidate burst must all match
//! [`SpecBingo`] at every step. For the baselines the oracles check
//! per-burst invariants instead (see `bingo-oracle`'s crate docs).

use std::fmt;
use std::ops::Range;

use bingo::{Bingo, BingoConfig};
use bingo_oracle::{generate, shrink, GeneratorConfig, SpecBingo, StepOracle};
use bingo_sim::AccessInfo;
use bingo_sim::{
    BlockAddr, Pc, PrefetchEvent, PrefetchTrace, Prefetcher, RegionGeometry, ReplayStep,
    ThrottleLevel,
};

/// The first divergence found while replaying a trace against an oracle.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// Name of the oracle that flagged the divergence.
    pub oracle: String,
    /// Index of the offending event within the trace.
    pub index: usize,
    /// The offending event.
    pub event: PrefetchEvent,
    /// Human-readable explanation of what diverged.
    pub detail: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] event {} ({:?}): {}",
            self.oracle, self.index, self.event, self.detail
        )
    }
}

fn blocks_hex(blocks: &[BlockAddr]) -> String {
    let inner: Vec<String> = blocks.iter().map(|b| format!("{:#x}", b.index())).collect();
    format!("[{}]", inner.join(", "))
}

/// Replays `trace` through already-constructed real and spec Bingo
/// instances, diffing every step exactly: the real side stays at
/// [`ThrottleLevel::Full`] throughout.
///
/// Exposed separately from [`diff_bingo`] so callers can pair a spec with
/// a [`Bingo::with_faults`] instance — the fault-detection test needs
/// precisely that asymmetry.
///
/// # Errors
///
/// The first step where trigger classification, prediction source, or the
/// emitted burst differ.
///
/// # Panics
///
/// Panics if the two sides or the trace disagree on region geometry —
/// that is a harness bug, not a prefetcher bug.
pub fn diff_bingo_instances(
    real: &mut Bingo,
    spec: &mut SpecBingo,
    trace: &PrefetchTrace,
) -> Result<(), Mismatch> {
    diff_bingo_scheduled(real, spec, trace, |_| ThrottleLevel::Full)
}

/// Replays `trace` through a fresh clean [`Bingo`] built from `cfg` and a
/// fresh [`SpecBingo`], diffing every step exactly.
///
/// # Errors
///
/// See [`diff_bingo_instances`].
///
/// # Panics
///
/// Panics if `cfg.region` does not match the trace geometry.
pub fn diff_bingo(cfg: &BingoConfig, trace: &PrefetchTrace) -> Result<(), Mismatch> {
    let mut real = Bingo::new(*cfg);
    let mut spec = SpecBingo::new(*cfg);
    diff_bingo_instances(&mut real, &mut spec, trace)
}

/// Replays `trace` through any [`Prefetcher`], feeding every step to a
/// [`StepOracle`] and stopping at the first violation.
///
/// # Errors
///
/// The first event the oracle rejects, with its explanation.
pub fn diff_with_oracle(
    prefetcher: &mut dyn Prefetcher,
    oracle: &mut dyn StepOracle,
    trace: &PrefetchTrace,
) -> Result<(), Mismatch> {
    let mut failure: Option<Mismatch> = None;
    trace.replay_with(prefetcher, |i, step| {
        let verdict = match step {
            ReplayStep::Access { info, emitted } => oracle.check_access(&info, emitted),
            ReplayStep::Evict { block } => oracle.check_eviction(block),
        };
        match verdict {
            Ok(()) => true,
            Err(detail) => {
                failure = Some(Mismatch {
                    oracle: oracle.name().to_string(),
                    index: i,
                    event: trace.events()[i],
                    detail,
                });
                false
            }
        }
    });
    match failure {
        Some(m) => Err(m),
        None => Ok(()),
    }
}

/// The deterministic throttle-level schedule the throttled differential
/// drives: a fixed dwell per rung, walking the ladder down and back up so
/// every level and both transition directions are exercised, keyed purely
/// by the event index so replays are reproducible.
pub fn throttle_schedule(step: usize) -> ThrottleLevel {
    const LADDER: [ThrottleLevel; 6] = [
        ThrottleLevel::Full,
        ThrottleLevel::RaisedVote,
        ThrottleLevel::TriggerOnly,
        ThrottleLevel::Stopped,
        ThrottleLevel::TriggerOnly,
        ThrottleLevel::RaisedVote,
    ];
    // A dwell of 7 keeps level boundaries sliding relative to the
    // generators' power-of-two burst structure.
    LADDER[(step / 7) % LADDER.len()]
}

/// `sub` appears within `sup` in order (possibly with gaps).
fn is_subsequence(sub: &[BlockAddr], sup: &[BlockAddr]) -> bool {
    let mut it = sup.iter();
    sub.iter().all(|b| it.any(|s| s == b))
}

/// Replays `trace` through a throttled real Bingo — its level driven by
/// [`throttle_schedule`] — against an *unthrottled* [`SpecBingo`],
/// checking the subtractive-throttling contract at every step: trigger
/// classification matches exactly, the real burst is an ordered
/// subsequence of the spec burst, and at [`ThrottleLevel::Full`] the
/// burst and prediction source match the spec exactly.
///
/// # Errors
///
/// The first step where any of the three checks fails.
///
/// # Panics
///
/// Panics if `cfg.region` does not match the trace geometry.
pub fn diff_bingo_throttled(cfg: &BingoConfig, trace: &PrefetchTrace) -> Result<(), Mismatch> {
    let mut real = Bingo::new(*cfg);
    let mut spec = SpecBingo::new(*cfg);
    diff_bingo_scheduled(&mut real, &mut spec, trace, throttle_schedule)
}

/// The one Bingo replay loop: before each access the real Bingo is set to
/// `schedule(event index)`, and its step is checked against the
/// unthrottled spec's:
///
/// * trigger classification matches exactly (throttling must not disturb
///   observation or training),
/// * the real burst is an ordered subsequence of the spec burst
///   (throttling only ever removes candidates),
/// * at [`ThrottleLevel::Full`] the burst and prediction source match the
///   spec exactly (no residue from earlier throttled steps).
///
/// With every step at `Full` these checks fail exactly when an exact diff
/// would: a burst that is not a subsequence also differs.
fn diff_bingo_scheduled(
    real: &mut Bingo,
    spec: &mut SpecBingo,
    trace: &PrefetchTrace,
    schedule: fn(usize) -> ThrottleLevel,
) -> Result<(), Mismatch> {
    assert_eq!(
        real.config().region,
        trace.geometry(),
        "real prefetcher geometry must match the trace"
    );
    assert_eq!(
        spec.config().region,
        trace.geometry(),
        "spec geometry must match the trace"
    );
    for (i, &event) in trace.events().iter().enumerate() {
        match event {
            PrefetchEvent::Access { pc, block } => {
                let level = schedule(i);
                real.set_throttle_level(level);
                let info = AccessInfo::demand(Pc::new(pc), BlockAddr::new(block));
                let got = real.step(&info);
                let want = spec.step(&info);
                let fail = if got.trigger != want.trigger {
                    Some("trigger classification diverged")
                } else if !is_subsequence(&got.prefetches, &want.prefetches) {
                    Some("real burst is not a subsequence of the unthrottled spec burst")
                } else if level == ThrottleLevel::Full
                    && (got.source != want.source || got.prefetches != want.prefetches)
                {
                    Some("Full level must match the spec exactly")
                } else {
                    None
                };
                if let Some(why) = fail {
                    return Err(Mismatch {
                        oracle: "SpecBingo".into(),
                        index: i,
                        event,
                        detail: format!(
                            "{why} at level {level}: real: trigger={} source={:?} burst={}; \
                             spec: trigger={} source={:?} burst={}",
                            got.trigger,
                            got.source,
                            blocks_hex(&got.prefetches),
                            want.trigger,
                            want.source,
                            blocks_hex(&want.prefetches),
                        ),
                    });
                }
            }
            PrefetchEvent::Evict { block } => {
                let block = BlockAddr::new(block);
                real.on_eviction(block);
                spec.evict(block);
            }
        }
    }
    Ok(())
}

/// The matrix of Bingo table geometries the differential fuzzer sweeps:
/// the paper's configuration plus deliberately cramped and degenerate
/// variants, because capacity pressure (evictions, filter overflow,
/// LRU tie-breaks) is where an optimized implementation diverges from a
/// naive one, and the paper-sized tables barely evict on short traces.
pub fn bingo_config_variants(region: RegionGeometry) -> Vec<(&'static str, BingoConfig)> {
    let paper = BingoConfig {
        region,
        ..BingoConfig::paper()
    };
    let small = BingoConfig {
        history_entries: 64,
        history_ways: 4,
        accumulation_entries: 4,
        ..paper
    };
    vec![
        ("paper", paper),
        ("small", small),
        (
            "strict-vote",
            BingoConfig {
                vote_threshold: 0.9,
                ..small
            },
        ),
        (
            "unanimous-vote",
            BingoConfig {
                vote_threshold: 1.0,
                ..small
            },
        ),
        (
            "train-all",
            BingoConfig {
                min_footprint_blocks: 1,
                ..small
            },
        ),
        (
            "overflow-training-only",
            BingoConfig {
                train_on_eviction: false,
                ..small
            },
        ),
        // Every promotion evicts, and the accumulation list's head is
        // also its tail.
        (
            "one-slot",
            BingoConfig {
                accumulation_entries: 1,
                ..small
            },
        ),
    ]
}

/// A completed fuzzing sweep: how much ground it covered.
#[derive(Copy, Clone, Debug, Default)]
pub struct FuzzReport {
    /// Traces replayed without a divergence.
    pub traces: usize,
    /// Total events across those traces.
    pub events: usize,
}

/// One fuzz counterexample: the seed and trace that diverged, and how.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Generator seed that produced the failing trace.
    pub seed: u64,
    /// Name of the config variant that diverged (Bingo sweeps only).
    pub variant: String,
    /// The unshrunk failing trace.
    pub trace: PrefetchTrace,
    /// The divergence itself.
    pub mismatch: Mismatch,
}

/// Fuzzes Bingo against [`SpecBingo`]: for every seed in `seeds`,
/// generates a trace from `gen` and checks it with `diff` —
/// [`diff_bingo`] (clean Bingo, exact) or [`diff_bingo_throttled`] (the
/// subtractive-throttling contract) — under every
/// [`bingo_config_variants`] geometry.
///
/// # Errors
///
/// The first (seed, variant) pair that diverged. Shrink a [`diff_bingo`]
/// failure with [`shrink_bingo_mismatch`] before reporting.
pub fn fuzz_bingo(
    gen: &GeneratorConfig,
    seeds: Range<u64>,
    diff: fn(&BingoConfig, &PrefetchTrace) -> Result<(), Mismatch>,
) -> Result<FuzzReport, Box<FuzzFailure>> {
    let mut report = FuzzReport::default();
    for seed in seeds {
        let trace = generate(gen, seed);
        for (name, cfg) in bingo_config_variants(trace.geometry()) {
            if let Err(mismatch) = diff(&cfg, &trace) {
                return Err(Box::new(FuzzFailure {
                    seed,
                    variant: name.to_string(),
                    trace,
                    mismatch,
                }));
            }
        }
        report.traces += 1;
        report.events += trace.len();
    }
    Ok(report)
}

/// Fuzzes one baseline prefetcher against its invariant oracle. `make` is
/// called once per trace with the trace's geometry and must return a fresh
/// (prefetcher, oracle) pair.
///
/// # Errors
///
/// The first seed whose replay violated the oracle.
pub fn fuzz_baseline(
    gen: &GeneratorConfig,
    seeds: Range<u64>,
    mut make: impl FnMut(RegionGeometry) -> (Box<dyn Prefetcher>, Box<dyn StepOracle>),
) -> Result<FuzzReport, Box<FuzzFailure>> {
    let mut report = FuzzReport::default();
    for seed in seeds {
        let trace = generate(gen, seed);
        let (mut prefetcher, mut oracle) = make(trace.geometry());
        if let Err(mismatch) = diff_with_oracle(prefetcher.as_mut(), oracle.as_mut(), &trace) {
            return Err(Box::new(FuzzFailure {
                seed,
                variant: oracle.name().to_string(),
                trace,
                mismatch,
            }));
        }
        report.traces += 1;
        report.events += trace.len();
    }
    Ok(report)
}

/// Shrinks a trace on which `diff_bingo(cfg, ..)` fails to a minimal,
/// canonicalized trace that still fails, for committing to the corpus.
///
/// # Panics
///
/// Panics if the trace does not actually diverge under `cfg` (see
/// [`bingo_oracle::shrink()`]).
pub fn shrink_bingo_mismatch(cfg: &BingoConfig, trace: &PrefetchTrace) -> PrefetchTrace {
    shrink(trace, &mut |t| diff_bingo(cfg, t).is_err())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_oracle::NextLineOracle;
    use bingo_sim::NextLinePrefetcher;

    fn small_trace() -> PrefetchTrace {
        generate(&GeneratorConfig::small(), 42)
    }

    #[test]
    fn clean_bingo_matches_spec_on_a_fuzzed_trace() {
        let trace = small_trace();
        for (name, cfg) in bingo_config_variants(trace.geometry()) {
            let res = diff_bingo(&cfg, &trace);
            assert!(res.is_ok(), "variant {name}: {}", res.unwrap_err());
        }
    }

    #[test]
    fn throttle_schedule_covers_every_level_and_starts_full() {
        assert_eq!(throttle_schedule(0), ThrottleLevel::Full);
        let seen: std::collections::BTreeSet<_> = (0..100).map(throttle_schedule).collect();
        assert_eq!(seen.len(), 4, "all four levels exercised: {seen:?}");
    }

    #[test]
    fn throttled_bingo_stays_a_subset_of_the_spec_on_a_fuzzed_trace() {
        let trace = small_trace();
        for (name, cfg) in bingo_config_variants(trace.geometry()) {
            let res = diff_bingo_throttled(&cfg, &trace);
            assert!(res.is_ok(), "variant {name}: {}", res.unwrap_err());
        }
    }

    #[test]
    fn a_throttle_that_added_candidates_would_be_caught() {
        // Drive the throttled diff with a spec built strictly *tighter*
        // than the real side: the real bursts are then supersets, so the
        // subsequence check must fire — proving the harness can fail.
        let caught = GeneratorConfig::all().iter().any(|gen| {
            (0..30).any(|seed| {
                let trace = generate(gen, seed);
                let loose = BingoConfig {
                    region: trace.geometry(),
                    vote_threshold: 0.2,
                    ..BingoConfig::paper()
                };
                let tight = BingoConfig {
                    vote_threshold: 1.0,
                    ..loose
                };
                let mut real = Bingo::new(loose);
                let mut spec = SpecBingo::new(tight);
                diff_bingo_scheduled(&mut real, &mut spec, &trace, throttle_schedule)
                    .is_err_and(|m| m.detail.contains("not a subsequence"))
            })
        });
        assert!(
            caught,
            "no trace ever separated a loose real from a tight spec"
        );
    }

    #[test]
    fn faulty_bingo_is_caught_by_the_spec() {
        use bingo_sim::FaultPlan;
        // A fault rate this high corrupts some footprint within a few
        // hundred events; the diff must notice.
        let gen = GeneratorConfig::small();
        let caught = (0..20).any(|seed| {
            let trace = generate(&gen, seed);
            let cfg = BingoConfig {
                region: trace.geometry(),
                ..BingoConfig::paper()
            };
            let mut real = Bingo::with_faults(cfg, FaultPlan::uniform(7, 0.2));
            let mut spec = SpecBingo::new(cfg);
            diff_bingo_instances(&mut real, &mut spec, &trace).is_err()
        });
        assert!(caught, "20 fuzzed traces never exposed a 20% fault rate");
    }

    #[test]
    fn oracle_diff_reports_the_failing_event_index() {
        let mut trace = PrefetchTrace::new(2048);
        trace.access(0x400, 100);
        trace.access(0x400, 101);
        // Degree-2 prefetcher checked against a degree-1 oracle: the very
        // first access diverges.
        let mut p = NextLinePrefetcher::new(2);
        let mut o = NextLineOracle::new(1);
        let m = diff_with_oracle(&mut p, &mut o, &trace).unwrap_err();
        assert_eq!(m.index, 0);
        assert_eq!(m.oracle, "NextLineMirror");
        assert!(m.to_string().contains("event 0"), "{m}");
    }

    #[test]
    fn fuzz_report_counts_cover_the_sweep() {
        let report =
            fuzz_bingo(&GeneratorConfig::tiny_regions(), 0..3, diff_bingo).expect("no divergence");
        assert_eq!(report.traces, 3);
        assert_eq!(report.events, 3 * GeneratorConfig::tiny_regions().events);
    }

    #[test]
    fn shrink_bingo_mismatch_produces_a_minimal_failing_trace() {
        // Manufacture a "bug" by diffing a spec against a real instance
        // with a different vote threshold.
        let gen = GeneratorConfig::small();
        let (trace, strict) = (0..50)
            .find_map(|seed| {
                let t = generate(&gen, seed);
                let strict = BingoConfig {
                    region: t.geometry(),
                    vote_threshold: 0.9,
                    ..BingoConfig::paper()
                };
                let loose = BingoConfig {
                    vote_threshold: 0.2,
                    ..strict
                };
                let mut real = Bingo::new(loose);
                let mut spec = SpecBingo::new(strict);
                diff_bingo_instances(&mut real, &mut spec, &t)
                    .is_err()
                    .then_some((t, strict))
            })
            .expect("some seed separates 20% from 90% voting");
        let mut fails = |t: &PrefetchTrace| {
            let loose = BingoConfig {
                vote_threshold: 0.2,
                ..strict
            };
            let mut real = Bingo::new(loose);
            let mut spec = SpecBingo::new(strict);
            diff_bingo_instances(&mut real, &mut spec, t).is_err()
        };
        let small = shrink(&trace, &mut fails);
        assert!(fails(&small));
        assert!(small.len() < trace.len());
    }
}
