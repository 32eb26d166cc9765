//! Experiment runner: builds (workload × prefetcher) simulations, caches
//! no-prefetcher baselines, and derives the paper's metrics.
//!
//! Two harnesses are provided:
//!
//! * [`Harness`] — the original serial runner, evaluating one cell at a
//!   time with a lazily-filled baseline cache;
//! * [`ParallelHarness`] — fans the (workload × prefetcher) grid out
//!   across a bounded pool of scoped worker threads. The grid is
//!   embarrassingly parallel (every cell is an independent simulation),
//!   so the full sweep's wall-clock shrinks to roughly
//!   `cells / min(jobs, cells)` serial cells.
//!
//! **Determinism.** A cell's result is a pure function of
//! `(RunScale::seed, workload, prefetcher kind)`: each cell constructs
//! its own instruction sources (seeded from `scale.seed`, with a per-core
//! stream split inside [`Workload::sources`]) and its own prefetcher, and
//! shares no mutable state with other cells. The prefetcher kind
//! deliberately does *not* perturb the workload's RNG stream — every
//! prefetcher must observe the exact access stream its no-prefetcher
//! baseline observed, or coverage and speedup would compare different
//! program runs. Consequently [`ParallelHarness`] produces bit-for-bit
//! the same [`SimResult`]s as [`Harness`] regardless of scheduling order,
//! worker count, or completion order — verified by the
//! `parallel_matches_serial_bit_for_bit` test below.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use bingo::{Bingo, BingoConfig, EventKind, MultiEventConfig, MultiEventPrefetcher};
use bingo_baselines::{
    Ampm, AmpmConfig, Bop, BopConfig, Sms, SmsConfig, Spp, SppConfig, StrideConfig,
    StridePrefetcher, Vldp, VldpConfig,
};
use bingo_sim::{
    ChaosInjector, CoverageReport, FaultPlan, FaultyPrefetcher, NextLinePrefetcher, NoPrefetcher,
    Prefetcher, SimAbort, SimResult, System, SystemConfig, TelemetryLevel, ThrottleMode,
};
use bingo_workloads::{TraceWorkload, Workload};

use crate::checkpoint::{Checkpoint, CHECKPOINT_ENV};
use crate::knobs;
use crate::mix::{FairnessReport, MixAssignment, MixConfig, Pressure};
use crate::stats_export::StatsExport;

/// Which prefetcher to attach to every core.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum PrefetcherKind {
    /// No prefetcher (baseline).
    None,
    /// Best-Offset prefetcher, paper configuration.
    Bop,
    /// BOP at degree 32 (Fig. 10 "Aggr").
    BopAggressive,
    /// Signature Path prefetcher, paper configuration.
    Spp,
    /// SPP at a 1 % confidence threshold (Fig. 10 "Aggr").
    SppAggressive,
    /// Variable-Length Delta prefetcher, paper configuration.
    Vldp,
    /// VLDP at degree 32 (Fig. 10 "Aggr").
    VldpAggressive,
    /// Access Map Pattern Matching.
    Ampm,
    /// Spatial Memory Streaming.
    Sms,
    /// Bingo, paper configuration (16 K-entry unified table).
    Bingo,
    /// Bingo with a non-default history size (Fig. 6 sweep).
    BingoEntries(usize),
    /// Bingo with a non-default footprint-voting threshold (ablation).
    BingoVote(f64),
    /// Single-event TAGE-like prefetcher (Fig. 2 sweep).
    SingleEvent(EventKind),
    /// Multi-event cascade over the first `n` events (Fig. 3 sweep; also
    /// the Fig. 4 redundancy vehicle at `n = 2`).
    MultiEvent(usize),
    /// Classic PC-stride prefetcher (reference).
    Stride,
    /// Next-line prefetcher with the given degree (reference).
    NextLine(usize),
    /// Bingo with seeded metadata corruption at the given per-event rate
    /// (fault-injection robustness experiments; see `bingo_sim::FaultPlan`).
    BingoFaulty {
        /// Seed of the fault injector's RNG stream (independent of the
        /// workload seed, so corruption varies while the access stream
        /// does not).
        fault_seed: u64,
        /// Probability applied to every fault class: footprint bit flips,
        /// history-entry drops, prefetch drops.
        rate: f64,
    },
    /// A prefetcher that deliberately panics after the given number of
    /// accesses — the test vehicle for panic-isolated sweeps.
    Faulty {
        /// Accesses observed before the deliberate panic.
        panic_after: u64,
    },
}

impl PrefetcherKind {
    /// The six prefetchers of the paper's headline comparison, figure
    /// order.
    pub const HEADLINE: [PrefetcherKind; 6] = [
        PrefetcherKind::Bop,
        PrefetcherKind::Spp,
        PrefetcherKind::Vldp,
        PrefetcherKind::Ampm,
        PrefetcherKind::Sms,
        PrefetcherKind::Bingo,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> String {
        match self {
            PrefetcherKind::None => "None".into(),
            PrefetcherKind::Bop => "BOP".into(),
            PrefetcherKind::BopAggressive => "BOP-Aggr".into(),
            PrefetcherKind::Spp => "SPP".into(),
            PrefetcherKind::SppAggressive => "SPP-Aggr".into(),
            PrefetcherKind::Vldp => "VLDP".into(),
            PrefetcherKind::VldpAggressive => "VLDP-Aggr".into(),
            PrefetcherKind::Ampm => "AMPM".into(),
            PrefetcherKind::Sms => "SMS".into(),
            PrefetcherKind::Bingo => "Bingo".into(),
            PrefetcherKind::BingoEntries(n) => format!("Bingo-{}K", n / 1024),
            PrefetcherKind::BingoVote(t) => format!("Bingo-vote{:.0}%", t * 100.0),
            PrefetcherKind::SingleEvent(k) => k.label().into(),
            PrefetcherKind::MultiEvent(n) => format!("{n}-event"),
            PrefetcherKind::Stride => "Stride".into(),
            PrefetcherKind::NextLine(d) => format!("NextLine-{d}"),
            PrefetcherKind::BingoFaulty { rate, .. } => {
                format!("Bingo-fault{:.1}%", rate * 100.0)
            }
            PrefetcherKind::Faulty { panic_after } => format!("Faulty@{panic_after}"),
        }
    }

    /// Parses a mix-config prefetcher slug — the lowercase spelling used
    /// by `core … prefetcher=<slug>` lines. Only the fixed paper
    /// configurations are addressable from config files; parameterized
    /// kinds (entry sweeps, fault injection, …) stay programmatic.
    /// `None` for anything unrecognized, so the parser can report the
    /// bad name with its line number.
    pub fn from_slug(slug: &str) -> Option<PrefetcherKind> {
        Some(match slug {
            "none" => PrefetcherKind::None,
            "bop" => PrefetcherKind::Bop,
            "bop-aggr" => PrefetcherKind::BopAggressive,
            "spp" => PrefetcherKind::Spp,
            "spp-aggr" => PrefetcherKind::SppAggressive,
            "vldp" => PrefetcherKind::Vldp,
            "vldp-aggr" => PrefetcherKind::VldpAggressive,
            "ampm" => PrefetcherKind::Ampm,
            "sms" => PrefetcherKind::Sms,
            "bingo" => PrefetcherKind::Bingo,
            "stride" => PrefetcherKind::Stride,
            _ => return None,
        })
    }

    /// Builds one prefetcher instance.
    pub fn build(self) -> Box<dyn Prefetcher> {
        match self {
            PrefetcherKind::None => Box::new(NoPrefetcher),
            PrefetcherKind::Bop => Box::new(Bop::new(BopConfig::paper())),
            PrefetcherKind::BopAggressive => Box::new(Bop::new(BopConfig::aggressive())),
            PrefetcherKind::Spp => Box::new(Spp::new(SppConfig::paper())),
            PrefetcherKind::SppAggressive => Box::new(Spp::new(SppConfig::aggressive())),
            PrefetcherKind::Vldp => Box::new(Vldp::new(VldpConfig::paper())),
            PrefetcherKind::VldpAggressive => Box::new(Vldp::new(VldpConfig::aggressive())),
            PrefetcherKind::Ampm => Box::new(Ampm::new(AmpmConfig::paper())),
            PrefetcherKind::Sms => Box::new(Sms::new(SmsConfig::paper())),
            PrefetcherKind::Bingo => Box::new(Bingo::new(BingoConfig::paper())),
            PrefetcherKind::BingoEntries(n) => {
                Box::new(Bingo::new(BingoConfig::with_history_entries(n)))
            }
            PrefetcherKind::BingoVote(t) => Box::new(Bingo::new(BingoConfig {
                vote_threshold: t,
                ..BingoConfig::paper()
            })),
            PrefetcherKind::SingleEvent(k) => {
                Box::new(MultiEventPrefetcher::new(MultiEventConfig::single(k)))
            }
            PrefetcherKind::MultiEvent(n) => {
                Box::new(MultiEventPrefetcher::new(MultiEventConfig::first_n(n)))
            }
            PrefetcherKind::Stride => Box::new(StridePrefetcher::new(StrideConfig::typical())),
            PrefetcherKind::NextLine(d) => Box::new(NextLinePrefetcher::new(d)),
            PrefetcherKind::BingoFaulty { fault_seed, rate } => Box::new(Bingo::with_faults(
                BingoConfig::paper(),
                FaultPlan::uniform(fault_seed, rate),
            )),
            PrefetcherKind::Faulty { panic_after } => Box::new(FaultyPrefetcher::new(panic_after)),
        }
    }

    /// Per-core metadata storage in bits, computed from the configuration
    /// alone. Building a prefetcher just to size it would allocate its
    /// tables — megabytes for Bingo's 16 K-entry history — on every call
    /// of the parallel sweep; the config-level accounting is free and
    /// asserted equal to the built value by a test.
    pub fn storage_bits(self) -> u64 {
        match self {
            PrefetcherKind::None => 0,
            PrefetcherKind::Bop => BopConfig::paper().storage_bits(),
            PrefetcherKind::BopAggressive => BopConfig::aggressive().storage_bits(),
            PrefetcherKind::Spp => SppConfig::paper().storage_bits(),
            PrefetcherKind::SppAggressive => SppConfig::aggressive().storage_bits(),
            PrefetcherKind::Vldp => VldpConfig::paper().storage_bits(),
            PrefetcherKind::VldpAggressive => VldpConfig::aggressive().storage_bits(),
            PrefetcherKind::Ampm => AmpmConfig::paper().storage_bits(),
            PrefetcherKind::Sms => SmsConfig::paper().storage_bits(),
            PrefetcherKind::Bingo => BingoConfig::paper().storage_bits(),
            PrefetcherKind::BingoEntries(n) => BingoConfig::with_history_entries(n).storage_bits(),
            PrefetcherKind::BingoVote(t) => BingoConfig {
                vote_threshold: t,
                ..BingoConfig::paper()
            }
            .storage_bits(),
            PrefetcherKind::SingleEvent(k) => MultiEventConfig::single(k).storage_bits(),
            PrefetcherKind::MultiEvent(n) => MultiEventConfig::first_n(n).storage_bits(),
            PrefetcherKind::Stride => StrideConfig::typical().storage_bits(),
            // Next-line keeps no metadata (trait default).
            PrefetcherKind::NextLine(_) => 0,
            // Fault injection corrupts Bingo's tables, it does not resize
            // them.
            PrefetcherKind::BingoFaulty { .. } => BingoConfig::paper().storage_bits(),
            // The panic vehicle keeps no metadata (trait default).
            PrefetcherKind::Faulty { .. } => 0,
        }
    }

    /// Per-core metadata storage in KB (for the performance-density model).
    pub fn storage_kb(self) -> f64 {
        self.storage_bits() as f64 / 8.0 / 1024.0
    }
}

/// Simulation scale for an experiment run.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RunScale {
    /// Instructions retired per core in the measurement window.
    pub instructions_per_core: u64,
    /// Warmup instructions per core (caches and predictor tables live,
    /// statistics discarded) — the SimFlex warmed-checkpoint methodology.
    pub warmup_per_core: u64,
    /// Workload seed.
    pub seed: u64,
}

impl RunScale {
    /// The full scale used for the published numbers in EXPERIMENTS.md.
    pub fn full() -> Self {
        RunScale {
            instructions_per_core: 1_000_000,
            warmup_per_core: 1_500_000,
            seed: 42,
        }
    }

    /// A reduced scale for CI and Criterion.
    pub fn quick() -> Self {
        RunScale {
            instructions_per_core: 150_000,
            warmup_per_core: 100_000,
            seed: 42,
        }
    }

    /// Reads `--quick` from the process arguments (exact match, any
    /// position), then applies the `BINGO_WARMUP` / `BINGO_INSTR`
    /// environment overrides (development knobs for calibration sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `BINGO_WARMUP` or `BINGO_INSTR` is set but does not parse
    /// as an unsigned integer: a typo'd override must abort the run, not
    /// silently fall back to the full scale.
    pub fn from_args() -> Self {
        Self::from_parts(std::env::args().skip(1), |name| std::env::var(name).ok())
    }

    /// Testable core of [`RunScale::from_args`]: explicit argument list
    /// and environment lookup.
    fn from_parts<I, E>(args: I, env: E) -> Self
    where
        I: IntoIterator<Item = String>,
        E: Fn(&str) -> Option<String>,
    {
        let mut scale = if args.into_iter().any(|a| a == "--quick") {
            Self::quick()
        } else {
            Self::full()
        };
        if let Some(v) = env("BINGO_WARMUP") {
            scale.warmup_per_core = parse_override("BINGO_WARMUP", &v);
        }
        if let Some(v) = env("BINGO_INSTR") {
            scale.instructions_per_core = parse_override("BINGO_INSTR", &v);
        }
        scale
    }
}

/// Parses a numeric environment override, aborting loudly on garbage.
fn parse_override(name: &str, value: &str) -> u64 {
    knobs::parse(name, value, "an unsigned integer", |v| v.parse().ok())
}

/// Environment variable selecting the prefetch-lifecycle telemetry level
/// for CLI sweeps: `off` (default), `counts`, or `trace`.
pub const TELEMETRY_ENV: &str = "BINGO_TELEMETRY";

/// Reads [`TELEMETRY_ENV`], aborting loudly on garbage — a typo'd level
/// must not silently run without telemetry.
///
/// # Panics
///
/// Panics if the variable is set but is not a recognized level.
pub fn telemetry_from_env() -> TelemetryLevel {
    knobs::from_env(
        TELEMETRY_ENV,
        "one of off/counts/trace",
        TelemetryLevel::parse,
    )
    .unwrap_or(TelemetryLevel::Off)
}

/// Environment variable selecting the prefetch-throttle mode for CLI
/// sweeps: `off` (default, bit-for-bit identical to a build without the
/// throttle subsystem), `feedback` (closed-loop accuracy/bandwidth control
/// over one chip-wide domain), or `percore` (one domain per core plus the
/// starvation watchdog). Any other value, including the retired `static`,
/// aborts the run.
pub const THROTTLE_ENV: &str = "BINGO_THROTTLE";

/// Reads [`THROTTLE_ENV`], aborting loudly on garbage — a typo'd mode
/// must not silently run unthrottled.
///
/// # Panics
///
/// Panics if the variable is set but is not a recognized mode.
pub fn throttle_from_env() -> ThrottleMode {
    knobs::from_env(
        THROTTLE_ENV,
        "one of off/feedback/percore",
        ThrottleMode::parse,
    )
    .unwrap_or(ThrottleMode::Off)
}

/// Runs one (workload, prefetcher) simulation on the paper's 4-core
/// system, reporting deadline or cycle-limit aborts as values instead of
/// panicking.
///
/// # Errors
///
/// Returns [`SimAbort::DeadlineExceeded`] when a `deadline` is given and
/// the simulation's wall clock exceeds it, and [`SimAbort::CycleLimit`] on
/// a suspected livelock.
pub fn run_one_with_deadline(
    workload: Workload,
    kind: PrefetcherKind,
    scale: RunScale,
    deadline: Option<Duration>,
) -> Result<SimResult, SimAbort> {
    run_one_configured(
        workload,
        kind,
        scale,
        deadline,
        TelemetryLevel::Off,
        ThrottleMode::Off,
    )
}

/// [`run_one_with_deadline`] with an explicit prefetch-lifecycle telemetry
/// level and throttle mode. Telemetry never perturbs the simulated machine
/// (test-locked by the sim crate's invisibility tests); it only populates
/// [`SimResult::telemetry`]. Throttling *does* change the machine (it is
/// the point), except [`ThrottleMode::Off`], which attaches no controller
/// and is bit-for-bit invisible.
///
/// # Errors
///
/// Same as [`run_one_with_deadline`].
pub fn run_one_configured(
    workload: Workload,
    kind: PrefetcherKind,
    scale: RunScale,
    deadline: Option<Duration>,
    telemetry: TelemetryLevel,
    throttle: ThrottleMode,
) -> Result<SimResult, SimAbort> {
    let cfg = SystemConfig::paper();
    let sources = workload.sources(cfg.cores, scale.seed);
    let mut system =
        System::with_prefetchers(cfg, sources, |_| kind.build(), scale.instructions_per_core)
            .with_warmup(scale.warmup_per_core)
            .with_telemetry(telemetry)
            .with_throttle(throttle);
    if let Some(limit) = deadline {
        system = system.with_time_limit(limit);
    }
    system.try_run()
}

/// Runs one (workload, prefetcher) simulation on the paper's 4-core system.
///
/// # Panics
///
/// Panics on a suspected simulator livelock (cycle-limit abort), like
/// [`System::run`].
pub fn run_one(workload: Workload, kind: PrefetcherKind, scale: RunScale) -> SimResult {
    match run_one_with_deadline(workload, kind, scale, None) {
        Ok(result) => result,
        Err(SimAbort::CycleLimit { .. }) => panic!("simulation livelock suspected"),
        Err(abort) => panic!("{abort}"),
    }
}

/// How one sweep cell resolved. A fault-tolerant sweep never lets a cell
/// take down its siblings: a panicking prefetcher or a blown deadline
/// becomes a value here, reported at the end, while every other cell runs
/// to completion.
#[derive(Clone, Debug)]
pub enum CellOutcome {
    /// The simulation completed normally (boxed: a `SimResult` dwarfs the
    /// failure variants).
    Ok(Box<SimResult>),
    /// The cell's code panicked; the payload message is preserved for the
    /// failure report.
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// The cell exceeded the per-cell soft deadline.
    TimedOut {
        /// The deadline that was exceeded.
        limit: Duration,
    },
}

impl CellOutcome {
    /// Whether the cell completed normally.
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok(_))
    }
}

/// Stringifies a panic payload: `&str` and `String` payloads (everything
/// `panic!` produces) verbatim, anything else a placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "opaque panic payload".to_string())
    }
}

/// Runs one cell with panic isolation and an optional soft deadline: the
/// fault-tolerant core of the sweep. Never panics and never blocks past
/// the deadline (checked at instruction-batch granularity inside the
/// simulation loop) — every failure mode comes back as a [`CellOutcome`].
pub fn run_cell(
    workload: Workload,
    kind: PrefetcherKind,
    scale: RunScale,
    deadline: Option<Duration>,
) -> CellOutcome {
    run_cell_configured(
        workload,
        kind,
        scale,
        deadline,
        TelemetryLevel::Off,
        ThrottleMode::Off,
    )
}

/// [`run_cell`] with an explicit telemetry level and throttle mode.
pub fn run_cell_configured(
    workload: Workload,
    kind: PrefetcherKind,
    scale: RunScale,
    deadline: Option<Duration>,
    telemetry: TelemetryLevel,
    throttle: ThrottleMode,
) -> CellOutcome {
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        run_one_configured(workload, kind, scale, deadline, telemetry, throttle)
    }));
    match attempt {
        Ok(Ok(result)) => CellOutcome::Ok(Box::new(result)),
        Ok(Err(SimAbort::DeadlineExceeded { limit })) => CellOutcome::TimedOut { limit },
        Ok(Err(abort @ SimAbort::CycleLimit { .. })) => CellOutcome::Panicked {
            message: abort.to_string(),
        },
        Err(payload) => CellOutcome::Panicked {
            message: panic_message(payload.as_ref()),
        },
    }
}

/// The checkpoint key of a cell: everything that determines its
/// [`SimResult`] (see the determinism notes in the module docs). Two cells
/// with equal keys are interchangeable across process lifetimes.
pub fn cell_key(scale: RunScale, workload: Workload, kind: PrefetcherKind) -> String {
    format!(
        "{}/{}/{}/{:?}/{:?}",
        scale.seed, scale.instructions_per_core, scale.warmup_per_core, workload, kind
    )
}

/// [`cell_key`] extended with the telemetry level. A telemetry-off run
/// keeps the historical key unchanged, so checkpoints written before the
/// telemetry layer existed stay valid; telemetry-on runs get their own
/// namespace (their results carry the extra report, which a telemetry-off
/// resume must not replay).
pub fn cell_key_with_telemetry(
    scale: RunScale,
    workload: Workload,
    kind: PrefetcherKind,
    telemetry: TelemetryLevel,
) -> String {
    with_option_suffixes(
        cell_key(scale, workload, kind),
        telemetry,
        ThrottleMode::Off,
    )
}

/// Appends the telemetry and throttle namespaces every key function
/// shares, in that fixed order. The defaults ([`TelemetryLevel::Off`],
/// [`ThrottleMode::Off`]) contribute nothing, so keys written before an
/// option existed stay byte-for-byte valid, while runs whose results
/// genuinely differ live in their own namespace and can never be replayed
/// into (or poisoned by) a default sweep.
fn with_option_suffixes(
    mut key: String,
    telemetry: TelemetryLevel,
    throttle: ThrottleMode,
) -> String {
    match telemetry {
        TelemetryLevel::Off => {}
        TelemetryLevel::Counts => key.push_str("/telemetry=counts"),
        TelemetryLevel::Trace => key.push_str("/telemetry=trace"),
    }
    match throttle {
        ThrottleMode::Off => {}
        ThrottleMode::Feedback | ThrottleMode::Percore => {
            key.push_str("/throttle=");
            key.push_str(&throttle.to_string());
        }
    }
    key
}

/// [`cell_key_with_telemetry`] further extended with the throttle mode,
/// following the same namespacing rule: [`ThrottleMode::Off`] adds
/// nothing, so keys written before the throttle existed stay valid, and
/// each throttled mode gets its own `/throttle=<mode>` namespace.
pub fn cell_key_with_options(
    scale: RunScale,
    workload: Workload,
    kind: PrefetcherKind,
    telemetry: TelemetryLevel,
    throttle: ThrottleMode,
) -> String {
    with_option_suffixes(cell_key(scale, workload, kind), telemetry, throttle)
}

/// Runs one (captured trace, prefetcher) simulation on the paper's 4-core
/// system, replaying the trace's recorded instruction streams instead of
/// the synthetic generators.
///
/// The trace's per-core `.btrc` files are opened under the workload's
/// ingestion [`bingo_trace::Policy`]; a strict trace aborts the cell on the
/// first corrupt byte (the typed [`bingo_trace::ReadError`], byte offset
/// included, becomes the cell's panic message), while a lenient trace
/// quarantines damage and reports it in [`SimResult::ingest`].
///
/// # Errors
///
/// Same as [`run_one_configured`].
///
/// # Panics
///
/// Panics if the trace directory cannot be opened or a stream is corrupt
/// under the strict policy. Inside a sweep the panic is confined to the
/// cell by [`run_trace_cell`]'s isolation.
pub fn run_trace_one_configured(
    trace: &TraceWorkload,
    kind: PrefetcherKind,
    scale: RunScale,
    deadline: Option<Duration>,
    telemetry: TelemetryLevel,
    throttle: ThrottleMode,
) -> Result<SimResult, SimAbort> {
    let cfg = SystemConfig::paper();
    let sources = trace
        .sources(cfg.cores)
        .unwrap_or_else(|e| panic!("trace workload {}: {e}", trace.name()));
    let mut system =
        System::with_prefetchers(cfg, sources, |_| kind.build(), scale.instructions_per_core)
            .with_warmup(scale.warmup_per_core)
            .with_telemetry(telemetry)
            .with_throttle(throttle);
    if let Some(limit) = deadline {
        system = system.with_time_limit(limit);
    }
    system.try_run()
}

/// [`run_cell_configured`] for a captured trace: panic isolation plus the
/// optional soft deadline. A corrupt strict trace therefore resolves to
/// [`CellOutcome::Panicked`] carrying the typed decode error (with its
/// byte offset) instead of taking down the sweep.
pub fn run_trace_cell(
    trace: &TraceWorkload,
    kind: PrefetcherKind,
    scale: RunScale,
    deadline: Option<Duration>,
    telemetry: TelemetryLevel,
    throttle: ThrottleMode,
) -> CellOutcome {
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        run_trace_one_configured(trace, kind, scale, deadline, telemetry, throttle)
    }));
    match attempt {
        Ok(Ok(result)) => CellOutcome::Ok(Box::new(result)),
        Ok(Err(SimAbort::DeadlineExceeded { limit })) => CellOutcome::TimedOut { limit },
        Ok(Err(abort @ SimAbort::CycleLimit { .. })) => CellOutcome::Panicked {
            message: abort.to_string(),
        },
        Err(payload) => CellOutcome::Panicked {
            message: panic_message(payload.as_ref()),
        },
    }
}

/// The checkpoint key of a trace-replay cell, namespaced apart from every
/// synthetic cell by the `trace:` prefix. The trace's own key
/// ([`TraceWorkload::key`]: path plus non-default policy) stands in for
/// the (workload, seed) pair — replay ignores [`RunScale::seed`] because
/// the instruction stream is fully determined by the recorded bytes, so
/// including the seed would only split identical results across checkpoint
/// entries. Telemetry and throttle extend the key under the same rules as
/// [`cell_key_with_options`].
pub fn trace_cell_key(
    scale: RunScale,
    trace_key: &str,
    kind: PrefetcherKind,
    telemetry: TelemetryLevel,
    throttle: ThrottleMode,
) -> String {
    let base = format!(
        "trace:{}/{}/{}/{:?}",
        trace_key, scale.instructions_per_core, scale.warmup_per_core, kind
    );
    with_option_suffixes(base, telemetry, throttle)
}

/// Worker count for parallel sweeps: the `BINGO_JOBS` environment override
/// when set, otherwise [`std::thread::available_parallelism`] (1 if that
/// cannot be determined).
///
/// # Panics
///
/// Panics if `BINGO_JOBS` is set but is not a positive integer.
pub fn default_jobs() -> usize {
    match knobs::from_env("BINGO_JOBS", "a positive integer", |v| {
        v.parse::<usize>().ok()
    }) {
        Some(jobs) => {
            assert!(jobs > 0, "BINGO_JOBS must be a positive integer, got 0");
            jobs
        }
        None => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// Runs `f(0), f(1), ..., f(n - 1)` on a bounded pool of at most `jobs`
/// scoped worker threads and returns the results in index order.
///
/// Workers pull indices from a shared atomic counter, so cells are load
/// balanced dynamically; results land in per-index slots, so the output
/// order is independent of completion order. With `jobs <= 1` (or a single
/// item) the calls run inline on the current thread.
///
/// # Panics
///
/// Panics if `jobs` is zero, or propagates a panic from `f`.
pub fn parallel_map<R, F>(jobs: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    assert!(jobs > 0, "need at least one worker");
    let workers = jobs.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(i);
                // A panic in another worker must not cascade here: lock
                // poisoning only records that *some* thread panicked, and
                // these per-index slots are written exactly once, so the
                // data is sound regardless. Clearing the poison lets every
                // healthy worker deliver its finished cell.
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every index was claimed by a worker")
        })
        .collect()
}

/// Runs one isolated cell, optionally emitting a progress/timing line
/// (cell name, wall seconds, simulated instructions per wall second or the
/// failure mode).
fn timed_cell(
    workload: Workload,
    kind: PrefetcherKind,
    scale: RunScale,
    deadline: Option<Duration>,
    telemetry: TelemetryLevel,
    throttle: ThrottleMode,
    progress: bool,
) -> CellOutcome {
    let start = Instant::now();
    let outcome = run_cell_configured(workload, kind, scale, deadline, telemetry, throttle);
    if progress {
        let wall = start.elapsed().as_secs_f64();
        let status = match &outcome {
            CellOutcome::Ok(result) => format!(
                "{:>6.2} Minstr/s",
                result.instructions() as f64 / wall.max(1e-9) / 1e6
            ),
            CellOutcome::Panicked { .. } => "PANICKED".to_string(),
            CellOutcome::TimedOut { .. } => "TIMED OUT".to_string(),
        };
        eprintln!(
            "[cell] {:<14} {:<14} {:>7.2}s  {status}",
            workload.name(),
            kind.name(),
            wall,
        );
    }
    outcome
}

/// [`timed_cell`] for a captured trace: same progress-line format, with
/// the trace's directory name in the workload column.
fn timed_trace_cell(
    trace: &TraceWorkload,
    kind: PrefetcherKind,
    scale: RunScale,
    deadline: Option<Duration>,
    telemetry: TelemetryLevel,
    throttle: ThrottleMode,
    progress: bool,
) -> CellOutcome {
    let start = Instant::now();
    let outcome = run_trace_cell(trace, kind, scale, deadline, telemetry, throttle);
    if progress {
        let wall = start.elapsed().as_secs_f64();
        let status = match &outcome {
            CellOutcome::Ok(result) => format!(
                "{:>6.2} Minstr/s",
                result.instructions() as f64 / wall.max(1e-9) / 1e6
            ),
            CellOutcome::Panicked { .. } => "PANICKED".to_string(),
            CellOutcome::TimedOut { .. } => "TIMED OUT".to_string(),
        };
        eprintln!(
            "[cell] {:<14} {:<14} {:>7.2}s  {status}",
            trace.name(),
            kind.name(),
            wall,
        );
    }
    outcome
}

/// Serial runner with per-workload baseline caching.
#[derive(Debug, Default)]
pub struct Harness {
    scale: RunScale,
    baselines: HashMap<Workload, SimResult>,
}

impl Default for RunScale {
    fn default() -> Self {
        RunScale::full()
    }
}

impl Harness {
    /// Creates a harness at the given scale.
    pub fn new(scale: RunScale) -> Self {
        Harness {
            scale,
            baselines: HashMap::new(),
        }
    }

    /// The scale in use.
    pub fn scale(&self) -> RunScale {
        self.scale
    }

    /// The cached no-prefetcher baseline for a workload.
    pub fn baseline(&mut self, workload: Workload) -> &SimResult {
        let scale = self.scale;
        self.baselines
            .entry(workload)
            .or_insert_with(|| run_one(workload, PrefetcherKind::None, scale))
    }

    /// Runs a prefetcher on a workload and reports coverage/overprediction
    /// against the cached baseline, plus the speedup.
    pub fn evaluate(&mut self, workload: Workload, kind: PrefetcherKind) -> Evaluation {
        let result = run_one(workload, kind, self.scale);
        let baseline = self.baseline(workload).clone();
        let coverage = CoverageReport::from_runs(&result, &baseline);
        let speedup = result.speedup_over(&baseline);
        Evaluation {
            workload,
            kind,
            coverage,
            speedup,
            result,
            baseline,
        }
    }
}

/// Parallel experiment harness: evaluates (workload × prefetcher) grids on
/// a bounded worker pool, computing each workload's no-prefetcher baseline
/// exactly once in a shared cache.
///
/// Results are bit-for-bit identical to [`Harness`] — see the module docs
/// for the determinism argument.
#[derive(Debug)]
pub struct ParallelHarness {
    scale: RunScale,
    jobs: usize,
    progress: bool,
    cell_timeout: Option<Duration>,
    checkpoint: Option<Checkpoint>,
    telemetry: TelemetryLevel,
    throttle: ThrottleMode,
    stats: Option<StatsExport>,
    baselines: HashMap<Workload, SimResult>,
    trace_baselines: HashMap<String, SimResult>,
    mix_solos: HashMap<String, SimResult>,
}

/// Parses the `BINGO_CELL_TIMEOUT` value (seconds, fractional allowed),
/// aborting loudly on garbage — a typo'd deadline must not silently run
/// unlimited.
fn parse_cell_timeout(value: &str) -> Duration {
    let secs: f64 = knobs::parse(CELL_TIMEOUT_ENV, value, "a number of seconds", |v| {
        v.parse().ok()
    });
    assert!(
        secs.is_finite() && secs >= 0.0,
        "{CELL_TIMEOUT_ENV} must be a non-negative number of seconds, got {value:?}"
    );
    Duration::from_secs_f64(secs)
}

/// Environment variable holding the per-cell soft deadline in seconds.
pub const CELL_TIMEOUT_ENV: &str = "BINGO_CELL_TIMEOUT";

impl ParallelHarness {
    /// Creates a parallel harness at the given scale with
    /// [`default_jobs`] workers, honoring the `BINGO_CELL_TIMEOUT`
    /// (per-cell deadline, seconds), `BINGO_CHECKPOINT` (resume file),
    /// `BINGO_TELEMETRY` (prefetch-lifecycle telemetry level),
    /// `BINGO_THROTTLE` (adaptive prefetch-throttle mode), and
    /// `BINGO_STATS` (machine-readable stats export) environment knobs.
    /// The explicit constructors ([`ParallelHarness::with_jobs`] +
    /// builders) ignore the environment so tests stay hermetic.
    ///
    /// # Panics
    ///
    /// Panics if `BINGO_CELL_TIMEOUT` is set but not a non-negative number
    /// of seconds, if `BINGO_CHECKPOINT` or `BINGO_STATS` names an
    /// unopenable file, if `BINGO_TELEMETRY` is not a recognized level, or
    /// if `BINGO_THROTTLE` is not a recognized mode.
    pub fn new(scale: RunScale) -> Self {
        let mut harness = Self::with_jobs(scale, default_jobs());
        harness.telemetry = telemetry_from_env();
        harness.throttle = throttle_from_env();
        harness.stats = StatsExport::from_env();
        if let Ok(v) = std::env::var(CELL_TIMEOUT_ENV) {
            harness.cell_timeout = Some(parse_cell_timeout(&v));
        }
        if let Ok(path) = std::env::var(CHECKPOINT_ENV) {
            let checkpoint = Checkpoint::open(&path)
                .unwrap_or_else(|e| panic!("{CHECKPOINT_ENV}: cannot open {path:?}: {e}"));
            if checkpoint.skipped_lines() > 0 {
                eprintln!(
                    "[checkpoint] {}: loaded {} cell(s), skipped {} corrupt line(s)",
                    path,
                    checkpoint.len(),
                    checkpoint.skipped_lines()
                );
            }
            harness.checkpoint = Some(checkpoint);
        }
        harness
    }

    /// Creates a parallel harness with an explicit worker count and no
    /// timeout/checkpoint (environment ignored).
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn with_jobs(scale: RunScale, jobs: usize) -> Self {
        assert!(jobs > 0, "need at least one worker");
        ParallelHarness {
            scale,
            jobs,
            progress: true,
            cell_timeout: None,
            checkpoint: None,
            telemetry: TelemetryLevel::Off,
            throttle: ThrottleMode::Off,
            stats: None,
            baselines: HashMap::new(),
            trace_baselines: HashMap::new(),
            mix_solos: HashMap::new(),
        }
    }

    /// Disables the per-cell progress/timing lines on stderr.
    pub fn quiet(mut self) -> Self {
        self.progress = false;
        self
    }

    /// Sets a per-cell soft deadline: any cell whose simulation wall clock
    /// exceeds it resolves to [`CellOutcome::TimedOut`] instead of
    /// blocking the sweep.
    pub fn with_cell_timeout(mut self, limit: Duration) -> Self {
        self.cell_timeout = Some(limit);
        self
    }

    /// Attaches a checkpoint: completed cells are made durable as they
    /// finish, and cells (or baselines) already in the checkpoint are
    /// replayed from it instead of re-simulated.
    pub fn with_checkpoint(mut self, checkpoint: Checkpoint) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// Sets the prefetch-lifecycle telemetry level for every cell
    /// (baselines included). Telemetry never changes the simulated
    /// machine; it adds a [`bingo_sim::TelemetryReport`] to each result
    /// and namespaces the checkpoint keys (see [`cell_key_with_telemetry`]).
    pub fn with_telemetry(mut self, level: TelemetryLevel) -> Self {
        self.telemetry = level;
        self
    }

    /// The telemetry level in use.
    pub fn telemetry(&self) -> TelemetryLevel {
        self.telemetry
    }

    /// Sets the prefetch-throttle mode for every cell. Baselines run with
    /// [`PrefetcherKind::None`] and are unaffected by construction (there
    /// is nothing to throttle), but their checkpoint keys are still
    /// namespaced with the mode so a throttled sweep never replays into an
    /// unthrottled one. [`ThrottleMode::Off`] (the default) attaches no
    /// controller and keeps historical keys and results byte-for-byte.
    pub fn with_throttle(mut self, mode: ThrottleMode) -> Self {
        self.throttle = mode;
        self
    }

    /// The throttle mode in use.
    pub fn throttle(&self) -> ThrottleMode {
        self.throttle
    }

    /// Attaches a machine-readable stats export: every completed cell and
    /// baseline (checkpoint replays included) is written as one JSON line.
    pub fn with_stats_export(mut self, export: StatsExport) -> Self {
        self.stats = Some(export);
        self
    }

    /// The scale in use.
    pub fn scale(&self) -> RunScale {
        self.scale
    }

    /// The worker count in use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Ensures the no-prefetcher baseline of every listed workload is
    /// cached, computing the missing ones in parallel — each exactly once,
    /// regardless of how many cells reference it.
    ///
    /// # Panics
    ///
    /// Panics if a baseline simulation fails (panics or exceeds the cell
    /// deadline); [`ParallelHarness::try_evaluate_grid`] reports such
    /// failures as values instead.
    pub fn prime_baselines(&mut self, workloads: &[Workload]) {
        let (failures, _) = self.try_prime_baselines(workloads);
        if let Some(f) = failures.first() {
            panic!("baseline for {} failed: {}", f.workload.name(), f.reason);
        }
    }

    /// Fault-tolerant baseline priming: failed baselines come back as
    /// [`CellFailure`]s (kind [`PrefetcherKind::None`]) instead of
    /// panicking. Returns the failures plus the number of baselines
    /// replayed from the checkpoint.
    fn try_prime_baselines(&mut self, workloads: &[Workload]) -> (Vec<CellFailure>, usize) {
        let mut missing: Vec<Workload> = Vec::new();
        for &w in workloads {
            if !self.baselines.contains_key(&w) && !missing.contains(&w) {
                missing.push(w);
            }
        }
        let scale = self.scale;
        let telemetry = self.telemetry;
        let throttle = self.throttle;
        let mut hits = 0;
        if let Some(cp) = &self.checkpoint {
            missing.retain(|&w| {
                match cp.get(&cell_key_with_options(
                    scale,
                    w,
                    PrefetcherKind::None,
                    telemetry,
                    throttle,
                )) {
                    Some(result) => {
                        self.baselines.insert(w, result);
                        hits += 1;
                        false
                    }
                    None => true,
                }
            });
        }
        if missing.is_empty() {
            return (Vec::new(), hits);
        }
        let progress = self.progress;
        let deadline = self.cell_timeout;
        let outcomes = parallel_map(self.jobs, missing.len(), |i| {
            timed_cell(
                missing[i],
                PrefetcherKind::None,
                scale,
                deadline,
                telemetry,
                throttle,
                progress,
            )
        });
        let mut failures = Vec::new();
        for (w, outcome) in missing.into_iter().zip(outcomes) {
            match outcome {
                CellOutcome::Ok(result) => {
                    self.record_checkpoint(w, PrefetcherKind::None, &result);
                    self.baselines.insert(w, *result);
                }
                failed => failures.push(CellFailure::new(w, PrefetcherKind::None, &failed)),
            }
        }
        (failures, hits)
    }

    /// Appends a completed cell to the checkpoint, if one is attached.
    /// Write errors degrade the checkpoint (the cell will re-run on
    /// resume), never the sweep.
    fn record_checkpoint(&self, workload: Workload, kind: PrefetcherKind, result: &SimResult) {
        if let Some(cp) = &self.checkpoint {
            let key =
                cell_key_with_options(self.scale, workload, kind, self.telemetry, self.throttle);
            if let Err(e) = cp.record(&key, result) {
                eprintln!("[checkpoint] write for {key} failed: {e}");
            }
        }
    }

    /// Appends a completed cell to the stats export, if one is attached.
    /// Write errors degrade the export, never the sweep.
    fn record_stats(&self, workload: Workload, kind: PrefetcherKind, result: &SimResult) {
        if let Some(stats) = &self.stats {
            let key =
                cell_key_with_options(self.scale, workload, kind, self.telemetry, self.throttle);
            if let Err(e) = stats.record(&key, result) {
                eprintln!("[stats] write for {key} failed: {e}");
            }
        }
    }

    /// The cached no-prefetcher baseline for a workload.
    pub fn baseline(&mut self, workload: Workload) -> &SimResult {
        self.prime_baselines(&[workload]);
        &self.baselines[&workload]
    }

    /// Evaluates every (workload, prefetcher) cell of `cells` across the
    /// worker pool and returns the evaluations in input order.
    ///
    /// # Panics
    ///
    /// Panics — after completing every healthy cell and printing the full
    /// failure report to stderr — if any cell failed. Callers that want
    /// the failures as data use [`ParallelHarness::try_evaluate_grid`].
    pub fn evaluate_grid(&mut self, cells: &[(Workload, PrefetcherKind)]) -> Vec<Evaluation> {
        self.try_evaluate_grid(cells).into_complete()
    }

    /// Fault-tolerant grid evaluation: every cell runs panic-isolated and
    /// deadline-bounded, so one bad cell cannot abort the sweep. The
    /// report carries an evaluation slot per input cell (in input order;
    /// `None` where the cell failed) plus one [`CellFailure`] per failed
    /// cell or baseline. With a checkpoint attached, completed cells are
    /// made durable immediately and already-recorded cells are replayed
    /// without re-simulation.
    pub fn try_evaluate_grid(&mut self, cells: &[(Workload, PrefetcherKind)]) -> GridReport {
        let workloads: Vec<Workload> = cells.iter().map(|&(w, _)| w).collect();
        let (mut failures, mut checkpoint_hits) = self.try_prime_baselines(&workloads);
        let failed_baselines: Vec<Workload> = failures.iter().map(|f| f.workload).collect();
        let scale = self.scale;
        let progress = self.progress;
        let deadline = self.cell_timeout;
        let telemetry = self.telemetry;
        let throttle = self.throttle;
        let started = Instant::now();

        // Resolve what we can without simulating: cells whose baseline is
        // gone (nothing to compare against) and cells already in the
        // checkpoint.
        let mut resolved: Vec<Option<CellOutcome>> = cells
            .iter()
            .map(|&(w, k)| {
                if failed_baselines.contains(&w) {
                    return Some(CellOutcome::Panicked {
                        message: format!("not run: the {} no-prefetcher baseline failed", w.name()),
                    });
                }
                if let Some(cp) = &self.checkpoint {
                    if let Some(result) =
                        cp.get(&cell_key_with_options(scale, w, k, telemetry, throttle))
                    {
                        checkpoint_hits += 1;
                        return Some(CellOutcome::Ok(Box::new(result)));
                    }
                }
                None
            })
            .collect();

        let todo: Vec<usize> = (0..cells.len())
            .filter(|&i| resolved[i].is_none())
            .collect();
        let outcomes = parallel_map(self.jobs, todo.len(), |j| {
            let (w, k) = cells[todo[j]];
            timed_cell(w, k, scale, deadline, telemetry, throttle, progress)
        });
        for (&i, outcome) in todo.iter().zip(outcomes) {
            if let CellOutcome::Ok(result) = &outcome {
                let (w, k) = cells[i];
                self.record_checkpoint(w, k, result);
            }
            resolved[i] = Some(outcome);
        }
        if progress && cells.len() > 1 {
            eprintln!(
                "[grid] {} cells in {:.1}s on {} worker(s)",
                cells.len(),
                started.elapsed().as_secs_f64(),
                self.jobs.min(cells.len()),
            );
        }

        let evaluations: Vec<Option<Evaluation>> = cells
            .iter()
            .zip(resolved)
            .map(|(&(workload, kind), outcome)| {
                let outcome = outcome.expect("every cell was resolved or run");
                match outcome {
                    CellOutcome::Ok(result) => {
                        let baseline = self.baselines[&workload].clone();
                        let coverage = CoverageReport::from_runs(&result, &baseline);
                        let speedup = result.speedup_over(&baseline);
                        Some(Evaluation {
                            workload,
                            kind,
                            coverage,
                            speedup,
                            result: *result,
                            baseline,
                        })
                    }
                    failed => {
                        failures.push(CellFailure::new(workload, kind, &failed));
                        None
                    }
                }
            })
            .collect();
        self.export_stats(cells, &failed_baselines, &evaluations);
        GridReport {
            evaluations,
            failures,
            checkpoint_hits,
        }
    }

    /// Writes the grid's machine-readable stats, if an export is attached:
    /// each unique baseline once (first-occurrence order), then every
    /// completed cell in input order. Checkpoint replays are included, so
    /// the export is always the complete grid; the export itself
    /// deduplicates keys across repeated grids.
    fn export_stats(
        &self,
        cells: &[(Workload, PrefetcherKind)],
        failed_baselines: &[Workload],
        evaluations: &[Option<Evaluation>],
    ) {
        if self.stats.is_none() {
            return;
        }
        let mut seen: Vec<Workload> = Vec::new();
        for &(w, _) in cells {
            if !seen.contains(&w) && !failed_baselines.contains(&w) {
                seen.push(w);
                if let Some(baseline) = self.baselines.get(&w) {
                    self.record_stats(w, PrefetcherKind::None, baseline);
                }
            }
        }
        for e in evaluations.iter().flatten() {
            self.record_stats(e.workload, e.kind, &e.result);
        }
    }

    /// Row-major convenience over [`ParallelHarness::evaluate_grid`]:
    /// every kind on every workload, grouped by workload (the result for
    /// `workloads[i]` × `kinds[j]` is at index `i * kinds.len() + j`).
    pub fn evaluate_all(
        &mut self,
        workloads: &[Workload],
        kinds: &[PrefetcherKind],
    ) -> Vec<Evaluation> {
        let cells: Vec<(Workload, PrefetcherKind)> = workloads
            .iter()
            .flat_map(|&w| kinds.iter().map(move |&k| (w, k)))
            .collect();
        self.evaluate_grid(&cells)
    }

    /// Evaluates a single cell (uses the shared baseline cache).
    pub fn evaluate(&mut self, workload: Workload, kind: PrefetcherKind) -> Evaluation {
        self.evaluate_grid(&[(workload, kind)])
            .pop()
            .expect("one cell in, one evaluation out")
    }

    /// Appends a completed trace cell to the checkpoint, if one is
    /// attached; write errors degrade the checkpoint, never the sweep.
    fn record_trace_checkpoint(
        &self,
        trace: &TraceWorkload,
        kind: PrefetcherKind,
        result: &SimResult,
    ) {
        if let Some(cp) = &self.checkpoint {
            let key = trace_cell_key(
                self.scale,
                &trace.key(),
                kind,
                self.telemetry,
                self.throttle,
            );
            if let Err(e) = cp.record(&key, result) {
                eprintln!("[checkpoint] write for {key} failed: {e}");
            }
        }
    }

    /// Appends a completed trace cell to the stats export, if one is
    /// attached; write errors degrade the export, never the sweep.
    fn record_trace_stats(&self, trace: &TraceWorkload, kind: PrefetcherKind, result: &SimResult) {
        if let Some(stats) = &self.stats {
            let key = trace_cell_key(
                self.scale,
                &trace.key(),
                kind,
                self.telemetry,
                self.throttle,
            );
            if let Err(e) = stats.record(&key, result) {
                eprintln!("[stats] write for {key} failed: {e}");
            }
        }
    }

    /// The cached no-prefetcher baseline for a captured trace, keyed by
    /// [`TraceWorkload::key`] (two handles to the same capture under the
    /// same policy share one baseline).
    ///
    /// # Panics
    ///
    /// Panics if the baseline replay fails (corrupt strict trace, panic,
    /// or exceeded cell deadline); [`ParallelHarness::try_evaluate_trace_grid`]
    /// reports such failures as values instead.
    pub fn trace_baseline(&mut self, trace: &TraceWorkload) -> &SimResult {
        let report = self.try_evaluate_trace_grid(std::slice::from_ref(trace), &[]);
        if let Some(f) = report.failures.first() {
            panic!("baseline for trace {} failed: {}", f.trace, f.reason);
        }
        &self.trace_baselines[&trace.key()]
    }

    /// Row-major (trace × kind) sweep over captured traces, mirroring
    /// [`ParallelHarness::evaluate_all`]: every kind replayed on every
    /// trace, each trace's no-prefetcher baseline computed exactly once.
    ///
    /// # Panics
    ///
    /// Panics — after completing every healthy cell and printing the full
    /// failure report to stderr — if any cell failed. Callers that want
    /// the failures as data use
    /// [`ParallelHarness::try_evaluate_trace_grid`].
    pub fn evaluate_trace_grid(
        &mut self,
        traces: &[TraceWorkload],
        kinds: &[PrefetcherKind],
    ) -> Vec<TraceEvaluation> {
        self.try_evaluate_trace_grid(traces, kinds).into_complete()
    }

    /// Fault-tolerant trace sweep: every replay cell runs panic-isolated
    /// and deadline-bounded, so one corrupt or slow trace cannot abort the
    /// sweep. Strict-policy decode errors surface as [`TraceCellFailure`]s
    /// carrying the typed error message (byte offset included); lenient
    /// traces complete with their quarantine tallies in
    /// [`SimResult::ingest`]. Checkpointing and stats export work exactly
    /// as in [`ParallelHarness::try_evaluate_grid`], under
    /// [`trace_cell_key`]'s `trace:`-prefixed namespace.
    pub fn try_evaluate_trace_grid(
        &mut self,
        traces: &[TraceWorkload],
        kinds: &[PrefetcherKind],
    ) -> TraceGridReport {
        let scale = self.scale;
        let telemetry = self.telemetry;
        let throttle = self.throttle;
        let deadline = self.cell_timeout;
        let progress = self.progress;
        let started = Instant::now();
        let mut failures: Vec<TraceCellFailure> = Vec::new();
        let mut checkpoint_hits = 0;

        // Prime the per-trace baselines: checkpoint replay first, then one
        // simulation per distinct trace key.
        let mut missing: Vec<usize> = Vec::new();
        for (i, t) in traces.iter().enumerate() {
            let key = t.key();
            if self.trace_baselines.contains_key(&key)
                || missing.iter().any(|&j| traces[j].key() == key)
            {
                continue;
            }
            if let Some(cp) = &self.checkpoint {
                if let Some(result) = cp.get(&trace_cell_key(
                    scale,
                    &key,
                    PrefetcherKind::None,
                    telemetry,
                    throttle,
                )) {
                    self.trace_baselines.insert(key, result);
                    checkpoint_hits += 1;
                    continue;
                }
            }
            missing.push(i);
        }
        let outcomes = parallel_map(self.jobs, missing.len(), |j| {
            timed_trace_cell(
                &traces[missing[j]],
                PrefetcherKind::None,
                scale,
                deadline,
                telemetry,
                throttle,
                progress,
            )
        });
        let mut failed_baselines: Vec<String> = Vec::new();
        for (&i, outcome) in missing.iter().zip(outcomes) {
            let t = &traces[i];
            match outcome {
                CellOutcome::Ok(result) => {
                    self.record_trace_checkpoint(t, PrefetcherKind::None, &result);
                    self.trace_baselines.insert(t.key(), *result);
                }
                failed => {
                    failures.push(TraceCellFailure::new(t, PrefetcherKind::None, &failed));
                    failed_baselines.push(t.key());
                }
            }
        }

        // The grid itself, row-major: traces[i] × kinds[j] at
        // i * kinds.len() + j.
        let cells: Vec<(usize, PrefetcherKind)> = (0..traces.len())
            .flat_map(|i| kinds.iter().map(move |&k| (i, k)))
            .collect();
        let mut resolved: Vec<Option<CellOutcome>> = cells
            .iter()
            .map(|&(i, k)| {
                let t = &traces[i];
                if failed_baselines.contains(&t.key()) {
                    return Some(CellOutcome::Panicked {
                        message: format!("not run: the {} no-prefetcher baseline failed", t.name()),
                    });
                }
                if let Some(cp) = &self.checkpoint {
                    if let Some(result) =
                        cp.get(&trace_cell_key(scale, &t.key(), k, telemetry, throttle))
                    {
                        checkpoint_hits += 1;
                        return Some(CellOutcome::Ok(Box::new(result)));
                    }
                }
                None
            })
            .collect();
        let todo: Vec<usize> = (0..cells.len())
            .filter(|&i| resolved[i].is_none())
            .collect();
        let outcomes = parallel_map(self.jobs, todo.len(), |j| {
            let (i, k) = cells[todo[j]];
            timed_trace_cell(
                &traces[i], k, scale, deadline, telemetry, throttle, progress,
            )
        });
        for (&ci, outcome) in todo.iter().zip(outcomes) {
            if let CellOutcome::Ok(result) = &outcome {
                let (i, k) = cells[ci];
                self.record_trace_checkpoint(&traces[i], k, result);
            }
            resolved[ci] = Some(outcome);
        }
        if progress && cells.len() > 1 {
            eprintln!(
                "[grid] {} trace cells in {:.1}s on {} worker(s)",
                cells.len(),
                started.elapsed().as_secs_f64(),
                self.jobs.min(cells.len()),
            );
        }

        let evaluations: Vec<Option<TraceEvaluation>> = cells
            .iter()
            .zip(resolved)
            .map(|(&(i, kind), outcome)| {
                let t = &traces[i];
                let outcome = outcome.expect("every trace cell was resolved or run");
                match outcome {
                    CellOutcome::Ok(result) => {
                        let baseline = self.trace_baselines[&t.key()].clone();
                        let coverage = CoverageReport::from_runs(&result, &baseline);
                        let speedup = result.speedup_over(&baseline);
                        Some(TraceEvaluation {
                            trace: t.name().to_string(),
                            kind,
                            coverage,
                            speedup,
                            result: *result,
                            baseline,
                        })
                    }
                    failed => {
                        failures.push(TraceCellFailure::new(t, kind, &failed));
                        None
                    }
                }
            })
            .collect();

        if self.stats.is_some() {
            let mut seen: Vec<String> = Vec::new();
            for t in traces {
                let key = t.key();
                if !seen.contains(&key) && !failed_baselines.contains(&key) {
                    if let Some(baseline) = self.trace_baselines.get(&key) {
                        self.record_trace_stats(t, PrefetcherKind::None, baseline);
                    }
                    seen.push(key);
                }
            }
            for (e, &(i, _)) in evaluations.iter().zip(&cells) {
                if let Some(e) = e {
                    self.record_trace_stats(&traces[i], e.kind, &e.result);
                }
            }
        }
        TraceGridReport {
            evaluations,
            failures,
            checkpoint_hits,
        }
    }
}

/// The outcome of one prefetcher-on-workload evaluation.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Workload evaluated.
    pub workload: Workload,
    /// Prefetcher evaluated.
    pub kind: PrefetcherKind,
    /// Coverage / overprediction / accuracy vs the baseline.
    pub coverage: CoverageReport,
    /// Geometric-mean per-core speedup over the baseline.
    pub speedup: f64,
    /// The prefetching run.
    pub result: SimResult,
    /// The baseline run.
    pub baseline: SimResult,
}

impl Evaluation {
    /// Performance improvement as a fraction (paper's Fig. 8 metric).
    pub fn improvement(&self) -> f64 {
        self.speedup - 1.0
    }
}

/// One failed sweep cell: which cell, and why.
#[derive(Clone, Debug)]
pub struct CellFailure {
    /// Workload of the failed cell.
    pub workload: Workload,
    /// Prefetcher of the failed cell ([`PrefetcherKind::None`] for a
    /// failed no-prefetcher baseline).
    pub kind: PrefetcherKind,
    /// Human-readable failure reason, including the panic message or the
    /// exceeded deadline.
    pub reason: String,
}

impl CellFailure {
    fn new(workload: Workload, kind: PrefetcherKind, outcome: &CellOutcome) -> CellFailure {
        let reason = match outcome {
            CellOutcome::Ok(_) => unreachable!("successful cells are not failures"),
            CellOutcome::Panicked { message } => format!("panicked: {message}"),
            CellOutcome::TimedOut { limit } => {
                format!("timed out after {:.3}s", limit.as_secs_f64())
            }
        };
        CellFailure {
            workload,
            kind,
            reason,
        }
    }
}

/// The result of a fault-tolerant sweep: per-cell evaluations (in input
/// order, `None` where the cell failed) plus the collected failures.
#[derive(Debug)]
pub struct GridReport {
    /// One slot per input cell, input order; `None` for failed cells.
    pub evaluations: Vec<Option<Evaluation>>,
    /// Every failed cell and failed baseline, in discovery order.
    pub failures: Vec<CellFailure>,
    /// Cells and baselines replayed from the checkpoint instead of
    /// simulated.
    pub checkpoint_hits: usize,
}

impl GridReport {
    /// Whether every cell (and every baseline) completed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of cells that produced an evaluation.
    pub fn completed(&self) -> usize {
        self.evaluations.iter().filter(|e| e.is_some()).count()
    }

    /// Requires every completed cell to have reported each named
    /// prefetcher metric, turning the silent `None` of
    /// [`SimResult::metric_sum`] into a listed [`CellFailure`]. A typo'd
    /// or renamed metric therefore shows up by name in the failure report
    /// (and fails [`GridReport::into_complete`]) instead of plotting as a
    /// silent zero.
    pub fn require_metrics(&mut self, names: &[&str]) {
        for e in self.evaluations.iter().flatten() {
            for &name in names {
                if e.result.metric_sum(name).is_none() {
                    self.failures.push(CellFailure {
                        workload: e.workload,
                        kind: e.kind,
                        reason: format!(
                            "metric {name:?} missing: {} reported no such metric",
                            e.kind.name()
                        ),
                    });
                }
            }
        }
    }

    /// The multi-line failure report: one line per failed cell with its
    /// workload, prefetcher, and reason. Empty string when clean.
    pub fn failure_report(&self) -> String {
        if self.failures.is_empty() {
            return String::new();
        }
        let mut out = format!(
            "FAILURE REPORT: {} of {} cell(s) completed, {} failure(s)\n",
            self.completed(),
            self.evaluations.len(),
            self.failures.len()
        );
        for f in &self.failures {
            out.push_str(&format!(
                "  {} / {}: {}\n",
                f.workload.name(),
                f.kind.name(),
                f.reason
            ));
        }
        out
    }

    /// Unwraps a clean report into its evaluations.
    ///
    /// # Panics
    ///
    /// Panics — after printing the failure report to stderr — if any cell
    /// failed, turning a faulty sweep into a nonzero process exit *after*
    /// every healthy cell has completed and been checkpointed.
    pub fn into_complete(self) -> Vec<Evaluation> {
        if !self.failures.is_empty() {
            eprint!("{}", self.failure_report());
            panic!(
                "{} sweep cell(s) failed; see the failure report above",
                self.failures.len()
            );
        }
        self.evaluations
            .into_iter()
            .map(|e| e.expect("clean reports have every evaluation"))
            .collect()
    }
}

/// The outcome of one prefetcher-on-captured-trace evaluation. The
/// workload column is the trace's directory name (a string, not a
/// [`Workload`] — a replayed capture needs no generator).
#[derive(Clone, Debug)]
pub struct TraceEvaluation {
    /// Name of the replayed trace (its capture directory name).
    pub trace: String,
    /// Prefetcher evaluated.
    pub kind: PrefetcherKind,
    /// Coverage / overprediction / accuracy vs the trace's baseline.
    pub coverage: CoverageReport,
    /// Geometric-mean per-core speedup over the trace's baseline.
    pub speedup: f64,
    /// The prefetching replay (carries [`SimResult::ingest`]).
    pub result: SimResult,
    /// The no-prefetcher replay of the same trace.
    pub baseline: SimResult,
}

impl TraceEvaluation {
    /// Performance improvement as a fraction (paper's Fig. 8 metric).
    pub fn improvement(&self) -> f64 {
        self.speedup - 1.0
    }
}

/// One failed trace-replay cell: which trace, which prefetcher, and why
/// (for a corrupt strict trace the reason carries the typed decode error,
/// byte offset included).
#[derive(Clone, Debug)]
pub struct TraceCellFailure {
    /// Name of the trace of the failed cell.
    pub trace: String,
    /// Prefetcher of the failed cell ([`PrefetcherKind::None`] for a
    /// failed baseline replay).
    pub kind: PrefetcherKind,
    /// Human-readable failure reason.
    pub reason: String,
}

impl TraceCellFailure {
    fn new(trace: &TraceWorkload, kind: PrefetcherKind, outcome: &CellOutcome) -> TraceCellFailure {
        let reason = match outcome {
            CellOutcome::Ok(_) => unreachable!("successful cells are not failures"),
            CellOutcome::Panicked { message } => format!("panicked: {message}"),
            CellOutcome::TimedOut { limit } => {
                format!("timed out after {:.3}s", limit.as_secs_f64())
            }
        };
        TraceCellFailure {
            trace: trace.name().to_string(),
            kind,
            reason,
        }
    }
}

/// The result of a fault-tolerant trace sweep, mirroring [`GridReport`]:
/// per-cell evaluations in row-major input order (`None` where the cell
/// failed) plus the collected failures.
#[derive(Debug)]
pub struct TraceGridReport {
    /// One slot per (trace × kind) cell, row-major; `None` for failures.
    pub evaluations: Vec<Option<TraceEvaluation>>,
    /// Every failed cell and failed baseline, in discovery order.
    pub failures: Vec<TraceCellFailure>,
    /// Cells and baselines replayed from the checkpoint instead of
    /// simulated.
    pub checkpoint_hits: usize,
}

impl TraceGridReport {
    /// Whether every cell (and every baseline) completed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of cells that produced an evaluation.
    pub fn completed(&self) -> usize {
        self.evaluations.iter().filter(|e| e.is_some()).count()
    }

    /// The multi-line failure report: one line per failed cell with its
    /// trace, prefetcher, and reason. Empty string when clean.
    pub fn failure_report(&self) -> String {
        if self.failures.is_empty() {
            return String::new();
        }
        let mut out = format!(
            "FAILURE REPORT: {} of {} trace cell(s) completed, {} failure(s)\n",
            self.completed(),
            self.evaluations.len(),
            self.failures.len()
        );
        for f in &self.failures {
            out.push_str(&format!(
                "  {} / {}: {}\n",
                f.trace,
                f.kind.name(),
                f.reason
            ));
        }
        out
    }

    /// Unwraps a clean report into its evaluations.
    ///
    /// # Panics
    ///
    /// Panics — after printing the failure report to stderr — if any cell
    /// failed, after every healthy cell has completed and been
    /// checkpointed.
    pub fn into_complete(self) -> Vec<TraceEvaluation> {
        if !self.failures.is_empty() {
            eprint!("{}", self.failure_report());
            panic!(
                "{} trace sweep cell(s) failed; see the failure report above",
                self.failures.len()
            );
        }
        self.evaluations
            .into_iter()
            .map(|e| e.expect("clean reports have every evaluation"))
            .collect()
    }
}

/// Geometric mean over a nonempty slice of positive values.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of empty slice");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean over a nonempty slice.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of empty slice");
    values.iter().sum::<f64>() / values.len() as f64
}

// ---------------------------------------------------------------------------
// Multi-core mix cells
// ---------------------------------------------------------------------------

/// One cell of a multi-core mix grid: a declared [`MixConfig`] run at
/// `cores` cores under a memory-[`Pressure`] level. Core counts past the
/// declared slots replicate the mix pattern cyclically (see
/// [`MixConfig::assignment`]).
#[derive(Debug, Clone)]
pub struct MixCell {
    /// The declared mix.
    pub mix: MixConfig,
    /// Core count of this cell's machine.
    pub cores: usize,
    /// Memory-pressure level applied to the shared resources.
    pub pressure: Pressure,
}

/// Runs one declared mix on an N-core machine: per-core instruction
/// sources, prefetcher instances, and committed-instruction targets all
/// come from the mix's per-slot assignments, while the LLC, MSHR pool,
/// and DRAM channels stay at the paper machine's shared sizing (under
/// the given [`Pressure`]). A homogeneous mix at the paper's core count,
/// scale 100 %, and [`Pressure::NONE`] is bit-for-bit
/// [`run_one_configured`] by construction: identical sources, identical
/// per-core prefetchers, uniform targets.
///
/// # Errors
///
/// [`SimAbort`] if the optional deadline expires or the simulator trips
/// its internal cycle limit.
pub fn run_mix_configured(
    mix: &MixConfig,
    cores: usize,
    pressure: &Pressure,
    scale: RunScale,
    deadline: Option<Duration>,
    telemetry: TelemetryLevel,
    throttle: ThrottleMode,
) -> Result<SimResult, SimAbort> {
    assert!(cores > 0, "a mix machine needs at least one core");
    let mut cfg = SystemConfig::paper().with_cores(cores);
    pressure.apply(&mut cfg);
    let sources = (0..cores)
        .map(|i| mix.assignment(i).workload.source_for_core(i, scale.seed))
        .collect();
    let prefetchers = (0..cores)
        .map(|i| mix.assignment(i).prefetcher.build())
        .collect();
    let targets: Vec<u64> = (0..cores)
        .map(|i| mix.assignment(i).instructions(scale.instructions_per_core))
        .collect();
    let mut system = System::new_heterogeneous(cfg, sources, prefetchers, &targets)
        .with_warmup(scale.warmup_per_core)
        .with_telemetry(telemetry)
        .with_throttle(throttle);
    if let Some(limit) = deadline {
        system = system.with_time_limit(limit);
    }
    system.try_run()
}

/// [`run_mix_configured`] with the QoS extensions: an explicit
/// starvation-SLO override for [`ThrottleMode::Percore`] (falling back
/// to [`bingo_sim::DEFAULT_QOS_SLO`] when `None`) and an optional
/// [`ChaosInjector`] perturbing the live run. A `None`/`None` call is
/// bit-for-bit [`run_mix_configured`]: the config field stays at its
/// default and no injector is attached.
///
/// # Errors
///
/// Same as [`run_mix_configured`].
#[allow(clippy::too_many_arguments)]
pub fn run_mix_qos(
    mix: &MixConfig,
    cores: usize,
    pressure: &Pressure,
    scale: RunScale,
    deadline: Option<Duration>,
    throttle: ThrottleMode,
    qos_slo: Option<f64>,
    chaos: Option<ChaosInjector>,
) -> Result<SimResult, SimAbort> {
    assert!(cores > 0, "a mix machine needs at least one core");
    let mut cfg = SystemConfig::paper().with_cores(cores);
    pressure.apply(&mut cfg);
    cfg.qos_slo = qos_slo;
    let sources = (0..cores)
        .map(|i| mix.assignment(i).workload.source_for_core(i, scale.seed))
        .collect();
    let prefetchers = (0..cores)
        .map(|i| mix.assignment(i).prefetcher.build())
        .collect();
    let targets: Vec<u64> = (0..cores)
        .map(|i| mix.assignment(i).instructions(scale.instructions_per_core))
        .collect();
    let mut system = System::new_heterogeneous(cfg, sources, prefetchers, &targets)
        .with_warmup(scale.warmup_per_core)
        .with_throttle(throttle);
    if let Some(injector) = chaos {
        system = system.with_chaos(injector);
    }
    if let Some(limit) = deadline {
        system = system.with_time_limit(limit);
    }
    system.try_run()
}

/// Runs one mix slot *alone*: the identical instruction stream (same
/// slot index, so same seed and address space), prefetcher, and
/// instruction target as in the mix, but on a 1-core machine with the
/// whole shared memory system — same pressure level — to itself. The
/// fairness report's per-core slowdown is the ratio of this run's IPC to
/// the slot's IPC inside the mix.
///
/// # Errors
///
/// Same as [`run_mix_configured`].
pub fn run_mix_solo_configured(
    assignment: MixAssignment,
    slot: usize,
    pressure: &Pressure,
    scale: RunScale,
    deadline: Option<Duration>,
    telemetry: TelemetryLevel,
    throttle: ThrottleMode,
) -> Result<SimResult, SimAbort> {
    let mut cfg = SystemConfig::paper().with_cores(1);
    pressure.apply(&mut cfg);
    let sources = vec![assignment.workload.source_for_core(slot, scale.seed)];
    let prefetchers = vec![assignment.prefetcher.build()];
    let targets = [assignment.instructions(scale.instructions_per_core)];
    let mut system = System::new_heterogeneous(cfg, sources, prefetchers, &targets)
        .with_warmup(scale.warmup_per_core)
        .with_telemetry(telemetry)
        .with_throttle(throttle);
    if let Some(limit) = deadline {
        system = system.with_time_limit(limit);
    }
    system.try_run()
}

/// Applies the mix-key namespacing suffixes shared by [`mix_cell_key`]
/// and [`mix_solo_key`]: the pressure suffix ([`Pressure::NONE`]
/// contributes nothing), then the option suffixes every key shares.
fn decorate_mix_key(
    base: String,
    pressure: &Pressure,
    telemetry: TelemetryLevel,
    throttle: ThrottleMode,
) -> String {
    with_option_suffixes(
        format!("{base}{}", pressure.key_suffix()),
        telemetry,
        throttle,
    )
}

/// Checkpoint/stats key of one mix cell. The key embeds both the mix's
/// name and its full slot spec, so renaming a mix *or* editing its
/// assignments invalidates old checkpoint entries; it lives in the
/// `mix:` namespace, disjoint from single-workload (`{seed}/…`) and
/// trace (`trace:…`) keys, so mixed old/new checkpoint files resolve
/// every generation of cell correctly.
pub fn mix_cell_key(
    scale: RunScale,
    mix: &MixConfig,
    cores: usize,
    pressure: &Pressure,
    telemetry: TelemetryLevel,
    throttle: ThrottleMode,
) -> String {
    let base = format!(
        "mix:{}/{}/{}/{}@{}/{}",
        scale.seed,
        scale.instructions_per_core,
        scale.warmup_per_core,
        mix.name,
        cores,
        mix.spec()
    );
    decorate_mix_key(base, pressure, telemetry, throttle)
}

/// Checkpoint/stats key of one solo run. Deliberately *not* namespaced
/// by mix name: a solo run depends only on the slot assignment, so two
/// mixes sharing a slot share the solo simulation and its checkpoint
/// entry.
pub fn mix_solo_key(
    scale: RunScale,
    slot: usize,
    assignment: &MixAssignment,
    pressure: &Pressure,
    telemetry: TelemetryLevel,
    throttle: ThrottleMode,
) -> String {
    let base = format!(
        "mix-solo:{}/{}/{}/{}",
        scale.seed,
        scale.instructions_per_core,
        scale.warmup_per_core,
        assignment.slot_spec(slot)
    );
    decorate_mix_key(base, pressure, telemetry, throttle)
}

/// The harness run settings shared by every cell of one mix sweep.
#[derive(Clone, Copy)]
struct MixRunSettings {
    scale: RunScale,
    deadline: Option<Duration>,
    telemetry: TelemetryLevel,
    throttle: ThrottleMode,
    progress: bool,
}

/// [`run_mix_configured`] with panic isolation: every failure mode comes
/// back as a [`CellOutcome`], with an optional `[cell]` progress line.
fn timed_mix_cell(
    mix: &MixConfig,
    cores: usize,
    pressure: &Pressure,
    s: MixRunSettings,
) -> CellOutcome {
    let label = format!("{}@{}", mix.name, cores);
    guarded_mix_cell(&label, pressure.name, s.progress, || {
        run_mix_configured(
            mix,
            cores,
            pressure,
            s.scale,
            s.deadline,
            s.telemetry,
            s.throttle,
        )
    })
}

/// [`run_mix_solo_configured`] with panic isolation and the same
/// progress-line format as [`timed_mix_cell`].
fn timed_mix_solo_cell(
    assignment: MixAssignment,
    slot: usize,
    pressure: &Pressure,
    s: MixRunSettings,
) -> CellOutcome {
    let label = format!("solo:{}", assignment.slot_spec(slot));
    guarded_mix_cell(&label, pressure.name, s.progress, || {
        run_mix_solo_configured(
            assignment,
            slot,
            pressure,
            s.scale,
            s.deadline,
            s.telemetry,
            s.throttle,
        )
    })
}

/// The shared panic-isolation + progress core of the mix cell runners.
fn guarded_mix_cell(
    label: &str,
    pressure: &str,
    progress: bool,
    run: impl FnOnce() -> Result<SimResult, SimAbort>,
) -> CellOutcome {
    let start = Instant::now();
    let attempt = catch_unwind(AssertUnwindSafe(run));
    let outcome = match attempt {
        Ok(Ok(result)) => CellOutcome::Ok(Box::new(result)),
        Ok(Err(SimAbort::DeadlineExceeded { limit })) => CellOutcome::TimedOut { limit },
        Ok(Err(abort @ SimAbort::CycleLimit { .. })) => CellOutcome::Panicked {
            message: abort.to_string(),
        },
        Err(payload) => CellOutcome::Panicked {
            message: panic_message(payload.as_ref()),
        },
    };
    if progress {
        let wall = start.elapsed().as_secs_f64();
        let status = match &outcome {
            CellOutcome::Ok(result) => format!(
                "{:>6.2} Minstr/s",
                result.instructions() as f64 / wall.max(1e-9) / 1e6
            ),
            CellOutcome::Panicked { .. } => "PANICKED".to_string(),
            CellOutcome::TimedOut { .. } => "TIMED OUT".to_string(),
        };
        eprintln!("[cell] {label:<28} {pressure:<14} {wall:>7.2}s  {status}");
    }
    outcome
}

/// The outcome of one completed mix cell.
#[derive(Clone, Debug)]
pub struct MixEvaluation {
    /// Name of the evaluated mix.
    pub mix_name: String,
    /// Core count of the cell's machine.
    pub cores: usize,
    /// Pressure level of the cell.
    pub pressure: Pressure,
    /// Per-core fairness: IPCs, aggregate, min/max ratio, slowdowns
    /// versus the solo runs.
    pub fairness: FairnessReport,
    /// The full mix run.
    pub result: SimResult,
}

/// One failed mix cell or solo run: which, and why.
#[derive(Clone, Debug)]
pub struct MixCellFailure {
    /// Name of the mix (for a solo failure: the mix(es) needing it are
    /// not listed; the slot spec below identifies the run).
    pub mix_name: String,
    /// Core count of the failed cell; for a solo failure, 1.
    pub cores: usize,
    /// Pressure level name.
    pub pressure: &'static str,
    /// `Some(slot spec)` when the failure was a solo run.
    pub solo: Option<String>,
    /// Human-readable failure reason.
    pub reason: String,
}

/// The result of a fault-tolerant mix sweep, mirroring [`GridReport`]:
/// per-cell evaluations in input order (`None` where the cell or one of
/// its solos failed) plus the collected failures.
#[derive(Debug)]
pub struct MixGridReport {
    /// One slot per input cell, input order; `None` for failed cells.
    pub evaluations: Vec<Option<MixEvaluation>>,
    /// Every failed mix cell and solo run, in discovery order.
    pub failures: Vec<MixCellFailure>,
    /// Cells and solos replayed from the checkpoint instead of
    /// simulated.
    pub checkpoint_hits: usize,
}

impl MixGridReport {
    /// Whether every cell (and every solo) completed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of cells that produced an evaluation.
    pub fn completed(&self) -> usize {
        self.evaluations.iter().filter(|e| e.is_some()).count()
    }

    /// The multi-line failure report; empty string when clean.
    pub fn failure_report(&self) -> String {
        if self.failures.is_empty() {
            return String::new();
        }
        let mut out = format!(
            "FAILURE REPORT: {} of {} mix cell(s) completed, {} failure(s)\n",
            self.completed(),
            self.evaluations.len(),
            self.failures.len()
        );
        for f in &self.failures {
            let what = match &f.solo {
                Some(spec) => format!("solo {spec}"),
                None => format!("{}@{}", f.mix_name, f.cores),
            };
            out.push_str(&format!("  {what} / {}: {}\n", f.pressure, f.reason));
        }
        out
    }

    /// Unwraps a clean report into its evaluations.
    ///
    /// # Panics
    ///
    /// Panics — after printing the failure report to stderr — if any cell
    /// or solo failed, after every healthy cell has completed and been
    /// checkpointed (the same contract as [`GridReport::into_complete`]).
    pub fn into_complete(self) -> Vec<MixEvaluation> {
        if !self.failures.is_empty() {
            eprint!("{}", self.failure_report());
            panic!(
                "{} mix cell(s) failed; see the failure report above",
                self.failures.len()
            );
        }
        self.evaluations
            .into_iter()
            .map(|e| e.expect("clean reports have every evaluation"))
            .collect()
    }
}

impl ParallelHarness {
    /// Fault-tolerant multi-core mix sweep. For every cell the harness
    /// first ensures the solo run of each core slot exists (computed once
    /// per unique `(slot assignment, pressure)` across the whole grid,
    /// checkpoint-replayed when possible), then runs the N-core mix, and
    /// finally derives the cell's [`FairnessReport`] from the mix result
    /// and its solos. Mix cells use `mix:`-namespaced checkpoint/stats
    /// keys, solos `mix-solo:` — both disjoint from the single-workload
    /// and trace namespaces, so one checkpoint file can carry all three
    /// generations of cell and a mixed old/new file retries only what is
    /// actually missing.
    pub fn try_evaluate_mix_grid(&mut self, cells: &[MixCell]) -> MixGridReport {
        let scale = self.scale;
        let telemetry = self.telemetry;
        let throttle = self.throttle;
        let settings = MixRunSettings {
            scale,
            deadline: self.cell_timeout,
            telemetry,
            throttle,
            progress: self.progress,
        };
        let started = Instant::now();
        let mut failures: Vec<MixCellFailure> = Vec::new();
        let mut checkpoint_hits = 0;

        // Every unique solo run the grid needs, in first-need order.
        let mut solo_keys: Vec<String> = Vec::new();
        let mut solo_specs: Vec<(MixAssignment, usize, Pressure)> = Vec::new();
        for cell in cells {
            for slot in 0..cell.cores {
                let a = cell.mix.assignment(slot);
                let key = mix_solo_key(scale, slot, &a, &cell.pressure, telemetry, throttle);
                if !solo_keys.contains(&key) {
                    solo_keys.push(key);
                    solo_specs.push((a, slot, cell.pressure));
                }
            }
        }

        // Resolve solos: cache, then checkpoint, then simulation.
        let todo: Vec<usize> = (0..solo_keys.len())
            .filter(|&i| {
                let key = &solo_keys[i];
                if self.mix_solos.contains_key(key) {
                    return false;
                }
                if let Some(cp) = &self.checkpoint {
                    if let Some(result) = cp.get(key) {
                        self.mix_solos.insert(key.clone(), result);
                        checkpoint_hits += 1;
                        return false;
                    }
                }
                true
            })
            .collect();
        let outcomes = parallel_map(self.jobs, todo.len(), |j| {
            let (a, slot, pressure) = solo_specs[todo[j]];
            timed_mix_solo_cell(a, slot, &pressure, settings)
        });
        for (&i, outcome) in todo.iter().zip(outcomes) {
            let key = &solo_keys[i];
            match outcome {
                CellOutcome::Ok(result) => {
                    self.record_mix_checkpoint(key, &result);
                    self.mix_solos.insert(key.clone(), *result);
                }
                failed => {
                    let (a, slot, pressure) = &solo_specs[i];
                    failures.push(MixCellFailure {
                        mix_name: String::new(),
                        cores: 1,
                        pressure: pressure.name,
                        solo: Some(a.slot_spec(*slot)),
                        reason: failure_reason(&failed),
                    });
                }
            }
        }

        // Export every resolved solo (checkpoint replays included, so the
        // export is always the complete grid; the export dedups keys).
        if self.stats.is_some() {
            for key in &solo_keys {
                if let Some(result) = self.mix_solos.get(key) {
                    self.record_mix_stats(key, result);
                }
            }
        }

        // Run the mix cells whose solos all resolved.
        let mut resolved: Vec<Option<CellOutcome>> = cells
            .iter()
            .map(|cell| {
                let missing_solo = (0..cell.cores).find(|&slot| {
                    let a = cell.mix.assignment(slot);
                    let key = mix_solo_key(scale, slot, &a, &cell.pressure, telemetry, throttle);
                    !self.mix_solos.contains_key(&key)
                });
                if let Some(slot) = missing_solo {
                    return Some(CellOutcome::Panicked {
                        message: format!("not run: the solo run of core slot {slot} failed"),
                    });
                }
                if let Some(cp) = &self.checkpoint {
                    let key = mix_cell_key(
                        scale,
                        &cell.mix,
                        cell.cores,
                        &cell.pressure,
                        telemetry,
                        throttle,
                    );
                    if let Some(result) = cp.get(&key) {
                        checkpoint_hits += 1;
                        return Some(CellOutcome::Ok(Box::new(result)));
                    }
                }
                None
            })
            .collect();
        let todo: Vec<usize> = (0..cells.len())
            .filter(|&i| resolved[i].is_none())
            .collect();
        let outcomes = parallel_map(self.jobs, todo.len(), |j| {
            let cell = &cells[todo[j]];
            timed_mix_cell(&cell.mix, cell.cores, &cell.pressure, settings)
        });
        for (&i, outcome) in todo.iter().zip(outcomes) {
            if let CellOutcome::Ok(result) = &outcome {
                let cell = &cells[i];
                let key = mix_cell_key(
                    scale,
                    &cell.mix,
                    cell.cores,
                    &cell.pressure,
                    telemetry,
                    throttle,
                );
                self.record_mix_checkpoint(&key, result);
            }
            resolved[i] = Some(outcome);
        }
        if settings.progress && cells.len() > 1 {
            eprintln!(
                "[mix-grid] {} cells in {:.1}s on {} worker(s)",
                cells.len(),
                started.elapsed().as_secs_f64(),
                self.jobs.min(cells.len()),
            );
        }

        // Derive fairness and assemble the report.
        let evaluations: Vec<Option<MixEvaluation>> = cells
            .iter()
            .zip(resolved)
            .map(|(cell, outcome)| {
                let outcome = outcome.expect("every mix cell was resolved or run");
                match outcome {
                    CellOutcome::Ok(result) => {
                        let key = mix_cell_key(
                            scale,
                            &cell.mix,
                            cell.cores,
                            &cell.pressure,
                            telemetry,
                            throttle,
                        );
                        self.record_mix_stats(&key, &result);
                        let solos: Vec<SimResult> = (0..cell.cores)
                            .map(|slot| {
                                let a = cell.mix.assignment(slot);
                                let key = mix_solo_key(
                                    scale,
                                    slot,
                                    &a,
                                    &cell.pressure,
                                    telemetry,
                                    throttle,
                                );
                                self.mix_solos[&key].clone()
                            })
                            .collect();
                        let fairness = FairnessReport::compute(&result, &solos);
                        Some(MixEvaluation {
                            mix_name: cell.mix.name.clone(),
                            cores: cell.cores,
                            pressure: cell.pressure,
                            fairness,
                            result: *result,
                        })
                    }
                    failed => {
                        failures.push(MixCellFailure {
                            mix_name: cell.mix.name.clone(),
                            cores: cell.cores,
                            pressure: cell.pressure.name,
                            solo: None,
                            reason: failure_reason(&failed),
                        });
                        None
                    }
                }
            })
            .collect();
        MixGridReport {
            evaluations,
            failures,
            checkpoint_hits,
        }
    }

    /// Panicking convenience over
    /// [`ParallelHarness::try_evaluate_mix_grid`], mirroring
    /// [`ParallelHarness::evaluate_grid`].
    pub fn evaluate_mix_grid(&mut self, cells: &[MixCell]) -> Vec<MixEvaluation> {
        self.try_evaluate_mix_grid(cells).into_complete()
    }

    /// Appends a mix-namespaced result to the checkpoint, if one is
    /// attached. Write errors degrade the checkpoint, never the sweep.
    fn record_mix_checkpoint(&self, key: &str, result: &SimResult) {
        if let Some(cp) = &self.checkpoint {
            if let Err(e) = cp.record(key, result) {
                eprintln!("[checkpoint] write for {key} failed: {e}");
            }
        }
    }

    /// Appends a mix-namespaced result to the stats export, if one is
    /// attached. Write errors degrade the export, never the sweep.
    fn record_mix_stats(&self, key: &str, result: &SimResult) {
        if let Some(stats) = &self.stats {
            if let Err(e) = stats.record(key, result) {
                eprintln!("[stats] write for {key} failed: {e}");
            }
        }
    }
}

/// The human-readable reason of a failed [`CellOutcome`].
fn failure_reason(outcome: &CellOutcome) -> String {
    match outcome {
        CellOutcome::Ok(_) => unreachable!("successful cells are not failures"),
        CellOutcome::Panicked { message } => format!("panicked: {message}"),
        CellOutcome::TimedOut { limit } => {
            format!("timed out after {:.3}s", limit.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every constructible kind, one representative per variant.
    fn all_kinds() -> Vec<PrefetcherKind> {
        vec![
            PrefetcherKind::None,
            PrefetcherKind::Bop,
            PrefetcherKind::BopAggressive,
            PrefetcherKind::Spp,
            PrefetcherKind::SppAggressive,
            PrefetcherKind::Vldp,
            PrefetcherKind::VldpAggressive,
            PrefetcherKind::Ampm,
            PrefetcherKind::Sms,
            PrefetcherKind::Bingo,
            PrefetcherKind::BingoEntries(4096),
            PrefetcherKind::BingoVote(0.5),
            PrefetcherKind::SingleEvent(EventKind::Offset),
            PrefetcherKind::MultiEvent(3),
            PrefetcherKind::Stride,
            PrefetcherKind::NextLine(2),
            PrefetcherKind::BingoFaulty {
                fault_seed: 9,
                rate: 0.05,
            },
            PrefetcherKind::Faulty { panic_after: 1000 },
        ]
    }

    #[test]
    fn kinds_build_and_have_names() {
        for k in all_kinds() {
            let p = k.build();
            assert!(!p.name().is_empty());
            assert!(!k.name().is_empty());
        }
    }

    #[test]
    fn storage_from_config_matches_built_prefetcher() {
        for k in all_kinds() {
            assert_eq!(
                k.storage_bits(),
                k.build().storage_bits(),
                "config-level storage of {} disagrees with the built table",
                k.name()
            );
        }
    }

    #[test]
    fn bingo_has_the_largest_headline_storage() {
        let bingo_kb = PrefetcherKind::Bingo.storage_kb();
        for k in [
            PrefetcherKind::Bop,
            PrefetcherKind::Spp,
            PrefetcherKind::Vldp,
        ] {
            assert!(
                k.storage_kb() < bingo_kb,
                "{} should be smaller than Bingo",
                k.name()
            );
        }
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[3.0]) - 3.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quick_scale_is_smaller() {
        assert!(RunScale::quick().instructions_per_core < RunScale::full().instructions_per_core);
    }

    #[test]
    fn from_parts_reads_quick_flag_exactly() {
        let none = |_: &str| None;
        let quick = RunScale::from_parts(vec!["--quick".to_string()], none);
        assert_eq!(quick, RunScale::quick());
        let full = RunScale::from_parts(Vec::new(), none);
        assert_eq!(full, RunScale::full());
        // Near-misses must not enable quick mode.
        let near = RunScale::from_parts(
            vec![
                "--quickly".to_string(),
                "quick".to_string(),
                "--QUICK".to_string(),
            ],
            none,
        );
        assert_eq!(near, RunScale::full());
    }

    #[test]
    fn from_parts_applies_env_overrides() {
        let env = |name: &str| match name {
            "BINGO_WARMUP" => Some("1234".to_string()),
            "BINGO_INSTR" => Some("5678".to_string()),
            _ => None,
        };
        let scale = RunScale::from_parts(vec!["--quick".to_string()], env);
        assert_eq!(scale.warmup_per_core, 1234);
        assert_eq!(scale.instructions_per_core, 5678);
        assert_eq!(scale.seed, RunScale::quick().seed);
    }

    #[test]
    #[should_panic(expected = "BINGO_WARMUP must be an unsigned integer")]
    fn from_parts_rejects_garbage_warmup() {
        let env = |name: &str| (name == "BINGO_WARMUP").then(|| "1e6".to_string());
        let _ = RunScale::from_parts(Vec::new(), env);
    }

    #[test]
    #[should_panic(expected = "BINGO_INSTR must be an unsigned integer")]
    fn from_parts_rejects_garbage_instr() {
        let env = |name: &str| (name == "BINGO_INSTR").then(|| "100k".to_string());
        let _ = RunScale::from_parts(Vec::new(), env);
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        let out = parallel_map(8, 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        // Degenerate worker counts.
        assert_eq!(parallel_map(1, 3, |i| i), vec![0, 1, 2]);
        assert_eq!(parallel_map(64, 1, |i| i), vec![0]);
        assert_eq!(parallel_map(4, 0, |i| i), Vec::<usize>::new());
    }

    /// The acceptance test of the parallel harness: identical
    /// [`SimResult`]s (speedups, coverage, miss counts) to the serial
    /// [`Harness`] on a 3 × 3 grid, independent of scheduling.
    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let scale = RunScale {
            instructions_per_core: 20_000,
            warmup_per_core: 10_000,
            seed: 7,
        };
        let workloads = [Workload::Em3d, Workload::Streaming, Workload::Mix1];
        let kinds = [
            PrefetcherKind::Bingo,
            PrefetcherKind::Bop,
            PrefetcherKind::Sms,
        ];
        let cells: Vec<(Workload, PrefetcherKind)> = workloads
            .iter()
            .flat_map(|&w| kinds.iter().map(move |&k| (w, k)))
            .collect();
        let mut parallel = ParallelHarness::with_jobs(scale, 4).quiet();
        let par = parallel.evaluate_grid(&cells);
        let mut serial = Harness::new(scale);
        for (&(w, k), pe) in cells.iter().zip(&par) {
            let se = serial.evaluate(w, k);
            assert_eq!(pe.workload, w);
            assert_eq!(pe.kind, k);
            assert_eq!(se.result, pe.result, "{w} / {}: result differs", k.name());
            assert_eq!(
                se.baseline,
                pe.baseline,
                "{w} / {}: baseline differs",
                k.name()
            );
            assert_eq!(
                se.speedup.to_bits(),
                pe.speedup.to_bits(),
                "{w} / {}: speedup differs ({} vs {})",
                k.name(),
                se.speedup,
                pe.speedup
            );
            assert_eq!(
                se.coverage,
                pe.coverage,
                "{w} / {}: coverage report differs",
                k.name()
            );
        }
    }

    fn tiny_scale(seed: u64) -> RunScale {
        RunScale {
            instructions_per_core: 15_000,
            warmup_per_core: 5_000,
            seed,
        }
    }

    /// The tentpole acceptance test: a sweep containing a deliberately
    /// panicking cell completes every other cell and lists the failed
    /// cell with its panic message.
    #[test]
    fn panicking_cell_does_not_abort_the_sweep() {
        let faulty = PrefetcherKind::Faulty { panic_after: 100 };
        let cells = [
            (Workload::Em3d, PrefetcherKind::NextLine(1)),
            (Workload::Em3d, faulty),
            (Workload::Streaming, PrefetcherKind::Stride),
        ];
        let mut h = ParallelHarness::with_jobs(tiny_scale(11), 2).quiet();
        let report = h.try_evaluate_grid(&cells);
        assert!(!report.is_clean());
        assert_eq!(report.evaluations.len(), 3);
        assert!(report.evaluations[0].is_some(), "healthy cell 0 completed");
        assert!(report.evaluations[1].is_none(), "faulty cell has no result");
        assert!(report.evaluations[2].is_some(), "healthy cell 2 completed");
        assert_eq!(report.completed(), 2);
        assert_eq!(report.failures.len(), 1);
        let failure = &report.failures[0];
        assert_eq!(failure.workload, Workload::Em3d);
        assert_eq!(failure.kind, faulty);
        assert!(
            failure
                .reason
                .contains("FaultyPrefetcher panicked deliberately"),
            "panic message must be preserved, got: {}",
            failure.reason
        );
        let text = report.failure_report();
        assert!(text.contains("Faulty@100"), "report names the cell: {text}");
        assert!(
            text.contains("FaultyPrefetcher panicked deliberately"),
            "report carries the message: {text}"
        );
    }

    /// The nonzero-exit path: unwrapping a dirty report panics (after the
    /// sweep completed), so `cargo run` sweeps exit nonzero on failures.
    #[test]
    #[should_panic(expected = "sweep cell(s) failed")]
    fn into_complete_panics_on_failed_cells() {
        let cells = [
            (Workload::Streaming, PrefetcherKind::NextLine(1)),
            (
                Workload::Streaming,
                PrefetcherKind::Faulty { panic_after: 0 },
            ),
        ];
        let mut h = ParallelHarness::with_jobs(tiny_scale(12), 2).quiet();
        let _ = h.evaluate_grid(&cells);
    }

    /// A zero deadline times out every cell — including the baseline —
    /// and the sweep still completes with the failures as data.
    #[test]
    fn zero_cell_timeout_times_out_instead_of_hanging() {
        let mut h = ParallelHarness::with_jobs(tiny_scale(13), 2)
            .quiet()
            .with_cell_timeout(Duration::ZERO);
        let report = h.try_evaluate_grid(&[(Workload::Em3d, PrefetcherKind::NextLine(1))]);
        assert!(report.evaluations.iter().all(Option::is_none));
        let baseline_failure = report
            .failures
            .iter()
            .find(|f| f.kind == PrefetcherKind::None)
            .expect("the no-prefetcher baseline timed out");
        assert!(
            baseline_failure.reason.contains("timed out"),
            "got: {}",
            baseline_failure.reason
        );
        // The dependent cell is reported as not-run, tied to its baseline.
        let cell_failure = report
            .failures
            .iter()
            .find(|f| f.kind == PrefetcherKind::NextLine(1))
            .expect("the dependent cell is reported too");
        assert!(
            cell_failure.reason.contains("baseline failed"),
            "got: {}",
            cell_failure.reason
        );
    }

    /// A generous deadline changes nothing: same bits as no deadline.
    #[test]
    fn generous_cell_timeout_is_bit_for_bit_invisible() {
        let scale = tiny_scale(14);
        let cells = [(Workload::Streaming, PrefetcherKind::Stride)];
        let plain = ParallelHarness::with_jobs(scale, 1)
            .quiet()
            .try_evaluate_grid(&cells)
            .into_complete();
        let timed = ParallelHarness::with_jobs(scale, 1)
            .quiet()
            .with_cell_timeout(Duration::from_secs(3600))
            .try_evaluate_grid(&cells)
            .into_complete();
        assert_eq!(plain[0].result, timed[0].result);
        assert_eq!(plain[0].speedup.to_bits(), timed[0].speedup.to_bits());
    }

    #[test]
    fn run_cell_reports_panics_as_outcomes() {
        let outcome = run_cell(
            Workload::Streaming,
            PrefetcherKind::Faulty { panic_after: 0 },
            tiny_scale(15),
            None,
        );
        match outcome {
            CellOutcome::Panicked { message } => {
                assert!(message.contains("FaultyPrefetcher panicked deliberately"));
            }
            other => panic!("expected a panic outcome, got {other:?}"),
        }
    }

    #[test]
    fn cell_keys_separate_every_dimension() {
        let base = cell_key(tiny_scale(1), Workload::Em3d, PrefetcherKind::Bingo);
        for other in [
            cell_key(tiny_scale(2), Workload::Em3d, PrefetcherKind::Bingo),
            cell_key(tiny_scale(1), Workload::Streaming, PrefetcherKind::Bingo),
            cell_key(tiny_scale(1), Workload::Em3d, PrefetcherKind::Bop),
            cell_key(
                RunScale {
                    instructions_per_core: 1,
                    ..tiny_scale(1)
                },
                Workload::Em3d,
                PrefetcherKind::Bingo,
            ),
        ] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn trace_cell_keys_namespace_every_dimension() {
        let scale = tiny_scale(1);
        let base = trace_cell_key(
            scale,
            "/tmp/t/streaming",
            PrefetcherKind::Bingo,
            TelemetryLevel::Off,
            ThrottleMode::Off,
        );
        assert!(
            base.starts_with("trace:"),
            "trace cells live in their own checkpoint namespace: {base}"
        );
        // The seed is deliberately absent: a replayed stream is fully
        // determined by the recorded bytes.
        let reseeded = trace_cell_key(
            tiny_scale(2),
            "/tmp/t/streaming",
            PrefetcherKind::Bingo,
            TelemetryLevel::Off,
            ThrottleMode::Off,
        );
        assert_eq!(base, reseeded, "seed must not split trace checkpoints");
        for other in [
            trace_cell_key(
                scale,
                "/tmp/t/em3d",
                PrefetcherKind::Bingo,
                TelemetryLevel::Off,
                ThrottleMode::Off,
            ),
            trace_cell_key(
                scale,
                "/tmp/t/streaming?policy=lenient",
                PrefetcherKind::Bingo,
                TelemetryLevel::Off,
                ThrottleMode::Off,
            ),
            trace_cell_key(
                scale,
                "/tmp/t/streaming",
                PrefetcherKind::Bop,
                TelemetryLevel::Off,
                ThrottleMode::Off,
            ),
            trace_cell_key(
                RunScale {
                    instructions_per_core: 1,
                    ..scale
                },
                "/tmp/t/streaming",
                PrefetcherKind::Bingo,
                TelemetryLevel::Off,
                ThrottleMode::Off,
            ),
            trace_cell_key(
                scale,
                "/tmp/t/streaming",
                PrefetcherKind::Bingo,
                TelemetryLevel::Counts,
                ThrottleMode::Off,
            ),
            trace_cell_key(
                scale,
                "/tmp/t/streaming",
                PrefetcherKind::Bingo,
                TelemetryLevel::Off,
                ThrottleMode::Feedback,
            ),
        ] {
            assert_ne!(base, other);
        }
    }

    /// The replay acceptance test: a captured trace swept through the
    /// parallel harness reproduces the live generator sweep bit-for-bit
    /// (modulo the attached ingest report, which only replay carries).
    #[test]
    fn trace_grid_matches_live_generators_bit_for_bit() {
        let scale = tiny_scale(21);
        let workload = Workload::Streaming;
        let dir = std::env::temp_dir()
            .join("bingo-bench-trace-grid")
            .join(format!("{}-{}", workload.slug(), std::process::id()));
        let cores = SystemConfig::paper().cores;
        // Slack past warmup + instructions: cores fetch slightly ahead of
        // retirement, so the capture must outrun the replay's appetite.
        let records = scale.warmup_per_core + scale.instructions_per_core + 256;
        bingo_workloads::capture_workload(workload, cores, scale.seed, records, 1024, &dir)
            .expect("capture");
        let trace = TraceWorkload::open(&dir).expect("open capture");

        let kinds = [PrefetcherKind::None, PrefetcherKind::NextLine(1)];
        let mut h = ParallelHarness::with_jobs(scale, 2).quiet();
        let report = h.try_evaluate_trace_grid(std::slice::from_ref(&trace), &kinds);
        assert!(report.is_clean(), "{}", report.failure_report());
        assert_eq!(report.completed(), 2);
        let evals = report.into_complete();

        for (e, &kind) in evals.iter().zip(&kinds) {
            assert_eq!(e.trace, trace.name());
            let live = run_one(workload, kind, scale);
            let mut replayed = e.result.clone();
            let ingest = replayed.ingest.take().expect("replay attaches a report");
            assert!(ingest.is_clean(), "pristine capture quarantined: {ingest}");
            // The sim stops pulling once every core retires its budget, so
            // it consumes at most the capture (never wrapping to a second
            // pass) and at least the simulated instruction count.
            assert!(
                ingest.delivered_records <= records * cores as u64
                    && ingest.delivered_records
                        >= (scale.warmup_per_core + scale.instructions_per_core) * cores as u64,
                "replay consumed {} of {} captured records",
                ingest.delivered_records,
                records * cores as u64
            );
            assert_eq!(
                live,
                replayed,
                "{} replay diverged from the live generators",
                kind.name()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A corrupt strict trace fails its cell with the typed decode error
    /// (byte offset included) while the rest of the sweep completes; the
    /// same bytes under the lenient policy complete with the damage
    /// quarantined and reported.
    #[test]
    fn corrupt_trace_cell_fails_typed_while_lenient_completes() {
        let scale = RunScale {
            instructions_per_core: 4_000,
            warmup_per_core: 1_000,
            seed: 22,
        };
        let workload = Workload::Em3d;
        let dir = std::env::temp_dir()
            .join("bingo-bench-trace-corrupt")
            .join(format!("{}", std::process::id()));
        let cores = SystemConfig::paper().cores;
        let records = scale.warmup_per_core + scale.instructions_per_core + 256;
        bingo_workloads::capture_workload(workload, cores, scale.seed, records, 512, &dir)
            .expect("capture");
        // Stomp a payload byte mid-file in core 0's stream.
        let path = dir.join("core0.btrc");
        let mut bytes = std::fs::read(&path).expect("read capture");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("rewrite capture");

        let strict = TraceWorkload::open(&dir).expect("open capture");
        let lenient = TraceWorkload::with_policy(&dir, bingo_trace::Policy::Lenient)
            .expect("open capture leniently");
        let mut h = ParallelHarness::with_jobs(scale, 2).quiet();
        let report = h.try_evaluate_trace_grid(&[strict, lenient], &[PrefetcherKind::NextLine(1)]);

        // Strict: baseline and cell fail, reason carries a byte offset.
        assert_eq!(report.failures.len(), 2, "{}", report.failure_report());
        let baseline_failure = report
            .failures
            .iter()
            .find(|f| f.kind == PrefetcherKind::None)
            .expect("strict baseline fails");
        assert!(
            baseline_failure.reason.contains("byte"),
            "typed error with offset expected, got: {}",
            baseline_failure.reason
        );
        assert!(report.evaluations[0].is_none(), "strict cell has no result");

        // Lenient: completes, and the quarantine is visible in the result.
        let lenient_eval = report.evaluations[1]
            .as_ref()
            .expect("lenient replay completes");
        let ingest = lenient_eval
            .result
            .ingest
            .as_ref()
            .expect("lenient replay attaches a report");
        assert!(
            ingest.quarantined_records > 0,
            "the stomped chunk must be quarantined: {ingest}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_cell_timeout_accepts_seconds() {
        assert_eq!(parse_cell_timeout("2"), Duration::from_secs(2));
        assert_eq!(parse_cell_timeout(" 0.25 "), Duration::from_millis(250));
        assert_eq!(parse_cell_timeout("0"), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "BINGO_CELL_TIMEOUT must be a number of seconds")]
    fn parse_cell_timeout_rejects_garbage() {
        let _ = parse_cell_timeout("fast");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn parse_cell_timeout_rejects_negative() {
        let _ = parse_cell_timeout("-1");
    }

    /// Workload-scale determinism lock for the telemetry layer: a
    /// telemetry-on sweep produces bit-for-bit the machine results of a
    /// telemetry-off sweep — same IPC, same miss counts, same speedup —
    /// plus an attached report whose counters agree with the LLC's own.
    #[test]
    fn telemetry_is_invisible_at_workload_scale() {
        let scale = RunScale {
            instructions_per_core: 60_000,
            warmup_per_core: 20_000,
            seed: 16,
        };
        let cells = [(Workload::Streaming, PrefetcherKind::Bingo)];
        let off = ParallelHarness::with_jobs(scale, 1)
            .quiet()
            .evaluate_grid(&cells);
        let on = ParallelHarness::with_jobs(scale, 1)
            .quiet()
            .with_telemetry(TelemetryLevel::Counts)
            .evaluate_grid(&cells);
        assert!(off[0].result.telemetry.is_none());
        let mut on_result = on[0].result.clone();
        let t = on_result.telemetry.take().expect("report attached");
        assert_eq!(off[0].result, on_result, "telemetry changed the machine");
        let mut on_baseline = on[0].baseline.clone();
        on_baseline.telemetry = None;
        assert_eq!(off[0].baseline, on_baseline);
        assert_eq!(off[0].speedup.to_bits(), on[0].speedup.to_bits());
        // The ledger agrees with the cache's own lifecycle counters —
        // including every per-reason drop class, so a prefetch that never
        // issued is still accounted for exactly once.
        let llc = &on[0].result.llc;
        assert_eq!(t.issued, llc.pf_issued);
        assert_eq!(t.timely, llc.pf_useful);
        assert_eq!(t.late, llc.pf_late);
        assert_eq!(t.unused, llc.pf_useless);
        assert_eq!(t.dropped_duplicate, llc.pf_dropped_duplicate);
        assert_eq!(t.dropped_mshr, llc.pf_dropped_mshr);
        assert_eq!(t.dropped_queue, llc.pf_dropped_queue);
        assert_eq!(t.orphans, 0);
        // Requested = issued + every drop class: nothing leaks between
        // the request and the issue decision.
        assert_eq!(
            llc.pf_requested,
            llc.pf_issued + llc.pf_dropped_duplicate + llc.pf_dropped_mshr + llc.pf_dropped_queue
        );
        // Bingo attributes its bursts to event kinds.
        let attributed: u64 = ["long", "short"]
            .iter()
            .filter_map(|l| t.source(l))
            .map(|c| c.issued)
            .sum();
        assert!(t.issued > 0, "Bingo must prefetch on em3d");
        assert_eq!(attributed, t.issued, "every Bingo burst is attributed");
    }

    /// A fault-injected Bingo cell with telemetry enabled completes
    /// without panicking and keeps the ledger consistent with the cache —
    /// corrupted metadata must not desynchronize the observability layer.
    #[test]
    fn faulty_bingo_with_telemetry_stays_consistent() {
        let kind = PrefetcherKind::BingoFaulty {
            fault_seed: 5,
            rate: 0.05,
        };
        let mut h = ParallelHarness::with_jobs(tiny_scale(17), 2)
            .quiet()
            .with_telemetry(TelemetryLevel::Counts);
        let report = h.try_evaluate_grid(&[(Workload::Em3d, kind)]);
        assert!(report.is_clean(), "{}", report.failure_report());
        let evals = report.into_complete();
        let t = evals[0].result.telemetry.as_ref().expect("report attached");
        let llc = &evals[0].result.llc;
        assert_eq!(t.issued, llc.pf_issued);
        assert_eq!(t.timely, llc.pf_useful);
        assert_eq!(t.late, llc.pf_late);
        assert_eq!(t.unused, llc.pf_useless);
        assert_eq!(t.dropped_duplicate, llc.pf_dropped_duplicate);
        assert_eq!(t.dropped_mshr, llc.pf_dropped_mshr);
        assert_eq!(t.dropped_queue, llc.pf_dropped_queue);
        assert_eq!(t.orphans, 0, "fault injection must not orphan records");
    }

    #[test]
    fn telemetry_cell_keys_extend_but_preserve_off_keys() {
        let scale = tiny_scale(1);
        let (w, k) = (Workload::Em3d, PrefetcherKind::Bingo);
        assert_eq!(
            cell_key_with_telemetry(scale, w, k, TelemetryLevel::Off),
            cell_key(scale, w, k),
            "off keys must match pre-telemetry checkpoints"
        );
        let counts = cell_key_with_telemetry(scale, w, k, TelemetryLevel::Counts);
        let trace = cell_key_with_telemetry(scale, w, k, TelemetryLevel::Trace);
        assert!(counts.ends_with("/telemetry=counts"));
        assert_ne!(counts, trace);
        assert_ne!(counts, cell_key(scale, w, k));
    }

    #[test]
    fn throttle_cell_keys_extend_but_preserve_off_keys() {
        let scale = tiny_scale(1);
        let (w, k) = (Workload::Em3d, PrefetcherKind::Bingo);
        for telemetry in [TelemetryLevel::Off, TelemetryLevel::Counts] {
            assert_eq!(
                cell_key_with_options(scale, w, k, telemetry, ThrottleMode::Off),
                cell_key_with_telemetry(scale, w, k, telemetry),
                "throttle-off keys must match pre-throttle checkpoints"
            );
        }
        let fb = cell_key_with_options(scale, w, k, TelemetryLevel::Off, ThrottleMode::Feedback);
        let pc = cell_key_with_options(scale, w, k, TelemetryLevel::Off, ThrottleMode::Percore);
        assert!(fb.ends_with("/throttle=feedback"));
        assert!(pc.ends_with("/throttle=percore"));
        assert_ne!(fb, pc);
        // Both dimensions compose in a fixed order.
        let both =
            cell_key_with_options(scale, w, k, TelemetryLevel::Counts, ThrottleMode::Feedback);
        assert!(both.ends_with("/telemetry=counts/throttle=feedback"));
    }

    /// The harness-level throttle contract: a feedback-throttled sweep
    /// completes, and because throttling is strictly subtractive, the
    /// throttled Bingo never issues more prefetches than the unthrottled
    /// run of the same cell. The baseline (no prefetcher) is bit-for-bit
    /// unaffected, so speedups stay comparable across modes.
    #[test]
    fn throttled_sweeps_only_subtract_prefetches() {
        let scale = tiny_scale(22);
        let cells = [(Workload::Em3d, PrefetcherKind::Bingo)];
        let plain = ParallelHarness::with_jobs(scale, 1)
            .quiet()
            .evaluate_grid(&cells);
        let throttled = ParallelHarness::with_jobs(scale, 1)
            .quiet()
            .with_throttle(ThrottleMode::Feedback)
            .evaluate_grid(&cells);
        assert_eq!(
            plain[0].baseline, throttled[0].baseline,
            "throttling must not touch the no-prefetcher baseline"
        );
        assert!(
            throttled[0].result.llc.pf_issued <= plain[0].result.llc.pf_issued,
            "feedback throttle issued more prefetches ({}) than unthrottled ({})",
            throttled[0].result.llc.pf_issued,
            plain[0].result.llc.pf_issued
        );
    }

    /// A telemetry-on sweep resumed from its checkpoint replays the full
    /// result — report included — instead of re-simulating.
    #[test]
    fn checkpoint_replays_telemetry_reports() {
        let dir = std::env::temp_dir().join("bingo-runner-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("telemetry-replay-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let scale = tiny_scale(19);
        let cells = [(Workload::Streaming, PrefetcherKind::NextLine(1))];
        let run = |path: &std::path::Path| {
            let mut h = ParallelHarness::with_jobs(scale, 1)
                .quiet()
                .with_telemetry(TelemetryLevel::Counts)
                .with_checkpoint(Checkpoint::open(path).expect("open checkpoint"));
            h.try_evaluate_grid(&cells)
        };
        let fresh = run(&path);
        assert_eq!(fresh.checkpoint_hits, 0);
        let resumed = run(&path);
        assert!(
            resumed.checkpoint_hits >= 2,
            "baseline and cell replay from the checkpoint"
        );
        let a = fresh.into_complete();
        let b = resumed.into_complete();
        assert_eq!(a[0].result, b[0].result);
        assert!(b[0].result.telemetry.is_some(), "report survives the file");
        assert_eq!(a[0].result.telemetry, b[0].result.telemetry);
        let _ = std::fs::remove_file(&path);
    }

    /// The metric_sum satellite: a figure requiring a metric no
    /// prefetcher reports gets a named failure instead of a silent zero.
    #[test]
    fn require_metrics_reports_unknown_names() {
        let mut h = ParallelHarness::with_jobs(tiny_scale(18), 2).quiet();
        let mut report =
            h.try_evaluate_grid(&[(Workload::Streaming, PrefetcherKind::MultiEvent(2))]);
        report.require_metrics(&["lookups"]);
        assert!(report.is_clean(), "known metrics pass");
        report.require_metrics(&["no_such_metric"]);
        assert!(!report.is_clean());
        let text = report.failure_report();
        assert!(
            text.contains("\"no_such_metric\""),
            "failure report names the missing metric: {text}"
        );
    }

    /// The stats export captures every completed cell plus each unique
    /// baseline, one JSON line per cell.
    #[test]
    fn stats_export_writes_grid_and_baselines() {
        let dir = std::env::temp_dir().join("bingo-runner-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("stats-export-{}.json", std::process::id()));
        let scale = tiny_scale(20);
        let export = StatsExport::create(&path).expect("create export");
        let mut h = ParallelHarness::with_jobs(scale, 2)
            .quiet()
            .with_telemetry(TelemetryLevel::Counts)
            .with_stats_export(export);
        let _ = h.evaluate_all(
            &[Workload::Streaming],
            &[PrefetcherKind::NextLine(1), PrefetcherKind::Stride],
        );
        let text = std::fs::read_to_string(&path).expect("read export");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "one baseline + two cells");
        assert!(
            lines[0].contains("/None/telemetry=counts\""),
            "{}",
            lines[0]
        );
        assert!(lines.iter().all(|l| l.contains("\"telemetry\":")));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parallel_baseline_is_computed_once_and_shared() {
        let scale = RunScale {
            instructions_per_core: 10_000,
            warmup_per_core: 5_000,
            seed: 3,
        };
        let mut h = ParallelHarness::with_jobs(scale, 2).quiet();
        // Many cells over one workload: one baseline, shared by all.
        let evals = h.evaluate_all(
            &[Workload::Streaming],
            &[PrefetcherKind::NextLine(1), PrefetcherKind::Stride],
        );
        assert_eq!(evals.len(), 2);
        assert_eq!(evals[0].baseline, evals[1].baseline);
        assert_eq!(h.baseline(Workload::Streaming), &evals[0].baseline);
    }

    /// A tiny committed-style mix used by the mix-grid unit tests.
    fn tiny_mix() -> MixConfig {
        MixConfig::parse_str(
            "mix tiny\n\
             core 0 workload=streaming prefetcher=stride\n\
             core 1 workload=stress-storm prefetcher=none scale=50%\n\
             end\n",
        )
        .unwrap()
        .remove(0)
    }

    #[test]
    fn mix_keys_are_namespaced_and_stable_in_default_modes() {
        let scale = tiny_scale(7);
        let mix = tiny_mix();
        let key = mix_cell_key(
            scale,
            &mix,
            2,
            &Pressure::NONE,
            TelemetryLevel::Off,
            ThrottleMode::Off,
        );
        assert_eq!(
            key,
            "mix:7/15000/5000/tiny@2/c0=streaming+Stride,c1=stress-storm+None*50%"
        );
        let pressured = mix_cell_key(
            scale,
            &mix,
            2,
            &Pressure::SCARCE,
            TelemetryLevel::Counts,
            ThrottleMode::Feedback,
        );
        assert!(
            pressured.ends_with("/pressure=scarce/telemetry=counts/throttle=feedback"),
            "{pressured}"
        );
        let solo = mix_solo_key(
            scale,
            1,
            &mix.cores[1],
            &Pressure::NONE,
            TelemetryLevel::Off,
            ThrottleMode::Off,
        );
        assert_eq!(solo, "mix-solo:7/15000/5000/c1=stress-storm+None*50%");
    }

    #[test]
    fn mix_grid_runs_solos_and_reports_fairness() {
        let mix = tiny_mix();
        let cells = [MixCell {
            mix: mix.clone(),
            cores: 2,
            pressure: Pressure::NONE,
        }];
        let mut h = ParallelHarness::with_jobs(tiny_scale(7), 2).quiet();
        let report = h.try_evaluate_mix_grid(&cells);
        assert!(report.is_clean(), "{}", report.failure_report());
        let evals = report.into_complete();
        assert_eq!(evals.len(), 1);
        let e = &evals[0];
        assert_eq!(e.mix_name, "tiny");
        assert_eq!(e.cores, 2);
        assert_eq!(e.fairness.core_ipcs.len(), 2);
        assert_eq!(e.fairness.slowdowns.len(), 2);
        // The scaled slot committed half the budget.
        assert_eq!(e.result.cores[0].instructions, 15_000);
        assert_eq!(e.result.cores[1].instructions, 7_500);
        // Fairness metrics recompute from the per-core stats.
        let ipcs = e.result.core_ipcs();
        assert_eq!(e.fairness.aggregate_ipc, ipcs.iter().sum::<f64>());
        assert!(e.fairness.min_max_ipc_ratio > 0.0 && e.fairness.min_max_ipc_ratio <= 1.0);
        // Contention roughly slows a core down relative to its solo run;
        // sub-percent wins are possible at tiny scale (timing quirks),
        // anything larger would mean the solos are wired to the wrong
        // streams.
        for &s in &e.fairness.slowdowns {
            assert!(s > 0.95, "slowdown {s}: mix run beat the solo run by >5%");
        }
    }

    #[test]
    fn mix_grid_replicates_pattern_cyclically_when_ramped() {
        let mix = tiny_mix();
        let cells = [MixCell {
            mix,
            cores: 4,
            pressure: Pressure::CONSTRAINED,
        }];
        let mut h = ParallelHarness::with_jobs(tiny_scale(9), 2).quiet();
        let evals = h.try_evaluate_mix_grid(&cells).into_complete();
        let e = &evals[0];
        assert_eq!(e.result.cores.len(), 4);
        // Slots 2 and 3 repeat the declared pattern (full budget, half
        // budget) with their own per-core streams.
        assert_eq!(e.result.cores[2].instructions, 15_000);
        assert_eq!(e.result.cores[3].instructions, 7_500);
    }

    #[test]
    fn failed_solo_fails_dependent_mix_cells_only() {
        let broken = MixConfig {
            name: "broken".to_string(),
            cores: vec![MixAssignment {
                workload: Workload::Em3d,
                prefetcher: PrefetcherKind::Faulty { panic_after: 100 },
                scale_percent: 100,
            }],
            ramp: None,
        };
        let healthy = tiny_mix();
        let cells = [
            MixCell {
                mix: broken,
                cores: 1,
                pressure: Pressure::NONE,
            },
            MixCell {
                mix: healthy,
                cores: 2,
                pressure: Pressure::NONE,
            },
        ];
        let mut h = ParallelHarness::with_jobs(tiny_scale(5), 2).quiet();
        let report = h.try_evaluate_mix_grid(&cells);
        assert!(!report.is_clean());
        assert!(report.evaluations[0].is_none(), "broken cell has no result");
        assert!(report.evaluations[1].is_some(), "healthy cell completed");
        // The solo failure and the dependent cell failure are both listed.
        assert!(report.failures.iter().any(|f| f.solo.is_some()));
        assert!(report
            .failures
            .iter()
            .any(|f| f.solo.is_none() && f.mix_name == "broken"));
    }
}
