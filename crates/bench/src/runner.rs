//! Experiment runner: one declarative run description, one engine that
//! resolves it, and the two comparisons every figure is built from.
//!
//! * [`RunSpec`] describes one simulation completely: the scale, the
//!   machine (core count, memory [`Pressure`]), one [`Slot`] per
//!   core (a synthetic or captured instruction [`Stream`], its prefetcher
//!   and its instruction budget), and the throttle and chaos options. [`RunSpec::run`] is the only place the harness builds a
//!   [`System`], and [`RunSpec::key`] is the only checkpoint key.
//! * [`ParallelHarness::try_run`] is the engine: each spec is resolved
//!   from the in-process memo, then from the checkpoint, then by a
//!   panic-isolated, deadline-bounded simulation on a bounded pool of
//!   scoped worker threads. A success is checkpointed under its key by
//!   the worker the moment it finishes, so the checkpoint is the run's
//!   machine-readable record of every cell it simulated.
//! * [`ParallelHarness::try_evaluate`] (speedup and coverage over the
//!   no-prefetcher [`RunSpec::baseline`]) and
//!   [`ParallelHarness::try_evaluate_mix`] (fairness against each slot's
//!   [`RunSpec::solo`]) are thin views: each derives its reference specs,
//!   resolves them through the engine, and reports into one [`Report`].
//!
//! **Determinism.** A spec's result is a pure function of its key: every
//! run constructs its own instruction sources (a synthetic slot is seeded
//! from `scale.seed` and its stream core, a trace slot replays recorded
//! bytes) and its own prefetchers, and shares no mutable state with other
//! runs. The prefetcher kind deliberately does *not* perturb the
//! workload's RNG stream — every prefetcher must observe the exact access
//! stream its no-prefetcher baseline observed, or coverage and speedup
//! would compare different program runs. The engine therefore produces
//! bit-for-bit the same [`SimResult`]s as a direct [`RunSpec::run`]
//! regardless of scheduling order, worker count, or completion order —
//! verified by `parallel_matches_serial_bit_for_bit` in `tests/run_spec.rs`.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use bingo::{Bingo, BingoConfig, EventKind, MultiEventConfig, MultiEventPrefetcher};
use bingo_baselines::{
    Ampm, AmpmConfig, Bop, BopConfig, Spp, SppConfig, StrideConfig, StridePrefetcher, Vldp,
    VldpConfig,
};
use bingo_sim::{
    ChaosInjector, ChaosPlan, CoverageReport, FaultPlan, FaultyPrefetcher, InstrSource,
    NextLinePrefetcher, NoPrefetcher, Prefetcher, SimAbort, SimResult, System, SystemConfig,
    ThrottleMode,
};
use bingo_trace::ReplaySource;
use bingo_workloads::{TraceWorkload, Workload};

use crate::checkpoint::{Checkpoint, CHECKPOINT_ENV};
use crate::knobs;
use crate::mix::{FairnessReport, MixConfig, Pressure};

/// Which prefetcher to attach to a core: one value per simulated
/// prefetcher, so two kinds never build the same machine and a cell two
/// figures share has one checkpoint key.
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
    /// Bingo under any configuration: [`BingoConfig::paper`] (16 K-entry
    /// unified table) is the headline prefetcher; the Fig. 6
    /// history-size sweep and the voting, region-size and training-signal
    /// ablations vary it.
    Bingo(BingoConfig),
    /// TAGE-like cascade over the `count` events of
    /// [`EventKind::LONGEST_FIRST`] from `first` on: one event is a
    /// single-event prefetcher (Fig. 2), `first: PcAddress` with `count`
    /// 1 to 5 is the Fig. 3 sweep, and `count: 2` its Fig. 4 redundancy
    /// vehicle. The one-event `PcOffset` cascade is Spatial Memory
    /// Streaming ([`PrefetcherKind::sms`]): `bingo_baselines::Sms` builds
    /// that very configuration.
    Events {
        /// The longest event of the cascade.
        first: EventKind,
        /// How many events, `first` included, the cascade looks up.
        count: usize,
    },
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
    /// Bingo in the paper's configuration.
    pub fn bingo() -> PrefetcherKind {
        PrefetcherKind::Bingo(BingoConfig::paper())
    }

    /// Spatial Memory Streaming: the one-event `PC+Offset` cascade, named
    /// `SMS`.
    pub fn sms() -> PrefetcherKind {
        PrefetcherKind::Events {
            first: EventKind::PcOffset,
            count: 1,
        }
    }

    /// The six prefetchers of the paper's headline comparison, figure
    /// order.
    pub fn headline() -> [PrefetcherKind; 6] {
        [
            PrefetcherKind::Bop,
            PrefetcherKind::Spp,
            PrefetcherKind::Vldp,
            PrefetcherKind::Ampm,
            PrefetcherKind::sms(),
            PrefetcherKind::bingo(),
        ]
    }

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
            PrefetcherKind::Bingo(cfg) => bingo_name(&cfg),
            PrefetcherKind::Events {
                first: EventKind::PcOffset,
                count: 1,
            } => "SMS".into(),
            PrefetcherKind::Events { first, count: 1 } => first.label().into(),
            PrefetcherKind::Events {
                first: EventKind::PcAddress,
                count,
            } => format!("{count}-event"),
            PrefetcherKind::Events { first, count } => {
                format!("{count}-event from {}", first.label())
            }
            PrefetcherKind::Stride => "Stride".into(),
            PrefetcherKind::NextLine(d) => format!("NextLine-{d}"),
            PrefetcherKind::BingoFaulty { rate, .. } => {
                format!("Bingo-fault{:.1}%", rate * 100.0)
            }
            PrefetcherKind::Faulty { panic_after } => format!("Faulty@{panic_after}"),
        }
    }

    /// Builds one prefetcher instance.
    ///
    /// # Panics
    ///
    /// Panics if a [`PrefetcherKind::Events`] window runs past
    /// [`EventKind::LONGEST_FIRST`] or is empty.
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
            PrefetcherKind::Bingo(cfg) => Box::new(Bingo::new(cfg)),
            PrefetcherKind::Events { first, count } => {
                Box::new(MultiEventPrefetcher::new(cascade(first, count)))
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
            PrefetcherKind::Bingo(cfg) => cfg.storage_bits(),
            PrefetcherKind::Events { first, count } => cascade(first, count).storage_bits(),
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

/// The configuration of the [`PrefetcherKind::Events`] cascade: the
/// `count` events of [`EventKind::LONGEST_FIRST`] from `first` on.
///
/// # Panics
///
/// Panics if the window is empty or runs past the fifth event.
fn cascade(first: EventKind, count: usize) -> MultiEventConfig {
    let from = EventKind::LONGEST_FIRST
        .iter()
        .position(|&k| k == first)
        .expect("every event kind is in LONGEST_FIRST");
    let events = EventKind::LONGEST_FIRST
        .get(from..from + count)
        .unwrap_or_else(|| panic!("no {count} events from {} in LONGEST_FIRST", first.label()));
    MultiEventConfig::with_events(events.to_vec())
}

/// `Bingo` followed by every field of `cfg` that differs from the paper's
/// configuration, e.g. `Bingo-4K-entries` or `Bingo-1KB-region`.
fn bingo_name(cfg: &BingoConfig) -> String {
    let BingoConfig {
        region,
        history_entries,
        history_ways,
        accumulation_entries,
        vote_threshold,
        min_footprint_blocks,
        train_on_eviction,
    } = *cfg;
    let paper = BingoConfig::paper();
    let kilo = |n: u64| match n % 1024 {
        0 => format!("{}K", n / 1024),
        _ => n.to_string(),
    };
    let tags = [
        (
            history_entries != paper.history_entries,
            format!("{}-entries", kilo(history_entries as u64)),
        ),
        (
            history_ways != paper.history_ways,
            format!("{history_ways}-way"),
        ),
        (
            accumulation_entries != paper.accumulation_entries,
            format!("acc{accumulation_entries}"),
        ),
        (
            vote_threshold != paper.vote_threshold,
            format!("vote{:.0}%", vote_threshold * 100.0),
        ),
        (
            min_footprint_blocks != paper.min_footprint_blocks,
            format!("min{min_footprint_blocks}"),
        ),
        (
            region != paper.region,
            format!("{}B-region", kilo(region.region_bytes())),
        ),
        (!train_on_eviction, "overflow-only".to_string()),
    ];
    tags.into_iter()
        .filter(|(differs, _)| *differs)
        .fold("Bingo".to_string(), |name, (_, tag)| name + "-" + &tag)
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

    /// A reduced scale for CI and the `harness = false` bench binaries.
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
    /// Panics if `BINGO_WARMUP` is set but is not an unsigned integer, or
    /// `BINGO_INSTR` is set but is not a positive one (an empty measurement
    /// window would report zeros): a typo'd override must abort the run,
    /// not silently fall back to the full scale.
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
            scale.warmup_per_core = knobs::parse("BINGO_WARMUP", &v, "an unsigned integer", |v| {
                v.parse().ok()
            });
        }
        if let Some(v) = env("BINGO_INSTR") {
            scale.instructions_per_core =
                knobs::parse("BINGO_INSTR", &v, "a positive integer", |v| {
                    v.parse().ok().filter(|&n| n > 0)
                });
        }
        scale
    }
}

/// Where one core's instructions come from.
#[derive(Clone, Debug)]
pub enum Stream {
    /// A synthetic workload's generator, seeded from [`RunScale::seed`].
    Synthetic(Workload),
    /// A captured trace's recorded per-core files (see
    /// [`TraceWorkload`]); replay ignores the seed.
    Trace(TraceWorkload),
}

impl Stream {
    /// Display name: the workload's paper name or the trace's directory
    /// name.
    pub fn name(&self) -> &str {
        match self {
            Stream::Synthetic(workload) => workload.name(),
            Stream::Trace(trace) => trace.name(),
        }
    }
}

/// One core of a [`RunSpec`].
#[derive(Clone, Debug)]
pub struct Slot {
    /// The instruction source.
    pub stream: Stream,
    /// Which of the source's per-core streams this core runs: a
    /// synthetic stream's seed and address space, or a trace's
    /// `core{i}.btrc` (wrapping onto the captured count). A solo run keeps
    /// the stream core of the slot it was taken from.
    pub stream_core: usize,
    /// The prefetcher attached to this core.
    pub prefetcher: PrefetcherKind,
    /// Committed-instruction target as an integer percentage of
    /// [`RunScale::instructions_per_core`] (100 = the full budget).
    pub budget_percent: u32,
}

impl Slot {
    /// The slot's committed-instruction target given the full per-core
    /// budget (integer arithmetic, so scaled targets are exact).
    fn target(&self, budget: u64) -> u64 {
        budget * u64::from(self.budget_percent) / 100
    }

    /// The slot's instruction source.
    ///
    /// # Panics
    ///
    /// Panics if a trace stream cannot be opened (a trace with a corrupt
    /// header included); inside a sweep the panic is confined to the
    /// cell.
    fn source(&self, seed: u64) -> Box<dyn InstrSource> {
        match &self.stream {
            Stream::Synthetic(workload) => workload.source_for_core(self.stream_core, seed),
            Stream::Trace(trace) => {
                // A capture that vanished after opening leaves no core
                // files; core 0's then fails to open with the path named.
                let captured = trace.captured_cores().max(1);
                let path = trace.core_path(self.stream_core % captured);
                let source = ReplaySource::open(path)
                    .unwrap_or_else(|e| panic!("trace workload {}: {e}", trace.name()));
                Box::new(source)
            }
        }
    }
}

/// A complete, declarative description of one simulation: everything that
/// determines its [`SimResult`], and nothing else. The machine is the
/// paper's (Table I) with `slots.len()` cores and `pressure` applied to the
/// shared memory system, which stays at the paper's sizing at every core
/// count. Every run reports its prefetch lifecycle
/// ([`bingo_sim::TelemetryReport`]). The constructors build specs with
/// throttle and chaos off; a figure that varies one of them sets it by
/// struct update.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Warmup and measured instructions per core, and the seed of every
    /// synthetic stream.
    pub scale: RunScale,
    /// Memory-system pressure on the shared DRAM and prefetch queue.
    pub pressure: Pressure,
    /// One slot per core; the machine's core count is `slots.len()`.
    pub slots: Vec<Slot>,
    /// Adaptive prefetch-throttle mode ([`ThrottleMode::Off`] attaches no
    /// controller and is bit-for-bit invisible).
    pub throttle: ThrottleMode,
    /// Seeded live perturbation schedule, if any.
    pub chaos: Option<ChaosPlan>,
}

impl RunSpec {
    /// One workload on every core of the paper's 4-core machine, each core
    /// behind its own instance of `kind` — a classic figure cell.
    pub fn classic(scale: RunScale, workload: Workload, kind: PrefetcherKind) -> RunSpec {
        Self::uniform(scale, Stream::Synthetic(workload), kind)
    }

    /// A captured trace replayed on every core of the paper's 4-core
    /// machine.
    pub fn trace(scale: RunScale, trace: &TraceWorkload, kind: PrefetcherKind) -> RunSpec {
        Self::uniform(scale, Stream::Trace(trace.clone()), kind)
    }

    fn uniform(scale: RunScale, stream: Stream, prefetcher: PrefetcherKind) -> RunSpec {
        let slots = (0..SystemConfig::paper().cores)
            .map(|stream_core| Slot {
                stream: stream.clone(),
                stream_core,
                prefetcher,
                budget_percent: 100,
            })
            .collect();
        Self::on_machine(scale, Pressure::NONE, slots)
    }

    /// A spec with throttle and chaos off.
    fn on_machine(scale: RunScale, pressure: Pressure, slots: Vec<Slot>) -> RunSpec {
        RunSpec {
            scale,
            pressure,
            slots,
            throttle: ThrottleMode::Off,
            chaos: None,
        }
    }

    /// Row-major grid of classic cells: `workloads[i]` × `kinds[j]` at
    /// index `i * kinds.len() + j`.
    pub fn grid(scale: RunScale, workloads: &[Workload], kinds: &[PrefetcherKind]) -> Vec<RunSpec> {
        workloads
            .iter()
            .flat_map(|&w| kinds.iter().map(move |&k| RunSpec::classic(scale, w, k)))
            .collect()
    }

    /// A declared mix on a `cores`-core machine under `pressure`: core `i`
    /// runs the declared slot `i % n` of the mix's `n`, so counts past the
    /// declared slots replicate the pattern cyclically, each core keeping
    /// its own stream (`stream_core = i`: its own seed and address space).
    pub fn mix(scale: RunScale, mix: &MixConfig, cores: usize, pressure: Pressure) -> RunSpec {
        assert!(cores > 0, "a mix machine needs at least one core");
        let slots = (0..cores)
            .map(|stream_core| Slot {
                stream_core,
                ..mix.cores[stream_core % mix.cores.len()].clone()
            })
            .collect();
        Self::on_machine(scale, pressure, slots)
    }

    /// The same run with every prefetcher removed: the reference of the
    /// speedup and coverage metrics. Options carry over, so a throttled
    /// cell is compared against a baseline keyed (and reported) the same
    /// way.
    pub fn baseline(&self) -> RunSpec {
        let mut baseline = self.clone();
        for slot in &mut baseline.slots {
            slot.prefetcher = PrefetcherKind::None;
        }
        baseline
    }

    /// Slot `slot` run *alone*: the identical stream, prefetcher and
    /// instruction target, but on a 1-core machine with the whole shared
    /// memory system (same pressure) to itself. The fairness slowdown of a
    /// core is its solo IPC over its IPC in the full run. Two specs that
    /// share a slot share its solo, because the key is built from values.
    pub fn solo(&self, slot: usize) -> RunSpec {
        RunSpec {
            slots: vec![self.slots[slot].clone()],
            ..self.clone()
        }
    }

    /// The checkpoint key: every field that determines the result,
    /// written losslessly (floats and prefetcher kinds in their shortest
    /// round-trip `Debug` form, pressure by its values, a trace by
    /// [`TraceWorkload::key`]). Labels such as mix and pressure names stay
    /// out, and the seed only enters through synthetic slots — a replayed
    /// stream is fully determined by its recorded bytes. The `run:` prefix
    /// is disjoint from every older key format.
    ///
    /// The destructuring below names every field, so a field added to
    /// [`RunSpec`] or [`Slot`] fails to compile until the key covers it.
    pub fn key(&self) -> String {
        let RunSpec {
            scale,
            pressure,
            slots,
            throttle,
            chaos,
        } = self;
        let RunScale {
            instructions_per_core,
            warmup_per_core,
            seed,
        } = *scale;
        let Pressure {
            name: _,
            channels,
            transfer_cycles,
            queue,
        } = *pressure;
        let mut key = format!(
            "run:{instructions_per_core}/{warmup_per_core}/dram={channels}x{transfer_cycles}\
             /queue={queue:?}/{throttle:?}/chaos={chaos:?}"
        );
        for Slot {
            stream,
            stream_core,
            prefetcher,
            budget_percent,
        } in slots
        {
            match stream {
                Stream::Synthetic(workload) => key.push_str(&format!("/{workload:?}@{seed}")),
                Stream::Trace(trace) => key.push_str(&format!("/trace={}", trace.key())),
            }
            key.push_str(&format!("#{stream_core}+{prefetcher:?}*{budget_percent}"));
        }
        key
    }

    /// Human-readable name for progress lines and failure reports (not
    /// part of the key): `Em3d / Bingo` for a uniform paper-machine cell,
    /// the slot list otherwise, plus the machine when it is not the
    /// paper's.
    pub fn label(&self) -> String {
        let first = &self.slots[0];
        let uniform = self.slots.iter().enumerate().all(|(i, s)| {
            s.stream_core == i
                && s.budget_percent == 100
                && s.prefetcher == first.prefetcher
                && s.stream.name() == first.stream.name()
        });
        let mut label = if uniform {
            format!("{} / {}", first.stream.name(), first.prefetcher.name())
        } else {
            let slots: Vec<String> = self
                .slots
                .iter()
                .map(|s| match s.budget_percent {
                    100 => format!("{}+{}", s.stream.name(), s.prefetcher.name()),
                    pct => format!("{}+{}*{pct}%", s.stream.name(), s.prefetcher.name()),
                })
                .collect();
            slots.join(",")
        };
        if !uniform || self.slots.len() != SystemConfig::paper().cores {
            label.push_str(&format!(" @{}", self.slots.len()));
        }
        if self.pressure != Pressure::NONE {
            label.push_str(&format!(" {}", self.pressure.name));
        }
        label
    }

    /// Runs the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`SimAbort::DeadlineExceeded`] when a `deadline` is given and
    /// the wall clock exceeds it, and [`SimAbort::CycleLimit`] on a
    /// suspected livelock.
    ///
    /// # Panics
    ///
    /// Panics if a trace stream cannot be opened or is corrupt (the typed
    /// decode error, byte offset included, becomes the panic message), or if a prefetcher panics. The engine
    /// confines such panics to the cell.
    pub fn run(&self, deadline: Option<Duration>) -> Result<SimResult, SimAbort> {
        let mut cfg = SystemConfig::paper().with_cores(self.slots.len());
        self.pressure.apply(&mut cfg);
        let seed = self.scale.seed;
        let sources = self.slots.iter().map(|s| s.source(seed)).collect();
        let prefetchers = self.slots.iter().map(|s| s.prefetcher.build()).collect();
        let budget = self.scale.instructions_per_core;
        let targets: Vec<u64> = self.slots.iter().map(|s| s.target(budget)).collect();
        let mut system = System::new_heterogeneous(cfg, sources, prefetchers, &targets)
            .with_warmup(self.scale.warmup_per_core)
            .with_throttle(self.throttle);
        if let Some(plan) = &self.chaos {
            system = system.with_chaos(ChaosInjector::new(plan.clone()));
        }
        if let Some(limit) = deadline {
            system = system.with_time_limit(limit);
        }
        system.try_run()
    }
}

/// Runs one classic cell with throttling off.
///
/// # Panics
///
/// Panics if the simulation aborts (see [`RunSpec::run`]).
pub fn run_one(workload: Workload, kind: PrefetcherKind, scale: RunScale) -> SimResult {
    RunSpec::classic(scale, workload, kind)
        .run(None)
        .unwrap_or_else(|abort| panic!("{abort}"))
}

/// Worker count for parallel sweeps: the `BINGO_JOBS` environment override
/// when set, otherwise [`std::thread::available_parallelism`] (1 if that
/// cannot be determined).
///
/// # Panics
///
/// Panics if `BINGO_JOBS` is set but is not a positive integer.
pub fn default_jobs() -> usize {
    knobs::from_env("BINGO_JOBS", "a positive integer", |v| {
        v.parse().ok().filter(|&jobs| jobs > 0)
    })
    .unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
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

/// Runs one spec with panic isolation and an optional soft deadline (polled
/// every 8192 run-loop iterations inside [`System::try_run`]). Never
/// panics and never blocks past the deadline: a panic, a timeout or a
/// cycle-limit abort comes back as the failure reason.
fn run_isolated(spec: &RunSpec, deadline: Option<Duration>) -> Result<SimResult, String> {
    match catch_unwind(AssertUnwindSafe(|| spec.run(deadline))) {
        Ok(Ok(result)) => Ok(result),
        Ok(Err(SimAbort::DeadlineExceeded { limit })) => {
            Err(format!("timed out after {:.3}s", limit.as_secs_f64()))
        }
        Ok(Err(abort)) => Err(format!("panicked: {abort}")),
        Err(payload) => Err(format!("panicked: {}", panic_message(payload.as_ref()))),
    }
}

/// Parses the `BINGO_CELL_TIMEOUT` value (seconds, fractional allowed),
/// aborting loudly on garbage, a negative or non-finite number, or one no
/// [`Duration`] holds — a typo'd deadline must not silently run unlimited.
fn parse_cell_timeout(value: &str) -> Duration {
    knobs::parse(
        CELL_TIMEOUT_ENV,
        value,
        "a non-negative number of seconds",
        |v| Duration::try_from_secs_f64(v.parse().ok()?).ok(),
    )
}

/// Environment variable holding the per-cell soft deadline in seconds.
pub const CELL_TIMEOUT_ENV: &str = "BINGO_CELL_TIMEOUT";

/// The executor of [`RunSpec`]s: a bounded worker pool, an optional
/// per-cell deadline, an optional checkpoint, and a memo of every result
/// it has resolved, keyed by [`RunSpec::key`]. Everything that changes a
/// result lives on the spec, not here.
#[derive(Debug)]
pub struct ParallelHarness {
    jobs: usize,
    progress: bool,
    cell_timeout: Option<Duration>,
    checkpoint: Option<Checkpoint>,
    memo: HashMap<String, SimResult>,
}

impl ParallelHarness {
    /// Creates a harness with [`default_jobs`] workers, honoring the
    /// `BINGO_CELL_TIMEOUT` (per-cell deadline, seconds) and
    /// `BINGO_CHECKPOINT` (resume file and record of every cell)
    /// environment knobs. [`ParallelHarness::with_jobs`] and the builders
    /// ignore the environment so tests stay hermetic.
    ///
    /// # Panics
    ///
    /// Panics if a retired knob is set ([`knobs::reject_retired`]), if
    /// `BINGO_CELL_TIMEOUT` is set but not a non-negative number of
    /// seconds, or if `BINGO_CHECKPOINT` names an unopenable file.
    pub fn from_env() -> Self {
        knobs::reject_retired();
        let mut harness = Self::with_jobs(default_jobs());
        if let Ok(v) = std::env::var(CELL_TIMEOUT_ENV) {
            harness.cell_timeout = Some(parse_cell_timeout(&v));
        }
        if let Ok(path) = std::env::var(CHECKPOINT_ENV) {
            let checkpoint = Checkpoint::open(&path)
                .unwrap_or_else(|e| panic!("{CHECKPOINT_ENV}: cannot open {path:?}: {e}"));
            if checkpoint.skipped_lines() > 0 {
                eprintln!(
                    "[checkpoint] {}: loaded {} cell(s), skipped {} corrupt or stale line(s)",
                    path,
                    checkpoint.len(),
                    checkpoint.skipped_lines()
                );
            }
            harness.checkpoint = Some(checkpoint);
        }
        harness
    }

    /// Creates a harness with an explicit worker count and no
    /// timeout or checkpoint (environment ignored).
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn with_jobs(jobs: usize) -> Self {
        assert!(jobs > 0, "need at least one worker");
        ParallelHarness {
            jobs,
            progress: true,
            cell_timeout: None,
            checkpoint: None,
            memo: HashMap::new(),
        }
    }

    /// Disables the per-cell progress/timing lines on stderr.
    pub fn quiet(mut self) -> Self {
        self.progress = false;
        self
    }

    /// Sets a per-cell soft deadline: any cell whose simulation wall clock
    /// exceeds it fails as timed out instead of blocking the sweep.
    pub fn with_cell_timeout(mut self, limit: Duration) -> Self {
        self.cell_timeout = Some(limit);
        self
    }

    /// Attaches a checkpoint: each completed cell is made durable the
    /// moment it finishes, and cells already in the checkpoint are
    /// replayed from it instead of re-simulated.
    pub fn with_checkpoint(mut self, checkpoint: Checkpoint) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The engine. Resolves every spec — from the memo, then the
    /// checkpoint, then by a panic-isolated, deadline-bounded simulation on
    /// the worker pool, each distinct key once — and reports one slot per
    /// spec in input order. The worker checkpoints a success before it
    /// prints the cell's progress line, so a kill loses no finished cell.
    pub fn try_run(&mut self, specs: &[RunSpec]) -> Report<SimResult> {
        let started = Instant::now();
        let keys: Vec<String> = specs.iter().map(RunSpec::key).collect();
        let mut checkpoint_hits = 0;
        let mut todo: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if self.memo.contains_key(key) || todo.iter().any(|&j| keys[j] == *key) {
                continue;
            }
            match self.checkpoint.as_ref().and_then(|cp| cp.get(key)) {
                Some(result) => {
                    checkpoint_hits += 1;
                    self.memo.insert(key.clone(), result);
                }
                None => todo.push(i),
            }
        }

        let (deadline, progress, checkpoint) =
            (self.cell_timeout, self.progress, self.checkpoint.as_ref());
        let outcomes = parallel_map(self.jobs, todo.len(), |j| {
            let (spec, key) = (&specs[todo[j]], &keys[todo[j]]);
            let start = Instant::now();
            let outcome = run_isolated(spec, deadline);
            if let (Ok(result), Some(cp)) = (&outcome, checkpoint) {
                // A failed write degrades the checkpoint (the cell re-runs
                // on resume), never the sweep.
                if let Err(e) = cp.record(key, result) {
                    eprintln!("[checkpoint] write for {key} failed: {e}");
                }
            }
            if progress {
                let wall = start.elapsed().as_secs_f64();
                let status = match &outcome {
                    Ok(result) => format!(
                        "{:>6.2} Minstr/s",
                        result.instructions() as f64 / wall.max(1e-9) / 1e6
                    ),
                    Err(_) => "FAILED".to_string(),
                };
                eprintln!("[cell] {:<32} {wall:>7.2}s  {status}", spec.label());
            }
            outcome
        });
        let mut failures = Vec::new();
        for (&i, outcome) in todo.iter().zip(outcomes) {
            match outcome {
                Ok(result) => {
                    self.memo.insert(keys[i].clone(), result);
                }
                Err(reason) => failures.push(Failure {
                    spec: specs[i].clone(),
                    reason,
                }),
            }
        }
        if progress && todo.len() > 1 {
            eprintln!(
                "[grid] {} cells in {:.1}s on {} worker(s)",
                todo.len(),
                started.elapsed().as_secs_f64(),
                self.jobs.min(todo.len()),
            );
        }

        Report {
            evaluations: keys.iter().map(|key| self.memo.get(key).cloned()).collect(),
            failures,
            checkpoint_hits,
        }
    }

    /// Speedup and coverage of every spec over its no-prefetcher
    /// [`RunSpec::baseline`], which is resolved first (once per distinct
    /// baseline). A cell whose baseline failed is not simulated; it is
    /// reported as not run, naming the baseline.
    pub fn try_evaluate(&mut self, specs: &[RunSpec]) -> Report<Evaluation> {
        self.compare(
            specs,
            "baseline",
            |spec| vec![spec.baseline()],
            |spec, result, mut refs| {
                let baseline = refs.pop().expect("one baseline per spec");
                Evaluation {
                    spec: spec.clone(),
                    coverage: CoverageReport::from_runs(&result, &baseline),
                    speedup: result.speedup_over(&baseline),
                    result,
                    baseline,
                }
            },
        )
    }

    /// [`ParallelHarness::try_evaluate`], unwrapped.
    ///
    /// # Panics
    ///
    /// Panics — after completing every healthy cell and printing the full
    /// failure report to stderr — if any cell failed.
    pub fn evaluate(&mut self, specs: &[RunSpec]) -> Vec<Evaluation> {
        self.try_evaluate(specs).into_complete()
    }

    /// Per-core fairness of every spec against the [`RunSpec::solo`] run
    /// of each of its slots, which are resolved first (once per distinct
    /// solo across the whole grid). A cell with a failed solo is not
    /// simulated; it is reported as not run, naming the solo.
    pub fn try_evaluate_mix(&mut self, specs: &[RunSpec]) -> Report<MixEvaluation> {
        self.compare(
            specs,
            "solo run",
            |spec| (0..spec.slots.len()).map(|i| spec.solo(i)).collect(),
            |spec, result, solos| MixEvaluation {
                spec: spec.clone(),
                fairness: FairnessReport::compute(&result, &solos),
                result,
            },
        )
    }

    /// [`ParallelHarness::try_evaluate_mix`], unwrapped.
    ///
    /// # Panics
    ///
    /// Panics — after completing every healthy cell and printing the full
    /// failure report to stderr — if any cell or solo failed.
    pub fn evaluate_mix(&mut self, specs: &[RunSpec]) -> Vec<MixEvaluation> {
        self.try_evaluate_mix(specs).into_complete()
    }

    /// The shared shape of both comparisons: resolve every spec's
    /// references, then every spec whose references all completed, then
    /// derive the evaluation from the spec's result and its references'.
    fn compare<T>(
        &mut self,
        specs: &[RunSpec],
        what: &str,
        references: impl Fn(&RunSpec) -> Vec<RunSpec>,
        derive: impl Fn(&RunSpec, SimResult, Vec<SimResult>) -> T,
    ) -> Report<T> {
        let refs: Vec<Vec<RunSpec>> = specs.iter().map(references).collect();
        let flat: Vec<RunSpec> = refs.iter().flatten().cloned().collect();
        let resolved_refs = self.try_run(&flat);
        let mut ref_results = resolved_refs.evaluations.into_iter();
        let mut failures = resolved_refs.failures;
        let per_spec: Vec<Result<Vec<SimResult>, String>> = refs
            .iter()
            .map(|r| {
                let results: Vec<Option<SimResult>> = ref_results.by_ref().take(r.len()).collect();
                match results.iter().position(Option::is_none) {
                    Some(i) => Err(format!("not run: its {what} failed ({})", r[i].label())),
                    None => Ok(results.into_iter().flatten().collect()),
                }
            })
            .collect();

        let runnable: Vec<RunSpec> = specs
            .iter()
            .zip(&per_spec)
            .filter(|(_, r)| r.is_ok())
            .map(|(spec, _)| spec.clone())
            .collect();
        let resolved = self.try_run(&runnable);
        let mut results = resolved.evaluations.into_iter();
        let evaluations = specs
            .iter()
            .zip(per_spec)
            .map(|(spec, refs)| match refs {
                Ok(refs) => results
                    .next()
                    .expect("one slot per runnable spec")
                    .map(|result| derive(spec, result, refs)),
                Err(reason) => {
                    failures.push(Failure {
                        spec: spec.clone(),
                        reason,
                    });
                    None
                }
            })
            .collect();
        failures.extend(resolved.failures);
        Report {
            evaluations,
            failures,
            checkpoint_hits: resolved_refs.checkpoint_hits + resolved.checkpoint_hits,
        }
    }
}

/// One run compared against its no-prefetcher baseline.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// The evaluated run.
    pub spec: RunSpec,
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

/// One run compared against the solo runs of its slots.
#[derive(Clone, Debug)]
pub struct MixEvaluation {
    /// The evaluated run.
    pub spec: RunSpec,
    /// Per-core fairness: IPCs, aggregate, min/max ratio, slowdowns
    /// versus the solo runs.
    pub fairness: FairnessReport,
    /// The full run.
    pub result: SimResult,
}

/// One failed cell — a run or a reference run — and why. Panics, timeouts
/// and cycle-limit aborts all land here as values.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The run that failed (for a reference failure: the reference).
    pub spec: RunSpec,
    /// Human-readable reason: the panic message, the exceeded deadline,
    /// or the failed reference of a cell that was not run.
    pub reason: String,
}

/// The result of a fault-tolerant sweep: one slot per input spec (input
/// order, `None` where the cell failed or was not run) plus the collected
/// failures.
#[derive(Debug)]
pub struct Report<T> {
    /// One slot per input spec, input order; `None` for failed cells.
    pub evaluations: Vec<Option<T>>,
    /// Every failed cell and failed reference, in discovery order.
    pub failures: Vec<Failure>,
    /// Cells and references replayed from the checkpoint instead of
    /// simulated.
    pub checkpoint_hits: usize,
}

impl<T> Report<T> {
    /// Whether every cell (and every reference) completed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of cells that produced an evaluation.
    pub fn completed(&self) -> usize {
        self.evaluations.iter().filter(|e| e.is_some()).count()
    }

    /// The multi-line failure report: one line per failure with the run's
    /// label and the reason. Empty string when clean.
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
            out.push_str(&format!("  {}: {}\n", f.spec.label(), f.reason));
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
    pub fn into_complete(self) -> Vec<T> {
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

impl Report<Evaluation> {
    /// Requires every completed cell to have reported each named
    /// prefetcher metric, turning the silent `None` of
    /// [`SimResult::metric_sum`] into a listed [`Failure`]. A typo'd or
    /// renamed metric therefore shows up by name in the failure report
    /// (and fails [`Report::into_complete`]) instead of plotting as a
    /// silent zero.
    pub fn require_metrics(&mut self, names: &[&str]) {
        for e in self.evaluations.iter().flatten() {
            for &name in names {
                if e.result.metric_sum(name).is_none() {
                    self.failures.push(Failure {
                        spec: e.spec.clone(),
                        reason: format!("metric {name:?} missing: no prefetcher reported it"),
                    });
                }
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_sim::{
        AccessInfo, BlockAddr, Counters, RegionGeometry, SourceCounters, ThrottleLevel,
    };

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
            PrefetcherKind::sms(),
            PrefetcherKind::bingo(),
            PrefetcherKind::Bingo(BingoConfig::with_history_entries(4096)),
            PrefetcherKind::Bingo(BingoConfig {
                vote_threshold: 0.5,
                region: RegionGeometry::new(1024),
                ..BingoConfig::paper()
            }),
            PrefetcherKind::Events {
                first: EventKind::Offset,
                count: 1,
            },
            PrefetcherKind::Events {
                first: EventKind::PcAddress,
                count: 3,
            },
            PrefetcherKind::Events {
                first: EventKind::PcOffset,
                count: 2,
            },
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
    fn bingo_with_names_every_field_that_differs_from_the_paper() {
        let paper = BingoConfig::paper();
        let name = |cfg| PrefetcherKind::Bingo(cfg).name();
        assert_eq!(name(paper), "Bingo");
        assert_eq!(
            name(BingoConfig::with_history_entries(4096)),
            "Bingo-4K-entries"
        );
        assert_eq!(
            name(BingoConfig {
                vote_threshold: 0.35,
                ..paper
            }),
            "Bingo-vote35%"
        );
        assert_eq!(
            name(BingoConfig {
                region: RegionGeometry::new(1024),
                train_on_eviction: false,
                ..paper
            }),
            "Bingo-1KB-region-overflow-only"
        );
        assert_eq!(
            name(BingoConfig {
                history_entries: 1000,
                history_ways: 8,
                accumulation_entries: 32,
                min_footprint_blocks: 3,
                ..paper
            }),
            "Bingo-1000-entries-8-way-acc32-min3"
        );
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
        let bingo_kb = PrefetcherKind::bingo().storage_kb();
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
    #[should_panic(expected = "BINGO_INSTR must be a positive integer")]
    fn from_parts_rejects_garbage_instr() {
        let env = |name: &str| (name == "BINGO_INSTR").then(|| "100k".to_string());
        let _ = RunScale::from_parts(Vec::new(), env);
    }

    /// An empty measurement window would print a figure of zeros; an
    /// empty warm-up is a legitimate cold start.
    #[test]
    #[should_panic(expected = "BINGO_INSTR must be a positive integer, got \"0\"")]
    fn from_parts_rejects_zero_instr_but_not_zero_warmup() {
        let warm = |name: &str| (name == "BINGO_WARMUP").then(|| "0".to_string());
        assert_eq!(RunScale::from_parts(Vec::new(), warm).warmup_per_core, 0);
        let env = |name: &str| (name == "BINGO_INSTR").then(|| "0".to_string());
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

    #[test]
    fn scaled_instruction_targets_are_exact() {
        let half = Slot {
            stream: Stream::Synthetic(Workload::Streaming),
            stream_core: 0,
            prefetcher: PrefetcherKind::bingo(),
            budget_percent: 50,
        };
        assert_eq!(half.target(1_000_000), 500_000);
        let full = Slot {
            budget_percent: 100,
            ..half
        };
        assert_eq!(full.target(999_999), 999_999);
    }

    fn tiny_scale(seed: u64) -> RunScale {
        RunScale {
            instructions_per_core: 15_000,
            warmup_per_core: 5_000,
            seed,
        }
    }

    /// Classic cells with throttling off.
    fn plain(scale: RunScale, cells: &[(Workload, PrefetcherKind)]) -> Vec<RunSpec> {
        cells
            .iter()
            .map(|&(w, k)| RunSpec::classic(scale, w, k))
            .collect()
    }

    /// A sweep containing a deliberately panicking cell completes every
    /// other cell and lists the failed cell with its panic message.
    #[test]
    fn panicking_cell_does_not_abort_the_sweep() {
        let faulty = PrefetcherKind::Faulty { panic_after: 100 };
        let specs = plain(
            tiny_scale(11),
            &[
                (Workload::Em3d, PrefetcherKind::NextLine(1)),
                (Workload::Em3d, faulty),
                (Workload::Streaming, PrefetcherKind::Stride),
            ],
        );
        let report = ParallelHarness::with_jobs(2).quiet().try_evaluate(&specs);
        assert!(!report.is_clean());
        assert_eq!(report.evaluations.len(), 3);
        assert!(report.evaluations[0].is_some(), "healthy cell 0 completed");
        assert!(report.evaluations[1].is_none(), "faulty cell has no result");
        assert!(report.evaluations[2].is_some(), "healthy cell 2 completed");
        assert_eq!(report.completed(), 2);
        assert_eq!(report.failures.len(), 1);
        let failure = &report.failures[0];
        assert_eq!(failure.spec.key(), specs[1].key());
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
        let specs = plain(
            tiny_scale(12),
            &[
                (Workload::Streaming, PrefetcherKind::NextLine(1)),
                (
                    Workload::Streaming,
                    PrefetcherKind::Faulty { panic_after: 0 },
                ),
            ],
        );
        let _ = ParallelHarness::with_jobs(2).quiet().evaluate(&specs);
    }

    /// A zero deadline times out every cell — including the baseline —
    /// and the sweep still completes with the failures as data.
    #[test]
    fn zero_cell_timeout_times_out_instead_of_hanging() {
        let spec = plain(
            tiny_scale(13),
            &[(Workload::Em3d, PrefetcherKind::NextLine(1))],
        );
        let report = ParallelHarness::with_jobs(2)
            .quiet()
            .with_cell_timeout(Duration::ZERO)
            .try_evaluate(&spec);
        assert!(report.evaluations.iter().all(Option::is_none));
        let [baseline_failure, cell_failure] = &report.failures[..] else {
            panic!("baseline and cell both fail: {}", report.failure_report());
        };
        assert_eq!(baseline_failure.spec.key(), spec[0].baseline().key());
        assert!(
            baseline_failure.reason.contains("timed out"),
            "got: {}",
            baseline_failure.reason
        );
        // The dependent cell is reported as not-run, tied to its baseline.
        assert_eq!(cell_failure.spec.key(), spec[0].key());
        assert!(
            cell_failure.reason.contains("baseline failed"),
            "got: {}",
            cell_failure.reason
        );
    }

    /// A generous deadline changes nothing: same bits as no deadline.
    #[test]
    fn generous_cell_timeout_is_bit_for_bit_invisible() {
        let specs = plain(
            tiny_scale(14),
            &[(Workload::Streaming, PrefetcherKind::Stride)],
        );
        let plain_run = ParallelHarness::with_jobs(1).quiet().evaluate(&specs);
        let timed = ParallelHarness::with_jobs(1)
            .quiet()
            .with_cell_timeout(Duration::from_secs(3600))
            .evaluate(&specs);
        assert_eq!(plain_run[0].result, timed[0].result);
        assert_eq!(plain_run[0].speedup.to_bits(), timed[0].speedup.to_bits());
    }

    /// Captures `workload` at `scale` into a fresh temporary directory.
    fn capture(workload: Workload, scale: RunScale, name: &str, chunk: u32) -> TraceWorkload {
        let dir = std::env::temp_dir()
            .join("bingo-bench-trace-grid")
            .join(format!("{name}-{}", std::process::id()));
        let records = scale.warmup_per_core + scale.instructions_per_core + crate::CAPTURE_SLACK;
        bingo_workloads::capture_workload(workload, 4, scale.seed, records, chunk, &dir)
            .expect("capture");
        TraceWorkload::open(&dir).expect("open capture")
    }

    /// A captured trace swept through the engine reproduces the live
    /// generator sweep bit-for-bit (modulo the attached ingest report,
    /// which only replay carries).
    #[test]
    fn trace_grid_matches_live_generators_bit_for_bit() {
        let scale = tiny_scale(21);
        let trace = capture(Workload::Streaming, scale, "streaming", 1024);
        let specs: Vec<RunSpec> = [PrefetcherKind::None, PrefetcherKind::NextLine(1)]
            .into_iter()
            .map(|k| RunSpec::trace(scale, &trace, k))
            .collect();
        let evals = ParallelHarness::with_jobs(2).quiet().evaluate(&specs);
        for e in &evals {
            let kind = e.spec.slots[0].prefetcher;
            let live = run_one(Workload::Streaming, kind, scale);
            let mut replayed = e.result.clone();
            let ingest = replayed.ingest.take().expect("replay attaches a report");
            assert!(ingest.is_clean(), "pristine capture quarantined: {ingest}");
            assert_eq!(live, replayed, "{} replay diverged", kind.name());
        }
        std::fs::remove_dir_all(trace.dir()).ok();
    }

    /// A corrupt trace fails its cell with the typed decode error (byte
    /// offset included) while a healthy cell in the same sweep — the live
    /// generator run of the captured workload — completes.
    #[test]
    fn corrupt_trace_cell_fails_typed_while_live_cell_completes() {
        let scale = RunScale {
            instructions_per_core: 4_000,
            warmup_per_core: 1_000,
            seed: 22,
        };
        let corrupt = capture(Workload::Em3d, scale, "corrupt", 512);
        // Stomp a payload byte mid-file in core 0's stream.
        let path = corrupt.core_path(0);
        let mut bytes = std::fs::read(&path).expect("read capture");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("rewrite capture");
        let mut reader =
            bingo_trace::TraceReader::new(std::io::Cursor::new(&bytes)).expect("header intact");
        let decode_error = loop {
            match reader.next_instr() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("the stomped capture decoded cleanly"),
                Err(e) => break e.to_string(),
            }
        };
        let kind = PrefetcherKind::NextLine(1);
        let specs = [
            RunSpec::trace(scale, &corrupt, kind),
            RunSpec::classic(scale, Workload::Em3d, kind),
        ];
        let report = ParallelHarness::with_jobs(2).quiet().try_evaluate(&specs);

        // The trace's baseline fails with the reader's error; its cell is
        // not run.
        assert_eq!(report.failures.len(), 2, "{}", report.failure_report());
        assert!(
            report.failures[0].reason.contains(&decode_error),
            "expected the reader's {decode_error:?}, got: {}",
            report.failures[0].reason
        );
        assert!(decode_error.contains("byte"), "{decode_error}");
        assert!(
            report
                .failures
                .iter()
                .all(|f| matches!(f.spec.slots[0].stream, Stream::Trace(_))),
            "only the corrupt trace's runs fail: {}",
            report.failure_report()
        );
        assert!(
            report.evaluations[0].is_none(),
            "corrupt cell has no result"
        );
        assert!(report.evaluations[1].is_some(), "the live cell completes");
        std::fs::remove_dir_all(corrupt.dir()).ok();
    }

    #[test]
    fn parse_cell_timeout_accepts_seconds() {
        assert_eq!(parse_cell_timeout("2"), Duration::from_secs(2));
        assert_eq!(parse_cell_timeout(" 0.25 "), Duration::from_millis(250));
        assert_eq!(parse_cell_timeout("0"), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "BINGO_CELL_TIMEOUT must be a non-negative number of seconds")]
    fn parse_cell_timeout_rejects_garbage() {
        let _ = parse_cell_timeout("fast");
    }

    /// A finite, non-negative value no `Duration` holds fails as a knob,
    /// not inside `core::time`.
    #[test]
    #[should_panic(
        expected = "BINGO_CELL_TIMEOUT must be a non-negative number of seconds, got \"1e30\""
    )]
    fn parse_cell_timeout_rejects_a_value_no_duration_holds() {
        let _ = parse_cell_timeout("1e30");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn parse_cell_timeout_rejects_negative() {
        let _ = parse_cell_timeout("-1");
    }

    /// Forwards to the wrapped prefetcher everything a run reads but its
    /// burst source, so every prefetch it issues settles unattributed.
    struct Unattributed(Box<dyn Prefetcher>);

    impl Prefetcher for Unattributed {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<BlockAddr>) {
            self.0.on_access(info, out);
        }

        fn on_eviction(&mut self, block: BlockAddr) {
            self.0.on_eviction(block);
        }

        fn storage_bits(&self) -> u64 {
            self.0.storage_bits()
        }

        fn debug_stats(&self) -> String {
            self.0.debug_stats()
        }

        fn metrics(&self) -> Vec<(&'static str, f64)> {
            self.0.metrics()
        }

        fn set_throttle_level(&mut self, level: ThrottleLevel) {
            self.0.set_throttle_level(level);
        }
    }

    /// Workload-scale lock for the telemetry layer: attribution cannot
    /// move the machine. A Bingo cell on the paper's 4-core machine,
    /// rebuilt as [`RunSpec::run`] builds it but with each core's Bingo
    /// reporting every burst unattributed, gives the plain cell's result
    /// apart from the labels of its report, whose one `unattributed` row
    /// is the sum of Bingo's per-event rows.
    #[test]
    fn telemetry_is_invisible_at_workload_scale() {
        let scale = RunScale {
            instructions_per_core: 60_000,
            warmup_per_core: 20_000,
            seed: 16,
        };
        let spec = RunSpec::classic(scale, Workload::Em3d, PrefetcherKind::bingo());
        let plain = spec.run(None).expect("the cell completes");
        let mut cfg = SystemConfig::paper().with_cores(spec.slots.len());
        spec.pressure.apply(&mut cfg);
        let sources = spec.slots.iter().map(|s| s.source(scale.seed)).collect();
        let prefetchers = spec
            .slots
            .iter()
            .map(|s| Box::new(Unattributed(s.prefetcher.build())) as Box<dyn Prefetcher>)
            .collect();
        let targets: Vec<u64> = spec
            .slots
            .iter()
            .map(|s| s.target(scale.instructions_per_core))
            .collect();
        let wrapped = System::new_heterogeneous(cfg, sources, prefetchers, &targets)
            .with_warmup(scale.warmup_per_core)
            .with_throttle(spec.throttle)
            .run();

        assert_ledger_matches_llc(&plain);
        // Requested = issued + every drop class: nothing leaks between
        // the request and the issue decision.
        let llc = &plain.llc;
        assert_eq!(
            llc.pf_requested,
            llc.pf_issued + llc.pf_dropped_duplicate + llc.pf_dropped_mshr + llc.pf_dropped_queue
        );
        // Bingo attributes every burst to one of its two events.
        let report = &plain.telemetry;
        let attributed: u64 = ["long", "short"]
            .iter()
            .filter_map(|l| report.source(l))
            .map(|c| c.issued)
            .sum();
        assert!(llc.pf_issued > 0, "Bingo must prefetch on em3d");
        assert_eq!(attributed, llc.pf_issued, "every Bingo burst is attributed");
        assert!(report.source("unattributed").is_none(), "{report:?}");

        let mut sum = SourceCounters::default();
        for (_, c) in &report.by_source {
            sum.add(c);
        }
        let mut relabelled = plain.clone();
        relabelled.telemetry.by_source = vec![("unattributed".to_string(), sum)];
        assert_eq!(wrapped, relabelled, "attribution changed the machine");
    }

    /// The ledger's per-source counters sum to the cache's own lifecycle
    /// counters — drops to every reason together, so a prefetch that
    /// never issued is still accounted for exactly once.
    fn assert_ledger_matches_llc(result: &SimResult) {
        let mut sum = SourceCounters::default();
        for (_, c) in &result.telemetry.by_source {
            sum.add(c);
        }
        let llc = &result.llc;
        assert_eq!(sum.issued, llc.pf_issued);
        assert_eq!(sum.timely, llc.pf_useful);
        assert_eq!(sum.late, llc.pf_late);
        assert_eq!(sum.unused, llc.pf_useless);
        assert_eq!(
            sum.dropped,
            llc.pf_dropped_duplicate + llc.pf_dropped_mshr + llc.pf_dropped_queue
        );
    }

    /// A fault-injected Bingo cell completes without panicking and keeps
    /// the ledger consistent with the cache — corrupted metadata must not
    /// desynchronize the observability layer.
    #[test]
    fn faulty_bingo_with_telemetry_stays_consistent() {
        let kind = PrefetcherKind::BingoFaulty {
            fault_seed: 5,
            rate: 0.05,
        };
        let spec = RunSpec::classic(tiny_scale(17), Workload::Em3d, kind);
        let evals = ParallelHarness::with_jobs(2).quiet().evaluate(&[spec]);
        assert_ledger_matches_llc(&evals[0].result);
    }

    /// The harness-level throttle contract: a feedback-throttled sweep
    /// completes, and because throttling is strictly subtractive, the
    /// throttled Bingo never issues more prefetches than the unthrottled
    /// run of the same cell. The baseline (no prefetcher) is bit-for-bit
    /// unaffected, so speedups stay comparable across modes.
    #[test]
    fn throttled_sweeps_only_subtract_prefetches() {
        let sweep = |throttle| {
            let spec = RunSpec {
                throttle,
                ..RunSpec::classic(tiny_scale(22), Workload::Em3d, PrefetcherKind::bingo())
            };
            ParallelHarness::with_jobs(1).quiet().evaluate(&[spec])
        };
        let plain_run = sweep(ThrottleMode::Off);
        let throttled = sweep(ThrottleMode::Feedback);
        assert_eq!(
            plain_run[0].baseline, throttled[0].baseline,
            "throttling must not touch the no-prefetcher baseline"
        );
        assert!(
            throttled[0].result.llc.pf_issued <= plain_run[0].result.llc.pf_issued,
            "feedback throttle issued more prefetches ({}) than unthrottled ({})",
            throttled[0].result.llc.pf_issued,
            plain_run[0].result.llc.pf_issued
        );
    }

    fn temp_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("bingo-runner-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// A sweep resumed from its checkpoint replays the full result —
    /// lifecycle report included — instead of re-simulating.
    #[test]
    fn checkpoint_replays_telemetry_reports() {
        let path = temp_file("telemetry-replay.jsonl");
        let spec = RunSpec::classic(
            tiny_scale(19),
            Workload::Streaming,
            PrefetcherKind::NextLine(1),
        );
        let run = || {
            ParallelHarness::with_jobs(1)
                .quiet()
                .with_checkpoint(Checkpoint::open(&path).expect("open checkpoint"))
                .try_evaluate(std::slice::from_ref(&spec))
        };
        let fresh = run();
        assert_eq!(fresh.checkpoint_hits, 0);
        let resumed = run();
        assert_eq!(resumed.checkpoint_hits, 2, "baseline and cell replay");
        let (a, b) = (fresh.into_complete(), resumed.into_complete());
        assert_eq!(a[0].result, b[0].result);
        assert!(
            !b[0].result.telemetry.by_source.is_empty(),
            "the report survives the file"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// The metric_sum contract: a figure requiring a metric no prefetcher
    /// reports gets a named failure instead of a silent zero.
    #[test]
    fn require_metrics_reports_unknown_names() {
        let specs = plain(
            tiny_scale(18),
            &[(
                Workload::Streaming,
                PrefetcherKind::Events {
                    first: EventKind::PcAddress,
                    count: 2,
                },
            )],
        );
        let mut report = ParallelHarness::with_jobs(2).quiet().try_evaluate(&specs);
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

    /// The checkpoint, the run's stats export, records every completed
    /// cell plus each unique baseline, one JSON line per key, baselines
    /// first; the baseline is resolved once and shared by every cell that
    /// needs it.
    #[test]
    fn stats_export_writes_each_baseline_once() {
        let path = temp_file("stats-export.jsonl");
        let specs: Vec<RunSpec> = [PrefetcherKind::NextLine(1), PrefetcherKind::Stride]
            .into_iter()
            .map(|k| RunSpec::classic(tiny_scale(20), Workload::Streaming, k))
            .collect();
        let mut h = ParallelHarness::with_jobs(2)
            .quiet()
            .with_checkpoint(Checkpoint::open(&path).expect("open checkpoint"));
        let evals = h.evaluate(&specs);
        assert_eq!(evals[0].baseline, evals[1].baseline);
        let text = std::fs::read_to_string(&path).expect("read checkpoint");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "one baseline + two cells");
        let baseline_key = specs[0].baseline().key();
        assert!(lines[0].contains(&baseline_key), "{}", lines[0]);
        assert!(lines.iter().all(|l| l.contains("\"telemetry\":")));
        // A second pass is served from the memo: same results, no new
        // lines.
        let again = h.try_evaluate(&specs);
        assert_eq!(again.checkpoint_hits, 0);
        assert_eq!(again.into_complete()[1].result, evals[1].result);
        let text = std::fs::read_to_string(&path).expect("reread checkpoint");
        assert_eq!(text.lines().count(), 3);
        let _ = std::fs::remove_file(&path);
    }

    /// A tiny mix used by the mix-view tests.
    fn tiny_mix() -> MixConfig {
        MixConfig::new(
            "tiny",
            &[
                (Workload::Streaming, PrefetcherKind::Stride, 100),
                (Workload::StressStorm, PrefetcherKind::None, 50),
            ],
            None,
        )
    }

    fn mix_spec(seed: u64, mix: &MixConfig, cores: usize, pressure: Pressure) -> RunSpec {
        RunSpec::mix(tiny_scale(seed), mix, cores, pressure)
    }

    #[test]
    fn mix_view_runs_solos_and_reports_fairness() {
        let specs = [mix_spec(7, &tiny_mix(), 2, Pressure::NONE)];
        let evals = ParallelHarness::with_jobs(2).quiet().evaluate_mix(&specs);
        let e = &evals[0];
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
    fn mix_spec_replicates_the_pattern_cyclically() {
        let spec = mix_spec(9, &tiny_mix(), 4, Pressure::CONSTRAINED);
        let e = &ParallelHarness::with_jobs(2).quiet().evaluate_mix(&[spec])[0];
        assert_eq!(e.result.cores.len(), 4);
        // Slots 2 and 3 repeat the declared pattern (full budget, half
        // budget) with their own per-core streams.
        assert_eq!(e.result.cores[2].instructions, 15_000);
        assert_eq!(e.result.cores[3].instructions, 7_500);
        assert_eq!(e.spec.slots[3].stream_core, 3);
    }

    #[test]
    fn failed_solo_fails_dependent_mix_cells_only() {
        let broken = MixConfig {
            name: "broken".to_string(),
            cores: vec![Slot {
                stream: Stream::Synthetic(Workload::Em3d),
                stream_core: 0,
                prefetcher: PrefetcherKind::Faulty { panic_after: 100 },
                budget_percent: 100,
            }],
            ramp: None,
        };
        let specs = [
            mix_spec(5, &broken, 1, Pressure::NONE),
            mix_spec(5, &tiny_mix(), 2, Pressure::NONE),
        ];
        let report = ParallelHarness::with_jobs(2)
            .quiet()
            .try_evaluate_mix(&specs);
        assert!(report.evaluations[0].is_none(), "broken cell has no result");
        assert!(report.evaluations[1].is_some(), "healthy cell completed");
        // The solo failure and the dependent cell's not-run are both
        // listed; the broken cell itself was never simulated.
        let [solo, cell] = &report.failures[..] else {
            panic!("{}", report.failure_report());
        };
        assert_eq!(solo.spec.key(), specs[0].solo(0).key());
        assert!(solo
            .reason
            .contains("FaultyPrefetcher panicked deliberately"));
        assert_eq!(cell.spec.key(), specs[0].key());
        assert!(cell.reason.contains("solo run failed"), "{}", cell.reason);
    }
}
