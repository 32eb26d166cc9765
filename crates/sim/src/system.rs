//! Top-level simulated system: cores + memory hierarchy + run loop.
//!
//! [`System`] owns the cores, their instruction sources, and the shared
//! [`MemorySystem`]; [`System::run`] steps the machine until every core
//! retires its instruction budget, then returns a [`SimResult`].
//!
//! The reference run loop is lockstep: every cycle, land the fills due,
//! then step every unfinished core in index order. The default loop gets
//! bit-for-bit the same results with per-core sleeping. Each core carries
//! its own wake cycle, and after stepping core *i* at cycle *t* the loop
//! sets it to the next cycle at which stepping *i* can matter:
//!
//! * stalled on its own full L1 MSHR file: its earliest in-flight L1
//!   fill, the only event that can free one of those MSHRs;
//! * stalled on a full LSQ: the cycle its oldest store completes;
//! * blocked on a full ROB: the cycle the head completes;
//! * at the head of a run of ops: the core op-cranks the run it holds as
//!   a count (see [`crate::core_model`]), with no source call, and wakes
//!   `k` cycles later;
//! * stalled on LLC MSHRs, or anything else: `t + 1`.
//!
//! Every wake is capped at the cycle its retirements would cross the
//! core's warm-up or target boundary. The loop then jumps to the earlier
//! of the next fill and the earliest wake, and steps only the cores due.
//!
//! A sleeping core touches nothing shared: its skipped cycles would retry
//! an access that dies at its private L1 or LSQ, or do nothing at all, so
//! no LLC bank, DRAM channel, prefetcher, throttle or ledger sees them.
//! Their private effects — retirements, stall counters, L1 access counts
//! and bank reservations — are deferred and replayed in closed form when
//! the core wakes (a missed retry leaves recency alone). The one reader of those private
//! counters before then is the end-of-warm-up statistics reset, so every
//! sleeper catches up through the current cycle just before it.

use std::time::{Duration, Instant};

use crate::addr::CoreId;
use crate::chaos::ChaosInjector;
use crate::config::SystemConfig;
use crate::core_model::{InstrSource, OooCore, RetrySpec};
use crate::memory::{MemorySystem, StallLevel};
use crate::prefetch::Prefetcher;
use crate::stats::{Counters, SimResult};
use crate::telemetry::TelemetryLevel;
use crate::throttle::ThrottleMode;

/// Why a simulation stopped before reaching its instruction targets.
///
/// Returned by [`System::try_run`]; [`System::run`] converts these into
/// panics for callers that treat an abort as fatal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimAbort {
    /// The wall-clock budget set by [`System::with_time_limit`] ran out.
    ///
    /// The deadline is *soft*: it is polled once per batch of 8192 run
    /// loop iterations (each iteration may cover many cycles), so a run
    /// may overshoot the limit by one batch of simulation work before
    /// aborting.
    DeadlineExceeded {
        /// The configured wall-clock limit.
        limit: Duration,
    },
    /// The simulation exceeded the livelock cycle bound without every core
    /// reaching its retirement target.
    CycleLimit {
        /// The cycle bound that was hit.
        limit: u64,
    },
}

impl std::fmt::Display for SimAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimAbort::DeadlineExceeded { limit } => {
                write!(f, "simulation exceeded its {limit:?} wall-clock deadline")
            }
            SimAbort::CycleLimit { limit } => {
                write!(f, "simulation livelock suspected (cycle {limit} reached)")
            }
        }
    }
}

impl std::error::Error for SimAbort {}

/// A complete simulated chip.
pub struct System {
    cores: Vec<OooCore>,
    sources: Vec<Box<dyn InstrSource>>,
    mem: MemorySystem,
    now: u64,
    mem_stats_reset: bool,
    measure_start: u64,
    deadline: Option<Duration>,
    fast_forward: bool,
    chaos: Option<ChaosInjector>,
    /// Per-core sleep state; stays all-default (always due) in lockstep.
    sleep: Vec<Sleep>,
}

/// One core's place in the per-core wake schedule.
#[derive(Copy, Clone, Debug, Default)]
struct Sleep {
    /// The next cycle the core must be stepped.
    wake: u64,
    /// The first skipped cycle whose retry has not been replayed yet.
    from: u64,
    /// The stalled access each skipped cycle retries, when skipped cycles
    /// have effects to replay (`None` for a full ROB or an op crank).
    retry: Option<RetrySpec>,
}

impl Sleep {
    /// A finished core is never due again.
    const FINISHED: Sleep = Sleep {
        wake: u64::MAX,
        from: u64::MAX,
        retry: None,
    };
}

impl System {
    /// Builds a system.
    ///
    /// `sources` and `prefetchers` must each have exactly one element per
    /// configured core; `instructions_per_core` is each core's retirement
    /// target.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the vector lengths do not
    /// match `cfg.cores`.
    pub fn new(
        cfg: SystemConfig,
        sources: Vec<Box<dyn InstrSource>>,
        prefetchers: Vec<Box<dyn Prefetcher>>,
        instructions_per_core: u64,
    ) -> Self {
        let targets = vec![instructions_per_core; cfg.cores];
        Self::new_heterogeneous(cfg, sources, prefetchers, &targets)
    }

    /// Builds a system with a *per-core* retirement target — the substrate
    /// for heterogeneous workload mixes, where cores carry different
    /// programs with different instruction budgets but still contend for
    /// the one shared LLC, MSHR pool, and DRAM channels.
    ///
    /// With every target equal this is exactly [`System::new`] (which
    /// delegates here), so the homogeneous path cannot drift from the
    /// heterogeneous one.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or any vector length does
    /// not match `cfg.cores`.
    pub fn new_heterogeneous(
        cfg: SystemConfig,
        sources: Vec<Box<dyn InstrSource>>,
        prefetchers: Vec<Box<dyn Prefetcher>>,
        instructions_per_core: &[u64],
    ) -> Self {
        assert_eq!(sources.len(), cfg.cores, "one instruction source per core");
        assert_eq!(
            instructions_per_core.len(),
            cfg.cores,
            "one instruction target per core"
        );
        let cores = instructions_per_core
            .iter()
            .enumerate()
            .map(|(i, &target)| OooCore::new(CoreId(i), cfg.core, target))
            .collect();
        System {
            cores,
            sources,
            mem: MemorySystem::new(cfg, prefetchers),
            now: 0,
            mem_stats_reset: true,
            measure_start: 0,
            deadline: None,
            fast_forward: true,
            chaos: None,
            sleep: vec![Sleep::default(); cfg.cores],
        }
    }

    /// Enables or disables the fast-forward (on by default).
    ///
    /// Fast-forwarding is a pure run-loop optimization: each core sleeps
    /// through the cycles on which stepping it provably changes nothing
    /// shared, the loop jumps over cycles on which no core is due and no
    /// fill lands, and the sleepers' private effects are replayed in
    /// closed form (see the module docs). Results are bit-for-bit
    /// identical either way (asserted by the `fast_forward_is_bit_for_bit`
    /// tests); disabled, the loop is the lockstep reference that steps
    /// every unfinished core every cycle. The toggle exists for those
    /// equivalence tests and for debugging.
    pub fn with_fast_forward(mut self, enabled: bool) -> Self {
        self.fast_forward = enabled;
        self
    }

    /// Sets a soft wall-clock deadline for [`System::try_run`].
    ///
    /// The clock starts when `try_run` is entered. The deadline is polled
    /// once per batch of 8192 run loop iterations, to keep `Instant::now`
    /// calls off the hot path, so the run can overshoot `limit` by one
    /// batch of work before aborting with [`SimAbort::DeadlineExceeded`].
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Adds a warmup window of `instructions` per core: caches, predictor
    /// tables, and generators run live, but all statistics are reset when
    /// every core has retired its warmup budget — modeling the paper's
    /// SimFlex checkpoints with "warmed caches, branch predictors, and
    /// prediction tables".
    pub fn with_warmup(mut self, instructions: u64) -> Self {
        for core in &mut self.cores {
            core.set_warmup(instructions);
        }
        self.mem_stats_reset = instructions == 0;
        self
    }

    /// Enables prefetch-lifecycle telemetry at the given level; the
    /// resulting [`SimResult::telemetry`] carries the breakdown.
    ///
    /// Telemetry is purely observational: enabling it never changes the
    /// simulated machine (miss streams and cycle counts are identical
    /// either way — see the determinism tests in `tests/telemetry.rs`).
    pub fn with_telemetry(mut self, level: TelemetryLevel) -> Self {
        self.mem.set_telemetry(level);
        self
    }

    /// Enables adaptive prefetch throttling in the given mode.
    ///
    /// With [`ThrottleMode::Off`] this is a no-op — the memory system then
    /// carries no controller, so the run is bit-for-bit identical to one
    /// that never called this. Throttling is active during warmup too, so
    /// the controller's learned level (like predictor tables) is warm when
    /// measurement starts.
    pub fn with_throttle(mut self, mode: ThrottleMode) -> Self {
        self.mem.set_throttle(mode);
        self
    }

    /// Attaches a seeded [`ChaosInjector`] that perturbs the run live (see
    /// the [`chaos`](crate::chaos) module for the taxonomy).
    ///
    /// Chaos runs step every core every cycle — the fast-forward is
    /// disabled, because a jumped-over window would make the perturbation
    /// schedule depend on the optimizer instead of the plan. Deliberately
    /// *not* bit-for-bit comparable to a chaos-free run; determinism in
    /// the seed is what the chaos suite asserts.
    pub fn with_chaos(mut self, injector: ChaosInjector) -> Self {
        self.chaos = Some(injector);
        self.fast_forward = false;
        self
    }

    /// The chaos injector, if one is attached — its perturbation log grows
    /// as the run proceeds.
    pub fn chaos(&self) -> Option<&ChaosInjector> {
        self.chaos.as_ref()
    }

    /// Convenience constructor: every core gets a prefetcher from `make_pf`.
    pub fn with_prefetchers<F>(
        cfg: SystemConfig,
        sources: Vec<Box<dyn InstrSource>>,
        mut make_pf: F,
        instructions_per_core: u64,
    ) -> Self
    where
        F: FnMut(CoreId) -> Box<dyn Prefetcher>,
    {
        let prefetchers = (0..cfg.cores).map(|i| make_pf(CoreId(i))).collect();
        System::new(cfg, sources, prefetchers, instructions_per_core)
    }

    /// Access to the memory system (diagnostics, storage accounting).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.now
    }

    /// Runs until every core reaches its instruction target and returns the
    /// collected statistics.
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds a very generous cycle bound
    /// (1e10 cycles), which would indicate a livelock in the model, or if
    /// a deadline set via [`System::with_time_limit`] expires. Callers that
    /// want to survive either condition should use [`System::try_run`].
    pub fn run(self) -> SimResult {
        match self.try_run() {
            Ok(result) => result,
            Err(SimAbort::CycleLimit { .. }) => panic!("simulation livelock suspected"),
            Err(abort @ SimAbort::DeadlineExceeded { .. }) => panic!("{abort}"),
        }
    }

    /// Runs like [`System::run`], but reports livelock or an expired
    /// wall-clock deadline as a [`SimAbort`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`SimAbort::DeadlineExceeded`] if a limit set via
    /// [`System::with_time_limit`] ran out; [`SimAbort::CycleLimit`] if the
    /// livelock cycle bound (1e10 cycles) was reached.
    pub fn try_run(mut self) -> Result<SimResult, SimAbort> {
        const CYCLE_LIMIT: u64 = 10_000_000_000;
        // Poll the wall clock only once per batch of loop iterations:
        // `Instant::now` is far too expensive to call on every simulated
        // cycle. Iterations rather than cycles, because the fast-forward
        // makes cycle numbers jump.
        const DEADLINE_POLL_MASK: u64 = 8192 - 1;
        let started = self.deadline.map(|_| Instant::now());
        let mut iterations = 0u64;
        loop {
            // Poll on entry (iteration 0) as well: the fast-forward can
            // finish a small run in fewer iterations than one poll batch,
            // and an already-expired deadline must still abort it.
            if iterations & DEADLINE_POLL_MASK == 0 {
                if let (Some(limit), Some(start)) = (self.deadline, started) {
                    if start.elapsed() >= limit {
                        return Err(SimAbort::DeadlineExceeded { limit });
                    }
                }
            }
            iterations += 1;
            self.mem.tick(self.now);
            let bubbled = match self.chaos.as_mut() {
                Some(injector) => injector.on_cycle(self.now, &mut self.mem, self.cores.len()),
                None => None,
            };
            let mut all_done = true;
            for i in 0..self.cores.len() {
                if self.cores[i].is_done() {
                    continue;
                }
                // A sleeping core, or one frozen by a chaos stall bubble,
                // still counts as unfinished, so the run waits for it.
                if self.sleep[i].wake > self.now || bubbled == Some(i) {
                    all_done = false;
                    continue;
                }
                self.catch_up(i, self.now);
                let done = self.cores[i].step(self.now, &mut self.mem, self.sources[i].as_mut());
                all_done &= done;
                if self.fast_forward {
                    self.sleep[i] = if done {
                        Sleep::FINISHED
                    } else {
                        self.schedule(i)
                    };
                }
            }
            if !self.mem_stats_reset && self.cores.iter().all(|c| c.is_warmed()) {
                // The reset wipes the L1 counters that sleepers' deferred
                // retries feed: replay those through this cycle first.
                for i in 0..self.cores.len() {
                    self.catch_up(i, self.now + 1);
                }
                self.mem.reset_stats();
                self.mem_stats_reset = true;
                self.measure_start = self.now;
            }
            if all_done {
                break;
            }
            self.now = if self.fast_forward {
                self.next_event()
            } else {
                self.now + 1
            };
            if self.now >= CYCLE_LIMIT {
                return Err(SimAbort::CycleLimit { limit: CYCLE_LIMIT });
            }
        }
        let total_cycles = self.now - self.measure_start;
        self.mem.drain();
        // Sum trace-ingestion accounting over the sources that report it;
        // stays `None` for all-synthetic runs so historical checkpoint
        // lines (no `ingest` field) remain byte-identical.
        let mut ingest: Option<crate::stats::IngestReport> = None;
        for source in &self.sources {
            if let Some(report) = source.ingest_report() {
                ingest.get_or_insert_with(Default::default).add(&report);
            }
        }
        Ok(SimResult {
            cores: self.cores.iter().map(|c| c.stats.clone()).collect(),
            l1d: self.mem.l1d_stats_sum(),
            llc: self.mem.llc_stats().clone(),
            dram_transfers: self.mem.dram_transfers(),
            total_cycles,
            prefetcher_debug: self.mem.prefetcher_debug(),
            prefetcher_metrics: self.mem.prefetcher_metrics(),
            telemetry: self.mem.telemetry_report(),
            ingest,
            qos: self.mem.qos_report(),
        })
    }
}

impl System {
    /// Decides when core `i`, just stepped at `self.now` and unfinished,
    /// must next be stepped (see the module docs for the rules).
    fn schedule(&mut self, i: usize) -> Sleep {
        let next = self.now + 1;
        let mut sleep = Sleep {
            wake: next,
            from: next,
            retry: None,
        };
        // A ROB-full core whose head retires next cycle has no plan: it is
        // active — the throughput-bound regime the op crank handles.
        match self.cores[i].quiescent_plan(self.now) {
            Some(plan) => {
                sleep.retry = plan.retry;
                sleep.wake = match plan.retry {
                    Some(retry) if retry.mem => match self.mem.stall_level(i) {
                        StallLevel::L1 => self
                            .mem
                            .next_l1_fill(i)
                            .map_or(next, |fill| plan.wake.min(fill)),
                        // Its retries reserve shared LLC banks every cycle:
                        // never sleeps.
                        StallLevel::Llc => next,
                    },
                    _ => plan.wake,
                };
            }
            None => {
                // While the stream head is a run of ops, the next `k`
                // cycles touch nothing but this core's ROB: crank them now.
                sleep.wake += self.cores[i].crank_op_run(next, self.sources[i].as_mut());
            }
        }
        sleep
    }

    /// Replays core `i`'s deferred retries for the cycles it slept through
    /// before `until`. Each retry deterministically fails at the core's
    /// private L1 MSHR check or its LSQ, so the effects are closed-form.
    fn catch_up(&mut self, i: usize, until: u64) {
        let sleep = &mut self.sleep[i];
        let Some(retry) = sleep.retry else {
            return;
        };
        let from = sleep.from;
        if until <= from {
            return;
        }
        sleep.from = until;
        let skipped = until - from;
        self.cores[i].apply_retirements(from, until);
        self.cores[i].apply_stall_cycles(from, skipped);
        if retry.mem {
            self.mem
                .apply_stalled_retries(i, retry.block, from.max(retry.dep_ready), skipped);
        }
    }

    /// The next cycle anything happens: a fill lands or a core is due.
    fn next_event(&self) -> u64 {
        let fill = self.mem.next_fill_ready().unwrap_or(u64::MAX);
        self.sleep.iter().fold(fill, |t, s| t.min(s.wake))
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cores.len())
            .field("cycle", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Addr, Pc};
    use crate::core_model::Instr;
    use crate::prefetch::{NextLinePrefetcher, NoPrefetcher};
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    fn streaming_source(core: usize) -> Box<dyn InstrSource> {
        let mut next = 0u64;
        let base = (core as u64) << 40;
        Box::new(move || {
            next += 1;
            if next.is_multiple_of(4) {
                Instr::Load {
                    pc: Pc::new(0x400),
                    addr: Addr::new(base + (next / 4) * 64),
                    dep: None,
                }
            } else {
                Instr::Op
            }
        })
    }

    #[test]
    fn single_core_run_produces_stats() {
        let cfg = SystemConfig::tiny();
        let sys = System::new(
            cfg,
            vec![streaming_source(0)],
            vec![Box::new(NoPrefetcher)],
            20_000,
        );
        let r = sys.run();
        assert_eq!(r.cores.len(), 1);
        assert_eq!(r.cores[0].instructions, 20_000);
        assert!(r.total_cycles > 0);
        assert!(r.llc.demand_misses > 0, "streaming must miss");
        assert!(r.llc_mpki() > 0.0);
    }

    #[test]
    fn next_line_prefetcher_improves_streaming_ipc() {
        let cfg = SystemConfig::tiny();
        let base = System::new(
            cfg,
            vec![streaming_source(0)],
            vec![Box::new(NoPrefetcher)],
            40_000,
        )
        .run();
        let pf = System::new(
            cfg,
            vec![streaming_source(0)],
            vec![Box::new(NextLinePrefetcher::new(4))],
            40_000,
        )
        .run();
        assert!(
            pf.speedup_over(&base) > 1.2,
            "next-line on a pure stream should speed up ({} vs {})",
            pf.aggregate_ipc(),
            base.aggregate_ipc()
        );
        assert!(pf.llc.demand_misses < base.llc.demand_misses);
    }

    #[test]
    fn multi_core_runs_to_completion_deterministically() {
        let cfg = {
            let mut c = SystemConfig::tiny();
            c.cores = 2;
            c
        };
        let run = || {
            System::new(
                cfg,
                vec![streaming_source(0), streaming_source(1)],
                vec![Box::new(NoPrefetcher), Box::new(NoPrefetcher)],
                10_000,
            )
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.total_cycles, b.total_cycles,
            "simulation must be deterministic"
        );
        assert_eq!(a.llc.demand_misses, b.llc.demand_misses);
        assert_eq!(a.cores[0].cycles, b.cores[0].cycles);
        assert_eq!(a.cores[1].instructions, 10_000);
    }

    #[test]
    #[should_panic(expected = "one instruction source per core")]
    fn source_count_must_match() {
        let cfg = SystemConfig::tiny();
        let _ = System::new(cfg, vec![], vec![Box::new(NoPrefetcher)], 100);
    }

    /// Per-core retirement targets: each core stops at its own budget, and
    /// uniform targets are bit-for-bit the [`System::new`] path.
    #[test]
    fn heterogeneous_targets_honor_each_core() {
        let cfg = SystemConfig::tiny().with_cores(2);
        let r = System::new_heterogeneous(
            cfg,
            vec![streaming_source(0), streaming_source(1)],
            vec![Box::new(NoPrefetcher), Box::new(NoPrefetcher)],
            &[12_000, 3_000],
        )
        .run();
        assert_eq!(r.cores[0].instructions, 12_000);
        assert_eq!(r.cores[1].instructions, 3_000);
        assert!(
            r.cores[1].cycles < r.cores[0].cycles,
            "the smaller budget must finish first"
        );

        let uniform = System::new_heterogeneous(
            cfg,
            vec![streaming_source(0), streaming_source(1)],
            vec![Box::new(NoPrefetcher), Box::new(NoPrefetcher)],
            &[8_000, 8_000],
        )
        .run();
        let classic = System::new(
            cfg,
            vec![streaming_source(0), streaming_source(1)],
            vec![Box::new(NoPrefetcher), Box::new(NoPrefetcher)],
            8_000,
        )
        .run();
        assert_eq!(uniform, classic, "uniform targets must match System::new");
    }

    #[test]
    #[should_panic(expected = "one instruction target per core")]
    fn target_count_must_match() {
        let cfg = SystemConfig::tiny().with_cores(2);
        let _ = System::new_heterogeneous(
            cfg,
            vec![streaming_source(0), streaming_source(1)],
            vec![Box::new(NoPrefetcher), Box::new(NoPrefetcher)],
            &[100],
        );
    }

    /// A pointer-chase source: every 3rd instruction is a dependent load
    /// to a fresh block, exercising dependency-wait retries under MSHR
    /// pressure.
    fn chase_source(core: usize) -> Box<dyn InstrSource> {
        let mut next = 0u64;
        let base = (core as u64) << 40;
        Box::new(move || {
            next += 1;
            if next.is_multiple_of(3) {
                Instr::Load {
                    pc: Pc::new(0x440),
                    addr: Addr::new(base + (next / 3) * 64 * 512),
                    dep: Some((core % 4) as u8),
                }
            } else {
                Instr::Op
            }
        })
    }

    /// A store-heavy source that saturates the LSQ and the MSHRs.
    fn store_source(core: usize) -> Box<dyn InstrSource> {
        let mut next = 0u64;
        let base = (core as u64) << 40;
        Box::new(move || {
            next += 1;
            if next.is_multiple_of(2) {
                Instr::Store {
                    pc: Pc::new(0x500),
                    addr: Addr::new(base + (next / 2) * 64 * 512),
                }
            } else {
                Instr::Op
            }
        })
    }

    /// The quiescent fast-forward must be unobservable: identical
    /// `SimResult`s (every counter, every prefetcher debug string) with it
    /// on and off, across stall-heavy source shapes.
    #[test]
    fn fast_forward_is_bit_for_bit() {
        let cfg = {
            let mut c = SystemConfig::tiny();
            c.cores = 2;
            c
        };
        type SourceShape = fn(usize) -> Box<dyn InstrSource>;
        let shapes: &[SourceShape] = &[streaming_source, chase_source, store_source];
        for (si, make_src) in shapes.iter().enumerate() {
            let build = |ff: bool| {
                System::new(
                    cfg,
                    (0..2).map(make_src).collect(),
                    vec![Box::new(NextLinePrefetcher::new(4)), Box::new(NoPrefetcher)],
                    8_000,
                )
                .with_fast_forward(ff)
            };
            let fast = build(true).run();
            let slow = build(false).run();
            assert_eq!(fast, slow, "fast-forward diverged on source shape {si}");
        }
    }

    /// Loads that miss the 8 KB tiny L1 but hit the LLC: a 16 KB working
    /// set walked over and over. One load in eight keeps the core off its
    /// MSHR and ROB limits, so its LLC lookups land on arbitrary cycles
    /// rather than just after fills.
    fn llc_hit_source(core: usize) -> Box<dyn InstrSource> {
        let mut next = 0u64;
        let base = (core as u64) << 40;
        Box::new(move || {
            next += 1;
            if next.is_multiple_of(8) {
                Instr::Load {
                    pc: Pc::new(0x600),
                    addr: Addr::new(base + (next / 8 % 256) * 64),
                    dep: None,
                }
            } else {
                Instr::Op
            }
        })
    }

    /// A core stalled on LLC MSHRs never sleeps: its retries reserve the
    /// shared LLC banks every cycle, which the LLC-hitting core sees in
    /// its lookup latencies. Six LLC MSHRs make such stalls common. Were
    /// LLC-stalled cores to sleep until the next fill, this mix would
    /// diverge, because the LLC-hitting core also looks up between fills.
    #[test]
    fn fast_forward_is_bit_for_bit_under_llc_mshr_stalls() {
        let mut cfg = SystemConfig::tiny().with_cores(4);
        cfg.llc.mshrs = 6;
        cfg.llc_mshrs_reserved_for_demand = 1;
        type SourceShape = fn(usize) -> Box<dyn InstrSource>;
        let shapes: [SourceShape; 4] =
            [store_source, llc_hit_source, streaming_source, chase_source];
        let build = |ff: bool| {
            System::new(
                cfg,
                shapes.iter().enumerate().map(|(i, make)| make(i)).collect(),
                vec![
                    Box::new(NextLinePrefetcher::new(4)),
                    Box::new(NoPrefetcher),
                    Box::new(NoPrefetcher),
                    Box::new(NoPrefetcher),
                ],
                20_000,
            )
            .with_fast_forward(ff)
        };
        let fast = build(true).run();
        let slow = build(false).run();
        assert!(
            fast.llc.demand_mshr_stalls > 0,
            "the LLC MSHRs must run out"
        );
        assert_eq!(fast, slow);
    }

    /// Same equivalence through a warmup window, where the measurement
    /// reset must land on the same cycle in both modes.
    #[test]
    fn fast_forward_is_bit_for_bit_with_warmup() {
        let cfg = SystemConfig::tiny();
        let build = |ff: bool| {
            System::new(
                cfg,
                vec![chase_source(0)],
                vec![Box::new(NextLinePrefetcher::new(2))],
                6_000,
            )
            .with_warmup(2_000)
            .with_fast_forward(ff)
        };
        let fast = build(true).run();
        let slow = build(false).run();
        assert_eq!(fast, slow);
        assert_eq!(fast.cores[0].instructions, 6_000);
    }

    /// One instruction of an op-heavy stream: runs of three or four ops
    /// between loads and stores that miss the tiny L1.
    fn mixed_instr(core: usize, n: u64) -> Instr {
        let addr = Addr::new(((core as u64) << 40) + n * 64 * 17);
        match n % 9 {
            4 => Instr::Load {
                pc: Pc::new(0x700),
                addr,
                dep: n.is_multiple_of(4).then_some(1),
            },
            8 if n.is_multiple_of(5) => Instr::Store {
                pc: Pc::new(0x710),
                addr,
            },
            8 => Instr::Load {
                pc: Pc::new(0x720),
                addr,
                dep: None,
            },
            _ => Instr::Op,
        }
    }

    /// Serves [`mixed_instr`]'s stream, counting every instruction it
    /// hands out. With `cap`, `peek_ops` reports at most `cap` of the
    /// leading ops and `take_ops` never crosses that cap, as a `.btrc`
    /// reader does at a chunk boundary; without, the source has only
    /// `next_instr`.
    struct CountingSource {
        core: usize,
        /// Index of the next instruction to generate.
        next: u64,
        /// Generated but not yet handed out, at most `cap` long.
        ahead: VecDeque<Instr>,
        cap: Option<usize>,
        handed_out: Rc<Cell<u64>>,
    }

    impl CountingSource {
        fn generate(&mut self) -> Instr {
            self.next += 1;
            mixed_instr(self.core, self.next)
        }
    }

    impl InstrSource for CountingSource {
        fn next_instr(&mut self) -> Instr {
            self.handed_out.set(self.handed_out.get() + 1);
            match self.ahead.pop_front() {
                Some(instr) => instr,
                None => self.generate(),
            }
        }

        fn take_ops(&mut self, max: usize) -> usize {
            let n = self.peek_ops().min(max);
            self.ahead.drain(..n);
            self.handed_out.set(self.handed_out.get() + n as u64);
            n
        }

        fn peek_ops(&mut self) -> usize {
            let Some(cap) = self.cap else {
                return 0;
            };
            while self.ahead.len() < cap {
                let instr = self.generate();
                self.ahead.push_back(instr);
            }
            self.ahead.iter().take_while(|&&i| i == Instr::Op).count()
        }
    }

    /// A source that under-reports its op runs drives the core to the
    /// same result as the lockstep loop and as the same stream served
    /// through `next_instr` alone, and hands out exactly as many
    /// instructions: the core takes every op it dispatched from a peeked
    /// run, the last ones when it finishes.
    #[test]
    fn capped_op_runs_match_next_instr_only_delivery() {
        let cfg = SystemConfig::tiny().with_cores(2);
        for target in [3_000, 5_001, 7_002] {
            let run = |cap: Option<usize>, ff: bool| {
                let handed_out: Vec<_> = (0..2).map(|_| Rc::new(Cell::new(0))).collect();
                let sources = (0..2)
                    .map(|core| {
                        Box::new(CountingSource {
                            core,
                            next: 0,
                            ahead: VecDeque::new(),
                            cap,
                            handed_out: Rc::clone(&handed_out[core]),
                        }) as Box<dyn InstrSource>
                    })
                    .collect();
                let result = System::new(
                    cfg,
                    sources,
                    vec![Box::new(NextLinePrefetcher::new(2)), Box::new(NoPrefetcher)],
                    target,
                )
                .with_warmup(1_000)
                .with_fast_forward(ff)
                .run();
                let counts: Vec<u64> = handed_out.iter().map(|c| c.get()).collect();
                (result, counts)
            };
            let (capped, capped_counts) = run(Some(3), true);
            let (lockstep, lockstep_counts) = run(Some(3), false);
            let (plain, plain_counts) = run(None, true);
            assert_eq!(capped, lockstep, "target {target}: capped runs vs lockstep");
            assert_eq!(
                capped, plain,
                "target {target}: capped runs vs next_instr only"
            );
            assert_eq!(capped_counts, plain_counts, "target {target}: handed out");
            assert_eq!(
                lockstep_counts, plain_counts,
                "target {target}: lockstep handed out"
            );
        }
    }

    #[test]
    fn zero_deadline_aborts_immediately() {
        let cfg = SystemConfig::tiny();
        let sys = System::new(
            cfg,
            vec![streaming_source(0)],
            vec![Box::new(NoPrefetcher)],
            1_000_000,
        )
        .with_time_limit(std::time::Duration::ZERO);
        match sys.try_run() {
            Err(SimAbort::DeadlineExceeded { limit }) => {
                assert_eq!(limit, std::time::Duration::ZERO);
            }
            other => panic!("expected deadline abort, got {other:?}"),
        }
    }

    #[test]
    fn generous_deadline_matches_unlimited_run() {
        let cfg = SystemConfig::tiny();
        let build = || {
            System::new(
                cfg,
                vec![streaming_source(0)],
                vec![Box::new(NoPrefetcher)],
                20_000,
            )
        };
        let unlimited = build().run();
        let limited = build()
            .with_time_limit(std::time::Duration::from_secs(3600))
            .try_run()
            .expect("an hour is plenty for 20k instructions");
        assert_eq!(unlimited.total_cycles, limited.total_cycles);
        assert_eq!(unlimited.llc.demand_misses, limited.llc.demand_misses);
    }
}
