//! Statistics collected during simulation and the derived metrics the
//! paper's figures report (MPKI, IPC, miss coverage, accuracy,
//! overprediction).

use std::fmt;

use crate::telemetry::TelemetryReport;

/// A struct of counters with one walk: the list of its counter fields in
/// the order the checkpoint stores them. Sums, serialization and parsing
/// all go through the walk, so each counter is named once.
///
/// Implemented with the crate's `counters!` macro, whose methods
/// destructure the struct without `..`: a field added to the struct fails
/// to compile until the walk names it as a counter or lists it under
/// `except`.
pub trait Counters: Sized {
    /// The counter values, in walk order.
    fn values(&self) -> Vec<u64>;

    /// Builds the struct from exactly one value per counter, in walk
    /// order, with the fields under `except` at their defaults; `None`
    /// when the number of values differs or a value does not fit its
    /// counter.
    fn from_values(values: &[u64]) -> Option<Self>;

    /// Adds every counter of `other` into `self`; the fields under
    /// `except` keep their values.
    fn add(&mut self, other: &Self);
}

/// Implements [`Counters`] for `$ty` from its counter fields in walk
/// order; the struct's other fields are listed under `except`.
macro_rules! counters {
    ($ty:ident { $($counter:ident),+ $(,)? } $(except { $($other:ident),+ $(,)? })?) => {
        impl $crate::stats::Counters for $ty {
            fn values(&self) -> Vec<u64> {
                let $ty { $($counter,)+ $($($other: _,)+)? } = self;
                vec![$(u64::from(*$counter)),+]
            }

            fn from_values(values: &[u64]) -> Option<Self> {
                let [$($counter),+] = values else {
                    return None;
                };
                Some($ty {
                    $($counter: (*$counter).try_into().ok()?,)+
                    $($($other: Default::default(),)+)?
                })
            }

            fn add(&mut self, other: &Self) {
                let mut theirs = other.values().into_iter();
                let $ty { $($counter,)+ $($($other: _,)+)? } = self;
                $(
                    let sum = u64::from(*$counter) + theirs.next().expect("one value per counter");
                    *$counter = sum.try_into().expect("a sum of counters fits its counter");
                )+
            }
        }
    };
}
pub(crate) use counters;

/// Counters for one cache (the LLC counters drive every figure).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand (load/store) lookups.
    pub demand_accesses: u64,
    /// Demand lookups that hit a resident, ready block.
    pub demand_hits: u64,
    /// Demand lookups that hit a block still in flight (MSHR merge). For a
    /// prefetched in-flight block this is a *late* prefetch: partially
    /// covered.
    pub demand_hits_pending: u64,
    /// Demand lookups that missed entirely.
    pub demand_misses: u64,
    /// Demand misses rejected because no MSHR was available (retried later).
    pub demand_mshr_stalls: u64,
    /// Lines evicted to make room for fills.
    pub evictions: u64,
    /// Dirty evictions written back toward memory.
    pub writebacks: u64,
    /// Prefetch candidates the prefetcher produced.
    pub pf_requested: u64,
    /// Prefetches dropped because the block was already resident or in
    /// flight.
    pub pf_dropped_duplicate: u64,
    /// Prefetches dropped because no prefetch-eligible MSHR was available.
    pub pf_dropped_mshr: u64,
    /// Prefetches dropped because the bounded prefetch queue was full
    /// (0 unless [`SystemConfig::prefetch_queue_depth`] bounds the queue).
    ///
    /// [`SystemConfig::prefetch_queue_depth`]: crate::SystemConfig
    pub pf_dropped_queue: u64,
    /// Prefetches actually sent to the next level.
    pub pf_issued: u64,
    /// Prefetched fills that were demanded before eviction (counted once per
    /// prefetched line, on first demand touch after the fill completed).
    pub pf_useful: u64,
    /// Prefetched fills demanded while still in flight (late but useful).
    pub pf_late: u64,
    /// Prefetched lines evicted without ever being demanded.
    pub pf_useless: u64,
}

counters!(CacheStats {
    demand_accesses,
    demand_hits,
    demand_hits_pending,
    demand_misses,
    demand_mshr_stalls,
    evictions,
    writebacks,
    pf_requested,
    pf_dropped_duplicate,
    pf_dropped_mshr,
    pf_issued,
    pf_useful,
    pf_late,
    pf_useless,
    // Last, not at its struct position: the checkpoint array gained it
    // after the others.
    pf_dropped_queue,
});

impl CacheStats {
    /// Demand misses per kilo-instruction, given the retired instruction
    /// count of the whole chip.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            return 0.0;
        }
        self.demand_misses as f64 * 1000.0 / instructions as f64
    }

    /// Fraction of issued-and-completed prefetches that were useful
    /// (the paper's *accuracy*). Late prefetches count as useful.
    pub fn accuracy(&self) -> f64 {
        let used = self.pf_useful + self.pf_late;
        let judged = used + self.pf_useless;
        if judged == 0 {
            0.0
        } else {
            used as f64 / judged as f64
        }
    }

    /// Hit ratio over demand accesses (ready hits only).
    pub fn hit_ratio(&self) -> f64 {
        if self.demand_accesses == 0 {
            0.0
        } else {
            self.demand_hits as f64 / self.demand_accesses as f64
        }
    }
}

/// Counters for one core.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles the core was simulated for (until it reached its instruction
    /// target).
    pub cycles: u64,
    /// Loads dispatched.
    pub loads: u64,
    /// Stores dispatched.
    pub stores: u64,
    /// Cycles dispatch was blocked because a load could not get an L1 MSHR.
    pub dispatch_stall_cycles: u64,
    /// Cycles dispatch was blocked waiting for a dependent load's producer.
    pub dependency_stall_cycles: u64,
}

counters!(CoreStats {
    instructions,
    cycles,
    loads,
    stores,
    dispatch_stall_cycles,
    dependency_stall_cycles,
});

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// Accounting of a trace-ingestion pass: how many records a streaming
/// loader delivered to the simulator.
///
/// Produced by trace readers (see the `bingo-trace` crate) through
/// [`crate::InstrSource::ingest_report`]; [`System::try_run`] sums the
/// per-core reports into [`SimResult::ingest`], so it is visible in every
/// checkpoint. The reader fails on the first corrupt byte instead of
/// skipping it, so the three quarantine counters are always 0; they stay
/// only because `bingo-benchmark`'s digest hashes them. A run whose
/// sources are all synthetic generators carries `None` — the field then
/// serializes to nothing and historical checkpoint files stay valid.
///
/// [`System::try_run`]: crate::System::try_run
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Records successfully decoded and handed to the core.
    pub delivered_records: u64,
    /// Records declared by the trace but lost to corruption (skipped
    /// chunks, undecodable payload bytes, truncated tails).
    pub quarantined_records: u64,
    /// Raw bytes discarded while scanning for the next valid chunk.
    pub quarantined_bytes: u64,
    /// Chunks abandoned because their framing or checksum was invalid.
    pub skipped_chunks: u64,
}

counters!(IngestReport {
    delivered_records,
    quarantined_records,
    quarantined_bytes,
    skipped_chunks,
});

impl IngestReport {
    /// Whether no input was quarantined — always, since the reader fails
    /// on corrupt input instead.
    pub fn is_clean(&self) -> bool {
        self.quarantined_records == 0 && self.quarantined_bytes == 0 && self.skipped_chunks == 0
    }
}

impl fmt::Display for IngestReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} record(s) delivered, {} quarantined ({} byte(s) skipped, {} chunk(s) dropped)",
            self.delivered_records,
            self.quarantined_records,
            self.quarantined_bytes,
            self.skipped_chunks
        )
    }
}

/// One core's share of the chip's prefetch traffic and throttle activity
/// in a [`ThrottleMode::Percore`] run — the per-core attribution the QoS
/// model is built on.
///
/// [`ThrottleMode::Percore`]: crate::ThrottleMode::Percore
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CoreQos {
    /// Resolved demand accesses by this core (the progress proxy the
    /// starvation watchdog compares).
    pub demand_accesses: u64,
    /// Prefetches this core's prefetcher issued toward DRAM.
    pub pf_issued: u64,
    /// Issued prefetches later demanded (timely or late), credited to
    /// the issuing core.
    pub pf_used: u64,
    /// DRAM reads carrying this core's prefetches.
    pub prefetch_reads: u64,
    /// All DRAM reads attributed to this core (demand misses plus its
    /// prefetches).
    pub reads: u64,
    /// Per-core controller epochs completed.
    pub epochs: u64,
    /// Level degradations this core's controller applied (feedback and
    /// watchdog clamps combined).
    pub degrades: u64,
    /// Level upgrades this core's controller applied.
    pub upgrades: u64,
    /// The core's final [`ThrottleLevel`] as a ladder index (0 = full,
    /// 3 = stopped).
    ///
    /// [`ThrottleLevel`]: crate::ThrottleLevel
    pub final_level: u8,
}

counters!(CoreQos {
    demand_accesses,
    pf_issued,
    pf_used,
    prefetch_reads,
    reads,
    epochs,
    degrades,
    upgrades,
    final_level,
});

/// The per-core QoS accounting of a [`ThrottleMode::Percore`] run,
/// attached to [`SimResult::qos`]. Every other throttle mode carries
/// `None` — the field then serializes to nothing (like
/// [`SimResult::ingest`]) and historical checkpoint files stay valid.
///
/// [`ThrottleMode::Percore`]: crate::ThrottleMode::Percore
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QosReport {
    /// Per-core attribution and throttle activity, indexed by core id.
    pub cores: Vec<CoreQos>,
    /// Chip-level watchdog epochs completed.
    pub watchdog_epochs: u64,
    /// Watchdog epochs whose min/max progress ratio violated the SLO.
    pub watchdog_starved_epochs: u64,
    /// Forced degradations the watchdog applied to offender cores.
    pub watchdog_clamps: u64,
    /// Offenders spared by the never-all-stopped arbiter rule.
    pub watchdog_exempted: u64,
}

counters!(QosReport {
    watchdog_epochs,
    watchdog_starved_epochs,
    watchdog_clamps,
    watchdog_exempted,
} except { cores });

/// The complete outcome of one simulation run.
///
/// `PartialEq` compares every counter and debug string — used by the
/// bench crate's serial-vs-parallel determinism test to assert bit-for-bit
/// identical results.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimResult {
    /// Per-core statistics, indexed by core id.
    pub cores: Vec<CoreStats>,
    /// Aggregated L1 data cache statistics (summed over cores).
    pub l1d: CacheStats,
    /// Shared LLC statistics.
    pub llc: CacheStats,
    /// Total DRAM data transfers (demand fills + prefetch fills +
    /// writebacks), for bandwidth-pressure reporting.
    pub dram_transfers: u64,
    /// Cycle at which the last core finished.
    pub total_cycles: u64,
    /// Per-core prefetcher internal diagnostics
    /// ([`crate::prefetch::Prefetcher::debug_stats`]).
    pub prefetcher_debug: Vec<String>,
    /// Per-core structured prefetcher metrics
    /// ([`crate::prefetch::Prefetcher::metrics`]).
    pub prefetcher_metrics: Vec<Vec<(&'static str, f64)>>,
    /// Prefetch-lifecycle breakdown (per-source attribution and fill
    /// latency); `None` unless the run enabled telemetry.
    pub telemetry: Option<TelemetryReport>,
    /// Trace-ingestion accounting summed over every instruction source;
    /// `None` when no source replays a trace (synthetic generators).
    pub ingest: Option<IngestReport>,
    /// Per-core QoS attribution and watchdog activity; `None` unless the
    /// run used [`ThrottleMode::Percore`](crate::ThrottleMode::Percore).
    pub qos: Option<QosReport>,
}

impl SimResult {
    /// Sums a named prefetcher metric over all cores; `None` if no core
    /// reported it.
    pub fn metric_sum(&self, name: &str) -> Option<f64> {
        let mut found = false;
        let mut sum = 0.0;
        for core in &self.prefetcher_metrics {
            for (n, v) in core {
                if *n == name {
                    found = true;
                    sum += v;
                }
            }
        }
        found.then_some(sum)
    }
}

impl SimResult {
    /// Total instructions retired across cores.
    pub fn instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Chip-wide IPC: total instructions / cycles until the last core
    /// finished.
    pub fn aggregate_ipc(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.instructions() as f64 / self.total_cycles as f64
        }
    }

    /// LLC demand misses per kilo-instruction — the metric of Table II.
    pub fn llc_mpki(&self) -> f64 {
        self.llc.mpki(self.instructions())
    }

    /// Per-core IPC, indexed by core id.
    pub fn core_ipcs(&self) -> Vec<f64> {
        self.cores.iter().map(CoreStats::ipc).collect()
    }

    /// Ratio of the slowest core's IPC to the fastest core's IPC — the raw
    /// (workload-blind) fairness signal of a multi-core run. 1.0 means
    /// perfectly balanced progress; values near 0 mean one core is starved.
    /// Returns 1.0 for empty or all-idle runs so the metric is always a
    /// valid ratio.
    pub fn min_max_ipc_ratio(&self) -> f64 {
        let ipcs = self.core_ipcs();
        let max = ipcs.iter().cloned().fold(0.0_f64, f64::max);
        if max == 0.0 {
            return 1.0;
        }
        let min = ipcs.iter().cloned().fold(f64::INFINITY, f64::min);
        min / max
    }

    /// Geometric mean of per-core IPC speedups versus a baseline run of the
    /// same workload (the paper's "performance improvement" metric).
    ///
    /// # Panics
    ///
    /// Panics if the two results have different core counts.
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        assert_eq!(
            self.cores.len(),
            baseline.cores.len(),
            "speedup requires identical core counts"
        );
        let mut log_sum = 0.0;
        for (a, b) in self.cores.iter().zip(&baseline.cores) {
            let s = a.ipc() / b.ipc();
            log_sum += s.ln();
        }
        (log_sum / self.cores.len() as f64).exp()
    }
}

impl fmt::Display for SimResult {
    /// Multi-line human-readable run summary (IPC, MPKI, prefetch
    /// effectiveness) — handy in examples and ad-hoc tools.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "instructions {:>12}   cycles {:>12}   aggregate IPC {:.3}",
            self.instructions(),
            self.total_cycles,
            self.aggregate_ipc()
        )?;
        for (i, c) in self.cores.iter().enumerate() {
            writeln!(
                f,
                "  core{i}: IPC {:.3} ({} loads, {} stores)",
                c.ipc(),
                c.loads,
                c.stores
            )?;
        }
        writeln!(
            f,
            "LLC: {} accesses, {} misses (MPKI {:.2}), hit ratio {:.1}%",
            self.llc.demand_accesses,
            self.llc.demand_misses,
            self.llc_mpki(),
            self.llc.hit_ratio() * 100.0
        )?;
        if self.llc.pf_issued > 0 {
            writeln!(
                f,
                "prefetch: {} issued, {} useful, {} late, {} useless (accuracy {:.1}%)",
                self.llc.pf_issued,
                self.llc.pf_useful,
                self.llc.pf_late,
                self.llc.pf_useless,
                self.llc.accuracy() * 100.0
            )?;
        }
        write!(f, "DRAM transfers: {}", self.dram_transfers)
    }
}

/// Miss coverage and overprediction of a prefetching run relative to a
/// baseline (no-prefetcher) run of the same workload, using the paper's
/// definitions (Section VI-B).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct CoverageReport {
    /// Fraction of baseline misses eliminated: `(M0 - M) / M0`, clamped at 0.
    pub coverage: f64,
    /// Useless prefetches normalized to baseline misses: `useless / M0`.
    pub overprediction: f64,
    /// Prefetch accuracy (useful / completed).
    pub accuracy: f64,
    /// Fraction of *used* prefetches that completed before their demand
    /// arrived: `useful / (useful + late)`. 0 when nothing was used.
    pub timeliness: f64,
    /// Baseline demand misses `M0`.
    pub baseline_misses: u64,
    /// Demand misses with the prefetcher active.
    pub misses_with_prefetch: u64,
}

impl CoverageReport {
    /// Computes the report from a prefetching run and its no-prefetcher
    /// baseline.
    pub fn from_runs(with_pf: &SimResult, baseline: &SimResult) -> Self {
        let m0 = baseline.llc.demand_misses;
        let m = with_pf.llc.demand_misses;
        let coverage = if m0 == 0 {
            0.0
        } else {
            ((m0 as f64 - m as f64) / m0 as f64).max(0.0)
        };
        let overprediction = if m0 == 0 {
            0.0
        } else {
            with_pf.llc.pf_useless as f64 / m0 as f64
        };
        let used = with_pf.llc.pf_useful + with_pf.llc.pf_late;
        let timeliness = if used == 0 {
            0.0
        } else {
            with_pf.llc.pf_useful as f64 / used as f64
        };
        CoverageReport {
            coverage,
            overprediction,
            accuracy: with_pf.llc.accuracy(),
            timeliness,
            baseline_misses: m0,
            misses_with_prefetch: m,
        }
    }
}

impl fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "coverage {:5.1}%  overpred {:5.1}%  accuracy {:5.1}%  timely {:5.1}%",
            self.coverage * 100.0,
            self.overprediction * 100.0,
            self.accuracy * 100.0,
            self.timeliness * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(misses: u64, useful: u64, useless: u64) -> SimResult {
        SimResult {
            cores: vec![CoreStats {
                instructions: 1000,
                cycles: 2000,
                ..Default::default()
            }],
            llc: CacheStats {
                demand_misses: misses,
                pf_useful: useful,
                pf_useless: useless,
                ..Default::default()
            },
            total_cycles: 2000,
            ..Default::default()
        }
    }

    #[test]
    fn walk_add_sums_every_counter_and_keeps_the_rest() {
        let one: Vec<u64> = (1..=15).collect();
        let mut sum = CacheStats::from_values(&one).expect("15 cache counters");
        sum.add(&CacheStats::from_values(&one).expect("15 cache counters"));
        let doubled: Vec<u64> = one.iter().map(|v| 2 * v).collect();
        assert_eq!(sum.values(), doubled);
        let mut qos = QosReport {
            cores: vec![CoreQos::default()],
            watchdog_clamps: 1,
            ..QosReport::default()
        };
        qos.add(&QosReport {
            watchdog_clamps: 2,
            ..QosReport::default()
        });
        assert_eq!((qos.cores.len(), qos.watchdog_clamps), (1, 3));
    }

    #[test]
    fn mpki_definition() {
        let s = CacheStats {
            demand_misses: 50,
            ..Default::default()
        };
        assert_eq!(s.mpki(10_000), 5.0);
        assert_eq!(s.mpki(0), 0.0);
    }

    #[test]
    fn accuracy_counts_late_as_useful() {
        let s = CacheStats {
            pf_useful: 6,
            pf_late: 2,
            pf_useless: 2,
            ..Default::default()
        };
        assert!((s.accuracy() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn accuracy_zero_when_no_prefetches() {
        assert_eq!(CacheStats::default().accuracy(), 0.0);
    }

    #[test]
    fn min_max_ipc_ratio_bounds() {
        let mut r = SimResult::default();
        // No cores at all: degenerate but still a valid ratio.
        assert_eq!(r.min_max_ipc_ratio(), 1.0);
        r.cores = vec![
            CoreStats {
                instructions: 1000,
                cycles: 1000,
                ..Default::default()
            },
            CoreStats {
                instructions: 500,
                cycles: 2000,
                ..Default::default()
            },
        ];
        // IPCs 1.0 and 0.25.
        assert!((r.min_max_ipc_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(r.core_ipcs(), vec![1.0, 0.25]);
        // All-idle run (zero cycles everywhere).
        r.cores.iter_mut().for_each(|c| c.cycles = 0);
        assert_eq!(r.min_max_ipc_ratio(), 1.0);
    }

    #[test]
    fn coverage_report_basic() {
        let base = run_with(100, 0, 0);
        let pf = run_with(40, 60, 25);
        let r = CoverageReport::from_runs(&pf, &base);
        assert!((r.coverage - 0.6).abs() < 1e-12);
        assert!((r.overprediction - 0.25).abs() < 1e-12);
        assert_eq!(r.baseline_misses, 100);
        assert_eq!(r.misses_with_prefetch, 40);
    }

    #[test]
    fn coverage_clamped_at_zero_when_prefetcher_pollutes() {
        let base = run_with(100, 0, 0);
        let pf = run_with(120, 0, 80);
        let r = CoverageReport::from_runs(&pf, &base);
        assert_eq!(r.coverage, 0.0);
        assert!((r.overprediction - 0.8).abs() < 1e-12);
    }

    #[test]
    fn timeliness_is_timely_fraction_of_used() {
        let base = run_with(100, 0, 0);
        let mut pf = run_with(40, 6, 25);
        pf.llc.pf_late = 2;
        let r = CoverageReport::from_runs(&pf, &base);
        assert!((r.timeliness - 0.75).abs() < 1e-12);
        // No used prefetches at all: timeliness defined as 0.
        let idle = CoverageReport::from_runs(&run_with(100, 0, 0), &base);
        assert_eq!(idle.timeliness, 0.0);
    }

    #[test]
    fn coverage_zero_baseline_misses() {
        let base = run_with(0, 0, 0);
        let pf = run_with(0, 0, 5);
        let r = CoverageReport::from_runs(&pf, &base);
        assert_eq!(r.coverage, 0.0);
        assert_eq!(r.overprediction, 0.0);
    }

    #[test]
    fn ipc_and_speedup() {
        let mut base = run_with(0, 0, 0);
        base.cores[0].cycles = 4000;
        let fast = run_with(0, 0, 0);
        assert!((fast.cores[0].ipc() - 0.5).abs() < 1e-12);
        assert!((fast.speedup_over(&base) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_ipc_sums_cores() {
        let mut r = run_with(0, 0, 0);
        r.cores.push(CoreStats {
            instructions: 3000,
            cycles: 2000,
            ..Default::default()
        });
        r.total_cycles = 2000;
        assert!((r.aggregate_ipc() - 2.0).abs() < 1e-12);
    }
}
