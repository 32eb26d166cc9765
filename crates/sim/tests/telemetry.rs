//! Integration tests of the prefetch-lifecycle telemetry layer.
//!
//! Four guarantees are locked here:
//!
//! 1. **Telemetry is invisible.** The source a prefetch carries is only
//!    reported: a prefetcher wrapped to report every burst unattributed
//!    simulates bit-for-bit the same machine, without and with a warmup
//!    reset.
//! 2. **The ledger agrees with the cache.** The lifecycle classification
//!    (timely / late / unused / dropped), summed over prediction sources,
//!    must equal the LLC's own `pf_*` counters exactly, including across a
//!    warmup reset, because both are driven by the same events.
//! 3. **Each prefetch settles under its own source.** The LLC carries a
//!    prefetch's source from issue to settlement, whatever path it takes.
//! 4. **Each prefetch settles once.** An evicted or drained prefetch is
//!    settled for good: a later demand of its block is a plain access.
//!
//! The same invisibility check runs with Bingo at workload scale in
//! `bingo-bench`'s `runner::tests::telemetry_is_invisible_at_workload_scale`.

use bingo_sim::{
    AccessInfo, Addr, BlockAddr, CacheStats, CoreId, Counters, Instr, InstrSource, IssueResult,
    MemorySystem, NextLinePrefetcher, NoPrefetcher, Pc, PrefetchSource, Prefetcher, SimResult,
    SourceCounters, System, SystemConfig, TelemetryReport, ThrottleLevel,
};

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

fn run_streaming(warmup: u64) -> SimResult {
    let cfg = SystemConfig::tiny();
    System::new(
        cfg,
        vec![streaming_source(0)],
        vec![Box::new(NextLinePrefetcher::new(4))],
        30_000,
    )
    .with_warmup(warmup)
    .run()
}

/// The report's per-source counters summed.
fn totals(t: &TelemetryReport) -> SourceCounters {
    let mut sum = SourceCounters::default();
    for (_, c) in &t.by_source {
        sum.add(c);
    }
    sum
}

/// The LLC's counters in the ledger's terms: every drop reason together.
fn llc_view(llc: &CacheStats) -> SourceCounters {
    SourceCounters {
        issued: llc.pf_issued,
        timely: llc.pf_useful,
        late: llc.pf_late,
        unused: llc.pf_useless,
        dropped: llc.pf_dropped_duplicate + llc.pf_dropped_mshr + llc.pf_dropped_queue,
    }
}

/// Next-line prefetching that attributes each burst by its trigger
/// block's parity, so a run's prefetches settle under two sources.
struct Tagging {
    next_line: NextLinePrefetcher,
    last: PrefetchSource,
}

impl Prefetcher for Tagging {
    fn name(&self) -> &str {
        "tagging"
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<BlockAddr>) {
        self.next_line.on_access(info, out);
        self.last = if info.block.index().is_multiple_of(2) {
            PrefetchSource::LongEvent
        } else {
            PrefetchSource::ShortVote
        };
    }

    fn last_burst_source(&self) -> PrefetchSource {
        self.last
    }
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

/// Attribution cannot move the machine: the tagging prefetcher wrapped to
/// report every burst unattributed gives the plain run's `SimResult`
/// apart from the labels of its report, whose one `unattributed` row is
/// the sum of the plain run's per-source rows.
fn assert_attribution_is_invisible(warmup: u64) {
    let run = |prefetcher: Box<dyn Prefetcher>| {
        System::new(
            SystemConfig::tiny(),
            vec![streaming_source(0)],
            vec![prefetcher],
            30_000,
        )
        .with_warmup(warmup)
        .run()
    };
    let tagging = || {
        Box::new(Tagging {
            next_line: NextLinePrefetcher::new(4),
            last: PrefetchSource::Unattributed,
        })
    };
    let plain = run(tagging());
    let wrapped = run(Box::new(Unattributed(tagging())));
    let report = &plain.telemetry;
    assert!(
        plain.llc.pf_issued > 0,
        "warmup={warmup}: streaming must prefetch"
    );
    assert!(
        report.source("unattributed").is_none() && report.by_source.len() == 2,
        "warmup={warmup}: every burst settles under its parity's source: {report:?}"
    );
    let mut relabelled = plain.clone();
    relabelled.telemetry.by_source = vec![("unattributed".to_string(), totals(report))];
    assert_eq!(wrapped, relabelled, "warmup={warmup}");
}

#[test]
fn telemetry_on_is_invisible() {
    assert_attribution_is_invisible(0);
}

#[test]
fn telemetry_on_is_invisible_across_warmup_reset() {
    assert_attribution_is_invisible(5_000);
}

#[test]
fn ledger_agrees_with_cache_counters() {
    for warmup in [0, 5_000] {
        let r = run_streaming(warmup);
        assert_eq!(totals(&r.telemetry), llc_view(&r.llc), "warmup={warmup}");
        assert!(r.llc.pf_issued > 0, "streaming must prefetch");
    }
}

#[test]
fn unattributing_prefetcher_counts_as_unattributed() {
    let r = run_streaming(0);
    let t = &r.telemetry;
    // NextLine does not attribute events.
    assert_eq!(t.by_source.len(), 1);
    assert_eq!(t.by_source[0].0, "unattributed");
    assert_eq!(t.by_source[0].1.issued, r.llc.pf_issued);
}

const CORE: CoreId = CoreId(0);
const PC: Pc = Pc::new(0x400100);

fn tiny_mem() -> MemorySystem {
    MemorySystem::new(SystemConfig::tiny(), vec![Box::new(NoPrefetcher)])
}

fn demand(mem: &mut MemorySystem, addr: u64, now: u64) -> u64 {
    match mem.load(CORE, PC, Addr::new(addr), now) {
        IssueResult::Done(t) => t,
        IssueResult::Stall => panic!("unexpected stall at cycle {now}"),
    }
}

/// Ticks the memory system through `[from, to]` so scheduled fills land.
/// (Unlike `drain`, this is a mid-run settle: no end-of-run accounting.)
fn run_to(mem: &mut MemorySystem, from: u64, to: u64) {
    for t in from..=to {
        mem.tick(t);
    }
}

#[test]
fn duplicate_issue_while_in_flight_is_a_dropped_record() {
    let mut mem = tiny_mem();
    mem.issue_prefetch(BlockAddr::new(100), 0);
    mem.issue_prefetch(BlockAddr::new(100), 1); // still in flight
    mem.drain();
    let t = mem.telemetry_report();
    let sum = totals(&t);
    assert_eq!((sum.issued, sum.dropped), (1, 1));
    assert_eq!(mem.llc_stats().pf_dropped_duplicate, 1);
    assert_eq!(sum.unused, 1, "the one real prefetch was never demanded");
}

#[test]
fn prefetch_evicted_then_re_demanded_settles_once() {
    let mut mem = tiny_mem();
    // Prefetch a block and let it fill.
    let victim = 7u64; // block index
    mem.issue_prefetch(BlockAddr::new(victim), 0);
    run_to(&mut mem, 0, 400);
    // Evict it with demand pressure on its LLC set: tiny LLC is 8-way with
    // 512 sets, so blocks at stride 512 conflict.
    let mut now = 401;
    for i in 1..=9u64 {
        let done = demand(&mut mem, (victim + i * 512) * 64, now);
        run_to(&mut mem, now, done);
        now = done + 1;
    }
    let evicted = totals(&mem.telemetry_report());
    assert_eq!(evicted.unused, 1, "conflict pressure evicted the prefetch");
    // Re-demanding the same block is a plain miss: the prefetch is
    // already settled and must not settle again.
    let done = demand(&mut mem, victim * 64, now);
    run_to(&mut mem, now, done);
    mem.drain();
    let t = mem.telemetry_report();
    let sum = totals(&t);
    assert_eq!(sum.unused, 1, "no double count after re-demand");
    assert_eq!(sum.timely, 0, "a re-demanded evicted prefetch is not a hit");
    assert_eq!(sum, llc_view(mem.llc_stats()));
}

#[test]
fn timely_and_late_paths_settle_against_cache_counters() {
    let mut mem = tiny_mem();
    // Timely: prefetch, let the fill land, then demand.
    mem.issue_prefetch(BlockAddr::new(40), 0);
    run_to(&mut mem, 0, 400);
    let done = demand(&mut mem, 40 * 64, 401);
    // Late: prefetch, demand while still in flight.
    mem.issue_prefetch(BlockAddr::new(80), done + 1);
    demand(&mut mem, 80 * 64, done + 2);
    mem.drain();
    let t = mem.telemetry_report();
    let sum = totals(&t);
    assert_eq!((sum.timely, sum.late), (1, 1));
    assert_eq!(sum, llc_view(mem.llc_stats()));
    assert_eq!(t.fills, 1, "late prefetch settled before its fill landed");
    assert!(t.fill_latency_sum > 0);
}

#[test]
fn second_drain_settles_nothing() {
    let mut mem = tiny_mem();
    mem.issue_prefetch(BlockAddr::new(100), 0);
    let last = mem.drain();
    let (stats, report) = (mem.llc_stats().clone(), mem.telemetry_report());
    assert_eq!(stats.pf_useless, 1, "the resident unused prefetch settles");
    mem.drain();
    assert_eq!(mem.llc_stats(), &stats);
    assert_eq!(mem.telemetry_report(), report);
    // The drain settled the prefetch unused for good: a demand of its
    // block afterwards is a plain LLC hit, not a timely use.
    let done = demand(&mut mem, 100 * 64, last + 1);
    run_to(&mut mem, last + 1, done);
    assert_eq!(mem.llc_stats().pf_useful, 0);
    assert_eq!(mem.telemetry_report(), report);
}

/// On the demand of each trigger block, emits that trigger's burst and
/// reports its source.
struct Scripted {
    bursts: Vec<(u64, u64, PrefetchSource)>,
    last: PrefetchSource,
}

impl Prefetcher for Scripted {
    fn name(&self) -> &str {
        "scripted"
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<BlockAddr>) {
        let trigger = info.block.index();
        if let Some(&(_, target, source)) = self.bursts.iter().find(|b| b.0 == trigger) {
            out.push(BlockAddr::new(target));
            self.last = source;
        }
    }

    fn last_burst_source(&self) -> PrefetchSource {
        self.last
    }
}

/// Ticks from `from` until the next prefetch lands undemanded, returning
/// the landing cycle and the latency the report added for it.
fn land(mem: &mut MemorySystem, from: u64) -> (u64, u64) {
    let before = mem.telemetry_report();
    for now in from..from + 2_000 {
        mem.tick(now);
        let after = mem.telemetry_report();
        if after.fills > before.fills {
            assert_eq!(after.fills, before.fills + 1, "cycle {now}");
            return (now, after.fill_latency_sum - before.fill_latency_sum);
        }
    }
    panic!("no prefetch landed within 2000 cycles of {from}");
}

/// A timely use, a late merge, a conflict eviction and a drain each settle
/// under the source of the burst that issued them; a reset lies between
/// one prefetch's issue and its settlement, and the fill counts are
/// exactly the landings no demand asked for.
#[test]
fn settlements_land_under_their_burst_source() {
    let (pre, timely, late, evicted, resident) = (2000, 2001, 2002, 2003, 2004);
    let script = vec![
        (1000, pre, PrefetchSource::CascadeLevel(2)),
        (1001, resident, PrefetchSource::CascadeLevel(1)),
        (1002, timely, PrefetchSource::LongEvent),
        (1003, late, PrefetchSource::ShortVote),
        (1004, evicted, PrefetchSource::CascadeLevel(0)),
    ];
    let mut mem = MemorySystem::new(
        SystemConfig::tiny(),
        vec![Box::new(Scripted {
            bursts: script,
            last: PrefetchSource::Unattributed,
        })],
    );
    // A prefetch issues one L1 lookup after its trigger demand.
    let l1 = SystemConfig::tiny().l1d.latency;
    let mut now = 0;
    let trigger = |mem: &mut MemorySystem, block: u64, now: u64| {
        demand(mem, block * 64, now);
        now + l1
    };
    // Lands before the reset: pre-measurement, so the drain skips it.
    let issued = trigger(&mut mem, 1000, now);
    (now, _) = land(&mut mem, issued);
    // Issued before the reset, lands and settles after it.
    let issued = trigger(&mut mem, 1001, now + 1);
    mem.reset_stats();
    let (landed, latency) = land(&mut mem, now + 1);
    assert_eq!(latency, landed - issued);
    let mut latencies = latency;
    // Timely: lands, then a demand uses it.
    let issued = trigger(&mut mem, 1002, landed + 1);
    let (landed, latency) = land(&mut mem, landed + 1);
    assert_eq!(latency, landed - issued);
    latencies += latency;
    let done = demand(&mut mem, timely * 64, landed + 1);
    run_to(&mut mem, landed + 1, done);
    // Late: a demand merges with it in flight, so its landing is no fill.
    now = trigger(&mut mem, 1003, done + 1);
    let done = demand(&mut mem, late * 64, now);
    run_to(&mut mem, now, done + 1_000);
    now = done + 1_001;
    assert_eq!(mem.telemetry_report().fills, 2);
    // Evicted: lands, then demands to its LLC set (512 sets in the tiny
    // machine) push it out of all 8 ways.
    let issued = trigger(&mut mem, 1004, now);
    let (landed, latency) = land(&mut mem, now);
    assert_eq!(latency, landed - issued);
    latencies += latency;
    now = landed + 1;
    for i in 1..=8 {
        let done = demand(&mut mem, (evicted + i * 512) * 64, now);
        run_to(&mut mem, now, done);
        now = done + 1;
    }
    mem.drain();
    let counts = |issued, timely, late, unused| SourceCounters {
        issued,
        timely,
        late,
        unused,
        dropped: 0,
    };
    let expected = TelemetryReport {
        fills: 3,
        fill_latency_sum: latencies,
        by_source: vec![
            ("long".to_string(), counts(1, 1, 0, 0)),
            ("short".to_string(), counts(1, 0, 1, 0)),
            ("cascade0".to_string(), counts(1, 0, 0, 1)),
            ("cascade1".to_string(), counts(0, 0, 0, 1)),
        ],
    };
    let t = mem.telemetry_report();
    assert_eq!(t, expected);
    assert_eq!(totals(&t), llc_view(mem.llc_stats()));
}
