//! Integration tests of the prefetch-lifecycle telemetry layer.
//!
//! Three guarantees are locked here:
//!
//! 1. **Telemetry is invisible.** Enabling it must not change the simulated
//!    machine: miss streams, cycle counts, and every other statistic are
//!    bit-for-bit identical between a telemetry-off and a telemetry-on run.
//! 2. **The ledger agrees with the cache.** The lifecycle classification
//!    (timely / late / unused / dropped), summed over prediction sources,
//!    must equal the LLC's own `pf_*` counters exactly, including across a
//!    warmup reset, because both are driven by the same events.
//! 3. **Each prefetch settles under its own source.** The LLC carries a
//!    prefetch's source from issue to settlement, whatever path it takes.

use bingo_sim::{
    AccessInfo, Addr, BlockAddr, CacheStats, CoreId, Counters, Instr, InstrSource, IssueResult,
    MemorySystem, NextLinePrefetcher, NoPrefetcher, Pc, PrefetchSource, Prefetcher, SimResult,
    SourceCounters, System, SystemConfig, TelemetryLevel, TelemetryReport,
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

fn run_streaming(level: TelemetryLevel, warmup: u64) -> SimResult {
    let cfg = SystemConfig::tiny();
    System::new(
        cfg,
        vec![streaming_source(0)],
        vec![Box::new(NextLinePrefetcher::new(4))],
        30_000,
    )
    .with_warmup(warmup)
    .with_telemetry(level)
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

/// Strips the telemetry report so two runs can be compared on the
/// simulated machine's behavior alone.
fn machine_view(mut r: SimResult) -> SimResult {
    r.telemetry = None;
    r
}

#[test]
fn telemetry_on_is_invisible() {
    let off = run_streaming(TelemetryLevel::Off, 0);
    let counts = run_streaming(TelemetryLevel::Counts, 0);
    assert!(off.telemetry.is_none());
    assert!(counts.telemetry.is_some());
    // Identical IPC, miss counts, and every other counter.
    assert_eq!(off, machine_view(counts), "counts level changed the run");
}

#[test]
fn telemetry_on_is_invisible_across_warmup_reset() {
    let off = run_streaming(TelemetryLevel::Off, 5_000);
    let on = run_streaming(TelemetryLevel::Counts, 5_000);
    assert_eq!(off, machine_view(on));
}

#[test]
fn ledger_agrees_with_cache_counters() {
    for warmup in [0, 5_000] {
        let r = run_streaming(TelemetryLevel::Counts, warmup);
        let t = r.telemetry.as_ref().expect("telemetry enabled");
        assert_eq!(totals(t), llc_view(&r.llc), "warmup={warmup}");
        assert!(r.llc.pf_issued > 0, "streaming must prefetch");
    }
}

#[test]
fn unattributing_prefetcher_counts_as_unattributed() {
    let r = run_streaming(TelemetryLevel::Counts, 0);
    let t = r.telemetry.as_ref().unwrap();
    // NextLine does not attribute events.
    assert_eq!(t.by_source.len(), 1);
    assert_eq!(t.by_source[0].0, "unattributed");
    assert_eq!(t.by_source[0].1.issued, r.llc.pf_issued);
}

const CORE: CoreId = CoreId(0);
const PC: Pc = Pc::new(0x400100);

fn mem_with_telemetry() -> MemorySystem {
    let mut mem = MemorySystem::new(SystemConfig::tiny(), vec![Box::new(NoPrefetcher)]);
    mem.set_telemetry(TelemetryLevel::Counts);
    mem
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
    let mut mem = mem_with_telemetry();
    mem.issue_prefetch(BlockAddr::new(100), 0);
    mem.issue_prefetch(BlockAddr::new(100), 1); // still in flight
    mem.drain();
    let t = mem.telemetry_report().unwrap();
    let sum = totals(&t);
    assert_eq!((sum.issued, sum.dropped), (1, 1));
    assert_eq!(mem.llc_stats().pf_dropped_duplicate, 1);
    assert_eq!(sum.unused, 1, "the one real prefetch was never demanded");
}

#[test]
fn prefetch_evicted_then_re_demanded_settles_once() {
    let mut mem = mem_with_telemetry();
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
    let evicted = totals(&mem.telemetry_report().unwrap());
    assert_eq!(evicted.unused, 1, "conflict pressure evicted the prefetch");
    // Re-demanding the same block is a plain miss: the prefetch is
    // already settled and must not settle again.
    let done = demand(&mut mem, victim * 64, now);
    run_to(&mut mem, now, done);
    mem.drain();
    let t = mem.telemetry_report().unwrap();
    let sum = totals(&t);
    assert_eq!(sum.unused, 1, "no double count after re-demand");
    assert_eq!(sum.timely, 0, "a re-demanded evicted prefetch is not a hit");
    assert_eq!(sum, llc_view(mem.llc_stats()));
}

#[test]
fn timely_and_late_paths_settle_against_cache_counters() {
    let mut mem = mem_with_telemetry();
    // Timely: prefetch, let the fill land, then demand.
    mem.issue_prefetch(BlockAddr::new(40), 0);
    run_to(&mut mem, 0, 400);
    let done = demand(&mut mem, 40 * 64, 401);
    // Late: prefetch, demand while still in flight.
    mem.issue_prefetch(BlockAddr::new(80), done + 1);
    demand(&mut mem, 80 * 64, done + 2);
    mem.drain();
    let t = mem.telemetry_report().unwrap();
    let sum = totals(&t);
    assert_eq!((sum.timely, sum.late), (1, 1));
    assert_eq!(sum, llc_view(mem.llc_stats()));
    assert_eq!(t.fills, 1, "late prefetch settled before its fill landed");
    assert!(t.fill_latency_sum > 0);
}

#[test]
fn second_drain_settles_nothing() {
    let mut mem = mem_with_telemetry();
    mem.issue_prefetch(BlockAddr::new(100), 0);
    mem.drain();
    let (stats, report) = (mem.llc_stats().clone(), mem.telemetry_report());
    assert_eq!(stats.pf_useless, 1, "the resident unused prefetch settles");
    mem.drain();
    assert_eq!(mem.llc_stats(), &stats);
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
    let before = mem.telemetry_report().unwrap();
    for now in from..from + 2_000 {
        mem.tick(now);
        let after = mem.telemetry_report().unwrap();
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
    mem.set_telemetry(TelemetryLevel::Counts);
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
    assert_eq!(mem.telemetry_report().unwrap().fills, 2);
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
    let t = mem.telemetry_report().unwrap();
    assert_eq!(t, expected);
    assert_eq!(totals(&t), llc_view(mem.llc_stats()));
}
