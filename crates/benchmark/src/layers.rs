//! The traced run's instruments: wrappers that record a sampled span
//! around every call into the instruction-source and prefetcher layers,
//! and the memory layer measured alone by replaying demand accesses
//! through a bare [`MemorySystem`].

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use bingo_sim::{
    AccessInfo, BlockAddr, CoreId, IngestReport, Instr, InstrSource, IssueResult, MemorySystem,
    NoPrefetcher, PrefetchSource, Prefetcher, SystemConfig, ThrottleLevel,
};

/// One call in this many is timed, picked by the call counter.
const SAMPLE_EVERY: u64 = 16;

/// Call counts and sampled time at one layer boundary.
///
/// A timed call reads the clock three times: before the call, after it,
/// and once more. The last interval is a span around no work, measured in
/// the same state of the host's caches and pipeline as the call; it is
/// subtracted from the call's interval, so what the clock costs inside a
/// span calibrates itself.
#[derive(Debug, Default)]
pub(crate) struct Span {
    calls: Cell<u64>,
    sampled: Cell<u64>,
    /// Sum over timed calls of the call's interval minus the empty one.
    inside_ns: Cell<i64>,
    /// Sum over timed calls of the empty interval.
    empty_ns: Cell<u64>,
    candidates: Cell<u64>,
    accesses: Cell<u64>,
}

impl Span {
    fn record<R>(&self, call: impl FnOnce() -> R) -> R {
        let n = self.calls.get();
        self.calls.set(n + 1);
        if !n.is_multiple_of(SAMPLE_EVERY) {
            return call();
        }
        let start = Instant::now();
        let out = call();
        let called = Instant::now();
        let empty = called.elapsed().as_nanos() as i64;
        let inside = (called - start).as_nanos() as i64;
        self.sampled.set(self.sampled.get() + 1);
        self.inside_ns.set(self.inside_ns.get() + inside - empty);
        self.empty_ns.set(self.empty_ns.get() + empty as u64);
        out
    }

    /// Calls made through this boundary.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Estimated host seconds spent inside the layer: the timed calls'
    /// time, scaled to every call.
    pub fn self_s(&self) -> f64 {
        let inside = self.inside_ns.get().max(0) as f64;
        ratio(inside * self.calls.get() as f64, self.sampled.get() as f64) / 1e9
    }

    /// Estimated host seconds the timing itself added to the caller: three
    /// clock reads per timed call, each costing about one empty interval.
    pub fn overhead_s(&self) -> f64 {
        3.0 * self.empty_ns.get() as f64 / 1e9
    }

    /// Prefetch candidates emitted (prefetcher spans only).
    pub fn candidates(&self) -> u64 {
        self.candidates.get()
    }

    /// `on_access` calls (prefetcher spans only).
    pub fn accesses(&self) -> u64 {
        self.accesses.get()
    }

    /// Prefetch candidates per `on_access` call (prefetcher spans only).
    pub fn candidates_per_access(&self) -> f64 {
        ratio(self.candidates.get() as f64, self.accesses.get() as f64)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// An [`InstrSource`] that forwards every method to `inner`, recording
/// each instruction-producing call in `span`.
pub(crate) struct TracedSource {
    inner: Box<dyn InstrSource>,
    span: Rc<Span>,
}

impl TracedSource {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn InstrSource>, span: Rc<Span>) -> Self {
        TracedSource { inner, span }
    }
}

impl InstrSource for TracedSource {
    fn next_instr(&mut self) -> Instr {
        self.span.record(|| self.inner.next_instr())
    }

    fn ingest_report(&self) -> Option<IngestReport> {
        self.inner.ingest_report()
    }

    fn take_ops(&mut self, max: usize) -> usize {
        self.span.record(|| self.inner.take_ops(max))
    }

    fn peek_ops(&mut self) -> usize {
        self.span.record(|| self.inner.peek_ops())
    }
}

/// A [`Prefetcher`] that forwards every method to `inner`, recording the
/// per-access, per-fill and per-eviction calls in `span`.
pub(crate) struct TracedPrefetcher {
    inner: Box<dyn Prefetcher>,
    span: Rc<Span>,
}

impl TracedPrefetcher {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Prefetcher>, span: Rc<Span>) -> Self {
        TracedPrefetcher { inner, span }
    }
}

impl Prefetcher for TracedPrefetcher {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<BlockAddr>) {
        self.span.record(|| self.inner.on_access(info, out));
        let span = &self.span;
        span.accesses.set(span.accesses.get() + 1);
        span.candidates
            .set(span.candidates.get() + out.len() as u64);
    }

    fn on_eviction(&mut self, block: BlockAddr) {
        self.span.record(|| self.inner.on_eviction(block));
    }

    fn on_fill(&mut self, block: BlockAddr, prefetch: bool) {
        self.span.record(|| self.inner.on_fill(block, prefetch));
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }

    fn debug_stats(&self) -> String {
        self.inner.debug_stats()
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        self.inner.metrics()
    }

    fn set_throttle_level(&mut self, level: ThrottleLevel) {
        self.inner.set_throttle_level(level);
    }

    fn last_burst_source(&self) -> PrefetchSource {
        self.inner.last_burst_source()
    }
}

/// The memory layer alone: demand accesses replayed through a fresh
/// [`MemorySystem`] with no prefetcher.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct MemoryReplay {
    /// Accesses replayed.
    pub accesses: u64,
    /// Issue attempts refused with [`IssueResult::Stall`] and retried.
    pub stalls: u64,
    /// Simulated cycle at which the last access issued.
    pub cycles: u64,
    /// Host seconds of the replay loop.
    pub host_s: f64,
}

/// One demand access recorded from an instruction stream.
#[derive(Copy, Clone, Debug)]
struct Access {
    core: CoreId,
    instr: Instr,
}

/// Replays the first `count` demand loads and stores of `sources`, taken
/// round-robin one access per core, through a fresh `cfg` memory system.
/// Each access issues one cycle after the previous one and retries every
/// cycle while it stalls. The accesses are recorded before the clock
/// starts, so the time is the memory system's alone.
pub fn replay_memory(
    cfg: SystemConfig,
    mut sources: Vec<Box<dyn InstrSource>>,
    count: usize,
) -> MemoryReplay {
    let mut accesses = Vec::with_capacity(count);
    'fill: loop {
        for (core, source) in sources.iter_mut().enumerate() {
            if accesses.len() == count {
                break 'fill;
            }
            let instr = loop {
                match source.next_instr() {
                    Instr::Op => continue,
                    access => break access,
                }
            };
            accesses.push(Access {
                core: CoreId(core),
                instr,
            });
        }
    }
    let prefetchers = (0..cfg.cores)
        .map(|_| Box::new(NoPrefetcher) as Box<dyn Prefetcher>)
        .collect();
    let mut mem = MemorySystem::new(cfg, prefetchers);
    let mut now = 0u64;
    let mut stalls = 0u64;
    let start = Instant::now();
    for a in &accesses {
        loop {
            now += 1;
            mem.tick(now);
            let issued = match a.instr {
                Instr::Load { pc, addr, .. } => mem.load(a.core, pc, addr, now),
                Instr::Store { pc, addr } => mem.store(a.core, pc, addr, now),
                Instr::Op => unreachable!("only memory accesses are recorded"),
            };
            match issued {
                IssueResult::Done(_) => break,
                IssueResult::Stall => stalls += 1,
            }
        }
    }
    mem.drain();
    let host_s = start.elapsed().as_secs_f64();
    black_box(&mem);
    MemoryReplay {
        accesses: accesses.len() as u64,
        stalls,
        cycles: now,
        host_s,
    }
}
