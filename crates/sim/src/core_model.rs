//! A simplified 4-wide out-of-order core model.
//!
//! The model captures the first-order behavior that determines how much a
//! data prefetcher helps (Fig. 8): a width-limited front end, a finite
//! reorder buffer whose head blocks retirement on outstanding long-latency
//! loads, a load/store queue bounding outstanding stores, and explicit
//! load→load dependencies that serialize pointer-chasing access chains.
//!
//! Instructions are supplied by an [`InstrSource`] — an infinite,
//! deterministic generator (see the `bingo-workloads` crate).
//!
//! The core holds the op run at the head of its stream as a count: it
//! asks the source for the run's length once ([`InstrSource::peek_ops`]),
//! dispatches and op-cranks from that count, and takes the dispatched ops
//! out of the source in one [`InstrSource::take_ops`] just before its
//! next [`InstrSource::next_instr`] and when it finishes. So a run costs
//! two source calls however many cycles it spans, and the source hands
//! out exactly the instructions a `next_instr`-only fetch would.
//!
//! Only loads carry a completion cycle in the reorder buffer. An op or a
//! store dispatched at cycle `c` completes at `c + 1`, and every cycle
//! retires before it dispatches, so such an entry is always ready by the
//! time it reaches the head: the buffer keeps it as a count, not a
//! timestamp. It is a ring of loads, each carrying the count of ready
//! entries dispatched just before it, plus the count of ready entries
//! after the last load. Dispatch, retirement, the stalled core's paced
//! catch-up and the op crank therefore cost per load and per run of ready
//! entries, not per instruction.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::addr::{Addr, BlockAddr, CoreId, Pc};
use crate::config::CoreConfig;
use crate::memory::{IssueResult, MemorySystem};
use crate::stats::CoreStats;

/// One dynamic instruction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Instr {
    /// A non-memory instruction (1-cycle execute).
    Op,
    /// A load.
    Load {
        /// Program counter of the load.
        pc: Pc,
        /// Effective byte address.
        addr: Addr,
        /// Dependency chain. `Some(c)` means the load consumes the value
        /// of the most recent preceding load on chain `c` (pointer
        /// chasing / serialized object walks) and cannot issue until that
        /// load completes; it then becomes the new tail of chain `c`.
        /// `None` is a fully independent load.
        dep: Option<u8>,
    },
    /// A store (write-allocate; retires without waiting for memory).
    Store {
        /// Program counter of the store.
        pc: Pc,
        /// Effective byte address.
        addr: Addr,
    },
}

/// An infinite stream of dynamic instructions for one core.
pub trait InstrSource {
    /// Produces the next instruction. Sources never end; the simulator
    /// stops after a configured retired-instruction count.
    fn next_instr(&mut self) -> Instr;

    /// Trace-ingestion accounting, for sources that replay recorded
    /// traces: how many records were delivered so far. Synthetic
    /// generators keep the default `None`; [`crate::System::try_run`]
    /// sums the `Some` reports into [`crate::SimResult::ingest`].
    fn ingest_report(&self) -> Option<crate::stats::IngestReport> {
        None
    }

    /// Consumes up to `max` consecutive leading [`Instr::Op`]s in one
    /// call, returning how many were taken. Must be equivalent to calling
    /// [`InstrSource::next_instr`] that many times and observing only
    /// ops; consumption stops early at the first non-op. The default
    /// takes nothing, which is right for a source whose
    /// [`InstrSource::peek_ops`] reports nothing.
    ///
    /// [`OooCore`] calls it once per peeked run, just before its next
    /// `next_instr` and when it finishes, with exactly the ops it
    /// dispatched from the run: never more than the last `peek_ops`
    /// reported, so it must take all `max`.
    fn take_ops(&mut self, max: usize) -> usize {
        let _ = max;
        0
    }

    /// Number of consecutive ops at the head of the stream, without
    /// consuming them. May generate buffered instructions (hence `&mut`),
    /// but must not change the observable stream. It may report fewer ops
    /// than the run holds (a trace reader stops at its chunk's end); the
    /// conservative default (0) makes the core fetch every instruction
    /// through `next_instr`.
    ///
    /// [`OooCore`] calls it once per run, the first time it needs the
    /// head after a `next_instr`, and dispatches and op-cranks from the
    /// count it returns; then it takes the dispatched ops with
    /// [`InstrSource::take_ops`].
    fn peek_ops(&mut self) -> usize {
        0
    }
}

impl<F: FnMut() -> Instr> InstrSource for F {
    fn next_instr(&mut self) -> Instr {
        self()
    }
}

/// A load in the reorder buffer.
#[derive(Copy, Clone, Debug)]
struct RobLoad {
    /// Ready entries (ops and stores) dispatched after the previous load
    /// and before this one.
    ready_before: usize,
    /// Cycle the load's data arrives.
    done_at: u64,
}

/// The reorder buffer, in program order: a power-of-two ring of loads plus
/// the ready entries between them, kept as counts (see the module docs).
#[derive(Debug)]
struct Rob {
    /// The loads' fields as two rings rather than one ring of `RobLoad`s:
    /// a zeroed slice is allocated without being written, so setting up a
    /// core touches none of its pages.
    done_at: Box<[u64]>,
    ready_before: Box<[usize]>,
    head: usize,
    load_count: usize,
    mask: usize,
    /// Ready entries dispatched after the last load.
    tail_ready: usize,
    /// All entries: loads plus ready entries.
    len: usize,
    capacity: usize,
    retire_width: usize,
}

impl Rob {
    fn new(capacity: usize, retire_width: usize) -> Self {
        let ring = capacity.next_power_of_two();
        Rob {
            done_at: vec![0; ring].into_boxed_slice(),
            ready_before: vec![0; ring].into_boxed_slice(),
            head: 0,
            load_count: 0,
            mask: ring - 1,
            tail_ready: 0,
            len: 0,
            capacity,
            retire_width,
        }
    }

    fn room(&self) -> usize {
        self.capacity - self.len
    }

    fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// The loads, oldest first.
    fn loads(&self) -> impl Iterator<Item = RobLoad> + '_ {
        (0..self.load_count).map(|j| {
            let at = (self.head + j) & self.mask;
            RobLoad {
                ready_before: self.ready_before[at],
                done_at: self.done_at[at],
            }
        })
    }

    /// Appends `n` ops or stores dispatched this cycle.
    fn push_ready(&mut self, n: usize) {
        self.tail_ready += n;
        self.len += n;
        self.audit();
    }

    /// Appends a load whose data arrives at `done_at`.
    fn push_load(&mut self, done_at: u64) {
        let at = (self.head + self.load_count) & self.mask;
        self.ready_before[at] = self.tail_ready;
        self.done_at[at] = done_at;
        self.load_count += 1;
        self.tail_ready = 0;
        self.len += 1;
        self.audit();
    }

    /// Removes the `n` oldest entries, loads and ready entries alike, and
    /// returns `n`.
    fn take(&mut self, mut n: usize) -> usize {
        let taken = n;
        self.len -= n;
        while self.load_count > 0 {
            let load = &mut self.ready_before[self.head];
            if n <= *load {
                *load -= n;
                n = 0;
                break;
            }
            n -= *load + 1;
            self.head = (self.head + 1) & self.mask;
            self.load_count -= 1;
        }
        self.tail_ready -= n;
        self.audit();
        taken
    }

    /// Retires up to `max` entries at cycle `now`, in order, stopping at
    /// the first load whose data has not arrived. Returns how many.
    fn retire(&mut self, now: u64, max: usize) -> usize {
        let n = self.retirable(now, max);
        self.take(n)
    }

    fn retirable(&self, now: u64, max: usize) -> usize {
        let mut n = 0;
        for load in self.loads() {
            n += load.ready_before;
            if n >= max || load.done_at > now {
                return n.min(max);
            }
            n += 1;
        }
        (n + self.tail_ready).min(max)
    }

    /// The cycle the head entry completes, if it is a load still in flight
    /// at cycle `next`. A ready head or an empty buffer is never blocked.
    fn blocked_until(&self, next: u64) -> Option<u64> {
        match self.loads().next() {
            Some(load) if load.ready_before == 0 && load.done_at > next => Some(load.done_at),
            _ => None,
        }
    }

    /// Cycle at which draining the buffer from cycle `next` retires its
    /// `needed`-th entry, or `u64::MAX` when it holds fewer (decided
    /// without a walk — the common case).
    fn horizon(&self, next: u64, needed: u64) -> u64 {
        if needed == 0 || (self.len as u64) < needed {
            return u64::MAX;
        }
        let mut pace = Pace::new(next, self.retire_width);
        let mut left = needed;
        for load in self.loads() {
            let run = left.min(load.ready_before as u64);
            pace.run(run as usize, u64::MAX);
            left -= run;
            if left > 0 {
                pace.entry(load.done_at, u64::MAX);
                left -= 1;
            }
            if left == 0 {
                return pace.cycle;
            }
        }
        pace.run(left as usize, u64::MAX);
        pace.cycle
    }

    /// Retires what draining the buffer over cycles `[next, wake)` would,
    /// paced like [`Rob::horizon`]. Returns how many entries retired.
    fn retire_paced(&mut self, next: u64, wake: u64) -> usize {
        let n = self.paced(next, wake);
        self.take(n)
    }

    fn paced(&self, next: u64, wake: u64) -> usize {
        let mut pace = Pace::new(next, self.retire_width);
        let mut n = 0;
        for load in self.loads() {
            let run = pace.run(load.ready_before, wake);
            n += run;
            if run < load.ready_before || !pace.entry(load.done_at, wake) {
                return n;
            }
            n += 1;
        }
        n + pace.run(self.tail_ready, wake)
    }

    /// Steps cycles `[next, wake)` of a core whose stream is all ops: each
    /// cycle retires up to `retire_width` entries, then dispatches up to
    /// `width` ops into the room left. Returns `(retired, dispatched)`.
    ///
    /// While the buffer is full and dispatch keeps up with retirement,
    /// each cycle retires `rate` entries and refills them with ops, so the
    /// entry at position `p` from the head retires at cycle
    /// `start + p / rate`; that stretch is jumped in closed form, up to the
    /// cycle of the first load still in flight when it reaches
    /// retirement. A full buffer behind an in-flight load idles until the
    /// data arrives. Any other cycle is stepped alone.
    fn crank(&mut self, next: u64, wake: u64, width: usize) -> (usize, usize) {
        let rate = self.retire_width.min(self.capacity);
        let (mut retired, mut dispatched) = (0, 0);
        let mut cycle = next;
        while cycle < wake {
            if self.is_full() {
                if let Some(done_at) = self.blocked_until(cycle) {
                    cycle = done_at.min(wake);
                    continue;
                }
                if width >= rate {
                    let cycles = self.steady_cycles(cycle, wake - cycle, rate);
                    if cycles > 0 {
                        // Dispatch before retiring: a long jump retires
                        // ops it dispatched itself.
                        let n = cycles as usize * rate;
                        self.tail_ready += n;
                        self.len += n;
                        self.take(n);
                        retired += n;
                        dispatched += n;
                        cycle += cycles;
                        continue;
                    }
                }
            }
            retired += self.retire(cycle, self.retire_width);
            let room = width.min(self.room());
            self.push_ready(room);
            dispatched += room;
            cycle += 1;
        }
        (retired, dispatched)
    }

    /// How many of the `max` cycles from `start` a full buffer retires
    /// `rate` entries each: up to the retire cycle of the first load whose
    /// data has not arrived by then.
    fn steady_cycles(&self, start: u64, max: u64, rate: usize) -> u64 {
        let mut pos = 0;
        for load in self.loads() {
            pos += load.ready_before;
            let at = (pos / rate) as u64;
            if at >= max {
                break;
            }
            if load.done_at > start + at {
                return at;
            }
            pos += 1;
        }
        max
    }

    /// Under `--features audit`: the entry count is the loads plus every
    /// ready count, within capacity.
    fn audit(&self) {
        crate::audit_assert!(
            self.len
                == self.load_count
                    + self.tail_ready
                    + self.loads().map(|l| l.ready_before).sum::<usize>()
                && self.len <= self.capacity,
            "ROB invariant: {} entries for {} loads and {} trailing ready (capacity {})",
            self.len,
            self.load_count,
            self.tail_ready,
            self.capacity
        );
    }
}

/// In-order retirement pacing from a start cycle: at most `width` entries
/// per cycle, none before its completion cycle.
struct Pace {
    /// The cycle the last entry retired in (the start, before any).
    cycle: u64,
    /// Entries retired in `cycle`.
    used: u64,
    width: u64,
}

impl Pace {
    fn new(cycle: u64, width: usize) -> Self {
        Pace {
            cycle,
            used: 0,
            width: width as u64,
        }
    }

    /// Retires up to `run` ready entries, as many as retire before cycle
    /// `wake`, and returns how many. The `k`-th of them retires at
    /// `cycle + (used + k - 1) / width`.
    fn run(&mut self, run: usize, wake: u64) -> usize {
        let slots = if self.cycle < wake {
            (wake - self.cycle).saturating_mul(self.width) - self.used
        } else {
            0
        };
        let n = (run as u64).min(slots);
        if n > 0 {
            let last = self.used + n - 1;
            self.cycle += last / self.width;
            self.used = last % self.width + 1;
        }
        n as usize
    }

    /// Retires one entry completing at `done_at` if it retires before
    /// cycle `wake`, and returns whether it did.
    fn entry(&mut self, done_at: u64, wake: u64) -> bool {
        if self.used == self.width {
            self.cycle += 1;
            self.used = 0;
        }
        if done_at > self.cycle {
            self.cycle = done_at;
            self.used = 0;
        }
        if self.cycle >= wake {
            return false;
        }
        self.used += 1;
        true
    }
}

/// The out-of-order core.
#[derive(Debug)]
pub struct OooCore {
    id: CoreId,
    cfg: CoreConfig,
    rob: Rob,
    /// Instruction that failed to dispatch last cycle, retried first.
    stalled: Option<Instr>,
    /// Ops left at the head of the stream, from the source's last
    /// `peek_ops` less the ops dispatched since; `None` until the head is
    /// next needed.
    head_ops: Option<usize>,
    /// Ops dispatched from the peeked run that the source still holds.
    owed_ops: usize,
    /// Whether the current stall came from the LSQ-occupancy check rather
    /// than the memory system (only meaningful while `stalled` is a store).
    lsq_stall: bool,
    /// Completion cycles of outstanding stores (LSQ occupancy).
    store_queue: BinaryHeap<Reverse<u64>>,
    /// Completion cycle of the tail load of each dependency chain.
    chain_done: Box<[u64; 256]>,
    target: u64,
    warmup: u64,
    /// The retired-instruction count at which something happens next: the
    /// warmup boundary while warming, the retirement target after. Keeps
    /// the retire loop to a single comparison per instruction.
    boundary: u64,
    warmed: bool,
    cycle_offset: u64,
    done: bool,
    /// Statistics for this core (measurement window only).
    pub stats: CoreStats,
}

impl OooCore {
    /// Creates a core that will retire `target` instructions.
    pub fn new(id: CoreId, cfg: CoreConfig, target: u64) -> Self {
        OooCore {
            id,
            cfg,
            rob: Rob::new(cfg.rob_entries, cfg.retire_width),
            stalled: None,
            head_ops: None,
            owed_ops: 0,
            lsq_stall: false,
            store_queue: BinaryHeap::new(),
            chain_done: Box::new([0; 256]),
            target,
            warmup: 0,
            boundary: target,
            warmed: true,
            cycle_offset: 0,
            done: false,
            stats: CoreStats::default(),
        }
    }

    /// Adds a warmup window: the core retires `warmup` instructions (with
    /// all structures live) before its statistics start counting, modeling
    /// SimFlex-style warmed checkpoints.
    pub fn set_warmup(&mut self, warmup: u64) {
        self.warmup = warmup;
        self.warmed = warmup == 0;
        self.boundary = if self.warmed { self.target } else { warmup };
    }

    /// Whether the core has passed its warmup window.
    pub fn is_warmed(&self) -> bool {
        self.warmed
    }

    /// This core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Whether the core has retired its instruction target.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Simulates one cycle: retire, then dispatch. Returns `true` once the
    /// instruction target has been reached (the core then idles). Every
    /// call must pass the same `src`: the core holds the op run at its
    /// head across cycles (see the module docs).
    pub fn step(&mut self, now: u64, mem: &mut MemorySystem, src: &mut dyn InstrSource) -> bool {
        if self.done {
            return true;
        }
        self.stats.cycles = (now + 1).saturating_sub(self.cycle_offset);

        // Retire in order, in batches that end at the warmup/target
        // boundary: the statistics reset lands between the exact two
        // instructions, and the rest of the cycle's batch counts as
        // measured.
        let mut budget = self.cfg.retire_width;
        loop {
            let needed = self.boundary - self.stats.instructions;
            let n = self.rob.retire(now, needed.min(budget as u64) as usize);
            self.stats.instructions += n as u64;
            budget -= n;
            if (n as u64) < needed {
                break;
            }
            if self.warmed {
                self.done = true;
                self.settle_ops(src);
                return true;
            }
            self.warmed = true;
            self.cycle_offset = now;
            self.stats = CoreStats {
                cycles: 1,
                ..CoreStats::default()
            };
            self.boundary = self.target;
        }

        // Dispatch in order.
        let mut dispatched = 0;
        while dispatched < self.cfg.width && !self.rob.is_full() {
            let instr = match self.stalled.take() {
                Some(i) => i,
                None => {
                    // Batch path: ops of the peeked run dispatch without a
                    // source call. Ops never stall, so this is exactly `n`
                    // iterations of the general path below.
                    let run = self.head_ops(src);
                    if run > 0 {
                        let n = run.min(self.cfg.width - dispatched).min(self.rob.room());
                        self.rob.push_ready(n);
                        self.owe_ops(run, n);
                        dispatched += n;
                        continue;
                    }
                    self.settle_ops(src);
                    self.head_ops = None;
                    src.next_instr()
                }
            };
            match instr {
                Instr::Op => {
                    self.rob.push_ready(1);
                }
                Instr::Load { pc, addr, dep } => {
                    // A load whose producer (chain tail) has not completed
                    // does not block dispatch — like a real OoO core it
                    // waits in the window and issues the moment its operand
                    // arrives. Independent work behind it keeps flowing;
                    // back-pressure comes from the finite ROB.
                    let issue_at = match dep {
                        Some(chain) => {
                            let ready = self.chain_done[chain as usize];
                            if ready > now {
                                self.stats.dependency_stall_cycles += ready - now;
                            }
                            ready.max(now)
                        }
                        None => now,
                    };
                    match mem.load(self.id, pc, addr, issue_at) {
                        IssueResult::Done(t) => {
                            self.rob.push_load(t);
                            if let Some(chain) = dep {
                                self.chain_done[chain as usize] = t;
                            }
                            self.stats.loads += 1;
                        }
                        IssueResult::Stall => {
                            self.stats.dispatch_stall_cycles += 1;
                            self.stalled = Some(instr);
                            self.lsq_stall = false;
                            break;
                        }
                    }
                }
                Instr::Store { pc, addr } => {
                    while matches!(self.store_queue.peek(), Some(&Reverse(t)) if t <= now) {
                        self.store_queue.pop();
                    }
                    if self.store_queue.len() >= self.cfg.lsq_entries {
                        self.stats.dispatch_stall_cycles += 1;
                        self.stalled = Some(instr);
                        self.lsq_stall = true;
                        break;
                    }
                    match mem.store(self.id, pc, addr, now) {
                        IssueResult::Done(t) => {
                            self.store_queue.push(Reverse(t));
                            self.rob.push_ready(1);
                            self.stats.stores += 1;
                        }
                        IssueResult::Stall => {
                            self.stats.dispatch_stall_cycles += 1;
                            self.stalled = Some(instr);
                            self.lsq_stall = false;
                            break;
                        }
                    }
                }
            }
            dispatched += 1;
        }
        false
    }

    /// If the core is provably idle after cycle `now` — finished, blocked
    /// on a full ROB, or re-stalling on the same structural hazard every
    /// cycle — describes how long and what each idle cycle does, so the
    /// run loop can let it sleep. `None` means the core may do new work
    /// next cycle.
    pub(crate) fn quiescent_plan(&self, now: u64) -> Option<CorePlan> {
        if self.done {
            return Some(CorePlan {
                wake: u64::MAX,
                retry: None,
            });
        }
        match self.stalled {
            // A memory-stalled core keeps retiring, but retirement is pure
            // bookkeeping the window can replay (`apply_retirements`) — it
            // cannot clear the stall. Only a warmup/target boundary inside
            // the drained entries forces normal stepping, so the wake is
            // the boundary-crossing cycle, not the next retirement.
            Some(Instr::Load { addr, dep, .. }) => Some(CorePlan {
                wake: self.retire_horizon(now + 1),
                retry: Some(RetrySpec {
                    block: addr.block(),
                    dep_ready: dep.map_or(0, |c| self.chain_done[c as usize]),
                    mem: true,
                }),
            }),
            Some(Instr::Store { addr, .. }) => {
                let horizon = self.retire_horizon(now + 1);
                let (wake, mem) = if self.lsq_stall {
                    // The stall clears the cycle the oldest outstanding
                    // store completes and frees its LSQ slot.
                    let sq_wake = self.store_queue.peek().map_or(u64::MAX, |&Reverse(t)| t);
                    (horizon.min(sq_wake), false)
                } else {
                    (horizon, true)
                };
                Some(CorePlan {
                    wake,
                    retry: Some(RetrySpec {
                        block: addr.block(),
                        dep_ready: 0,
                        mem,
                    }),
                })
            }
            // Ops never stall; treat defensively as active.
            Some(Instr::Op) => None,
            // ROB-full without a stall, behind a load in flight: the load's
            // retirement reopens dispatch, so that cycle must be stepped. A
            // ready head retires next cycle, which is no sleep.
            None if self.rob.is_full() => self
                .rob
                .blocked_until(now + 1)
                .map(|wake| CorePlan { wake, retry: None }),
            None => None,
        }
    }

    /// Cycle at which draining the ROB from cycle `next` would cross the
    /// warmup/target boundary (`u64::MAX` when the buffered entries cannot
    /// reach it — the common case, decided without touching the ROB).
    /// Entries retire in order, at most `retire_width` per cycle, each no
    /// earlier than its completion cycle.
    fn retire_horizon(&self, next: u64) -> u64 {
        self.rob
            .horizon(next, self.boundary.saturating_sub(self.stats.instructions))
    }

    /// Replays the retirements a stalled core performs over the skipped
    /// window `[next, wake)`, with the same pacing as [`retire_horizon`].
    /// The caller capped `wake` at the horizon, so no warmup/target
    /// boundary is crossed here. Replaying `[a, b)` then `[b, c)` equals
    /// replaying `[a, c)`: each call restarts the pacing at its first
    /// cycle, exactly as [`step`](Self::step) does every cycle.
    ///
    /// [`retire_horizon`]: Self::retire_horizon
    pub(crate) fn apply_retirements(&mut self, next: u64, wake: u64) {
        self.stats.instructions += self.rob.retire_paced(next, wake) as u64;
        debug_assert!(
            self.stats.instructions < self.boundary,
            "window retirement crossed a boundary the horizon should have capped"
        );
    }

    /// Length of the op run heading the stream: the source is peeked the
    /// first time the head is needed after a `next_instr`, and the count
    /// shrinks as the run dispatches.
    fn head_ops(&mut self, src: &mut dyn InstrSource) -> usize {
        *self.head_ops.get_or_insert_with(|| src.peek_ops())
    }

    /// Records `n` ops dispatched from the peeked run of `run` ops.
    fn owe_ops(&mut self, run: usize, n: usize) {
        self.head_ops = Some(run - n);
        self.owed_ops += n;
    }

    /// Takes the ops dispatched from the peeked run out of the source, in
    /// one call.
    fn settle_ops(&mut self, src: &mut dyn InstrSource) {
        if self.owed_ops > 0 {
            let taken = src.take_ops(self.owed_ops);
            assert_eq!(taken, self.owed_ops, "op run shorter than peeked");
            self.owed_ops = 0;
        }
    }

    /// Op-cranks cycles `[next, next + k)` of a core whose stream head is a
    /// run of ops and returns `k`, the cycles it covered (0 when the run
    /// is too short to fill a cycle). Each cycle replays what [`step`]
    /// would do, minus the per-cycle source and memory round-trips:
    /// in-order retirement (at most `retire_width`, each entry no earlier
    /// than its completion cycle) and op dispatch (at most `width`,
    /// bounded by ROB space, completing next cycle), with a full ROB's
    /// steady stretches jumped in closed form (see `Rob::crank`). `k` is
    /// capped so the crank (a) never needs a non-op instruction (dispatch
    /// consumes at most `width` ops per cycle) and (b) never crosses the
    /// warmup/target boundary (retirement adds at most `retire_width`
    /// instructions per cycle). Valid only for an unstalled, unfinished
    /// core; the dispatched ops join the peeked run's debt to the source.
    ///
    /// [`step`]: Self::step
    pub(crate) fn crank_op_run(&mut self, next: u64, src: &mut dyn InstrSource) -> u64 {
        debug_assert!(self.stalled.is_none() && !self.done);
        let run = self.head_ops(src);
        let needed = self.boundary - self.stats.instructions;
        let k = ((run / self.cfg.width) as u64).min((needed - 1) / self.cfg.retire_width as u64);
        if k > 0 {
            let (retired, dispatched) = self.rob.crank(next, next + k, self.cfg.width);
            self.stats.instructions += retired as u64;
            debug_assert!(
                self.stats.instructions < self.boundary,
                "op crank crossed a boundary its cycle cap should have kept"
            );
            self.owe_ops(run, dispatched);
        }
        k
    }

    /// Replays the core-side effects of `k` skipped stall cycles starting
    /// at cycle `a`: each was one dispatch stall, and a dependent stalled
    /// load re-accumulates its remaining operand wait every retry.
    pub(crate) fn apply_stall_cycles(&mut self, a: u64, k: u64) {
        self.stats.dispatch_stall_cycles += k;
        if let Some(Instr::Load {
            dep: Some(chain), ..
        }) = self.stalled
        {
            let ready = self.chain_done[chain as usize];
            if ready > a {
                // Retry at cycle t adds `ready - t` while t < ready:
                // a triangular sum over the first `m` skipped cycles.
                let m = k.min(ready - a);
                self.stats.dependency_stall_cycles += m * (ready - a) - m * (m - 1) / 2;
            }
        }
    }
}

/// One cycle's worth of deterministic retry effects for a stalled core
/// (see [`OooCore::quiescent_plan`]).
#[derive(Copy, Clone, Debug)]
pub(crate) struct RetrySpec {
    /// The block the stalled access targets.
    pub block: BlockAddr,
    /// Completion cycle of the load's dependency chain tail (0 when
    /// independent): retries access memory at `max(cycle, dep_ready)`.
    pub dep_ready: u64,
    /// Whether each retry reaches the memory system (an MSHR stall) or
    /// dies at the LSQ-occupancy check (store-queue back-pressure).
    pub mem: bool,
}

/// A quiescent core's schedule: when it next does something new, and what
/// each skipped cycle would have done in the meantime.
#[derive(Copy, Clone, Debug)]
pub(crate) struct CorePlan {
    /// Earliest future cycle at which this core's state can change
    /// (`u64::MAX` when only a memory-system event can wake it).
    pub wake: u64,
    /// Per-cycle retry to replay across the skipped window, if stalled.
    pub retry: Option<RetrySpec>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::prefetch::NoPrefetcher;
    use bingo_rng::rngs::SmallRng;
    use bingo_rng::{Rng, SeedableRng};
    use std::collections::VecDeque;

    fn mem() -> MemorySystem {
        MemorySystem::new(SystemConfig::tiny(), vec![Box::new(NoPrefetcher)])
    }

    fn run(core: &mut OooCore, mem: &mut MemorySystem, src: &mut dyn InstrSource, max: u64) -> u64 {
        for now in 0..max {
            mem.tick(now);
            if core.step(now, mem, src) {
                return now;
            }
        }
        panic!("core did not finish within {max} cycles");
    }

    #[test]
    fn pure_ops_reach_full_width_ipc() {
        let mut m = mem();
        let mut core = OooCore::new(CoreId(0), SystemConfig::tiny().core, 4000);
        let mut src = || Instr::Op;
        run(&mut core, &mut m, &mut src, 100_000);
        let ipc = core.stats.ipc();
        assert!(ipc > 3.5, "op-only IPC {ipc} should approach width 4");
    }

    #[test]
    fn l1_hit_loads_barely_slow_the_core() {
        let mut m = mem();
        // Warm one block, then loop loads to it.
        let mut core = OooCore::new(CoreId(0), SystemConfig::tiny().core, 4000);
        let mut i = 0u64;
        let mut src = move || {
            i += 1;
            if i.is_multiple_of(4) {
                Instr::Load {
                    pc: Pc::new(0x400),
                    addr: Addr::new(0x100),
                    dep: None,
                }
            } else {
                Instr::Op
            }
        };
        run(&mut core, &mut m, &mut src, 100_000);
        let ipc = core.stats.ipc();
        assert!(ipc > 2.0, "L1-resident IPC {ipc} should stay high");
    }

    #[test]
    fn dependent_chase_is_memory_latency_bound() {
        let mut m = mem();
        let mut core = OooCore::new(CoreId(0), SystemConfig::tiny().core, 512);
        // Every instruction is a dependent load to a new block: a pointer
        // chase with ~260-cycle misses, so IPC must be tiny.
        let mut next = 0u64;
        let mut src = move || {
            next += 1;
            Instr::Load {
                pc: Pc::new(0x400),
                addr: Addr::new(next * 64 * 512), // unique L1/LLC sets, all misses
                dep: Some(0),
            }
        };
        run(&mut core, &mut m, &mut src, 10_000_000);
        let ipc = core.stats.ipc();
        assert!(ipc < 0.02, "chase IPC {ipc} should be latency bound");
        assert!(core.stats.dependency_stall_cycles > 0);
    }

    #[test]
    fn independent_misses_overlap() {
        // Same miss stream but independent loads: MLP makes it much faster.
        let mk_src = |dep: Option<u8>| {
            let mut next = 0u64;
            move || {
                next += 1;
                Instr::Load {
                    pc: Pc::new(0x400),
                    addr: Addr::new((next * 64 + next / 64) * 64 * 512),
                    dep,
                }
            }
        };
        let mut m1 = mem();
        let mut c1 = OooCore::new(CoreId(0), SystemConfig::tiny().core, 512);
        let mut s1 = mk_src(Some(7));
        let t_dep = run(&mut c1, &mut m1, &mut s1, 10_000_000);

        let mut m2 = mem();
        let mut c2 = OooCore::new(CoreId(0), SystemConfig::tiny().core, 512);
        let mut s2 = mk_src(None);
        let t_indep = run(&mut c2, &mut m2, &mut s2, 10_000_000);

        assert!(
            t_indep * 3 < t_dep,
            "independent misses ({t_indep} cyc) should overlap far better than dependent ({t_dep} cyc)"
        );
    }

    #[test]
    fn stores_do_not_block_retirement() {
        let mut m = mem();
        let mut core = OooCore::new(CoreId(0), SystemConfig::tiny().core, 1000);
        let mut next = 0u64;
        let mut src = move || {
            next += 1;
            if next.is_multiple_of(8) {
                Instr::Store {
                    pc: Pc::new(0x500),
                    addr: Addr::new(next * 64 * 512),
                }
            } else {
                Instr::Op
            }
        };
        run(&mut core, &mut m, &mut src, 1_000_000);
        // Store misses are ~260 cycles; with 8 L1 MSHRs the sustainable rate
        // is ~8 stores / 260 cycles, i.e. ~0.25 IPC at 1 store per 8
        // instructions. A policy where stores blocked the ROB head would
        // serialize to one store per ~260 cycles (~0.03 IPC).
        let ipc = core.stats.ipc();
        assert!(
            ipc > 0.15,
            "store-heavy IPC {ipc} should not fully serialize"
        );
        assert_eq!(core.stats.stores, 1000 / 8);
    }

    #[test]
    fn rob_limits_outstanding_work() {
        // A core with a tiny ROB on an all-miss load stream can have at most
        // rob_entries loads in flight.
        let mut cfg = SystemConfig::tiny();
        cfg.core.rob_entries = 4;
        let mut m = MemorySystem::new(cfg, vec![Box::new(NoPrefetcher)]);
        let mut core = OooCore::new(CoreId(0), cfg.core, 64);
        let mut next = 0u64;
        let mut src = move || {
            next += 1;
            Instr::Load {
                pc: Pc::new(0x400),
                addr: Addr::new(next * 64 * 512),
                dep: None,
            }
        };
        run(&mut core, &mut m, &mut src, 10_000_000);
        // With ROB=4 and ~260-cycle misses, 64 loads need >= 16 miss rounds.
        assert!(core.stats.cycles > 16 * 200);
    }

    #[test]
    fn closure_sources_satisfy_the_trait() {
        fn takes_source(_s: &mut dyn InstrSource) {}
        let mut s = || Instr::Op;
        takes_source(&mut s);
    }

    #[test]
    fn dependent_load_does_not_block_independent_work() {
        // One serialized chase chain interleaved with pure ops: the ops
        // must flow at full width while the chain crawls — the OoO
        // operand-ready scheduling property.
        let mut m = mem();
        let mut core = OooCore::new(CoreId(0), SystemConfig::tiny().core, 20_000);
        let mut n = 0u64;
        let mut src = move || {
            n += 1;
            if n.is_multiple_of(100) {
                Instr::Load {
                    pc: Pc::new(0x400),
                    addr: Addr::new((n / 100) * 64 * 512),
                    dep: Some(3),
                }
            } else {
                Instr::Op
            }
        };
        run(&mut core, &mut m, &mut src, 10_000_000);
        // 200 chained ~260-cycle misses would serialize to ~52K cycles,
        // but 99% of instructions are ops; with operand-ready issue the
        // run finishes near op-throughput (20K/4 = 5K cycles ... bounded
        // by the last chain link), far below full serialization.
        let ipc = core.stats.ipc();
        assert!(
            ipc > 0.35,
            "independent ops must overlap the chain (IPC {ipc})"
        );
    }

    #[test]
    fn distinct_chains_progress_independently() {
        // Two chains over disjoint blocks: each serializes internally, but
        // they overlap each other, halving the run time versus one chain.
        let run_chains = |nchains: u64| {
            let mut m = mem();
            let mut core = OooCore::new(CoreId(0), SystemConfig::tiny().core, 256);
            let mut n = 0u64;
            let mut src = move || {
                n += 1;
                Instr::Load {
                    pc: Pc::new(0x400),
                    addr: Addr::new((n * 997) % (1 << 18) * 64 * 8),
                    dep: Some((n % nchains) as u8),
                }
            };
            run(&mut core, &mut m, &mut src, 10_000_000)
        };
        let one = run_chains(1);
        let four = run_chains(4);
        assert!(
            four * 2 < one,
            "4 chains ({four} cyc) must overlap far better than 1 ({one} cyc)"
        );
    }

    /// An endless run of ops, delivered in batches like a workload source.
    struct OpRun;

    impl InstrSource for OpRun {
        fn next_instr(&mut self) -> Instr {
            Instr::Op
        }

        fn take_ops(&mut self, max: usize) -> usize {
            max
        }

        fn peek_ops(&mut self) -> usize {
            usize::MAX
        }
    }

    /// The warmup boundary can fall inside one cycle's retire batch: the
    /// statistics reset lands between the exact two instructions, and the
    /// rest of that cycle's batch counts as measured.
    #[test]
    fn warmup_boundary_inside_a_retire_batch() {
        let cfg = SystemConfig::tiny().core;
        assert_eq!((cfg.width, cfg.retire_width), (4, 4));
        let mut ops = || Instr::Op;
        let sources: [&mut dyn InstrSource; 2] = [&mut ops, &mut OpRun];
        for src in sources {
            let mut m = mem();
            let mut core = OooCore::new(CoreId(0), cfg, 10);
            core.set_warmup(6);
            // Cycle 0 dispatches four ops; cycle 1 retires them and
            // dispatches four more.
            assert!(!core.step(0, &mut m, src));
            assert!(!core.step(1, &mut m, src));
            assert!(!core.is_warmed());
            assert_eq!(core.stats.instructions, 4);
            // Cycle 2 retires four: the 5th and 6th end the warmup, the
            // 7th and 8th are the first measured instructions.
            assert!(!core.step(2, &mut m, src));
            assert!(core.is_warmed());
            assert_eq!(core.stats.instructions, 2);
            assert_eq!(core.stats.cycles, 1);
            // Cycles 3 and 4 retire eight more: the target is the last
            // instruction of cycle 4's batch.
            assert!(!core.step(3, &mut m, src));
            assert_eq!(core.stats.instructions, 6);
            assert!(core.step(4, &mut m, src));
            assert_eq!(core.stats.instructions, 10);
            assert_eq!(core.stats.cycles, 3);
        }
    }

    /// The reference ROB: every entry's completion cycle in a ring, walked
    /// one instruction at a time. Each method is the per-instruction loop
    /// that its `Rob` counterpart replaces with per-load work.
    struct RingRob {
        rob: VecDeque<u64>,
        retire_width: usize,
    }

    impl RingRob {
        fn new(retire_width: usize) -> Self {
            RingRob {
                rob: VecDeque::new(),
                retire_width,
            }
        }

        fn push(&mut self, done_at: u64) {
            self.rob.push_back(done_at);
        }

        /// `step`'s retire loop.
        fn retire(&mut self, now: u64, max: usize) -> usize {
            let mut n = 0;
            while n < max && self.rob.front().is_some_and(|&t| t <= now) {
                self.rob.pop_front();
                n += 1;
            }
            n
        }

        /// `quiescent_plan`'s ROB-full wake, as `schedule` filtered it.
        fn blocked_until(&self, next: u64) -> Option<u64> {
            self.rob.front().copied().filter(|&t| t > next)
        }

        /// `retire_horizon`.
        fn horizon(&self, next: u64, needed: u64) -> u64 {
            if (self.rob.len() as u64) < needed {
                return u64::MAX;
            }
            let mut cycle = next;
            let mut used = 0;
            for (j, &ready) in self.rob.iter().enumerate() {
                if used == self.retire_width {
                    cycle += 1;
                    used = 0;
                }
                if ready > cycle {
                    cycle = ready;
                    used = 0;
                }
                used += 1;
                if (j as u64) + 1 == needed {
                    return cycle;
                }
            }
            u64::MAX
        }

        /// `apply_retirements`.
        fn retire_paced(&mut self, next: u64, wake: u64) -> usize {
            let mut cycle = next;
            let mut used = 0;
            let mut n = 0;
            while let Some(&ready) = self.rob.front() {
                if used == self.retire_width {
                    cycle += 1;
                    used = 0;
                }
                if ready > cycle {
                    cycle = ready;
                    used = 0;
                }
                if cycle >= wake {
                    break;
                }
                self.rob.pop_front();
                n += 1;
                used += 1;
            }
            n
        }

        /// `crank_op_run`.
        fn crank(&mut self, next: u64, wake: u64, width: usize, capacity: usize) -> (usize, usize) {
            let (mut retired, mut dispatched) = (0, 0);
            for cycle in next..wake {
                retired += self.retire(cycle, self.retire_width);
                let room = width.min(capacity - self.rob.len());
                for _ in 0..room {
                    self.push(cycle + 1);
                }
                dispatched += room;
            }
            (retired, dispatched)
        }
    }

    /// Drives the ROB and the ring reference through the same random
    /// cycles — boundary-capped retires followed by op runs and loads,
    /// paced catch-ups, horizons, cranks — and compares every answer and
    /// the length after each step.
    fn check_rob(capacity: usize, width: usize, steps: usize, rng: &mut SmallRng) {
        const RETIRE_WIDTH: usize = 4;
        let mut rob = Rob::new(capacity, RETIRE_WIDTH);
        let mut reference = RingRob::new(RETIRE_WIDTH);
        // The last cycle stepped: every entry was dispatched by then.
        let mut now = 0u64;
        for step in 0..steps {
            let at = format!("capacity {capacity}, width {width}, step {step}");
            let next = now + 1;
            match rng.gen_range(0..8u32) {
                0..=3 => {
                    now = next;
                    let max = rng.gen_range(0..=RETIRE_WIDTH);
                    assert_eq!(rob.retire(now, max), reference.retire(now, max), "{at}");
                    let mut budget = rng.gen_range(0..=width);
                    while budget > 0 && rob.room() > 0 {
                        if rng.gen_bool(0.3) {
                            let latency = if rng.gen_bool(0.5) {
                                rng.gen_range(1..8u64)
                            } else {
                                rng.gen_range(8..600u64)
                            };
                            rob.push_load(now + latency);
                            reference.push(now + latency);
                            budget -= 1;
                        } else {
                            let n = rng.gen_range(1..=budget.min(rob.room()));
                            rob.push_ready(n);
                            for _ in 0..n {
                                reference.push(now + 1);
                            }
                            budget -= n;
                        }
                    }
                }
                4 => {
                    let wake = next + rng.gen_range(0..300u64);
                    assert_eq!(
                        rob.retire_paced(next, wake),
                        reference.retire_paced(next, wake),
                        "{at}"
                    );
                    now = wake.max(next) - 1;
                }
                5 => {
                    let needed = rng.gen_range(1..=capacity as u64 + 8);
                    assert_eq!(
                        rob.horizon(next, needed),
                        reference.horizon(next, needed),
                        "{at}, needed {needed}"
                    );
                }
                6 => {
                    let wake = next + rng.gen_range(0..400u64);
                    assert_eq!(
                        rob.crank(next, wake, width),
                        reference.crank(next, wake, width, capacity),
                        "{at}"
                    );
                    now = wake.max(next) - 1;
                }
                _ => {
                    assert_eq!(
                        rob.blocked_until(next),
                        reference.blocked_until(next),
                        "{at}"
                    );
                }
            }
            assert_eq!(rob.len, reference.rob.len(), "{at}");
        }
    }

    #[test]
    fn rob_matches_ring_reference_on_random_streams() {
        let mut rng = SmallRng::seed_from_u64(0x0b0b_5eed);
        for capacity in [4, 64, 256] {
            // Dispatch narrower than, as wide as, and wider than retirement.
            for width in [2, 4, 6] {
                check_rob(capacity, width, 4000, &mut rng);
            }
        }
    }

    #[test]
    fn warmup_resets_core_statistics() {
        let mut m = mem();
        let mut core = OooCore::new(CoreId(0), SystemConfig::tiny().core, 1000);
        core.set_warmup(500);
        assert!(!core.is_warmed());
        let mut src = || Instr::Op;
        run(&mut core, &mut m, &mut src, 100_000);
        assert!(core.is_warmed());
        // Only the 1000 measured instructions are counted, at a cycle
        // count consistent with width-4 execution of ops.
        assert_eq!(core.stats.instructions, 1000);
        assert!(core.stats.cycles < 600, "cycles {}", core.stats.cycles);
    }
}
