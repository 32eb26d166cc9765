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
    /// (take nothing) keeps every existing source correct — callers fall
    /// back to `next_instr` when this returns 0.
    fn take_ops(&mut self, max: usize) -> usize {
        let _ = max;
        0
    }

    /// Number of consecutive ops at the head of the stream, without
    /// consuming them — the op-crank fast-forward's eligibility probe.
    /// May generate buffered instructions (hence `&mut`), but must not
    /// change the observable stream. The conservative default (0)
    /// disables cranking for sources that do not implement it.
    fn peek_ops(&mut self) -> usize {
        0
    }
}

impl<F: FnMut() -> Instr> InstrSource for F {
    fn next_instr(&mut self) -> Instr {
        self()
    }
}

/// The out-of-order core.
#[derive(Debug)]
pub struct OooCore {
    id: CoreId,
    cfg: CoreConfig,
    /// Completion cycles of in-flight instructions, in program order: a
    /// power-of-two ring buffer (head + length + mask), cheaper on the
    /// per-instruction push/pop pair than a `VecDeque`.
    rob: Box<[u64]>,
    rob_head: usize,
    rob_len: usize,
    rob_mask: usize,
    /// Instruction that failed to dispatch last cycle, retried first.
    stalled: Option<Instr>,
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
            rob: vec![0; cfg.rob_entries.next_power_of_two()].into_boxed_slice(),
            rob_head: 0,
            rob_len: 0,
            rob_mask: cfg.rob_entries.next_power_of_two() - 1,
            stalled: None,
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

    #[inline(always)]
    fn rob_push(&mut self, done_at: u64) {
        self.rob[(self.rob_head + self.rob_len) & self.rob_mask] = done_at;
        self.rob_len += 1;
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
    /// instruction target has been reached (the core then idles).
    pub fn step(&mut self, now: u64, mem: &mut MemorySystem, src: &mut dyn InstrSource) -> bool {
        if self.done {
            return true;
        }
        self.stats.cycles = (now + 1).saturating_sub(self.cycle_offset);

        // Retire in order.
        let mut retired = 0;
        while retired < self.cfg.retire_width {
            if self.rob_len == 0 || self.rob[self.rob_head] > now {
                break;
            }
            self.rob_head = (self.rob_head + 1) & self.rob_mask;
            self.rob_len -= 1;
            self.stats.instructions += 1;
            retired += 1;
            if self.stats.instructions >= self.boundary {
                if !self.warmed {
                    self.warmed = true;
                    self.cycle_offset = now;
                    self.stats = CoreStats {
                        cycles: 1,
                        ..CoreStats::default()
                    };
                    self.boundary = self.target;
                } else {
                    self.done = true;
                    return true;
                }
            }
        }

        // Dispatch in order.
        let mut dispatched = 0;
        while dispatched < self.cfg.width && self.rob_len < self.cfg.rob_entries {
            // Batch path: a leading run of ops dispatches without the
            // per-instruction source round-trip. Ops never stall, so this
            // is exactly `n` iterations of the general path below.
            if self.stalled.is_none() {
                let room = (self.cfg.width - dispatched).min(self.cfg.rob_entries - self.rob_len);
                let n = src.take_ops(room);
                if n > 0 {
                    for _ in 0..n {
                        self.rob_push(now + 1);
                    }
                    dispatched += n;
                    continue;
                }
            }
            let instr = match self.stalled.take() {
                Some(i) => i,
                None => src.next_instr(),
            };
            match instr {
                Instr::Op => {
                    self.rob_push(now + 1);
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
                            self.rob_push(t);
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
                            self.rob_push(now + 1);
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
            // ROB-full without a stall: the head's retirement reopens
            // dispatch, so that cycle must be stepped.
            None if self.rob_len == self.cfg.rob_entries => Some(CorePlan {
                wake: self.rob[self.rob_head],
                retry: None,
            }),
            None => None,
        }
    }

    /// Cycle at which draining the ROB from cycle `next` would cross the
    /// warmup/target boundary (`u64::MAX` when the buffered entries cannot
    /// reach it — the common case, decided without touching the ROB).
    /// Entries retire in order, at most `retire_width` per cycle, each no
    /// earlier than its completion cycle.
    fn retire_horizon(&self, next: u64) -> u64 {
        let needed = self.boundary.saturating_sub(self.stats.instructions);
        if (self.rob_len as u64) < needed {
            return u64::MAX;
        }
        let mut cycle = next;
        let mut used = 0;
        for j in 0..self.rob_len {
            if used == self.cfg.retire_width {
                cycle += 1;
                used = 0;
            }
            let ready = self.rob[(self.rob_head + j) & self.rob_mask];
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

    /// Replays the retirements a stalled core performs over the skipped
    /// window `[next, wake)`, with the same pacing as [`retire_horizon`].
    /// The caller capped `wake` at the horizon, so no warmup/target
    /// boundary is crossed here. Replaying `[a, b)` then `[b, c)` equals
    /// replaying `[a, c)`: each call restarts the pacing at its first
    /// cycle, exactly as [`step`](Self::step) does every cycle.
    ///
    /// [`retire_horizon`]: Self::retire_horizon
    pub(crate) fn apply_retirements(&mut self, next: u64, wake: u64) {
        let mut cycle = next;
        let mut used = 0;
        while self.rob_len > 0 {
            if used == self.cfg.retire_width {
                cycle += 1;
                used = 0;
            }
            let ready = self.rob[self.rob_head];
            if ready > cycle {
                cycle = ready;
                used = 0;
            }
            if cycle >= wake {
                break;
            }
            self.rob_head = (self.rob_head + 1) & self.rob_mask;
            self.rob_len -= 1;
            self.stats.instructions += 1;
            used += 1;
        }
        debug_assert!(
            self.stats.instructions < self.boundary,
            "window retirement crossed a boundary the horizon should have capped"
        );
    }

    /// How many consecutive cycles starting next cycle this core could be
    /// "op-cranked" — stepped by the tight retire/dispatch replay of
    /// [`apply_op_crank`] instead of the full cycle machinery. Valid only
    /// for an unstalled, unfinished core. `ops_avail` is the length of
    /// the op run heading its instruction stream; the cap guarantees the
    /// crank (a) never needs a non-op instruction (dispatch consumes at
    /// most `width` ops per cycle) and (b) never crosses the
    /// warmup/target boundary (retirement adds at most `retire_width`
    /// instructions per cycle).
    ///
    /// [`apply_op_crank`]: Self::apply_op_crank
    pub(crate) fn op_crank_cycles(&self, ops_avail: usize) -> u64 {
        debug_assert!(self.stalled.is_none() && !self.done);
        let k_ops = (ops_avail / self.cfg.width) as u64;
        let needed = self.boundary - self.stats.instructions;
        let k_boundary = (needed - 1) / self.cfg.retire_width as u64;
        k_ops.min(k_boundary)
    }

    /// Replays cycles `[next, wake)` for a core whose stream head is a run
    /// of ops: in-order retirement (at most `retire_width` per cycle, each
    /// entry no earlier than its completion cycle) and op dispatch (at
    /// most `width` per cycle, bounded by ROB space, completing next
    /// cycle) — exactly what [`step`] would do, minus the per-cycle
    /// source/memory round-trips. Returns how many ops were dispatched;
    /// the caller must consume that many from the source. The caller
    /// capped `wake` via [`op_crank_cycles`], so the ops are available and
    /// no warmup/target boundary is crossed.
    ///
    /// [`step`]: Self::step
    /// [`op_crank_cycles`]: Self::op_crank_cycles
    pub(crate) fn apply_op_crank(&mut self, next: u64, wake: u64) -> usize {
        let mut consumed = 0;
        for cycle in next..wake {
            let mut retired = 0;
            while retired < self.cfg.retire_width
                && self.rob_len > 0
                && self.rob[self.rob_head] <= cycle
            {
                self.rob_head = (self.rob_head + 1) & self.rob_mask;
                self.rob_len -= 1;
                self.stats.instructions += 1;
                retired += 1;
            }
            let room = self.cfg.width.min(self.cfg.rob_entries - self.rob_len);
            for _ in 0..room {
                self.rob_push(cycle + 1);
            }
            consumed += room;
        }
        debug_assert!(
            self.stats.instructions < self.boundary,
            "op crank crossed a boundary op_crank_cycles should have capped"
        );
        consumed
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
