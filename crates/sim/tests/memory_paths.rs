//! Integration tests of the memory system's less-traveled paths:
//! writeback flows, warmup resets, bank fairness, and prefetch
//! interaction with capacity pressure.

use bingo_sim::{
    Addr, BlockAddr, CoreId, Instr, IssueResult, MemorySystem, NoPrefetcher, Pc, Prefetcher,
    System, SystemConfig,
};

const CORE: CoreId = CoreId(0);
const PC: Pc = Pc::new(0x400);

fn tiny_mem() -> MemorySystem {
    MemorySystem::new(SystemConfig::tiny(), vec![Box::new(NoPrefetcher)])
}

fn settle(mem: &mut MemorySystem, upto: u64) {
    for t in 0..=upto {
        mem.tick(t);
    }
}

#[test]
fn dirty_l1_eviction_marks_llc_dirty_then_llc_eviction_writes_back() {
    let mut mem = tiny_mem();
    // Store to a block (dirty in L1), then thrash its L1 set so it is
    // evicted to the LLC; later thrash the LLC set so the dirty line is
    // written back to DRAM.
    let dirty = Addr::new(0);
    let t = match mem.store(CORE, PC, dirty, 0) {
        IssueResult::Done(t) => t,
        IssueResult::Stall => panic!("store stalled"),
    };
    settle(&mut mem, t);
    // tiny L1: 32 sets, 4 ways -> conflict stride = 32 blocks.
    let mut now = t + 1;
    for i in 1..=6u64 {
        if let IssueResult::Done(done) = mem.load(CORE, PC, Addr::new(i * 32 * 64), now) {
            settle(&mut mem, done);
            now = done + 1;
        }
    }
    let writes_before = mem.dram_stats().writes;
    // tiny LLC: 512 sets, 8 ways -> conflict stride = 512 blocks. Fill the
    // set of block 0 with 9 more lines to force the dirty eviction.
    for i in 1..=9u64 {
        if let IssueResult::Done(done) = mem.load(CORE, PC, Addr::new(i * 512 * 64), now) {
            settle(&mut mem, done);
            now = done + 1;
        }
    }
    assert!(
        mem.dram_stats().writes > writes_before,
        "dirty LLC eviction must produce a DRAM writeback"
    );
}

#[test]
fn prefetcher_sees_evictions_from_fills() {
    #[derive(Debug, Default)]
    struct EvictionCounter {
        evictions: std::cell::Cell<u64>,
    }
    impl Prefetcher for EvictionCounter {
        fn name(&self) -> &str {
            "EvictionCounter"
        }
        fn on_access(&mut self, _: &bingo_sim::AccessInfo, _: &mut Vec<BlockAddr>) {}
        fn on_eviction(&mut self, _: BlockAddr) {
            self.evictions.set(self.evictions.get() + 1);
        }
        fn debug_stats(&self) -> String {
            self.evictions.get().to_string()
        }
    }

    let mut mem = MemorySystem::new(
        SystemConfig::tiny(),
        vec![Box::new(EvictionCounter::default())],
    );
    let mut now = 0;
    // 9 conflicting LLC lines (8-way set) -> at least one eviction.
    for i in 0..9u64 {
        if let IssueResult::Done(done) = mem.load(CORE, PC, Addr::new(i * 512 * 64), now) {
            for t in now..=done {
                mem.tick(t);
            }
            now = done + 1;
        }
    }
    let evictions: u64 = mem.prefetcher_debug()[0].parse().expect("counter");
    assert!(evictions >= 1, "prefetcher must observe LLC evictions");
}

#[test]
fn warmup_resets_statistics_but_keeps_contents() {
    // Run the same stream with and without a warmup split; the warmed
    // run's measured misses must be far fewer (contents survived) and its
    // instruction count must exclude warmup.
    let cfg = SystemConfig::tiny();
    let src = || {
        let mut n = 0u64;
        Box::new(move || {
            n += 1;
            if n.is_multiple_of(4) {
                Instr::Load {
                    pc: PC,
                    // 512 distinct blocks, revisited round-robin: cold
                    // misses only in the first pass.
                    addr: Addr::new((n / 4 % 512) * 64),
                    dep: None,
                }
            } else {
                Instr::Op
            }
        }) as Box<dyn bingo_sim::InstrSource>
    };
    let cold = System::new(cfg, vec![src()], vec![Box::new(NoPrefetcher)], 40_000).run();
    let warmed = System::new(cfg, vec![src()], vec![Box::new(NoPrefetcher)], 40_000)
        .with_warmup(40_000)
        .run();
    assert_eq!(warmed.cores[0].instructions, 40_000);
    assert!(
        warmed.llc.demand_misses * 10 < cold.llc.demand_misses.max(1) * 10
            && warmed.llc.demand_misses < cold.llc.demand_misses,
        "warmed run must not re-pay cold misses ({} vs {})",
        warmed.llc.demand_misses,
        cold.llc.demand_misses
    );
    assert!(warmed.total_cycles < cold.total_cycles);
}

#[test]
fn banked_llc_serializes_same_bank_not_cross_bank() {
    let mut mem = tiny_mem(); // tiny LLC: 2 banks
                              // Warm two blocks in different banks and two in the same bank.
    let mut now = 0;
    for b in [0u64, 1, 2] {
        if let IssueResult::Done(done) = mem.load(CORE, PC, Addr::new(b * 64), now) {
            settle(&mut mem, done);
            now = done + 1;
        }
    }
    // L1-bypass check isn't possible from outside; instead verify the two
    // same-bank LLC accesses from different L1 sets cost one extra cycle.
    // (Covered in unit tests of Cache::bank_start; here we just assert the
    // system stays consistent and hits after warming.)
    let t1 = match mem.load(CORE, PC, Addr::new(0), now) {
        IssueResult::Done(t) => t,
        IssueResult::Stall => panic!(),
    };
    assert_eq!(t1, now + 4, "L1 hit after warming");
}

#[test]
fn issue_prefetch_populates_llc_only() {
    let mut mem = tiny_mem();
    mem.issue_prefetch(BlockAddr::new(777), 0);
    // Tick up to the fill's ready cycle, the first at which the ledger
    // counts it landed; it was issued at cycle 0, so that cycle is its
    // latency.
    let ready = (0..)
        .find(|&now| {
            mem.tick(now);
            mem.telemetry_report().fills == 1
        })
        .expect("the prefetch lands");
    assert_eq!(mem.telemetry_report().fill_latency_sum, ready);
    // The block is an LLC hit but an L1 miss for a later demand.
    let t = match mem.load(CORE, PC, BlockAddr::new(777).base_addr(), ready + 1) {
        IssueResult::Done(t) => t,
        IssueResult::Stall => panic!(),
    };
    assert_eq!(t - (ready + 1), 4 + 15 + 1, "LLC hit, not an L1 hit");
    assert_eq!(mem.llc_stats().pf_useful, 1);
}

#[test]
fn multi_core_llc_is_shared() {
    let mut cfg = SystemConfig::tiny();
    cfg.cores = 2;
    let mut mem = MemorySystem::new(cfg, vec![Box::new(NoPrefetcher), Box::new(NoPrefetcher)]);
    // Core 0 fetches a block; core 1's access to the same block hits LLC.
    let addr = Addr::new(0x8000);
    let t = match mem.load(CoreId(0), PC, addr, 0) {
        IssueResult::Done(t) => t,
        IssueResult::Stall => panic!(),
    };
    settle(&mut mem, t);
    let misses_before = mem.llc_stats().demand_misses;
    match mem.load(CoreId(1), PC, addr, t + 1) {
        IssueResult::Done(_) => {}
        IssueResult::Stall => panic!(),
    }
    assert_eq!(
        mem.llc_stats().demand_misses,
        misses_before,
        "second core must hit the shared LLC"
    );
}
