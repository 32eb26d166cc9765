//! The memory system: private L1 data caches, a shared banked LLC, DRAM,
//! and one prefetcher per core attached at the LLC.
//!
//! Request flow for a load issued by a core at cycle `now`:
//!
//! 1. L1D lookup (latency `l1.latency`). Hit → done. In-flight → merge.
//! 2. L1D miss: needs an L1 MSHR (else the core must retry — this is the
//!    back-pressure that limits memory-level parallelism).
//! 3. LLC lookup at `now + l1.latency`. Hit → data at `+ llc.latency`.
//! 4. LLC miss: needs an LLC MSHR; request goes to DRAM; the fill lands at
//!    the cycle the DRAM model returns and is installed by the fill queue,
//!    a timing wheel.
//!
//! Prefetchers observe every successful LLC demand access and may emit
//! candidate blocks, which are deduplicated against resident/in-flight
//! blocks, rate-limited by prefetch-eligible MSHRs, and sent to DRAM. The
//! LLC's pending fill and line record the issuing core and the prediction
//! source, and hand both back when the prefetch settles: the optional
//! [`Throttle`] credits a use to that core, and the [`PrefetchLedger`]
//! tallies every settlement under that source.

use crate::addr::{Addr, BlockAddr, CoreId, Pc};
use crate::cache::{Cache, Lookup, PrefetchOrigin};
use crate::config::SystemConfig;
use crate::dram::Dram;
use crate::prefetch::{AccessInfo, Prefetcher};
use crate::stats::{CacheStats, Counters, QosReport};
use crate::telemetry::{PrefetchLedger, PrefetchSource, TelemetryLevel, TelemetryReport};
use crate::throttle::{Throttle, ThrottleLevel, ThrottleMode};
use crate::wheel::{Fill, FillWheel};

/// Result of issuing a memory operation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum IssueResult {
    /// The operation will complete at the contained cycle.
    Done(u64),
    /// A structural hazard (MSHR full) prevented issue; retry next cycle.
    Stall,
}

/// Which MSHR file a core's most recent [`IssueResult::Stall`] came from;
/// consulted by the run loop to decide whether a stalled core may sleep:
/// an L1-stalled retry touches only the core's private L1, an LLC-stalled
/// one reserves shared LLC banks.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum StallLevel {
    L1,
    Llc,
}

/// The full memory hierarchy shared by all cores.
pub struct MemorySystem {
    cfg: SystemConfig,
    l1s: Vec<Cache>,
    llc: Cache,
    dram: Dram,
    prefetchers: Vec<Box<dyn Prefetcher>>,
    fills: FillWheel,
    /// Ready cycles of each core's in-flight L1 fills, in no order: the
    /// core's L1-stall wake is their minimum, a scan of at most
    /// `l1d.mshrs` words. Each row is allocated at that size up front;
    /// rows grown on first use read `em3d-grid` about 1 % slower.
    l1_fills: Vec<Vec<u64>>,
    pf_buf: Vec<BlockAddr>,
    ledger: PrefetchLedger,
    /// `None` under [`ThrottleMode::Off`]: the hot path then pays a single
    /// branch per access, and behavior is bit-for-bit the unthrottled one.
    throttle: Option<Throttle>,
    /// Per-core level of the most recent demand stall. Fresh whenever a
    /// core is currently mem-stalled (it re-stalled this very cycle).
    stall_level: Vec<StallLevel>,
}

impl MemorySystem {
    /// Builds the hierarchy; `prefetchers` must contain exactly one
    /// prefetcher per core.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the prefetcher count does
    /// not match the core count.
    pub fn new(cfg: SystemConfig, prefetchers: Vec<Box<dyn Prefetcher>>) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid system configuration: {e}"));
        assert_eq!(
            prefetchers.len(),
            cfg.cores,
            "need exactly one prefetcher per core"
        );
        MemorySystem {
            l1s: (0..cfg.cores).map(|_| Cache::new(cfg.l1d)).collect(),
            llc: Cache::new(cfg.llc),
            dram: Dram::new(cfg.dram),
            prefetchers,
            fills: FillWheel::new(),
            l1_fills: (0..cfg.cores)
                .map(|_| Vec::with_capacity(cfg.l1d.mshrs))
                .collect(),
            pf_buf: Vec::with_capacity(64),
            ledger: PrefetchLedger::new(TelemetryLevel::Off),
            throttle: None,
            stall_level: vec![StallLevel::L1; cfg.cores],
            cfg,
        }
    }

    /// Sets the prefetch-lifecycle telemetry level. Call before running;
    /// switching levels mid-run discards the counts collected so far, and
    /// prefetches issued before the switch settle as unattributed.
    pub fn set_telemetry(&mut self, level: TelemetryLevel) {
        self.ledger = PrefetchLedger::new(level);
    }

    /// Sets the prefetch-throttling mode. Call before running; switching
    /// modes mid-run restarts the throttle from scratch. With
    /// [`ThrottleMode::Off`] no throttle exists at all, so disabled
    /// throttling cannot perturb a run.
    pub fn set_throttle(&mut self, mode: ThrottleMode) {
        self.throttle = Throttle::new(mode, self.cfg.cores, self.cfg.dram.transfer_cycles);
        self.push_throttle_levels();
    }

    fn push_throttle_levels(&mut self) {
        for (i, pf) in self.prefetchers.iter_mut().enumerate() {
            let level = self
                .throttle
                .as_ref()
                .map_or(ThrottleLevel::Full, |t| t.level(i));
            pf.set_throttle_level(level);
        }
    }

    /// The per-core QoS attribution report; `None` unless the percore
    /// throttle mode is active.
    pub fn qos_report(&self) -> Option<QosReport> {
        self.throttle.as_ref().and_then(Throttle::report)
    }

    /// The aggregate lifecycle report; `None` when telemetry is off.
    pub fn telemetry_report(&self) -> Option<TelemetryReport> {
        self.ledger.report()
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Shared LLC statistics.
    pub fn llc_stats(&self) -> &CacheStats {
        &self.llc.stats
    }

    /// Aggregated L1D statistics, summed across cores.
    pub fn l1d_stats_sum(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for l1 in &self.l1s {
            total.add(&l1.stats);
        }
        total
    }

    /// Total DRAM transfers serviced so far.
    pub fn dram_transfers(&self) -> u64 {
        self.dram.stats.transfers()
    }

    /// DRAM statistics.
    pub fn dram_stats(&self) -> &crate::dram::DramStats {
        &self.dram.stats
    }

    /// Current DRAM per-transfer channel occupancy (chaos observability).
    pub fn dram_transfer_cycles(&self) -> u64 {
        self.dram.transfer_cycles()
    }

    /// Chaos hook: overrides the DRAM per-transfer occupancy mid-run to
    /// model a transient bandwidth collapse. The throttle controllers keep
    /// judging congestion against the *configured* service time, so a
    /// collapse shows up to them as queueing — exactly how a real
    /// controller experiences it.
    pub fn set_dram_transfer_cycles(&mut self, cycles: u64) {
        self.dram.set_transfer_cycles(cycles);
    }

    /// Current prefetch-queue bound (chaos observability).
    pub fn prefetch_queue_depth(&self) -> Option<usize> {
        self.cfg.prefetch_queue_depth
    }

    /// Chaos hook: squeezes (or restores) the prefetch-queue bound mid-run.
    /// In-flight prefetches above a new lower bound are not cancelled —
    /// like a real queue resize, the bound gates *admission* only.
    pub fn set_prefetch_queue_depth(&mut self, depth: Option<usize>) {
        assert!(
            depth != Some(0),
            "prefetch queue depth of 0 disables prefetching entirely; \
             use a no-op prefetcher instead"
        );
        self.cfg.prefetch_queue_depth = depth;
    }

    /// The per-core prefetcher, for storage accounting and diagnostics.
    pub fn prefetcher(&self, core: CoreId) -> &dyn Prefetcher {
        self.prefetchers[core.0].as_ref()
    }

    /// Debug summaries of every core's prefetcher.
    pub fn prefetcher_debug(&self) -> Vec<String> {
        self.prefetchers.iter().map(|p| p.debug_stats()).collect()
    }

    /// Structured metrics of every core's prefetcher.
    pub fn prefetcher_metrics(&self) -> Vec<Vec<(&'static str, f64)>> {
        self.prefetchers.iter().map(|p| p.metrics()).collect()
    }

    /// Clears all statistics (cache, DRAM) while keeping contents and
    /// predictor state — the end-of-warmup reset.
    pub fn reset_stats(&mut self) {
        for l1 in &mut self.l1s {
            l1.reset_stats();
        }
        self.llc.reset_stats();
        self.dram.reset_stats();
        self.ledger.on_stats_reset();
        if let Some(throttle) = self.throttle.as_mut() {
            throttle.on_stats_reset();
        }
    }

    /// Lands every fill due at or before `now`, in (ready cycle, issue
    /// order). A fill lands when `tick` first reaches its ready cycle, so
    /// a caller that wants fills on time calls it at each such cycle (the
    /// run loop visits every one) before cores issue requests there;
    /// cycles on which nothing is due may be skipped. `now` must be below
    /// `u64::MAX` (checked in debug builds only).
    ///
    /// At most cycles nothing is due; that check inlines into the caller's
    /// loop as one compare against the fill queue's cached earliest ready
    /// cycle, with the landing logic kept out of line.
    #[inline]
    pub fn tick(&mut self, now: u64) {
        if self.fills.is_due(now) {
            self.tick_due(now);
        }
    }

    #[inline(never)]
    fn tick_due(&mut self, now: u64) {
        while let Some((ready, fill)) = self.fills.pop_due(now) {
            let block = BlockAddr::new(fill.block);
            if fill.cache == Fill::LLC {
                let landing = self.llc.complete_fill(block);
                if let Some(evicted) = landing.evicted {
                    if evicted.dirty {
                        self.dram.write(evicted.block, now);
                    }
                    if let Some(origin) = evicted.unused_prefetch {
                        self.ledger.record(origin.source, |c| c.unused += 1);
                    }
                    for pf in &mut self.prefetchers {
                        pf.on_eviction(evicted.block);
                    }
                }
                if let Some(issued) = landing.prefetch_issued {
                    self.ledger.filled(now.saturating_sub(issued));
                }
            } else {
                let core = fill.cache as usize;
                let pending = &mut self.l1_fills[core];
                let at = pending
                    .iter()
                    .position(|&r| r == ready)
                    .expect("every L1 fill's ready cycle is tracked");
                pending.swap_remove(at);
                if let Some(evicted) = self.l1s[core].complete_fill(block).evicted {
                    if evicted.dirty {
                        // Writeback to LLC: mark dirty if resident, else
                        // spill to DRAM bandwidth.
                        if !self.llc.mark_dirty(evicted.block) {
                            self.dram.write(evicted.block, now);
                        }
                    }
                }
            }
        }
    }

    /// Ready cycle of the earliest outstanding fill, if any — the memory
    /// system's next externally visible event.
    pub(crate) fn next_fill_ready(&self) -> Option<u64> {
        self.fills.next_ready()
    }

    /// Ready cycle of `core`'s earliest in-flight L1 fill, if any — the
    /// only event that can clear that core's L1 MSHR stall.
    pub(crate) fn next_l1_fill(&self, core: usize) -> Option<u64> {
        let next = self.l1_fills[core].iter().copied().min();
        crate::audit_assert!(
            next == self.l1s[core].next_fill_ready(),
            "L1 wake invariant: core {core} tracks {next:?}, its MSHR file holds {:?}",
            self.l1s[core].next_fill_ready()
        );
        next
    }

    /// Level of `core`'s most recent demand stall (see [`StallLevel`]).
    pub(crate) fn stall_level(&self, core: usize) -> StallLevel {
        self.stall_level[core]
    }

    /// Replays `k` skipped cycles of `core` retrying its L1-stalled access
    /// to `block`, the first retry issuing at cycle `first`. Each retry
    /// misses the core's private L1 and dies at its MSHR check — exactly
    /// the effects of [`MemorySystem::load`]/[`MemorySystem::store`] up to
    /// their stall return, none of which reach shared state.
    pub(crate) fn apply_stalled_retries(
        &mut self,
        core: usize,
        block: BlockAddr,
        first: u64,
        k: u64,
    ) {
        debug_assert_eq!(self.stall_level[core], StallLevel::L1);
        self.l1s[core].apply_missed_retries(block, first, k);
    }

    /// Queues `block`'s fill into `cache` (a core index or [`Fill::LLC`])
    /// to land at cycle `ready`.
    fn schedule_fill(&mut self, cache: u32, block: BlockAddr, ready: u64) {
        let block = block.index();
        self.fills.push(ready, Fill { block, cache });
    }

    /// Issues a load; returns its completion cycle or a stall.
    pub fn load(&mut self, core: CoreId, pc: Pc, addr: Addr, now: u64) -> IssueResult {
        self.access(core, pc, addr, now, false)
    }

    /// Issues a store (write-allocate, write-back); the returned cycle is
    /// when the store's miss handling completes (releases its LSQ slot).
    pub fn store(&mut self, core: CoreId, pc: Pc, addr: Addr, now: u64) -> IssueResult {
        self.access(core, pc, addr, now, true)
    }

    fn access(
        &mut self,
        core: CoreId,
        pc: Pc,
        addr: Addr,
        now: u64,
        is_write: bool,
    ) -> IssueResult {
        let block = addr.block();
        let l1 = &mut self.l1s[core.0];
        match l1.demand_access(block, now, is_write) {
            Lookup::Hit { ready_at, .. } | Lookup::PendingHit { ready_at, .. } => {
                self.tick_throttle(core.0);
                return IssueResult::Done(ready_at);
            }
            Lookup::Miss => {}
        }
        if !self.l1s[core.0].mshr_available_for_demand() {
            self.l1s[core.0].stats.demand_mshr_stalls += 1;
            self.stall_level[core.0] = StallLevel::L1;
            return IssueResult::Stall;
        }

        // L1 miss: consult the LLC after the L1 lookup latency.
        let t_llc = now + self.cfg.l1d.latency;
        // The LLC lookup below is the single point where a prefetch is
        // judged useful (`pf_useful`, resident hit) or late (`pf_late`,
        // in-flight merge), and it names the core that issued it and the
        // prediction that produced it; the throttle and the ledger are
        // credited from that one event, so their counts agree with
        // `CacheStats` by construction.
        let (data_ready, llc_hit, used_prefetch) =
            match self.llc.demand_access(block, t_llc, is_write) {
                Lookup::Hit { ready_at, prefetch } => (ready_at, true, prefetch),
                Lookup::PendingHit { ready_at, prefetch } => (ready_at, false, prefetch),
                Lookup::Miss => {
                    if !self.llc.mshr_available_for_demand() {
                        self.llc.stats.demand_mshr_stalls += 1;
                        self.stall_level[core.0] = StallLevel::Llc;
                        return IssueResult::Stall;
                    }
                    self.llc.stats.demand_misses += 1;
                    let ready = self.dram.read(block, t_llc + self.cfg.llc.latency);
                    if let Some(throttle) = self.throttle.as_mut() {
                        throttle.note_demand_read(core.0, self.dram.last_read_wait());
                    }
                    self.llc.allocate_fill(block, ready, None);
                    self.schedule_fill(Fill::LLC, block, ready);
                    (ready, false, None)
                }
            };
        if let Some(origin) = used_prefetch {
            if let Some(throttle) = self.throttle.as_mut() {
                throttle.note_pf_used(origin.core.0);
            }
            self.ledger.record(origin.source, |c| {
                if llc_hit {
                    c.timely += 1;
                } else {
                    c.late += 1;
                }
            });
        }

        // Commit the L1 miss. A store miss installs its line dirty
        // (write-allocate, write-back).
        self.l1s[core.0].stats.demand_misses += 1;
        self.l1s[core.0].allocate_fill(block, data_ready, None);
        if is_write {
            self.l1s[core.0].mark_pending_dirty(block);
        }
        self.schedule_fill(core.0 as u32, block, data_ready);
        self.l1_fills[core.0].push(data_ready);

        // Train + trigger the core's prefetcher on this LLC access.
        self.run_prefetcher(core, pc, addr, is_write, llc_hit, t_llc);

        self.tick_throttle(core.0);
        IssueResult::Done(data_ready + 1)
    }

    /// Advances the throttle epoch clock by one demand access of `core`.
    /// Called only from the two paths where an access *resolves* (L1 hit or
    /// committed miss), never on a `Stall` return: a stalled access is
    /// retried every cycle, and counting retries would tie the epoch length
    /// to contention — the very thing the controller modulates — instead of
    /// program progress.
    fn tick_throttle(&mut self, core: usize) {
        if let Some(throttle) = self.throttle.as_mut() {
            if throttle.on_access(core) {
                self.push_throttle_levels();
            }
        }
    }

    fn run_prefetcher(
        &mut self,
        core: CoreId,
        pc: Pc,
        addr: Addr,
        is_write: bool,
        hit: bool,
        cycle: u64,
    ) {
        let block = addr.block();
        let info = AccessInfo {
            core,
            pc,
            addr,
            block,
            is_write,
            hit,
            cycle,
        };
        let mut buf = std::mem::take(&mut self.pf_buf);
        buf.clear();
        self.prefetchers[core.0].on_access(&info, &mut buf);
        crate::audit_assert!(
            buf.len() <= 64,
            "prefetch burst invariant: {} emitted {} candidates for one access (cap 64)",
            self.prefetchers[core.0].name(),
            buf.len()
        );
        // One attribution query per burst: every candidate of a burst comes
        // from the same prediction event.
        let source = if self.ledger.enabled() && !buf.is_empty() {
            self.prefetchers[core.0].last_burst_source()
        } else {
            PrefetchSource::Unattributed
        };
        for &candidate in &buf {
            self.issue_prefetch_attributed(PrefetchOrigin { core, source }, candidate, cycle);
        }
        self.pf_buf = buf;
    }

    /// Issues one prefetch candidate into the LLC at cycle `now`, applying
    /// duplicate filtering and MSHR limits, with no prefetcher behind it:
    /// for tests and `prefetcher_microbench`. The prefetch is charged to
    /// core 0 and is unattributed.
    pub fn issue_prefetch(&mut self, block: BlockAddr, now: u64) {
        let origin = PrefetchOrigin {
            core: CoreId(0),
            source: PrefetchSource::Unattributed,
        };
        self.issue_prefetch_attributed(origin, block, now);
    }

    fn issue_prefetch_attributed(&mut self, origin: PrefetchOrigin, block: BlockAddr, now: u64) {
        let source = origin.source;
        self.llc.stats.pf_requested += 1;
        if self.llc.probe(block) {
            self.llc.stats.pf_dropped_duplicate += 1;
            self.ledger.record(source, |c| c.dropped += 1);
            return;
        }
        // The bounded prefetch queue sits in front of the MSHR file: a
        // candidate needs a queue slot before it may compete for an MSHR.
        // Demand misses never consult this bound, so prefetch pressure can
        // only ever shed prefetches, not delay demand issue.
        if let Some(depth) = self.cfg.prefetch_queue_depth {
            if self.llc.prefetches_in_flight() >= depth {
                self.llc.stats.pf_dropped_queue += 1;
                self.ledger.record(source, |c| c.dropped += 1);
                return;
            }
        }
        if !self
            .llc
            .mshr_available_for_prefetch(self.cfg.llc_mshrs_reserved_for_demand)
        {
            self.llc.stats.pf_dropped_mshr += 1;
            self.ledger.record(source, |c| c.dropped += 1);
            return;
        }
        let ready = self
            .dram
            .read_tagged(block, now + self.cfg.llc.latency, true);
        if let Some(throttle) = self.throttle.as_mut() {
            throttle.note_pf_issued(origin.core.0, self.dram.last_read_wait());
        }
        self.llc.allocate_fill(block, ready, Some((origin, now)));
        self.schedule_fill(Fill::LLC, block, ready);
        self.llc.stats.pf_issued += 1;
        self.ledger.record(source, |c| c.issued += 1);
        crate::audit_assert!(
            self.llc.prefetch_pending(block),
            "prefetch issue invariant: {block:?} not pending as a prefetch after issue"
        );
        crate::audit_assert!(
            self.llc.mshr_occupancy() <= self.cfg.llc.mshrs,
            "MSHR occupancy invariant: LLC occupancy {} exceeds {} MSHRs after prefetch",
            self.llc.mshr_occupancy(),
            self.cfg.llc.mshrs
        );
    }

    /// Drains all outstanding fills (used at end of simulation so that
    /// in-flight prefetch attribution settles) and settles still-resident
    /// never-demanded prefetched lines as useless (`pf_useless`), so
    /// overprediction does not depend on the LLC filling up within the
    /// measurement window. Returns the last fill's ready cycle (0 when
    /// none was in flight). A second drain settles nothing.
    pub fn drain(&mut self) -> u64 {
        let mut last = 0;
        while let Some(ready) = self.fills.next_ready() {
            last = ready;
            self.tick(ready);
        }
        let ledger = &mut self.ledger;
        self.llc
            .settle_unused_prefetches(|origin| ledger.record(origin.source, |c| c.unused += 1));
        last
    }
}

impl std::fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySystem")
            .field("cores", &self.cfg.cores)
            .field("llc_stats", &self.llc.stats)
            .field("outstanding_fills", &self.fills.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::Dram;
    use crate::prefetch::{NextLinePrefetcher, NoPrefetcher};

    fn mem_no_pf() -> MemorySystem {
        let cfg = SystemConfig::tiny();
        MemorySystem::new(cfg, vec![Box::new(NoPrefetcher)])
    }

    fn run_to(mem: &mut MemorySystem, cycle: u64) {
        for t in 0..=cycle {
            mem.tick(t);
        }
    }

    const CORE: CoreId = CoreId(0);
    const PC: Pc = Pc::new(0x400100);

    #[test]
    fn cold_load_goes_to_dram() {
        let mut mem = mem_no_pf();
        let t = match mem.load(CORE, PC, Addr::new(0x10000), 0) {
            IssueResult::Done(t) => t,
            IssueResult::Stall => panic!("unexpected stall"),
        };
        // 4 (L1) + 15 (LLC) + 240 (DRAM row miss) + 1 ≈ 260
        assert!((250..=280).contains(&t), "cold load completion {t}");
        assert_eq!(mem.llc_stats().demand_misses, 1);
    }

    #[test]
    fn second_load_hits_l1_after_fill() {
        let mut mem = mem_no_pf();
        let addr = Addr::new(0x10000);
        let t = match mem.load(CORE, PC, addr, 0) {
            IssueResult::Done(t) => t,
            IssueResult::Stall => panic!(),
        };
        run_to(&mut mem, t);
        let t2 = match mem.load(CORE, PC, addr, t + 1) {
            IssueResult::Done(t2) => t2,
            IssueResult::Stall => panic!(),
        };
        assert_eq!(t2, t + 1 + 4, "L1 hit latency");
        assert_eq!(mem.llc_stats().demand_misses, 1);
    }

    #[test]
    fn llc_hit_after_l1_eviction_pressure() {
        let mut mem = mem_no_pf();
        // Fill a block, then thrash L1 set with conflicting blocks; the
        // original stays in the larger LLC.
        let victim = Addr::new(0);
        let t = match mem.load(CORE, PC, victim, 0) {
            IssueResult::Done(t) => t,
            IssueResult::Stall => panic!(),
        };
        run_to(&mut mem, t);
        let mut now = t + 1;
        // tiny L1: 8KB/4way/64B = 32 sets. Conflicts: stride 32 blocks.
        for i in 1..=8u64 {
            let a = Addr::new(i * 32 * 64);
            match mem.load(CORE, PC, a, now) {
                IssueResult::Done(done) => {
                    run_to(&mut mem, done);
                    now = done + 1;
                }
                IssueResult::Stall => {
                    now += 1;
                }
            }
        }
        let before = mem.llc_stats().demand_misses;
        let t2 = match mem.load(CORE, PC, victim, now) {
            IssueResult::Done(t2) => t2,
            IssueResult::Stall => panic!(),
        };
        assert_eq!(mem.llc_stats().demand_misses, before, "LLC hit expected");
        // L1 lookup (4) + LLC hit (15) + 1 cycle to return through the L1.
        assert_eq!(t2 - now, 4 + 15 + 1, "L1 latency + LLC latency");
    }

    #[test]
    fn mshr_exhaustion_stalls_demands() {
        let mut mem = mem_no_pf();
        // tiny L1 has 8 MSHRs: the 9th distinct outstanding load stalls.
        let mut stalled = false;
        for i in 0..9u64 {
            match mem.load(CORE, PC, Addr::new(i * 64 * 64), 0) {
                IssueResult::Done(_) => {}
                IssueResult::Stall => {
                    stalled = i == 8;
                    break;
                }
            }
        }
        assert!(stalled, "9th outstanding miss should stall on L1 MSHRs");
    }

    #[test]
    fn duplicate_loads_merge_in_mshr() {
        let mut mem = mem_no_pf();
        let addr = Addr::new(0x40000);
        let t1 = match mem.load(CORE, PC, addr, 0) {
            IssueResult::Done(t) => t,
            IssueResult::Stall => panic!(),
        };
        // Second load to the same block one cycle later merges in L1 MSHR.
        let t2 = match mem.load(CORE, PC, addr, 1) {
            IssueResult::Done(t) => t,
            IssueResult::Stall => panic!(),
        };
        assert!(t2 <= t1 + 1);
        assert_eq!(mem.llc_stats().demand_misses, 1);
        assert_eq!(mem.l1d_stats_sum().demand_misses, 1);
        assert_eq!(mem.l1d_stats_sum().demand_hits_pending, 1);
    }

    #[test]
    fn prefetch_turns_miss_into_hit() {
        let cfg = SystemConfig::tiny();
        let mut mem = MemorySystem::new(cfg, vec![Box::new(NextLinePrefetcher::new(1))]);
        // Load block 0 -> prefetches block 1.
        let t = match mem.load(CORE, PC, Addr::new(0), 0) {
            IssueResult::Done(t) => t,
            IssueResult::Stall => panic!(),
        };
        run_to(&mut mem, t + 300);
        assert_eq!(mem.llc_stats().pf_issued, 1);
        // Demand block 1: should hit in LLC (prefetched), miss in L1.
        let misses_before = mem.llc_stats().demand_misses;
        match mem.load(CORE, PC, Addr::new(64), t + 301) {
            IssueResult::Done(_) => {}
            IssueResult::Stall => panic!(),
        }
        assert_eq!(mem.llc_stats().demand_misses, misses_before);
        assert_eq!(mem.llc_stats().pf_useful, 1);
    }

    #[test]
    fn late_prefetch_counts_as_late() {
        let cfg = SystemConfig::tiny();
        let mut mem = MemorySystem::new(cfg, vec![Box::new(NextLinePrefetcher::new(1))]);
        let _ = mem.load(CORE, PC, Addr::new(0), 0);
        // Demand block 1 immediately: the prefetch is still in flight.
        match mem.load(CORE, PC, Addr::new(64), 2) {
            IssueResult::Done(_) => {}
            IssueResult::Stall => panic!(),
        }
        assert_eq!(mem.llc_stats().pf_late, 1);
    }

    #[test]
    fn duplicate_prefetches_are_filtered() {
        let mut mem = mem_no_pf();
        mem.issue_prefetch(BlockAddr::new(100), 0);
        mem.issue_prefetch(BlockAddr::new(100), 1);
        assert_eq!(mem.llc_stats().pf_issued, 1);
        assert_eq!(mem.llc_stats().pf_dropped_duplicate, 1);
    }

    #[test]
    fn prefetches_respect_mshr_reservation() {
        let mut mem = mem_no_pf();
        // tiny LLC: 32 MSHRs, 8 reserved for demand -> 24 prefetch slots.
        for i in 0..30u64 {
            mem.issue_prefetch(BlockAddr::new(1000 + i), 0);
        }
        assert_eq!(mem.llc_stats().pf_issued, 24);
        assert_eq!(mem.llc_stats().pf_dropped_mshr, 6);
    }

    #[test]
    fn bounded_queue_drops_excess_prefetches_with_reason() {
        let mut cfg = SystemConfig::tiny();
        cfg.prefetch_queue_depth = Some(4);
        let mut mem = MemorySystem::new(cfg, vec![Box::new(NoPrefetcher)]);
        mem.set_telemetry(TelemetryLevel::Counts);
        for i in 0..10u64 {
            mem.issue_prefetch(BlockAddr::new(1000 + i), 0);
        }
        assert_eq!(mem.llc_stats().pf_issued, 4);
        assert_eq!(mem.llc_stats().pf_dropped_queue, 6);
        assert_eq!(mem.llc_stats().pf_dropped_mshr, 0);
        // Once fills land the queue frees up again.
        mem.drain();
        mem.issue_prefetch(BlockAddr::new(2000), 0);
        assert_eq!(mem.llc_stats().pf_issued, 5);
        // The ledger attributes the same drops and issues to their source.
        let t = mem.telemetry_report().expect("telemetry on");
        let c = t
            .source("unattributed")
            .expect("direct drive is unattributed");
        assert_eq!(t.by_source.len(), 1);
        assert_eq!(c.dropped, mem.llc_stats().pf_dropped_queue);
        assert_eq!(c.issued, mem.llc_stats().pf_issued);
    }

    #[test]
    fn unbounded_queue_is_bit_for_bit_identical_to_default() {
        // The pressure knob disabled must not perturb anything: same tiny
        // config with and without an explicit `None` produces equal stats.
        let run = |cfg: SystemConfig| {
            let mut mem = MemorySystem::new(cfg, vec![Box::new(NextLinePrefetcher::new(4))]);
            let mut now = 0;
            for i in 0..40u64 {
                match mem.load(CORE, PC, Addr::new(i * 64), now) {
                    IssueResult::Done(t) => now = t,
                    IssueResult::Stall => now += 1,
                }
                mem.tick(now);
            }
            mem.drain();
            mem.llc_stats().clone()
        };
        let default_cfg = SystemConfig::tiny();
        let mut explicit = SystemConfig::tiny();
        explicit.prefetch_queue_depth = None;
        assert_eq!(run(default_cfg), run(explicit));
        assert_eq!(default_cfg.prefetch_queue_depth, None);
    }

    #[test]
    fn off_throttle_mode_is_bit_for_bit_invisible() {
        let run = |set_off: bool| {
            let cfg = SystemConfig::tiny();
            let mut mem = MemorySystem::new(cfg, vec![Box::new(NextLinePrefetcher::new(4))]);
            if set_off {
                mem.set_throttle(crate::throttle::ThrottleMode::Off);
            }
            let mut now = 0;
            for i in 0..2000u64 {
                match mem.load(CORE, PC, Addr::new(i * 64), now) {
                    IssueResult::Done(t) => now = t,
                    IssueResult::Stall => now += 1,
                }
                mem.tick(now);
            }
            mem.drain();
            mem.llc_stats().clone()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn feedback_throttle_strangles_useless_prefetching() {
        use crate::throttle::{ThrottleLevel, ThrottleMode, EPOCH_ACCESSES};
        // Stride of 5 blocks: every next-line prefetch (degree 4) lands on
        // a block the demand stream never touches, so settled accuracy is
        // zero once LLC evictions begin.
        let run = |mode: ThrottleMode| {
            let cfg = SystemConfig::tiny();
            let mut mem = MemorySystem::new(cfg, vec![Box::new(NextLinePrefetcher::new(4))]);
            mem.set_throttle(mode);
            let mut now = 0;
            for i in 0..8 * EPOCH_ACCESSES {
                match mem.load(CORE, PC, Addr::new(i * 5 * 64), now) {
                    IssueResult::Done(t) => now = t,
                    IssueResult::Stall => now += 1,
                }
                mem.tick(now);
            }
            mem
        };
        let throttled = run(ThrottleMode::Feedback);
        let unthrottled = run(ThrottleMode::Off);
        assert!(unthrottled.throttle.is_none());
        let level = throttled
            .throttle
            .as_ref()
            .expect("throttle attached")
            .level(0);
        assert!(level > ThrottleLevel::Full, "zero accuracy must degrade");
        assert!(
            throttled.llc_stats().pf_issued < unthrottled.llc_stats().pf_issued / 2,
            "throttling must shed most useless prefetches ({} vs {})",
            throttled.llc_stats().pf_issued,
            unthrottled.llc_stats().pf_issued
        );
    }

    /// Two cores on one LLC: core 1's next-line prefetcher fetches the
    /// block after each of its loads, and core 0 then demands those
    /// blocks.
    fn cross_core_prefetch_run(mode: ThrottleMode) -> MemorySystem {
        let mut cfg = SystemConfig::tiny();
        cfg.cores = 2;
        let mut mem = MemorySystem::new(
            cfg,
            vec![Box::new(NoPrefetcher), Box::new(NextLinePrefetcher::new(1))],
        );
        mem.set_throttle(mode);
        mem.set_telemetry(TelemetryLevel::Counts);
        let mut now = 0;
        for i in 0..64u64 {
            let _ = mem.load(CoreId(1), PC, Addr::new(i * 2 * 64), now);
            run_to(&mut mem, now + 400);
            now += 401;
            let _ = mem.load(CORE, PC, Addr::new((i * 2 + 1) * 64), now);
            now += 1;
        }
        mem.drain();
        mem
    }

    #[test]
    fn used_prefetches_credit_the_issuing_core() {
        let mem = cross_core_prefetch_run(ThrottleMode::Percore);
        let llc = mem.llc_stats();
        assert_eq!(llc.pf_issued, 64);
        assert_eq!(llc.pf_useful + llc.pf_late, 64);
        // Core 0 demanded every line; core 1 issued them and gets the
        // credit in the throttle's signals.
        let qos = mem.qos_report().expect("percore reports");
        assert_eq!((qos.cores[1].pf_issued, qos.cores[1].pf_used), (64, 64));
        assert_eq!((qos.cores[0].pf_issued, qos.cores[0].pf_used), (0, 0));
    }

    #[test]
    fn feedback_domain_signals_equal_the_chip_wide_counters() {
        let mem = cross_core_prefetch_run(ThrottleMode::Feedback);
        let throttle = mem.throttle.as_ref().expect("throttle attached");
        let sig = throttle.signals(0);
        let (llc, dram) = (mem.llc_stats(), mem.dram_stats());
        assert!(sig.pf_issued > 0 && sig.reads > sig.prefetch_reads);
        assert_eq!(sig.pf_issued, llc.pf_issued);
        assert_eq!(sig.pf_used, llc.pf_useful + llc.pf_late);
        assert_eq!(sig.prefetch_reads, dram.prefetch_reads);
        assert_eq!(sig.reads, dram.reads);
        assert_eq!(sig.queue_wait_cycles, dram.queue_wait_cycles);
        assert!(mem.qos_report().is_none());
    }

    #[test]
    fn demand_misses_are_never_gated_by_the_prefetch_queue() {
        let mut cfg = SystemConfig::tiny();
        cfg.prefetch_queue_depth = Some(1);
        let mut mem = MemorySystem::new(cfg, vec![Box::new(NoPrefetcher)]);
        // Saturate the one-slot queue.
        mem.issue_prefetch(BlockAddr::new(5000), 0);
        mem.issue_prefetch(BlockAddr::new(5001), 0);
        assert_eq!(mem.llc_stats().pf_dropped_queue, 1);
        // A demand miss still issues normally.
        match mem.load(CORE, PC, Addr::new(0x9000), 1) {
            IssueResult::Done(_) => {}
            IssueResult::Stall => panic!("demand gated by prefetch queue"),
        }
        assert_eq!(mem.llc_stats().demand_misses, 1);
    }

    #[test]
    fn drain_settles_all_fills() {
        let mut mem = mem_no_pf();
        let _ = mem.load(CORE, PC, Addr::new(0), 0);
        let _ = mem.load(CORE, PC, Addr::new(1 << 20), 0);
        let last = mem.drain();
        assert!(last > 0);
        // After drain, both blocks resident: loads hit.
        match mem.load(CORE, PC, Addr::new(0), last + 1) {
            IssueResult::Done(t) => assert_eq!(t, last + 1 + 4),
            IssueResult::Stall => panic!(),
        }
    }

    /// Fills the fill queue's timing wheel cannot place in its window: one
    /// prefetch issued below the last tick, whose fill is ready before
    /// it, and prefetches queued far past the wheel's 4096-cycle span
    /// behind a collapsed DRAM. `drain` must land every one and return the
    /// latest ready cycle, which an identical DRAM model predicts.
    #[test]
    fn drain_lands_far_and_late_fills() {
        let cfg = SystemConfig::tiny();
        let mut mem = mem_no_pf();
        let mut dram = Dram::new(cfg.dram);
        let issue = |mem: &mut MemorySystem, dram: &mut Dram, block: BlockAddr, now: u64| {
            mem.issue_prefetch(block, now);
            dram.read_tagged(block, now + cfg.llc.latency, true)
        };
        let last_tick = 1_000_000;
        let first = BlockAddr::new(3);
        issue(&mut mem, &mut dram, first, 0);
        mem.tick(last_tick);
        let late = BlockAddr::new(7);
        let late_ready = issue(&mut mem, &mut dram, late, 10);
        assert!(late_ready < last_tick);
        assert_eq!(mem.next_fill_ready(), Some(late_ready));
        // One transfer per 5000 cycles: ten fills per channel reach 50 K
        // cycles ahead.
        mem.set_dram_transfer_cycles(5_000);
        dram.set_transfer_cycles(5_000);
        let mut latest = late_ready;
        let far: Vec<BlockAddr> = (0..20).map(|i| BlockAddr::new(1000 + i * 64)).collect();
        for &block in &far {
            latest = latest.max(issue(&mut mem, &mut dram, block, last_tick));
        }
        assert_eq!(mem.llc_stats().pf_issued, 22);
        assert!(latest > last_tick + 10 * 4096, "latest fill at {latest}");
        assert_eq!(mem.drain(), latest);
        assert_eq!(mem.llc.mshr_occupancy(), 0);
        for block in far.into_iter().chain([first, late]) {
            assert!(mem.llc.probe(block), "{block:?} resident");
        }
        assert_eq!(mem.llc.resident_lines(), 22);
    }

    #[test]
    fn store_miss_allocates_and_dirties() {
        let mut mem = mem_no_pf();
        let addr = Addr::new(0x2000);
        let t = match mem.store(CORE, PC, addr, 0) {
            IssueResult::Done(t) => t,
            IssueResult::Stall => panic!(),
        };
        run_to(&mut mem, t);
        assert_eq!(mem.llc_stats().demand_misses, 1);
        // A later load hits.
        match mem.load(CORE, PC, addr, t + 1) {
            IssueResult::Done(t2) => assert_eq!(t2, t + 1 + 4),
            IssueResult::Stall => panic!(),
        }
    }

    #[test]
    #[should_panic(expected = "one prefetcher per core")]
    fn prefetcher_count_must_match_cores() {
        let cfg = SystemConfig::paper(); // 4 cores
        let _ = MemorySystem::new(cfg, vec![Box::new(NoPrefetcher)]);
    }
}
