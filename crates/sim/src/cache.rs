//! Set-associative LRU cache model with MSHRs and per-line prefetch
//! attribution.
//!
//! A cache tracks two populations of blocks:
//!
//! * **resident lines** in the tag array, and
//! * **pending fills** (the MSHR file): blocks whose miss has been issued to
//!   the next level but whose data has not arrived yet.
//!
//! The memory system drives the cache with [`Cache::demand_access`],
//! allocates misses with [`Cache::allocate_fill`], and completes them with
//! [`Cache::complete_fill`] when the fill's ready cycle arrives. Prefetch
//! usefulness is attributed per line: a prefetched line demanded before
//! eviction is *useful*; one demanded while still in flight is *late*; one
//! evicted untouched is *useless* (an overprediction). Each prefetched line
//! also remembers the core whose prefetcher issued it, and hands that owner
//! back at the two use events, so per-core attribution needs no side table.

use crate::addr::{BlockAddr, CoreId};
use crate::config::CacheConfig;
use crate::openmap::OpenMap;
use crate::stats::CacheStats;

/// Outcome of a demand lookup.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// The block is resident; data available at the contained cycle.
    Hit {
        /// Cycle at which the data is available to the requester.
        ready_at: u64,
        /// The issuing core when this demand is the first touch of a
        /// prefetched line (the event counted as `pf_useful`).
        prefetch_owner: Option<CoreId>,
    },
    /// The block's fill is in flight (MSHR merge); data available when the
    /// fill lands.
    PendingHit {
        /// Cycle at which the in-flight fill completes.
        ready_at: u64,
        /// The issuing core when this demand is the first to merge with an
        /// in-flight prefetch (the event counted as `pf_late`).
        prefetch_owner: Option<CoreId>,
    },
    /// The block is neither resident nor in flight.
    Miss,
}

/// A block evicted by [`Cache::complete_fill`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted block.
    pub block: BlockAddr,
    /// Whether the line was dirty and must be written back.
    pub dirty: bool,
    /// Whether the line was brought in by a prefetch and never demanded
    /// (the event counted as `pf_useless`).
    pub unused_prefetch: bool,
}

/// Largest core count the per-line prefetch-owner field can name; checked
/// by [`SystemConfig::validate`](crate::SystemConfig::validate).
pub const MAX_PREFETCH_OWNERS: usize = u8::MAX as usize + 1;

/// Per-line status flags, packed so the tag array stays dense.
mod flag {
    pub const VALID: u8 = 1 << 0;
    pub const DIRTY: u8 = 1 << 1;
    /// Line was filled by a prefetch.
    pub const PREFETCHED: u8 = 1 << 2;
    /// A demand access has touched the line since its fill.
    pub const DEMANDED: u8 = 1 << 3;
    /// Line was filled during the measurement window (post-warmup).
    pub const MEASURED: u8 = 1 << 4;
}

#[derive(Copy, Clone, Debug)]
struct PendingFill {
    ready: u64,
    prefetch: bool,
    /// Issuing core of a prefetch fill (0 for demand fills).
    owner: u8,
    /// A demand merged with this fill while in flight.
    demanded: bool,
    /// A store targeted this block while in flight; the filled line must
    /// be installed dirty.
    dirty: bool,
}

/// A set-associative, banked, write-back cache with a finite MSHR file.
///
/// The tag array is structure-of-arrays: every lookup's way scan walks a
/// dense `u64` tag slice (set *s* occupies indices `s*ways ..
/// (s+1)*ways`), touching the flag/recency columns only on a match. The
/// MSHR file is an [`OpenMap`] pre-sized to the MSHR count, so the hot
/// path never hashes through SipHash or allocates.
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    tags: Vec<u64>,
    flags: Vec<u8>,
    /// Issuing core of each line filled by a prefetch; meaningful only
    /// while the line's `PREFETCHED` flag is set.
    owners: Vec<u8>,
    last_touch: Vec<u64>,
    set_mask: u64,
    /// `banks - 1` when the bank count is a power of two, letting
    /// [`Cache::bank_start`] — on the path retried every cycle by a
    /// stalled core — use a mask instead of an integer division.
    bank_mask: Option<u64>,
    pending: OpenMap<PendingFill>,
    /// In-flight fills allocated by prefetches (the prefetch-queue
    /// occupancy); maintained incrementally so the bounded-queue check is
    /// O(1) per candidate.
    pending_prefetches: usize,
    bank_free: Vec<u64>,
    stamp: u64,
    /// Statistics; reset with [`Cache::reset_stats`].
    pub stats: CacheStats,
}

impl Cache {
    /// Creates a cache with the given geometry and LRU replacement.
    ///
    /// # Panics
    ///
    /// Panics if the configuration implies a non-power-of-two set count.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        let lines = sets * cfg.ways;
        Cache {
            cfg,
            tags: vec![0; lines],
            // Invalid lines count as measured so stale slots never leak
            // into pre-measurement accounting.
            flags: vec![flag::MEASURED; lines],
            owners: vec![0; lines],
            last_touch: vec![0; lines],
            set_mask: sets as u64 - 1,
            bank_mask: cfg.banks.is_power_of_two().then(|| cfg.banks as u64 - 1),
            pending: OpenMap::with_capacity(cfg.mshrs),
            pending_prefetches: 0,
            bank_free: vec![0; cfg.banks],
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    fn set_index(&self, block: BlockAddr) -> usize {
        (block.index() & self.set_mask) as usize
    }

    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Models bank-port contention: reserves the block's bank for one cycle
    /// and returns the cycle at which the lookup actually starts.
    fn bank_start(&mut self, block: BlockAddr, now: u64) -> u64 {
        let bank = match self.bank_mask {
            Some(mask) => (block.index() & mask) as usize,
            None => (block.index() % self.cfg.banks as u64) as usize,
        };
        let start = now.max(self.bank_free[bank]);
        self.bank_free[bank] = start + 1;
        start
    }

    /// Performs a demand (load or store) lookup at cycle `now`.
    ///
    /// Updates recency, dirtiness, and prefetch-usefulness attribution on
    /// hits. Does **not** count misses — the memory system counts a miss
    /// only when it successfully issues it to the next level, so that
    /// MSHR-full retries are not double counted.
    pub fn demand_access(&mut self, block: BlockAddr, now: u64, is_write: bool) -> Lookup {
        self.stats.demand_accesses += 1;
        let start = self.bank_start(block, now);
        let stamp = self.next_stamp();
        if let Some(i) = self.find_resident(block) {
            self.last_touch[i] = stamp;
            let f = self.flags[i];
            let mut prefetch_owner = None;
            if f & (flag::PREFETCHED | flag::DEMANDED) == flag::PREFETCHED {
                self.stats.pf_useful += 1;
                prefetch_owner = Some(CoreId(self.owners[i].into()));
            }
            self.flags[i] = f | flag::DEMANDED | if is_write { flag::DIRTY } else { 0 };
            self.stats.demand_hits += 1;
            return Lookup::Hit {
                ready_at: start + self.cfg.latency,
                prefetch_owner,
            };
        }
        if let Some(entry) = self.pending.get_mut(block.index()) {
            let mut prefetch_owner = None;
            if entry.prefetch && !entry.demanded {
                self.stats.pf_late += 1;
                prefetch_owner = Some(CoreId(entry.owner.into()));
            }
            entry.demanded = true;
            entry.dirty |= is_write;
            self.stats.demand_hits_pending += 1;
            let ready_at = entry.ready.max(start + self.cfg.latency);
            return Lookup::PendingHit {
                ready_at,
                prefetch_owner,
            };
        }
        Lookup::Miss
    }

    /// Replays `k` consecutive missed-and-MSHR-stalled retry lookups of
    /// `block` in closed form, the first at cycle `first`. While the core
    /// sleeps its retry deterministically misses, so its only effects are
    /// the access and stall counters, the recency stamp, and the bank
    /// reservation — and the bank recurrence `free = max(t, free) + 1` over
    /// access times that start at `first` and grow by at most one per cycle
    /// collapses to `free = max(first, free) + k`.
    pub(crate) fn apply_missed_retries(&mut self, block: BlockAddr, first: u64, k: u64) {
        self.stats.demand_accesses += k;
        self.stats.demand_mshr_stalls += k;
        self.stamp += k;
        let bank = match self.bank_mask {
            Some(mask) => (block.index() & mask) as usize,
            None => (block.index() % self.cfg.banks as u64) as usize,
        };
        let free = &mut self.bank_free[bank];
        *free = (*free).max(first) + k;
    }

    /// Whether the block is resident or in flight (used to filter duplicate
    /// prefetches). Does not disturb recency or statistics.
    pub fn probe(&self, block: BlockAddr) -> bool {
        if self.pending.contains_key(block.index()) {
            return true;
        }
        self.find_resident(block).is_some()
    }

    /// Flat index of the valid line holding `block`, if resident. Scans
    /// the set's dense tag slice; one slice bounds check, no per-way ones.
    #[inline]
    fn find_resident(&self, block: BlockAddr) -> Option<usize> {
        let base = self.set_index(block) * self.cfg.ways;
        let end = base + self.cfg.ways;
        let tag = block.index();
        self.tags[base..end]
            .iter()
            .zip(&self.flags[base..end])
            .position(|(&t, &f)| t == tag && f & flag::VALID != 0)
            .map(|w| base + w)
    }

    /// Whether the block has an in-flight fill that was allocated by a
    /// prefetch and has not yet been demanded. Telemetry cross-check hook;
    /// does not disturb state or statistics.
    pub fn prefetch_pending(&self, block: BlockAddr) -> bool {
        self.pending
            .get(block.index())
            .is_some_and(|e| e.prefetch && !e.demanded)
    }

    /// Ready cycle of the earliest in-flight fill, if any.
    pub(crate) fn next_fill_ready(&self) -> Option<u64> {
        self.pending.min_of(|e| e.ready)
    }

    /// Number of in-flight fills (MSHR occupancy).
    pub fn mshr_occupancy(&self) -> usize {
        self.pending.len()
    }

    /// Number of in-flight fills allocated by prefetches — the occupancy a
    /// bounded prefetch queue is checked against. Includes prefetches a
    /// demand has since merged with (the slot is held until the fill
    /// lands).
    pub fn prefetches_in_flight(&self) -> usize {
        self.pending_prefetches
    }

    /// Whether a demand miss can allocate an MSHR.
    pub fn mshr_available_for_demand(&self) -> bool {
        self.pending.len() < self.cfg.mshrs
    }

    /// Whether a prefetch may allocate an MSHR, leaving `reserved` slots for
    /// demands.
    pub fn mshr_available_for_prefetch(&self, reserved: usize) -> bool {
        self.pending.len() + reserved < self.cfg.mshrs
    }

    /// Records an outstanding fill that will complete at cycle `ready`;
    /// `prefetcher` is the issuing core of a prefetch fill, `None` for a
    /// demand fill.
    ///
    /// The caller must have verified MSHR availability and non-residency.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the block is already pending or resident,
    /// and in every build if the issuing core is not below
    /// [`MAX_PREFETCH_OWNERS`].
    pub fn allocate_fill(&mut self, block: BlockAddr, ready: u64, prefetcher: Option<CoreId>) {
        debug_assert!(
            !self.probe(block),
            "allocate_fill for resident/pending {block:?}"
        );
        crate::audit_assert!(
            self.pending.len() < self.cfg.mshrs,
            "MSHR occupancy invariant: allocate_fill at occupancy {} with only {} MSHRs",
            self.pending.len(),
            self.cfg.mshrs
        );
        let prefetch = prefetcher.is_some();
        let owner = prefetcher.map_or(0, |c| {
            u8::try_from(c.0).expect("prefetching core id exceeds MAX_PREFETCH_OWNERS")
        });
        self.pending.insert(
            block.index(),
            PendingFill {
                ready,
                prefetch,
                owner,
                demanded: !prefetch,
                dirty: false,
            },
        );
        if prefetch {
            self.pending_prefetches += 1;
        }
    }

    /// Marks an in-flight fill dirty (a store is merging into it); returns
    /// whether the block was pending.
    pub fn mark_pending_dirty(&mut self, block: BlockAddr) -> bool {
        match self.pending.get_mut(block.index()) {
            Some(entry) => {
                entry.dirty = true;
                true
            }
            None => false,
        }
    }

    /// Lands an in-flight fill: installs the line, selecting and returning a
    /// victim if the set was full.
    ///
    /// Returns `None` if the block was not pending (e.g. invalidated while
    /// in flight) or if an invalid way absorbed the fill.
    pub fn complete_fill(&mut self, block: BlockAddr, dirty: bool) -> Option<Evicted> {
        let entry = self.pending.remove(block.index())?;
        if entry.prefetch {
            self.pending_prefetches -= 1;
        }
        let stamp = self.next_stamp();
        let base = self.set_index(block) * self.cfg.ways;

        // Prefer an invalid way.
        let victim_idx = if let Some(i) =
            (base..base + self.cfg.ways).find(|&i| self.flags[i] & flag::VALID == 0)
        {
            i
        } else {
            self.pick_victim(base)
        };
        let vf = self.flags[victim_idx];
        let evicted = if vf & flag::VALID != 0 {
            self.stats.evictions += 1;
            let victim_dirty = vf & flag::DIRTY != 0;
            if victim_dirty {
                self.stats.writebacks += 1;
            }
            let unused_prefetch = vf & (flag::PREFETCHED | flag::DEMANDED) == flag::PREFETCHED;
            if unused_prefetch {
                self.stats.pf_useless += 1;
            }
            Some(Evicted {
                block: BlockAddr::new(self.tags[victim_idx]),
                dirty: victim_dirty,
                unused_prefetch,
            })
        } else {
            None
        };
        self.tags[victim_idx] = block.index();
        self.flags[victim_idx] = flag::VALID
            | flag::MEASURED
            | if dirty || entry.dirty { flag::DIRTY } else { 0 }
            | if entry.prefetch { flag::PREFETCHED } else { 0 }
            | if entry.demanded { flag::DEMANDED } else { 0 };
        self.owners[victim_idx] = entry.owner;
        self.last_touch[victim_idx] = stamp;
        crate::audit_assert!(
            victim_idx >= base && victim_idx < base + self.cfg.ways,
            "set structure invariant: victim index {} outside set at {}..{}",
            victim_idx,
            base,
            base + self.cfg.ways
        );
        evicted
    }

    /// The least-recently-touched way of the set starting at `base`.
    fn pick_victim(&self, base: usize) -> usize {
        (base..base + self.cfg.ways)
            .min_by_key(|&i| self.last_touch[i])
            .expect("cache sets are never empty")
    }

    /// Marks a resident line dirty (used for writebacks arriving from an
    /// upper level). Returns `true` if the line was resident.
    pub fn mark_dirty(&mut self, block: BlockAddr) -> bool {
        match self.find_resident(block) {
            Some(i) => {
                self.flags[i] |= flag::DIRTY;
                true
            }
            None => false,
        }
    }

    /// Invalidates a block if resident. Returns whether it was dirty.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<bool> {
        let i = self.find_resident(block)?;
        let f = self.flags[i];
        let dirty = f & flag::DIRTY != 0;
        if f & (flag::PREFETCHED | flag::DEMANDED) == flag::PREFETCHED {
            self.stats.pf_useless += 1;
        }
        self.tags[i] = 0;
        self.flags[i] = flag::MEASURED;
        self.last_touch[i] = 0;
        Some(dirty)
    }

    /// Number of resident prefetched lines never demanded, restricted to
    /// lines filled during the measurement window. Folded into
    /// `pf_useless` at end of simulation so overprediction accounting does
    /// not depend on the cache filling up within the measurement window.
    pub fn count_unused_prefetched(&self) -> u64 {
        const UNUSED: u8 = flag::VALID | flag::PREFETCHED | flag::MEASURED;
        self.flags
            .iter()
            .filter(|&&f| f & (UNUSED | flag::DEMANDED) == UNUSED)
            .count() as u64
    }

    /// Number of valid resident lines (test/diagnostic helper).
    pub fn resident_lines(&self) -> usize {
        self.flags.iter().filter(|&&f| f & flag::VALID != 0).count()
    }

    /// Clears statistics, keeping cache contents (for warmup windows), and
    /// marks existing lines as pre-measurement so end-of-run accounting
    /// (e.g. [`Cache::count_unused_prefetched`]) ignores them.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        for f in &mut self.flags {
            *f &= !flag::MEASURED;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            latency: 10,
            mshrs: 4,
            banks: 1,
        })
    }

    fn fill_now(c: &mut Cache, block: u64) {
        c.allocate_fill(BlockAddr::new(block), 0, None);
        c.complete_fill(BlockAddr::new(block), false);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache();
        let b = BlockAddr::new(42);
        assert_eq!(c.demand_access(b, 0, false), Lookup::Miss);
        c.allocate_fill(b, 100, None);
        assert!(c.probe(b));
        match c.demand_access(b, 50, false) {
            Lookup::PendingHit { ready_at, .. } => assert_eq!(ready_at, 100),
            other => panic!("expected pending hit, got {other:?}"),
        }
        c.complete_fill(b, false);
        match c.demand_access(b, 200, false) {
            Lookup::Hit { ready_at, .. } => assert_eq!(ready_at, 210),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(c.stats.demand_hits, 1);
        assert_eq!(c.stats.demand_hits_pending, 1);
    }

    #[test]
    fn pending_hit_after_ready_uses_lookup_latency() {
        let mut c = small_cache();
        let b = BlockAddr::new(7);
        c.allocate_fill(b, 100, None);
        // Accessing at cycle 200, fill long since ready: latency-bound.
        match c.demand_access(b, 200, false) {
            Lookup::PendingHit { ready_at, .. } => assert_eq!(ready_at, 210),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache();
        // Set 0 holds blocks 0, 4, 8, ... (4 sets). Two ways.
        fill_now(&mut c, 0);
        fill_now(&mut c, 4);
        // Touch block 0 so block 4 is LRU.
        c.demand_access(BlockAddr::new(0), 10, false);
        c.allocate_fill(BlockAddr::new(8), 20, None);
        let ev = c.complete_fill(BlockAddr::new(8), false).expect("eviction");
        assert_eq!(ev.block, BlockAddr::new(4));
        assert!(c.probe(BlockAddr::new(0)));
        assert!(c.probe(BlockAddr::new(8)));
        assert!(!c.probe(BlockAddr::new(4)));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small_cache();
        fill_now(&mut c, 0);
        c.demand_access(BlockAddr::new(0), 0, true); // store -> dirty
        fill_now(&mut c, 4);
        c.allocate_fill(BlockAddr::new(8), 0, None);
        // LRU is block 0 only if untouched since; touch block 4.
        c.demand_access(BlockAddr::new(4), 5, false);
        let ev = c.complete_fill(BlockAddr::new(8), false).expect("eviction");
        assert_eq!(ev.block, BlockAddr::new(0));
        assert!(ev.dirty);
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn prefetch_useful_counted_once() {
        let mut c = small_cache();
        let b = BlockAddr::new(12);
        c.allocate_fill(b, 0, Some(CoreId(0)));
        c.complete_fill(b, false);
        c.demand_access(b, 10, false);
        c.demand_access(b, 20, false);
        assert_eq!(c.stats.pf_useful, 1);
        assert_eq!(c.stats.pf_useless, 0);
    }

    #[test]
    fn late_prefetch_counted_and_not_double_counted_as_useful() {
        let mut c = small_cache();
        let b = BlockAddr::new(12);
        c.allocate_fill(b, 100, Some(CoreId(0)));
        c.demand_access(b, 50, false); // merges with in-flight prefetch
        assert_eq!(c.stats.pf_late, 1);
        c.complete_fill(b, false);
        c.demand_access(b, 200, false);
        // Already demanded while pending; not counted useful again.
        assert_eq!(c.stats.pf_useful, 0);
        assert_eq!(c.stats.pf_late, 1);
    }

    #[test]
    fn unused_prefetch_eviction_is_useless() {
        let mut c = small_cache();
        c.allocate_fill(BlockAddr::new(0), 0, Some(CoreId(0)));
        c.complete_fill(BlockAddr::new(0), false);
        fill_now(&mut c, 4);
        c.allocate_fill(BlockAddr::new(8), 0, None);
        let ev = c.complete_fill(BlockAddr::new(8), false).expect("eviction");
        assert_eq!(ev.block, BlockAddr::new(0));
        assert!(ev.unused_prefetch);
        assert_eq!(c.stats.pf_useless, 1);
    }

    #[test]
    fn mshr_limits() {
        let mut c = small_cache();
        for i in 0..4 {
            assert!(c.mshr_available_for_demand());
            c.allocate_fill(BlockAddr::new(i * 4 + 1), 100, None);
        }
        assert!(!c.mshr_available_for_demand());
        assert_eq!(c.mshr_occupancy(), 4);
        // With 2 reserved slots, prefetches lose eligibility at occupancy 2.
        let mut c2 = small_cache();
        c2.allocate_fill(BlockAddr::new(1), 100, None);
        c2.allocate_fill(BlockAddr::new(2), 100, None);
        assert!(!c2.mshr_available_for_prefetch(2));
        assert!(c2.mshr_available_for_prefetch(1));
    }

    #[test]
    fn prefetches_in_flight_tracks_allocations_and_fills() {
        let mut c = small_cache();
        assert_eq!(c.prefetches_in_flight(), 0);
        c.allocate_fill(BlockAddr::new(1), 100, Some(CoreId(0)));
        c.allocate_fill(BlockAddr::new(2), 100, None);
        c.allocate_fill(BlockAddr::new(3), 100, Some(CoreId(0)));
        assert_eq!(c.prefetches_in_flight(), 2, "demand fills do not count");
        // A demand merging with an in-flight prefetch keeps the slot held.
        c.demand_access(BlockAddr::new(1), 50, false);
        assert_eq!(c.prefetches_in_flight(), 2);
        c.complete_fill(BlockAddr::new(1), false);
        assert_eq!(c.prefetches_in_flight(), 1);
        c.complete_fill(BlockAddr::new(2), false);
        assert_eq!(
            c.prefetches_in_flight(),
            1,
            "demand fill release is a no-op"
        );
        c.complete_fill(BlockAddr::new(3), false);
        assert_eq!(c.prefetches_in_flight(), 0);
    }

    #[test]
    fn bank_contention_serializes_same_cycle_lookups() {
        let mut c = small_cache(); // 1 bank
        let a = BlockAddr::new(0);
        let b = BlockAddr::new(1);
        fill_now(&mut c, 0);
        fill_now(&mut c, 1);
        let t1 = match c.demand_access(a, 100, false) {
            Lookup::Hit { ready_at, .. } => ready_at,
            _ => panic!(),
        };
        let t2 = match c.demand_access(b, 100, false) {
            Lookup::Hit { ready_at, .. } => ready_at,
            _ => panic!(),
        };
        assert_eq!(t1, 110);
        assert_eq!(t2, 111, "second same-cycle access waits one bank cycle");
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small_cache();
        fill_now(&mut c, 3);
        c.demand_access(BlockAddr::new(3), 0, true);
        assert_eq!(c.invalidate(BlockAddr::new(3)), Some(true));
        assert!(!c.probe(BlockAddr::new(3)));
        assert_eq!(c.invalidate(BlockAddr::new(3)), None);
    }

    #[test]
    fn fill_into_invalid_way_reports_no_eviction() {
        let mut c = small_cache();
        c.allocate_fill(BlockAddr::new(0), 0, None);
        assert!(c.complete_fill(BlockAddr::new(0), false).is_none());
    }

    #[test]
    fn complete_fill_for_unknown_block_is_none() {
        let mut c = small_cache();
        assert!(c.complete_fill(BlockAddr::new(99), false).is_none());
    }

    #[test]
    fn resident_line_count_tracks_fills() {
        let mut c = small_cache();
        for i in 0..8 {
            fill_now(&mut c, i);
        }
        assert_eq!(c.resident_lines(), 8); // exactly full: 4 sets x 2 ways
        fill_now(&mut c, 8);
        assert_eq!(c.resident_lines(), 8); // one eviction happened
    }
}
