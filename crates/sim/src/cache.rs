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
//! evicted untouched, or still resident and untouched at end of run, is
//! *useless* (an overprediction). The cache is the one record of each
//! prefetch: its pending fill and line remember the [`PrefetchOrigin`] (the
//! issuing core and the prediction source), handed back at each of those
//! three events, and the pending fill its issue cycle, reported when the
//! prefetch lands before any demand asked for it. Per-core throttling and
//! per-source telemetry thus need no side table.
//!
//! All metadata beyond the tag array is indexed by set. The MSHR file is
//! a slab of entries chained per set, so a lookup walks only its own
//! set's chain, which is empty for nearly every lookup. Each set's LRU
//! order is one recency word of a [`WayOrder`] (hence at most
//! [`MAX_WAYS`](crate::recency::MAX_WAYS) ways). A line is invalid only
//! until its set's first fills, which take the ways from the back of the
//! fresh order, lowest index first: the victim, the way at the back, is
//! the first invalid way by index, else the least recently touched.

use crate::addr::{BlockAddr, CoreId};
use crate::config::CacheConfig;
use crate::recency::WayOrder;
use crate::stats::CacheStats;
use crate::telemetry::{PrefetchSource, SOURCE_SLOTS};

/// Where a prefetch came from: the core whose prefetcher issued it and the
/// prediction event that produced it ([`PrefetchSource::Unattributed`]
/// unless telemetry is on).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PrefetchOrigin {
    /// The issuing core.
    pub core: CoreId,
    /// The prediction event.
    pub source: PrefetchSource,
}

/// Outcome of a demand lookup.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// The block is resident; data available at the contained cycle.
    Hit {
        /// Cycle at which the data is available to the requester.
        ready_at: u64,
        /// The prefetch's origin when this demand is the first touch of a
        /// prefetched line (the event counted as `pf_useful`).
        prefetch: Option<PrefetchOrigin>,
    },
    /// The block's fill is in flight (MSHR merge); data available when the
    /// fill lands.
    PendingHit {
        /// Cycle at which the in-flight fill completes.
        ready_at: u64,
        /// The prefetch's origin when this demand is the first to merge
        /// with an in-flight prefetch (the event counted as `pf_late`).
        prefetch: Option<PrefetchOrigin>,
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
    /// The origin of a line brought in by a prefetch and never demanded
    /// (the event counted as `pf_useless`).
    pub unused_prefetch: Option<PrefetchOrigin>,
}

/// What [`Cache::complete_fill`] did besides installing the line.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Landing {
    /// The line the fill displaced, if its set was full.
    pub evicted: Option<Evicted>,
    /// The issue cycle of a prefetch that landed before any demand merged
    /// with it.
    pub prefetch_issued: Option<u64>,
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
    /// The three spare high bits hold a prefetched line's source slot.
    pub const SOURCE_SHIFT: u32 = 5;
}

const _: () = assert!(SOURCE_SLOTS == 1 << (8 - flag::SOURCE_SHIFT));

/// The origin a line or pending fill records as an owner byte and a
/// source slot.
fn origin(owner: u8, slot: u8) -> PrefetchOrigin {
    PrefetchOrigin {
        core: CoreId(owner.into()),
        source: PrefetchSource::of_slot(slot.into()),
    }
}

#[derive(Copy, Clone, Debug)]
struct PendingFill {
    ready: u64,
    /// Issue cycle of a prefetch fill (0 for demand fills).
    issued: u64,
    prefetch: bool,
    /// Issuing core and source slot of a prefetch fill (0 for demand
    /// fills).
    owner: u8,
    source: u8,
    /// A demand merged with this fill while in flight.
    demanded: bool,
    /// A store targeted this block while in flight; the filled line must
    /// be installed dirty.
    dirty: bool,
}

/// One MSHR: a block in flight and its fill, linked into its set's chain
/// while pending and into the free list once landed.
#[derive(Copy, Clone, Debug)]
struct Mshr {
    block: u64,
    fill: PendingFill,
    /// Slab index + 1 of the next entry; 0 ends the chain.
    next: u32,
}

/// A set-associative, banked, write-back cache with a finite MSHR file.
///
/// The tag array is structure-of-arrays: every lookup's way scan walks a
/// dense `u64` tag slice (set *s* occupies indices `s*ways ..
/// (s+1)*ways`), touching the flag columns only on a match. Everything
/// else is per set: the LRU order is one word per set, and the MSHR file
/// is a slab of at most `mshrs` entries whose pending fills are chained
/// from a head per set, so no lookup hashes, probes or allocates.
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    tags: Vec<u64>,
    flags: Vec<u8>,
    /// Issuing core of each line filled by a prefetch; meaningful only
    /// while the line's `PREFETCHED` flag is set, like the source slot in
    /// the flags' high bits.
    owners: Vec<u8>,
    /// Each set's LRU order.
    order: WayOrder,
    set_mask: u64,
    /// `banks - 1` when the bank count is a power of two, letting
    /// [`Cache::bank_start`] — on the path retried every cycle by a
    /// stalled core — use a mask instead of an integer division.
    bank_mask: Option<u64>,
    /// MSHR entries; grows to at most the peak occupancy.
    slab: Vec<Mshr>,
    /// Slab index + 1 of each set's first pending fill; 0 when none.
    heads: Vec<u32>,
    /// Slab index + 1 of the first free slab entry; 0 when none.
    free: u32,
    /// Pending fills in the chains (the MSHR occupancy).
    pending: usize,
    /// In-flight fills allocated by prefetches (the prefetch-queue
    /// occupancy); maintained incrementally so the bounded-queue check is
    /// O(1) per candidate.
    pending_prefetches: usize,
    bank_free: Vec<u64>,
    /// Statistics; reset with [`Cache::reset_stats`].
    pub stats: CacheStats,
}

impl Cache {
    /// Creates a cache with the given geometry and LRU replacement.
    ///
    /// # Panics
    ///
    /// Panics if the configuration implies a non-power-of-two set count,
    /// or has no ways or more than [`MAX_WAYS`](crate::recency::MAX_WAYS).
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
            order: WayOrder::new(sets, cfg.ways),
            set_mask: sets as u64 - 1,
            bank_mask: cfg.banks.is_power_of_two().then(|| cfg.banks as u64 - 1),
            slab: Vec::with_capacity(cfg.mshrs),
            heads: vec![0; sets],
            free: 0,
            pending: 0,
            pending_prefetches: 0,
            bank_free: vec![0; cfg.banks],
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
        let set = self.set_index(block);
        if let Some(way) = self.find_way(set, block) {
            self.order.touch(set, way);
            let i = set * self.cfg.ways + way;
            let f = self.flags[i];
            let mut prefetch = None;
            if f & (flag::PREFETCHED | flag::DEMANDED) == flag::PREFETCHED {
                self.stats.pf_useful += 1;
                prefetch = Some(origin(self.owners[i], f >> flag::SOURCE_SHIFT));
            }
            self.flags[i] = f | flag::DEMANDED | if is_write { flag::DIRTY } else { 0 };
            self.stats.demand_hits += 1;
            return Lookup::Hit {
                ready_at: start + self.cfg.latency,
                prefetch,
            };
        }
        if let Some(slot) = self.find_pending(set, block) {
            let entry = &mut self.slab[slot].fill;
            let mut prefetch = None;
            if entry.prefetch && !entry.demanded {
                self.stats.pf_late += 1;
                prefetch = Some(origin(entry.owner, entry.source));
            }
            entry.demanded = true;
            entry.dirty |= is_write;
            self.stats.demand_hits_pending += 1;
            let ready_at = entry.ready.max(start + self.cfg.latency);
            return Lookup::PendingHit { ready_at, prefetch };
        }
        Lookup::Miss
    }

    /// Replays `k` consecutive missed-and-MSHR-stalled retry lookups of
    /// `block` in closed form, the first at cycle `first`. While the core
    /// sleeps its retry deterministically misses, so its only effects are
    /// the access and stall counters and the bank reservation — and the
    /// bank recurrence `free = max(t, free) + 1` over access times that
    /// start at `first` and grow by at most one per cycle collapses to
    /// `free = max(first, free) + k`.
    pub(crate) fn apply_missed_retries(&mut self, block: BlockAddr, first: u64, k: u64) {
        self.stats.demand_accesses += k;
        self.stats.demand_mshr_stalls += k;
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
        let set = self.set_index(block);
        self.find_pending(set, block).is_some() || self.find_way(set, block).is_some()
    }

    /// Way of the valid line holding `block` in `set`, if resident. Scans
    /// the set's dense tag slice; one slice bounds check, no per-way ones.
    #[inline]
    fn find_way(&self, set: usize, block: BlockAddr) -> Option<usize> {
        let base = set * self.cfg.ways;
        let end = base + self.cfg.ways;
        let tag = block.index();
        self.tags[base..end]
            .iter()
            .zip(&self.flags[base..end])
            .position(|(&t, &f)| t == tag && f & flag::VALID != 0)
    }

    /// The pending fills chained from `head`, with their slab indices.
    fn chain(&self, head: u32) -> impl Iterator<Item = (usize, &Mshr)> + '_ {
        let mut link = head;
        std::iter::from_fn(move || {
            let slot = link.checked_sub(1)? as usize;
            let entry = &self.slab[slot];
            link = entry.next;
            Some((slot, entry))
        })
    }

    /// Slab index of `block`'s pending fill in `set`'s chain, if any.
    #[inline]
    fn find_pending(&self, set: usize, block: BlockAddr) -> Option<usize> {
        let tag = block.index();
        self.chain(self.heads[set])
            .find(|(_, e)| e.block == tag)
            .map(|(slot, _)| slot)
    }

    /// Whether the MSHR file is consistent after a change to `set`'s
    /// chain: the free list and `pending` live entries partition the slab,
    /// and `set`'s chain holds exactly the live entries of `set`. No other
    /// chain changed, so every live entry is in its own set's chain. It
    /// walks the slab, not every set's head, so an audit build stays fast
    /// with an 8192-set LLC.
    #[cfg(any(test, feature = "audit"))]
    fn chains_are_consistent(&self, set: usize) -> bool {
        let len = self.slab.len();
        let mut free = vec![false; len];
        // Walks are bounded: a cycle shows as a duplicate or an overlong
        // chain.
        for (slot, _) in self.chain(self.free).take(len + 1) {
            if std::mem::replace(&mut free[slot], true) {
                return false;
            }
        }
        let in_set = |e: &Mshr| self.set_index(BlockAddr::new(e.block)) == set;
        let mut chained = 0;
        for (slot, e) in self.chain(self.heads[set]).take(len + 1) {
            if free[slot] || !in_set(e) {
                return false;
            }
            chained += 1;
        }
        let live = || (0..len).filter(|&slot| !free[slot]);
        live().count() == self.pending
            && live().filter(|&slot| in_set(&self.slab[slot])).count() == chained
    }

    /// Whether the block has an in-flight fill that was allocated by a
    /// prefetch and has not yet been demanded. An audit hook; does not
    /// disturb state or statistics.
    pub fn prefetch_pending(&self, block: BlockAddr) -> bool {
        self.find_pending(self.set_index(block), block)
            .is_some_and(|slot| {
                let e = &self.slab[slot].fill;
                e.prefetch && !e.demanded
            })
    }

    /// Ready cycle of the earliest in-flight fill, if any: a walk of every
    /// set's MSHR chain, the audit reference of the memory system's
    /// per-core list of L1 fill cycles.
    #[cfg(feature = "audit")]
    pub(crate) fn next_fill_ready(&self) -> Option<u64> {
        self.heads
            .iter()
            .flat_map(|&head| self.chain(head))
            .map(|(_, e)| e.fill.ready)
            .min()
    }

    /// Number of in-flight fills (MSHR occupancy).
    pub fn mshr_occupancy(&self) -> usize {
        self.pending
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
        self.pending < self.cfg.mshrs
    }

    /// Whether a prefetch may allocate an MSHR, leaving `reserved` slots for
    /// demands.
    pub fn mshr_available_for_prefetch(&self, reserved: usize) -> bool {
        self.pending + reserved < self.cfg.mshrs
    }

    /// Records an outstanding fill that will complete at cycle `ready`;
    /// `prefetch` holds a prefetch fill's origin and issue cycle, `None`
    /// for a demand fill.
    ///
    /// The caller must have verified MSHR availability and non-residency.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the block is already pending or resident,
    /// and in every build if the issuing core is not below
    /// [`MAX_PREFETCH_OWNERS`].
    pub fn allocate_fill(
        &mut self,
        block: BlockAddr,
        ready: u64,
        prefetch: Option<(PrefetchOrigin, u64)>,
    ) {
        debug_assert!(
            !self.probe(block),
            "allocate_fill for resident/pending {block:?}"
        );
        crate::audit_assert!(
            self.pending < self.cfg.mshrs,
            "MSHR occupancy invariant: allocate_fill at occupancy {} with only {} MSHRs",
            self.pending,
            self.cfg.mshrs
        );
        let (owner, source, issued) = prefetch.map_or((0, 0, 0), |(o, issued)| {
            let owner =
                u8::try_from(o.core.0).expect("prefetching core id exceeds MAX_PREFETCH_OWNERS");
            (owner, o.source.slot() as u8, issued)
        });
        let prefetch = prefetch.is_some();
        let set = self.set_index(block);
        let entry = Mshr {
            block: block.index(),
            fill: PendingFill {
                ready,
                issued,
                prefetch,
                owner,
                source,
                demanded: !prefetch,
                dirty: false,
            },
            next: self.heads[set],
        };
        self.heads[set] = match self.free.checked_sub(1) {
            Some(slot) => {
                let link = self.free;
                self.free = self.slab[slot as usize].next;
                self.slab[slot as usize] = entry;
                link
            }
            None => {
                self.slab.push(entry);
                u32::try_from(self.slab.len()).expect("MSHR slab index fits in u32")
            }
        };
        self.pending += 1;
        if prefetch {
            self.pending_prefetches += 1;
        }
        crate::audit_assert!(
            self.chains_are_consistent(set),
            "MSHR chain invariant: set {set}'s chain or the free list disagrees with {} pending fills after allocating {block:?}",
            self.pending
        );
    }

    /// Unlinks `block`'s pending fill from `set`'s chain onto the free
    /// list and returns it, if the block was pending.
    fn remove_pending(&mut self, set: usize, block: BlockAddr) -> Option<PendingFill> {
        let tag = block.index();
        let mut prev = 0;
        let mut link = self.heads[set];
        while let Some(slot) = link.checked_sub(1) {
            let Mshr { block, fill, next } = self.slab[slot as usize];
            if block == tag {
                match prev {
                    0 => self.heads[set] = next,
                    p => self.slab[p as usize - 1].next = next,
                }
                self.slab[slot as usize].next = self.free;
                self.free = link;
                self.pending -= 1;
                return Some(fill);
            }
            prev = link;
            link = next;
        }
        None
    }

    /// Marks an in-flight fill dirty (a store is merging into it); returns
    /// whether the block was pending.
    pub fn mark_pending_dirty(&mut self, block: BlockAddr) -> bool {
        match self.find_pending(self.set_index(block), block) {
            Some(slot) => {
                self.slab[slot].fill.dirty = true;
                true
            }
            None => false,
        }
    }

    /// Lands an in-flight fill: installs the line, dirty if a store merged
    /// with it in flight, selecting and returning a victim if the set was
    /// full, and reports a prefetch no demand has merged with yet.
    ///
    /// Reports nothing if the block was not pending.
    pub fn complete_fill(&mut self, block: BlockAddr) -> Landing {
        let set = self.set_index(block);
        let Some(entry) = self.remove_pending(set, block) else {
            return Landing::default();
        };
        crate::audit_assert!(
            self.chains_are_consistent(set),
            "MSHR chain invariant: set {set}'s chain or the free list disagrees with {} pending fills after landing {block:?}",
            self.pending
        );
        if entry.prefetch {
            self.pending_prefetches -= 1;
        }
        let ways = self.cfg.ways;
        let base = set * ways;
        // The back of the order: the first invalid way by index, else the
        // least recently touched.
        let way = self.order.back(set);
        let victim_idx = base + way;
        let vf = self.flags[victim_idx];
        crate::audit_assert!(
            vf & flag::VALID == 0
                || self.flags[base..base + ways]
                    .iter()
                    .all(|f| f & flag::VALID != 0),
            "victim invariant: set {set} evicts a valid line while it holds an invalid way"
        );
        let evicted = if vf & flag::VALID != 0 {
            self.stats.evictions += 1;
            let victim_dirty = vf & flag::DIRTY != 0;
            if victim_dirty {
                self.stats.writebacks += 1;
            }
            let unused_prefetch = (vf & (flag::PREFETCHED | flag::DEMANDED) == flag::PREFETCHED)
                .then(|| origin(self.owners[victim_idx], vf >> flag::SOURCE_SHIFT));
            self.stats.pf_useless += u64::from(unused_prefetch.is_some());
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
            | if entry.dirty { flag::DIRTY } else { 0 }
            | if entry.prefetch { flag::PREFETCHED } else { 0 }
            | if entry.demanded { flag::DEMANDED } else { 0 }
            | entry.source << flag::SOURCE_SHIFT;
        self.owners[victim_idx] = entry.owner;
        self.order.touch(set, way);
        Landing {
            evicted,
            prefetch_issued: (entry.prefetch && !entry.demanded).then_some(entry.issued),
        }
    }

    /// Marks a resident line dirty (used for writebacks arriving from an
    /// upper level). Returns `true` if the line was resident.
    pub fn mark_dirty(&mut self, block: BlockAddr) -> bool {
        let set = self.set_index(block);
        match self.find_way(set, block) {
            Some(way) => {
                self.flags[set * self.cfg.ways + way] |= flag::DIRTY;
                true
            }
            None => false,
        }
    }

    /// Settles as useless (`pf_useless`) every resident prefetched line
    /// that was filled during the measurement window and never demanded,
    /// handing its origin to `settle`. Each such line leaves the
    /// measurement window, so a second call settles it no more. The memory
    /// system calls it at end of simulation, so overprediction accounting
    /// does not depend on the cache filling up within the measurement
    /// window.
    pub fn settle_unused_prefetches(&mut self, mut settle: impl FnMut(PrefetchOrigin)) {
        const UNUSED: u8 = flag::VALID | flag::PREFETCHED | flag::MEASURED;
        for (f, &owner) in self.flags.iter_mut().zip(&self.owners) {
            if *f & (UNUSED | flag::DEMANDED) == UNUSED {
                *f &= !flag::MEASURED;
                self.stats.pf_useless += 1;
                settle(origin(owner, *f >> flag::SOURCE_SHIFT));
            }
        }
    }

    /// Number of valid resident lines (test/diagnostic helper).
    pub fn resident_lines(&self) -> usize {
        self.flags.iter().filter(|&&f| f & flag::VALID != 0).count()
    }

    /// Clears statistics, keeping cache contents (for warmup windows), and
    /// marks existing lines as pre-measurement so end-of-run accounting
    /// ([`Cache::settle_unused_prefetches`]) ignores them.
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
    use bingo_rng::rngs::SmallRng;
    use bingo_rng::{Rng, SeedableRng};
    use std::collections::HashMap;

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
        c.complete_fill(BlockAddr::new(block));
    }

    /// A prefetch fill's origin and issue cycle.
    fn pf(core: usize, source: PrefetchSource, issued: u64) -> Option<(PrefetchOrigin, u64)> {
        let origin = PrefetchOrigin {
            core: CoreId(core),
            source,
        };
        Some((origin, issued))
    }

    const UNATTRIBUTED: PrefetchSource = PrefetchSource::Unattributed;

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
        c.complete_fill(b);
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
        let ev = c
            .complete_fill(BlockAddr::new(8))
            .evicted
            .expect("eviction");
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
        let ev = c
            .complete_fill(BlockAddr::new(8))
            .evicted
            .expect("eviction");
        assert_eq!(ev.block, BlockAddr::new(0));
        assert!(ev.dirty);
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn prefetch_useful_counted_once() {
        let mut c = small_cache();
        let b = BlockAddr::new(12);
        c.allocate_fill(b, 30, pf(3, PrefetchSource::LongEvent, 5));
        let landing = c.complete_fill(b);
        assert_eq!(landing.prefetch_issued, Some(5), "landed undemanded");
        let origin = PrefetchOrigin {
            core: CoreId(3),
            source: PrefetchSource::LongEvent,
        };
        match c.demand_access(b, 40, false) {
            Lookup::Hit { prefetch, .. } => assert_eq!(prefetch, Some(origin)),
            other => panic!("expected hit, got {other:?}"),
        }
        match c.demand_access(b, 50, false) {
            Lookup::Hit { prefetch, .. } => assert_eq!(prefetch, None, "settled once"),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(c.stats.pf_useful, 1);
        assert_eq!(c.stats.pf_useless, 0);
    }

    #[test]
    fn late_prefetch_counted_and_not_double_counted_as_useful() {
        let mut c = small_cache();
        let b = BlockAddr::new(12);
        c.allocate_fill(b, 100, pf(1, PrefetchSource::CascadeLevel(2), 0));
        // Merges with the in-flight prefetch.
        match c.demand_access(b, 50, false) {
            Lookup::PendingHit { prefetch, .. } => assert_eq!(
                prefetch.map(|o| (o.core, o.source)),
                Some((CoreId(1), PrefetchSource::CascadeLevel(2)))
            ),
            other => panic!("expected pending hit, got {other:?}"),
        }
        assert_eq!(c.stats.pf_late, 1);
        assert_eq!(
            c.complete_fill(b).prefetch_issued,
            None,
            "a demanded prefetch settled at the merge"
        );
        c.demand_access(b, 200, false);
        // Already demanded while pending; not counted useful again.
        assert_eq!(c.stats.pf_useful, 0);
        assert_eq!(c.stats.pf_late, 1);
    }

    #[test]
    fn unused_prefetch_eviction_is_useless() {
        let mut c = small_cache();
        c.allocate_fill(BlockAddr::new(0), 0, pf(2, PrefetchSource::ShortVote, 0));
        c.complete_fill(BlockAddr::new(0));
        fill_now(&mut c, 4);
        c.allocate_fill(BlockAddr::new(8), 0, None);
        let landing = c.complete_fill(BlockAddr::new(8));
        assert_eq!(landing.prefetch_issued, None, "a demand fill");
        let ev = landing.evicted.expect("eviction");
        assert_eq!(ev.block, BlockAddr::new(0));
        assert_eq!(
            ev.unused_prefetch.map(|o| (o.core, o.source)),
            Some((CoreId(2), PrefetchSource::ShortVote))
        );
        assert_eq!(c.stats.pf_useless, 1);
    }

    #[test]
    fn settling_unused_prefetches_consumes_them() {
        let mut c = small_cache();
        // Filled before the reset: pre-measurement, never settled.
        c.allocate_fill(BlockAddr::new(0), 0, pf(0, UNATTRIBUTED, 0));
        c.complete_fill(BlockAddr::new(0));
        c.reset_stats();
        c.allocate_fill(BlockAddr::new(1), 0, pf(1, PrefetchSource::LongEvent, 0));
        c.complete_fill(BlockAddr::new(1));
        // Demanded: settled as useful, not at the fold.
        c.allocate_fill(BlockAddr::new(2), 0, pf(1, UNATTRIBUTED, 0));
        c.complete_fill(BlockAddr::new(2));
        c.demand_access(BlockAddr::new(2), 10, false);
        let mut settled = Vec::new();
        c.settle_unused_prefetches(|o| settled.push((o.core, o.source)));
        assert_eq!(settled, vec![(CoreId(1), PrefetchSource::LongEvent)]);
        assert_eq!(c.stats.pf_useless, 1);
        c.settle_unused_prefetches(|_| panic!("settled twice"));
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
        c.allocate_fill(BlockAddr::new(1), 100, pf(0, UNATTRIBUTED, 0));
        c.allocate_fill(BlockAddr::new(2), 100, None);
        c.allocate_fill(BlockAddr::new(3), 100, pf(0, UNATTRIBUTED, 0));
        assert_eq!(c.prefetches_in_flight(), 2, "demand fills do not count");
        // A demand merging with an in-flight prefetch keeps the slot held.
        c.demand_access(BlockAddr::new(1), 50, false);
        assert_eq!(c.prefetches_in_flight(), 2);
        c.complete_fill(BlockAddr::new(1));
        assert_eq!(c.prefetches_in_flight(), 1);
        c.complete_fill(BlockAddr::new(2));
        assert_eq!(
            c.prefetches_in_flight(),
            1,
            "demand fill release is a no-op"
        );
        c.complete_fill(BlockAddr::new(3));
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
    fn fill_into_invalid_way_reports_no_eviction() {
        let mut c = small_cache();
        c.allocate_fill(BlockAddr::new(0), 0, None);
        assert!(c.complete_fill(BlockAddr::new(0)).evicted.is_none());
    }

    #[test]
    fn complete_fill_for_unknown_block_is_none() {
        let mut c = small_cache();
        assert_eq!(c.complete_fill(BlockAddr::new(99)), Landing::default());
    }

    #[test]
    #[should_panic(expected = "orders 1 to 16 ways")]
    fn more_than_sixteen_ways_rejected() {
        Cache::new(CacheConfig {
            size_bytes: 17 * 64,
            ways: 17,
            latency: 1,
            mshrs: 1,
            banks: 1,
        });
    }

    /// A line of [`StampedCache`].
    #[derive(Copy, Clone, Debug, Default)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        prefetched: bool,
        demanded: bool,
        measured: bool,
        owner: u8,
        source: u8,
        /// Stamp of the line's last fill or hit; 0 while invalid.
        last_touch: u64,
    }

    /// The cache as it was before its metadata became per set, kept as the
    /// reference of `matches_stamped_reference_on_random_streams`: a `u64`
    /// stamp per line drawn from a counter that every lookup and fill
    /// advances, the victim `min_by_key(last_touch)` (an invalid line's
    /// stamp is 0, so the first invalid way wins), and a `HashMap` MSHR
    /// file.
    struct StampedCache {
        cfg: CacheConfig,
        lines: Vec<Line>,
        pending: HashMap<u64, PendingFill>,
        bank_free: Vec<u64>,
        stamp: u64,
        stats: CacheStats,
    }

    impl StampedCache {
        fn new(cfg: CacheConfig) -> Self {
            StampedCache {
                cfg,
                lines: vec![Line::default(); cfg.sets() * cfg.ways],
                pending: HashMap::new(),
                bank_free: vec![0; cfg.banks],
                stamp: 0,
                stats: CacheStats::default(),
            }
        }

        fn set(&self, block: BlockAddr) -> std::ops::Range<usize> {
            let base = (block.index() % self.cfg.sets() as u64) as usize * self.cfg.ways;
            base..base + self.cfg.ways
        }

        fn find(&self, block: BlockAddr) -> Option<usize> {
            self.set(block)
                .find(|&i| self.lines[i].valid && self.lines[i].tag == block.index())
        }

        fn bank(&self, block: BlockAddr) -> usize {
            (block.index() % self.cfg.banks as u64) as usize
        }

        fn demand_access(&mut self, block: BlockAddr, now: u64, is_write: bool) -> Lookup {
            self.stats.demand_accesses += 1;
            let bank = self.bank(block);
            let start = now.max(self.bank_free[bank]);
            self.bank_free[bank] = start + 1;
            self.stamp += 1;
            if let Some(i) = self.find(block) {
                let line = &mut self.lines[i];
                line.last_touch = self.stamp;
                let mut prefetch = None;
                if line.prefetched && !line.demanded {
                    self.stats.pf_useful += 1;
                    prefetch = Some(origin(line.owner, line.source));
                }
                line.demanded = true;
                line.dirty |= is_write;
                self.stats.demand_hits += 1;
                return Lookup::Hit {
                    ready_at: start + self.cfg.latency,
                    prefetch,
                };
            }
            if let Some(entry) = self.pending.get_mut(&block.index()) {
                let mut prefetch = None;
                if entry.prefetch && !entry.demanded {
                    self.stats.pf_late += 1;
                    prefetch = Some(origin(entry.owner, entry.source));
                }
                entry.demanded = true;
                entry.dirty |= is_write;
                self.stats.demand_hits_pending += 1;
                return Lookup::PendingHit {
                    ready_at: entry.ready.max(start + self.cfg.latency),
                    prefetch,
                };
            }
            Lookup::Miss
        }

        fn apply_missed_retries(&mut self, block: BlockAddr, first: u64, k: u64) {
            for t in first..first + k {
                assert_eq!(self.demand_access(block, t, false), Lookup::Miss);
                self.stats.demand_mshr_stalls += 1;
            }
        }

        fn probe(&self, block: BlockAddr) -> bool {
            self.pending.contains_key(&block.index()) || self.find(block).is_some()
        }

        fn prefetch_pending(&self, block: BlockAddr) -> bool {
            self.pending
                .get(&block.index())
                .is_some_and(|e| e.prefetch && !e.demanded)
        }

        fn prefetches_in_flight(&self) -> usize {
            self.pending.values().filter(|e| e.prefetch).count()
        }

        fn allocate_fill(
            &mut self,
            block: BlockAddr,
            ready: u64,
            prefetch: Option<(PrefetchOrigin, u64)>,
        ) {
            let fill = PendingFill {
                ready,
                issued: prefetch.map_or(0, |(_, issued)| issued),
                prefetch: prefetch.is_some(),
                owner: prefetch.map_or(0, |(o, _)| o.core.0 as u8),
                source: prefetch.map_or(0, |(o, _)| o.source.slot() as u8),
                demanded: prefetch.is_none(),
                dirty: false,
            };
            assert!(self.pending.insert(block.index(), fill).is_none());
        }

        fn mark_pending_dirty(&mut self, block: BlockAddr) -> bool {
            self.pending
                .get_mut(&block.index())
                .map(|e| e.dirty = true)
                .is_some()
        }

        fn complete_fill(&mut self, block: BlockAddr) -> Landing {
            let Some(entry) = self.pending.remove(&block.index()) else {
                return Landing::default();
            };
            self.stamp += 1;
            let victim = self
                .set(block)
                .min_by_key(|&i| self.lines[i].last_touch)
                .expect("sets are never empty");
            let old = self.lines[victim];
            let evicted = old.valid.then(|| {
                self.stats.evictions += 1;
                self.stats.writebacks += u64::from(old.dirty);
                let unused_prefetch =
                    (old.prefetched && !old.demanded).then(|| origin(old.owner, old.source));
                self.stats.pf_useless += u64::from(unused_prefetch.is_some());
                Evicted {
                    block: BlockAddr::new(old.tag),
                    dirty: old.dirty,
                    unused_prefetch,
                }
            });
            self.lines[victim] = Line {
                tag: block.index(),
                valid: true,
                dirty: entry.dirty,
                prefetched: entry.prefetch,
                demanded: entry.demanded,
                measured: true,
                owner: entry.owner,
                source: entry.source,
                last_touch: self.stamp,
            };
            Landing {
                evicted,
                prefetch_issued: (entry.prefetch && !entry.demanded).then_some(entry.issued),
            }
        }

        fn mark_dirty(&mut self, block: BlockAddr) -> bool {
            self.find(block)
                .map(|i| self.lines[i].dirty = true)
                .is_some()
        }

        fn settle_unused_prefetches(&mut self, mut settle: impl FnMut(PrefetchOrigin)) {
            for l in &mut self.lines {
                if l.valid && l.prefetched && !l.demanded && l.measured {
                    l.measured = false;
                    self.stats.pf_useless += 1;
                    settle(origin(l.owner, l.source));
                }
            }
        }

        fn resident_lines(&self) -> usize {
            self.lines.iter().filter(|l| l.valid).count()
        }

        fn reset_stats(&mut self) {
            self.stats = CacheStats::default();
            for line in &mut self.lines {
                line.measured = false;
            }
        }
    }

    /// Whether a lookup of `block` walks past the head of its set's MSHR
    /// chain: the chain is not empty and does not start with `block`.
    fn walks_past_head(c: &Cache, block: BlockAddr) -> bool {
        c.chain(c.heads[c.set_index(block)])
            .next()
            .is_some_and(|(_, e)| e.block != block.index())
    }

    #[test]
    fn matches_stamped_reference_on_random_streams() {
        let mut rng = SmallRng::seed_from_u64(0x5e7_c4a1);
        for (ways, banks) in [(1usize, 1usize), (2, 3), (8, 2), (16, 4)] {
            // Four sets and 24 MSHRs: chains several fills long form.
            let cfg = CacheConfig {
                size_bytes: 4 * ways as u64 * 64,
                ways,
                latency: 3,
                mshrs: 24,
                banks,
            };
            let (mut fast, mut reference) = (Cache::new(cfg), StampedCache::new(cfg));
            let mut pending: Vec<BlockAddr> = Vec::new();
            // Lookups that walk past a chain head, and fills into a set
            // holding both valid and invalid ways: the cases the chains
            // and the recency word could get wrong.
            let (mut past_head, mut into_holes, mut settled) = (0, 0, 0);
            let partly_valid = |reference: &StampedCache, b: BlockAddr| {
                let valid = reference.set(b).filter(|&i| reference.lines[i].valid);
                reference.pending.contains_key(&b.index()) && (1..ways).contains(&valid.count())
            };
            // Four times the capacity: sets fill, then evict.
            let blocks = 16 * ways as u64;
            for step in 0..20_000u64 {
                let block = BlockAddr::new(rng.gen_range(0..blocks));
                let ctx = format!("step {step}, {ways} ways");
                let op = rng.gen_range(0..20u32);
                if matches!(op, 0..=5 | 10..=13) {
                    past_head += usize::from(walks_past_head(&fast, block));
                }
                match op {
                    0..=4 => {
                        let is_write = rng.gen_bool(0.3);
                        assert_eq!(
                            fast.demand_access(block, step, is_write),
                            reference.demand_access(block, step, is_write),
                            "{ctx}"
                        );
                    }
                    5 => assert_eq!(fast.probe(block), reference.probe(block), "{ctx}"),
                    6..=9 => {
                        if !fast.probe(block) && fast.mshr_available_for_demand() {
                            let prefetch = rng.gen_bool(0.5).then(|| {
                                let origin = PrefetchOrigin {
                                    core: CoreId(rng.gen_range(0..4usize)),
                                    source: PrefetchSource::of_slot(rng.gen_range(0..SOURCE_SLOTS)),
                                };
                                (origin, step)
                            });
                            fast.allocate_fill(block, step + 50, prefetch);
                            reference.allocate_fill(block, step + 50, prefetch);
                            pending.push(block);
                        }
                    }
                    10 => assert_eq!(
                        fast.prefetch_pending(block),
                        reference.prefetch_pending(block),
                        "{ctx}"
                    ),
                    11 => assert_eq!(
                        fast.mark_pending_dirty(block),
                        reference.mark_pending_dirty(block),
                        "{ctx}"
                    ),
                    12 => {
                        // Usually a block absent from the MSHR file.
                        into_holes += usize::from(partly_valid(&reference, block));
                        assert_eq!(
                            fast.complete_fill(block),
                            reference.complete_fill(block),
                            "{ctx}"
                        );
                        pending.retain(|&b| b != block);
                    }
                    13..=16 => {
                        if !pending.is_empty() {
                            let b = pending.swap_remove(rng.gen_range(0..pending.len()));
                            past_head += usize::from(walks_past_head(&fast, b));
                            into_holes += usize::from(partly_valid(&reference, b));
                            assert_eq!(fast.complete_fill(b), reference.complete_fill(b), "{ctx}");
                        }
                    }
                    17 | 18 => assert_eq!(fast.mark_dirty(block), reference.mark_dirty(block)),
                    _ => {
                        if rng.gen_bool(0.01) {
                            assert_eq!(fast.stats, reference.stats, "{ctx}");
                            fast.reset_stats();
                            reference.reset_stats();
                        } else if rng.gen_bool(0.01) {
                            let (mut a, mut b) = (Vec::new(), Vec::new());
                            fast.settle_unused_prefetches(|o| a.push(o));
                            reference.settle_unused_prefetches(|o| b.push(o));
                            assert_eq!(a, b, "{ctx}");
                            settled += a.len();
                        } else if !fast.probe(block) {
                            let k = rng.gen_range(1..4u64);
                            fast.apply_missed_retries(block, step, k);
                            reference.apply_missed_retries(block, step, k);
                        }
                    }
                }
                assert_eq!(fast.mshr_occupancy(), reference.pending.len(), "{ctx}");
                assert_eq!(
                    fast.prefetches_in_flight(),
                    reference.prefetches_in_flight(),
                    "{ctx}"
                );
                assert_eq!(fast.resident_lines(), reference.resident_lines(), "{ctx}");
                assert!(
                    (0..4)
                        .all(|set| fast.chains_are_consistent(set)
                            && fast.order.set_is_permutation(set)),
                    "{ctx}"
                );
            }
            assert_eq!(fast.stats, reference.stats, "{ways} ways");
            assert!(
                past_head > 100,
                "{ways} ways: only {past_head} lookups walked past a chain head"
            );
            assert!(settled > 0, "{ways} ways: no unused prefetch settled");
            // No line turns invalid again, so exactly the first fills of
            // each set land beside invalid ways.
            assert_eq!(
                into_holes,
                4 * (ways - 1),
                "{ways} ways: fills into partly valid sets"
            );
        }
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
