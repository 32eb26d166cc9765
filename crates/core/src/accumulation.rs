//! The accumulation structures: Bingo's "small auxiliary storage" that
//! records spatial patterns while the processor actively accesses a region
//! (Section IV), organized as in SMS:
//!
//! * a **filter table** holds regions that have seen only their trigger
//!   access so far — single-access regions (pointer chases, random reads)
//!   churn here without disturbing patterns under construction;
//! * the **accumulation table** holds regions with at least two accesses
//!   and collects their footprints until the end of residency.
//!
//! A residency ends when a block of the region is evicted from the cache,
//! or early when the accumulation table overflows; either way the recorded
//! pattern is handed to the history table for training.

use bingo_sim::{AccessInfo, OpenMap, RecencyList, RegionGeometry, RegionId};

use crate::event::EventKind;
use crate::footprint::Footprint;

/// A completed (or force-ended) region residency: the trigger information
/// plus the accumulated footprint, ready for history training.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Residency {
    /// Region observed.
    pub region: RegionId,
    /// PC of the trigger access.
    pub trigger_pc: u64,
    /// Block index of the trigger access.
    pub trigger_block: u64,
    /// In-region offset of the trigger access.
    pub trigger_offset: u32,
    /// Blocks touched during the residency (always includes the trigger).
    pub footprint: Footprint,
}

impl Residency {
    /// The event key of the given kind for this residency's trigger.
    pub fn key(&self, kind: EventKind) -> u64 {
        kind.key_parts(
            self.trigger_pc,
            self.trigger_block,
            self.trigger_offset as u64,
        )
    }
}

/// Where a live region's residency sits: which list, and its slot there.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Loc {
    Filter(u32),
    Accumulating(u32),
}

/// Result of observing one access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Observation {
    /// Whether this access was the region's trigger (first access of a new
    /// residency) — the moment the prefetcher makes its prediction.
    pub trigger: bool,
    /// A residency evicted by accumulation-table overflow, ready for early
    /// training.
    pub evicted: Option<Residency>,
}

/// Filter table + LRU accumulation table.
///
/// One region index maps every live region to its list and slot, and two
/// [`RecencyList`]s hold the residencies: the filter in insertion order
/// and the accumulation table in touch order. Every LLC eviction asks
/// whether its region is live, and almost none is, so a miss must be
/// cheap: the index is sized for a load of at most 1/4, where a miss
/// usually ends at the first empty slot. Each overflow victim is the
/// tail of its list.
#[derive(Debug)]
pub struct AccumulationTable {
    index: OpenMap<Loc>,
    filter: RecencyList<Residency>,
    accumulating: RecencyList<Residency>,
    geometry: RegionGeometry,
}

impl AccumulationTable {
    /// Creates a table tracking up to `capacity` concurrent multi-access
    /// residencies (plus an equally-sized filter for single-access
    /// regions) over regions of `geometry`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or a region holds more than 64 blocks.
    pub fn new(capacity: usize, geometry: RegionGeometry) -> Self {
        assert!(capacity > 0, "accumulation table needs capacity");
        let region_blocks = geometry.blocks_per_region();
        assert!(
            (1..=64).contains(&region_blocks),
            "region blocks {region_blocks} out of range"
        );
        let filter_capacity = capacity.max(8);
        AccumulationTable {
            // `OpenMap` keeps its load at most 1/2 of the capacity asked
            // for; asking for twice the live bound keeps it at most 1/4.
            index: OpenMap::with_capacity(2 * (capacity + filter_capacity)),
            filter: RecencyList::with_capacity(filter_capacity),
            accumulating: RecencyList::with_capacity(capacity),
            geometry,
        }
    }

    /// Number of live multi-access residencies.
    pub fn len(&self) -> usize {
        self.accumulating.len()
    }

    /// Whether no multi-access residency is live.
    pub fn is_empty(&self) -> bool {
        self.accumulating.is_empty()
    }

    /// Number of single-access regions currently in the filter.
    pub fn filter_len(&self) -> usize {
        self.filter.len()
    }

    /// Observes a demand access. Returns whether it triggered a new
    /// residency and any residency evicted by overflow (for early
    /// training).
    pub fn observe(&mut self, info: &AccessInfo) -> Observation {
        bingo_sim::audit_assert!(
            self.len() <= self.accumulating.capacity()
                && self.filter_len() <= self.filter.capacity(),
            "accumulation occupancy invariant: {} slots (cap {}), {} filtered (cap {})",
            self.len(),
            self.accumulating.capacity(),
            self.filter_len(),
            self.filter.capacity()
        );
        bingo_sim::audit_assert!(
            self.index.len() == self.len() + self.filter_len(),
            "accumulation index holds {} regions for {} slots + {} filtered",
            self.index.len(),
            self.len(),
            self.filter_len()
        );
        let region = self.geometry.region_of(info.block);
        let offset = self.geometry.offset_of(info.block);
        match self.index.get(region.raw()).copied() {
            // Already promoted: extend the footprint.
            Some(Loc::Accumulating(slot)) => {
                let slot = slot as usize;
                self.accumulating.get_mut(slot).footprint.set(offset);
                self.accumulating.touch(slot);
                Observation {
                    trigger: false,
                    evicted: None,
                }
            }
            // Second access to a filtered region: promote to accumulation.
            Some(Loc::Filter(slot)) => {
                let mut residency = self.filter.remove(slot as usize);
                residency.footprint.set(offset);
                let evicted = if self.accumulating.is_full() {
                    let victim = self.accumulating.pop_back().expect("full list has a tail");
                    self.index.remove(victim.region.raw());
                    Some(victim)
                } else {
                    None
                };
                let slot = self.accumulating.push_front(residency) as u32;
                self.index.insert(region.raw(), Loc::Accumulating(slot));
                Observation {
                    trigger: false,
                    evicted,
                }
            }
            // Trigger access: new residency enters the filter.
            None => {
                if self.filter.is_full() {
                    // Single-access regions carry no spatial pattern; the
                    // oldest is silently dropped (it would not pass
                    // training anyway).
                    let oldest = self.filter.pop_back().expect("full list has a tail");
                    self.index.remove(oldest.region.raw());
                }
                let mut footprint = Footprint::empty(self.geometry.blocks_per_region() as u32);
                footprint.set(offset);
                let slot = self.filter.push_front(Residency {
                    region,
                    trigger_pc: info.pc.raw(),
                    trigger_block: info.block.index(),
                    trigger_offset: offset,
                    footprint,
                }) as u32;
                self.index.insert(region.raw(), Loc::Filter(slot));
                Observation {
                    trigger: true,
                    evicted: None,
                }
            }
        }
    }

    /// Ends the residency of `region`, if live in either structure,
    /// returning it for training.
    pub fn end_residency(&mut self, region: RegionId) -> Option<Residency> {
        Some(match self.index.remove(region.raw())? {
            Loc::Filter(slot) => self.filter.remove(slot as usize),
            Loc::Accumulating(slot) => self.accumulating.remove(slot as usize),
        })
    }

    /// Storage cost in bits of a table of `capacity` slots over
    /// `region_blocks`-block regions: per slot a region tag (~36 b),
    /// trigger PC (16 b hashed), trigger offset, footprint, and LRU stamp
    /// (8 b); the filter stores the same minus the footprint.
    pub fn storage_bits_for(capacity: usize, region_blocks: u32) -> u64 {
        let filter_capacity = capacity.max(8);
        let offset_bits = 64 - (region_blocks as u64 - 1).leading_zeros() as u64;
        let acc = capacity as u64 * (36 + 16 + offset_bits + region_blocks as u64 + 8);
        let filter = filter_capacity as u64 * (36 + 16 + offset_bits + 8);
        acc + filter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_sim::{BlockAddr, Pc};

    fn info(pc: u64, block: u64) -> AccessInfo {
        AccessInfo::demand(Pc::new(pc), BlockAddr::new(block), 0)
    }

    /// A table over the paper's 2 KB (32-block) regions.
    fn table(capacity: usize) -> AccumulationTable {
        AccumulationTable::new(capacity, RegionGeometry::default())
    }

    #[test]
    fn trigger_then_record_builds_footprint() {
        let mut t = table(4);
        let o = t.observe(&info(0x400, 32 * 5 + 3));
        assert!(o.trigger);
        assert!(!t.observe(&info(0x404, 32 * 5 + 7)).trigger);
        assert!(!t.observe(&info(0x408, 32 * 5 + 3)).trigger);
        let res = t.end_residency(RegionId::new(5)).expect("live residency");
        assert_eq!(res.trigger_pc, 0x400);
        assert_eq!(res.trigger_offset, 3);
        assert_eq!(res.footprint.iter().collect::<Vec<_>>(), vec![3, 7]);
        assert!(t.is_empty());
    }

    #[test]
    fn end_residency_of_untracked_region_is_none() {
        let mut t = table(4);
        assert!(t.end_residency(RegionId::new(9)).is_none());
    }

    #[test]
    fn single_access_regions_stay_in_filter() {
        let mut t = table(4);
        t.observe(&info(0x1, 32));
        assert_eq!(t.filter_len(), 1);
        assert!(t.is_empty(), "no promotion on first access");
    }

    #[test]
    fn second_access_promotes_to_accumulation() {
        let mut t = table(4);
        t.observe(&info(0x1, 32));
        t.observe(&info(0x1, 33));
        assert_eq!(t.filter_len(), 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn filter_floods_do_not_disturb_accumulated_residencies() {
        let mut t = table(2);
        // Build a 2-access residency in region 0.
        t.observe(&info(0xA, 0));
        t.observe(&info(0xA, 1));
        // Flood with 100 single-access regions (chase-like traffic).
        for r in 10..110u64 {
            t.observe(&info(0xB, r * 32));
        }
        // The accumulated residency is intact.
        let res = t.end_residency(RegionId::new(0)).expect("survives flood");
        assert_eq!(res.footprint.iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn overflow_evicts_lru_promoted_residency() {
        let mut t = table(2);
        // Three promoted residencies; capacity 2.
        t.observe(&info(0x1, 32));
        t.observe(&info(0x1, 33));
        t.observe(&info(0x2, 64));
        t.observe(&info(0x2, 65));
        // Touch region 1 so region 2 becomes LRU.
        t.observe(&info(0x1, 34));
        t.observe(&info(0x3, 96));
        let o = t.observe(&info(0x3, 97)); // promotion overflows
        let evicted = o.evicted.expect("eviction on overflow");
        assert_eq!(evicted.region, RegionId::new(2));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn distinct_regions_tracked_independently() {
        let mut t = table(8);
        t.observe(&info(0xA, 0));
        t.observe(&info(0xB, 32));
        t.observe(&info(0xA, 1));
        t.observe(&info(0xB, 40));
        let a = t.end_residency(RegionId::new(0)).unwrap();
        let b = t.end_residency(RegionId::new(1)).unwrap();
        assert_eq!(a.footprint.iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(b.footprint.iter().collect::<Vec<_>>(), vec![0, 8]);
    }

    #[test]
    fn residency_event_keys_match_trigger_access() {
        let mut t = table(4);
        let trigger = info(0x400, 32 * 5 + 3);
        t.observe(&trigger);
        let g = RegionGeometry::default();
        let res = t.end_residency(g.region_of(trigger.block)).unwrap();
        for kind in EventKind::LONGEST_FIRST {
            assert_eq!(res.key(kind), kind.key_of(&trigger, g), "{kind}");
        }
    }

    #[test]
    fn end_residency_finds_filtered_regions_too() {
        let mut t = table(4);
        t.observe(&info(0x1, 32));
        let res = t.end_residency(RegionId::new(1)).expect("in filter");
        assert_eq!(res.footprint.count(), 1);
    }

    #[test]
    fn storage_bits_scales_with_capacity() {
        let small = AccumulationTable::storage_bits_for(32, 32);
        let large = AccumulationTable::storage_bits_for(64, 32);
        assert!(large > small);
        assert!(small > 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = table(0);
    }

    /// The scan-based table the index replaced: linear region probes over
    /// both tables, and each overflow victim found by
    /// `min_by_key(last_touch)`.
    struct ScanReference {
        filter: Vec<(Residency, u64)>,
        slots: Vec<(Residency, u64)>,
        filter_capacity: usize,
        capacity: usize,
        geometry: RegionGeometry,
        stamp: u64,
    }

    impl ScanReference {
        fn new(capacity: usize, geometry: RegionGeometry) -> Self {
            ScanReference {
                filter: Vec::new(),
                slots: Vec::new(),
                filter_capacity: capacity.max(8),
                capacity,
                geometry,
                stamp: 0,
            }
        }

        fn oldest(entries: &[(Residency, u64)]) -> usize {
            let (idx, _) = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, last_touch))| *last_touch)
                .expect("full table is non-empty");
            idx
        }

        fn observe(&mut self, info: &AccessInfo) -> Observation {
            self.stamp += 1;
            let stamp = self.stamp;
            let region = self.geometry.region_of(info.block);
            let offset = self.geometry.offset_of(info.block);
            if let Some(slot) = self.slots.iter_mut().find(|(r, _)| r.region == region) {
                slot.0.footprint.set(offset);
                slot.1 = stamp;
                return Observation {
                    trigger: false,
                    evicted: None,
                };
            }
            if let Some(i) = self.filter.iter().position(|(r, _)| r.region == region) {
                let (mut residency, _) = self.filter.swap_remove(i);
                residency.footprint.set(offset);
                let evicted = (self.slots.len() >= self.capacity)
                    .then(|| self.slots.swap_remove(Self::oldest(&self.slots)).0);
                self.slots.push((residency, stamp));
                return Observation {
                    trigger: false,
                    evicted,
                };
            }
            let mut footprint = Footprint::empty(self.geometry.blocks_per_region() as u32);
            footprint.set(offset);
            if self.filter.len() >= self.filter_capacity {
                self.filter.swap_remove(Self::oldest(&self.filter));
            }
            let residency = Residency {
                region,
                trigger_pc: info.pc.raw(),
                trigger_block: info.block.index(),
                trigger_offset: offset,
                footprint,
            };
            self.filter.push((residency, stamp));
            Observation {
                trigger: true,
                evicted: None,
            }
        }

        fn end_residency(&mut self, region: RegionId) -> Option<Residency> {
            if let Some(i) = self.slots.iter().position(|(r, _)| r.region == region) {
                return Some(self.slots.swap_remove(i).0);
            }
            let i = self.filter.iter().position(|(r, _)| r.region == region)?;
            Some(self.filter.swap_remove(i).0)
        }
    }

    #[test]
    fn matches_scan_reference_on_random_streams() {
        use bingo_rng::rngs::SmallRng;
        use bingo_rng::{Rng, SeedableRng};

        let geometry = RegionGeometry::default();
        let blocks = geometry.blocks_per_region() as u64;
        let mut rng = SmallRng::seed_from_u64(0xACC0_7AB1);
        for capacity in [1usize, 2, 3, 8, 64] {
            let live_bound = (capacity + capacity.max(8)) as u64;
            // A span inside the filter's reach promotes most regions and
            // keeps residencies alive; one past both tables' bounds forces
            // overflow in both lists; a wide span churns the filter.
            for span in [capacity as u64 + 2, live_bound + 3, 8 * live_bound] {
                let mut fast = AccumulationTable::new(capacity, geometry);
                let mut slow = ScanReference::new(capacity, geometry);
                for step in 0..6_000 {
                    let region = rng.gen_range(0..span);
                    if rng.gen_bool(0.3) {
                        // End-of-residency, for live and untracked regions.
                        let region = RegionId::new(region);
                        assert_eq!(
                            fast.end_residency(region),
                            slow.end_residency(region),
                            "step {step}: end_residency({region:?}), capacity {capacity}, span {span}"
                        );
                    } else {
                        let block = region * blocks + rng.gen_range(0..blocks);
                        let access = info(0x400 + rng.gen_range(0..4u64) * 4, block);
                        assert_eq!(
                            fast.observe(&access),
                            slow.observe(&access),
                            "step {step}: observe(block {block:#x}), capacity {capacity}, span {span}"
                        );
                    }
                    assert_eq!(fast.len(), slow.slots.len(), "step {step}: len");
                    assert_eq!(
                        fast.filter_len(),
                        slow.filter.len(),
                        "step {step}: filter_len"
                    );
                }
            }
        }
    }
}
