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

use bingo_sim::{AccessInfo, RegionGeometry, RegionId};

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

#[derive(Copy, Clone, Debug)]
struct Slot {
    residency: Residency,
    last_touch: u64,
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
/// Each table keeps a dense column of region keys parallel to its slot
/// vector: the membership scan that runs on every access walks only the
/// key column, and the wide slot data is touched on a match. The columns
/// move in lockstep (every push / `swap_remove` is mirrored).
#[derive(Debug)]
pub struct AccumulationTable {
    filter_regions: Vec<RegionId>,
    filter: Vec<Slot>,
    slot_regions: Vec<RegionId>,
    slots: Vec<Slot>,
    filter_capacity: usize,
    capacity: usize,
    geometry: RegionGeometry,
    stamp: u64,
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
            filter_regions: Vec::with_capacity(filter_capacity),
            filter: Vec::with_capacity(filter_capacity),
            slot_regions: Vec::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            filter_capacity,
            capacity,
            geometry,
            stamp: 0,
        }
    }

    /// Number of live multi-access residencies.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no multi-access residency is live.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
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
            self.slots.len() <= self.capacity && self.filter.len() <= self.filter_capacity,
            "accumulation occupancy invariant: {} slots (cap {}), {} filtered (cap {})",
            self.slots.len(),
            self.capacity,
            self.filter.len(),
            self.filter_capacity
        );
        self.stamp += 1;
        let stamp = self.stamp;
        let region = self.geometry.region_of(info.block);
        let offset = self.geometry.offset_of(info.block);

        // Already promoted: extend the footprint.
        if let Some(i) = self.slot_regions.iter().position(|r| *r == region) {
            let slot = &mut self.slots[i];
            slot.residency.footprint.set(offset);
            slot.last_touch = stamp;
            return Observation {
                trigger: false,
                evicted: None,
            };
        }

        // Second access to a filtered region: promote to accumulation.
        if let Some(i) = self.filter_regions.iter().position(|r| *r == region) {
            self.filter_regions.swap_remove(i);
            let mut slot = self.filter.swap_remove(i);
            slot.residency.footprint.set(offset);
            slot.last_touch = stamp;
            let evicted = if self.slots.len() >= self.capacity {
                let (idx, _) = self
                    .slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.last_touch)
                    .expect("table is non-empty when full");
                self.slot_regions.swap_remove(idx);
                Some(self.slots.swap_remove(idx).residency)
            } else {
                None
            };
            self.slot_regions.push(slot.residency.region);
            self.slots.push(slot);
            return Observation {
                trigger: false,
                evicted,
            };
        }

        // Trigger access: new residency enters the filter.
        let mut footprint = Footprint::empty(self.geometry.blocks_per_region() as u32);
        footprint.set(offset);
        let residency = Residency {
            region,
            trigger_pc: info.pc.raw(),
            trigger_block: info.block.index(),
            trigger_offset: offset,
            footprint,
        };
        if self.filter.len() >= self.filter_capacity {
            // Single-access regions carry no spatial pattern; the oldest is
            // silently dropped (it would not pass training anyway).
            let (idx, _) = self
                .filter
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_touch)
                .expect("filter is non-empty when full");
            self.filter_regions.swap_remove(idx);
            self.filter.swap_remove(idx);
        }
        self.filter_regions.push(residency.region);
        self.filter.push(Slot {
            residency,
            last_touch: stamp,
        });
        Observation {
            trigger: true,
            evicted: None,
        }
    }

    /// Ends the residency of `region`, if live in either structure,
    /// returning it for training.
    pub fn end_residency(&mut self, region: RegionId) -> Option<Residency> {
        if let Some(idx) = self.slot_regions.iter().position(|r| *r == region) {
            self.slot_regions.swap_remove(idx);
            return Some(self.slots.swap_remove(idx).residency);
        }
        let idx = self.filter_regions.iter().position(|r| *r == region)?;
        self.filter_regions.swap_remove(idx);
        Some(self.filter.swap_remove(idx).residency)
    }

    /// Storage cost in bits: per slot a region tag (~36 b), trigger PC
    /// (16 b hashed), trigger offset, footprint, and LRU stamp (8 b); the
    /// filter stores the same minus the footprint.
    pub fn storage_bits(&self) -> u64 {
        Self::storage_bits_for(self.capacity, self.geometry.blocks_per_region() as u32)
    }

    /// [`AccumulationTable::storage_bits`] computed from the geometry
    /// alone, without allocating the table.
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
        let small = table(32).storage_bits();
        let large = table(64).storage_bits();
        assert!(large > small);
        assert!(small > 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = table(0);
    }
}
