//! Offline spatial-correlation analysis.
//!
//! The motivation figures of the paper (Figs. 2–4) are statements about
//! *workload structure*: how often each trigger event recurs, and how
//! similar a region's footprint is to the footprint last seen for the same
//! event. This module measures those properties directly from an access
//! stream, independent of any prefetcher or timing model — useful for
//! validating that a workload (synthetic or traced) actually carries the
//! spatial correlation a prefetcher is supposed to exploit.
//!
//! Feed accesses through [`SpatialProfiler::observe`]; a region's
//! *residency* ends when more than [`SpatialProfiler::window`] other
//! regions have been touched since its last access (an offline analogue of
//! cache residency). [`SpatialProfiler::finish`] closes everything and
//! returns the [`SpatialReport`].

use std::collections::HashMap;
use std::collections::VecDeque;

use bingo_sim::{AccessInfo, BlockAddr, Pc, RegionGeometry};

use crate::event::EventKind;
use crate::footprint::Footprint;

/// Statistics for one event heuristic.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct EventProfile {
    /// Completed residencies whose trigger key had been seen before.
    pub matches: u64,
    /// Total completed residencies (lookups).
    pub lookups: u64,
    /// Sum over matches of the Jaccard similarity between the residency's
    /// footprint and the previous footprint stored for the same key.
    pub jaccard_sum: f64,
}

impl EventProfile {
    /// Fraction of residencies whose event key recurred.
    pub fn match_probability(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.matches as f64 / self.lookups as f64
        }
    }

    /// Mean footprint similarity on a match — an upper-bound proxy for the
    /// accuracy a prefetcher keyed by this event could reach.
    pub fn mean_similarity(&self) -> f64 {
        if self.matches == 0 {
            0.0
        } else {
            self.jaccard_sum / self.matches as f64
        }
    }
}

/// The complete analysis of an access stream.
#[derive(Clone, Debug, Default)]
pub struct SpatialReport {
    /// Per-event statistics, indexed as [`EventKind::LONGEST_FIRST`].
    pub events: [EventProfile; 5],
    /// Completed residencies.
    pub residencies: u64,
    /// Total accesses observed.
    pub accesses: u64,
    /// Histogram of footprint densities in eight 12.5 %-wide buckets.
    pub density_histogram: [u64; 8],
    /// Sum of footprint densities (for the mean).
    density_sum: f64,
}

impl SpatialReport {
    /// Mean footprint density over completed residencies.
    pub fn mean_density(&self) -> f64 {
        if self.residencies == 0 {
            0.0
        } else {
            self.density_sum / self.residencies as f64
        }
    }

    /// The profile for a specific event kind.
    pub fn event(&self, kind: EventKind) -> &EventProfile {
        let idx = EventKind::LONGEST_FIRST
            .iter()
            .position(|k| *k == kind)
            .expect("all kinds are in LONGEST_FIRST");
        &self.events[idx]
    }
}

fn jaccard(a: Footprint, b: Footprint) -> f64 {
    let union = a.union(b).count();
    if union == 0 {
        1.0
    } else {
        a.intersect(b).count() as f64 / union as f64
    }
}

struct OpenRegion {
    trigger_pc: u64,
    trigger_block: u64,
    trigger_offset: u32,
    footprint: Footprint,
}

/// Streaming analyzer of spatial structure.
pub struct SpatialProfiler {
    geometry: RegionGeometry,
    window: usize,
    open: HashMap<u64, OpenRegion>,
    /// Distinct-region LRU used to close idle residencies.
    recency: VecDeque<u64>,
    last_footprint: [HashMap<u64, Footprint>; 5],
    report: SpatialReport,
}

impl std::fmt::Debug for SpatialProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpatialProfiler")
            .field("open_regions", &self.open.len())
            .field("residencies", &self.report.residencies)
            .finish()
    }
}

impl SpatialProfiler {
    /// Creates a profiler for regions of `geometry`, closing a residency
    /// once `window` other distinct regions have been touched since its
    /// last access.
    ///
    /// # Panics
    ///
    /// Panics if a region holds more than 64 blocks or `window` is zero.
    pub fn new(geometry: RegionGeometry, window: usize) -> Self {
        assert!(geometry.blocks_per_region() <= 64);
        assert!(window > 0, "window must be nonzero");
        SpatialProfiler {
            geometry,
            window,
            open: HashMap::new(),
            recency: VecDeque::new(),
            last_footprint: Default::default(),
            report: SpatialReport::default(),
        }
    }

    /// The residency window (distinct regions).
    pub fn window(&self) -> usize {
        self.window
    }

    /// Observes one access.
    pub fn observe(&mut self, info: &AccessInfo) {
        self.report.accesses += 1;
        let region = self.geometry.region_of(info.block).raw();
        let offset = self.geometry.offset_of(info.block);
        match self.open.get_mut(&region) {
            Some(open) => {
                open.footprint.set(offset);
            }
            None => {
                let mut footprint = Footprint::empty(self.geometry.blocks_per_region() as u32);
                footprint.set(offset);
                self.open.insert(
                    region,
                    OpenRegion {
                        trigger_pc: info.pc.raw(),
                        trigger_block: info.block.index(),
                        trigger_offset: offset,
                        footprint,
                    },
                );
            }
        }
        // Refresh recency; close regions that fell out of the window.
        if let Some(pos) = self.recency.iter().position(|&r| r == region) {
            self.recency.remove(pos);
        }
        self.recency.push_back(region);
        while self.recency.len() > self.window {
            let idle = self.recency.pop_front().expect("window overflow");
            self.close(idle);
        }
    }

    fn close(&mut self, region: u64) {
        let Some(open) = self.open.remove(&region) else {
            return;
        };
        self.report.residencies += 1;
        let density = open.footprint.density();
        self.report.density_sum += density;
        let bucket = ((density * 8.0) as usize).min(7);
        self.report.density_histogram[bucket] += 1;
        for (i, kind) in EventKind::LONGEST_FIRST.iter().enumerate() {
            let key = kind.key_parts(
                open.trigger_pc,
                open.trigger_block,
                open.trigger_offset as u64,
            );
            let profile = &mut self.report.events[i];
            profile.lookups += 1;
            if let Some(prev) = self.last_footprint[i].get(&key) {
                profile.matches += 1;
                profile.jaccard_sum += jaccard(open.footprint, *prev);
            }
            self.last_footprint[i].insert(key, open.footprint);
        }
    }

    /// Closes all open residencies and returns the report.
    pub fn finish(mut self) -> SpatialReport {
        let remaining: Vec<u64> = self.recency.iter().copied().collect();
        for region in remaining {
            self.close(region);
        }
        self.report
    }

    /// Convenience: observes a demand access from raw parts (PC, block
    /// index).
    pub fn observe_parts(&mut self, pc: u64, block: u64) {
        self.observe(&AccessInfo::demand(Pc::new(pc), BlockAddr::new(block), 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recurring_pattern_yields_high_similarity() {
        let mut p = SpatialProfiler::new(RegionGeometry::default(), 4);
        // Two visits to different regions, same PC, same offsets {0,1,2}:
        // PC+Offset should match on the second with Jaccard 1.0.
        for region in [10u64, 20] {
            for off in [0u64, 1, 2] {
                p.observe_parts(0x400, region * 32 + off);
            }
            // Touch filler regions to close the window.
            for filler in 0..4u64 {
                p.observe_parts(0x999, (100 + region * 10 + filler) * 32);
            }
        }
        let r = p.finish();
        let pc_offset = r.event(EventKind::PcOffset);
        assert!(pc_offset.matches >= 1);
        assert!(
            pc_offset.mean_similarity() > 0.99,
            "identical recurring patterns, got {}",
            pc_offset.mean_similarity()
        );
    }

    #[test]
    fn unrelated_patterns_yield_low_similarity() {
        let mut p = SpatialProfiler::new(RegionGeometry::default(), 2);
        // Same PC+Offset trigger, disjoint footprints.
        for (region, offs) in [(1u64, [0u64, 5, 6]), (2, [0, 20, 21])] {
            for off in offs {
                p.observe_parts(0x400, region * 32 + off);
            }
            for filler in 0..3u64 {
                // Unique filler PCs so the fillers never match each other.
                p.observe_parts(
                    0x9000 + region * 100 + filler * 4,
                    (50 + region * 10 + filler) * 32,
                );
            }
        }
        let r = p.finish();
        let pc_offset = r.event(EventKind::PcOffset);
        assert_eq!(pc_offset.matches, 1);
        assert!(
            pc_offset.mean_similarity() < 0.5,
            "disjoint patterns, got {}",
            pc_offset.mean_similarity()
        );
    }

    #[test]
    fn pc_address_only_matches_exact_revisits() {
        let mut p = SpatialProfiler::new(RegionGeometry::default(), 2);
        // Same PC, different regions: PC+Address never matches; PC does.
        for region in 1..=5u64 {
            p.observe_parts(0x400, region * 32);
            p.observe_parts(0x400, region * 32 + 1);
            for filler in 0..3u64 {
                p.observe_parts(0x999, (100 + region * 10 + filler) * 32);
            }
        }
        let r = p.finish();
        assert_eq!(r.event(EventKind::PcAddress).matches, 0);
        assert!(r.event(EventKind::Pc).matches >= 4);
    }

    #[test]
    fn density_statistics() {
        let mut p = SpatialProfiler::new(RegionGeometry::default(), 1);
        // One region with 16/32 blocks = 0.5 density.
        for off in 0..16u64 {
            p.observe_parts(0x1, off);
        }
        let r = p.finish();
        assert_eq!(r.residencies, 1);
        assert!((r.mean_density() - 0.5).abs() < 1e-9);
        assert_eq!(r.density_histogram[4], 1);
    }

    #[test]
    fn window_closes_idle_regions() {
        let mut p = SpatialProfiler::new(RegionGeometry::default(), 2);
        p.observe_parts(0x1, 0); // region 0
        p.observe_parts(0x1, 32); // region 1
        p.observe_parts(0x1, 64); // region 2 -> closes region 0
        p.observe_parts(0x1, 1); // region 0 again: NEW residency
        let r = p.finish();
        assert_eq!(r.residencies, 4, "region 0 must appear twice");
    }

    #[test]
    fn jaccard_edge_cases() {
        let a = Footprint::from_bits(0b1111, 32);
        assert!((jaccard(a, a) - 1.0).abs() < 1e-12);
        let b = Footprint::from_bits(0b110000, 32);
        assert_eq!(jaccard(a, b), 0.0);
    }
}
