//! The generalized TAGE-like spatial prefetcher of the motivation study
//! (Section III) and the naive multi-table design Bingo improves upon
//! (Fig. 1-(b)).
//!
//! [`MultiEventPrefetcher`] keeps one history table per configured event
//! kind and, on a trigger access, looks them up longest event first,
//! prefetching the footprint of the first match. With a single event it
//! degenerates to a classic single-event spatial prefetcher (e.g.
//! `PC+Offset` ≈ SMS), which is how Fig. 2's per-event accuracy and match
//! probability are produced. With the event count swept from 1 to 5 it
//! produces Fig. 3. Its built-in redundancy probe — does the short table
//! predict the same footprint as the long table? — produces Fig. 4.
//!
//! Each event's table is Bingo's own [`UnifiedHistoryTable`], searched by
//! that one event: the event key is the full tag, and `key >> 16` selects
//! the set. Fig. 4's unified-versus-per-event comparison therefore runs
//! the same table code on both sides and measures the design alone.

use bingo_sim::{AccessInfo, BlockAddr, PrefetchSource, Prefetcher, RegionGeometry, ThrottleLevel};

use crate::accumulation::{AccumulationTable, Residency};
use crate::event::EventKind;
use crate::history::UnifiedHistoryTable;

/// Configuration of a [`MultiEventPrefetcher`].
#[derive(Clone, Debug, PartialEq)]
pub struct MultiEventConfig {
    /// Events in lookup-priority order (longest first).
    pub events: Vec<EventKind>,
    /// Entries per event table.
    pub entries_per_table: usize,
    /// Associativity of each table.
    pub ways: usize,
    /// Spatial region geometry.
    pub region: RegionGeometry,
    /// Accumulation-table capacity.
    pub accumulation_entries: usize,
    /// Minimum footprint blocks worth training.
    pub min_footprint_blocks: u32,
}

impl MultiEventConfig {
    /// Default geometry (matching Bingo's paper configuration) with the
    /// given ordered events.
    ///
    /// # Panics
    ///
    /// Panics if `events` is empty.
    pub fn with_events(events: Vec<EventKind>) -> Self {
        assert!(!events.is_empty(), "need at least one event");
        MultiEventConfig {
            events,
            entries_per_table: 16 * 1024,
            ways: 16,
            region: RegionGeometry::default(),
            accumulation_entries: 64,
            min_footprint_blocks: 2,
        }
    }

    /// Metadata storage in bits of a prefetcher built from this
    /// configuration, computed without allocating any tables; the built
    /// instance's [`Prefetcher::storage_bits`] returns it.
    pub fn storage_bits(&self) -> u64 {
        let region_blocks = self.region.blocks_per_region() as u32;
        self.events.len() as u64
            * UnifiedHistoryTable::storage_bits_for(self.entries_per_table, region_blocks)
            + AccumulationTable::storage_bits_for(self.accumulation_entries, region_blocks)
    }
}

/// Lookup statistics, including the Fig. 4 redundancy probe.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MultiEventStats {
    /// Trigger accesses that performed a lookup cascade.
    pub lookups: u64,
    /// Hits satisfied by each event, parallel to the configured order.
    pub hits_by_event: Vec<u64>,
    /// Lookups with no match in any table.
    pub no_match: u64,
    /// Lookups where both the first two tables matched.
    pub dual_both_matched: u64,
    /// Lookups where the first two tables offered *identical* predictions —
    /// the paper's definition of metadata redundancy.
    pub dual_identical: u64,
    /// Residencies trained.
    pub trainings: u64,
}

impl MultiEventStats {
    /// Fraction of lookups that produced a prediction.
    pub fn match_probability(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            let hits: u64 = self.hits_by_event.iter().sum();
            hits as f64 / self.lookups as f64
        }
    }

    /// Fig. 4's redundancy: fraction of lookups for which the long and
    /// short tables offered an identical prediction.
    pub fn redundancy(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.dual_identical as f64 / self.lookups as f64
        }
    }
}

/// TAGE-like spatial prefetcher with one history table per event.
#[derive(Debug)]
pub struct MultiEventPrefetcher {
    cfg: MultiEventConfig,
    /// One table per event, in `cfg.events` order; only the long-event
    /// operations are used, with the key's high bits as the set index.
    tables: Vec<UnifiedHistoryTable>,
    accumulation: AccumulationTable,
    name: String,
    /// Which cascade level produced the most recent prediction, for
    /// lifecycle telemetry ([`Prefetcher::last_burst_source`]).
    last_source: PrefetchSource,
    /// Effective aggressiveness pushed by the memory system's throttle
    /// controller; [`ThrottleLevel::Full`] unless throttling is enabled.
    throttle: ThrottleLevel,
    /// Lookup statistics.
    pub stats: MultiEventStats,
}

impl MultiEventPrefetcher {
    /// Creates the prefetcher.
    ///
    /// # Panics
    ///
    /// Panics on invalid table geometry.
    pub fn new(cfg: MultiEventConfig) -> Self {
        let region_blocks = cfg.region.blocks_per_region() as u32;
        let tables = cfg
            .events
            .iter()
            .map(|_| UnifiedHistoryTable::new(cfg.entries_per_table, cfg.ways, region_blocks))
            .collect();
        let name = if cfg.events.len() == 1 {
            format!("Single[{}]", cfg.events[0])
        } else {
            format!("MultiEvent[{}]", cfg.events.len())
        };
        MultiEventPrefetcher {
            accumulation: AccumulationTable::new(cfg.accumulation_entries, cfg.region),
            tables,
            name,
            last_source: PrefetchSource::Unattributed,
            throttle: ThrottleLevel::Full,
            stats: MultiEventStats {
                hits_by_event: vec![0; cfg.events.len()],
                ..Default::default()
            },
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MultiEventConfig {
        &self.cfg
    }

    fn train(&mut self, residency: Residency) {
        if residency.footprint.count() < self.cfg.min_footprint_blocks {
            return;
        }
        self.stats.trainings += 1;
        for (kind, table) in self.cfg.events.iter().zip(&mut self.tables) {
            let key = residency.key(*kind);
            table.insert(key, key >> 16, residency.footprint);
        }
    }

    fn predict(&mut self, info: &AccessInfo, out: &mut Vec<BlockAddr>) {
        self.stats.lookups += 1;
        let geometry = self.cfg.region;
        let (events, tables) = (&self.cfg.events, &mut self.tables);
        let mut lookup = |i: usize| {
            let key = events[i].key_of(info, geometry);
            tables[i].lookup_long(key, key >> 16).map(|fp| (i, fp))
        };
        // The cascade always looks the first two tables up (when present):
        // those two lookups are also the redundancy probe.
        let first = lookup(0);
        let second = (events.len() >= 2).then(|| lookup(1)).flatten();
        if let (Some((_, a)), Some((_, b))) = (first, second) {
            self.stats.dual_both_matched += 1;
            self.stats.dual_identical += u64::from(a == b);
        }
        let chosen = first
            .or(second)
            .or_else(|| (2..events.len()).find_map(&mut lookup));
        let Some((i, fp)) = chosen else {
            self.stats.no_match += 1;
            return;
        };
        self.stats.hits_by_event[i] += 1;
        self.last_source = PrefetchSource::CascadeLevel(i as u8);
        let (region, trigger) = (
            geometry.region_of(info.block),
            geometry.offset_of(info.block),
        );
        for offset in fp.iter() {
            if offset != trigger {
                out.push(geometry.block_at(region, offset));
            }
        }
    }
}

impl Prefetcher for MultiEventPrefetcher {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<BlockAddr>) {
        self.last_source = PrefetchSource::Unattributed;
        let observation = self.accumulation.observe(info);
        if let Some(res) = observation.evicted {
            self.train(res);
        }
        if observation.trigger {
            self.predict(info, out);
            // The throttled burst is a strict prefix of the unthrottled
            // one, applied after prediction so table state and recency
            // evolve identically at every level.
            match self.throttle {
                ThrottleLevel::Full => {}
                ThrottleLevel::RaisedVote => out.truncate(out.len().div_ceil(2)),
                ThrottleLevel::TriggerOnly => out.truncate(1),
                ThrottleLevel::Stopped => {
                    out.clear();
                    self.last_source = PrefetchSource::Unattributed;
                }
            }
        }
    }

    fn on_eviction(&mut self, block: BlockAddr) {
        let region = self.cfg.region.region_of(block);
        if let Some(res) = self.accumulation.end_residency(region) {
            self.train(res);
        }
    }

    fn set_throttle_level(&mut self, level: ThrottleLevel) {
        self.throttle = level;
    }

    fn storage_bits(&self) -> u64 {
        self.cfg.storage_bits()
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        let hits: u64 = self.stats.hits_by_event.iter().sum();
        vec![
            ("lookups", self.stats.lookups as f64),
            ("matches", hits as f64),
            ("dual_both_matched", self.stats.dual_both_matched as f64),
            ("dual_identical", self.stats.dual_identical as f64),
            ("trainings", self.stats.trainings as f64),
        ]
    }

    fn last_burst_source(&self) -> PrefetchSource {
        self.last_source
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_sim::Pc;

    fn info(pc: u64, block: u64) -> AccessInfo {
        AccessInfo::demand(Pc::new(pc), BlockAddr::new(block))
    }

    fn small(events: Vec<EventKind>) -> MultiEventPrefetcher {
        MultiEventPrefetcher::new(MultiEventConfig {
            entries_per_table: 256,
            ways: 4,
            accumulation_entries: 8,
            ..MultiEventConfig::with_events(events)
        })
    }

    fn visit(
        p: &mut MultiEventPrefetcher,
        pc: u64,
        region: u64,
        offsets: &[u32],
    ) -> Vec<BlockAddr> {
        let mut out = Vec::new();
        let mut first = Vec::new();
        for (i, &off) in offsets.iter().enumerate() {
            out.clear();
            p.on_access(&info(pc, region * 32 + off as u64), &mut out);
            if i == 0 {
                first = out.clone();
            }
        }
        p.on_eviction(BlockAddr::new(region * 32 + offsets[0] as u64));
        first
    }

    #[test]
    fn single_pc_address_never_generalizes() {
        let mut p = small(vec![EventKind::PcAddress]);
        visit(&mut p, 0x400, 10, &[3, 7]);
        // Same region, same trigger: match.
        let got = visit(&mut p, 0x400, 10, &[3]);
        assert_eq!(got.len(), 1);
        // New region: no match ever (the compulsory-miss blindness of
        // PC+Address the paper describes).
        let got = visit(&mut p, 0x400, 50, &[3]);
        assert!(got.is_empty());
        assert_eq!(p.stats.no_match, 2); // first-ever trigger + new region
    }

    #[test]
    fn single_offset_matches_almost_always() {
        let mut p = small(vec![EventKind::Offset]);
        visit(&mut p, 0x400, 10, &[3, 7]);
        // Different PC, different region, same offset: still matches.
        let got = visit(&mut p, 0x999, 50, &[3]);
        assert_eq!(got.len(), 1);
        assert!(p.stats.match_probability() > 0.3);
    }

    #[test]
    fn cascade_prefers_longest_event() {
        let mut p = small(EventKind::LONGEST_FIRST.to_vec());
        visit(&mut p, 0x400, 10, &[3, 7]);
        // Exact revisit: PC+Address (index 0) should win.
        visit(&mut p, 0x400, 10, &[3]);
        assert_eq!(p.stats.hits_by_event[0], 1);
        assert_eq!(p.stats.hits_by_event[1], 0);
        // New region: falls through to PC+Offset (index 1).
        visit(&mut p, 0x400, 60, &[3]);
        assert_eq!(p.stats.hits_by_event[1], 1);
    }

    #[test]
    fn burst_source_reports_cascade_level() {
        let mut p = small(EventKind::LONGEST_FIRST.to_vec());
        assert_eq!(p.last_burst_source(), PrefetchSource::Unattributed);
        visit(&mut p, 0x400, 10, &[3, 7]);
        // Exact revisit: cascade level 0 (PC+Address).
        let mut out = Vec::new();
        p.on_access(&info(0x400, 10 * 32 + 3), &mut out);
        assert!(!out.is_empty());
        assert_eq!(p.last_burst_source(), PrefetchSource::CascadeLevel(0));
        p.on_eviction(BlockAddr::new(10 * 32 + 3));
        // New region: falls through to level 1 (PC+Offset).
        out.clear();
        p.on_access(&info(0x400, 60 * 32 + 3), &mut out);
        assert!(!out.is_empty());
        assert_eq!(p.last_burst_source(), PrefetchSource::CascadeLevel(1));
    }

    #[test]
    fn redundancy_probe_counts_identical_predictions() {
        let mut p = small(vec![EventKind::PcAddress, EventKind::PcOffset]);
        visit(&mut p, 0x400, 10, &[3, 7]);
        // Revisit: both tables trained from the same residency -> identical.
        visit(&mut p, 0x400, 10, &[3]);
        assert_eq!(p.stats.dual_both_matched, 1);
        assert_eq!(p.stats.dual_identical, 1);
        // Retrain the short event from a different region with a different
        // footprint; now long(10) != short prediction.
        visit(&mut p, 0x400, 11, &[3, 9]);
        visit(&mut p, 0x400, 10, &[3]);
        assert_eq!(p.stats.dual_both_matched, 2);
        assert_eq!(p.stats.dual_identical, 1);
        assert!(p.stats.redundancy() < 1.0);
    }

    #[test]
    fn more_events_never_reduce_match_probability() {
        // Train identical histories; the 5-event cascade must match at
        // least as often as the 1-event one.
        let run = |n: usize| {
            let mut p = MultiEventPrefetcher::new(MultiEventConfig {
                entries_per_table: 256,
                ways: 4,
                accumulation_entries: 8,
                ..MultiEventConfig::with_events(EventKind::LONGEST_FIRST[..n].to_vec())
            });
            for r in 0..20u64 {
                visit(&mut p, 0x400 + (r % 3) * 4, r, &[(r % 5) as u32, 17]);
            }
            // Probe fresh regions.
            for r in 100..120u64 {
                visit(&mut p, 0x400, r, &[(r % 7) as u32]);
            }
            p.stats.match_probability()
        };
        let one = run(1);
        let five = run(5);
        assert!(
            five >= one,
            "5-event match prob {five} must be >= 1-event {one}"
        );
        assert!(five > 0.5, "5-event cascade should match most lookups");
    }

    #[test]
    fn cascade_takes_first_match_without_voting() {
        // Contrast with Bingo's short-event voting: the cascade replays the
        // first matching table's footprint verbatim, so two conflicting
        // short-event footprints never intersect or union — the most
        // recently trained one simply wins.
        let mut p = small(vec![EventKind::PcOffset]);
        visit(&mut p, 0x400, 10, &[3, 7]);
        visit(&mut p, 0x400, 11, &[3, 9]); // retrains PC+Offset(0x400, 3)
        let got = visit(&mut p, 0x400, 99, &[3]);
        let blocks: Vec<u64> = got.iter().map(|x| x.index()).collect();
        assert_eq!(blocks, vec![99 * 32 + 9], "last training wins outright");
    }

    #[test]
    fn step_reports_trigger_and_cascade_source() {
        let mut p = small(EventKind::LONGEST_FIRST.to_vec());
        let mut out = Vec::new();
        p.on_access(&info(0x400, 10 * 32 + 3), &mut out);
        assert_eq!(p.last_burst_source(), PrefetchSource::Unattributed);
        assert!(out.is_empty());
        p.on_access(&info(0x400, 10 * 32 + 7), &mut out);
        p.on_eviction(BlockAddr::new(10 * 32 + 3));
        p.on_access(&info(0x400, 10 * 32 + 3), &mut out);
        assert_eq!(p.last_burst_source(), PrefetchSource::CascadeLevel(0));
        assert_eq!(out, vec![BlockAddr::new(10 * 32 + 7)]);
    }

    #[test]
    fn storage_scales_with_table_count() {
        let one = small(vec![EventKind::PcOffset]).storage_bits();
        let two = small(vec![EventKind::PcAddress, EventKind::PcOffset]).storage_bits();
        assert!(two > one, "two tables must cost more than one");
    }

    #[test]
    fn config_storage_matches_built_prefetcher() {
        let first = |n: usize| EventKind::LONGEST_FIRST[..n].to_vec();
        for cfg in [
            MultiEventConfig::with_events(vec![EventKind::PcOffset]),
            MultiEventConfig::with_events(first(3)),
            MultiEventConfig {
                entries_per_table: 256,
                ways: 4,
                accumulation_entries: 8,
                ..MultiEventConfig::with_events(first(2))
            },
        ] {
            let built = MultiEventPrefetcher::new(cfg.clone());
            assert_eq!(cfg.storage_bits(), built.storage_bits());
        }
    }

    #[test]
    #[should_panic(expected = "at least one event")]
    fn empty_event_list_rejected() {
        let _ = MultiEventConfig::with_events(vec![]);
    }

    #[test]
    fn throttled_bursts_are_prefixes_of_unthrottled() {
        let train = |p: &mut MultiEventPrefetcher| {
            visit(p, 0x400, 10, &[3, 7, 9, 11, 13]);
        };
        let mut full = small(EventKind::LONGEST_FIRST.to_vec());
        train(&mut full);
        let unthrottled = visit(&mut full, 0x400, 99, &[3]);
        assert_eq!(unthrottled.len(), 4, "footprint minus trigger");
        for (level, want) in [
            (ThrottleLevel::RaisedVote, 2),
            (ThrottleLevel::TriggerOnly, 1),
            (ThrottleLevel::Stopped, 0),
        ] {
            let mut p = small(EventKind::LONGEST_FIRST.to_vec());
            train(&mut p);
            p.set_throttle_level(level);
            let got = visit(&mut p, 0x400, 99, &[3]);
            assert_eq!(got.len(), want, "{level}");
            assert_eq!(got[..], unthrottled[..want], "must be a prefix");
        }
    }

    #[test]
    fn throttling_never_perturbs_cascade_state() {
        let mut throttled = small(EventKind::LONGEST_FIRST.to_vec());
        let mut clean = small(EventKind::LONGEST_FIRST.to_vec());
        for p in [&mut throttled, &mut clean] {
            visit(p, 0x400, 10, &[3, 7]);
        }
        throttled.set_throttle_level(ThrottleLevel::Stopped);
        assert!(visit(&mut throttled, 0x400, 20, &[3, 5]).is_empty());
        let _ = visit(&mut clean, 0x400, 20, &[3, 5]);
        throttled.set_throttle_level(ThrottleLevel::Full);
        assert_eq!(
            visit(&mut throttled, 0x400, 30, &[3]),
            visit(&mut clean, 0x400, 30, &[3]),
            "tables diverged while throttled"
        );
        assert_eq!(throttled.stats, clean.stats);
    }

    #[test]
    fn first_n_orders_longest_first() {
        let c = MultiEventConfig::with_events(EventKind::LONGEST_FIRST[..2].to_vec());
        assert_eq!(c.events, vec![EventKind::PcAddress, EventKind::PcOffset]);
    }
}
