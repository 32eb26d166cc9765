//! The Bingo spatial data prefetcher (Section IV of the paper).
//!
//! Bingo records a footprint per region residency in an
//! [`AccumulationTable`], transfers it on end-of-residency to a single
//! [`UnifiedHistoryTable`] tagged with the trigger's `PC+Address`, and on
//! each new trigger access looks the table up with `PC+Address` first and
//! `PC+Offset` second. When only the short event matches — possibly in
//! several ways at once — a block is prefetched if it appears in at least
//! 20 % of the matching footprints (the paper's empirically best
//! multi-match heuristic).

use bingo_sim::{
    throttle::RAISED_VOTE_THRESHOLD, AccessInfo, BlockAddr, FaultInjector, FaultPlan,
    PrefetchSource, Prefetcher, RegionGeometry, ThrottleLevel,
};

use crate::accumulation::{AccumulationTable, Residency};
use crate::event::EventKind;
use crate::footprint::Footprint;
use crate::history::UnifiedHistoryTable;

/// Configuration of a [`Bingo`] prefetcher.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct BingoConfig {
    /// Spatial region geometry (2 KB regions by default). Bingo derives
    /// every region and offset it records, predicts and ends from the
    /// block address with it.
    pub region: RegionGeometry,
    /// Total history-table entries (16 K in the paper's chosen design).
    pub history_entries: usize,
    /// History-table associativity (16 in the paper).
    pub history_ways: usize,
    /// Concurrent residencies tracked by the accumulation table.
    pub accumulation_entries: usize,
    /// Fraction of matching short-event footprints that must contain a
    /// block for it to be prefetched (0.2 in the paper).
    pub vote_threshold: f64,
    /// Minimum touched blocks for a residency to be worth training
    /// (single-access regions carry no spatial pattern).
    pub min_footprint_blocks: u32,
    /// Whether cache evictions end residencies (the paper's training
    /// signal). When disabled, residencies end only on accumulation-table
    /// overflow — the `ablation_training` study's variant.
    pub train_on_eviction: bool,
}

impl BingoConfig {
    /// The paper's configuration: 2 KB regions, 16 K-entry 16-way history
    /// table (119 KB total), 64-entry accumulation table, 20 % voting.
    pub fn paper() -> Self {
        BingoConfig {
            region: RegionGeometry::default(),
            history_entries: 16 * 1024,
            history_ways: 16,
            accumulation_entries: 64,
            vote_threshold: 0.2,
            min_footprint_blocks: 2,
            train_on_eviction: true,
        }
    }

    /// Same as [`BingoConfig::paper`] but with a different history size —
    /// the knob of the storage sensitivity study (Fig. 6).
    pub fn with_history_entries(entries: usize) -> Self {
        BingoConfig {
            history_entries: entries,
            ..Self::paper()
        }
    }

    /// Metadata storage in bits of a prefetcher built from this
    /// configuration, computed without allocating any tables; the built
    /// instance's [`Prefetcher::storage_bits`] returns it.
    pub fn storage_bits(&self) -> u64 {
        let region_blocks = self.region.blocks_per_region() as u32;
        UnifiedHistoryTable::storage_bits_for(self.history_entries, region_blocks)
            + AccumulationTable::storage_bits_for(self.accumulation_entries, region_blocks)
    }
}

impl Default for BingoConfig {
    fn default() -> Self {
        BingoConfig::paper()
    }
}

/// Lookup-outcome counters (match-probability diagnostics).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BingoStats {
    /// Trigger accesses that performed a history lookup.
    pub lookups: u64,
    /// Lookups satisfied by the long event (`PC+Address`).
    pub long_hits: u64,
    /// Lookups satisfied by the short event (`PC+Offset`) after a long
    /// miss, where footprint voting produced at least one prefetchable
    /// block.
    pub short_hits: u64,
    /// Lookups with no match (no prefetch issued).
    pub no_match: u64,
    /// Short-event lookups whose vote vetoed every block except the
    /// trigger (no prefetch issued). Possible whenever `vote_threshold`
    /// demands more agreement than the matching footprints have; not a
    /// match for [`BingoStats::match_probability`] purposes.
    pub empty_votes: u64,
    /// Residencies transferred into the history table.
    pub trainings: u64,
}

impl BingoStats {
    /// Fraction of lookups that produced a prediction.
    pub fn match_probability(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            (self.long_hits + self.short_hits) as f64 / self.lookups as f64
        }
    }
}

/// Everything observable about one access fed through Bingo's prediction
/// path, as returned by [`Bingo::step`].
///
/// This is the deterministic single-step API the differential-testing
/// harness drives: a reference model replayed over the same access
/// sequence must produce an identical `PredictionStep` at every step, so
/// equivalence can be asserted without peeking at internal tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PredictionStep {
    /// Whether the access was a trigger (the first touch of a new region
    /// residency) and therefore consulted the history.
    pub trigger: bool,
    /// Which event produced the prediction;
    /// [`PrefetchSource::Unattributed`] when nothing was predicted.
    pub source: PrefetchSource,
    /// The prefetch candidates emitted, in emission order.
    pub prefetches: Vec<BlockAddr>,
}

/// The Bingo prefetcher.
#[derive(Debug)]
pub struct Bingo {
    cfg: BingoConfig,
    accumulation: AccumulationTable,
    history: UnifiedHistoryTable,
    short_matches: Vec<Footprint>,
    /// Seeded metadata-corruption source for robustness experiments; `None`
    /// in normal operation.
    faults: Option<FaultInjector>,
    /// Which event produced the most recent prediction, for lifecycle
    /// telemetry ([`Prefetcher::last_burst_source`]).
    last_source: PrefetchSource,
    /// Whether the most recent access was a trigger, for [`Bingo::step`].
    last_trigger: bool,
    /// Effective aggressiveness pushed by the memory system's throttle
    /// controller; [`ThrottleLevel::Full`] unless throttling is enabled.
    throttle: ThrottleLevel,
    /// Lookup statistics.
    pub stats: BingoStats,
}

impl Bingo {
    /// Creates a Bingo prefetcher.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (see [`UnifiedHistoryTable::new`]).
    pub fn new(cfg: BingoConfig) -> Self {
        let region_blocks = cfg.region.blocks_per_region() as u32;
        Bingo {
            accumulation: AccumulationTable::new(cfg.accumulation_entries, cfg.region),
            history: UnifiedHistoryTable::new(cfg.history_entries, cfg.history_ways, region_blocks),
            short_matches: Vec::with_capacity(cfg.history_ways),
            faults: None,
            last_source: PrefetchSource::Unattributed,
            last_trigger: false,
            throttle: ThrottleLevel::Full,
            stats: BingoStats::default(),
            cfg,
        }
    }

    /// Creates a Bingo prefetcher whose metadata is corrupted by a seeded
    /// [`FaultInjector`]: stored footprints get random bit flips, history
    /// entries are randomly dropped, and prefetch candidates are randomly
    /// discarded, each at the plan's configured rate. The paper's
    /// graceful-degradation claim says this prefetcher must never corrupt
    /// the simulation — only lose coverage toward no-prefetch behavior.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry or if a plan rate is not a
    /// probability.
    pub fn with_faults(cfg: BingoConfig, plan: FaultPlan) -> Self {
        let mut b = Bingo::new(cfg);
        b.faults = Some(FaultInjector::new(plan));
        b
    }

    /// The configuration in use.
    pub fn config(&self) -> &BingoConfig {
        &self.cfg
    }

    /// Feeds one access through the full observe/train/predict path and
    /// returns everything an external checker can observe about it.
    ///
    /// Behaviorally identical to [`Prefetcher::on_access`] — this is the
    /// same code path, not a parallel one — but it additionally reports
    /// whether the access was a trigger and which event the prediction
    /// came from, which is what the differential harness diffs against
    /// the executable specification.
    pub fn step(&mut self, info: &AccessInfo) -> PredictionStep {
        let mut prefetches = Vec::new();
        self.on_access(info, &mut prefetches);
        PredictionStep {
            trigger: self.last_trigger,
            source: self.last_source,
            prefetches,
        }
    }

    fn train(&mut self, mut residency: Residency) {
        if residency.footprint.count() < self.cfg.min_footprint_blocks {
            return;
        }
        // Fault injection: a footprint headed for storage may have one
        // random bit flipped, modeling a corrupted metadata write.
        if let Some(inj) = self.faults.as_mut() {
            if inj.should_flip_footprint_bit() {
                let offset = inj.pick(u64::from(residency.footprint.len())) as u32;
                residency.footprint.flip(offset);
            }
        }
        self.stats.trainings += 1;
        self.history.insert(
            residency.key(EventKind::PcAddress),
            residency.key(EventKind::PcOffset),
            residency.footprint,
        );
    }

    /// The short-event vote threshold in effect: the configured one,
    /// raised to at least [`RAISED_VOTE_THRESHOLD`] while the throttle sits
    /// at [`ThrottleLevel::RaisedVote`]. Raising the threshold only grows
    /// the votes a block needs, so the voted set shrinks monotonically —
    /// the throttled prediction set stays a subset of the unthrottled one.
    fn effective_vote_threshold(&self) -> f64 {
        match self.throttle {
            ThrottleLevel::RaisedVote => self.cfg.vote_threshold.max(RAISED_VOTE_THRESHOLD),
            _ => self.cfg.vote_threshold,
        }
    }

    fn predict(&mut self, info: &AccessInfo, out: &mut Vec<BlockAddr>) {
        self.stats.lookups += 1;
        let geometry = self.cfg.region;
        let (region, trigger) = (
            geometry.region_of(info.block),
            geometry.offset_of(info.block),
        );
        let long = EventKind::PcAddress.key_of(info, geometry);
        let short = EventKind::PcOffset.key_of(info, geometry);
        let footprint = if let Some(fp) = self.history.lookup_long(long, short) {
            self.stats.long_hits += 1;
            self.last_source = PrefetchSource::LongEvent;
            fp
        } else {
            let mut matches = std::mem::take(&mut self.short_matches);
            self.history.lookup_short(short, &mut matches);
            let result = if matches.is_empty() {
                self.stats.no_match += 1;
                None
            } else {
                let fp = Footprint::vote(&matches, self.effective_vote_threshold());
                // A strict threshold can veto every block (or leave only
                // the trigger, which is never re-prefetched): that lookup
                // issued nothing and must not count as a hit.
                if fp.iter().any(|offset| offset != trigger) {
                    self.stats.short_hits += 1;
                    self.last_source = PrefetchSource::ShortVote;
                    Some(fp)
                } else {
                    self.stats.empty_votes += 1;
                    None
                }
            };
            self.short_matches = matches;
            match result {
                Some(fp) => fp,
                None => return,
            }
        };
        for offset in footprint.iter() {
            if offset != trigger {
                out.push(geometry.block_at(region, offset));
            }
        }
    }
}

impl Prefetcher for Bingo {
    fn name(&self) -> &str {
        "Bingo"
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<BlockAddr>) {
        self.last_source = PrefetchSource::Unattributed;
        // Fault injection: metadata loss — a random valid history entry
        // vanishes, as if its storage cell were corrupted and invalidated.
        if let Some(inj) = self.faults.as_mut() {
            if inj.should_drop_history_entry() {
                let pick = inj.pick(1 << 48);
                self.history.evict_entry(pick);
            }
        }
        let observation = self.accumulation.observe(info);
        self.last_trigger = observation.trigger;
        if let Some(res) = observation.evicted {
            self.train(res);
        }
        if observation.trigger {
            self.predict(info, out);
            // Throttle degrees beyond the raised vote cut the burst after
            // prediction, so table state and lookup recency evolve exactly
            // as unthrottled — throttling only ever subtracts candidates.
            match self.throttle {
                ThrottleLevel::Full | ThrottleLevel::RaisedVote => {}
                ThrottleLevel::TriggerOnly => out.truncate(1),
                ThrottleLevel::Stopped => {
                    out.clear();
                    self.last_source = PrefetchSource::Unattributed;
                }
            }
        }
        // Fault injection: individual prefetch requests silently dropped
        // on their way to the memory system.
        if let Some(inj) = self.faults.as_mut() {
            out.retain(|_| !inj.should_drop_prefetch());
        }
    }

    fn on_eviction(&mut self, block: BlockAddr) {
        if !self.cfg.train_on_eviction {
            return;
        }
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

    fn debug_stats(&self) -> String {
        let mut out = format!(
            "lookups={} long={} short={} none={} empty_votes={} trainings={} valid={}",
            self.stats.lookups,
            self.stats.long_hits,
            self.stats.short_hits,
            self.stats.no_match,
            self.stats.empty_votes,
            self.stats.trainings,
            self.history.valid_entries()
        );
        if let Some(inj) = &self.faults {
            out.push_str(&format!(
                " faults: bits_flipped={} entries_dropped={} prefetches_dropped={}",
                inj.stats.bits_flipped, inj.stats.entries_dropped, inj.stats.prefetches_dropped
            ));
        }
        if self.throttle != ThrottleLevel::Full {
            out.push_str(&format!(" throttle={}", self.throttle));
        }
        out
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        let mut out = vec![
            ("lookups", self.stats.lookups as f64),
            ("long_hits", self.stats.long_hits as f64),
            ("short_hits", self.stats.short_hits as f64),
            ("empty_votes", self.stats.empty_votes as f64),
            (
                "matches",
                (self.stats.long_hits + self.stats.short_hits) as f64,
            ),
            ("trainings", self.stats.trainings as f64),
        ];
        if let Some(inj) = &self.faults {
            out.push(("fault_bits_flipped", inj.stats.bits_flipped as f64));
            out.push(("fault_entries_dropped", inj.stats.entries_dropped as f64));
            out.push((
                "fault_prefetches_dropped",
                inj.stats.prefetches_dropped as f64,
            ));
        }
        out
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

    fn small() -> Bingo {
        Bingo::new(BingoConfig {
            history_entries: 256,
            history_ways: 4,
            accumulation_entries: 8,
            ..BingoConfig::paper()
        })
    }

    /// Visits blocks `offsets` of `region`, then evicts the trigger block
    /// to end the residency.
    fn visit(b: &mut Bingo, pc: u64, region: u64, offsets: &[u32]) -> Vec<BlockAddr> {
        let mut out = Vec::new();
        let mut predicted = Vec::new();
        for (i, &off) in offsets.iter().enumerate() {
            out.clear();
            b.on_access(&info(pc, region * 32 + off as u64), &mut out);
            if i == 0 {
                predicted = out.clone();
            }
        }
        b.on_eviction(BlockAddr::new(region * 32 + offsets[0] as u64));
        predicted
    }

    #[test]
    fn long_event_match_replays_exact_footprint() {
        let mut b = small();
        // First visit to region 10: trains footprint {3, 7, 9}.
        let p = visit(&mut b, 0x400, 10, &[3, 7, 9]);
        assert!(p.is_empty(), "nothing learned yet");
        // Re-visit the *same* region with the same PC and trigger block:
        // the long event (PC+Address) matches.
        let p = visit(&mut b, 0x400, 10, &[3]);
        assert_eq!(b.stats.long_hits, 1);
        let blocks: Vec<u64> = p.iter().map(|x| x.index()).collect();
        assert_eq!(blocks, vec![10 * 32 + 7, 10 * 32 + 9]);
    }

    #[test]
    fn short_event_match_covers_new_regions() {
        let mut b = small();
        visit(&mut b, 0x400, 10, &[3, 7, 9]);
        // A *different* region, same PC and same offset 3: long event
        // misses, short event (PC+Offset) hits -> compulsory-miss coverage.
        let p = visit(&mut b, 0x400, 99, &[3]);
        assert_eq!(b.stats.long_hits, 0);
        assert_eq!(b.stats.short_hits, 1);
        let blocks: Vec<u64> = p.iter().map(|x| x.index()).collect();
        assert_eq!(blocks, vec![99 * 32 + 7, 99 * 32 + 9]);
    }

    #[test]
    fn different_offset_same_pc_does_not_match_short() {
        let mut b = small();
        visit(&mut b, 0x400, 10, &[3, 7, 9]);
        let p = visit(&mut b, 0x400, 99, &[5]);
        assert!(p.is_empty());
        // Two no-match lookups: the very first trigger and this one.
        assert_eq!(b.stats.no_match, 2);
    }

    #[test]
    fn vote_includes_blocks_from_any_of_few_matches() {
        let mut b = small();
        // Two residencies, same PC+Offset (offset 3) in different regions,
        // with different footprints.
        visit(&mut b, 0x400, 10, &[3, 7]);
        visit(&mut b, 0x400, 11, &[3, 9]);
        // New region: short lookup matches both; with the 20% threshold and
        // 2 matches, one vote suffices -> union {7, 9}.
        let p = visit(&mut b, 0x400, 99, &[3]);
        let mut blocks: Vec<u64> = p.iter().map(|x| x.index()).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![99 * 32 + 7, 99 * 32 + 9]);
    }

    #[test]
    fn majority_threshold_intersects_instead() {
        let mut b = Bingo::new(BingoConfig {
            history_entries: 256,
            history_ways: 4,
            accumulation_entries: 8,
            vote_threshold: 0.9,
            ..BingoConfig::paper()
        });
        visit(&mut b, 0x400, 10, &[3, 7]);
        visit(&mut b, 0x400, 11, &[3, 9]);
        visit(&mut b, 0x400, 12, &[3, 7]);
        let p = visit(&mut b, 0x400, 99, &[3]);
        let blocks: Vec<u64> = p.iter().map(|x| x.index()).collect();
        // Block 7 has 2/3 votes, 9 has 1/3: 90% threshold keeps none of
        // them... need ceil(0.9*3)=3 votes. Only offset 3 (the trigger, not
        // re-prefetched) qualifies.
        assert!(blocks.is_empty(), "got {blocks:?}");
    }

    #[test]
    fn empty_vote_is_not_counted_as_a_short_hit() {
        let mut b = Bingo::new(BingoConfig {
            history_entries: 256,
            history_ways: 4,
            accumulation_entries: 8,
            vote_threshold: 0.9,
            ..BingoConfig::paper()
        });
        // Two footprints sharing PC+Offset (offset 3) but agreeing only on
        // the trigger block itself.
        visit(&mut b, 0x400, 10, &[3, 7]);
        visit(&mut b, 0x400, 11, &[3, 9]);
        let before = b.stats;
        // New region: the short lookup matches both entries, but at a 90 %
        // threshold with 2 matches every block needs 2 votes — only the
        // trigger offset 3 qualifies, so zero prefetches are issued.
        let p = visit(&mut b, 0x400, 99, &[3]);
        assert!(p.is_empty(), "no prefetch can be issued, got {p:?}");
        assert_eq!(
            b.stats.short_hits, before.short_hits,
            "a vetoed vote must not count as a short hit"
        );
        assert_eq!(b.stats.empty_votes, before.empty_votes + 1);
        assert_eq!(b.stats.lookups, before.lookups + 1);
        assert!(
            b.stats.match_probability() <= before.match_probability(),
            "an issue-nothing lookup must not raise the match probability"
        );
    }

    #[test]
    fn vote_exactly_at_threshold_prefetches_the_block() {
        // 4 matching footprints at a 50% threshold: need = ceil(2.0) = 2
        // votes. Offset 7 appears in exactly 2/4 — at the boundary — and
        // must be prefetched; offsets 9 and 21 appear once and must not.
        let mut b = Bingo::new(BingoConfig {
            history_entries: 256,
            history_ways: 4,
            accumulation_entries: 8,
            vote_threshold: 0.5,
            ..BingoConfig::paper()
        });
        visit(&mut b, 0x400, 10, &[3, 7]);
        visit(&mut b, 0x400, 11, &[3, 7]);
        visit(&mut b, 0x400, 12, &[3, 9]);
        visit(&mut b, 0x400, 13, &[3, 21]);
        let p = visit(&mut b, 0x400, 99, &[3]);
        let blocks: Vec<u64> = p.iter().map(|x| x.index()).collect();
        assert_eq!(blocks, vec![99 * 32 + 7], "only the at-threshold block");
    }

    #[test]
    fn single_way_short_match_fires_even_at_strict_threshold() {
        // One matching footprint: need = ceil(threshold * 1) = 1 for every
        // valid threshold, so a single-way match always replays its whole
        // footprint — including under a 90% threshold.
        let mut b = Bingo::new(BingoConfig {
            history_entries: 256,
            history_ways: 4,
            accumulation_entries: 8,
            vote_threshold: 0.9,
            ..BingoConfig::paper()
        });
        visit(&mut b, 0x400, 10, &[3, 7, 9]);
        let p = visit(&mut b, 0x400, 99, &[3]);
        let blocks: Vec<u64> = p.iter().map(|x| x.index()).collect();
        assert_eq!(blocks, vec![99 * 32 + 7, 99 * 32 + 9]);
        assert_eq!(b.stats.short_hits, 1);
    }

    #[test]
    fn step_reports_trigger_source_and_prefetches() {
        let mut b = small();
        // First touch of region 10: a trigger with nothing learned.
        let s = b.step(&info(0x400, 10 * 32 + 3));
        assert!(s.trigger);
        assert_eq!(s.source, PrefetchSource::Unattributed);
        assert!(s.prefetches.is_empty());
        // Second touch of the same residency: not a trigger.
        let s = b.step(&info(0x400, 10 * 32 + 7));
        assert!(!s.trigger);
        b.on_eviction(BlockAddr::new(10 * 32 + 3));
        // Exact revisit: trigger + long-event prediction.
        let s = b.step(&info(0x400, 10 * 32 + 3));
        assert!(s.trigger);
        assert_eq!(s.source, PrefetchSource::LongEvent);
        assert_eq!(s.prefetches, vec![BlockAddr::new(10 * 32 + 7)]);
    }

    #[test]
    fn step_matches_on_access_exactly() {
        // step() must be the same code path as on_access, not a parallel
        // one: two identically configured instances fed the same stream
        // agree step-for-step.
        let mut via_step = small();
        let mut via_access = small();
        let pattern: &[(u64, u64)] = &[
            (0x400, 10 * 32 + 3),
            (0x400, 10 * 32 + 7),
            (0x404, 11 * 32 + 3),
            (0x400, 12 * 32 + 3),
            (0x400, 10 * 32 + 9),
        ];
        for &(pc, block) in pattern {
            let s = via_step.step(&info(pc, block));
            let mut out = Vec::new();
            via_access.on_access(&info(pc, block), &mut out);
            assert_eq!(s.prefetches, out);
            assert_eq!(s.source, via_access.last_burst_source());
        }
        assert_eq!(via_step.stats, via_access.stats);
    }

    #[test]
    fn config_storage_matches_built_prefetcher() {
        for cfg in [
            BingoConfig::paper(),
            BingoConfig::with_history_entries(4096),
            BingoConfig {
                history_entries: 256,
                history_ways: 4,
                accumulation_entries: 8,
                ..BingoConfig::paper()
            },
        ] {
            let built = Bingo::new(cfg);
            assert_eq!(cfg.storage_bits(), built.storage_bits());
        }
    }

    #[test]
    fn single_access_residencies_are_not_trained() {
        let mut b = small();
        visit(&mut b, 0x400, 10, &[3]); // one block only
        let p = visit(&mut b, 0x400, 99, &[3]);
        assert!(p.is_empty());
        assert_eq!(b.stats.trainings, 0);
    }

    #[test]
    fn accumulation_overflow_trains_early() {
        let mut b = Bingo::new(BingoConfig {
            history_entries: 256,
            history_ways: 4,
            accumulation_entries: 2,
            ..BingoConfig::paper()
        });
        let mut out = Vec::new();
        // Start three multi-access residencies without evictions; capacity
        // 2 forces the first one out and into the history table.
        b.on_access(&info(0x400, 10 * 32 + 3), &mut out);
        b.on_access(&info(0x400, 10 * 32 + 7), &mut out);
        b.on_access(&info(0x500, 11 * 32 + 1), &mut out);
        b.on_access(&info(0x500, 11 * 32 + 2), &mut out);
        b.on_access(&info(0x600, 12 * 32 + 2), &mut out);
        b.on_access(&info(0x600, 12 * 32 + 3), &mut out);
        assert_eq!(b.stats.trainings, 1);
    }

    #[test]
    fn eviction_of_untracked_region_is_ignored() {
        let mut b = small();
        b.on_eviction(BlockAddr::new(123456));
        assert_eq!(b.stats.trainings, 0);
    }

    #[test]
    fn paper_storage_is_about_119_kb() {
        let b = Bingo::new(BingoConfig::paper());
        let kb = b.storage_bits() as f64 / 8.0 / 1024.0;
        assert!(
            kb > 110.0 && kb < 130.0,
            "Bingo storage {kb:.1} KB; paper reports 119 KB"
        );
    }

    #[test]
    fn retraining_updates_footprint() {
        let mut b = small();
        visit(&mut b, 0x400, 10, &[3, 7]);
        // Second residency of the same region/trigger with a new pattern.
        visit(&mut b, 0x400, 10, &[3, 12]);
        let p = visit(&mut b, 0x400, 10, &[3]);
        let blocks: Vec<u64> = p.iter().map(|x| x.index()).collect();
        assert_eq!(blocks, vec![10 * 32 + 12]);
    }

    #[test]
    fn match_probability_tracks_hits() {
        let mut b = small();
        visit(&mut b, 0x400, 10, &[3, 7]);
        visit(&mut b, 0x400, 11, &[3, 9]); // short hit on trigger
        visit(&mut b, 0x500, 50, &[1, 2]); // no match on trigger
        assert_eq!(b.stats.lookups, 3);
        assert!((b.stats.match_probability() - 1.0 / 3.0).abs() < 1e-12);
    }

    /// The `fault_*` entries of `b`'s metrics, in their order.
    fn fault_metrics(b: &Bingo) -> Vec<(&'static str, f64)> {
        let mut metrics = b.metrics();
        metrics.retain(|(name, _)| name.starts_with("fault_"));
        metrics
    }

    #[test]
    fn fault_free_constructor_reports_no_fault_stats() {
        let b = small();
        assert!(fault_metrics(&b).is_empty());
        assert!(!b.debug_stats().contains("faults:"));
    }

    #[test]
    fn zero_rate_fault_plan_is_behaviorally_invisible() {
        let mut clean = small();
        let mut faulty = Bingo::with_faults(
            BingoConfig {
                history_entries: 256,
                history_ways: 4,
                accumulation_entries: 8,
                ..BingoConfig::paper()
            },
            FaultPlan::none(99),
        );
        for b in [&mut clean, &mut faulty] {
            visit(b, 0x400, 10, &[3, 7, 9]);
        }
        assert_eq!(
            visit(&mut clean, 0x400, 10, &[3]),
            visit(&mut faulty, 0x400, 10, &[3]),
            "a zero-rate injector must not change predictions"
        );
        assert_eq!(
            fault_metrics(&faulty),
            vec![
                ("fault_bits_flipped", 0.0),
                ("fault_entries_dropped", 0.0),
                ("fault_prefetches_dropped", 0.0),
            ],
            "injector attached, nothing injected"
        );
    }

    #[test]
    fn saturated_fault_plan_drops_every_prefetch() {
        let mut b = Bingo::with_faults(
            BingoConfig {
                history_entries: 256,
                history_ways: 4,
                accumulation_entries: 8,
                ..BingoConfig::paper()
            },
            FaultPlan::uniform(7, 1.0),
        );
        visit(&mut b, 0x400, 10, &[3, 7, 9]);
        let p = visit(&mut b, 0x400, 10, &[3]);
        assert!(p.is_empty(), "rate-1.0 drop must discard all candidates");
        assert!(
            fault_metrics(&b)
                .iter()
                .any(|&(n, v)| n == "fault_entries_dropped" && v > 0.0),
            "history drops fired"
        );
        assert!(b.debug_stats().contains("faults:"));
    }

    #[test]
    fn burst_source_tracks_originating_event() {
        let mut b = small();
        assert_eq!(b.last_burst_source(), PrefetchSource::Unattributed);
        visit(&mut b, 0x400, 10, &[3, 7, 9]);
        // Same region, PC, and trigger: the long event replays.
        let mut out = Vec::new();
        b.on_access(&info(0x400, 10 * 32 + 3), &mut out);
        assert!(!out.is_empty());
        assert_eq!(b.last_burst_source(), PrefetchSource::LongEvent);
        b.on_eviction(BlockAddr::new(10 * 32 + 3));
        // New region, same PC+offset: the voted short event fires.
        out.clear();
        b.on_access(&info(0x400, 99 * 32 + 3), &mut out);
        assert!(!out.is_empty());
        assert_eq!(b.last_burst_source(), PrefetchSource::ShortVote);
        b.on_eviction(BlockAddr::new(99 * 32 + 3));
        // A no-match trigger clears the stale attribution.
        out.clear();
        b.on_access(&info(0x999, 55 * 32 + 1), &mut out);
        assert!(out.is_empty());
        assert_eq!(b.last_burst_source(), PrefetchSource::Unattributed);
    }

    #[test]
    fn throttled_predictions_are_subsets_of_unthrottled() {
        let train = |b: &mut Bingo| {
            // Two residencies sharing PC+Offset 3 with different spatial
            // patterns: the 20% vote unions them, the raised vote (0.75,
            // needing 2/2 votes) intersects them away entirely.
            visit(b, 0x400, 10, &[3, 7, 11]);
            visit(b, 0x400, 11, &[3, 9, 11]);
        };
        let mut full = small();
        train(&mut full);
        let unthrottled = visit(&mut full, 0x400, 99, &[3]);
        let full_set: Vec<u64> = unthrottled.iter().map(|x| x.index()).collect();
        assert_eq!(full_set.len(), 3, "union {{7, 9, 11}}: {full_set:?}");
        for level in [
            ThrottleLevel::RaisedVote,
            ThrottleLevel::TriggerOnly,
            ThrottleLevel::Stopped,
        ] {
            let mut b = small();
            train(&mut b);
            b.set_throttle_level(level);
            let got = visit(&mut b, 0x400, 99, &[3]);
            assert!(
                got.iter().all(|x| unthrottled.contains(x)),
                "{level}: {got:?} not a subset of {unthrottled:?}"
            );
            assert!(got.len() < unthrottled.len(), "{level} must subtract");
            assert!(b.debug_stats().contains("throttle="), "{level}");
            match level {
                // 0.75 * 2 matches -> both must agree: only offset 11.
                ThrottleLevel::RaisedVote => assert_eq!(got.len(), 1),
                ThrottleLevel::TriggerOnly => assert_eq!(got, unthrottled[..1]),
                ThrottleLevel::Stopped => assert!(got.is_empty()),
                ThrottleLevel::Full => unreachable!(),
            }
        }
    }

    #[test]
    fn raised_vote_leaves_long_event_bursts_intact() {
        let mut throttled = small();
        let mut clean = small();
        for b in [&mut throttled, &mut clean] {
            visit(b, 0x400, 10, &[3, 7, 9]);
        }
        throttled.set_throttle_level(ThrottleLevel::RaisedVote);
        // Exact revisit: the long event replays the stored footprint
        // verbatim — voting (and hence the raised threshold) never applies.
        assert_eq!(
            visit(&mut throttled, 0x400, 10, &[3]),
            visit(&mut clean, 0x400, 10, &[3])
        );
        assert_eq!(throttled.stats.long_hits, 1);
    }

    #[test]
    fn throttling_never_perturbs_table_state() {
        // Drive one instance through Stopped and back to Full; its
        // predictions afterwards must match an instance that was never
        // throttled, because training and lookup recency are untouched.
        let mut throttled = small();
        let mut clean = small();
        for b in [&mut throttled, &mut clean] {
            visit(b, 0x400, 10, &[3, 7, 9]);
        }
        throttled.set_throttle_level(ThrottleLevel::Stopped);
        let gagged = visit(&mut throttled, 0x400, 20, &[3, 5]);
        assert!(gagged.is_empty(), "stopped emits nothing");
        let _ = visit(&mut clean, 0x400, 20, &[3, 5]);
        throttled.set_throttle_level(ThrottleLevel::Full);
        assert_eq!(
            visit(&mut throttled, 0x400, 30, &[3]),
            visit(&mut clean, 0x400, 30, &[3]),
            "state diverged while throttled"
        );
    }

    #[test]
    fn region_geometry_comes_from_the_config() {
        // 1 KB regions: block 16 * r + o is offset o of region r. Under
        // 2 KB regions the second trigger would sit at offset 19 of the
        // trained region and predict nothing.
        let mut b = Bingo::new(BingoConfig {
            region: RegionGeometry::new(1024),
            ..BingoConfig::paper()
        });
        let mut out = Vec::new();
        for offset in [3, 7, 9] {
            b.on_access(&info(0x400, 16 * 10 + offset), &mut out);
        }
        b.on_eviction(BlockAddr::new(16 * 10 + 3));
        out.clear();
        b.on_access(&info(0x400, 16 * 11 + 3), &mut out);
        let blocks: Vec<u64> = out.iter().map(|x| x.index()).collect();
        assert_eq!(blocks, vec![16 * 11 + 7, 16 * 11 + 9]);
    }
}
