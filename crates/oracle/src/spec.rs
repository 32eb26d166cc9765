//! The executable specification of Bingo, transliterated from the paper
//! text (Section IV) with no regard for speed.
//!
//! Where the real implementation packs footprints into `u64` bitmaps and
//! reuses buffers, this model allocates a fresh
//! [`BTreeSet`] per footprint and scans every
//! structure linearly, so each rule of the paper is one short, auditable
//! block of code:
//!
//! 1. **Accumulation** (as in SMS): a *filter* list holds regions that
//!    have seen only their trigger access; the second access *promotes*
//!    the region to the *active* list where its footprint accumulates. The
//!    active list holds `accumulation_entries` residencies; promotion into
//!    a full list evicts the least-recently-touched residency straight
//!    into training.
//! 2. **Training**: a residency whose footprint has at least
//!    `min_footprint_blocks` blocks is stored in the unified history,
//!    indexed by a hash of its short event (`PC+Offset`) and tagged with
//!    its long event (`PC+Address`). Retraining an existing long tag
//!    replaces its footprint; otherwise a free way is used, else the
//!    least-recently-touched way is evicted (ties broken toward the
//!    lowest way, like a fixed-priority encoder).
//! 3. **Prediction** on each trigger access: look up the long event
//!    first; on a hit replay its footprint verbatim. Otherwise gather
//!    *all* ways matching the short event and vote: a block is kept if it
//!    appears in at least `ceil(vote_threshold * matches)` footprints
//!    (at least one). If the vote keeps nothing beyond the trigger block
//!    itself, no prefetch is issued and the lookup does not count as a
//!    hit. Prefetches are the kept offsets of the trigger's region,
//!    excluding the trigger block, in ascending offset order.
//!
//! The model reuses [`EventKind`]'s key hash and [`BingoConfig`] from the
//! implementation — keys and parameters are *interface* shared by both
//! sides — but re-derives every piece of table, replacement, and voting
//! *logic* independently, which is what makes the differential comparison
//! meaningful.

use std::collections::{BTreeMap, BTreeSet};

use bingo::{BingoConfig, EventKind};
use bingo_sim::{AccessInfo, BlockAddr, PrefetchSource, RegionId};

use crate::{format_blocks, StepOracle};

/// The observable outcome of one access fed to the specification — the
/// spec-side counterpart of [`bingo::PredictionStep`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecStep {
    /// Whether the access opened a new region residency (and therefore
    /// consulted the history).
    pub trigger: bool,
    /// Which event produced the prediction.
    pub source: PrefetchSource,
    /// Predicted blocks, ascending.
    pub prefetches: Vec<BlockAddr>,
}

#[derive(Clone, Debug)]
struct Residency {
    region: RegionId,
    trigger_pc: u64,
    trigger_block: u64,
    trigger_offset: u32,
    blocks: BTreeSet<u32>,
    last_touch: u64,
}

#[derive(Clone, Debug)]
struct Entry {
    long_key: u64,
    short_key: u64,
    blocks: BTreeSet<u32>,
    last_touch: u64,
}

/// The naive, obviously-correct Bingo reference model.
#[derive(Debug)]
pub struct SpecBingo {
    cfg: BingoConfig,
    /// Single-access regions awaiting their second access.
    filter: Vec<Residency>,
    /// Multi-access regions whose footprints are accumulating.
    active: Vec<Residency>,
    /// The unified history: `sets[i]` holds up to `history_ways` entries;
    /// `None` marks a free way (way position matters only for the
    /// eviction tie-break).
    sets: Vec<Vec<Option<Entry>>>,
    set_mask: u64,
    /// One logical clock for every recency decision. Only the relative
    /// order of touches matters, so a single global counter specifies LRU
    /// for all structures at once.
    clock: u64,
}

impl SpecBingo {
    /// Builds the specification for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `history_entries / history_ways` is not a power of two
    /// (the same geometry rule the implementation enforces).
    pub fn new(cfg: BingoConfig) -> Self {
        let sets = cfg.history_entries / cfg.history_ways;
        assert!(
            sets.is_power_of_two() && sets * cfg.history_ways == cfg.history_entries,
            "history geometry must give a power-of-two set count"
        );
        SpecBingo {
            filter: Vec::new(),
            active: Vec::new(),
            sets: vec![vec![None; cfg.history_ways]; sets],
            set_mask: sets as u64 - 1,
            clock: 0,
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BingoConfig {
        &self.cfg
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Rule 1: the access either extends a live residency or opens a new
    /// one. Returns whether it was a trigger, plus any residency forced
    /// out of a full active list (which goes straight to training).
    fn observe(&mut self, info: &AccessInfo) -> (bool, Option<Residency>) {
        let now = self.tick();
        let region = self.cfg.region.region_of(info.block);
        let offset = self.cfg.region.offset_of(info.block);
        if let Some(r) = self.active.iter_mut().find(|r| r.region == region) {
            r.blocks.insert(offset);
            r.last_touch = now;
            return (false, None);
        }
        if let Some(i) = self.filter.iter().position(|r| r.region == region) {
            let mut r = self.filter.remove(i);
            r.blocks.insert(offset);
            r.last_touch = now;
            let evicted = if self.active.len() >= self.cfg.accumulation_entries {
                Some(remove_lru(&mut self.active))
            } else {
                None
            };
            self.active.push(r);
            return (false, evicted);
        }
        // A trigger: the region enters the filter with just its trigger
        // block recorded. Single-access regions churn here; a full filter
        // silently drops its least-recently-touched region (a one-block
        // footprint would not pass training anyway).
        let filter_capacity = self.cfg.accumulation_entries.max(8);
        if self.filter.len() >= filter_capacity {
            let _ = remove_lru(&mut self.filter);
        }
        self.filter.push(Residency {
            region,
            trigger_pc: info.pc.raw(),
            trigger_block: info.block.index(),
            trigger_offset: offset,
            blocks: BTreeSet::from([offset]),
            last_touch: now,
        });
        (true, None)
    }

    /// Rule 2: store the residency's footprint under its trigger events.
    fn train(&mut self, res: Residency) {
        if (res.blocks.len() as u32) < self.cfg.min_footprint_blocks {
            return;
        }
        let long_key = EventKind::PcAddress.key_parts(
            res.trigger_pc,
            res.trigger_block,
            res.trigger_offset as u64,
        );
        let short_key = EventKind::PcOffset.key_parts(
            res.trigger_pc,
            res.trigger_block,
            res.trigger_offset as u64,
        );
        let now = self.tick();
        let set = &mut self.sets[(short_key & self.set_mask) as usize];
        if let Some(e) = set.iter_mut().flatten().find(|e| e.long_key == long_key) {
            e.short_key = short_key;
            e.blocks = res.blocks;
            e.last_touch = now;
            return;
        }
        let way = free_or_lru_way(set);
        set[way] = Some(Entry {
            long_key,
            short_key,
            blocks: res.blocks,
            last_touch: now,
        });
    }

    /// Rule 3: long event first, then the short-event vote.
    fn predict(&mut self, info: &AccessInfo) -> (PrefetchSource, Vec<BlockAddr>) {
        let long_key = EventKind::PcAddress.key_of(info, self.cfg.region);
        let short_key = EventKind::PcOffset.key_of(info, self.cfg.region);
        let now = self.tick();
        let set = &mut self.sets[(short_key & self.set_mask) as usize];

        if let Some(e) = set.iter_mut().flatten().find(|e| e.long_key == long_key) {
            e.last_touch = now;
            let blocks = e.blocks.clone();
            return (PrefetchSource::LongEvent, emit(&self.cfg, info, &blocks));
        }

        let mut matches = 0u32;
        let mut votes: BTreeMap<u32, u32> = BTreeMap::new();
        for e in set.iter_mut().flatten() {
            if e.short_key == short_key {
                matches += 1;
                e.last_touch = now;
                for &offset in &e.blocks {
                    *votes.entry(offset).or_insert(0) += 1;
                }
            }
        }
        if matches == 0 {
            return (PrefetchSource::Unattributed, Vec::new());
        }
        // "At least 20% of the matching footprints": the same arithmetic
        // expression as the implementation, so the float rounding at the
        // boundary is part of the shared interface rather than a source of
        // spurious diffs.
        let need = ((self.cfg.vote_threshold * matches as f64).ceil() as u32).max(1);
        let kept: BTreeSet<u32> = votes
            .into_iter()
            .filter(|&(_, v)| v >= need)
            .map(|(offset, _)| offset)
            .collect();
        // A vote that keeps nothing beyond the trigger block issues no
        // prefetch and is not a match.
        let trigger = self.cfg.region.offset_of(info.block);
        if kept.iter().any(|&offset| offset != trigger) {
            (PrefetchSource::ShortVote, emit(&self.cfg, info, &kept))
        } else {
            (PrefetchSource::Unattributed, Vec::new())
        }
    }

    /// Feeds one demand access through rules 1–3.
    pub fn step(&mut self, info: &AccessInfo) -> SpecStep {
        let (trigger, overflowed) = self.observe(info);
        if let Some(res) = overflowed {
            self.train(res);
        }
        let (source, prefetches) = if trigger {
            self.predict(info)
        } else {
            (PrefetchSource::Unattributed, Vec::new())
        };
        SpecStep {
            trigger,
            source,
            prefetches,
        }
    }

    /// An LLC eviction ends the block's region residency and trains it
    /// (when eviction training is enabled — the paper's configuration).
    pub fn evict(&mut self, block: BlockAddr) {
        if !self.cfg.train_on_eviction {
            return;
        }
        let region = self.cfg.region.region_of(block);
        let res = if let Some(i) = self.active.iter().position(|r| r.region == region) {
            Some(self.active.remove(i))
        } else {
            self.filter
                .iter()
                .position(|r| r.region == region)
                .map(|i| self.filter.remove(i))
        };
        if let Some(res) = res {
            self.train(res);
        }
    }
}

/// Removes and returns the least-recently-touched residency.
fn remove_lru(list: &mut Vec<Residency>) -> Residency {
    let (i, _) = list
        .iter()
        .enumerate()
        .min_by_key(|(_, r)| r.last_touch)
        .expect("caller checked non-empty");
    list.remove(i)
}

/// The victim way for an insertion: the first free way, else the
/// least-recently-touched one (first such way on a tie).
fn free_or_lru_way(set: &[Option<Entry>]) -> usize {
    if let Some(i) = set.iter().position(|w| w.is_none()) {
        return i;
    }
    set.iter()
        .enumerate()
        .min_by_key(|(_, w)| w.as_ref().expect("no free way").last_touch)
        .map(|(i, _)| i)
        .expect("sets are non-empty")
}

/// The predicted blocks: every kept offset of the trigger's region except
/// the trigger block itself, ascending.
fn emit(cfg: &BingoConfig, info: &AccessInfo, offsets: &BTreeSet<u32>) -> Vec<BlockAddr> {
    let region = cfg.region.region_of(info.block);
    let trigger = cfg.region.offset_of(info.block);
    offsets
        .iter()
        .filter(|&&offset| offset != trigger)
        .map(|&offset| cfg.region.block_at(region, offset))
        .collect()
}

impl StepOracle for SpecBingo {
    fn name(&self) -> &str {
        "SpecBingo"
    }

    fn check_access(&mut self, info: &AccessInfo, emitted: &[BlockAddr]) -> Result<(), String> {
        let step = self.step(info);
        if step.prefetches == emitted {
            Ok(())
        } else {
            Err(format!(
                "pc={:#x} block={:#x}: spec predicts {}, implementation emitted {}",
                info.pc.raw(),
                info.block.index(),
                format_blocks(&step.prefetches),
                format_blocks(emitted),
            ))
        }
    }

    fn check_eviction(&mut self, block: BlockAddr) -> Result<(), String> {
        self.evict(block);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_sim::Pc;

    fn small_cfg() -> BingoConfig {
        BingoConfig {
            history_entries: 256,
            history_ways: 4,
            accumulation_entries: 8,
            ..BingoConfig::paper()
        }
    }

    fn info(pc: u64, block: u64) -> AccessInfo {
        AccessInfo::demand(Pc::new(pc), BlockAddr::new(block))
    }

    fn visit(s: &mut SpecBingo, pc: u64, region: u64, offsets: &[u32]) -> SpecStep {
        let mut first = None;
        for &off in offsets {
            let step = s.step(&info(pc, region * 32 + off as u64));
            first.get_or_insert(step);
        }
        s.evict(BlockAddr::new(region * 32 + offsets[0] as u64));
        first.expect("at least one offset")
    }

    #[test]
    fn long_event_replays_exact_footprint() {
        let mut s = SpecBingo::new(small_cfg());
        let first = visit(&mut s, 0x400, 10, &[3, 7, 9]);
        assert!(first.trigger);
        assert!(first.prefetches.is_empty());
        let replay = visit(&mut s, 0x400, 10, &[3]);
        assert_eq!(replay.source, PrefetchSource::LongEvent);
        assert_eq!(
            replay.prefetches,
            vec![BlockAddr::new(10 * 32 + 7), BlockAddr::new(10 * 32 + 9)]
        );
    }

    #[test]
    fn short_vote_generalizes_to_new_regions() {
        let mut s = SpecBingo::new(small_cfg());
        visit(&mut s, 0x400, 10, &[3, 7, 9]);
        let step = visit(&mut s, 0x400, 99, &[3]);
        assert_eq!(step.source, PrefetchSource::ShortVote);
        assert_eq!(
            step.prefetches,
            vec![BlockAddr::new(99 * 32 + 7), BlockAddr::new(99 * 32 + 9)]
        );
    }

    #[test]
    fn non_trigger_accesses_predict_nothing() {
        let mut s = SpecBingo::new(small_cfg());
        visit(&mut s, 0x400, 10, &[3, 7]);
        assert!(s.step(&info(0x400, 50 * 32 + 3)).trigger);
        let second = s.step(&info(0x400, 50 * 32 + 9));
        assert!(!second.trigger);
        assert!(second.prefetches.is_empty());
    }

    #[test]
    fn strict_vote_can_keep_nothing() {
        let mut s = SpecBingo::new(BingoConfig {
            vote_threshold: 0.9,
            ..small_cfg()
        });
        visit(&mut s, 0x400, 10, &[3, 7]);
        visit(&mut s, 0x400, 11, &[3, 9]);
        let step = visit(&mut s, 0x400, 99, &[3]);
        assert_eq!(step.source, PrefetchSource::Unattributed);
        assert!(step.prefetches.is_empty());
    }

    #[test]
    fn single_access_regions_never_train() {
        let mut s = SpecBingo::new(small_cfg());
        visit(&mut s, 0x400, 10, &[3]);
        let step = visit(&mut s, 0x400, 99, &[3]);
        assert!(step.prefetches.is_empty());
    }

    #[test]
    fn check_access_flags_a_mismatch() {
        let mut s = SpecBingo::new(small_cfg());
        let bogus = [BlockAddr::new(9999)];
        let err = s
            .check_access(&info(0x400, 10 * 32 + 3), &bogus)
            .unwrap_err();
        assert!(err.contains("spec predicts []"), "{err}");
        assert!(err.contains("0x270f"), "{err}");
    }
}
