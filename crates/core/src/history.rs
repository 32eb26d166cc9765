//! The unified history table — the storage contribution of the paper
//! (Section IV, Fig. 5).
//!
//! A naive TAGE-like design would keep one table per event. Bingo's insight
//! is that *short events are carried in long events*: knowing `PC+Address`
//! implies knowing `PC+Offset`. The unified table therefore stores each
//! footprint **once**, associated with the longest event, but remains
//! searchable by both events:
//!
//! * the table is **indexed** by a hash of the *shortest* event
//!   (`PC+Offset`), so the long and the short lookup land in the same set;
//! * each entry is **tagged** with the *longest* event (`PC+Address`); a
//!   short lookup simply compares only the short event's portion of the tag.
//!
//! A long lookup matches at most one way. A short lookup may match several
//! ways — multiple footprints whose triggers shared `PC+Offset` but had
//! different addresses — and the caller combines them by voting
//! ([`crate::footprint::Footprint::vote`]).

use crate::footprint::Footprint;

/// The single, set-associative history table of Bingo.
///
/// Stored structure-of-arrays: the tag scans that dominate every lookup
/// walk dense `u64` slices (set *s* occupies indices `s*ways ..
/// (s+1)*ways`), and the footprint/recency columns are touched only on a
/// match. Invalid entries carry zeroed tags and a zero recency stamp;
/// validity is tracked explicitly so a genuine zero tag cannot alias.
#[derive(Debug)]
pub struct UnifiedHistoryTable {
    valid: Vec<bool>,
    /// Full tags: the longest event (`PC+Address`).
    long_tags: Vec<u64>,
    /// The short portion of each tag (`PC+Offset`); physically a subset of
    /// the long event's bits, stored separately here for clarity.
    short_tags: Vec<u64>,
    footprints: Vec<Footprint>,
    last_touch: Vec<u64>,
    ways: usize,
    set_mask: u64,
    stamp: u64,
    region_blocks: u32,
    /// Reusable `(previous stamp, footprint)` buffer for
    /// [`UnifiedHistoryTable::lookup_short`], so the hot path never
    /// allocates.
    scratch: Vec<(u64, Footprint)>,
}

/// Statistics helpers returned by [`UnifiedHistoryTable::lookup_short`].
pub type ShortMatches = Vec<Footprint>;

impl UnifiedHistoryTable {
    /// Creates a table with `entries` total entries and `ways`-way sets.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a multiple of `ways` yielding a
    /// power-of-two set count, or if `region_blocks` is out of `1..=64`.
    pub fn new(entries: usize, ways: usize, region_blocks: u32) -> Self {
        assert!(ways > 0 && entries >= ways, "invalid geometry");
        assert!(
            (1..=64).contains(&region_blocks),
            "region blocks {region_blocks} out of range"
        );
        let sets = entries / ways;
        assert!(
            sets.is_power_of_two() && sets * ways == entries,
            "entries {entries} / ways {ways} must give a power-of-two set count"
        );
        UnifiedHistoryTable {
            valid: vec![false; entries],
            long_tags: vec![0; entries],
            short_tags: vec![0; entries],
            footprints: vec![Footprint::empty(region_blocks); entries],
            last_touch: vec![0; entries],
            ways,
            set_mask: sets as u64 - 1,
            stamp: 0,
            region_blocks,
            scratch: Vec::with_capacity(ways),
        }
    }

    /// Total entries.
    pub fn entries(&self) -> usize {
        self.valid.len()
    }

    fn set_of(&self, short_key: u64) -> usize {
        (short_key & self.set_mask) as usize
    }

    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Inserts (or re-trains) the footprint observed after the given long
    /// event. The set is chosen by the short event's hash; the victim, when
    /// the set is full, is the LRU entry.
    pub fn insert(&mut self, long_key: u64, short_key: u64, footprint: Footprint) {
        debug_assert_eq!(footprint.len(), self.region_blocks);
        bingo_sim::audit_assert!(
            footprint.len() == self.region_blocks && footprint.count() <= self.region_blocks,
            "footprint geometry invariant: {} set bits in a {}-block footprint \
             stored into a {}-block-region table",
            footprint.count(),
            footprint.len(),
            self.region_blocks
        );
        let stamp = self.next_stamp();
        let base = self.set_of(short_key) * self.ways;
        let end = base + self.ways;
        // Re-train an existing entry for the same long event.
        let mut slot = None;
        let mut lru = base;
        let mut lru_touch = u64::MAX;
        for i in base..end {
            if !self.valid[i] {
                if slot.is_none() {
                    slot = Some(i);
                }
                continue;
            }
            if self.long_tags[i] == long_key {
                self.footprints[i] = footprint;
                self.short_tags[i] = short_key;
                self.last_touch[i] = stamp;
                return;
            }
            if self.last_touch[i] < lru_touch {
                lru_touch = self.last_touch[i];
                lru = i;
            }
        }
        let slot = slot.unwrap_or(lru);
        self.valid[slot] = true;
        self.long_tags[slot] = long_key;
        self.short_tags[slot] = short_key;
        self.footprints[slot] = footprint;
        self.last_touch[slot] = stamp;
    }

    /// Looks up with the long event (all tag bits compared). At most one
    /// entry can match; recency is updated on a hit.
    pub fn lookup_long(&mut self, long_key: u64, short_key: u64) -> Option<Footprint> {
        let stamp = self.next_stamp();
        let base = self.set_of(short_key) * self.ways;
        for i in base..base + self.ways {
            if self.long_tags[i] == long_key && self.valid[i] {
                self.last_touch[i] = stamp;
                return Some(self.footprints[i]);
            }
        }
        None
    }

    /// Looks up with the short event only (the gray path of Fig. 5): every
    /// way whose short-tag portion matches contributes its footprint.
    /// Matches are returned most-recent-first, ways touched at the same
    /// stamp in way order; recency is updated.
    pub fn lookup_short(&mut self, short_key: u64, out: &mut ShortMatches) {
        out.clear();
        let stamp = self.next_stamp();
        let base = self.set_of(short_key) * self.ways;
        self.scratch.clear();
        for i in base..base + self.ways {
            if self.short_tags[i] == short_key && self.valid[i] {
                self.scratch.push((self.last_touch[i], self.footprints[i]));
                self.last_touch[i] = stamp;
            }
        }
        // One short lookup gives every way it matches the same stamp, so
        // previous stamps can tie; the stable sort returns tied ways in way
        // order.
        self.scratch.sort_by_key(|m| std::cmp::Reverse(m.0));
        out.extend(self.scratch.iter().map(|&(_, f)| f));
    }

    /// Invalidates one valid entry chosen by `pick` (a value used modulo
    /// the number of valid entries), returning whether anything was
    /// dropped. Models metadata loss for fault-injection experiments: the
    /// prefetcher behaves exactly as if the entry had been evicted.
    pub fn evict_entry(&mut self, pick: u64) -> bool {
        let valid = self.valid_entries();
        if valid == 0 {
            return false;
        }
        let mut target = (pick % valid as u64) as usize;
        for i in 0..self.valid.len() {
            if self.valid[i] {
                if target == 0 {
                    self.valid[i] = false;
                    self.long_tags[i] = 0;
                    self.short_tags[i] = 0;
                    self.footprints[i] = Footprint::empty(self.region_blocks);
                    self.last_touch[i] = 0;
                    return true;
                }
                target -= 1;
            }
        }
        unreachable!("target was chosen modulo the valid-entry count");
    }

    /// Number of valid entries (diagnostics).
    pub fn valid_entries(&self) -> usize {
        self.valid.iter().filter(|v| **v).count()
    }

    /// Storage in bits. Mirrors the paper's accounting (Section VI-A: a
    /// 16 K-entry table totals 119 KB): per entry the footprint
    /// (one bit per region block), the `PC+Address` tag beyond the index
    /// bits (modeled at 16 PC bits + 6 offset bits + 1 valid), and 4
    /// replacement bits.
    pub fn storage_bits(&self) -> u64 {
        Self::storage_bits_for(self.entries(), self.region_blocks)
    }

    /// [`UnifiedHistoryTable::storage_bits`] computed from the geometry
    /// alone, without allocating the table.
    pub fn storage_bits_for(entries: usize, region_blocks: u32) -> u64 {
        let tag_bits = 16 + 6 + 1;
        let per_entry = region_blocks as u64 + tag_bits + 4;
        entries as u64 * per_entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(bits: u64) -> Footprint {
        Footprint::from_bits(bits, 32)
    }

    fn table() -> UnifiedHistoryTable {
        UnifiedHistoryTable::new(64, 4, 32)
    }

    #[test]
    fn long_lookup_finds_exact_entry() {
        let mut t = table();
        t.insert(100, 7, fp(0b1010));
        assert_eq!(t.lookup_long(100, 7), Some(fp(0b1010)));
        assert_eq!(t.lookup_long(101, 7), None);
    }

    #[test]
    fn short_lookup_finds_all_matching_ways() {
        let mut t = table();
        // Three different long events sharing short key 7 -> same set.
        t.insert(100, 7, fp(0b0001));
        t.insert(200, 7, fp(0b0010));
        t.insert(300, 7, fp(0b0100));
        let mut out = Vec::new();
        t.lookup_short(7, &mut out);
        assert_eq!(out.len(), 3);
        let union = out.iter().fold(Footprint::empty(32), |a, b| a.union(*b));
        assert_eq!(union.bits(), 0b0111);
    }

    #[test]
    fn short_lookup_returns_most_recent_first() {
        let mut t = table();
        t.insert(100, 7, fp(0b0001));
        t.insert(200, 7, fp(0b0010));
        // Touch the first entry to make it most recent.
        let _ = t.lookup_long(100, 7);
        let mut out = Vec::new();
        t.lookup_short(7, &mut out);
        assert_eq!(out[0], fp(0b0001));
        assert_eq!(out[1], fp(0b0010));
    }

    #[test]
    fn short_lookup_returns_ways_it_tied_in_way_order() {
        let mut t = table();
        t.insert(100, 7, fp(0b0001));
        t.insert(200, 7, fp(0b0010));
        let mut out = Vec::new();
        t.lookup_short(7, &mut out);
        assert_eq!(out, [fp(0b0010), fp(0b0001)], "most recent first");
        // That lookup gave both ways one stamp.
        t.lookup_short(7, &mut out);
        assert_eq!(out, [fp(0b0001), fp(0b0010)], "tied ways in way order");

        // A set wide enough for an unstable sort to reorder ties: every
        // third way is touched again after the tying lookup.
        let mut t = UnifiedHistoryTable::new(64, 64, 32);
        for i in 0..64 {
            t.insert(1000 + i, 7, fp(i + 1));
        }
        t.lookup_short(7, &mut out);
        let retouched: Vec<u64> = (0..64).step_by(3).collect();
        for &i in &retouched {
            t.lookup_long(1000 + i, 7);
        }
        t.lookup_short(7, &mut out);
        let tied = (0..64).filter(|i| i % 3 != 0);
        let expected = retouched.iter().rev().copied().chain(tied);
        assert_eq!(out, expected.map(|i| fp(i + 1)).collect::<Vec<_>>());
    }

    #[test]
    fn insert_retrains_existing_long_event() {
        let mut t = table();
        t.insert(100, 7, fp(0b0001));
        t.insert(100, 7, fp(0b1000));
        assert_eq!(t.valid_entries(), 1, "retraining must not duplicate");
        assert_eq!(t.lookup_long(100, 7), Some(fp(0b1000)));
    }

    #[test]
    fn redundancy_is_eliminated_by_construction() {
        // The same footprint trained under the same long event occupies one
        // entry regardless of how many times it is stored — the unified
        // table's whole point (vs. one entry in each of two tables).
        let mut t = table();
        for _ in 0..10 {
            t.insert(100, 7, fp(0b0110));
        }
        assert_eq!(t.valid_entries(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut t = UnifiedHistoryTable::new(8, 2, 32); // 4 sets x 2 ways
                                                        // Force all into the set selected by short key 0 (set 0): keys 0, 4, 8.
        t.insert(1, 0, fp(1));
        t.insert(2, 4, fp(2));
        let _ = t.lookup_long(1, 0); // make long=1 most recent
        t.insert(3, 8, fp(4)); // evicts long=2
        assert_eq!(t.lookup_long(1, 0), Some(fp(1)));
        assert_eq!(t.lookup_long(2, 4), None);
        assert_eq!(t.lookup_long(3, 8), Some(fp(4)));
    }

    #[test]
    fn long_and_short_land_in_same_set() {
        // Insert via short key; a long lookup with that short key must find
        // it even though the long tag alone says nothing about the set.
        let mut t = UnifiedHistoryTable::new(1024, 16, 32);
        t.insert(0xdeadbeef, 0x1234, fp(0b11));
        assert_eq!(t.lookup_long(0xdeadbeef, 0x1234), Some(fp(0b11)));
        let mut out = Vec::new();
        t.lookup_short(0x1234, &mut out);
        assert_eq!(out, vec![fp(0b11)]);
    }

    #[test]
    fn storage_matches_paper_119kb_at_16k_entries() {
        let t = UnifiedHistoryTable::new(16 * 1024, 16, 32);
        let kb = t.storage_bits() as f64 / 8.0 / 1024.0;
        assert!(
            (kb - 118.0).abs() < 6.0,
            "16K-entry table is {kb:.1} KB; the paper reports 119 KB"
        );
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn bad_geometry_rejected() {
        let _ = UnifiedHistoryTable::new(48, 16, 32);
    }

    #[test]
    fn evict_entry_drops_exactly_one() {
        let mut t = table();
        t.insert(1, 1, fp(1));
        t.insert(2, 2, fp(2));
        t.insert(3, 3, fp(4));
        assert!(t.evict_entry(7));
        assert_eq!(t.valid_entries(), 2);
        assert!(t.evict_entry(0));
        assert!(t.evict_entry(0));
        assert_eq!(t.valid_entries(), 0);
        assert!(!t.evict_entry(0), "empty table has nothing to drop");
    }

    #[test]
    fn valid_entries_counts() {
        let mut t = table();
        assert_eq!(t.valid_entries(), 0);
        t.insert(1, 1, fp(1));
        t.insert(2, 2, fp(2));
        assert_eq!(t.valid_entries(), 2);
    }

    #[test]
    fn retraining_one_alias_leaves_other_aliases_intact() {
        // Two long events aliasing on the same short key (the hash-index
        // collision the unified table is designed around). Retraining one
        // must not disturb the other's footprint or entry.
        let mut t = table();
        t.insert(100, 7, fp(0b0001));
        t.insert(200, 7, fp(0b0010));
        t.insert(100, 7, fp(0b1000)); // retrain the first alias
        assert_eq!(t.valid_entries(), 2, "retraining must not duplicate");
        assert_eq!(t.lookup_long(100, 7), Some(fp(0b1000)));
        assert_eq!(t.lookup_long(200, 7), Some(fp(0b0010)));
    }

    #[test]
    fn short_lookup_ignores_different_short_key_in_same_set() {
        // Keys 3 and 3+4 land in the same set of a 4-set table but carry
        // different short tags; a short lookup must separate them even
        // though a naive index-only match would conflate them.
        let mut t = UnifiedHistoryTable::new(8, 2, 32); // 4 sets x 2 ways
        t.insert(100, 3, fp(0b01));
        t.insert(200, 3 + 4, fp(0b10));
        let mut out = Vec::new();
        t.lookup_short(3, &mut out);
        assert_eq!(out, vec![fp(0b01)]);
        t.lookup_short(3 + 4, &mut out);
        assert_eq!(out, vec![fp(0b10)]);
    }

    #[test]
    fn full_set_of_aliases_evicts_least_recent_alias() {
        // A 2-way set completely filled with short-key aliases: inserting a
        // third alias must evict the LRU one, and the surviving pair must
        // be exactly {most recently touched, newcomer}.
        let mut t = UnifiedHistoryTable::new(8, 2, 32);
        t.insert(100, 7, fp(0b001)); // older
        t.insert(200, 7, fp(0b010)); // newer
        let _ = t.lookup_long(100, 7); // now 100 is most recent
        t.insert(300, 7, fp(0b100)); // must evict 200
        assert_eq!(t.valid_entries(), 2);
        assert_eq!(t.lookup_long(200, 7), None, "LRU alias evicted");
        assert_eq!(t.lookup_long(100, 7), Some(fp(0b001)));
        assert_eq!(t.lookup_long(300, 7), Some(fp(0b100)));
    }

    #[test]
    fn short_touch_protects_all_aliases_from_eviction() {
        // lookup_short touches every matching way, so a mixed set evicts
        // the non-matching entry first even if it was inserted later.
        let mut t = UnifiedHistoryTable::new(8, 2, 32);
        t.insert(100, 3, fp(0b01)); // alias of short key 3
        t.insert(900, 7, fp(0b10)); // same set (7 & 3 == 3), different short
        let mut out = Vec::new();
        t.lookup_short(3, &mut out); // touches only the alias of key 3
        assert_eq!(out.len(), 1);
        t.insert(300, 3, fp(0b11)); // set full: LRU is now the key-7 entry
        assert_eq!(t.lookup_long(900, 7), None, "untouched entry evicted");
        assert_eq!(t.lookup_long(100, 3), Some(fp(0b01)));
        assert_eq!(t.lookup_long(300, 3), Some(fp(0b11)));
    }

    #[test]
    fn eviction_order_cycles_through_insertion_order_when_untouched() {
        // With no intervening lookups, successive inserts into a full set
        // evict strictly in insertion order (stamps are the LRU order).
        let mut t = UnifiedHistoryTable::new(8, 2, 32);
        t.insert(1, 0, fp(0b001));
        t.insert(2, 4, fp(0b010));
        t.insert(3, 8, fp(0b100)); // evicts 1
        assert_eq!(t.lookup_long(1, 0), None);
        // That lookup_long miss did not touch anything; 2 is still LRU.
        t.insert(4, 12, fp(0b110)); // evicts 2
        assert_eq!(t.lookup_long(2, 4), None);
        assert_eq!(t.lookup_long(3, 8), Some(fp(0b100)));
        assert_eq!(t.lookup_long(4, 12), Some(fp(0b110)));
    }
}
