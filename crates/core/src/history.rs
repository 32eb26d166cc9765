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
//! ([`crate::footprint::Footprint::vote`]), which ignores their order.
//!
//! Replacement is LRU within a set, kept as one recency word per set (a
//! [`bingo_sim::WayOrder`], as in the simulator's caches): the paper's 4
//! replacement bits per entry are the entry's slot in that word. A short
//! lookup touches the ways it matches in way order, so of the ways it
//! ties, the lowest is evicted first, and an entry dropped by fault
//! injection is sunk to the back of its set, where the next insert fills
//! it.

use bingo_sim::WayOrder;

use crate::footprint::Footprint;

/// The single, set-associative history table of Bingo.
///
/// Stored structure-of-arrays: the tag scans that dominate every lookup
/// walk dense `u64` slices (set *s* occupies indices `s*ways ..
/// (s+1)*ways`), and the footprint column is touched only on a match.
/// Invalid entries carry zeroed tags; validity is tracked explicitly so a
/// genuine zero tag cannot alias. Each set's LRU order is one recency word
/// of a [`WayOrder`], so a set has at most
/// [`MAX_WAYS`](bingo_sim::recency::MAX_WAYS) ways.
#[derive(Debug)]
pub struct UnifiedHistoryTable {
    valid: Vec<bool>,
    /// Full tags: the longest event (`PC+Address`).
    long_tags: Vec<u64>,
    /// The short portion of each tag (`PC+Offset`); physically a subset of
    /// the long event's bits, stored separately here for clarity.
    short_tags: Vec<u64>,
    footprints: Vec<Footprint>,
    /// Each set's LRU order. Invalid ways trail the valid ones, lowest
    /// index last, so the back way is the first invalid way by index, else
    /// the least recently touched.
    order: WayOrder,
    ways: usize,
    set_mask: u64,
    region_blocks: u32,
}

/// The footprints [`UnifiedHistoryTable::lookup_short`] matched.
pub type ShortMatches = Vec<Footprint>;

impl UnifiedHistoryTable {
    /// Creates a table with `entries` total entries and `ways`-way sets.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a multiple of `ways` yielding a
    /// power-of-two set count, if `ways` exceeds
    /// [`MAX_WAYS`](bingo_sim::recency::MAX_WAYS), or if `region_blocks`
    /// is out of `1..=64`.
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
            order: WayOrder::new(sets, ways),
            ways,
            set_mask: sets as u64 - 1,
            region_blocks,
        }
    }

    fn set_of(&self, short_key: u64) -> usize {
        (short_key & self.set_mask) as usize
    }

    /// Way of the valid entry of `set` tagged `long_key`, if any.
    #[inline]
    fn find_long(&self, set: usize, long_key: u64) -> Option<usize> {
        let ways = set * self.ways..(set + 1) * self.ways;
        let (tags, valid) = (&self.long_tags[ways.clone()], &self.valid[ways]);
        tags.iter()
            .zip(valid)
            .position(|(&t, &v)| t == long_key && v)
    }

    /// Inserts (or re-trains) the footprint observed after the given long
    /// event. The set is chosen by the short event's hash; the victim, when
    /// no entry of the set holds the long event, is the way at the back of
    /// the set's order: the first invalid way, else the LRU entry.
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
        let set = self.set_of(short_key);
        // Re-train an existing entry for the same long event, else fill
        // the back way.
        let way = self
            .find_long(set, long_key)
            .unwrap_or_else(|| self.order.back(set));
        let i = set * self.ways + way;
        self.valid[i] = true;
        self.long_tags[i] = long_key;
        self.short_tags[i] = short_key;
        self.footprints[i] = footprint;
        self.order.touch(set, way);
    }

    /// Looks up with the long event (all tag bits compared). At most one
    /// entry can match; recency is updated on a hit.
    #[inline]
    pub fn lookup_long(&mut self, long_key: u64, short_key: u64) -> Option<Footprint> {
        let set = self.set_of(short_key);
        let way = self.find_long(set, long_key)?;
        self.order.touch(set, way);
        Some(self.footprints[set * self.ways + way])
    }

    /// Looks up with the short event only (the gray path of Fig. 5): every
    /// way whose short-tag portion matches contributes its footprint.
    /// Matches are returned in way order; recency is updated by touching
    /// them in that order, so of the ways one lookup ties, the lowest is
    /// evicted first.
    pub fn lookup_short(&mut self, short_key: u64, out: &mut ShortMatches) {
        out.clear();
        let set = self.set_of(short_key);
        let base = set * self.ways;
        let mut matched = 0u32;
        for (way, i) in (base..base + self.ways).enumerate() {
            if self.short_tags[i] == short_key && self.valid[i] {
                out.push(self.footprints[i]);
                matched |= 1 << way;
            }
        }
        self.order.touch_ascending(set, matched);
    }

    /// Invalidates one valid entry chosen by `pick` (a value used modulo
    /// the number of valid entries), returning whether anything was
    /// dropped. Models metadata loss for fault-injection experiments: the
    /// prefetcher behaves exactly as if the entry had been evicted, and
    /// the hole is the next fill of its set.
    pub fn evict_entry(&mut self, pick: u64) -> bool {
        let valid = self.valid_entries();
        if valid == 0 {
            return false;
        }
        let target = (pick % valid as u64) as usize;
        let i = (0..self.valid.len())
            .filter(|&i| self.valid[i])
            .nth(target)
            .expect("target was chosen modulo the valid-entry count");
        self.valid[i] = false;
        self.long_tags[i] = 0;
        self.short_tags[i] = 0;
        self.footprints[i] = Footprint::empty(self.region_blocks);
        let (set, base) = (i / self.ways, i - i % self.ways);
        self.order.sink_invalid(set, |way| self.valid[base + way]);
        true
    }

    /// Number of valid entries (diagnostics).
    pub fn valid_entries(&self) -> usize {
        self.valid.iter().filter(|v| **v).count()
    }

    /// Storage in bits of a table of `entries` entries over
    /// `region_blocks`-block regions. Mirrors the paper's accounting
    /// (Section VI-A: a 16 K-entry table totals 119 KB): per entry the
    /// footprint (one bit per region block), the `PC+Address` tag beyond
    /// the index bits (modeled at 16 PC bits + 6 offset bits + 1 valid),
    /// and 4 replacement bits, the entry's slot in its set's recency word.
    pub fn storage_bits_for(entries: usize, region_blocks: u32) -> u64 {
        let tag_bits = 16 + 6 + 1;
        let per_entry = region_blocks as u64 + tag_bits + 4;
        entries as u64 * per_entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_rng::rngs::SmallRng;
    use bingo_rng::{Rng, SeedableRng};

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
        let kb = UnifiedHistoryTable::storage_bits_for(16 * 1024, 32) as f64 / 8.0 / 1024.0;
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
    #[should_panic(expected = "orders 1 to 16 ways")]
    fn more_than_sixteen_ways_rejected() {
        let _ = UnifiedHistoryTable::new(64, 32, 32);
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

    #[test]
    fn ways_one_short_lookup_ties_are_evicted_lowest_first() {
        // One set of four ways: ways 0 and 2 alias short key 7, ways 1
        // and 3 short key 3.
        let mut t = UnifiedHistoryTable::new(4, 4, 32);
        for (long, short) in [(100, 7), (200, 3), (300, 7), (400, 3)] {
            t.insert(long, short, fp(long));
        }
        let mut out = Vec::new();
        t.lookup_short(7, &mut out);
        assert_eq!(out, [fp(100), fp(300)], "ways 0 and 2 tie");
        // Ways 1 and 3 are touched after the tie, so 0 and 2 are the two
        // least recent, tied.
        t.lookup_long(200, 3);
        t.lookup_long(400, 3);
        t.insert(500, 9, fp(500));
        assert_eq!(t.long_tags, [500, 200, 300, 400], "way 0 evicted first");
        t.insert(600, 9, fp(600));
        assert_eq!(t.long_tags, [500, 200, 600, 400], "then way 2");
    }

    /// The table as it was before its recency became one word per set,
    /// kept as the reference of `matches_stamped_reference_on_random_streams`:
    /// a `u64` stamp per entry drawn from a counter every insert and
    /// lookup advances, the victim the first invalid way else the least
    /// recent stamp (a short lookup gives every way it matches one stamp,
    /// and the scan keeps the lowest of tied ways), and short matches
    /// sorted most recent first.
    struct StampedTable {
        valid: Vec<bool>,
        long_tags: Vec<u64>,
        short_tags: Vec<u64>,
        footprints: Vec<Footprint>,
        last_touch: Vec<u64>,
        ways: usize,
        set_mask: u64,
        stamp: u64,
        region_blocks: u32,
    }

    impl StampedTable {
        fn new(entries: usize, ways: usize, region_blocks: u32) -> Self {
            StampedTable {
                valid: vec![false; entries],
                long_tags: vec![0; entries],
                short_tags: vec![0; entries],
                footprints: vec![Footprint::empty(region_blocks); entries],
                last_touch: vec![0; entries],
                ways,
                set_mask: (entries / ways) as u64 - 1,
                stamp: 0,
                region_blocks,
            }
        }

        fn set(&self, short_key: u64) -> std::ops::Range<usize> {
            let base = (short_key & self.set_mask) as usize * self.ways;
            base..base + self.ways
        }

        fn next_stamp(&mut self) -> u64 {
            self.stamp += 1;
            self.stamp
        }

        fn insert(&mut self, long_key: u64, short_key: u64, footprint: Footprint) {
            let stamp = self.next_stamp();
            let mut slot = None;
            let mut lru = self.set(short_key).start;
            let mut lru_touch = u64::MAX;
            for i in self.set(short_key) {
                if !self.valid[i] {
                    slot = slot.or(Some(i));
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

        fn lookup_long(&mut self, long_key: u64, short_key: u64) -> Option<Footprint> {
            let stamp = self.next_stamp();
            let i = self
                .set(short_key)
                .find(|&i| self.long_tags[i] == long_key && self.valid[i])?;
            self.last_touch[i] = stamp;
            Some(self.footprints[i])
        }

        fn lookup_short(&mut self, short_key: u64, out: &mut ShortMatches) {
            let stamp = self.next_stamp();
            let mut matches = Vec::new();
            for i in self.set(short_key) {
                if self.short_tags[i] == short_key && self.valid[i] {
                    matches.push((self.last_touch[i], self.footprints[i]));
                    self.last_touch[i] = stamp;
                }
            }
            matches.sort_by_key(|m| std::cmp::Reverse(m.0));
            out.clear();
            out.extend(matches.iter().map(|&(_, f)| f));
        }

        fn evict_entry(&mut self, pick: u64) -> bool {
            let valid = self.valid.iter().filter(|&&v| v).count();
            if valid == 0 {
                return false;
            }
            let target = (pick % valid as u64) as usize;
            let i = (0..self.valid.len())
                .filter(|&i| self.valid[i])
                .nth(target)
                .expect("target below the valid count");
            self.valid[i] = false;
            self.long_tags[i] = 0;
            self.short_tags[i] = 0;
            self.footprints[i] = Footprint::empty(self.region_blocks);
            self.last_touch[i] = 0;
            true
        }

        /// Whether an insert of `long_key` fills a hole: an invalid way of
        /// its set below a valid one, which only eviction leaves.
        fn fills_hole(&self, long_key: u64, short_key: u64) -> bool {
            let set = self.set(short_key);
            let retrains = set
                .clone()
                .any(|i| self.valid[i] && self.long_tags[i] == long_key);
            let first_invalid = set.clone().find(|&i| !self.valid[i]);
            !retrains && first_invalid.is_some_and(|h| set.clone().any(|i| i > h && self.valid[i]))
        }
    }

    #[test]
    fn matches_stamped_reference_on_random_streams() {
        const SETS: usize = 4;
        let mut rng = SmallRng::seed_from_u64(0x4157_0a7e);
        for ways in [1usize, 2, 4, 16] {
            // Short lookups that tie several ways (some but not all of the
            // set, and all of it), and inserts into holes: the cases the
            // recency word could get wrong.
            let (mut partial_ties, mut full_sets, mut into_holes) = (0, 0, 0);
            // One short event per set, so short lookups match whole sets,
            // then three per set.
            for shorts_per_set in [1, 3] {
                let entries = SETS * ways;
                let mut fast = UnifiedHistoryTable::new(entries, ways, 32);
                let mut reference = StampedTable::new(entries, ways, 32);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                // Four long events per entry, each implying its short
                // event: sets fill, evict and retrain.
                let longs = 4 * entries as u64;
                let shorts = (SETS * shorts_per_set) as u64;
                for step in 0..10_000 {
                    let long = rng.gen_range(0..longs);
                    let short = long % shorts;
                    let ctx = format!("step {step}, {ways} ways, {shorts_per_set} short/set");
                    match rng.gen_range(0..16u32) {
                        0..=5 => {
                            into_holes += usize::from(reference.fills_hole(long, short));
                            let f = fp(rng.next_u64() & 0xffff_ffff);
                            fast.insert(long, short, f);
                            reference.insert(long, short, f);
                        }
                        6..=8 => assert_eq!(
                            fast.lookup_long(long, short),
                            reference.lookup_long(long, short),
                            "{ctx}"
                        ),
                        9..=13 => {
                            fast.lookup_short(short, &mut got);
                            reference.lookup_short(short, &mut want);
                            partial_ties += usize::from((2..ways).contains(&want.len()));
                            full_sets += usize::from(ways > 1 && want.len() == ways);
                            got.sort_by_key(|f| f.bits());
                            want.sort_by_key(|f| f.bits());
                            assert_eq!(got, want, "{ctx}");
                        }
                        14 => {
                            let pick = rng.next_u64();
                            assert_eq!(
                                fast.evict_entry(pick),
                                reference.evict_entry(pick),
                                "{ctx}"
                            );
                        }
                        _ => assert_eq!(
                            fast.valid_entries(),
                            reference.valid.iter().filter(|&&v| v).count(),
                            "{ctx}"
                        ),
                    }
                    // Every entry in the same way of the same set.
                    assert_eq!(fast.valid, reference.valid, "{ctx}");
                    assert_eq!(fast.long_tags, reference.long_tags, "{ctx}");
                    assert_eq!(fast.short_tags, reference.short_tags, "{ctx}");
                    assert_eq!(fast.footprints, reference.footprints, "{ctx}");
                }
            }
            assert!(
                ways < 4 || partial_ties > 100,
                "{ways} ways: only {partial_ties} short lookups tied part of a set"
            );
            assert!(
                ways == 1 || full_sets > 100,
                "{ways} ways: only {full_sets} short lookups matched a whole set"
            );
            assert!(
                ways == 1 || into_holes > 100,
                "{ways} ways: only {into_holes} inserts filled a hole"
            );
        }
    }
}
