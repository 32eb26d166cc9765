//! O(1) replacement index shared by the table-based baselines.
//!
//! AMPM, SPP, and VLDP all key a fixed-capacity table by a tag (zone or
//! page id), touch the matching entry on every access, and on a miss fill
//! the first never-used slot or evict the least-recently-touched entry.
//! Scanning the table for both steps is O(capacity) per access; AMPM's
//! 2048-zone map made that an ~80 KB sweep per L1 miss, which dominated
//! the simulator profile. This index gives the same answers in O(1):
//!
//! * tag probe — a hash map over live keys replaces
//!   `position(|e| e.valid && e.tag == tag)`. Keys are unique among live
//!   entries (an insert only happens after a failed probe), so the first
//!   match is the only match.
//! * never-used slot and LRU victim — a [`RecencyList`] of the keys. The
//!   original tables never clear `valid`, so `position(|e| !e.valid)`
//!   returns slots in fill order, which is the list's slot order while it
//!   fills; once full, the victim is the list's tail, whose slot the
//!   list hands straight to the new key.

use bingo_sim::{OpenMap, RecencyList};

/// Result of [`LruIndex::touch`].
pub(crate) enum SlotRef {
    /// The key was already tracked at this slot (now marked MRU).
    Hit(usize),
    /// The key was bound to this slot: a never-used slot in fill order,
    /// or the exact-LRU victim with its previous key evicted. The caller
    /// must reinitialize the payload at this slot.
    Miss(usize),
}

/// Key-to-slot map with exact-LRU replacement over a fixed slot range.
#[derive(Debug, Clone)]
pub(crate) struct LruIndex {
    index: OpenMap<usize>,
    keys: RecencyList<u64>,
}

impl LruIndex {
    pub fn new(capacity: usize) -> Self {
        LruIndex {
            index: OpenMap::with_capacity(capacity),
            keys: RecencyList::with_capacity(capacity),
        }
    }

    /// Looks up `key`, marking its slot most-recently-used; on a miss,
    /// claims a slot and rebinds it to `key`.
    pub fn touch(&mut self, key: u64) -> SlotRef {
        if let Some(&slot) = self.index.get(key) {
            self.keys.touch(slot);
            return SlotRef::Hit(slot);
        }
        if self.keys.is_full() {
            let victim = self.keys.pop_back().expect("a full list has a tail");
            self.index.remove(victim);
        }
        let slot = self.keys.push_front(key);
        self.index.insert(key, slot);
        SlotRef::Miss(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scan-based replacement the baselines used before: linear tag
    /// probe, fill order via `position(!valid)`, victim via
    /// `min_by_key(last_touch)`.
    struct Reference {
        entries: Vec<(u64, bool, u64)>, // (key, valid, last_touch)
        stamp: u64,
    }

    impl Reference {
        fn new(capacity: usize) -> Self {
            Reference {
                entries: vec![(0, false, 0); capacity],
                stamp: 0,
            }
        }

        fn touch(&mut self, key: u64) -> (usize, bool) {
            self.stamp += 1;
            let stamp = self.stamp;
            if let Some(i) = self.entries.iter().position(|e| e.1 && e.0 == key) {
                self.entries[i].2 = stamp;
                return (i, true);
            }
            let victim = self.entries.iter().position(|e| !e.1).unwrap_or_else(|| {
                self.entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.2)
                    .map(|(i, _)| i)
                    .expect("nonempty")
            });
            self.entries[victim] = (key, true, stamp);
            (victim, false)
        }
    }

    fn check_stream(capacity: usize, keys: &[u64]) {
        let mut fast = LruIndex::new(capacity);
        let mut slow = Reference::new(capacity);
        for (n, &k) in keys.iter().enumerate() {
            let (want_slot, want_hit) = slow.touch(k);
            let (got_slot, got_hit) = match fast.touch(k) {
                SlotRef::Hit(s) => (s, true),
                SlotRef::Miss(s) => (s, false),
            };
            assert_eq!(
                (got_slot, got_hit),
                (want_slot, want_hit),
                "divergence at access {n} (key {k}, capacity {capacity})"
            );
        }
    }

    #[test]
    fn fills_in_slot_order() {
        check_stream(4, &[10, 11, 12, 13]);
    }

    #[test]
    fn hit_refreshes_recency() {
        // 10 is refreshed, so 11 must be the victim for 14.
        check_stream(4, &[10, 11, 12, 13, 10, 14, 11]);
    }

    #[test]
    fn capacity_one_thrashes() {
        check_stream(1, &[1, 2, 1, 1, 3, 2]);
    }

    #[test]
    fn matches_reference_on_random_streams() {
        // Deterministic xorshift so the stream is reproducible.
        let mut state = 0x9e37_79b9u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for &capacity in &[1usize, 2, 3, 7, 16, 64] {
            // Key range ~2x capacity forces constant eviction; a narrow
            // range exercises the hit/refresh path.
            for &span in &[2 * capacity as u64 + 1, capacity as u64 + 1] {
                let keys: Vec<u64> = (0..4096).map(|_| rng() % span).collect();
                check_stream(capacity, &keys);
            }
        }
    }
}
