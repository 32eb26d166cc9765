//! A small open-addressed hash map keyed by `u64`, for the simulator's
//! hot lookup structures that are not indexed by cache set: Bingo's and
//! SMS's region index (`AccumulationTable`) and the baselines' recency
//! tables (`LruIndex`).
//!
//! `std::collections::HashMap` pays SipHash plus a heap indirection on
//! every probe; the structures it backs here are bounded, hit on every
//! access, and never iterated. This map instead uses Fibonacci
//! multiplicative hashing into a flat slot array with linear probing and
//! backward-shift deletion, sized once at construction so the steady
//! state performs no allocation at all. The table doubles if its load
//! factor would exceed 1/2, so a caller that underestimates capacity gets
//! slower inserts, never a wrong answer.
//!
//! The map is deliberately *not* iterable: nothing in the simulator may
//! depend on hash-table ordering, and removing iteration makes that a
//! compile-time guarantee.

/// An open-addressed `u64 -> V` map with linear probing.
#[derive(Debug, Clone)]
pub struct OpenMap<V> {
    slots: Vec<Option<(u64, V)>>,
    len: usize,
}

impl<V> OpenMap<V> {
    /// Creates a map that can hold `capacity` entries without rehashing.
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity.max(4) * 2).next_power_of_two();
        OpenMap {
            slots: std::iter::repeat_with(|| None).take(slots).collect(),
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fibonacci hash: spreads sequential keys (block indices) across the
    /// table by taking the top bits of a golden-ratio multiply.
    fn home(&self, key: u64) -> usize {
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    fn find(&self, key: u64) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match &self.slots[i] {
                None => return None,
                Some((k, _)) if *k == key => return Some(i),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key).map(|i| {
            let (_, v) = self.slots[i].as_ref().expect("found slot is occupied");
            v
        })
    }

    /// Mutable access to the value stored under `key`, if any.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let i = self.find(key)?;
        let (_, v) = self.slots[i].as_mut().expect("found slot is occupied");
        Some(v)
    }

    /// Inserts `val` under `key`, returning the previous value if the key
    /// was present.
    pub fn insert(&mut self, key: u64, val: V) -> Option<V> {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match &mut self.slots[i] {
                slot @ None => {
                    *slot = Some((key, val));
                    self.len += 1;
                    return None;
                }
                Some((k, v)) if *k == key => return Some(std::mem::replace(v, val)),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Removes and returns the value under `key`, if any. Uses
    /// backward-shift deletion, so probe chains stay contiguous and no
    /// tombstones accumulate.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let mut i = self.find(key)?;
        let (_, val) = self.slots[i].take().expect("found slot is occupied");
        self.len -= 1;
        let mask = self.slots.len() - 1;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let Some((k, _)) = &self.slots[j] else { break };
            // An entry probing from `home` past `i` would now find the
            // hole first; shift it back into the hole to keep its chain
            // reachable. Cyclic distances decide membership of the chain.
            let home = self.home(*k);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                self.slots[i] = self.slots[j].take();
                i = j;
            }
        }
        Some(val)
    }

    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(
            &mut self.slots,
            std::iter::repeat_with(|| None).take(doubled).collect(),
        );
        self.len = 0;
        for slot in old.into_iter().flatten() {
            let (k, v) = slot;
            self.insert(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = OpenMap::with_capacity(8);
        assert!(m.is_empty());
        assert_eq!(m.insert(42, "a"), None);
        assert_eq!(m.insert(42, "b"), Some("a"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(42), Some(&"b"));
        assert!(m.contains_key(42));
        assert_eq!(m.remove(42), Some("b"));
        assert_eq!(m.remove(42), None);
        assert!(m.is_empty());
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut m = OpenMap::with_capacity(4);
        m.insert(7, 10u32);
        *m.get_mut(7).expect("present") += 5;
        assert_eq!(m.get(7), Some(&15));
        assert_eq!(m.get_mut(8), None);
    }

    #[test]
    fn grows_past_declared_capacity() {
        let mut m = OpenMap::with_capacity(2);
        for k in 0..100u64 {
            m.insert(k, k * 3);
        }
        assert_eq!(m.len(), 100);
        for k in 0..100u64 {
            assert_eq!(m.get(k), Some(&(k * 3)), "key {k}");
        }
    }

    #[test]
    fn backward_shift_keeps_colliding_chains_reachable() {
        // Fill, then delete from the middle of clusters in varying order;
        // every surviving key must stay findable.
        let mut m = OpenMap::with_capacity(16);
        let keys: Vec<u64> = (0..24).map(|i| i * 8).collect(); // clustered homes
        for &k in &keys {
            m.insert(k, k);
        }
        for (n, &k) in keys.iter().enumerate().filter(|(n, _)| n % 3 == 0) {
            assert_eq!(m.remove(k), Some(k), "removal #{n}");
        }
        for (n, &k) in keys.iter().enumerate() {
            let expect = if n % 3 == 0 { None } else { Some(&keys[n]) };
            assert_eq!(m.get(k), expect, "key {k} after deletions");
        }
    }

    #[test]
    fn behaves_like_std_hashmap_under_random_churn() {
        let mut m = OpenMap::with_capacity(8);
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut x = 0x243f_6a88_85a3_08d3u64;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 64; // small key space forces heavy collision churn
            match x % 3 {
                0 => assert_eq!(m.insert(key, step), reference.insert(key, step)),
                1 => assert_eq!(m.remove(key), reference.remove(&key)),
                _ => assert_eq!(m.get(key), reference.get(&key)),
            }
            assert_eq!(m.len(), reference.len());
        }
        for k in 0..64 {
            assert_eq!(m.get(k), reference.get(&k), "final state key {k}");
        }
    }
}
