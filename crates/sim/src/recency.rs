//! The two O(1) replacement orders the repo's tables share: a doubly
//! linked [`RecencyList`] for fully associative tables and a [`WayOrder`]
//! for set-associative ones (the caches and Bingo's history table).
//!
//! A replacement table needs three steps per access: mark an entry most
//! recently used, find the least recently used entry, and drop an entry
//! from the middle. Scanning touch stamps for the minimum costs
//! O(capacity) per miss; both types keep their entries in recency order
//! instead, so every step takes constant time.
//!
//! [`RecencyList`] threads `prev`/`next` links through one node vector;
//! its tail is the unique `min_by_key(last_touch)` victim of a scan. A
//! value keeps its slot for as long as it is in the list, so callers key
//! side tables (or an [`OpenMap`](crate::OpenMap)) by slot.
//! [`RecencyList::push_front`] reuses the most recently freed slot if
//! there is one, and otherwise takes the lowest never-used slot. A table
//! that frees only its tail, and only when full, therefore fills slots
//! 0, 1, 2, ... in order and then hands the victim's slot straight to the
//! next value, as a scan-based table overwrites its victim in place.
//!
//! [`WayOrder`] keeps each set's ways as 4-bit entries of one `u64`. With
//! the invalid ways behind the valid ones, lowest index last, the back way
//! is the first invalid way by index, else the least recently touched,
//! ties broken by the lower index: the victim of a per-entry stamp (0 for
//! an invalid entry) and a `min_by_key` scan.

const NIL: u32 = u32::MAX;
/// `prev` of a slot on the free chain, so misuse of a freed slot is
/// detectable under `audit`.
const FREED: u32 = u32::MAX - 1;

#[derive(Debug, Clone)]
struct Node<T> {
    prev: u32,
    next: u32,
    value: T,
}

/// A bounded list of values in recency order (most recent at the head).
#[derive(Debug, Clone)]
pub struct RecencyList<T> {
    nodes: Vec<Node<T>>,
    capacity: usize,
    head: u32,
    tail: u32,
    /// Most recently freed slot; freed slots chain through `next`.
    free: u32,
    len: usize,
}

impl<T: Copy> RecencyList<T> {
    /// Creates an empty list of at most `capacity` values. Nodes are
    /// allocated as slots are first used, so a list that never fills
    /// never holds its whole capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit the `u32` links.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(
            capacity > 0 && capacity < FREED as usize,
            "recency list capacity {capacity} out of range"
        );
        RecencyList {
            nodes: Vec::new(),
            capacity,
            head: NIL,
            tail: NIL,
            free: NIL,
            len: 0,
        }
    }

    /// Number of values in the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list holds no value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the list holds `capacity` values.
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// The most values the list holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Mutable access to the value in `slot`, which must be live.
    pub fn get_mut(&mut self, slot: usize) -> &mut T {
        crate::audit_assert!(self.nodes[slot].prev != FREED, "slot {slot} is free");
        &mut self.nodes[slot].value
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    fn link_front(&mut self, slot: u32) {
        let node = &mut self.nodes[slot as usize];
        node.prev = NIL;
        node.next = self.head;
        if self.head == NIL {
            self.tail = slot;
        } else {
            self.nodes[self.head as usize].prev = slot;
        }
        self.head = slot;
    }

    /// Inserts `value` as the most recently used and returns its slot.
    ///
    /// # Panics
    ///
    /// Panics if the list is full; free a slot first.
    pub fn push_front(&mut self, value: T) -> usize {
        assert!(!self.is_full(), "recency list is full");
        let slot = if self.free == NIL {
            self.nodes.push(Node {
                prev: NIL,
                next: NIL,
                value,
            });
            self.nodes.len() as u32 - 1
        } else {
            let slot = self.free;
            self.free = self.nodes[slot as usize].next;
            self.nodes[slot as usize].value = value;
            slot
        };
        self.link_front(slot);
        self.len += 1;
        slot as usize
    }

    /// Marks the live `slot` most recently used.
    pub fn touch(&mut self, slot: usize) {
        crate::audit_assert!(self.nodes[slot].prev != FREED, "slot {slot} is free");
        let slot = slot as u32;
        if self.head != slot {
            self.unlink(slot);
            self.link_front(slot);
        }
    }

    /// Removes the live `slot` and returns its value; the slot is reused
    /// by the next [`RecencyList::push_front`].
    pub fn remove(&mut self, slot: usize) -> T {
        crate::audit_assert!(self.nodes[slot].prev != FREED, "slot {slot} is free");
        let slot = slot as u32;
        self.unlink(slot);
        let node = &mut self.nodes[slot as usize];
        node.prev = FREED;
        node.next = self.free;
        self.free = slot;
        self.len -= 1;
        node.value
    }

    /// Removes and returns the least recently used value, if any.
    pub fn pop_back(&mut self) -> Option<T> {
        (self.tail != NIL).then(|| self.remove(self.tail as usize))
    }
}

/// Largest associativity a [`WayOrder`] can order (sixteen 4-bit way
/// numbers in one `u64`); checked by
/// [`SystemConfig::validate`](crate::SystemConfig::validate).
pub const MAX_WAYS: usize = 16;

/// One in every 4-bit entry.
const ONES: u64 = 0x1111_1111_1111_1111;

/// The recency order of every set of a set-associative table: the set's
/// way numbers as 4-bit entries of one `u64`, the most recent in the low
/// entry, entries past the set's ways zero. Its owner keeps invalid ways
/// at the back: fills take the back way, and a way invalidated anywhere
/// else is sunk with [`WayOrder::sink_invalid`].
#[derive(Debug)]
pub struct WayOrder {
    /// Each set's order XORed with `fresh`, so zeroed memory holds fresh
    /// sets.
    words: Vec<u64>,
    /// A fresh set's order: way `ways - 1` in front, way 0 at the back.
    fresh: u64,
    ways: usize,
}

impl WayOrder {
    /// Creates `sets` fresh orders of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is not in `1..=`[`MAX_WAYS`].
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(
            (1..=MAX_WAYS).contains(&ways),
            "{ways} ways: a set's recency word orders 1 to {MAX_WAYS} ways"
        );
        WayOrder {
            words: vec![0; sets],
            fresh: (0..ways).fold(0, |o, p| o | ((ways - 1 - p) as u64) << (4 * p)),
            ways,
        }
    }

    #[inline]
    fn get(&self, set: usize) -> u64 {
        self.words[set] ^ self.fresh
    }

    #[inline]
    fn put(&mut self, set: usize, order: u64) {
        crate::audit_assert!(
            self.is_permutation(order),
            "recency invariant: set {set} orders {order:#x}, not a permutation of {} ways",
            self.ways
        );
        self.words[set] = order ^ self.fresh;
    }

    /// The way `at` entries from the front of `order`.
    #[inline]
    fn way_at(order: u64, at: usize) -> usize {
        ((order >> (4 * at)) & 0xF) as usize
    }

    /// `order` with `way` moved to the front.
    #[inline]
    fn moved_to_front(order: u64, way: usize) -> u64 {
        // The entry holding `way` is the lowest zero entry of `x`; a
        // borrow can flag only entries above it.
        let x = order ^ (way as u64 * ONES);
        let zero = x.wrapping_sub(ONES) & !x & (ONES << 3);
        // Entries 0..=p, where p holds `way`; all of them at p = 15.
        let through = (16u64 << (zero.trailing_zeros() & !3)).wrapping_sub(1);
        (order & !through) | ((order << 4) & through) | way as u64
    }

    /// Moves `way` to the front of `set`'s order.
    #[inline]
    pub fn touch(&mut self, set: usize, way: usize) {
        let order = Self::moved_to_front(self.get(set), way);
        self.put(set, order);
    }

    /// Touches each way of `set` whose bit is set in `mask`, in ascending
    /// way order, so the highest of them ends in front and the lowest
    /// behind the others. When `mask` holds every way, the result is the
    /// fresh order whatever the set held, and one store writes it.
    #[inline]
    pub fn touch_ascending(&mut self, set: usize, mask: u32) {
        if mask == (1 << self.ways) - 1 {
            self.words[set] = 0;
            return;
        }
        let mut order = self.get(set);
        let mut rest = mask;
        while rest != 0 {
            order = Self::moved_to_front(order, rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
        self.put(set, order);
    }

    /// The way at the back of `set`'s order: the next victim.
    #[inline]
    pub fn back(&self, set: usize) -> usize {
        Self::way_at(self.get(set), self.ways - 1)
    }

    /// Reorders `set` so the ways `valid` accepts keep their recency order
    /// in front and the others follow, lowest index last, where the next
    /// fills take them first: a fresh set touched by the valid ways from
    /// the least recent to the most.
    pub fn sink_invalid(&mut self, set: usize, valid: impl Fn(usize) -> bool) {
        let old = self.get(set);
        let oldest_first = (0..self.ways).rev().map(|p| Self::way_at(old, p));
        let sunk = oldest_first
            .filter(|&w| valid(w))
            .fold(self.fresh, Self::moved_to_front);
        self.put(set, sunk);
    }

    /// Whether `order` holds each of the ways once, and nothing past.
    #[cfg(any(test, feature = "audit"))]
    fn is_permutation(&self, order: u64) -> bool {
        let seen = (0..self.ways).fold(0u32, |s, p| s | 1 << Self::way_at(order, p));
        seen == (1u32 << self.ways) - 1 && (self.ways == 16 || order >> (4 * self.ways) == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_rng::rngs::SmallRng;
    use bingo_rng::{Rng, SeedableRng};

    /// The list's slots and values from most to least recently used,
    /// walked forward through `next` and checked backward through `prev`.
    fn order(list: &RecencyList<u64>) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        let mut at = list.head;
        let mut prev = NIL;
        while at != NIL {
            let node = &list.nodes[at as usize];
            assert_eq!(node.prev, prev, "back link of slot {at}");
            out.push((at as usize, node.value));
            prev = at;
            at = node.next;
        }
        assert_eq!(list.tail, prev, "tail");
        out
    }

    /// The naive model: a vector in recency order, most recent first.
    /// Slot choice is modelled too: the most recently freed slot if any,
    /// else the next never-used one.
    #[derive(Default)]
    struct Reference {
        order: Vec<(usize, u64)>,
        freed: Vec<usize>,
        used: usize,
    }

    impl Reference {
        fn push_front(&mut self, value: u64) -> usize {
            let slot = self.freed.pop().unwrap_or_else(|| {
                self.used += 1;
                self.used - 1
            });
            self.order.insert(0, (slot, value));
            slot
        }

        fn position(&self, slot: usize) -> usize {
            self.order
                .iter()
                .position(|&(s, _)| s == slot)
                .expect("live slot")
        }

        fn touch(&mut self, slot: usize) {
            let entry = self.order.remove(self.position(slot));
            self.order.insert(0, entry);
        }

        fn remove(&mut self, slot: usize) -> u64 {
            let (_, value) = self.order.remove(self.position(slot));
            self.freed.push(slot);
            value
        }
    }

    fn check_stream(capacity: usize, steps: usize, rng: &mut SmallRng) {
        let mut list = RecencyList::with_capacity(capacity);
        let mut model = Reference::default();
        for step in 0..steps {
            let live: Vec<usize> = model.order.iter().map(|&(s, _)| s).collect();
            let pick = |rng: &mut SmallRng| live[rng.gen_range(0..live.len())];
            match rng.gen_range(0..7u32) {
                // Insert, evicting the tail first when full (the
                // replacement step every table performs on a miss).
                // Inserts outnumber removals, so every list fills and
                // then churns.
                0..=2 => {
                    if list.is_full() {
                        let want = model.order.last().map(|&(s, _)| s).expect("full");
                        assert_eq!(list.pop_back(), Some(model.remove(want)), "step {step}");
                    }
                    let value = step as u64;
                    assert_eq!(
                        list.push_front(value),
                        model.push_front(value),
                        "step {step}"
                    );
                }
                3 if !live.is_empty() => {
                    let slot = pick(rng);
                    list.touch(slot);
                    model.touch(slot);
                }
                4 if !live.is_empty() => {
                    let slot = pick(rng);
                    assert_eq!(list.remove(slot), model.remove(slot), "step {step}");
                }
                5 if !live.is_empty() => {
                    let slot = pick(rng);
                    let at = model.position(slot);
                    *list.get_mut(slot) += 1_000_000;
                    model.order[at].1 += 1_000_000;
                }
                _ => {
                    let want = model.order.last().map(|&(s, _)| s);
                    let got = list.pop_back();
                    assert_eq!(got, want.map(|s| model.remove(s)), "step {step}");
                }
            }
            assert_eq!(
                order(&list),
                model.order,
                "step {step}, capacity {capacity}"
            );
            assert_eq!(list.len(), model.order.len());
            assert_eq!(list.is_full(), model.order.len() == capacity);
            assert!(list.nodes.len() <= capacity, "slots stay in range");
        }
    }

    #[test]
    #[should_panic(expected = "full")]
    fn push_into_full_list_panics() {
        let mut list = RecencyList::with_capacity(1);
        list.push_front(1u64);
        list.push_front(2u64);
    }

    #[test]
    fn matches_reference_on_random_streams() {
        let mut rng = SmallRng::seed_from_u64(0x9e37_79b9);
        for &capacity in &[1usize, 2, 3, 7, 16, 64] {
            check_stream(capacity, 4096, &mut rng);
        }
    }

    impl WayOrder {
        /// Whether `set`'s stored word is a permutation of the ways.
        pub(crate) fn set_is_permutation(&self, set: usize) -> bool {
            self.is_permutation(self.get(set))
        }
    }

    /// A set's ways from front to back, read from its word.
    fn ways_of(order: &WayOrder, set: usize) -> Vec<usize> {
        (0..order.ways)
            .map(|p| WayOrder::way_at(order.get(set), p))
            .collect()
    }

    #[test]
    fn way_order_matches_vector_reference_on_random_streams() {
        let mut rng = SmallRng::seed_from_u64(0x0bde_4a11);
        for ways in [1usize, 2, 3, 8, 15, 16] {
            const SETS: usize = 3;
            let mut order = WayOrder::new(SETS, ways);
            // Each set's ways from front to back.
            let mut model: Vec<Vec<usize>> = vec![(0..ways).rev().collect(); SETS];
            for step in 0..4096 {
                let set = rng.gen_range(0..SETS);
                let expected = &mut model[set];
                match rng.gen_range(0..4u32) {
                    0 => {
                        let way = rng.gen_range(0..ways);
                        order.touch(set, way);
                        expected.retain(|&w| w != way);
                        expected.insert(0, way);
                    }
                    1 => {
                        // Every way about one time in four.
                        let mask = if rng.gen_bool(0.25) {
                            (1u32 << ways) - 1
                        } else {
                            rng.next_u64() as u32 & ((1u32 << ways) - 1)
                        };
                        order.touch_ascending(set, mask);
                        for way in (0..ways).filter(|w| mask >> w & 1 == 1) {
                            expected.retain(|&w| w != way);
                            expected.insert(0, way);
                        }
                    }
                    2 => {
                        let valid = rng.next_u64() as u32;
                        order.sink_invalid(set, |w| valid >> w & 1 == 1);
                        let invalid = (0..ways).rev().filter(|w| valid >> w & 1 == 0);
                        expected.retain(|&w| valid >> w & 1 == 1);
                        expected.extend(invalid);
                    }
                    _ => assert_eq!(order.back(set), *expected.last().unwrap()),
                }
                assert_eq!(ways_of(&order, set), model[set], "step {step}, {ways} ways");
                assert!(order.set_is_permutation(set));
            }
        }
    }
}
