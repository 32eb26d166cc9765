//! A fixed-capacity doubly linked recency list over stable slot indices,
//! the one O(1) replacement order the prefetchers' tables share.
//!
//! A replacement table needs three steps per access: mark an entry most
//! recently used, find the least recently used entry, and drop an entry
//! from the middle. Scanning touch stamps for the minimum costs
//! O(capacity) per miss; this list keeps the entries in recency order
//! instead, with `prev`/`next` links threaded through one node vector, so
//! every step is a constant number of splices. Touch stamps strictly
//! increase, so the `min_by_key(last_touch)` victim of a scan is unique
//! and equals the tail of this list.
//!
//! A value keeps its slot for as long as it is in the list, so callers
//! key side tables (or an [`OpenMap`](crate::OpenMap)) by slot.
//! [`RecencyList::push_front`] reuses the most recently freed slot if
//! there is one, and otherwise takes the lowest never-used slot. A table
//! that frees only its tail, and only when full, therefore fills slots
//! 0, 1, 2, ... in order and then hands the victim's slot straight to the
//! next value, as a scan-based table overwrites its victim in place.

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
}
