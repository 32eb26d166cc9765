//! The fill queue: every in-flight fill, landed in (ready cycle, issue
//! order) at O(1) cost per fill.
//!
//! Every demand miss and every issued prefetch becomes a fill, and its
//! ready cycle is almost always a few hundred cycles after the cycle it
//! is issued. So instead of a binary heap (O(log n) per push and per pop)
//! the queue is a timing wheel: one FIFO of fills per cycle modulo
//! [`SPAN`], linked through a slab of nodes with a free list, one bit per
//! non-empty cycle, and the cached earliest due cycle, so asking whether
//! anything is due is one compare. The wheel holds the fills due within
//! its window `base..base + SPAN`; `base` only moves forward, to one past
//! each cycle the queue is drained through. A fill due outside the window
//! (at least `SPAN` cycles ahead, or below the last drained cycle) goes to
//! an exact overflow list instead, so the landing order is exact for any
//! sequence of pushes.
//!
//! Fills due at the same cycle land in push order: within a bucket that
//! is its FIFO order, and an overflow fill lands before a wheel fill of
//! the same cycle. That tie rule is exact because `base` only grows. A
//! fill that overflowed past the window's end was pushed before any wheel
//! fill of its cycle could join the wheel, and one that overflowed below
//! the window's start shares its cycle with no wheel fill, past or
//! future.

/// Cycles the wheel spans; a power of two. 4096 covers a DRAM round trip
/// with room for deep queueing, and keeps the two bucket arrays at 16 KiB
/// each.
const SPAN: usize = 4096;
const MASK: u64 = SPAN as u64 - 1;
const WORDS: usize = SPAN / 64;
const NIL: u32 = u32::MAX;

/// A fill in flight: the block and the cache it lands in.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Fill {
    /// Block index.
    pub block: u64,
    /// The core whose L1 the fill lands in, or [`Fill::LLC`].
    pub cache: u32,
}

impl Fill {
    /// The `cache` of a fill into the shared LLC.
    pub const LLC: u32 = u32::MAX;
}

/// One queued fill; the fields are flat so a node is 16 bytes.
#[derive(Copy, Clone, Debug)]
struct Node {
    block: u64,
    cache: u32,
    /// The next node of the same bucket, or the next free node.
    next: u32,
}

/// The timing wheel described in the module docs.
#[derive(Debug)]
pub(crate) struct FillWheel {
    /// First and last node of each bucket's FIFO, meaningful only while
    /// the bucket's `occupied` bit is set. Allocated at the first push:
    /// a system that never misses never pays for them, and a small
    /// allocation made while the simulation runs does not move the
    /// process's other allocations.
    head: Vec<u32>,
    tail: Vec<u32>,
    /// One bit per bucket that holds a fill.
    occupied: [u64; WORDS],
    nodes: Vec<Node>,
    /// Head of the free-node chain.
    free: u32,
    /// Every wheel fill is due in `base..base + SPAN`.
    base: u64,
    /// Earliest due cycle in the wheel; `u64::MAX` when it is empty.
    wheel_next: u64,
    in_wheel: usize,
    /// Fills due outside the window, by descending due cycle and, within
    /// a cycle, by reverse push order: the next to land is the last.
    overflow: Vec<(u64, Fill)>,
    /// Earliest due cycle of any fill; `u64::MAX` when there is none.
    next: u64,
}

impl FillWheel {
    /// An empty queue; allocates nothing.
    pub(crate) fn new() -> Self {
        FillWheel {
            head: Vec::new(),
            tail: Vec::new(),
            occupied: [0; WORDS],
            nodes: Vec::new(),
            free: NIL,
            base: 0,
            wheel_next: u64::MAX,
            in_wheel: 0,
            overflow: Vec::new(),
            next: u64::MAX,
        }
    }

    /// Number of queued fills.
    pub(crate) fn len(&self) -> usize {
        self.in_wheel + self.overflow.len()
    }

    /// Due cycle of the earliest queued fill, if any.
    #[inline]
    pub(crate) fn next_ready(&self) -> Option<u64> {
        (self.next != u64::MAX).then_some(self.next)
    }

    /// Whether a fill is due at or before `now`.
    #[inline]
    pub(crate) fn is_due(&self, now: u64) -> bool {
        self.next <= now
    }

    /// Queues `fill` to land at cycle `ready`, which must be below
    /// `u64::MAX`: that value marks an empty queue.
    pub(crate) fn push(&mut self, ready: u64, fill: Fill) {
        debug_assert!(ready < u64::MAX, "fill due at u64::MAX");
        self.next = self.next.min(ready);
        // Below `base` wraps to a huge offset, so one compare tests both
        // ends of the window.
        if ready.wrapping_sub(self.base) >= SPAN as u64 {
            let at = self.overflow.partition_point(|&(r, _)| r > ready);
            self.overflow.insert(at, (ready, fill));
            return;
        }
        if self.head.is_empty() {
            self.head = vec![0; SPAN];
            self.tail = vec![0; SPAN];
        }
        let node = Node {
            block: fill.block,
            cache: fill.cache,
            next: NIL,
        };
        let n = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("fill slab exceeds u32 indices")
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        let b = (ready & MASK) as usize;
        let bit = 1u64 << (b % 64);
        if self.occupied[b / 64] & bit == 0 {
            self.occupied[b / 64] |= bit;
            self.head[b] = n;
        } else {
            self.nodes[self.tail[b] as usize].next = n;
        }
        self.tail[b] = n;
        self.in_wheel += 1;
        self.wheel_next = self.wheel_next.min(ready);
    }

    /// Removes the next fill due at or before `now` and returns it with
    /// its due cycle, in (due cycle, push order). Once nothing is due it
    /// returns `None` and moves the window to start at `now + 1`.
    ///
    /// `now` must be below `u64::MAX`, the empty queue's due cycle. The
    /// check is left to debug builds: in release builds of the simulator,
    /// each guard tried on this path read `em3d-grid` 1.7–1.8 % slower.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<(u64, Fill)> {
        if self.next > now {
            // Every wheel fill is due after `now`, so the window may start
            // at `now + 1`; `max` keeps it from moving back when `now` is
            // below an earlier drain (a late fill's own cycle).
            self.base = self.base.max(now + 1);
            return None;
        }
        debug_assert!(self.next < u64::MAX, "drain through u64::MAX");
        let ready = self.next;
        let fill = match self.overflow.last() {
            Some(&(r, _)) if r == ready => self.overflow.pop().expect("last exists").1,
            _ => self.pop_wheel(ready),
        };
        let overflow_next = self.overflow.last().map_or(u64::MAX, |&(r, _)| r);
        self.next = self.wheel_next.min(overflow_next);
        Some((ready, fill))
    }

    /// Pops the head of the bucket of cycle `c`, the wheel's earliest.
    fn pop_wheel(&mut self, c: u64) -> Fill {
        debug_assert_eq!(c, self.wheel_next);
        let b = (c & MASK) as usize;
        let n = self.head[b];
        let node = self.nodes[n as usize];
        self.nodes[n as usize].next = self.free;
        self.free = n;
        self.in_wheel -= 1;
        if n == self.tail[b] {
            self.occupied[b / 64] &= !(1u64 << (b % 64));
            self.wheel_next = self.first_after(c);
        } else {
            self.head[b] = node.next;
        }
        Fill {
            block: node.block,
            cache: node.cache,
        }
    }

    /// The earliest cycle after `c` whose bucket holds a fill, or
    /// `u64::MAX`. Every wheel fill is due in `c + 1..c + SPAN` (the
    /// window starts at or before `c`), so a cyclic search of the bitmap
    /// from `c + 1`'s bucket finds it.
    fn first_after(&self, c: u64) -> u64 {
        if self.in_wheel == 0 {
            return u64::MAX;
        }
        let start = ((c + 1) & MASK) as usize;
        let w0 = start / 64;
        // Word w0 from `start` on, the words after it, wrapping, and w0
        // once more for its bits below `start`.
        for k in 0..=WORDS {
            let w = (w0 + k) % WORDS;
            let mut bits = self.occupied[w];
            if k == 0 {
                bits &= !0u64 << (start % 64);
            }
            if bits != 0 {
                let bucket = (w * 64) as u64 + u64::from(bits.trailing_zeros());
                return c + 1 + (bucket.wrapping_sub(start as u64) & MASK);
            }
        }
        unreachable!("{} wheel fills but no occupied bucket", self.in_wheel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_rng::rngs::SmallRng;
    use bingo_rng::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The queue the wheel replaced: a heap ordered by (ready, push
    /// sequence).
    #[derive(Default)]
    struct HeapQueue {
        heap: BinaryHeap<Reverse<(u64, u64, u64, u32)>>,
        seq: u64,
    }

    impl HeapQueue {
        fn push(&mut self, ready: u64, fill: Fill) {
            self.seq += 1;
            self.heap
                .push(Reverse((ready, self.seq, fill.block, fill.cache)));
        }

        fn next_ready(&self) -> Option<u64> {
            self.heap.peek().map(|&Reverse((ready, ..))| ready)
        }

        fn pop_due(&mut self, now: u64) -> Option<(u64, Fill)> {
            if self.next_ready()? > now {
                return None;
            }
            let Reverse((ready, _, block, cache)) = self.heap.pop()?;
            Some((ready, Fill { block, cache }))
        }
    }

    fn drain_due<F: FnMut() -> Option<(u64, Fill)>>(pop: F) -> Vec<(u64, Fill)> {
        std::iter::from_fn(pop).collect()
    }

    /// Random pushes and drains: same-cycle fills, fills far past the
    /// span and at its edges, pushes below the last drained cycle, drains
    /// below it, and jumps of many spans between drains.
    fn check_stream(steps: usize, rng: &mut SmallRng) {
        let span = SPAN as u64;
        let mut wheel = FillWheel::new();
        let mut heap = HeapQueue::default();
        let mut clock = 0u64;
        let mut block = 0u64;
        for step in 0..steps {
            match rng.gen_range(0..10u32) {
                0..=5 => {
                    let ready = match rng.gen_range(0..9u32) {
                        // A handful of nearby cycles, so buckets collect
                        // several fills and cycles repeat.
                        0..=3 => clock + rng.gen_range(0..8u64) * 40,
                        4 => clock + rng.gen_range(0..span),
                        5 => wheel.base + span - 1 + rng.gen_range(0..3u64),
                        6 => clock + span + rng.gen_range(0..3 * span),
                        7 => clock.saturating_sub(rng.gen_range(0..600u64)),
                        _ => clock + rng.gen_range(0..4u64),
                    };
                    block += 1;
                    let fill = Fill {
                        block,
                        cache: if rng.gen_bool(0.5) {
                            Fill::LLC
                        } else {
                            rng.gen_range(0..4u32)
                        },
                    };
                    wheel.push(ready, fill);
                    heap.push(ready, fill);
                }
                6..=8 => {
                    clock += match rng.gen_range(0..4u32) {
                        0 => 0,
                        1 => rng.gen_range(1..64u64),
                        2 => rng.gen_range(1..span),
                        _ => rng.gen_range(span..4 * span),
                    };
                    assert_eq!(
                        drain_due(|| wheel.pop_due(clock)),
                        drain_due(|| heap.pop_due(clock)),
                        "step {step}: drain through {clock}"
                    );
                }
                _ => {
                    // A drain below the last one, as `drain` makes at a
                    // late fill's own cycle.
                    let now = clock.saturating_sub(rng.gen_range(0..1000u64));
                    assert_eq!(
                        drain_due(|| wheel.pop_due(now)),
                        drain_due(|| heap.pop_due(now)),
                        "step {step}: drain through {now} below {clock}"
                    );
                }
            }
            assert_eq!(wheel.next_ready(), heap.next_ready(), "step {step}");
            assert_eq!(wheel.len(), heap.heap.len(), "step {step}");
        }
        let end = u64::MAX - 1;
        assert_eq!(
            drain_due(|| wheel.pop_due(end)),
            drain_due(|| heap.pop_due(end))
        );
        assert_eq!(wheel.next_ready(), None);
        assert_eq!(wheel.pop_due(end), None);
    }

    #[test]
    fn wheel_matches_heap_reference_on_random_streams() {
        let mut rng = SmallRng::seed_from_u64(0x5eed_f111);
        for _ in 0..40 {
            check_stream(2000, &mut rng);
        }
    }

    #[test]
    fn same_cycle_fills_land_in_push_order_across_overflow_and_wheel() {
        let mut wheel = FillWheel::new();
        let span = SPAN as u64;
        let fill = |block| Fill {
            block,
            cache: Fill::LLC,
        };
        // Past the window at push time: overflow.
        wheel.push(span + 10, fill(1));
        wheel.push(5, fill(2));
        assert_eq!(wheel.pop_due(20), Some((5, fill(2))));
        assert_eq!(wheel.pop_due(20), None);
        // The window now starts at 21, so the same cycle joins the wheel.
        wheel.push(span + 10, fill(3));
        // Below the window: overflow, and due at once.
        wheel.push(7, fill(4));
        assert_eq!(wheel.next_ready(), Some(7));
        let order: Vec<u64> = drain_due(|| wheel.pop_due(u64::MAX - 1))
            .into_iter()
            .map(|(_, f)| f.block)
            .collect();
        assert_eq!(order, [4, 1, 3]);
    }
}
