//! Deterministic, seeded fault injection for robustness testing.
//!
//! The paper's central robustness claim is that Bingo degrades gracefully:
//! when metadata is missing or wrong, the prefetcher loses coverage but the
//! simulation stays correct. This module provides the corruption source for
//! testing that claim end to end:
//!
//! * [`FaultPlan`] — the experiment knob set: one corruption rate applied
//!   to stored footprints, history-table entries, and issued prefetches.
//! * [`FaultInjector`] — a seeded generator rolling that rate; every
//!   decision is a pure function of the seed and call sequence, so a
//!   corrupted run is exactly reproducible from `(plan, access stream)`.
//! * [`FaultStats`] — counts of what was actually injected, for reports.
//!
//! The injector deliberately lives in `bingo-sim` (below `bingo`) so both
//! the prefetcher crates and the harness can share one corruption model
//! without a dependency cycle.

/// The corruption rate of one faulty run: a probability in `[0, 1]`,
/// rolled independently for every fault opportunity of every class — a
/// footprint being trained into the history table has one random bit
/// flipped, a random history-table entry is evicted on an access (metadata
/// loss), an individual prefetch candidate is silently dropped before
/// issue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's decision stream.
    pub seed: u64,
    /// Probability of each fault, per opportunity.
    pub rate: f64,
}

impl FaultPlan {
    /// A plan that injects nothing (rate zero).
    pub fn none(seed: u64) -> Self {
        FaultPlan { seed, rate: 0.0 }
    }

    /// A plan applying `rate` to every fault class.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        let plan = FaultPlan { seed, rate };
        plan.validate();
        plan
    }

    /// Checks the rate is a probability.
    ///
    /// # Panics
    ///
    /// Panics if the rate is outside `[0, 1]` or NaN.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.rate),
            "fault plan rate = {} is not a probability",
            self.rate
        );
    }
}

/// Counts of injected faults, exposed through prefetcher metrics so a
/// corrupted run's report shows what it survived.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Footprint bits flipped during training.
    pub bits_flipped: u64,
    /// History-table entries forcibly evicted.
    pub entries_dropped: u64,
    /// Prefetch candidates silently discarded.
    pub prefetches_dropped: u64,
}

/// Seeded fault-decision generator (xorshift64*).
///
/// Not a statistical-quality RNG — it only has to make reproducible,
/// roughly-uniform coin flips — and kept dependency-free so `bingo-sim`
/// stays leaf-like.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    state: u64,
    /// Running injection counts.
    pub stats: FaultStats,
}

impl FaultInjector {
    /// Builds an injector for `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the plan's rate is not a probability.
    pub fn new(plan: FaultPlan) -> Self {
        plan.validate();
        // SplitMix64 scramble so nearby seeds give unrelated streams; the
        // xorshift state must be nonzero.
        let mut z = plan.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        FaultInjector {
            plan,
            state: z.max(1),
            stats: FaultStats::default(),
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Returns `true` with probability `rate`.
    fn chance(&mut self, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let f = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        f < rate
    }

    /// Uniform value in `[0, n)`. `n` must be nonzero.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn pick(&mut self, n: u64) -> u64 {
        assert!(n > 0, "cannot pick from an empty range");
        // Widening multiply; modulo bias is irrelevant for fault choice.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Rolls the rate for a footprint bit flip; counts a flip when it
    /// fires.
    pub fn should_flip_footprint_bit(&mut self) -> bool {
        let fire = self.chance(self.plan.rate);
        if fire {
            self.stats.bits_flipped += 1;
        }
        fire
    }

    /// Rolls the rate for a history-entry drop; counts an eviction when it
    /// fires.
    pub fn should_drop_history_entry(&mut self) -> bool {
        let fire = self.chance(self.plan.rate);
        if fire {
            self.stats.entries_dropped += 1;
        }
        fire
    }

    /// Rolls the rate for a prefetch drop; counts a drop when it fires.
    pub fn should_drop_prefetch(&mut self) -> bool {
        let fire = self.chance(self.plan.rate);
        if fire {
            self.stats.prefetches_dropped += 1;
        }
        fire
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan::uniform(7, 0.3);
        let mut a = FaultInjector::new(plan);
        let mut b = FaultInjector::new(plan);
        for _ in 0..1000 {
            assert_eq!(a.should_flip_footprint_bit(), b.should_flip_footprint_bit());
            assert_eq!(a.should_drop_prefetch(), b.should_drop_prefetch());
            assert_eq!(a.pick(32), b.pick(32));
        }
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn zero_plan_never_fires() {
        let mut inj = FaultInjector::new(FaultPlan::none(1));
        for _ in 0..1000 {
            assert!(!inj.should_flip_footprint_bit());
            assert!(!inj.should_drop_history_entry());
            assert!(!inj.should_drop_prefetch());
        }
        assert_eq!(inj.stats, FaultStats::default());
    }

    #[test]
    fn rates_approximate_their_probability() {
        let mut inj = FaultInjector::new(FaultPlan::uniform(42, 0.1));
        let fired = (0..20_000).filter(|_| inj.should_drop_prefetch()).count();
        assert!(
            (1600..2400).contains(&fired),
            "rate 0.1 over 20k rolls should fire near 2000, got {fired}"
        );
        assert_eq!(inj.stats.prefetches_dropped, fired as u64);
    }

    #[test]
    fn pick_is_in_range() {
        let mut inj = FaultInjector::new(FaultPlan::uniform(3, 1.0));
        for n in 1..64 {
            assert!(inj.pick(n) < n);
        }
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn invalid_rate_is_rejected() {
        let _ = FaultInjector::new(FaultPlan { seed: 0, rate: 1.5 });
    }
}
