//! Best-Offset Prefetcher (BOP) — Michaud, HPCA 2016; winner of the Second
//! Data Prefetching Championship.
//!
//! BOP learns a single best prefetch *offset* `D` and, on every access to
//! block `X`, prefetches `X + D`. Learning proceeds in rounds: each access
//! tests one candidate offset `d` from a fixed list — if `X - d` is found
//! in the *recent requests* (RR) table, `d` earns a point, because a
//! prefetch with offset `d` issued at `X - d` would have been timely for
//! the current access. When an offset's score reaches `SCORE_MAX`, or the
//! round limit expires, the highest-scoring offset becomes the new `D`; a
//! best score below `BAD_SCORE` turns prefetching off until a later round
//! rehabilitates an offset.

use bingo_sim::{AccessInfo, BlockAddr, Prefetcher};

/// Candidate offsets: integers up to 64 with prime factors in {2, 3, 5},
/// as in the original design.
pub const DEFAULT_OFFSETS: &[i64] = &[
    1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30, 32, 36, 40, 45, 48, 50, 54, 60,
    64,
];

/// Configuration of a [`Bop`] prefetcher.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BopConfig {
    /// Recent-requests table entries (256 in the paper's comparison).
    pub rr_entries: usize,
    /// Score at which a learning round ends immediately.
    pub score_max: u32,
    /// Number of full passes over the offset list per round.
    pub max_rounds: u32,
    /// Minimum winning score for prefetching to stay enabled.
    pub bad_score: u32,
    /// Prefetch degree: how many multiples of the best offset to issue
    /// (1 in the original; 32 in the Fig. 10 iso-degree variant).
    pub degree: usize,
    /// Candidate offsets.
    pub offsets: Vec<i64>,
}

impl BopConfig {
    /// The paper's configuration: 256-entry RR table, degree 1.
    pub fn paper() -> Self {
        BopConfig {
            rr_entries: 256,
            score_max: 31,
            max_rounds: 100,
            bad_score: 1,
            degree: 1,
            offsets: DEFAULT_OFFSETS.to_vec(),
        }
    }

    /// The iso-degree (Fig. 10) variant: degree 32.
    pub fn aggressive() -> Self {
        BopConfig {
            degree: 32,
            ..Self::paper()
        }
    }

    /// Metadata storage in bits of a [`Bop`] built from this
    /// configuration: 12-bit partial tags in the RR table, a 5-bit score
    /// per candidate offset, and 16 bits of round/selection state.
    pub fn storage_bits(&self) -> u64 {
        let rr = self.rr_entries as u64 * 12;
        let scores = self.offsets.len() as u64 * 5;
        rr + scores + 16
    }
}

impl Default for BopConfig {
    fn default() -> Self {
        BopConfig::paper()
    }
}

/// The BOP prefetcher.
#[derive(Debug)]
pub struct Bop {
    cfg: BopConfig,
    rr: Vec<u64>,
    scores: Vec<u32>,
    test_index: usize,
    rounds: u32,
    best_offset: i64,
    enabled: bool,
}

impl Bop {
    /// Creates a BOP prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if the offset list or the RR table is empty, or degree is 0.
    pub fn new(cfg: BopConfig) -> Self {
        assert!(!cfg.offsets.is_empty(), "offset list must be nonempty");
        assert!(cfg.rr_entries > 0 && cfg.degree > 0);
        Bop {
            rr: vec![u64::MAX; cfg.rr_entries],
            scores: vec![0; cfg.offsets.len()],
            test_index: 0,
            rounds: 0,
            best_offset: 1,
            enabled: true,
            cfg,
        }
    }

    /// The currently selected best offset.
    pub fn best_offset(&self) -> i64 {
        self.best_offset
    }

    /// Whether prefetching is currently enabled (best score was adequate).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn rr_insert(&mut self, block: u64) {
        let idx = (block as usize) % self.rr.len();
        self.rr[idx] = block;
    }

    fn rr_contains(&self, block: u64) -> bool {
        self.rr[(block as usize) % self.rr.len()] == block
    }

    fn end_round(&mut self) {
        // Ties favor the earliest (smallest) offset in the candidate list,
        // which also tends to be the most timely one.
        let mut best_idx = 0;
        for (i, &s) in self.scores.iter().enumerate() {
            if s > self.scores[best_idx] {
                best_idx = i;
            }
        }
        let best_score = self.scores[best_idx];
        self.best_offset = self.cfg.offsets[best_idx];
        self.enabled = best_score >= self.cfg.bad_score;
        self.scores.iter_mut().for_each(|s| *s = 0);
        self.rounds = 0;
        self.test_index = 0;
    }
}

impl Prefetcher for Bop {
    fn name(&self) -> &str {
        "BOP"
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<BlockAddr>) {
        let x = info.block.index();

        // Learning: test one candidate offset against the RR table.
        let d = self.cfg.offsets[self.test_index];
        let mut round_ended = false;
        if d < 0 || x >= d as u64 {
            let base = x.wrapping_sub(d as u64);
            if self.rr_contains(base) {
                self.scores[self.test_index] += 1;
                if self.scores[self.test_index] >= self.cfg.score_max {
                    self.end_round();
                    round_ended = true;
                }
            }
        }
        if !round_ended {
            if self.test_index + 1 < self.cfg.offsets.len() {
                self.test_index += 1;
            } else {
                self.test_index = 0;
                self.rounds += 1;
                if self.rounds >= self.cfg.max_rounds {
                    self.end_round();
                }
            }
        }

        self.rr_insert(x);

        if self.enabled {
            for k in 1..=self.cfg.degree as i64 {
                out.push(info.block.offset(self.best_offset * k));
            }
        }
    }

    fn storage_bits(&self) -> u64 {
        self.cfg.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_sim::Pc;

    fn info(block: u64) -> AccessInfo {
        AccessInfo::demand(Pc::new(0x400), BlockAddr::new(block), 0)
    }

    fn access(b: &mut Bop, block: u64) -> Vec<u64> {
        let mut out = Vec::new();
        b.on_access(&info(block), &mut out);
        out.iter().map(|x| x.index()).collect()
    }

    #[test]
    fn learns_offset_of_a_strided_stream() {
        let mut b = Bop::new(BopConfig::paper());
        for i in 0..4000u64 {
            access(&mut b, 1000 + i * 3);
        }
        assert_eq!(b.best_offset(), 3, "stride-3 stream should select offset 3");
        assert!(b.is_enabled());
    }

    #[test]
    fn unit_stride_selects_offset_one() {
        let mut b = Bop::new(BopConfig::paper());
        for i in 0..4000u64 {
            access(&mut b, i);
        }
        assert_eq!(b.best_offset(), 1);
        let p = access(&mut b, 5000);
        assert_eq!(p, vec![5001]);
    }

    #[test]
    fn degree_one_issues_single_prefetch() {
        let mut b = Bop::new(BopConfig::paper());
        let p = access(&mut b, 100);
        assert_eq!(p.len(), 1, "default degree is 1");
    }

    #[test]
    fn aggressive_issues_degree_32() {
        let mut b = Bop::new(BopConfig::aggressive());
        for i in 0..4000u64 {
            access(&mut b, i);
        }
        let p = access(&mut b, 10_000);
        assert_eq!(p.len(), 32);
        assert_eq!(p[0], 10_001);
        assert_eq!(p[31], 10_032);
    }

    #[test]
    fn random_stream_disables_prefetching() {
        let mut b = Bop::new(BopConfig::paper());
        // A pseudo-random widely-spread stream: no offset scores.
        let mut x = 0x12345u64;
        for _ in 0..(DEFAULT_OFFSETS.len() as u64 * 120) {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            access(&mut b, x >> 20);
        }
        assert!(
            !b.is_enabled(),
            "random traffic should score below BAD_SCORE and disable"
        );
        let p = access(&mut b, 42);
        assert!(p.is_empty());
    }

    #[test]
    fn reenables_after_pattern_returns() {
        let mut b = Bop::new(BopConfig::paper());
        let mut x = 0x9999u64;
        for _ in 0..(DEFAULT_OFFSETS.len() as u64 * 120) {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            access(&mut b, x >> 20);
        }
        assert!(!b.is_enabled());
        for i in 0..5000u64 {
            access(&mut b, 77_000 + i);
        }
        assert!(b.is_enabled(), "sequential stream should rehabilitate BOP");
        assert_eq!(b.best_offset(), 1);
    }

    #[test]
    fn score_max_ends_round_early() {
        let cfg = BopConfig {
            score_max: 3,
            ..BopConfig::paper()
        };
        let n_offsets = cfg.offsets.len() as u64;
        let mut b = Bop::new(cfg);
        // Dense sequential accesses: offset 1 hits on most tests.
        for i in 0..(n_offsets * 10) {
            access(&mut b, i);
        }
        assert_eq!(b.best_offset(), 1);
    }

    #[test]
    fn storage_is_under_one_kb() {
        let b = Bop::new(BopConfig::paper());
        assert!(b.storage_bits() / 8 < 1024, "BOP is tiny");
    }
}
