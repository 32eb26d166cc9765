//! Signature Path Prefetcher (SPP) — Kim et al., MICRO 2016.
//!
//! SPP compresses the delta history of each page into a 12-bit *signature*
//! and learns, per signature, a distribution over next deltas. Prefetching
//! walks the signature path speculatively: starting from the current
//! signature it repeatedly picks the most probable delta, multiplies the
//! running *path confidence* by that delta's probability, and keeps
//! prefetching deeper until the confidence falls below a threshold. This
//! adaptive-degree throttling is SPP's signature trait — and, as the paper
//! argues (Section II), ties its coverage to the quality of the throttling
//! decisions. The iso-degree study (Fig. 10) lowers the threshold to 1 %.

use bingo_sim::{AccessInfo, BlockAddr, Prefetcher};

use crate::lru::{LruIndex, SlotRef};

/// Configuration of an [`Spp`] prefetcher.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SppConfig {
    /// Page size in blocks over which deltas are tracked (4 KB pages).
    pub page_blocks: u32,
    /// Signature-table entries (per-page tracking state).
    pub signature_entries: usize,
    /// Pattern-table entries (signature → delta distribution).
    pub pattern_entries: usize,
    /// Delta slots per pattern-table entry.
    pub deltas_per_entry: usize,
    /// Prefetch-filter entries.
    pub filter_entries: usize,
    /// Path-confidence threshold below which the lookahead stops
    /// (0.25 default; 0.01 in the aggressive iso-degree variant).
    pub confidence_threshold: f64,
    /// Hard cap on lookahead depth.
    pub max_depth: usize,
}

impl SppConfig {
    /// The paper's configuration: 256-entry signature table, 512-entry
    /// pattern table, 1024-entry prefetch filter.
    pub fn paper() -> Self {
        SppConfig {
            page_blocks: 64,
            signature_entries: 256,
            pattern_entries: 512,
            deltas_per_entry: 4,
            filter_entries: 1024,
            confidence_threshold: 0.30,
            max_depth: 5,
        }
    }

    /// The iso-degree (Fig. 10) variant: 1 % confidence threshold.
    pub fn aggressive() -> Self {
        SppConfig {
            confidence_threshold: 0.01,
            max_depth: 32,
            ..Self::paper()
        }
    }

    /// Metadata storage in bits of an [`Spp`] built from this
    /// configuration: signature table (16-bit page tag, 12-bit signature,
    /// 7-bit last offset, 8 LRU bits), pattern table (8-bit signature
    /// counter plus a 7-bit delta and 8-bit counter per slot), and a
    /// 12-bit-tag prefetch filter.
    pub fn storage_bits(&self) -> u64 {
        let st = self.signature_entries as u64 * (16 + SIG_BITS as u64 + 7 + 8);
        let pt = self.pattern_entries as u64 * (8 + self.deltas_per_entry as u64 * (7 + 8));
        let filter = self.filter_entries as u64 * 12;
        st + pt + filter
    }
}

impl Default for SppConfig {
    fn default() -> Self {
        SppConfig::paper()
    }
}

#[derive(Copy, Clone, Debug, Default)]
struct SigEntry {
    valid: bool,
    last_offset: i32,
    signature: u16,
}

#[derive(Copy, Clone, Debug, Default)]
struct DeltaSlot {
    delta: i32,
    counter: u32,
}

#[derive(Clone, Debug, Default)]
struct PatternEntry {
    sig_counter: u32,
    deltas: Vec<DeltaSlot>,
}

const SIG_BITS: u32 = 12;
const SIG_SHIFT: u32 = 3;
const COUNTER_MAX: u32 = 255;

fn update_signature(sig: u16, delta: i32) -> u16 {
    let d = (delta & 0x3f) as u16; // 6-bit two's-complement delta chunk
    ((sig << SIG_SHIFT) ^ d) & ((1 << SIG_BITS) - 1)
}

/// The SPP prefetcher.
#[derive(Debug)]
pub struct Spp {
    cfg: SppConfig,
    signatures: Vec<SigEntry>,
    lru: LruIndex,
    patterns: Vec<PatternEntry>,
    filter: Vec<u64>,
    page_shift: u32,
}

impl Spp {
    /// Creates an SPP prefetcher.
    ///
    /// # Panics
    ///
    /// Panics unless `page_blocks` is a power of two in `2..=64`, table
    /// sizes are nonzero, and the threshold is in `(0, 1]`.
    pub fn new(cfg: SppConfig) -> Self {
        assert!(
            cfg.page_blocks.is_power_of_two() && (2..=64).contains(&cfg.page_blocks),
            "page must be a power of two of 2..=64 blocks"
        );
        assert!(cfg.signature_entries > 0 && cfg.pattern_entries > 0 && cfg.filter_entries > 0);
        assert!(
            cfg.confidence_threshold > 0.0 && cfg.confidence_threshold <= 1.0,
            "confidence threshold must be in (0, 1]"
        );
        Spp {
            signatures: vec![SigEntry::default(); cfg.signature_entries],
            lru: LruIndex::new(cfg.signature_entries),
            patterns: vec![PatternEntry::default(); cfg.pattern_entries],
            filter: vec![u64::MAX; cfg.filter_entries],
            page_shift: cfg.page_blocks.trailing_zeros(),
            cfg,
        }
    }

    fn sig_slot(&mut self, page: u64) -> usize {
        match self.lru.touch(page) {
            SlotRef::Hit(i) => i,
            SlotRef::Miss(i) => {
                // `valid: false` marks a fresh page; `on_access` flips it
                // after recording the first offset.
                self.signatures[i] = SigEntry::default();
                i
            }
        }
    }

    fn pattern_train(&mut self, sig: u16, delta: i32) {
        let idx = sig as usize % self.patterns.len();
        let max_slots = self.cfg.deltas_per_entry;
        let e = &mut self.patterns[idx];
        if e.sig_counter >= COUNTER_MAX {
            // Periodic halving keeps ratios adaptive.
            e.sig_counter /= 2;
            for d in &mut e.deltas {
                d.counter /= 2;
            }
        }
        e.sig_counter += 1;
        if let Some(slot) = e.deltas.iter_mut().find(|d| d.delta == delta) {
            slot.counter += 1;
            return;
        }
        if e.deltas.len() < max_slots {
            e.deltas.push(DeltaSlot { delta, counter: 1 });
        } else if let Some(min) = e.deltas.iter_mut().min_by_key(|d| d.counter) {
            // Replace the weakest delta.
            *min = DeltaSlot { delta, counter: 1 };
        }
    }

    fn pattern_best(&self, sig: u16) -> Option<(i32, f64)> {
        let e = &self.patterns[sig as usize % self.patterns.len()];
        if e.sig_counter == 0 {
            return None;
        }
        let best = e.deltas.iter().max_by_key(|d| d.counter)?;
        Some((best.delta, best.counter as f64 / e.sig_counter as f64))
    }

    /// Returns `true` if the block passed the filter (not recently
    /// prefetched).
    fn filter_pass(&mut self, block: u64) -> bool {
        let idx = (block as usize) % self.filter.len();
        if self.filter[idx] == block {
            return false;
        }
        self.filter[idx] = block;
        true
    }
}

impl Prefetcher for Spp {
    fn name(&self) -> &str {
        "SPP"
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<BlockAddr>) {
        let page = info.block.index() >> self.page_shift;
        let offset = (info.block.index() & (self.cfg.page_blocks as u64 - 1)) as i32;
        let page_base = page << self.page_shift;
        let nblocks = self.cfg.page_blocks as i32;

        let slot = self.sig_slot(page);
        if !self.signatures[slot].valid {
            self.signatures[slot].valid = true;
            self.signatures[slot].last_offset = offset;
            self.signatures[slot].signature = 0;
            return;
        }
        let entry = self.signatures[slot];
        let delta = offset - entry.last_offset;
        if delta == 0 {
            return;
        }

        // Train: old signature -> observed delta; then advance.
        self.pattern_train(entry.signature, delta);
        let new_sig = update_signature(entry.signature, delta);
        self.signatures[slot].signature = new_sig;
        self.signatures[slot].last_offset = offset;

        // Lookahead along the signature path.
        let mut sig = new_sig;
        let mut confidence = 1.0;
        let mut pos = offset;
        for _ in 0..self.cfg.max_depth {
            let Some((d, p)) = self.pattern_best(sig) else {
                break;
            };
            confidence *= p;
            if confidence < self.cfg.confidence_threshold || d == 0 {
                break;
            }
            let target = pos + d;
            if target < 0 || target >= nblocks {
                break;
            }
            let block = page_base + target as u64;
            if self.filter_pass(block) {
                out.push(BlockAddr::new(block));
            }
            sig = update_signature(sig, d);
            pos = target;
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

    fn access(s: &mut Spp, block: u64) -> Vec<u64> {
        let mut out = Vec::new();
        s.on_access(&info(block), &mut out);
        out.iter().map(|b| b.index()).collect()
    }

    fn warm_stream(s: &mut Spp, page: u64, delta: u64, count: u64) {
        for i in 0..count {
            access(s, page * 64 + i * delta);
        }
    }

    #[test]
    fn signature_update_is_deterministic_and_bounded() {
        let s = update_signature(0, 1);
        assert_eq!(s, update_signature(0, 1));
        assert!(update_signature(0xFFF, 63) < (1 << SIG_BITS));
        assert_ne!(update_signature(0, 1), update_signature(0, 2));
    }

    #[test]
    fn learns_unit_stride_and_prefetches() {
        let mut s = Spp::new(SppConfig::paper());
        warm_stream(&mut s, 0, 1, 32);
        access(&mut s, 2 * 64);
        let p = access(&mut s, 2 * 64 + 1);
        assert!(
            p.contains(&(2 * 64 + 2)),
            "stride-1 prediction after first delta, got {p:?}"
        );
    }

    #[test]
    fn confidence_throttles_depth() {
        // On a clean stride the lookahead depth is bounded by max_depth for
        // the aggressive 1% variant and is at least as deep as the 25%
        // default. (Use the *first* prediction on a fresh page so the
        // prefetch filter plays no role.)
        let run = |cfg: SppConfig| {
            let mut s = Spp::new(cfg);
            warm_stream(&mut s, 0, 1, 64);
            access(&mut s, 10 * 64);
            access(&mut s, 10 * 64 + 1).len()
        };
        let normal = run(SppConfig::paper());
        let aggressive = run(SppConfig::aggressive());
        assert!(
            aggressive >= normal,
            "aggressive ({aggressive}) must issue at least as many as normal ({normal})"
        );
        assert!(
            aggressive > 8,
            "1% threshold should run deep, got {aggressive}"
        );
        assert!(normal >= 1, "default must still prefetch, got {normal}");
    }

    #[test]
    fn filter_suppresses_repeat_prefetches() {
        let mut s = Spp::new(SppConfig::paper());
        warm_stream(&mut s, 0, 1, 32);
        access(&mut s, 5 * 64);
        access(&mut s, 5 * 64 + 1);
        let first = access(&mut s, 5 * 64 + 2);
        // Walk back and repeat: same targets should be filtered.
        access(&mut s, 5 * 64 + 1);
        let again = access(&mut s, 5 * 64 + 2);
        assert!(first.len() >= again.len());
    }

    #[test]
    fn lookahead_respects_page_bounds() {
        let mut s = Spp::new(SppConfig::aggressive());
        warm_stream(&mut s, 0, 1, 64);
        access(&mut s, 7 * 64 + 61);
        access(&mut s, 7 * 64 + 62);
        let p = access(&mut s, 7 * 64 + 63);
        for b in &p {
            assert!(*b < 8 * 64, "prediction {b} crossed the page");
        }
    }

    #[test]
    fn mixed_deltas_split_confidence() {
        let mut s = Spp::new(SppConfig::paper());
        // From a fresh signature, observe alternating +1/+2 transitions so
        // no delta dominates; path confidence should stop the lookahead
        // quickly (shallow prefetching).
        let mut pos = 0u64;
        for i in 0..40 {
            access(&mut s, pos);
            pos += if i % 2 == 0 { 1 } else { 2 };
        }
        access(&mut s, 30 * 64);
        access(&mut s, 30 * 64 + 1);
        let p = access(&mut s, 30 * 64 + 2);
        assert!(p.len() <= 3, "noisy pattern must throttle, got {p:?}");
    }

    #[test]
    fn counter_halving_keeps_ratios() {
        let mut s = Spp::new(SppConfig::paper());
        for _ in 0..300 {
            s.pattern_train(42, 1);
        }
        let (d, p) = s.pattern_best(42).expect("trained");
        assert_eq!(d, 1);
        assert!(p > 0.9, "dominant delta keeps high probability, got {p}");
    }

    #[test]
    fn storage_is_a_few_kb() {
        let s = Spp::new(SppConfig::paper());
        let kb = s.storage_bits() as f64 / 8.0 / 1024.0;
        assert!(kb < 10.0, "SPP is storage-light ({kb:.2} KB)");
    }
}
