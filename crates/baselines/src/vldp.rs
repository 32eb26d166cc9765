//! Variable Length Delta Prefetcher (VLDP) — Shevgoor et al., MICRO 2015.
//!
//! VLDP is a shared-history (SHH) prefetcher that predicts the next *delta*
//! (distance between consecutive accesses within a page) using multiple
//! delta-history tables of increasing history length — itself a TAGE-like
//! cascade, but over deltas rather than footprints:
//!
//! * **DHB** (delta history buffer): per-page last offset and the last up
//!   to three deltas (16 entries, LRU);
//! * **OPT** (offset prediction table): first-access offset → first delta,
//!   with an accuracy counter (64 entries, direct-mapped);
//! * **DPT-1/2/3** (delta prediction tables): delta history of length
//!   1/2/3 → next delta (64 entries each), looked up longest history first.
//!
//! Multi-degree prefetching feeds each predicted delta back into the
//! history to predict deeper; the original design caps the degree at 4,
//! and the paper's iso-degree study (Fig. 10) lifts it to 32.

use bingo_sim::{AccessInfo, BlockAddr, Prefetcher};

use crate::lru::{LruIndex, SlotRef};

/// Configuration of a [`Vldp`] prefetcher.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct VldpConfig {
    /// Page size in blocks over which deltas are tracked (4 KB pages).
    pub page_blocks: u32,
    /// Delta-history-buffer entries.
    pub dhb_entries: usize,
    /// Offset-prediction-table entries.
    pub opt_entries: usize,
    /// Entries per delta prediction table.
    pub dpt_entries: usize,
    /// Maximum lookahead degree (4 in the original, 32 when aggressive).
    pub degree: usize,
}

impl VldpConfig {
    /// The paper's configuration: 16-entry DHB, 64-entry OPT, three
    /// 64-entry DPTs, degree 4.
    pub fn paper() -> Self {
        VldpConfig {
            page_blocks: 64,
            dhb_entries: 16,
            opt_entries: 64,
            dpt_entries: 64,
            degree: 4,
        }
    }

    /// The iso-degree (Fig. 10) aggressive variant: degree 32.
    pub fn aggressive() -> Self {
        VldpConfig {
            degree: 32,
            ..Self::paper()
        }
    }

    /// Metadata storage in bits of a [`Vldp`] built from this
    /// configuration: DHB (page tag, last offset, three 8-bit deltas,
    /// length, LRU), OPT (delta, confidence, valid), and the three DPTs
    /// (16-bit tag, delta, confidence, valid).
    pub fn storage_bits(&self) -> u64 {
        let dhb = self.dhb_entries as u64 * (36 + 7 + 3 * 8 + 2 + 8);
        let opt = self.opt_entries as u64 * (8 + 2 + 1);
        let dpt = 3 * self.dpt_entries as u64 * (16 + 8 + 2 + 1);
        dhb + opt + dpt
    }
}

impl Default for VldpConfig {
    fn default() -> Self {
        VldpConfig::paper()
    }
}

#[derive(Copy, Clone, Debug, Default)]
struct DhbEntry {
    valid: bool,
    last_offset: i32,
    /// Most recent delta first; 0 slots unused.
    deltas: [i32; 3],
    num_deltas: usize,
}

#[derive(Copy, Clone, Debug, Default)]
struct OptEntry {
    delta: i32,
    confidence: i8,
    valid: bool,
}

#[derive(Copy, Clone, Debug, Default)]
struct DptEntry {
    tag: u64,
    delta: i32,
    confidence: i8,
    valid: bool,
}

/// The VLDP prefetcher.
#[derive(Debug)]
pub struct Vldp {
    cfg: VldpConfig,
    dhb: Vec<DhbEntry>,
    lru: LruIndex,
    opt: Vec<OptEntry>,
    dpts: [Vec<DptEntry>; 3],
    page_shift: u32,
}

impl Vldp {
    /// Creates a VLDP prefetcher.
    ///
    /// # Panics
    ///
    /// Panics unless `page_blocks` is a power of two in `2..=64` and the
    /// table sizes are nonzero.
    pub fn new(cfg: VldpConfig) -> Self {
        assert!(
            cfg.page_blocks.is_power_of_two() && (2..=64).contains(&cfg.page_blocks),
            "page must be a power of two of 2..=64 blocks"
        );
        assert!(cfg.dhb_entries > 0 && cfg.opt_entries > 0 && cfg.dpt_entries > 0);
        assert!(cfg.degree > 0);
        Vldp {
            dhb: vec![DhbEntry::default(); cfg.dhb_entries],
            lru: LruIndex::new(cfg.dhb_entries),
            opt: vec![OptEntry::default(); cfg.opt_entries],
            dpts: [
                vec![DptEntry::default(); cfg.dpt_entries],
                vec![DptEntry::default(); cfg.dpt_entries],
                vec![DptEntry::default(); cfg.dpt_entries],
            ],
            page_shift: cfg.page_blocks.trailing_zeros(),
            cfg,
        }
    }

    fn history_key(history: &[i32]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &d in history {
            h ^= d as u32 as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    fn dpt_train(&mut self, len: usize, history: &[i32], next: i32) {
        debug_assert_eq!(history.len(), len);
        let key = Self::history_key(history);
        let idx = (key % self.dpts[len - 1].len() as u64) as usize;
        let e = &mut self.dpts[len - 1][idx];
        if e.valid && e.tag == key {
            if e.delta == next {
                e.confidence = (e.confidence + 1).min(3);
            } else {
                e.confidence -= 1;
                if e.confidence < 0 {
                    e.delta = next;
                    e.confidence = 0;
                }
            }
        } else {
            *e = DptEntry {
                tag: key,
                delta: next,
                confidence: 0,
                valid: true,
            };
        }
    }

    fn dpt_predict(&self, history: &[i32]) -> Option<i32> {
        // Longest usable history first.
        for len in (1..=history.len().min(3)).rev() {
            let slice = &history[..len];
            let key = Self::history_key(slice);
            let idx = (key % self.dpts[len - 1].len() as u64) as usize;
            let e = &self.dpts[len - 1][idx];
            if e.valid && e.tag == key {
                return Some(e.delta);
            }
        }
        None
    }

    fn dhb_slot(&mut self, page: u64) -> usize {
        match self.lru.touch(page) {
            SlotRef::Hit(i) => i,
            // `valid: false` marks a fresh page; the caller flips it
            // after initializing the entry.
            SlotRef::Miss(i) => {
                self.dhb[i] = DhbEntry::default();
                i
            }
        }
    }
}

impl Prefetcher for Vldp {
    fn name(&self) -> &str {
        "VLDP"
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<BlockAddr>) {
        let page = info.block.index() >> self.page_shift;
        let offset = (info.block.index() & (self.cfg.page_blocks as u64 - 1)) as i32;
        let page_base = page << self.page_shift;
        let nblocks = self.cfg.page_blocks as i32;

        let slot = self.dhb_slot(page);
        if !self.dhb[slot].valid {
            // First access to the page: initialize and consult the OPT.
            self.dhb[slot].valid = true;
            self.dhb[slot].last_offset = offset;
            let opt_idx = offset as usize % self.opt.len();
            let opt = self.opt[opt_idx];
            if opt.valid && opt.confidence >= 0 {
                let target = offset + opt.delta;
                if target >= 0 && target < nblocks && opt.delta != 0 {
                    out.push(BlockAddr::new(page_base + target as u64));
                }
            }
            return;
        }

        let entry = self.dhb[slot];
        let delta = offset - entry.last_offset;
        if delta == 0 {
            return; // same block again: nothing to learn
        }

        // Train the OPT with the page's first delta.
        if entry.num_deltas == 0 {
            let opt_idx = entry.last_offset as usize % self.opt.len();
            let e = &mut self.opt[opt_idx];
            if e.valid {
                if e.delta == delta {
                    e.confidence = (e.confidence + 1).min(3);
                } else {
                    e.confidence -= 1;
                    if e.confidence < 0 {
                        e.delta = delta;
                        e.confidence = 0;
                    }
                }
            } else {
                *e = OptEntry {
                    delta,
                    confidence: 0,
                    valid: true,
                };
            }
        }

        // Train the DPTs: old history (length 1..=num) -> observed delta.
        let old = entry;
        for len in 1..=old.num_deltas.min(3) {
            let history: Vec<i32> = old.deltas[..len].to_vec();
            self.dpt_train(len, &history, delta);
        }

        // Shift the new delta into the history.
        let e = &mut self.dhb[slot];
        e.deltas = [delta, old.deltas[0], old.deltas[1]];
        e.num_deltas = (old.num_deltas + 1).min(3);
        e.last_offset = offset;

        // Multi-degree lookahead: predict, issue, feed back.
        let mut history = self.dhb[slot].deltas;
        let mut num = self.dhb[slot].num_deltas;
        let mut pos = offset;
        for _ in 0..self.cfg.degree {
            let Some(d) = self.dpt_predict(&history[..num.min(3)]) else {
                break;
            };
            let target = pos + d;
            if d == 0 || target < 0 || target >= nblocks {
                break;
            }
            out.push(BlockAddr::new(page_base + target as u64));
            history = [d, history[0], history[1]];
            num = (num + 1).min(3);
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

    fn access(v: &mut Vldp, block: u64) -> Vec<u64> {
        let mut out = Vec::new();
        v.on_access(&info(block), &mut out);
        out.iter().map(|b| b.index()).collect()
    }

    /// Streams through a page with a fixed delta to warm the tables.
    fn warm_stream(v: &mut Vldp, page: u64, delta: u64, count: u64) {
        for i in 0..count {
            access(v, page * 64 + i * delta);
        }
    }

    #[test]
    fn learns_constant_stride_within_page() {
        let mut v = Vldp::new(VldpConfig::paper());
        warm_stream(&mut v, 0, 2, 8);
        // New page, same delta pattern forming.
        access(&mut v, 64);
        let p = access(&mut v, 64 + 2);
        assert!(
            p.contains(&(64 + 4)),
            "delta-2 history should predict next, got {p:?}"
        );
    }

    #[test]
    fn multi_degree_chains_predictions() {
        let mut v = Vldp::new(VldpConfig::paper());
        warm_stream(&mut v, 0, 1, 16);
        access(&mut v, 128);
        let p = access(&mut v, 129);
        // Degree 4: should predict 130, 131, 132, 133.
        assert!(p.len() >= 3, "expected deep lookahead, got {p:?}");
        assert!(p.contains(&130) && p.contains(&131));
    }

    #[test]
    fn aggressive_degree_goes_deeper() {
        let mk = |cfg: VldpConfig| {
            let mut v = Vldp::new(cfg);
            warm_stream(&mut v, 0, 1, 32);
            access(&mut v, 128);
            access(&mut v, 129)
        };
        let normal = mk(VldpConfig::paper());
        let aggr = mk(VldpConfig::aggressive());
        assert!(
            aggr.len() > normal.len(),
            "aggressive ({}) must issue more than normal ({})",
            aggr.len(),
            normal.len()
        );
    }

    #[test]
    fn opt_predicts_first_delta_on_new_page() {
        let mut v = Vldp::new(VldpConfig::paper());
        // Several pages whose first access at offset 0 is followed by +3.
        for page in 0..6u64 {
            access(&mut v, page * 64);
            access(&mut v, page * 64 + 3);
        }
        // Brand-new page, first access at offset 0: OPT fires immediately.
        let p = access(&mut v, 100 * 64);
        assert_eq!(p, vec![100 * 64 + 3]);
    }

    #[test]
    fn alternating_deltas_learned_with_longer_history() {
        // Pattern +1, +3, +1, +3 ... distinguishable only with history >= 2.
        let mut v = Vldp::new(VldpConfig::paper());
        let mut pos = 0u64;
        let mut deltas = [1u64, 3].iter().cycle();
        for _ in 0..24 {
            access(&mut v, pos);
            pos += *deltas.next().unwrap();
        }
        // Fresh page, replay prefix 0, +1 -> 1, +3 -> 4: after seeing
        // [3, 1] history the DPT-2 should predict +1 next.
        access(&mut v, 10 * 64);
        access(&mut v, 10 * 64 + 1);
        let p = access(&mut v, 10 * 64 + 4);
        assert!(
            p.contains(&(10 * 64 + 5)),
            "expected +1 after [+3,+1], got {p:?}"
        );
    }

    #[test]
    fn predictions_stay_within_page() {
        let mut v = Vldp::new(VldpConfig::paper());
        warm_stream(&mut v, 0, 1, 16);
        // Near the end of a page: lookahead must not cross the boundary.
        access(&mut v, 3 * 64 + 61);
        let p = access(&mut v, 3 * 64 + 62);
        for b in &p {
            assert!(*b < 4 * 64, "prediction {b} crossed the page");
        }
    }

    #[test]
    fn same_block_repeat_is_ignored() {
        let mut v = Vldp::new(VldpConfig::paper());
        access(&mut v, 10);
        let p = access(&mut v, 10);
        assert!(p.is_empty());
    }

    #[test]
    fn storage_is_small() {
        let v = Vldp::new(VldpConfig::paper());
        let kb = v.storage_bits() as f64 / 8.0 / 1024.0;
        assert!(kb < 4.0, "VLDP is a storage-light SHH design ({kb:.2} KB)");
    }
}
