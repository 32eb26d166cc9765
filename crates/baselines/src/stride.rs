//! Classic PC-indexed stride prefetcher (reference-point baseline).
//!
//! Baer–Chen style: a reference prediction table keyed by load PC tracks
//! the last address and stride per instruction with a 2-bit confidence
//! counter; confident entries prefetch `degree` strides ahead. Not part of
//! the paper's headline comparison (it is strictly dominated by BOP/VLDP
//! on the evaluated workloads) but included as the canonical SHH
//! representative for tests, examples, and ablations.

use bingo_sim::{AccessInfo, BlockAddr, Prefetcher};

/// Configuration of a [`StridePrefetcher`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StrideConfig {
    /// Reference-prediction-table entries.
    pub entries: usize,
    /// Confidence needed before prefetching (2-bit counter).
    pub min_confidence: u8,
    /// Number of strides ahead to prefetch.
    pub degree: usize,
}

impl StrideConfig {
    /// A typical configuration: 256 entries, confidence 2, degree 2.
    pub fn typical() -> Self {
        StrideConfig {
            entries: 256,
            min_confidence: 2,
            degree: 2,
        }
    }

    /// Metadata storage in bits of a [`StridePrefetcher`] built from this
    /// configuration: per RPT entry a 16-bit PC tag, ~36-bit last block,
    /// 8-bit stride, 2-bit confidence, and a valid bit.
    pub fn storage_bits(&self) -> u64 {
        self.entries as u64 * (16 + 36 + 8 + 2 + 1)
    }
}

impl Default for StrideConfig {
    fn default() -> Self {
        StrideConfig::typical()
    }
}

#[derive(Copy, Clone, Debug, Default)]
struct RptEntry {
    pc: u64,
    valid: bool,
    last_block: u64,
    stride: i64,
    confidence: u8,
}

/// The stride prefetcher.
#[derive(Debug)]
pub struct StridePrefetcher {
    cfg: StrideConfig,
    table: Vec<RptEntry>,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `degree` is zero.
    pub fn new(cfg: StrideConfig) -> Self {
        assert!(cfg.entries > 0 && cfg.degree > 0);
        StridePrefetcher {
            table: vec![RptEntry::default(); cfg.entries],
            cfg,
        }
    }
}

impl Default for StridePrefetcher {
    fn default() -> Self {
        StridePrefetcher::new(StrideConfig::typical())
    }
}

impl Prefetcher for StridePrefetcher {
    fn name(&self) -> &str {
        "Stride"
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<BlockAddr>) {
        let pc = info.pc.raw();
        let block = info.block.index();
        let idx = (pc as usize / 4) % self.table.len();
        let e = &mut self.table[idx];
        if !e.valid || e.pc != pc {
            *e = RptEntry {
                pc,
                valid: true,
                last_block: block,
                stride: 0,
                confidence: 0,
            };
            return;
        }
        let observed = block as i64 - e.last_block as i64;
        e.last_block = block;
        if observed == 0 {
            return;
        }
        if observed == e.stride {
            e.confidence = (e.confidence + 1).min(3);
        } else {
            if e.confidence > 0 {
                e.confidence -= 1;
            } else {
                e.stride = observed;
            }
            return;
        }
        if e.confidence >= self.cfg.min_confidence {
            let stride = e.stride;
            for k in 1..=self.cfg.degree as i64 {
                out.push(info.block.offset(stride * k));
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

    fn info(pc: u64, block: u64) -> AccessInfo {
        AccessInfo::demand(Pc::new(pc), BlockAddr::new(block), 0)
    }

    fn access(s: &mut StridePrefetcher, pc: u64, block: u64) -> Vec<u64> {
        let mut out = Vec::new();
        s.on_access(&info(pc, block), &mut out);
        out.iter().map(|x| x.index()).collect()
    }

    #[test]
    fn constant_stride_detected_after_confidence_builds() {
        let mut s = StridePrefetcher::default();
        assert!(access(&mut s, 0x400, 100).is_empty()); // allocate
        assert!(access(&mut s, 0x400, 104).is_empty()); // learn stride 4
        assert!(access(&mut s, 0x400, 108).is_empty()); // conf 1
        let p = access(&mut s, 0x400, 112); // conf 2 -> fire
        assert_eq!(p, vec![116, 120]);
    }

    #[test]
    fn negative_stride_supported() {
        let mut s = StridePrefetcher::default();
        access(&mut s, 0x400, 200);
        access(&mut s, 0x400, 195);
        access(&mut s, 0x400, 190);
        let p = access(&mut s, 0x400, 185);
        assert_eq!(p, vec![180, 175]);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut s = StridePrefetcher::default();
        access(&mut s, 0x400, 0);
        access(&mut s, 0x400, 4);
        access(&mut s, 0x400, 8);
        access(&mut s, 0x400, 12);
        // Break the pattern with a new stride (5): confidence must decay
        // before the new stride is adopted and fires again.
        assert!(access(&mut s, 0x400, 100).is_empty()); // delta 88, conf 2->1
        assert!(access(&mut s, 0x400, 105).is_empty()); // delta 5, conf 1->0
        assert!(access(&mut s, 0x400, 110).is_empty()); // delta 5, adopt stride
        assert!(access(&mut s, 0x400, 115).is_empty()); // conf 1
        assert_eq!(access(&mut s, 0x400, 120), vec![125, 130]); // conf 2
    }

    #[test]
    fn different_pcs_tracked_separately() {
        let mut s = StridePrefetcher::default();
        for i in 0..4 {
            access(&mut s, 0x400, i * 2);
            access(&mut s, 0x500, 1000 + i * 7);
        }
        let p1 = access(&mut s, 0x400, 8);
        let p2 = access(&mut s, 0x500, 1028);
        assert_eq!(p1, vec![10, 12]);
        assert_eq!(p2, vec![1035, 1042]);
    }

    #[test]
    fn pc_collision_reallocates() {
        let mut s = StridePrefetcher::new(StrideConfig {
            entries: 1,
            ..StrideConfig::typical()
        });
        access(&mut s, 0x400, 0);
        access(&mut s, 0x400, 4);
        // Conflicting PC evicts the entry.
        access(&mut s, 0x500, 999);
        assert!(access(&mut s, 0x400, 8).is_empty(), "state was evicted");
    }
}
