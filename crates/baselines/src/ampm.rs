//! Access Map Pattern Matching (AMPM) — Ishii, Inaba, Hiraki, ICS 2009;
//! winner of the First Data Prefetching Championship.
//!
//! AMPM keeps a *memory access map*: per-zone bitmaps of recently accessed
//! cache blocks. On an access to block `t` it tests candidate strides `d`:
//! if `t-d` and `t-2d` were both accessed, the stream is assumed to
//! continue and `t+d` is prefetched (and symmetrically for backward
//! streams). Per the paper's methodology the map is sized to cover the
//! whole LLC capacity.

use std::fmt;

use bingo_sim::{AccessInfo, BlockAddr, Prefetcher};

use crate::lru::{LruIndex, SlotRef};

/// Configuration of an [`Ampm`] prefetcher.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AmpmConfig {
    /// Zone size in blocks (64 blocks = 4 KB zones).
    pub zone_blocks: u32,
    /// Number of zones tracked; the paper sizes the map to cover the LLC
    /// (8 MB / 4 KB = 2048 zones).
    pub zones: usize,
    /// Maximum stride magnitude tested.
    pub max_stride: u32,
    /// Maximum prefetches issued per access.
    pub degree: usize,
}

impl AmpmConfig {
    /// The paper's configuration: 4 KB zones covering the 8 MB LLC, with
    /// the original's adaptive degree approximated at 8.
    pub fn paper() -> Self {
        AmpmConfig {
            zone_blocks: 64,
            zones: 2048,
            max_stride: 16,
            degree: 8,
        }
    }

    /// Metadata storage in bits of an [`Ampm`] built from this
    /// configuration: per zone a ~36-bit tag, the access and prefetch
    /// bitmaps, and an 8-bit LRU stamp.
    pub fn storage_bits(&self) -> u64 {
        self.zones as u64 * (36 + 2 * self.zone_blocks as u64 + 8)
    }
}

impl Default for AmpmConfig {
    fn default() -> Self {
        AmpmConfig::paper()
    }
}

#[derive(Copy, Clone, Default)]
struct Zone {
    accessed: u64,
    prefetched: u64,
}

impl fmt::Debug for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Zone")
            .field("accessed", &format_args!("{:#x}", self.accessed))
            .finish()
    }
}

/// The AMPM prefetcher.
#[derive(Debug)]
pub struct Ampm {
    cfg: AmpmConfig,
    zones: Vec<Zone>,
    lru: LruIndex,
    zone_shift: u32,
    /// Feedback-directed degree throttling (the original's adaptive
    /// aggressiveness): accesses that land on previously-prefetched map
    /// bits are "good"; a low good/issued ratio shrinks the degree.
    fb_issued: u64,
    fb_good: u64,
    current_degree: usize,
}

impl Ampm {
    /// Creates an AMPM prefetcher.
    ///
    /// # Panics
    ///
    /// Panics unless `zone_blocks` is a power of two in `2..=64` and all
    /// other parameters are nonzero.
    pub fn new(cfg: AmpmConfig) -> Self {
        assert!(
            cfg.zone_blocks.is_power_of_two() && (2..=64).contains(&cfg.zone_blocks),
            "zone must be a power of two of 2..=64 blocks"
        );
        assert!(cfg.zones > 0 && cfg.degree > 0 && cfg.max_stride > 0);
        Ampm {
            zones: vec![Zone::default(); cfg.zones],
            lru: LruIndex::new(cfg.zones),
            zone_shift: cfg.zone_blocks.trailing_zeros(),
            fb_issued: 0,
            fb_good: 0,
            current_degree: cfg.degree,
            cfg,
        }
    }

    fn update_feedback(&mut self) {
        if self.fb_issued < 1024 {
            return;
        }
        let ratio = self.fb_good as f64 / self.fb_issued as f64;
        self.current_degree = if ratio > 0.5 {
            self.cfg.degree
        } else if ratio > 0.25 {
            (self.cfg.degree / 2).max(1)
        } else {
            1
        };
        self.fb_issued /= 2;
        self.fb_good /= 2;
    }

    fn zone_slot(&mut self, zone_id: u64) -> usize {
        match self.lru.touch(zone_id) {
            SlotRef::Hit(i) => i,
            SlotRef::Miss(i) => {
                self.zones[i] = Zone::default();
                i
            }
        }
    }
}

impl Prefetcher for Ampm {
    fn name(&self) -> &str {
        "AMPM"
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<BlockAddr>) {
        let zone_id = info.block.index() >> self.zone_shift;
        let t = (info.block.index() & (self.cfg.zone_blocks as u64 - 1)) as i64;
        let slot = self.zone_slot(zone_id);
        let was_prefetched = self.zones[slot].prefetched >> t & 1 == 1;
        if was_prefetched {
            self.fb_good += 1;
        }
        self.zones[slot].accessed |= 1u64 << t;
        self.update_feedback();
        let degree = self.current_degree;

        let accessed = self.zones[slot].accessed;
        let nblocks = self.cfg.zone_blocks as i64;
        let zone_base = zone_id << self.zone_shift;
        let mut issued = 0usize;
        let test = |bits: u64, idx: i64| idx >= 0 && idx < nblocks && (bits >> idx) & 1 == 1;

        // Commit to the *smallest* supported stride (dense maps would
        // otherwise "detect" every multiple of it) and look ahead along
        // that one stride, bounded by the (feedback-throttled) degree.
        if let Some(d) = (1..=self.cfg.max_stride as i64)
            .find(|&d| test(accessed, t - d) && test(accessed, t - 2 * d))
        {
            for k in 1..=degree as i64 {
                if issued >= degree {
                    break;
                }
                let target = t + k * d;
                if target >= nblocks {
                    break;
                }
                let covered = self.zones[slot].accessed | self.zones[slot].prefetched;
                if !test(covered, target) {
                    out.push(BlockAddr::new(zone_base + target as u64));
                    self.zones[slot].prefetched |= 1u64 << target;
                    self.fb_issued += 1;
                    issued += 1;
                }
            }
        }
        if issued < degree {
            // Backward pattern: t, t+d, t+2d  =>  t-d (reverse scans).
            if let Some(d) = (1..=self.cfg.max_stride as i64)
                .find(|&d| test(accessed, t + d) && test(accessed, t + 2 * d))
            {
                let covered = self.zones[slot].accessed | self.zones[slot].prefetched;
                if t - d >= 0 && !test(covered, t - d) {
                    out.push(BlockAddr::new(zone_base + (t - d) as u64));
                    self.zones[slot].prefetched |= 1u64 << (t - d);
                    self.fb_issued += 1;
                }
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
        AccessInfo::demand(Pc::new(0x400), BlockAddr::new(block))
    }

    fn small() -> Ampm {
        Ampm::new(AmpmConfig {
            zones: 16,
            ..AmpmConfig::paper()
        })
    }

    fn access(a: &mut Ampm, block: u64) -> Vec<u64> {
        let mut out = Vec::new();
        a.on_access(&info(block), &mut out);
        out.iter().map(|b| b.index()).collect()
    }

    #[test]
    fn unit_stride_detected_on_third_access() {
        let mut a = small();
        assert!(access(&mut a, 100).is_empty());
        assert!(access(&mut a, 101).is_empty());
        let p = access(&mut a, 102);
        assert!(
            p.contains(&103),
            "stride-1 stream should prefetch 103, got {p:?}"
        );
    }

    #[test]
    fn larger_stride_detected() {
        let mut a = small();
        access(&mut a, 256);
        access(&mut a, 260);
        let p = access(&mut a, 264);
        assert!(
            p.contains(&268),
            "stride-4 stream should prefetch 268, got {p:?}"
        );
    }

    #[test]
    fn backward_stream_detected() {
        let mut a = small();
        access(&mut a, 40);
        access(&mut a, 39);
        let p = access(&mut a, 38);
        assert!(
            p.contains(&37),
            "backward stream should prefetch 37, got {p:?}"
        );
    }

    #[test]
    fn no_duplicate_prefetch_for_marked_blocks() {
        let mut a = small();
        access(&mut a, 100);
        access(&mut a, 101);
        let p1 = access(&mut a, 102);
        assert!(p1.contains(&103));
        // Re-access 102: 103 already marked prefetched.
        let p2 = access(&mut a, 102);
        assert!(!p2.contains(&103), "got {p2:?}");
    }

    #[test]
    fn degree_limits_prefetches_per_access() {
        let mut a = Ampm::new(AmpmConfig {
            zones: 16,
            degree: 1,
            ..AmpmConfig::paper()
        });
        // Build a dense region where many strides would fire.
        for b in 0..8 {
            access(&mut a, b);
        }
        let p = access(&mut a, 8);
        assert!(p.len() <= 1, "degree 1 must cap issues, got {p:?}");
    }

    #[test]
    fn random_accesses_do_not_trigger() {
        let mut a = small();
        let blocks = [5u64, 17, 40, 9, 33, 58];
        let mut total = 0;
        for &b in &blocks {
            total += access(&mut a, b).len();
        }
        assert_eq!(total, 0, "no stride pattern present");
    }

    #[test]
    fn map_survives_cache_evictions() {
        // The access map records *accesses*, independent of residency; an
        // eviction must not erase learned patterns.
        let mut a = small();
        access(&mut a, 100);
        access(&mut a, 101);
        a.on_eviction(BlockAddr::new(100));
        let p = access(&mut a, 102);
        assert!(p.contains(&103), "got {p:?}");
    }

    #[test]
    fn zone_capacity_is_lru() {
        let mut a = Ampm::new(AmpmConfig {
            zones: 2,
            ..AmpmConfig::paper()
        });
        access(&mut a, 0); // zone 0
        access(&mut a, 64); // zone 1
        access(&mut a, 1); // refresh zone 0
        access(&mut a, 128); // zone 2 evicts zone 1
        let p = access(&mut a, 2); // zone 0 pattern fires despite churn
        assert!(p.contains(&3), "zone 0 survived, got {p:?}");
    }

    #[test]
    fn storage_covers_llc_with_paper_config() {
        let a = Ampm::new(AmpmConfig::paper());
        let covered_bytes = 2048u64 * 4096;
        assert_eq!(covered_bytes, 8 * 1024 * 1024, "map covers the 8 MB LLC");
        let kb = a.storage_bits() as f64 / 8.0 / 1024.0;
        assert!(kb > 20.0 && kb < 60.0, "AMPM storage {kb:.1} KB");
    }
}
