//! Spatial Memory Streaming (SMS) — Somogyi et al., ISCA 2006.
//!
//! SMS is the strongest prior per-page-history prefetcher in the paper's
//! comparison and the direct base of Bingo: it records region footprints in
//! an accumulation structure and associates each footprint with the
//! **single** `PC+Offset` event of the trigger access. Bingo's central
//! criticism (Section II/III) is precisely this single-event association:
//! `PC+Offset` generalizes across regions (covering compulsory misses) but
//! cannot exploit the higher accuracy of an exact `PC+Address` recurrence.
//!
//! The implementation is the `bingo` crate's single-event
//! [`MultiEventPrefetcher`]: Bingo's accumulation table, and Bingo's
//! history table searched by `PC+Offset` alone, configured with the
//! paper's SMS parameters: a 16 K-entry, 16-way pattern history table.

use bingo::multi_event::{MultiEventConfig, MultiEventPrefetcher};
use bingo::EventKind;
use bingo_sim::{AccessInfo, BlockAddr, PrefetchSource, Prefetcher, RegionGeometry, ThrottleLevel};

/// Configuration of an [`Sms`] prefetcher.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SmsConfig {
    /// Spatial region geometry (2 KB, as for Bingo).
    pub region: RegionGeometry,
    /// Pattern-history-table entries (16 K in the paper's comparison).
    pub pattern_entries: usize,
    /// Pattern-history-table associativity (16-way in the paper).
    pub ways: usize,
    /// Accumulation-table capacity.
    pub accumulation_entries: usize,
}

impl SmsConfig {
    /// The paper's SMS configuration (Section V-B).
    pub fn paper() -> Self {
        SmsConfig {
            region: RegionGeometry::default(),
            pattern_entries: 16 * 1024,
            ways: 16,
            accumulation_entries: 64,
        }
    }

    /// The equivalent single-event configuration [`Sms::new`] builds from.
    fn inner(&self) -> MultiEventConfig {
        MultiEventConfig {
            events: vec![EventKind::PcOffset],
            entries_per_table: self.pattern_entries,
            ways: self.ways,
            region: self.region,
            accumulation_entries: self.accumulation_entries,
            min_footprint_blocks: 2,
        }
    }

    /// Metadata storage in bits of an [`Sms`] built from this
    /// configuration, computed without allocating any tables.
    pub fn storage_bits(&self) -> u64 {
        self.inner().storage_bits()
    }
}

impl Default for SmsConfig {
    fn default() -> Self {
        SmsConfig::paper()
    }
}

/// The SMS prefetcher.
#[derive(Debug)]
pub struct Sms {
    inner: MultiEventPrefetcher,
}

impl Sms {
    /// Creates an SMS prefetcher.
    ///
    /// # Panics
    ///
    /// Panics on invalid table geometry.
    pub fn new(cfg: SmsConfig) -> Self {
        Sms {
            inner: MultiEventPrefetcher::new(cfg.inner()),
        }
    }

    /// Fraction of trigger lookups that found a pattern.
    pub fn match_probability(&self) -> f64 {
        self.inner.stats.match_probability()
    }
}

impl Default for Sms {
    fn default() -> Self {
        Sms::new(SmsConfig::paper())
    }
}

impl Prefetcher for Sms {
    fn name(&self) -> &str {
        "SMS"
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<BlockAddr>) {
        self.inner.on_access(info, out);
    }

    fn on_eviction(&mut self, block: BlockAddr) {
        self.inner.on_eviction(block);
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        self.inner.metrics()
    }

    fn set_throttle_level(&mut self, level: ThrottleLevel) {
        self.inner.set_throttle_level(level);
    }

    fn last_burst_source(&self) -> PrefetchSource {
        self.inner.last_burst_source()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_sim::Pc;

    fn info(pc: u64, block: u64) -> AccessInfo {
        AccessInfo::demand(Pc::new(pc), BlockAddr::new(block), 0)
    }

    fn visit(s: &mut Sms, pc: u64, region: u64, offsets: &[u32]) -> Vec<BlockAddr> {
        let mut out = Vec::new();
        let mut first = Vec::new();
        for (i, &off) in offsets.iter().enumerate() {
            out.clear();
            s.on_access(&info(pc, region * 32 + off as u64), &mut out);
            if i == 0 {
                first = out.clone();
            }
        }
        s.on_eviction(BlockAddr::new(region * 32 + offsets[0] as u64));
        first
    }

    #[test]
    fn generalizes_across_regions_via_pc_offset() {
        let mut s = Sms::default();
        visit(&mut s, 0x400, 1, &[2, 6, 9]);
        let p = visit(&mut s, 0x400, 77, &[2]);
        let mut blocks: Vec<u64> = p.iter().map(|b| b.index()).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![77 * 32 + 6, 77 * 32 + 9]);
    }

    #[test]
    fn cannot_distinguish_same_pc_offset_with_different_addresses() {
        // Two regions with the same trigger PC+Offset but different
        // footprints: SMS keeps only the latest pattern, so a revisit of
        // the first region replays the *wrong* footprint — exactly the
        // inaccuracy Bingo's long event fixes.
        let mut s = Sms::default();
        visit(&mut s, 0x400, 1, &[2, 6]);
        visit(&mut s, 0x400, 2, &[2, 11]);
        let p = visit(&mut s, 0x400, 1, &[2]);
        let blocks: Vec<u64> = p.iter().map(|b| b.index()).collect();
        assert_eq!(blocks, vec![32 + 11], "SMS replays the latest pattern");
    }

    #[test]
    fn different_pc_does_not_match() {
        let mut s = Sms::default();
        visit(&mut s, 0x400, 1, &[2, 6]);
        let p = visit(&mut s, 0x500, 50, &[2]);
        assert!(p.is_empty());
    }

    /// `Sms` is the one-event `PC+Offset` cascade: at every throttle level
    /// both emit the same burst for every access and attribute it alike.
    #[test]
    fn matches_the_pc_offset_cascade_at_every_throttle_level() {
        let levels = [
            ThrottleLevel::Full,
            ThrottleLevel::RaisedVote,
            ThrottleLevel::TriggerOnly,
            ThrottleLevel::Stopped,
        ];
        for level in levels {
            let mut sms = Sms::default();
            let mut cascade =
                MultiEventPrefetcher::new(MultiEventConfig::with_events(vec![EventKind::PcOffset]));
            sms.set_throttle_level(level);
            cascade.set_throttle_level(level);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut bursts = 0;
            // Eight PCs over 40 regions, each region revisited with the
            // offsets its PC trained, so most triggers predict a burst.
            for step in 0..4_000u64 {
                let pc = 0x400 + (step % 8) * 0x10;
                let block = (step / 7 % 40) * 32 + (step * 5 + pc) % 32;
                let access = info(pc, block);
                got.clear();
                want.clear();
                sms.on_access(&access, &mut got);
                cascade.on_access(&access, &mut want);
                assert_eq!(got, want, "{level:?}: burst at step {step}");
                if !got.is_empty() {
                    bursts += 1;
                    assert_eq!(
                        sms.last_burst_source(),
                        cascade.last_burst_source(),
                        "{level:?}: source at step {step}"
                    );
                }
                if step % 13 == 0 {
                    let evicted = BlockAddr::new(block);
                    sms.on_eviction(evicted);
                    cascade.on_eviction(evicted);
                }
            }
            assert_eq!(bursts == 0, level == ThrottleLevel::Stopped, "{level:?}");
        }
    }

    #[test]
    fn storage_is_about_100_kb() {
        let s = Sms::default();
        let kb = s.storage_bits() as f64 / 8.0 / 1024.0;
        assert!(kb > 80.0 && kb < 140.0, "SMS storage {kb:.1} KB");
    }
}
