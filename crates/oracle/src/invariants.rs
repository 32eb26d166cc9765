//! Invariant oracles for the baseline prefetchers.
//!
//! Unlike [`crate::SpecBingo`], these do not re-model their target
//! exactly; they track the minimum state needed to check a property every
//! burst must satisfy, which makes them robust to internal tuning (table
//! sizes, confidence thresholds, learning schedules) while still catching
//! the bugs that matter: predicting along a stride that was never
//! observed, emitting an offset outside BOP's candidate list, SMS leaking
//! prefetches across a region boundary.

use std::collections::BTreeMap;

use bingo_baselines::{BopConfig, StrideConfig};
use bingo_sim::{AccessInfo, BlockAddr, RegionGeometry};

use crate::{format_blocks, StepOracle};

/// Builds the burst a degree-`degree` prefetcher issues along delta `d`
/// from `block` — the shared shape of stride, BOP, and next-line bursts
/// (saturating at block zero exactly as [`BlockAddr::offset`] does).
fn delta_burst(block: BlockAddr, d: i64, degree: usize) -> Vec<BlockAddr> {
    (1..=degree as i64).map(|k| block.offset(d * k)).collect()
}

/// Checks that a stride prefetcher only ever predicts along the delta it
/// actually observed: whenever a burst is issued for PC `p` at block `X`,
/// the burst must be `X + d, X + 2d, ...` where `d` is the distance from
/// the *previous* access of `p` to `X`.
///
/// This holds for the real [`bingo_baselines::StridePrefetcher`] even
/// under PC collisions, because a collision resets the table entry and a
/// reset entry cannot fire before re-observing the PC — so at fire time
/// the entry's stride always equals the latest same-PC delta. The oracle
/// tracks PCs in an unbounded map precisely so collisions on the real
/// side cannot excuse a wrong prediction.
#[derive(Debug)]
pub struct StrideOracle {
    degree: usize,
    last_block: BTreeMap<u64, u64>,
}

impl StrideOracle {
    /// Builds the oracle for a stride prefetcher with `cfg`'s degree.
    pub fn new(cfg: &StrideConfig) -> Self {
        StrideOracle {
            degree: cfg.degree,
            last_block: BTreeMap::new(),
        }
    }
}

impl StepOracle for StrideOracle {
    fn name(&self) -> &str {
        "StrideInvariant"
    }

    fn check_access(&mut self, info: &AccessInfo, emitted: &[BlockAddr]) -> Result<(), String> {
        let pc = info.pc.raw();
        let block = info.block.index();
        let prev = self.last_block.insert(pc, block);
        if emitted.is_empty() {
            return Ok(());
        }
        let Some(prev) = prev else {
            return Err(format!(
                "pc={pc:#x}: prefetched on the very first access of this PC"
            ));
        };
        let d = block as i64 - prev as i64;
        if d == 0 {
            return Err(format!(
                "pc={pc:#x} block={block:#x}: prefetched on a repeated address (stride 0)"
            ));
        }
        let expect = delta_burst(info.block, d, self.degree);
        if emitted == expect {
            Ok(())
        } else {
            Err(format!(
                "pc={pc:#x} block={block:#x}: observed stride {d} implies {}, got {}",
                format_blocks(&expect),
                format_blocks(emitted),
            ))
        }
    }
}

/// Checks that every BOP burst is `X + d, X + 2d, ...` for a *single*
/// delta `d` drawn from the configured candidate-offset list, with
/// exactly `degree` candidates per burst. BOP's learning machinery
/// (scores, rounds, the RR table) is deliberately not modeled: whatever
/// offset it selects, it must come from the list it was given.
#[derive(Debug)]
pub struct BopOracle {
    degree: usize,
    offsets: Vec<i64>,
}

impl BopOracle {
    /// Builds the oracle for a BOP prefetcher with `cfg`'s candidate list
    /// and degree.
    pub fn new(cfg: &BopConfig) -> Self {
        BopOracle {
            degree: cfg.degree,
            offsets: cfg.offsets.clone(),
        }
    }
}

impl StepOracle for BopOracle {
    fn name(&self) -> &str {
        "BopInvariant"
    }

    fn check_access(&mut self, info: &AccessInfo, emitted: &[BlockAddr]) -> Result<(), String> {
        if emitted.is_empty() {
            return Ok(());
        }
        if emitted.len() != self.degree {
            return Err(format!(
                "block={:#x}: burst of {} candidates from a degree-{} BOP",
                info.block.index(),
                emitted.len(),
                self.degree
            ));
        }
        let explained = self
            .offsets
            .iter()
            .any(|&d| emitted == delta_burst(info.block, d, self.degree));
        if explained {
            Ok(())
        } else {
            Err(format!(
                "block={:#x}: burst {} matches no candidate offset",
                info.block.index(),
                format_blocks(emitted),
            ))
        }
    }
}

/// Exact mirror of the trivial next-line prefetcher: every access emits
/// precisely the next `degree` sequential blocks. Mostly a self-test of
/// the replay plumbing — if this oracle reports a diff, the harness, not
/// the prefetcher, is usually what broke.
#[derive(Debug)]
pub struct NextLineOracle {
    degree: usize,
}

impl NextLineOracle {
    /// Builds the oracle for a degree-`degree` next-line prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero (as does the prefetcher itself).
    pub fn new(degree: usize) -> Self {
        assert!(degree > 0, "degree must be nonzero");
        NextLineOracle { degree }
    }
}

impl StepOracle for NextLineOracle {
    fn name(&self) -> &str {
        "NextLineMirror"
    }

    fn check_access(&mut self, info: &AccessInfo, emitted: &[BlockAddr]) -> Result<(), String> {
        let expect = delta_burst(info.block, 1, self.degree);
        if emitted == expect {
            Ok(())
        } else {
            Err(format!(
                "block={:#x}: expected {}, got {}",
                info.block.index(),
                format_blocks(&expect),
                format_blocks(emitted),
            ))
        }
    }
}

/// Checks the footprint-confinement invariant of SMS (and any per-page
/// spatial prefetcher): every predicted block lies in the trigger's
/// region, is not the trigger block itself, appears at most once, and the
/// burst is emitted in ascending order (footprints are bitmaps — there is
/// no legitimate way to emit them otherwise).
#[derive(Debug)]
pub struct SmsOracle {
    region: RegionGeometry,
}

impl SmsOracle {
    /// Builds the oracle for a spatial prefetcher using `region` geometry.
    pub fn new(region: RegionGeometry) -> Self {
        SmsOracle { region }
    }
}

impl StepOracle for SmsOracle {
    fn name(&self) -> &str {
        "SmsRegionInvariant"
    }

    fn check_access(&mut self, info: &AccessInfo, emitted: &[BlockAddr]) -> Result<(), String> {
        let trigger_region = self.region.region_of(info.block);
        for b in emitted {
            if self.region.region_of(*b) != trigger_region {
                return Err(format!(
                    "block={:#x}: prefetch {:#x} escapes the trigger region",
                    info.block.index(),
                    b.index()
                ));
            }
            if *b == info.block {
                return Err(format!(
                    "block={:#x}: prefetched the trigger block itself",
                    info.block.index()
                ));
            }
        }
        if emitted.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!(
                "block={:#x}: burst {} is not strictly ascending",
                info.block.index(),
                format_blocks(emitted),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_sim::Pc;

    fn info(pc: u64, block: u64) -> AccessInfo {
        AccessInfo::demand(Pc::new(pc), BlockAddr::new(block))
    }

    fn blocks(idx: &[u64]) -> Vec<BlockAddr> {
        idx.iter().map(|&i| BlockAddr::new(i)).collect()
    }

    #[test]
    fn stride_accepts_burst_along_observed_delta() {
        let mut o = StrideOracle::new(&StrideConfig::typical());
        assert!(o.check_access(&info(0x400, 100), &[]).is_ok());
        assert!(o
            .check_access(&info(0x400, 104), &blocks(&[108, 112]))
            .is_ok());
    }

    #[test]
    fn stride_rejects_burst_off_the_observed_delta() {
        let mut o = StrideOracle::new(&StrideConfig::typical());
        assert!(o.check_access(&info(0x400, 100), &[]).is_ok());
        let err = o
            .check_access(&info(0x400, 104), &blocks(&[105, 106]))
            .unwrap_err();
        assert!(err.contains("observed stride 4"), "{err}");
    }

    #[test]
    fn stride_rejects_first_access_prefetch_and_zero_delta() {
        let mut o = StrideOracle::new(&StrideConfig::typical());
        assert!(o.check_access(&info(0x400, 100), &blocks(&[104])).is_err());
        assert!(o.check_access(&info(0x400, 100), &blocks(&[104])).is_err());
    }

    #[test]
    fn stride_tracks_pcs_independently() {
        let mut o = StrideOracle::new(&StrideConfig::typical());
        assert!(o.check_access(&info(0x400, 100), &[]).is_ok());
        assert!(o.check_access(&info(0x500, 1000), &[]).is_ok());
        // PC 0x400's stride is judged against its own history, not 0x500's.
        assert!(o
            .check_access(&info(0x400, 102), &blocks(&[104, 106]))
            .is_ok());
    }

    #[test]
    fn bop_accepts_candidate_offsets_only() {
        let mut o = BopOracle::new(&BopConfig::paper());
        assert!(o.check_access(&info(0x400, 100), &blocks(&[103])).is_ok());
        let err = o
            .check_access(&info(0x400, 100), &blocks(&[107]))
            .unwrap_err();
        assert!(err.contains("no candidate offset"), "{err}");
    }

    #[test]
    fn bop_rejects_wrong_degree() {
        let mut o = BopOracle::new(&BopConfig::paper()); // degree 1
        let err = o
            .check_access(&info(0x400, 100), &blocks(&[101, 102]))
            .unwrap_err();
        assert!(err.contains("degree-1"), "{err}");
    }

    #[test]
    fn next_line_mirror_is_exact() {
        let mut o = NextLineOracle::new(2);
        assert!(o.check_access(&info(0x1, 10), &blocks(&[11, 12])).is_ok());
        assert!(o.check_access(&info(0x1, 10), &blocks(&[11])).is_err());
        assert!(o.check_access(&info(0x1, 10), &[]).is_err());
    }

    #[test]
    fn sms_confines_bursts_to_the_trigger_region() {
        let mut o = SmsOracle::new(RegionGeometry::default());
        let trigger = info(0x400, 32 * 5 + 3);
        assert!(o
            .check_access(&trigger, &blocks(&[32 * 5 + 7, 32 * 5 + 9]))
            .is_ok());
        let err = o.check_access(&trigger, &blocks(&[32 * 6])).unwrap_err();
        assert!(err.contains("escapes"), "{err}");
        assert!(o.check_access(&trigger, &blocks(&[32 * 5 + 3])).is_err());
        assert!(o
            .check_access(&trigger, &blocks(&[32 * 5 + 9, 32 * 5 + 7]))
            .is_err());
    }
}
