//! Property-style tests of Bingo's data-structure invariants.
//!
//! Each test draws many random cases from a seeded [`SmallRng`] so the
//! sampled inputs are deterministic across runs (the hermetic build has no
//! proptest, so shrinkable generation is traded for fixed seeds; failures
//! print the offending case instead).

use bingo_rng::{Rng, SeedableRng, SmallRng};

use bingo::{AccumulationTable, EventKind, Footprint, UnifiedHistoryTable};
use bingo_sim::{AccessInfo, BlockAddr, Pc, RegionGeometry};

fn fp(bits: u32) -> Footprint {
    Footprint::from_bits(bits as u64, 32)
}

fn info(pc: u64, block: u64) -> AccessInfo {
    AccessInfo::demand(Pc::new(pc), BlockAddr::new(block), 0)
}

fn random_patterns(rng: &mut SmallRng) -> Vec<u32> {
    let n = rng.gen_range(1..16usize);
    (0..n).map(|_| rng.next_u64() as u32).collect()
}

/// Votes are monotone in the threshold: a stricter threshold never adds
/// blocks.
#[test]
fn vote_monotone_in_threshold() {
    let mut rng = SmallRng::seed_from_u64(0xB1A5_0001);
    for _ in 0..256 {
        let patterns = random_patterns(&mut rng);
        let fps: Vec<Footprint> = patterns.iter().map(|&b| fp(b)).collect();
        let t1 = 0.05 + 0.95 * (rng.gen_range(0..1000u32) as f64 / 1000.0);
        let t2 = 0.05 + 0.95 * (rng.gen_range(0..1000u32) as f64 / 1000.0);
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let loose = Footprint::vote(&fps, lo);
        let strict = Footprint::vote(&fps, hi);
        assert_eq!(
            strict.intersect(loose),
            strict,
            "strict ⊆ loose violated for {patterns:?} at ({lo}, {hi})"
        );
    }
}

/// A unanimous vote equals the intersection; a 1-of-n vote equals the union
/// (for n <= 16 so ceil(1/16) = 1).
#[test]
fn vote_extremes() {
    let mut rng = SmallRng::seed_from_u64(0xB1A5_0002);
    for _ in 0..256 {
        let patterns = random_patterns(&mut rng);
        let fps: Vec<Footprint> = patterns.iter().map(|&b| fp(b)).collect();
        let inter = fps.iter().fold(fp(u32::MAX), |a, b| a.intersect(*b));
        let union = fps.iter().fold(fp(0), |a, b| a.union(*b));
        assert_eq!(Footprint::vote(&fps, 1.0), inter, "for {patterns:?}");
        assert_eq!(Footprint::vote(&fps, 1.0 / 16.0), union, "for {patterns:?}");
    }
}

/// iter() yields exactly the set bits, ascending.
#[test]
fn footprint_iter_matches_bits() {
    let mut rng = SmallRng::seed_from_u64(0xB1A5_0003);
    for _ in 0..256 {
        let bits = rng.next_u64() as u32;
        let f = fp(bits);
        let offsets: Vec<u32> = f.iter().collect();
        assert_eq!(offsets.len() as u32, f.count());
        let mut reconstructed = 0u32;
        let mut last = None;
        for o in offsets {
            assert!(o < 32);
            if let Some(prev) = last {
                assert!(o > prev, "iter not ascending for {bits:#x}");
            }
            last = Some(o);
            reconstructed |= 1 << o;
        }
        assert_eq!(reconstructed, bits);
    }
}

/// Whatever is inserted into the unified table is found by the long lookup
/// and appears among the short matches.
#[test]
fn unified_table_insert_then_lookup() {
    let mut rng = SmallRng::seed_from_u64(0xB1A5_0004);
    for _ in 0..64 {
        let mut t = UnifiedHistoryTable::new(1024, 16, 32);
        let mut matches = Vec::new();
        let n = rng.gen_range(1..100usize);
        for _ in 0..n {
            let long = rng.next_u64();
            let short = rng.gen_range(0..64u64);
            let bits = rng.next_u64() as u32;
            t.insert(long, short, fp(bits));
            assert_eq!(t.lookup_long(long, short), Some(fp(bits)));
            t.lookup_short(short, &mut matches);
            assert!(
                matches.contains(&fp(bits)),
                "short lookup must see fresh insert of {bits:#x}"
            );
        }
        assert!(t.valid_entries() <= 1024);
    }
}

/// The event keys are pure functions of (pc, block, offset).
#[test]
fn event_keys_deterministic() {
    let mut rng = SmallRng::seed_from_u64(0xB1A5_0005);
    for _ in 0..256 {
        let pc = rng.next_u64();
        let block = rng.next_u64();
        let offset = rng.gen_range(0..32u64);
        for kind in EventKind::LONGEST_FIRST {
            assert_eq!(
                kind.key_parts(pc, block, offset),
                kind.key_parts(pc, block, offset)
            );
        }
    }
}

/// The accumulation table's live footprints always contain their trigger
/// offset and its occupancy never exceeds its capacity.
#[test]
fn accumulation_invariants() {
    let mut rng = SmallRng::seed_from_u64(0xB1A5_0006);
    for _ in 0..64 {
        let geometry = RegionGeometry::default();
        let mut acc = AccumulationTable::new(16, geometry);
        let mut regions = Vec::new();
        let n = rng.gen_range(1..300usize);
        for _ in 0..n {
            let pc = rng.gen_range(0..8u64);
            let block = rng.gen_range(0..512u64);
            let i = info(0x400 + pc * 4, block);
            acc.observe(&i);
            regions.push(geometry.region_of(i.block));
            assert!(acc.len() <= 16);
        }
        for r in regions {
            if let Some(res) = acc.end_residency(r) {
                assert!(
                    res.footprint.contains(res.trigger_offset),
                    "footprint must contain the trigger"
                );
                assert_eq!(res.region, r);
            }
        }
        assert!(acc.is_empty() || acc.len() <= 16);
    }
}
