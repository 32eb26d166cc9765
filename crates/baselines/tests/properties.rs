//! Property-style robustness tests: every baseline prefetcher must accept
//! arbitrary access streams without panicking, with bounded output, and
//! with its internal invariants intact.
//!
//! Streams come from a seeded [`SmallRng`] so runs are deterministic (the
//! hermetic build has no proptest; failures print the offending stream
//! parameters).

use bingo_rng::{Rng, SeedableRng, SmallRng};

use bingo_baselines::{
    Ampm, AmpmConfig, Bop, BopConfig, Sms, Spp, SppConfig, StridePrefetcher, Vldp, VldpConfig,
    DEFAULT_OFFSETS,
};
use bingo_sim::{AccessInfo, BlockAddr, CoreId, Pc, Prefetcher};

fn info(pc: u64, block: u64, is_write: bool) -> AccessInfo {
    let b = BlockAddr::new(block);
    AccessInfo {
        core: CoreId(0),
        pc: Pc::new(pc),
        addr: b.base_addr(),
        block: b,
        is_write,
        hit: false,
        cycle: 0,
    }
}

fn drive(p: &mut dyn Prefetcher, stream: &[(u64, u64, bool)]) {
    let mut out = Vec::new();
    for &(pc, block, w) in stream {
        out.clear();
        p.on_access(&info(0x400 + (pc % 64) * 4, block, w), &mut out);
        assert!(
            out.len() <= 64,
            "{} emitted {} candidates for one access",
            p.name(),
            out.len()
        );
        if block % 7 == 0 {
            p.on_eviction(BlockAddr::new(block));
        }
    }
    assert!(p.storage_bits() > 0, "{} must account storage", p.name());
}

#[test]
fn all_prefetchers_survive_arbitrary_streams() {
    let mut rng = SmallRng::seed_from_u64(0xBA5E_0001);
    for case in 0..64 {
        let len = rng.gen_range(1..500usize);
        let stream: Vec<(u64, u64, bool)> = (0..len)
            .map(|_| {
                (
                    rng.next_u64(),
                    rng.gen_range(0..(1u64 << 30)),
                    rng.gen_bool(0.5),
                )
            })
            .collect();
        let mut prefetchers: Vec<Box<dyn Prefetcher>> = vec![
            Box::new(Bop::new(BopConfig::paper())),
            Box::new(Bop::new(BopConfig::aggressive())),
            Box::new(Spp::new(SppConfig::paper())),
            Box::new(Spp::new(SppConfig::aggressive())),
            Box::new(Vldp::new(VldpConfig::paper())),
            Box::new(Vldp::new(VldpConfig::aggressive())),
            Box::new(Ampm::new(AmpmConfig::paper())),
            Box::new(Sms::default()),
            Box::new(StridePrefetcher::default()),
        ];
        for p in &mut prefetchers {
            drive(p.as_mut(), &stream);
        }
        let _ = case;
    }
}

/// BOP's selected offset always comes from its candidate list.
#[test]
fn bop_offset_always_from_candidates() {
    let mut rng = SmallRng::seed_from_u64(0xBA5E_0002);
    for _ in 0..32 {
        let len = rng.gen_range(1..2000usize);
        let mut bop = Bop::new(BopConfig::paper());
        let mut out = Vec::new();
        for _ in 0..len {
            let block = rng.gen_range(0..(1u64 << 20));
            out.clear();
            bop.on_access(&info(0x400, block, false), &mut out);
        }
        assert!(
            DEFAULT_OFFSETS.contains(&bop.best_offset()),
            "offset {} not a candidate",
            bop.best_offset()
        );
    }
}

/// Prefetch candidates never equal the demanded block itself for the
/// footprint-based prefetchers (the demand fetch already covers it).
#[test]
fn sms_never_prefetches_the_trigger() {
    let mut rng = SmallRng::seed_from_u64(0xBA5E_0003);
    for _ in 0..64 {
        let len = rng.gen_range(1..400usize);
        let mut sms = Sms::default();
        let mut out = Vec::new();
        for _ in 0..len {
            let pc = rng.gen_range(0..8u64);
            let block = rng.gen_range(0..4096u64);
            out.clear();
            sms.on_access(&info(0x400 + pc * 4, block, false), &mut out);
            assert!(
                !out.contains(&BlockAddr::new(block)),
                "prefetched the demanded block"
            );
        }
    }
}
