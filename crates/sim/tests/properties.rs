//! Property-style tests of the simulator substrate's invariants.
//!
//! Random cases come from a seeded [`SmallRng`] so runs are deterministic
//! (the hermetic build has no proptest; failures print the offending case).

use bingo_rng::{Rng, SeedableRng, SmallRng};

use bingo_sim::{
    Addr, BlockAddr, Cache, CacheConfig, CoreId, Dram, DramConfig, Lookup, PrefetchOrigin,
    PrefetchSource, RegionGeometry,
};

fn small_cache_config() -> CacheConfig {
    CacheConfig {
        size_bytes: 4096, // 8 sets x 8 ways
        ways: 8,
        latency: 10,
        mshrs: 8,
        banks: 2,
    }
}

/// Block/address round trips hold for any address.
#[test]
fn addr_block_round_trip() {
    let mut rng = SmallRng::seed_from_u64(0x51D0_0001);
    for _ in 0..512 {
        let raw = rng.next_u64();
        let addr = Addr::new(raw);
        let block = addr.block();
        assert!(block.base_addr().raw() <= raw || raw < 64);
        assert_eq!(block.base_addr().block(), block);
    }
}

/// Region/offset decomposition reconstructs the block for every
/// power-of-two region size.
#[test]
fn region_round_trip() {
    let mut rng = SmallRng::seed_from_u64(0x51D0_0002);
    for _ in 0..512 {
        let block = rng.next_u64();
        let shift = rng.gen_range(0..=6u32);
        let g = RegionGeometry::new(64u64 << shift);
        let b = BlockAddr::new(block);
        let r = g.region_of(b);
        let o = g.offset_of(b);
        assert!((o as usize) < g.blocks_per_region());
        assert_eq!(g.block_at(r, o), b);
    }
}

/// The cache never exceeds its capacity and never panics under an
/// arbitrary access/fill workload.
#[test]
fn cache_capacity_invariant() {
    let mut rng = SmallRng::seed_from_u64(0x51D0_0003);
    for _ in 0..64 {
        let mut cache = Cache::new(small_cache_config());
        let capacity = 4096 / 64;
        let mut now = 0u64;
        let n = rng.gen_range(1..400usize);
        for _ in 0..n {
            now += 1;
            let op = rng.gen_range(0..3u8);
            let b = BlockAddr::new(rng.gen_range(0..512u64));
            match op {
                0 => {
                    let _ = cache.demand_access(b, now, false);
                }
                1 => {
                    if !cache.probe(b) && cache.mshr_available_for_demand() {
                        cache.allocate_fill(b, now + 100, None);
                    }
                }
                _ => {
                    let _ = cache.complete_fill(b);
                }
            }
            assert!(cache.resident_lines() <= capacity);
            assert!(cache.mshr_occupancy() <= 8);
        }
    }
}

/// A resident block always reports a hit with a ready time after the
/// access cycle.
#[test]
fn resident_blocks_hit() {
    let mut rng = SmallRng::seed_from_u64(0x51D0_0004);
    for _ in 0..256 {
        let block = rng.gen_range(0..512u64);
        let now = rng.gen_range(0..10_000u64);
        let mut cache = Cache::new(small_cache_config());
        let b = BlockAddr::new(block);
        cache.allocate_fill(b, 0, None);
        cache.complete_fill(b);
        match cache.demand_access(b, now, false) {
            Lookup::Hit { ready_at, .. } => assert!(ready_at > now),
            other => panic!("expected hit, got {other:?}"),
        }
    }
}

/// DRAM completions are always after the request cycle, and channel
/// bookkeeping never goes backwards.
#[test]
fn dram_time_is_monotone() {
    let mut rng = SmallRng::seed_from_u64(0x51D0_0005);
    for _ in 0..64 {
        let mut dram = Dram::new(DramConfig {
            channels: 2,
            banks_per_channel: 8,
            row_bytes: 4096,
            row_hit_latency: 160,
            row_miss_latency: 226,
            transfer_cycles: 14,
        });
        let mut now = 0u64;
        let n = rng.gen_range(1..200usize);
        for _ in 0..n {
            let block = rng.next_u64() as u32;
            now += rng.gen_range(0..1000u64);
            let ready = dram.read(BlockAddr::new(block as u64), now);
            assert!(ready > now, "ready {ready} <= now {now}");
            assert!(ready <= now + 1_000_000, "unbounded latency");
        }
    }
}

/// Prefetched lines are attributed exactly once: useful + useless never
/// exceeds completed prefetch fills.
#[test]
fn prefetch_attribution_conserves() {
    let mut rng = SmallRng::seed_from_u64(0x51D0_0006);
    for _ in 0..64 {
        let mut cache = Cache::new(small_cache_config());
        let mut now = 0;
        let mut fills = 0u64;
        let n = rng.gen_range(1..300usize);
        for _ in 0..n {
            now += 1;
            let op = rng.gen_range(0..3u8);
            let b = BlockAddr::new(rng.gen_range(0..256u64));
            match op {
                0 => {
                    let _ = cache.demand_access(b, now, false);
                }
                1 => {
                    if !cache.probe(b) && cache.mshr_available_for_prefetch(2) {
                        let origin = PrefetchOrigin {
                            core: CoreId(0),
                            source: PrefetchSource::Unattributed,
                        };
                        cache.allocate_fill(b, now + 10, Some((origin, now)));
                    }
                }
                _ => {
                    if cache.complete_fill(b).evicted.is_some() || cache.probe(b) {
                        fills += 1;
                    }
                }
            }
        }
        let s = &cache.stats;
        assert!(
            s.pf_useful + s.pf_useless <= s.pf_late + fills + s.pf_useful,
            "attribution leak: useful {} useless {} fills {}",
            s.pf_useful,
            s.pf_useless,
            fills
        );
    }
}
