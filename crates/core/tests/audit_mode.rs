//! Verifies the `audit` feature's two contracted behaviors from a
//! *dependent* crate (the macro's `cfg` must resolve in the expanding
//! crate, not in `bingo-sim`): audit assertions vanish from normal builds
//! and fire in audit builds.

/// In a normal build the macro expands to nothing, so a false condition is
/// never evaluated; under `--features audit` it must panic with the
/// invariant's message.
#[test]
#[cfg_attr(
    feature = "audit",
    should_panic(expected = "deliberately violated invariant")
)]
fn audit_assert_fires_exactly_in_audit_builds() {
    bingo_sim::audit_assert!(1 == 2, "deliberately violated invariant: {}", "1 != 2");
}

/// A true condition is silent in both modes.
#[test]
fn audit_assert_is_silent_on_held_invariants() {
    bingo_sim::audit_assert!(1 + 1 == 2, "arithmetic holds");
}

/// The audited hot paths still work end-to-end under the feature: drive a
/// Bingo instance (history inserts, accumulation observes) far enough to
/// cross every audit assertion at least once.
#[test]
fn audited_invariants_hold_on_a_real_bingo_run() {
    use bingo_core_driver::drive;
    drive();
}

/// Minimal driver shared by the audit smoke test.
mod bingo_core_driver {
    use bingo::{Bingo, BingoConfig};
    use bingo_sim::{AccessInfo, BlockAddr, Pc, Prefetcher};

    fn info(pc: u64, block: u64) -> AccessInfo {
        AccessInfo::demand(Pc::new(pc), BlockAddr::new(block))
    }

    pub fn drive() {
        let mut b = Bingo::new(BingoConfig {
            history_entries: 256,
            history_ways: 4,
            accumulation_entries: 8,
            ..BingoConfig::paper()
        });
        let mut out = Vec::new();
        for region in 0..200u64 {
            for off in [0u64, 3, 7, 9] {
                out.clear();
                b.on_access(&info(0x400 + region % 7, region * 32 + off), &mut out);
            }
            b.on_eviction(BlockAddr::new(region * 32));
        }
        assert!(b.stats.lookups > 0);
    }
}
