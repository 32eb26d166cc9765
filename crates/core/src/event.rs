//! Trigger-access *events*: the keys to which page footprints are
//! associated.
//!
//! The paper's motivation study (Section III, Fig. 2) evaluates five event
//! heuristics extracted from the trigger access, ordered from longest
//! (most incidents coinciding — most accurate, least recurring) to shortest:
//!
//! 1. `PC+Address` — trigger PC and trigger block address,
//! 2. `PC+Offset`  — trigger PC and the block's offset within its region,
//! 3. `PC`         — trigger PC alone,
//! 4. `Address`    — trigger block address alone,
//! 5. `Offset`     — the in-region offset alone.
//!
//! Bingo itself uses only the first two; [`crate::multi_event`] exercises
//! all five for the motivation figures.

use bingo_sim::{AccessInfo, RegionGeometry};

/// One of the five event heuristics.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventKind {
    /// Trigger PC combined with the trigger block address (longest).
    PcAddress,
    /// Trigger PC combined with the in-region block offset.
    PcOffset,
    /// Trigger PC alone.
    Pc,
    /// Trigger block address alone.
    Address,
    /// In-region block offset alone (shortest).
    Offset,
}

impl EventKind {
    /// All five kinds, longest event first — the lookup priority order of a
    /// TAGE-like cascade.
    pub const LONGEST_FIRST: [EventKind; 5] = [
        EventKind::PcAddress,
        EventKind::PcOffset,
        EventKind::Pc,
        EventKind::Address,
        EventKind::Offset,
    ];

    /// Extracts this event's key from a trigger access, taking the
    /// in-region offset under `geometry`.
    ///
    /// Keys of different kinds never collide because the kind is mixed into
    /// the key (each kind hashes into a disjoint stream).
    pub fn key_of(self, info: &AccessInfo, geometry: RegionGeometry) -> u64 {
        let offset = geometry.offset_of(info.block);
        self.key_parts(info.pc.raw(), info.block.index(), u64::from(offset))
    }

    /// Computes the key from the raw trigger components (PC, block index,
    /// in-region offset) — used when re-deriving keys from a stored
    /// residency record.
    pub fn key_parts(self, pc: u64, block: u64, offset: u64) -> u64 {
        match self {
            EventKind::PcAddress => mix2(0xA1, pc, block),
            EventKind::PcOffset => mix2(0xA2, pc, offset),
            EventKind::Pc => mix2(0xA3, pc, 0),
            EventKind::Address => mix2(0xA4, block, 0),
            EventKind::Offset => mix2(0xA5, offset, 0),
        }
    }

    /// Short display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::PcAddress => "PC+Address",
            EventKind::PcOffset => "PC+Offset",
            EventKind::Pc => "PC",
            EventKind::Address => "Address",
            EventKind::Offset => "Offset",
        }
    }

    /// Number of "incidents" coinciding in the event — the paper's notion
    /// of event length, used only for ordering and display.
    pub fn length(self) -> u32 {
        match self {
            EventKind::PcAddress => 3, // PC + page + offset
            EventKind::PcOffset => 2,
            EventKind::Pc => 1,
            EventKind::Address => 2, // page + offset
            EventKind::Offset => 1,
        }
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A strong 64-bit mixer (splitmix64 finalizer) over a salted pair.
fn mix2(salt: u64, a: u64, b: u64) -> u64 {
    let mut x = salt
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(a)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        .wrapping_add(b);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_sim::{BlockAddr, Pc};

    fn geometry() -> RegionGeometry {
        RegionGeometry::default()
    }

    fn info(pc: u64, block: u64) -> AccessInfo {
        AccessInfo::demand(Pc::new(pc), BlockAddr::new(block), 0)
    }

    #[test]
    fn pc_address_distinguishes_addresses_with_same_offset() {
        // Blocks 5 and 37 share offset 5 in different 32-block regions.
        let a = info(0x400, 5);
        let b = info(0x400, 37);
        assert_ne!(
            EventKind::PcAddress.key_of(&a, geometry()),
            EventKind::PcAddress.key_of(&b, geometry())
        );
        assert_eq!(
            EventKind::PcOffset.key_of(&a, geometry()),
            EventKind::PcOffset.key_of(&b, geometry()),
            "PC+Offset generalizes across regions"
        );
    }

    #[test]
    fn pc_event_ignores_address_entirely() {
        assert_eq!(
            EventKind::Pc.key_of(&info(0x400, 5), geometry()),
            EventKind::Pc.key_of(&info(0x400, 1234), geometry())
        );
        assert_ne!(
            EventKind::Pc.key_of(&info(0x400, 5), geometry()),
            EventKind::Pc.key_of(&info(0x404, 5), geometry())
        );
    }

    #[test]
    fn offset_event_ignores_pc() {
        assert_eq!(
            EventKind::Offset.key_of(&info(0x400, 37), geometry()),
            EventKind::Offset.key_of(&info(0x999, 5), geometry())
        );
    }

    #[test]
    fn address_event_ignores_pc_but_not_block() {
        assert_eq!(
            EventKind::Address.key_of(&info(0x400, 37), geometry()),
            EventKind::Address.key_of(&info(0x999, 37), geometry())
        );
        assert_ne!(
            EventKind::Address.key_of(&info(0x400, 37), geometry()),
            EventKind::Address.key_of(&info(0x400, 38), geometry())
        );
    }

    #[test]
    fn kinds_hash_into_disjoint_streams() {
        // Same raw inputs, different kinds -> different keys.
        let i = info(0x400, 5);
        let keys: Vec<u64> = EventKind::LONGEST_FIRST
            .iter()
            .map(|k| k.key_of(&i, geometry()))
            .collect();
        for x in 0..keys.len() {
            for y in x + 1..keys.len() {
                assert_ne!(keys[x], keys[y], "kinds {x} and {y} collide");
            }
        }
    }

    #[test]
    fn ordering_is_longest_first() {
        let lens: Vec<u32> = EventKind::LONGEST_FIRST
            .iter()
            .map(|k| k.length())
            .collect();
        // PC+Address (3 incidents) is strictly the longest; no later event
        // exceeds its predecessor's cascade priority tier; Offset is among
        // the shortest.
        assert_eq!(lens[0], 3);
        assert!(lens.iter().skip(1).all(|&l| l < lens[0]));
        assert_eq!(*lens.last().unwrap(), 1);
    }
}
