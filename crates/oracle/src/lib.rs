//! # bingo-oracle — executable specification and invariant oracles
//!
//! The optimized prefetchers in `crates/core` and `crates/baselines` are
//! validated end-to-end only through simulation metrics, which is exactly
//! the regime where a silent prediction bug hides: a model/implementation
//! drift shifts coverage by a few percent and every downstream figure
//! quietly absorbs it. This crate provides the independent ground truth a
//! differential harness can hold them against:
//!
//! * [`SpecBingo`] — a deliberately naive, allocation-heavy reference
//!   model of Bingo written straight from the paper text (Section IV):
//!   one unified table as a plain list of sets, footprints as
//!   [`std::collections::BTreeSet`], linear scans everywhere, the
//!   long-then-short lookup cascade, and the ≥ 20 % footprint vote. It
//!   shares no table, no LRU machinery, and no hot-path code with the
//!   real [`bingo::Bingo`] — only the event-key hash and the
//!   configuration type, which are interface, not logic.
//! * Invariant oracles ([`StrideOracle`], [`BopOracle`],
//!   [`NextLineOracle`], [`SmsOracle`]) — weaker, property-style checkers
//!   for the baselines: a stride prefetcher may only predict along the
//!   delta it actually observed, BOP may only emit multiples of an offset
//!   from its candidate list, SMS never leaves the trigger region.
//! * [`generate()`] — a seeded adversarial trace generator producing
//!   page-boundary straddles, trigger/retrigger races,
//!   eviction-before-fill, aliasing PCs, and tiny/huge region configs.
//! * [`shrink()`] — a hand-rolled ddmin-style shrinker that reduces a
//!   failing trace to a minimal, canonicalized regression case.
//!
//! The differential harness that replays traces through both sides lives
//! in `bingo-bench::differential`; the committed regression corpus lives
//! in `tests/corpus/` at the workspace root. See `TESTING.md` for the
//! workflow.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod generate;
pub mod invariants;
pub mod shrink;
pub mod spec;

pub use generate::{generate, GeneratorConfig};
pub use invariants::{BopOracle, NextLineOracle, SmsOracle, StrideOracle};
pub use shrink::{shrink, shrink_items};
pub use spec::{SpecBingo, SpecStep};

use bingo_sim::{AccessInfo, BlockAddr};

/// A step-level checker of prefetcher behavior.
///
/// The differential harness feeds every replayed event to an oracle
/// together with what the real prefetcher emitted for it. An oracle either
/// models the prefetcher exactly ([`SpecBingo`]) and diffs the whole
/// burst, or tracks just enough state to check an invariant every burst
/// must satisfy (the baseline oracles). A violation is reported as a
/// human-readable explanation, which ends up in the shrunk trace's header
/// comment.
pub trait StepOracle {
    /// Short name for reports ("SpecBingo", "StrideInvariant", ...).
    fn name(&self) -> &str;

    /// Observes one demand access and the candidate burst the real
    /// prefetcher emitted for it.
    ///
    /// # Errors
    ///
    /// An explanation of the violated expectation.
    fn check_access(&mut self, info: &AccessInfo, emitted: &[BlockAddr]) -> Result<(), String>;

    /// Observes an LLC eviction (prefetchers emit nothing on these).
    ///
    /// # Errors
    ///
    /// An explanation of the violated expectation (default: none).
    fn check_eviction(&mut self, block: BlockAddr) -> Result<(), String> {
        let _ = block;
        Ok(())
    }
}

fn format_blocks(blocks: &[BlockAddr]) -> String {
    let inner: Vec<String> = blocks.iter().map(|b| format!("{:#x}", b.index())).collect();
    format!("[{}]", inner.join(", "))
}
