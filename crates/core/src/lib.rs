//! # bingo — the Bingo spatial data prefetcher
//!
//! Reproduction of *Bingo Spatial Data Prefetcher* (Bakhshalipour et al.,
//! HPCA 2019). Bingo is a per-page-history spatial prefetcher that
//! associates each region footprint with **two** events extracted from the
//! trigger access — the long `PC+Address` and the short `PC+Offset` — and
//! stores both associations in a **single unified history table** indexed by
//! a hash of the short event and tagged with the long event.
//!
//! On a trigger access Bingo looks up the long event first (most accurate);
//! on a miss it re-searches the *same set* with the short event (most
//! recurring), voting across multiple matches: a block is prefetched if it
//! appears in ≥ 20 % of the matching footprints.
//!
//! This crate also ships the generalized multi-event TAGE-like prefetcher
//! used by the paper's motivation study ([`multi_event`]), exercising all
//! five event heuristics from `PC+Address` down to bare `Offset`.
//!
//! ## Quickstart
//!
//! ```
//! use bingo::{Bingo, BingoConfig};
//! use bingo_sim::{Instr, Addr, Pc, System, SystemConfig, NoPrefetcher};
//!
//! // Stream over regions so the footprints recur.
//! fn source() -> Box<dyn bingo_sim::InstrSource> {
//!     let mut n = 0u64;
//!     Box::new(move || {
//!         n += 1;
//!         if n % 3 == 0 {
//!             Instr::Load { pc: Pc::new(0x400), addr: Addr::new((n / 3) * 64), dep: None }
//!         } else {
//!             Instr::Op
//!         }
//!     })
//! }
//!
//! let cfg = SystemConfig::tiny();
//! let base = System::new(cfg, vec![source()], vec![Box::new(NoPrefetcher)], 30_000).run();
//! let with_bingo = System::new(
//!     cfg,
//!     vec![source()],
//!     vec![Box::new(Bingo::new(BingoConfig::paper()))],
//!     30_000,
//! )
//! .run();
//! assert!(with_bingo.llc.demand_misses < base.llc.demand_misses);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accumulation;
pub mod analysis;
pub mod bingo;
pub mod event;
pub mod footprint;
pub mod history;
pub mod multi_event;

pub use crate::bingo::{Bingo, BingoConfig, BingoStats, PredictionStep};
pub use accumulation::{AccumulationTable, Observation, Residency};
pub use analysis::{EventProfile, SpatialProfiler, SpatialReport};
pub use event::EventKind;
pub use footprint::Footprint;
pub use history::UnifiedHistoryTable;
pub use multi_event::{MultiEventConfig, MultiEventPrefetcher, MultiEventStats};
