//! # bingo-repro — umbrella crate
//!
//! Reproduction of *Bingo Spatial Data Prefetcher* (Bakhshalipour et al.,
//! HPCA 2019). This crate re-exports the workspace members under one roof
//! and hosts the cross-crate integration tests (`tests/`) and runnable
//! examples (`examples/`).
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`sim`] | cycle-level multi-core cache/memory simulator (Table I system) |
//! | [`prefetcher`] | the Bingo prefetcher and the multi-event TAGE-like predictors |
//! | [`baselines`] | BOP, SPP, VLDP, AMPM, SMS, stride |
//! | [`workloads`] | synthetic generators for the Table II workload suite |
//! | [`trace`] | hardened trace capture/replay: framed format, CRC32, typed offset-carrying errors |
//! | [`mod@bench`] | experiment harness: parallel (workload × prefetcher) runner |
//!
//! ## Quickstart
//!
//! ```
//! use bingo_repro::prefetcher::{Bingo, BingoConfig};
//! use bingo_repro::sim::{NoPrefetcher, System, SystemConfig};
//! use bingo_repro::workloads::Workload;
//!
//! let mut cfg = SystemConfig::tiny();
//! cfg.cores = 1;
//! let base = System::new(
//!     cfg,
//!     Workload::Em3d.sources(1, 42),
//!     vec![Box::new(NoPrefetcher)],
//!     400_000,
//! )
//! .run();
//! let with_bingo = System::new(
//!     cfg,
//!     Workload::Em3d.sources(1, 42),
//!     vec![Box::new(Bingo::new(BingoConfig::paper()))],
//!     400_000,
//! )
//! .run();
//! assert!(with_bingo.llc.demand_misses < base.llc.demand_misses);
//! ```

#![warn(missing_docs)]

pub use bingo as prefetcher;
pub use bingo_baselines as baselines;
pub use bingo_bench as bench;
pub use bingo_sim as sim;
pub use bingo_trace as trace;
pub use bingo_workloads as workloads;
