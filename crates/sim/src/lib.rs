//! # bingo-sim — cycle-level cache/memory simulator substrate
//!
//! A from-scratch, ChampSim-style simulation substrate built for the
//! reproduction of *Bingo Spatial Data Prefetcher* (HPCA 2019). It models
//! the system of the paper's Table I:
//!
//! * 4 out-of-order cores (4-wide, 256-entry ROB, 64-entry LSQ),
//! * split private 64 KB L1 caches (data side modeled),
//! * an 8 MB, 16-way, 4-bank shared last-level cache with 15-cycle latency,
//! * two DRAM channels: 60 ns zero-load latency, 37.5 GB/s peak bandwidth,
//!   with per-bank row buffers,
//! * one data prefetcher per core, trained on and prefetching into the LLC.
//!
//! The core side is cycle-stepped; the memory side computes fill latencies
//! analytically while tracking resource occupancy (MSHRs, cache banks, DRAM
//! channels/rows), and installs fills through an event queue so cache
//! contents — and therefore prefetch usefulness attribution — evolve exactly
//! as they would in a fully event-driven model.
//!
//! ## Quickstart
//!
//! ```
//! use bingo_sim::{
//!     Addr, Instr, NextLinePrefetcher, NoPrefetcher, Pc, System, SystemConfig,
//! };
//!
//! // A trivially streaming instruction source: every 4th instruction loads
//! // the next sequential cache block.
//! fn source() -> Box<dyn bingo_sim::InstrSource> {
//!     let mut n = 0u64;
//!     Box::new(move || {
//!         n += 1;
//!         if n % 4 == 0 {
//!             Instr::Load { pc: Pc::new(0x400), addr: Addr::new((n / 4) * 64), dep: None }
//!         } else {
//!             Instr::Op
//!         }
//!     })
//! }
//!
//! let cfg = SystemConfig::tiny();
//! let baseline = System::new(cfg, vec![source()], vec![Box::new(NoPrefetcher)], 10_000).run();
//! let prefetched =
//!     System::new(cfg, vec![source()], vec![Box::new(NextLinePrefetcher::new(2))], 10_000).run();
//! assert!(prefetched.llc.demand_misses < baseline.llc.demand_misses);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod cache;
pub mod chaos;
pub mod config;
pub mod core_model;
pub mod dram;
pub mod fault;
pub mod memory;
pub mod openmap;
pub mod prefetch;
pub mod recency;
pub mod replay;
pub mod stats;
pub mod system;
pub mod telemetry;
pub mod throttle;
mod wheel;

pub use addr::{Addr, BlockAddr, CoreId, Pc, RegionGeometry, RegionId, BLOCK_BYTES, BLOCK_SHIFT};
pub use cache::{Cache, Evicted, Landing, Lookup, PrefetchOrigin};
pub use chaos::{AppliedPerturbation, ChaosInjector, ChaosKind, ChaosPlan, PhaseFlipSource};
pub use config::{CacheConfig, ConfigError, CoreConfig, DramConfig, SystemConfig};
pub use core_model::{Instr, InstrSource, OooCore};
pub use dram::{Dram, DramStats};
pub use fault::{FaultInjector, FaultPlan, FaultStats};
pub use memory::{IssueResult, MemorySystem};
pub use openmap::OpenMap;
pub use prefetch::{AccessInfo, FaultyPrefetcher, NextLinePrefetcher, NoPrefetcher, Prefetcher};
pub use recency::{RecencyList, WayOrder};
pub use replay::{PrefetchEvent, PrefetchTrace, ReplayParseError, ReplayStep};
pub use stats::{
    CacheStats, CoreQos, CoreStats, Counters, CoverageReport, IngestReport, QosReport, SimResult,
};
pub use system::{SimAbort, System};
pub use telemetry::{
    PrefetchLedger, PrefetchSource, SourceCounters, TelemetryLevel, TelemetryReport,
};
pub use throttle::{
    CoreSignals, Throttle, ThrottleLevel, ThrottleMode, ThrottleStats, WatchdogStats, QOS_SLO,
};

/// Asserts an internal invariant, compiled in only under the `audit`
/// feature.
///
/// Production runs keep hot paths free of redundant checks; audit runs
/// (`cargo test --features audit`) promote the documented invariants —
/// MSHR occupancy bounds, prefetch burst caps, footprint popcounts — to
/// hard assertions. The `cfg` is evaluated in the crate where the macro
/// *expands*, so every workspace crate declares its own `audit` feature
/// forwarding to its dependencies'.
#[macro_export]
macro_rules! audit_assert {
    ($($arg:tt)*) => {
        #[cfg(feature = "audit")]
        {
            assert!($($arg)*);
        }
    };
}
