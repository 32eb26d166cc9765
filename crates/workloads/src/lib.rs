//! # bingo-workloads — the evaluation workload suite
//!
//! Synthetic, seeded, deterministic instruction-stream generators modeling
//! the ten applications of the paper's Table II: four commercial server
//! workloads (Data Serving, SAT Solver, Streaming, Zeus), the `em3d`
//! scientific kernel, and five four-program SPEC CPU2006 mixes.
//!
//! The original traces are proprietary (SimFlex server checkpoints, SPEC
//! binaries); these generators substitute them by reproducing the
//! statistics that determine spatial-prefetcher behavior — see DESIGN.md §4
//! and the module docs of [`kernels`].
//!
//! ## Example
//!
//! ```
//! use bingo_sim::{NoPrefetcher, System, SystemConfig};
//! use bingo_workloads::Workload;
//!
//! let mut cfg = SystemConfig::tiny();
//! cfg.cores = 1;
//! let sources = Workload::Streaming.sources(cfg.cores, 42);
//! let result = System::new(cfg, sources, vec![Box::new(NoPrefetcher)], 50_000).run();
//! assert!(result.llc.demand_misses > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod apps;
pub mod kernels;
pub mod queue;
pub mod source;
pub mod trace_workload;

pub use apps::{SpecProgram, Workload};
pub use kernels::{Kernel, ObjectSpec, PatternKey, REGION_BLOCKS};
pub use queue::InstrQueue;
pub use source::{WeightedKernel, WorkloadSource};
pub use trace_workload::{capture_workload, TraceWorkload};
