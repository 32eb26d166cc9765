//! The paper's workload suite (Table II), modeled as kernel mixtures.
//!
//! The original traces are unavailable (commercial server checkpoints under
//! SimFlex and SPEC CPU2006 binaries), so each application is substituted
//! by a synthetic generator reproducing its *relevant statistics*: baseline
//! LLC MPKI, degree and kind of spatial correlation (PC-keyed vs page-keyed
//! footprints), page-reuse rate, footprint density, and dependence
//! structure (parallel bursts vs serialized chases). See DESIGN.md §4 for
//! the substitution rationale; `tests/workload_calibration.rs` asserts the
//! MPKI bands.

use bingo_sim::InstrSource;

use crate::kernels::{chase, object, random, stream, ObjectSpec, PatternKey};
use crate::source::{WeightedKernel, WorkloadSource};

/// One of the ten evaluated workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Workload {
    /// Cassandra database under the Yahoo! cloud serving benchmark.
    DataServing,
    /// Cloud9 parallel symbolic execution engine.
    SatSolver,
    /// Darwin streaming server.
    Streaming,
    /// Zeus web server.
    Zeus,
    /// em3d electromagnetic wave propagation (400 K-node graph).
    Em3d,
    /// SPEC mix: lbm, omnetpp, soplex, sphinx3.
    Mix1,
    /// SPEC mix: lbm, libquantum, sphinx3, zeusmp.
    Mix2,
    /// SPEC mix: milc, omnetpp, perlbench, soplex.
    Mix3,
    /// SPEC mix: astar, omnetpp, soplex, tonto.
    Mix4,
    /// SPEC mix: GemsFDTD, gromacs, omnetpp, soplex.
    Mix5,
    /// Adversarial: random-access storm — a flood of independent misses
    /// over a span far beyond the LLC, with a thin structured bait so
    /// footprint prefetchers keep firing into traffic they cannot predict.
    StressStorm,
    /// Adversarial: cache-thrashing scans — concurrent strided streams over
    /// working sets larger than the LLC, evicting prefetched lines before
    /// their demand arrives.
    StressThrash,
    /// Adversarial: cold-page pointer chases plus page-keyed object visits
    /// — spatially unpredictable, latency-bound traffic where PC-keyed
    /// events systematically mispredict.
    StressChase,
    /// Adversarial: phase-flipping mixture — the same code paths alternate
    /// between stable dense layouts (which train confident footprints) and
    /// wildly deviating sparse ones (which the trained footprints then
    /// mispredict).
    StressFlip,
}

impl Workload {
    /// All ten workloads in the paper's figure order.
    pub const ALL: [Workload; 10] = [
        Workload::DataServing,
        Workload::SatSolver,
        Workload::Streaming,
        Workload::Zeus,
        Workload::Em3d,
        Workload::Mix1,
        Workload::Mix2,
        Workload::Mix3,
        Workload::Mix4,
        Workload::Mix5,
    ];

    /// The adversarial stress family — deliberately *outside* [`ALL`]
    /// (which reproduces the paper's Table II and stays at ten entries):
    /// these workloads exist to pressure-test throttling and resource
    /// limits, not to reproduce published figures.
    ///
    /// [`ALL`]: Workload::ALL
    pub const STRESS: [Workload; 4] = [
        Workload::StressStorm,
        Workload::StressThrash,
        Workload::StressChase,
        Workload::StressFlip,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DataServing => "Data Serving",
            Workload::SatSolver => "SAT Solver",
            Workload::Streaming => "Streaming",
            Workload::Zeus => "Zeus",
            Workload::Em3d => "em3d",
            Workload::Mix1 => "Mix 1",
            Workload::Mix2 => "Mix 2",
            Workload::Mix3 => "Mix 3",
            Workload::Mix4 => "Mix 4",
            Workload::Mix5 => "Mix 5",
            Workload::StressStorm => "Stress Storm",
            Workload::StressThrash => "Stress Thrash",
            Workload::StressChase => "Stress Chase",
            Workload::StressFlip => "Stress Flip",
        }
    }

    /// Baseline LLC MPKI reported in Table II. The stress family is not in
    /// the paper; its values are the nominal design targets of the
    /// generators, kept here so every workload can be tabulated uniformly.
    pub fn paper_mpki(self) -> f64 {
        match self {
            Workload::DataServing => 6.7,
            Workload::SatSolver => 1.7,
            Workload::Streaming => 3.9,
            Workload::Zeus => 5.2,
            Workload::Em3d => 32.4,
            Workload::Mix1 => 15.7,
            Workload::Mix2 => 12.5,
            Workload::Mix3 => 12.7,
            Workload::Mix4 => 14.7,
            Workload::Mix5 => 12.6,
            Workload::StressStorm => 60.0,
            Workload::StressThrash => 45.0,
            Workload::StressChase => 40.0,
            Workload::StressFlip => 30.0,
        }
    }

    /// Filesystem-safe identifier (`data-serving`, `mix-1`, ...), used to
    /// name captured-trace directories.
    pub fn slug(self) -> &'static str {
        match self {
            Workload::DataServing => "data-serving",
            Workload::SatSolver => "sat-solver",
            Workload::Streaming => "streaming",
            Workload::Zeus => "zeus",
            Workload::Em3d => "em3d",
            Workload::Mix1 => "mix-1",
            Workload::Mix2 => "mix-2",
            Workload::Mix3 => "mix-3",
            Workload::Mix4 => "mix-4",
            Workload::Mix5 => "mix-5",
            Workload::StressStorm => "stress-storm",
            Workload::StressThrash => "stress-thrash",
            Workload::StressChase => "stress-chase",
            Workload::StressFlip => "stress-flip",
        }
    }

    /// Short description from Table II.
    pub fn description(self) -> &'static str {
        match self {
            Workload::DataServing => "Cassandra Database, 15GB Yahoo! Benchmark",
            Workload::SatSolver => "Cloud9 Parallel Symbolic Execution Engine",
            Workload::Streaming => "Darwin Streaming Server, 7500 Clients",
            Workload::Zeus => "Zeus Web Server v4.3, 16 K Connections",
            Workload::Em3d => "400K Nodes, Degree 2, Span 5, 15% Remote",
            Workload::Mix1 => "lbm, omnetpp, soplex, sphinx3",
            Workload::Mix2 => "lbm, libquantum, sphinx3, zeusmp",
            Workload::Mix3 => "milc, omnetpp, perlbench, soplex",
            Workload::Mix4 => "astar, omnetpp, soplex, tonto",
            Workload::Mix5 => "GemsFDTD, gromacs, omnetpp, soplex",
            Workload::StressStorm => "Adversarial: Random-Access Storm + Bait",
            Workload::StressThrash => "Adversarial: Cache-Thrashing Strided Scans",
            Workload::StressChase => "Adversarial: Cold-Page Chases, Page-Keyed Visits",
            Workload::StressFlip => "Adversarial: Phase-Flipping Layout Mixture",
        }
    }

    /// Builds the instruction source of one core slot.
    ///
    /// The source is a pure function of `(workload, core, seed)` — it does
    /// *not* depend on how many cores the machine has — so a core slot
    /// carries the identical instruction stream whether its neighbors run
    /// the same workload (the homogeneous suite) or different ones (a
    /// declarative mix). That invariance is what makes the mix path
    /// bit-for-bit equal to the classic path at every matching slot.
    pub fn source_for_core(self, core: usize, seed: u64) -> Box<dyn InstrSource> {
        let base_addr = ((core as u64) + 1) << 44;
        let core_seed = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(core as u64 + 1);
        let kernels = match self {
            Workload::DataServing => data_serving(),
            Workload::SatSolver => sat_solver(),
            Workload::Streaming => streaming(),
            Workload::Zeus => zeus(),
            Workload::Em3d => em3d(),
            Workload::Mix1 => spec(MIX1[core % 4]),
            Workload::Mix2 => spec(MIX2[core % 4]),
            Workload::Mix3 => spec(MIX3[core % 4]),
            Workload::Mix4 => spec(MIX4[core % 4]),
            Workload::Mix5 => spec(MIX5[core % 4]),
            Workload::StressStorm => stress_storm(),
            Workload::StressThrash => stress_thrash(),
            Workload::StressChase => stress_chase(),
            Workload::StressFlip => stress_flip(),
        };
        Box::new(WorkloadSource::new(kernels, core_seed, base_addr))
    }

    /// Builds one instruction source per core.
    ///
    /// Server workloads run the same application on every core (distinct
    /// seeds and address spaces); SPEC mixes assign one program per core,
    /// cycling if `cores != 4`.
    pub fn sources(self, cores: usize, seed: u64) -> Vec<Box<dyn InstrSource>> {
        (0..cores)
            .map(|core| self.source_for_core(core, seed))
            .collect()
    }

    /// The SPEC program names of a mix (empty for server workloads).
    pub fn mix_programs(self) -> &'static [SpecProgram] {
        match self {
            Workload::Mix1 => &MIX1,
            Workload::Mix2 => &MIX2,
            Workload::Mix3 => &MIX3,
            Workload::Mix4 => &MIX4,
            Workload::Mix5 => &MIX5,
            _ => &[],
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One SPEC CPU2006 program modeled in the mixes.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum SpecProgram {
    Lbm,
    Omnetpp,
    Soplex,
    Sphinx3,
    Libquantum,
    Zeusmp,
    Milc,
    Perlbench,
    Astar,
    Tonto,
    GemsFdtd,
    Gromacs,
}

impl SpecProgram {
    /// Lower-case SPEC name.
    pub fn name(self) -> &'static str {
        match self {
            SpecProgram::Lbm => "lbm",
            SpecProgram::Omnetpp => "omnetpp",
            SpecProgram::Soplex => "soplex",
            SpecProgram::Sphinx3 => "sphinx3",
            SpecProgram::Libquantum => "libquantum",
            SpecProgram::Zeusmp => "zeusmp",
            SpecProgram::Milc => "milc",
            SpecProgram::Perlbench => "perlbench",
            SpecProgram::Astar => "astar",
            SpecProgram::Tonto => "tonto",
            SpecProgram::GemsFdtd => "GemsFDTD",
            SpecProgram::Gromacs => "gromacs",
        }
    }
}

const MIX1: [SpecProgram; 4] = [
    SpecProgram::Lbm,
    SpecProgram::Omnetpp,
    SpecProgram::Soplex,
    SpecProgram::Sphinx3,
];
const MIX2: [SpecProgram; 4] = [
    SpecProgram::Lbm,
    SpecProgram::Libquantum,
    SpecProgram::Sphinx3,
    SpecProgram::Zeusmp,
];
const MIX3: [SpecProgram; 4] = [
    SpecProgram::Milc,
    SpecProgram::Omnetpp,
    SpecProgram::Perlbench,
    SpecProgram::Soplex,
];
const MIX4: [SpecProgram; 4] = [
    SpecProgram::Astar,
    SpecProgram::Omnetpp,
    SpecProgram::Soplex,
    SpecProgram::Tonto,
];
const MIX5: [SpecProgram; 4] = [
    SpecProgram::GemsFdtd,
    SpecProgram::Gromacs,
    SpecProgram::Omnetpp,
    SpecProgram::Soplex,
];

// --- Server application profiles -----------------------------------------
//
// Working-set sizing reference: the shared LLC holds 4096 2 KB regions
// (~1024 per core). Page universes far beyond that produce compulsory
// misses; reuse pools within it produce hits. Kernel weights are chosen so
// irregular traffic (chases, random) is a minority of *accesses* — note an
// object/chase episode is one access while a stream episode is a chunk.

fn data_serving() -> Vec<WeightedKernel> {
    vec![
        // Row reads from a huge buffer pool: PC-keyed object layouts with
        // moderate reuse. 16 requests are processed concurrently, each a
        // serialized chain (index entry -> row fields), which bounds MLP
        // and spreads a region's accesses over many hundreds of cycles --
        // the long page residencies the paper attributes to server apps.
        WeightedKernel {
            weight: 16,
            kernel: object(ObjectSpec {
                pcs: 24,
                density: 0.25,
                key: PatternKey::PcDominant { variation: 0.08 },
                reuse: 0.45,
                reuse_pool: 3072,
                pages: 1 << 22,
                noise: 0.005,
                accesses_per_block: 2,
                ops_per_access: 46,
                store_fraction: 0.15,
                concurrency: 4,
                chained: true,
                shuffled: true,
                pc_base: 0x10_000,
            }),
        },
        // Index walks: serialized chases over a large index (~6% of
        // accesses).
        WeightedKernel {
            weight: 1,
            kernel: chase(1 << 16, 1, 60, 0x20_000),
        },
    ]
}

fn sat_solver() -> Vec<WeightedKernel> {
    vec![
        // Clause-database visits: irregular layouts, little cross-page
        // pattern sharing (high variation) -> low metadata redundancy.
        WeightedKernel {
            weight: 12,
            kernel: object(ObjectSpec {
                pcs: 40,
                density: 0.15,
                key: PatternKey::PcDominant { variation: 0.28 },
                reuse: 0.45,
                reuse_pool: 1536,
                pages: 1 << 19,
                noise: 0.02,
                accesses_per_block: 2,
                ops_per_access: 195,
                store_fraction: 0.05,
                concurrency: 4,
                chained: true,
                shuffled: true,
                pc_base: 0x10_000,
            }),
        },
        // Symbolic state exploration: pointer chasing, mostly cache-resident.
        WeightedKernel {
            weight: 2,
            kernel: chase(1 << 17, 1, 260, 0x20_000),
        },
    ]
}

fn streaming() -> Vec<WeightedKernel> {
    vec![
        // Media streaming: concurrently-served file scans, each a
        // serialized packetization chain over ~85%-dense 2 KB chunks (the
        // container format skips metadata blocks). Footprints capture the
        // dense-with-gaps pattern exactly; a single best offset cannot.
        WeightedKernel {
            weight: 12,
            kernel: object(ObjectSpec {
                pcs: 4,
                density: 0.85,
                key: PatternKey::PcDominant { variation: 0.02 },
                reuse: 0.30,
                reuse_pool: 1024,
                pages: 1 << 23,
                noise: 0.005,
                accesses_per_block: 1,
                ops_per_access: 140,
                store_fraction: 0.0,
                concurrency: 6,
                chained: true,
                shuffled: false,
                pc_base: 0x30_000,
            }),
        },
        // Connection metadata: small hot set, mostly hits.
        WeightedKernel {
            weight: 2,
            kernel: random(1 << 12, 4, 150, 0.25, 0x40_000),
        },
    ]
}

fn zeus() -> Vec<WeightedKernel> {
    vec![
        // Web-server buffer management: footprints keyed by the *page*
        // (temporal correlation), not by the code path -> spatial events
        // other than an exact revisit mispredict. Visits are NOT chained:
        // the OoO core already overlaps these misses, which is why the
        // paper sees little spatial-prefetching headroom on Zeus.
        WeightedKernel {
            weight: 10,
            kernel: object(ObjectSpec {
                pcs: 384,
                density: 0.22,
                key: PatternKey::PcDominant { variation: 0.40 },
                reuse: 0.70,
                reuse_pool: 2048,
                pages: 1 << 20,
                noise: 0.02,
                accesses_per_block: 1,
                ops_per_access: 85,
                store_fraction: 0.20,
                concurrency: 12,
                chained: false,
                shuffled: true,
                pc_base: 0x10_000,
            }),
        },
        // Dynamic-content generation: a few serialized request chains
        // with layout-stable templates -- the small latency-bound slice
        // where footprint prefetching visibly helps Zeus.
        WeightedKernel {
            weight: 4,
            kernel: object(ObjectSpec {
                pcs: 8,
                density: 0.25,
                key: PatternKey::PcDominant { variation: 0.20 },
                reuse: 0.45,
                reuse_pool: 1024,
                pages: 1 << 21,
                noise: 0.02,
                accesses_per_block: 1,
                ops_per_access: 85,
                store_fraction: 0.10,
                concurrency: 3,
                chained: true,
                shuffled: true,
                pc_base: 0x30_000,
            }),
        },
        // Independent parallel request processing.
        WeightedKernel {
            weight: 3,
            kernel: random(1 << 18, 1, 120, 0.10, 0x20_000),
        },
    ]
}

fn em3d() -> Vec<WeightedKernel> {
    vec![
        // Dense node scans over a huge graph with fixed node layout:
        // compulsory misses with near-perfect spatial correlation. Each
        // scan is a dependent chain (node -> neighbor lists), so only a
        // few chains' misses overlap: the baseline is heavily
        // latency-bound, which is exactly where spatial prefetching
        // shines (the paper's +285%).
        WeightedKernel {
            weight: 24,
            kernel: object(ObjectSpec {
                pcs: 6,
                density: 0.78,
                key: PatternKey::PcDominant { variation: 0.02 },
                reuse: 0.35,
                reuse_pool: 4096,
                pages: 1 << 23,
                noise: 0.005,
                accesses_per_block: 1,
                ops_per_access: 24,
                store_fraction: 0.10,
                concurrency: 4,
                chained: true,
                shuffled: false,
                pc_base: 0x10_000,
            }),
        },
        // Remote-node reads (15% remote in Table II): independent,
        // spatially unpredictable.
        WeightedKernel {
            weight: 1,
            kernel: random(1 << 21, 1, 30, 0.0, 0x20_000),
        },
    ]
}

// --- Adversarial stress profiles ------------------------------------------
//
// These do not model any real application; each is designed to put a
// specific kind of pressure on the prefetcher and the memory system's
// resource limits (prefetch queue, MSHRs, DRAM bandwidth). They are the
// workload side of the throttling experiments: traffic on which an
// unthrottled aggressive prefetcher actively *hurts*, so that graceful
// degradation is measurable rather than hypothetical.

fn stress_storm() -> Vec<WeightedKernel> {
    vec![
        // The storm: high-rate independent misses over a span far beyond
        // the LLC. Untrainable (one-block footprints never reach the
        // history), it exists purely to keep demand traffic saturating the
        // DRAM channel so every wasted prefetch transfer delays a demand.
        WeightedKernel {
            weight: 5,
            kernel: random(1 << 22, 8, 10, 0.10, 0x80_000),
        },
        // The bait: sparse footprints whose per-page shift (high variation)
        // defeats the short event's cross-page generalization, with almost
        // no exact revisits (low reuse) for the long event to rescue.
        // History hits stay frequent — few PCs, recurring trigger offsets —
        // so the prefetcher keeps firing bursts that are mostly wrong.
        WeightedKernel {
            weight: 4,
            kernel: object(ObjectSpec {
                pcs: 4,
                density: 0.25,
                key: PatternKey::PcDominant { variation: 0.90 },
                reuse: 0.05,
                reuse_pool: 256,
                pages: 1 << 22,
                noise: 0.25,
                accesses_per_block: 1,
                ops_per_access: 6,
                store_fraction: 0.0,
                concurrency: 8,
                chained: false,
                shuffled: true,
                pc_base: 0x81_000,
            }),
        },
    ]
}

fn stress_thrash() -> Vec<WeightedKernel> {
    // Three concurrent strided scans whose combined working set is several
    // times the LLC: lines (prefetched ones included) are evicted long
    // before reuse, so prefetch "coverage" decays into pure bandwidth and
    // queue pressure. Low op padding keeps the access rate high.
    vec![
        WeightedKernel {
            weight: 1,
            kernel: stream(1, 2, 1 << 18, 10, 0.25, false, 0x82_000),
        },
        WeightedKernel {
            weight: 1,
            kernel: stream(3, 2, 1 << 18, 10, 0.25, false, 0x83_000),
        },
        WeightedKernel {
            weight: 1,
            kernel: stream(7, 2, 1 << 18, 10, 0.25, false, 0x84_000),
        },
    ]
}

fn stress_chase() -> Vec<WeightedKernel> {
    vec![
        // Serialized chases over cold pages: latency-bound and spatially
        // unpredictable — the traffic that cannot be helped, only harmed.
        WeightedKernel {
            weight: 3,
            kernel: chase(1 << 22, 4, 20, 0x85_000),
        },
        // Page-keyed visits: the footprint is a property of the page, not
        // the code path, so every PC-keyed short event generalizes wrongly
        // (two random sparse patterns overlap ~density) and only exact
        // revisits — rare at this reuse — predict anything.
        WeightedKernel {
            weight: 5,
            kernel: object(ObjectSpec {
                pcs: 64,
                density: 0.25,
                key: PatternKey::PageOnly,
                reuse: 0.10,
                reuse_pool: 512,
                pages: 1 << 22,
                noise: 0.05,
                accesses_per_block: 1,
                ops_per_access: 8,
                store_fraction: 0.05,
                concurrency: 6,
                chained: false,
                shuffled: true,
                pc_base: 0x86_000,
            }),
        },
    ]
}

fn stress_flip() -> Vec<WeightedKernel> {
    // Both kernels deliberately share one PC base (same code paths, same
    // address space): the stable kernel trains clean, confident footprints
    // which the deviating kernel then violates, so the history table is
    // perpetually poisoned by its own recent successes.
    vec![
        WeightedKernel {
            weight: 2,
            kernel: object(ObjectSpec {
                pcs: 4,
                density: 0.25,
                key: PatternKey::PcDominant { variation: 0.02 },
                reuse: 0.30,
                reuse_pool: 512,
                pages: 1 << 22,
                noise: 0.02,
                accesses_per_block: 1,
                ops_per_access: 6,
                store_fraction: 0.05,
                concurrency: 6,
                chained: false,
                shuffled: false,
                pc_base: 0x87_000,
            }),
        },
        WeightedKernel {
            weight: 6,
            kernel: object(ObjectSpec {
                pcs: 4,
                density: 0.25,
                key: PatternKey::PcDominant { variation: 0.95 },
                reuse: 0.05,
                reuse_pool: 256,
                pages: 1 << 22,
                noise: 0.30,
                accesses_per_block: 1,
                ops_per_access: 6,
                store_fraction: 0.05,
                concurrency: 6,
                chained: false,
                shuffled: true,
                pc_base: 0x87_000,
            }),
        },
    ]
}

// --- SPEC CPU2006 program profiles ----------------------------------------

fn spec(prog: SpecProgram) -> Vec<WeightedKernel> {
    match prog {
        SpecProgram::Lbm => vec![
            // Lattice-Boltzmann stencil: several concurrent dense streams
            // with stores.
            WeightedKernel {
                weight: 2,
                kernel: stream(1, 1, 1 << 14, 42, 0.35, true, 0x50_000),
            },
            WeightedKernel {
                weight: 2,
                kernel: stream(1, 1, 1 << 14, 42, 0.25, true, 0x66_000),
            },
            WeightedKernel {
                weight: 2,
                kernel: stream(2, 1, 1 << 15, 42, 0.20, true, 0x51_000),
            },
            WeightedKernel {
                weight: 2,
                kernel: stream(1, 1, 1 << 14, 42, 0.20, true, 0x68_000),
            },
            WeightedKernel {
                weight: 2,
                kernel: stream(1, 1, 1 << 14, 42, 0.20, true, 0x69_000),
            },
        ],
        SpecProgram::Libquantum => vec![
            WeightedKernel {
                weight: 1,
                kernel: stream(1, 1, 1 << 14, 48, 0.15, true, 0x52_000),
            },
            WeightedKernel {
                weight: 1,
                kernel: stream(1, 1, 1 << 14, 48, 0.15, true, 0x63_000),
            },
            WeightedKernel {
                weight: 1,
                kernel: stream(1, 1, 1 << 14, 48, 0.15, true, 0x67_000),
            },
            WeightedKernel {
                weight: 1,
                kernel: stream(1, 1, 1 << 14, 48, 0.15, true, 0x6a_000),
            },
            WeightedKernel {
                weight: 1,
                kernel: stream(1, 1, 1 << 14, 48, 0.15, true, 0x6b_000),
            },
        ],
        SpecProgram::Omnetpp => vec![
            // Discrete event simulation: heap-allocated event objects,
            // pointer-heavy.
            WeightedKernel {
                weight: 1,
                kernel: chase(1 << 18, 1, 60, 0x53_000),
            },
            WeightedKernel {
                weight: 4,
                kernel: object(ObjectSpec {
                    pcs: 32,
                    density: 0.12,
                    key: PatternKey::PcDominant { variation: 0.12 },
                    reuse: 0.45,
                    reuse_pool: 2048,
                    pages: 1 << 20,
                    noise: 0.05,
                    accesses_per_block: 1,
                    ops_per_access: 60,
                    store_fraction: 0.20,
                    concurrency: 4,
                    chained: true,
                    shuffled: true,
                    pc_base: 0x54_000,
                }),
            },
        ],
        SpecProgram::Soplex => vec![
            // Sparse LP solver: strided column sweeps + irregular row picks.
            WeightedKernel {
                weight: 16,
                kernel: stream(3, 1, 49152, 52, 0.10, true, 0x55_000),
            },
            WeightedKernel {
                weight: 16,
                kernel: stream(3, 1, 49152, 52, 0.10, true, 0x71_000),
            },
            WeightedKernel {
                weight: 1,
                kernel: random(1 << 19, 4, 55, 0.10, 0x56_000),
            },
        ],
        SpecProgram::Sphinx3 => vec![
            // Speech decoding: acoustic-model object visits with good reuse.
            WeightedKernel {
                weight: 1,
                kernel: object(ObjectSpec {
                    pcs: 20,
                    density: 0.35,
                    key: PatternKey::PcDominant { variation: 0.15 },
                    reuse: 0.45,
                    reuse_pool: 2048,
                    pages: 1 << 21,
                    noise: 0.03,
                    accesses_per_block: 1,
                    ops_per_access: 55,
                    store_fraction: 0.05,
                    concurrency: 8,
                    chained: true,
                    shuffled: false,
                    pc_base: 0x57_000,
                }),
            },
        ],
        SpecProgram::Zeusmp => vec![
            WeightedKernel {
                weight: 1,
                kernel: stream(2, 1, 1 << 15, 85, 0.25, true, 0x58_000),
            },
            WeightedKernel {
                weight: 1,
                kernel: stream(2, 1, 1 << 15, 85, 0.25, true, 0x64_000),
            },
            WeightedKernel {
                weight: 1,
                kernel: stream(2, 1, 1 << 15, 85, 0.25, true, 0x6c_000),
            },
            WeightedKernel {
                weight: 1,
                kernel: stream(2, 1, 1 << 15, 85, 0.25, true, 0x6d_000),
            },
        ],
        SpecProgram::Milc => vec![
            WeightedKernel {
                weight: 1,
                kernel: stream(4, 1, 1 << 16, 55, 0.20, true, 0x59_000),
            },
            WeightedKernel {
                weight: 1,
                kernel: stream(4, 1, 1 << 16, 55, 0.20, true, 0x65_000),
            },
            WeightedKernel {
                weight: 1,
                kernel: stream(4, 1, 1 << 16, 55, 0.20, true, 0x6e_000),
            },
            WeightedKernel {
                weight: 1,
                kernel: stream(4, 1, 1 << 16, 55, 0.20, true, 0x6f_000),
            },
        ],
        SpecProgram::Perlbench => vec![
            // Interpreter: small hot working set, low MPKI.
            WeightedKernel {
                weight: 1,
                kernel: random(1 << 13, 16, 90, 0.20, 0x5a_000),
            },
            WeightedKernel {
                weight: 2,
                kernel: chase(1 << 17, 1, 110, 0x5b_000),
            },
        ],
        SpecProgram::Astar => vec![
            // Path-finding: grid-neighborhood objects + open-list chasing.
            WeightedKernel {
                weight: 1,
                kernel: chase(1 << 18, 1, 60, 0x5c_000),
            },
            WeightedKernel {
                weight: 4,
                kernel: object(ObjectSpec {
                    pcs: 12,
                    density: 0.20,
                    key: PatternKey::PcDominant { variation: 0.10 },
                    reuse: 0.20,
                    reuse_pool: 2048,
                    pages: 1 << 20,
                    noise: 0.04,
                    accesses_per_block: 1,
                    ops_per_access: 55,
                    store_fraction: 0.10,
                    concurrency: 4,
                    chained: true,
                    shuffled: true,
                    pc_base: 0x5d_000,
                }),
            },
        ],
        SpecProgram::Tonto => vec![
            // Quantum chemistry: blocked dense kernels, decent locality.
            WeightedKernel {
                weight: 4,
                kernel: object(ObjectSpec {
                    pcs: 10,
                    density: 0.40,
                    key: PatternKey::PcDominant { variation: 0.08 },
                    reuse: 0.55,
                    reuse_pool: 2048,
                    pages: 1 << 19,
                    noise: 0.02,
                    accesses_per_block: 2,
                    ops_per_access: 95,
                    store_fraction: 0.15,
                    concurrency: 8,
                    chained: true,
                    shuffled: false,
                    pc_base: 0x5e_000,
                }),
            },
            WeightedKernel {
                weight: 16,
                kernel: stream(1, 1, 1 << 14, 110, 0.10, true, 0x5f_000),
            },
        ],
        SpecProgram::GemsFdtd => vec![
            // FDTD solver: multiple strided field sweeps.
            WeightedKernel {
                weight: 16,
                kernel: stream(1, 1, 1 << 14, 55, 0.30, true, 0x60_000),
            },
            WeightedKernel {
                weight: 4,
                kernel: stream(8, 1, 1 << 17, 55, 0.15, true, 0x61_000),
            },
            WeightedKernel {
                weight: 8,
                kernel: stream(1, 1, 1 << 14, 55, 0.20, true, 0x70_000),
            },
        ],
        SpecProgram::Gromacs => vec![
            // Molecular dynamics: neighbor-list object visits, good reuse.
            WeightedKernel {
                weight: 1,
                kernel: object(ObjectSpec {
                    pcs: 14,
                    density: 0.30,
                    key: PatternKey::PcDominant { variation: 0.10 },
                    reuse: 0.50,
                    reuse_pool: 2048,
                    pages: 1 << 19,
                    noise: 0.03,
                    accesses_per_block: 1,
                    ops_per_access: 85,
                    store_fraction: 0.10,
                    concurrency: 8,
                    chained: true,
                    shuffled: false,
                    pc_base: 0x62_000,
                }),
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_workload_once() {
        assert_eq!(Workload::ALL.len(), 10);
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn stress_family_is_disjoint_and_uniquely_named() {
        assert_eq!(Workload::STRESS.len(), 4);
        let stress: Vec<&str> = Workload::STRESS.iter().map(|w| w.name()).collect();
        let mut unique = stress.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4);
        for w in Workload::ALL {
            assert!(
                !stress.contains(&w.name()),
                "{w} appears in both ALL and STRESS"
            );
        }
    }

    #[test]
    fn stress_sources_build_and_are_deterministic() {
        for w in Workload::STRESS {
            let s = w.sources(2, 9);
            assert_eq!(s.len(), 2, "{w}");
            let mut a = w.sources(1, 9);
            let mut b = w.sources(1, 9);
            for _ in 0..5000 {
                assert_eq!(a[0].next_instr(), b[0].next_instr(), "{w}");
            }
        }
    }

    #[test]
    fn paper_mpki_matches_table2() {
        assert_eq!(Workload::Em3d.paper_mpki(), 32.4);
        assert_eq!(Workload::SatSolver.paper_mpki(), 1.7);
        assert_eq!(Workload::Mix1.paper_mpki(), 15.7);
    }

    #[test]
    fn source_for_core_matches_sources_slot() {
        let whole = Workload::Mix3.sources(4, 42);
        for (core, from_sources) in whole.into_iter().enumerate() {
            let mut from_sources = from_sources;
            let mut slot = Workload::Mix3.source_for_core(core, 42);
            for _ in 0..2000 {
                assert_eq!(slot.next_instr(), from_sources.next_instr(), "core {core}");
            }
        }
    }

    #[test]
    fn sources_builds_one_per_core() {
        for w in Workload::ALL {
            let s = w.sources(4, 1);
            assert_eq!(s.len(), 4, "{w}");
        }
    }

    #[test]
    fn sources_are_deterministic() {
        let mut a = Workload::DataServing.sources(2, 7);
        let mut b = Workload::DataServing.sources(2, 7);
        for _ in 0..5000 {
            assert_eq!(a[0].next_instr(), b[0].next_instr());
            assert_eq!(a[1].next_instr(), b[1].next_instr());
        }
    }

    #[test]
    fn cores_have_disjoint_address_spaces() {
        use bingo_sim::{Instr, InstrSource};
        let mut s = Workload::Streaming.sources(2, 3);
        let collect_addrs = |src: &mut Box<dyn InstrSource>| {
            let mut addrs = Vec::new();
            for _ in 0..20_000 {
                match src.next_instr() {
                    Instr::Load { addr, .. } | Instr::Store { addr, .. } => addrs.push(addr.raw()),
                    Instr::Op => {}
                }
            }
            addrs
        };
        let (a, b) = {
            let a = collect_addrs(&mut s[0]);
            let b = collect_addrs(&mut s[1]);
            (a, b)
        };
        let max_a = a.iter().max().expect("core 0 issued memory accesses");
        let min_b = b.iter().min().expect("core 1 issued memory accesses");
        assert!(max_a < min_b, "core address spaces overlap");
    }

    #[test]
    fn mixes_assign_four_programs() {
        assert_eq!(Workload::Mix1.mix_programs().len(), 4);
        assert_eq!(Workload::Mix1.mix_programs()[0], SpecProgram::Lbm);
        assert!(Workload::Em3d.mix_programs().is_empty());
    }

    #[test]
    fn spec_profiles_all_construct() {
        for p in [
            SpecProgram::Lbm,
            SpecProgram::Omnetpp,
            SpecProgram::Soplex,
            SpecProgram::Sphinx3,
            SpecProgram::Libquantum,
            SpecProgram::Zeusmp,
            SpecProgram::Milc,
            SpecProgram::Perlbench,
            SpecProgram::Astar,
            SpecProgram::Tonto,
            SpecProgram::GemsFdtd,
            SpecProgram::Gromacs,
        ] {
            assert!(!spec(p).is_empty(), "{}", p.name());
        }
    }
}
