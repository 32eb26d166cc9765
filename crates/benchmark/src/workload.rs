//! The benchmark's four workloads: which cells each runs, on which
//! machine, and how many passes a run makes.

use bingo::{Bingo, BingoConfig};
use bingo_baselines::{Ampm, AmpmConfig, Bop, BopConfig, Sms, SmsConfig, Spp, SppConfig};
use bingo_baselines::{Vldp, VldpConfig};
use bingo_sim::{NoPrefetcher, Prefetcher, SystemConfig, ThrottleMode};
use bingo_workloads::Workload as App;

/// Simulation scale of every cell, and the length of the memory replay.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Warm-up instructions per core; statistics are reset after them.
    pub warmup: u64,
    /// Measured instructions per core.
    pub instructions: u64,
    /// Demand accesses the traced run replays through a bare memory system.
    pub replay_accesses: usize,
}

impl Scale {
    /// The paper machine at full scale, as in EXPERIMENTS.md. The command
    /// line always runs this scale; tests pass a smaller one through the
    /// library.
    pub const FULL: Scale = Scale {
        warmup: 1_500_000,
        instructions: 1_000_000,
        replay_accesses: 1 << 20,
    };

    /// Instructions one core fetches from its source over a cell.
    pub fn per_core(self) -> u64 {
        self.warmup + self.instructions
    }
}

/// One of the benchmark's workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BenchWorkload {
    /// The four server applications under every prefetcher.
    ServerGrid,
    /// em3d under every prefetcher.
    Em3dGrid,
    /// A polite streamer beside a prefetch storm, under DRAM pressure.
    Contention4Core,
    /// Data Serving captured to `.btrc` and replayed.
    TraceReplay,
}

impl BenchWorkload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [BenchWorkload; 4] = [
        BenchWorkload::ServerGrid,
        BenchWorkload::Em3dGrid,
        BenchWorkload::Contention4Core,
        BenchWorkload::TraceReplay,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            BenchWorkload::ServerGrid => "server-grid",
            BenchWorkload::Em3dGrid => "em3d-grid",
            BenchWorkload::Contention4Core => "contention-4core",
            BenchWorkload::TraceReplay => "trace-replay",
        }
    }

    /// Parses a [`BenchWorkload::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark: the layer it loads and the
    /// layers it bypasses.
    pub fn why(self) -> &'static str {
        match self {
            BenchWorkload::ServerGrid => {
                "4 server apps x 7 prefetchers, 8 passes; LLC MPKI 2-7, so generators, core model and run loop dominate: the bypass case for prefetcher and memory work"
            }
            BenchWorkload::Em3dGrid => {
                "em3d x 7 prefetchers, 6 passes; LLC MPKI 31, so prefetcher training, LLC, MSHRs, fill queue and DRAM dominate"
            }
            BenchWorkload::Contention4Core => {
                "streaming+storm on 4 cores with Bingo, 1 DRAM channel, throttle off/percore, 16 passes; only load on shared-LLC, queue drops and watchdog"
            }
            BenchWorkload::TraceReplay => {
                "Data Serving captured to .btrc every pass and replayed x None/SMS/Bingo, 18 passes; trace decode replaces the generators"
            }
        }
    }

    /// Passes a run makes, about 20 s on the reference host (the
    /// `run_seconds` of `BENCHMARK.json`); each pass runs every cell once.
    /// Fixed here so both sides of a comparison run the same number,
    /// whatever their speed.
    pub fn passes(self) -> usize {
        match self {
            BenchWorkload::ServerGrid => 8,
            BenchWorkload::Em3dGrid => 6,
            BenchWorkload::Contention4Core => 16,
            BenchWorkload::TraceReplay => 18,
        }
    }

    /// The simulated machine every cell of the workload runs on.
    pub fn machine(self) -> SystemConfig {
        let mut cfg = SystemConfig::paper();
        if self == BenchWorkload::Contention4Core {
            // The `constrained` pressure preset of the multi-core grid,
            // restated so that changes to that harness cannot change
            // what this benchmark measures.
            cfg.dram.channels = 1;
            cfg.dram.transfer_cycles = 28;
            cfg.prefetch_queue_depth = Some(16);
        }
        cfg
    }

    /// The cells of one pass, in run order.
    pub fn cells(self) -> Vec<Cell> {
        let grid = |apps: &[App]| {
            apps.iter()
                .flat_map(|&app| {
                    Kind::ALL.into_iter().map(move |kind| Cell {
                        label: format!("{}/{}", app.slug(), kind.slug()),
                        slots: Slots::Live([app; 4]),
                        prefetcher: kind,
                        throttle: ThrottleMode::Off,
                    })
                })
                .collect()
        };
        match self {
            BenchWorkload::ServerGrid => {
                grid(&[App::DataServing, App::SatSolver, App::Streaming, App::Zeus])
            }
            BenchWorkload::Em3dGrid => grid(&[App::Em3d]),
            BenchWorkload::Contention4Core => [ThrottleMode::Off, ThrottleMode::Percore]
                .into_iter()
                .map(|throttle| Cell {
                    label: format!("polite-vs-storm/bingo/{throttle}"),
                    slots: Slots::Live(POLITE_VS_STORM),
                    prefetcher: Kind::Bingo,
                    throttle,
                })
                .collect(),
            BenchWorkload::TraceReplay => [Kind::None, Kind::Sms, Kind::Bingo]
                .into_iter()
                .map(|kind| Cell {
                    label: format!("{}-replay/{}", REPLAYED.slug(), kind.slug()),
                    slots: Slots::Replay,
                    prefetcher: kind,
                    throttle: ThrottleMode::Off,
                })
                .collect(),
        }
    }
}

/// The `polite-vs-storm` mix replicated to four cores.
const POLITE_VS_STORM: [App; 4] = [
    App::Streaming,
    App::StressStorm,
    App::Streaming,
    App::StressStorm,
];

/// The application `trace-replay` captures.
pub const REPLAYED: App = App::DataServing;

/// One simulation: a machine load, a prefetcher on every core, a throttle.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Unique, space-free name within its workload (`zeus/bingo`).
    pub label: String,
    /// What each core runs.
    pub slots: Slots,
    /// The prefetcher every core gets.
    pub prefetcher: Kind,
    /// The throttle mode.
    pub throttle: ThrottleMode,
}

/// Where a cell's per-core instruction streams come from.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Slots {
    /// Live generators; core `i` runs `apps[i]` in slot `i`.
    Live([App; 4]),
    /// The pass's capture of [`REPLAYED`], one trace file per core.
    Replay,
}

/// A prefetcher in its paper configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// No prefetcher.
    None,
    /// Best-Offset.
    Bop,
    /// Signature Path.
    Spp,
    /// Variable-Length Delta.
    Vldp,
    /// Access Map Pattern Matching.
    Ampm,
    /// Spatial Memory Streaming.
    Sms,
    /// Bingo.
    Bingo,
}

impl Kind {
    /// The paper's headline comparison plus the baseline, figure order.
    pub const ALL: [Kind; 7] = [
        Kind::None,
        Kind::Bop,
        Kind::Spp,
        Kind::Vldp,
        Kind::Ampm,
        Kind::Sms,
        Kind::Bingo,
    ];

    /// Lower-case name used in cell labels and layer reports.
    pub fn slug(self) -> &'static str {
        match self {
            Kind::None => "none",
            Kind::Bop => "bop",
            Kind::Spp => "spp",
            Kind::Vldp => "vldp",
            Kind::Ampm => "ampm",
            Kind::Sms => "sms",
            Kind::Bingo => "bingo",
        }
    }

    /// Builds one instance.
    pub fn build(self) -> Box<dyn Prefetcher> {
        match self {
            Kind::None => Box::new(NoPrefetcher),
            Kind::Bop => Box::new(Bop::new(BopConfig::paper())),
            Kind::Spp => Box::new(Spp::new(SppConfig::paper())),
            Kind::Vldp => Box::new(Vldp::new(VldpConfig::paper())),
            Kind::Ampm => Box::new(Ampm::new(AmpmConfig::paper())),
            Kind::Sms => Box::new(Sms::new(SmsConfig::paper())),
            Kind::Bingo => Box::new(Bingo::new(BingoConfig::paper())),
        }
    }
}
