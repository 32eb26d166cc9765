//! Declared multi-core workload mixes and the contention capacity
//! search.
//!
//! A *mix* gives each core of an N-core machine its own [`Slot`]: a
//! workload's stream, a prefetcher, and an instruction-budget scale.
//! The mixes the figures run are declared here in code:
//! [`contention_mixes`] is `fig_multicore`'s grid and [`polite_vs_storm`]
//! is `fig_qos`'s cell.
//!
//! On top of the mix type sit the contention primitives the capacity
//! search is built from: shared-resource [`Pressure`] presets,
//! per-core [`FairnessReport`]s (min/max IPC ratio, slowdown versus a
//! solo run on the same machine), and the capacity-knee rule
//! ([`find_knee`]) that decides how many cores a mix scales to before
//! shared-resource contention eats the added throughput.

use bingo_sim::{SimResult, SystemConfig};
use bingo_workloads::Workload;

use crate::runner::{PrefetcherKind, Slot, Stream};

/// One level of memory-system resource pressure applied on top of a
/// [`SystemConfig`]: DRAM channel count, per-transfer occupancy, and the
/// prefetch-queue bound. The paper machine itself is the `NONE` preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pressure {
    /// Short name used in report rows (not part of any checkpoint key:
    /// runs are keyed by the values below).
    pub name: &'static str,
    /// DRAM channels (the paper machine has 2).
    pub channels: usize,
    /// Channel occupancy per 64 B transfer (the paper machine: 14 cycles).
    pub transfer_cycles: u64,
    /// Prefetch-queue bound; `None` leaves the queue unbounded (paper
    /// machine).
    pub queue: Option<usize>,
}

impl Pressure {
    /// The unmodified paper machine: 2 channels, 14-cycle transfers,
    /// unbounded prefetch queue.
    pub const NONE: Pressure = Pressure {
        name: "none",
        channels: 2,
        transfer_cycles: 14,
        queue: None,
    };

    /// Half the paper's DRAM bandwidth with a bounded prefetch queue.
    pub const CONSTRAINED: Pressure = Pressure {
        name: "constrained",
        channels: 1,
        transfer_cycles: 28,
        queue: Some(16),
    };

    /// Roughly a quarter of the paper's bandwidth; the queue bound
    /// tightens alongside so both drop paths (bandwidth contention and
    /// queue-full) carry load.
    pub const SCARCE: Pressure = Pressure {
        name: "scarce",
        channels: 1,
        transfer_cycles: 56,
        queue: Some(8),
    };

    /// The capacity-search ladder, mildest first.
    pub const LADDER: [Pressure; 3] = [Pressure::NONE, Pressure::CONSTRAINED, Pressure::SCARCE];

    /// Applies this pressure level to a machine configuration. The `NONE`
    /// preset restates the paper defaults, so applying it to a paper
    /// config is a no-op.
    pub fn apply(&self, cfg: &mut SystemConfig) {
        cfg.dram.channels = self.channels;
        cfg.dram.transfer_cycles = self.transfer_cycles;
        cfg.prefetch_queue_depth = self.queue;
    }
}

/// A core-count ramp for the capacity search: run the mix at `initial`,
/// `initial + increment`, … cores, stopping at `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ramp {
    /// First core count evaluated (≥ 1).
    pub initial: usize,
    /// Cores added per step (≥ 1).
    pub increment: usize,
    /// Largest core count evaluated (≥ `initial`, and a core count
    /// [`SystemConfig::validate`] accepts).
    pub max: usize,
}

impl Ramp {
    /// The core counts the search visits, ascending. `initial` is always
    /// included; counts past `max` are not.
    pub fn steps(&self) -> Vec<usize> {
        let mut steps = Vec::new();
        let mut n = self.initial;
        while n <= self.max {
            steps.push(n);
            n += self.increment;
        }
        steps
    }
}

/// A workload mix: a name, one [`Slot`] per declared core, and an
/// optional capacity-search [`Ramp`].
#[derive(Debug, Clone)]
pub struct MixConfig {
    /// The mix's name, used in report rows; runs are keyed by their
    /// slots, not by this name.
    pub name: String,
    /// One synthetic slot per declared core: `cores[i]` is core `i`, whose
    /// `stream_core` is `i`. [`RunSpec::mix`](crate::RunSpec::mix)
    /// replicates them cyclically on larger machines.
    pub cores: Vec<Slot>,
    /// Optional core-count ramp for the capacity search.
    pub ramp: Option<Ramp>,
}

impl MixConfig {
    /// A mix whose core `i` runs `cores[i]`: a workload's synthetic
    /// stream behind a prefetcher, committing the given percentage of the
    /// per-core instruction budget.
    pub fn new(name: &str, cores: &[(Workload, PrefetcherKind, u32)], ramp: Option<Ramp>) -> Self {
        let cores = cores
            .iter()
            .enumerate()
            .map(
                |(stream_core, &(workload, prefetcher, budget_percent))| Slot {
                    stream: Stream::Synthetic(workload),
                    stream_core,
                    prefetcher,
                    budget_percent,
                },
            )
            .collect();
        MixConfig {
            name: name.to_string(),
            cores,
            ramp,
        }
    }

    /// The number of cores the mix declares.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }
}

/// A polite streamer next to a prefetcher-hostile storm, both behind
/// Bingo, ramped from 2 to 8 cores: the cell the throttle-starvation
/// experiment (`fig_qos`) interrogates. The chip-wide feedback throttle
/// is triggered by the storm core's wasted prefetches, and the question
/// is how much of the polite core's prefetch benefit it takes.
pub fn polite_vs_storm() -> MixConfig {
    let bingo = PrefetcherKind::bingo();
    MixConfig::new(
        "polite-vs-storm",
        &[
            (Workload::Streaming, bingo, 100),
            (Workload::StressStorm, bingo, 100),
        ],
        Some(Ramp {
            initial: 2,
            increment: 2,
            max: 8,
        }),
    )
}

/// The mixes of `fig_multicore`'s capacity search, in report order:
/// [`polite_vs_storm`]; `server-quad`, the paper's four server
/// applications side by side with one Bingo each (the closest thing to
/// the paper's own 4-core evaluation), ramped from 4 to 8 cores; and the
/// unramped `rival-duo`, Bingo next to a BOP core that commits 75 % of
/// the budget (a mixed prefetcher fleet on the shared LLC).
pub fn contention_mixes() -> [MixConfig; 3] {
    let bingo = PrefetcherKind::bingo();
    [
        polite_vs_storm(),
        MixConfig::new(
            "server-quad",
            &[
                (Workload::DataServing, bingo, 100),
                (Workload::SatSolver, bingo, 100),
                (Workload::Em3d, bingo, 100),
                (Workload::Zeus, bingo, 100),
            ],
            Some(Ramp {
                initial: 4,
                increment: 2,
                max: 8,
            }),
        ),
        MixConfig::new(
            "rival-duo",
            &[
                (Workload::Em3d, bingo, 100),
                (Workload::Streaming, PrefetcherKind::Bop, 75),
            ],
            None,
        ),
    ]
}

/// Per-core fairness of one mix run: who got what share of the machine.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessReport {
    /// Committed IPC of each core in the mix run.
    pub core_ipcs: Vec<f64>,
    /// Sum of the per-core IPCs — the machine's aggregate throughput.
    pub aggregate_ipc: f64,
    /// `min(core IPC) / max(core IPC)`; 1.0 is perfectly fair, small
    /// values mean some core is starved.
    pub min_max_ipc_ratio: f64,
    /// Per-core slowdown versus its solo run (`solo IPC / mix IPC`, same
    /// shared resources, machine to itself); ≥ 1.0 means contention cost.
    pub slowdowns: Vec<f64>,
}

impl FairnessReport {
    /// Computes the fairness of a mix run given each core's solo result
    /// (the identical instruction stream alone on a 1-core machine with
    /// the same shared resources). `solos[i]` pairs with mix core `i`.
    ///
    /// # Panics
    ///
    /// Panics if the solo count does not match the mix's core count.
    pub fn compute(mix: &SimResult, solos: &[SimResult]) -> FairnessReport {
        let core_ipcs = mix.core_ipcs();
        assert_eq!(solos.len(), core_ipcs.len(), "one solo run per mix core");
        let slowdowns = core_ipcs
            .iter()
            .zip(solos)
            .map(|(&mix_ipc, solo)| {
                let solo_ipc = solo.core_ipcs().iter().sum::<f64>();
                if mix_ipc == 0.0 {
                    f64::INFINITY
                } else {
                    solo_ipc / mix_ipc
                }
            })
            .collect();
        FairnessReport {
            aggregate_ipc: core_ipcs.iter().sum(),
            min_max_ipc_ratio: mix.min_max_ipc_ratio(),
            core_ipcs,
            slowdowns,
        }
    }

    /// The worst per-core slowdown — the most-starved core's cost.
    pub fn max_slowdown(&self) -> f64 {
        self.slowdowns.iter().cloned().fold(1.0_f64, f64::max)
    }
}

/// Marginal-throughput floor of the capacity-knee rule: a ramp step
/// "still scales" while each added core contributes at least this
/// fraction of the first step's per-core IPC.
pub const KNEE_FRACTION: f64 = 0.5;

/// Finds the capacity knee of a ramp: `points` is `(cores,
/// aggregate IPC)` ascending in cores, and the knee is the last core
/// count reached before a step whose *marginal* IPC per added core falls
/// below [`KNEE_FRACTION`] of the first point's per-core IPC. If every
/// step keeps scaling, the knee is the largest count measured.
///
/// # Panics
///
/// Panics on an empty or unsorted ramp.
pub fn find_knee(points: &[(usize, f64)]) -> usize {
    assert!(!points.is_empty(), "capacity search measured no points");
    let (first_cores, first_ipc) = points[0];
    assert!(first_cores > 0, "a ramp starts at one core or more");
    let base_per_core = first_ipc / first_cores as f64;
    let mut knee = first_cores;
    for pair in points.windows(2) {
        let (prev_cores, prev_ipc) = pair[0];
        let (cores, ipc) = pair[1];
        assert!(cores > prev_cores, "ramp points must ascend");
        let marginal = (ipc - prev_ipc) / (cores - prev_cores) as f64;
        if marginal < KNEE_FRACTION * base_per_core {
            return knee;
        }
        knee = cores;
    }
    knee
}

/// One measured step of a capacity search, ready for the JSON report.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityCell {
    /// Core count of this step.
    pub cores: usize,
    /// Fairness of the mix run at this step.
    pub fairness: FairnessReport,
}

/// The capacity search of one (mix, pressure) pair: every ramp step's
/// fairness plus the knee the steps imply.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacitySearch {
    /// The mix's name.
    pub mix: String,
    /// The pressure level's name.
    pub pressure: &'static str,
    /// Every measured ramp step, ascending in cores.
    pub steps: Vec<CapacityCell>,
    /// The capacity knee per [`find_knee`].
    pub knee: usize,
}

impl CapacitySearch {
    /// Builds the search summary from measured steps, computing the knee.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty or not ascending in cores.
    pub fn from_steps(mix: &str, pressure: &'static str, steps: Vec<CapacityCell>) -> Self {
        let points: Vec<(usize, f64)> = steps
            .iter()
            .map(|s| (s.cores, s.fairness.aggregate_ipc))
            .collect();
        let knee = find_knee(&points);
        CapacitySearch {
            mix: mix.to_string(),
            pressure,
            steps,
            knee,
        }
    }

    /// One JSON object describing the search — hand-rolled like every
    /// other export in this repo, floats in plain decimal (this artifact
    /// is for humans and CI plots, not bit-exact resume).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"mix\":\"{}\",\"pressure\":\"{}\",\"knee\":{},\"steps\":[",
            self.mix, self.pressure, self.knee
        ));
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"cores\":{},\"aggregate_ipc\":{:.6},\"min_max_ipc_ratio\":{:.6},\"max_slowdown\":{:.6},\"core_ipcs\":[{}],\"slowdowns\":[{}]}}",
                step.cores,
                step.fairness.aggregate_ipc,
                step.fairness.min_max_ipc_ratio,
                step.fairness.max_slowdown(),
                join_f64(&step.fairness.core_ipcs),
                join_f64(&step.fairness.slowdowns),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Formats a float slice as comma-separated JSON numbers.
fn join_f64(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.6}"))
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunScale, RunSpec};

    /// The checks a mix must pass to run: core ids contiguous from 0, a
    /// ramp whose every step is a machine [`SystemConfig::validate`]
    /// accepts, and a name no other mix has.
    #[test]
    fn declared_mixes_fit_the_machine_and_have_unique_names() {
        let mixes = contention_mixes();
        for (i, mix) in mixes.iter().enumerate() {
            let ids: Vec<usize> = mix.cores.iter().map(|s| s.stream_core).collect();
            assert_eq!(
                ids,
                (0..mix.core_count()).collect::<Vec<_>>(),
                "{}",
                mix.name
            );
            let steps = match mix.ramp {
                Some(r) => {
                    assert!(r.initial >= 1 && r.increment >= 1, "{}: {r:?}", mix.name);
                    assert!(r.max >= r.initial, "{}: {r:?}", mix.name);
                    r.steps()
                }
                None => vec![mix.core_count()],
            };
            for cores in steps {
                SystemConfig::paper()
                    .with_cores(cores)
                    .validate()
                    .unwrap_or_else(|e| panic!("{} at {cores} cores: {e}", mix.name));
            }
            assert!(
                mixes[..i].iter().all(|m| m.name != mix.name),
                "duplicate mix name {:?}",
                mix.name
            );
        }
    }

    #[test]
    fn assignment_replicates_cyclically() {
        let [_, _, m] = contention_mixes();
        let spec = RunSpec::mix(RunScale::quick(), &m, 6, Pressure::NONE);
        for (i, slot) in spec.slots.iter().enumerate() {
            let declared = &m.cores[i % 2];
            assert_eq!(slot.stream_core, i, "each core keeps its own stream");
            assert_eq!(slot.stream.name(), declared.stream.name());
            assert_eq!(slot.prefetcher, declared.prefetcher);
            assert_eq!(slot.budget_percent, declared.budget_percent);
        }
    }

    #[test]
    fn ramp_steps_stop_at_max() {
        let r = Ramp {
            initial: 2,
            increment: 2,
            max: 7,
        };
        assert_eq!(r.steps(), vec![2, 4, 6]);
        let r1 = Ramp {
            initial: 1,
            increment: 3,
            max: 1,
        };
        assert_eq!(r1.steps(), vec![1]);
    }

    #[test]
    fn knee_is_last_point_that_still_scales() {
        // Perfect scaling: knee at the largest measured count.
        assert_eq!(find_knee(&[(1, 1.0), (2, 2.0), (4, 4.0)]), 4);
        // Collapse at 4 cores: the 2→4 step adds 0.1 IPC over 2 cores,
        // far below half the 1.0 base per-core IPC.
        assert_eq!(find_knee(&[(1, 1.0), (2, 1.9), (4, 2.0)]), 2);
        // Single point: the knee is that point.
        assert_eq!(find_knee(&[(2, 1.4)]), 2);
    }

    #[test]
    fn pressure_none_is_the_paper_machine() {
        let mut cfg = SystemConfig::paper();
        let reference = SystemConfig::paper();
        Pressure::NONE.apply(&mut cfg);
        assert_eq!(cfg.dram.channels, reference.dram.channels);
        assert_eq!(cfg.dram.transfer_cycles, reference.dram.transfer_cycles);
        assert_eq!(cfg.prefetch_queue_depth, reference.prefetch_queue_depth);
    }
}
