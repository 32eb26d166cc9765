//! Declarative multi-core workload mixes and the contention capacity
//! search.
//!
//! A *mix* gives each core of an N-core machine its own [`Slot`]: a
//! workload's stream, a prefetcher, and an instruction-budget scale.
//! Mixes live in committed config files with a deliberately tiny
//! line-oriented grammar (no dependencies, mirroring the trace-container
//! and checkpoint formats):
//!
//! ```text
//! # comment
//! mix polite-vs-storm
//! core 0 workload=streaming prefetcher=bingo
//! core 1 workload=stress-storm prefetcher=bingo scale=50%
//! ramp initial=2 increment=2 max=8
//! end
//! ```
//!
//! Each field appears at most once per line. A mix's declared cores and
//! its ramp's `max` must fit the machine ([`SystemConfig::validate`]: at
//! most 256 cores). Every malformed line is a [`MixError::Line`] carrying
//! its 1-based number — a torn or hand-mangled config aborts loudly,
//! never panics, and never half-loads.
//!
//! On top of the mix type sit the contention primitives the capacity
//! search is built from: shared-resource [`Pressure`] presets,
//! per-core [`FairnessReport`]s (min/max IPC ratio, slowdown versus a
//! solo run on the same machine), and the capacity-knee rule
//! ([`find_knee`]) that decides how many cores a mix scales to before
//! shared-resource contention eats the added throughput.

use std::fmt;
use std::io;
use std::path::Path;

use bingo_sim::{ConfigError, SimResult, SystemConfig};
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

/// A mix-config parse failure. A malformed line names its 1-based
/// number, so a bad committed config points straight at the offending
/// text.
#[derive(Debug)]
pub enum MixError {
    /// Underlying I/O failure reading the config file.
    Io(io::Error),
    /// A malformed line: an unknown directive or field, a missing, bad or
    /// repeated value, or a block that cannot close (no cores, a gap in
    /// the core ids, more cores than the machine holds, no `end`).
    Line {
        /// 1-based line number.
        line: usize,
        /// What is wrong with the line.
        reason: String,
    },
    /// The input contained no mix at all — an empty or fully-torn config
    /// is indistinguishable from a wrong path, so it is an error rather
    /// than an empty grid.
    NoMixes,
}

impl fmt::Display for MixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MixError::Io(e) => write!(f, "mix config i/o error: {e}"),
            MixError::Line { line, reason } => write!(f, "line {line}: {reason}"),
            MixError::NoMixes => write!(f, "config contains no mixes"),
        }
    }
}

impl std::error::Error for MixError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MixError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// A [`MixError::Line`] at `line`.
fn fail(line: usize, reason: impl fmt::Display) -> MixError {
    MixError::Line {
        line,
        reason: reason.to_string(),
    }
}

/// `bad <field> value "<value>"` at `line`.
fn bad(line: usize, field: &str, value: &str) -> MixError {
    fail(line, format_args!("bad {field} value {value:?}"))
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

/// A parsed workload mix: a name, one [`Slot`] per declared core, and an
/// optional capacity-search [`Ramp`].
#[derive(Debug, Clone)]
pub struct MixConfig {
    /// The mix's name (`[A-Za-z0-9_-]+`), used in report rows; runs are
    /// keyed by their slots, not by this name.
    pub name: String,
    /// One synthetic slot per declared core: `cores[i]` is core `i`, whose
    /// `stream_core` is `i`. [`RunSpec::mix`](crate::RunSpec::mix)
    /// replicates them cyclically on larger machines.
    pub cores: Vec<Slot>,
    /// Optional core-count ramp for the capacity search.
    pub ramp: Option<Ramp>,
}

impl MixConfig {
    /// The number of cores the mix declares.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Parses every mix in a config file. See the module docs for the
    /// grammar.
    ///
    /// # Errors
    ///
    /// [`MixError::Io`] if the file cannot be read; otherwise as
    /// [`MixConfig::parse_str`].
    pub fn parse_file(path: impl AsRef<Path>) -> Result<Vec<MixConfig>, MixError> {
        let text = std::fs::read_to_string(path).map_err(MixError::Io)?;
        Self::parse_str(&text)
    }

    /// Parses every mix in the given text. See the module docs for the
    /// grammar.
    ///
    /// # Errors
    ///
    /// [`MixError::Line`] for the first malformed line, or
    /// [`MixError::NoMixes`] if the text declares no mix.
    pub fn parse_str(text: &str) -> Result<Vec<MixConfig>, MixError> {
        let mut mixes: Vec<MixConfig> = Vec::new();
        let mut open: Option<OpenMix> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let mut tokens = raw.split('#').next().unwrap_or("").split_whitespace();
            let Some(directive) = tokens.next() else {
                continue;
            };
            let rest: Vec<&str> = tokens.collect();
            match (directive, open.as_mut()) {
                ("mix", Some(_)) => {
                    return Err(fail(line, "mix block opened before the previous one ended"))
                }
                ("mix", None) => {
                    let name = match rest[..] {
                        [name] => name,
                        [] => return Err(fail(line, "missing mix name")),
                        _ => return Err(bad(line, "mix name", &rest.join(" "))),
                    };
                    if !name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
                    {
                        return Err(bad(line, "mix name", name));
                    }
                    if mixes.iter().any(|m| m.name == name) {
                        return Err(fail(line, format_args!("duplicate mix name {name:?}")));
                    }
                    open = Some(OpenMix {
                        name: name.to_string(),
                        line,
                        cores: Vec::new(),
                        ramp: None,
                    });
                }
                ("core" | "ramp" | "end", None) => {
                    return Err(fail(
                        line,
                        format_args!("{directive:?} outside a mix block"),
                    ))
                }
                ("core", Some(block)) => block.core(line, &rest)?,
                ("ramp", Some(block)) => block.ramp(line, &rest)?,
                ("end", Some(_)) => mixes.push(open.take().expect("matched open").close(line)?),
                (other, _) => return Err(fail(line, format_args!("unknown directive {other:?}"))),
            }
        }
        if let Some(block) = open {
            return Err(fail(
                block.line,
                format_args!("mix {:?} never reached its end directive", block.name),
            ));
        }
        if mixes.is_empty() {
            return Err(MixError::NoMixes);
        }
        Ok(mixes)
    }
}

/// A `mix … end` block mid-parse, opened at `line`.
struct OpenMix {
    name: String,
    line: usize,
    cores: Vec<Slot>,
    ramp: Option<Ramp>,
}

impl OpenMix {
    /// Parses `core <id> workload=<slug> prefetcher=<slug> [scale=<pct>%]`
    /// into the slot of core `id`.
    fn core(&mut self, line: usize, rest: &[&str]) -> Result<(), MixError> {
        let (&id, fields) = rest
            .split_first()
            .ok_or_else(|| fail(line, "missing core id"))?;
        let stream_core: usize = id.parse().map_err(|_| bad(line, "core id", id))?;
        let [workload, prefetcher, scale] =
            read_fields(line, fields, ["workload", "prefetcher", "scale"])?;
        let workload = workload.ok_or_else(|| fail(line, "missing workload"))?;
        let workload = Workload::from_slug(workload)
            .ok_or_else(|| fail(line, format_args!("unknown workload {workload:?}")))?;
        let prefetcher = prefetcher.ok_or_else(|| fail(line, "missing prefetcher"))?;
        let prefetcher = PrefetcherKind::from_slug(prefetcher)
            .ok_or_else(|| fail(line, format_args!("unknown prefetcher {prefetcher:?}")))?;
        let budget_percent = match scale {
            None => 100,
            Some(value) => value
                .strip_suffix('%')
                .unwrap_or(value)
                .parse()
                .ok()
                .filter(|pct| (1..=100).contains(pct))
                .ok_or_else(|| bad(line, "scale", value))?,
        };
        if self.cores.iter().any(|s| s.stream_core == stream_core) {
            return Err(fail(
                line,
                format_args!("core {stream_core} assigned twice"),
            ));
        }
        self.cores.push(Slot {
            stream: Stream::Synthetic(workload),
            stream_core,
            prefetcher,
            budget_percent,
        });
        Ok(())
    }

    /// Parses the block's one `ramp initial=<n> increment=<n> max=<n>`.
    fn ramp(&mut self, line: usize, rest: &[&str]) -> Result<(), MixError> {
        if self.ramp.is_some() {
            return Err(bad(line, "ramp", "declared twice"));
        }
        let [initial, increment, max] = read_fields(line, rest, ["initial", "increment", "max"])?;
        let count = |field: &str, value: Option<&str>| {
            let value = value.ok_or_else(|| fail(line, format_args!("missing {field}")))?;
            value
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| bad(line, "ramp", value))
        };
        let ramp = Ramp {
            initial: count("initial", initial)?,
            increment: count("increment", increment)?,
            max: count("max", max)?,
        };
        if ramp.max < ramp.initial {
            return Err(bad(line, "max", &ramp.max.to_string()));
        }
        machine_holds(ramp.max).map_err(|e| fail(line, format_args!("ramp max: {e}")))?;
        self.ramp = Some(ramp);
        Ok(())
    }

    /// Closes the block at its `end` line: at least one core, ids
    /// contiguous from 0, and no more than the machine holds.
    fn close(self, line: usize) -> Result<MixConfig, MixError> {
        let OpenMix {
            name,
            mut cores,
            ramp,
            ..
        } = self;
        if cores.is_empty() {
            return Err(fail(line, format_args!("mix {name:?} declares zero cores")));
        }
        cores.sort_by_key(|s| s.stream_core);
        if let Some(gap) = (0..cores.len()).find(|&i| cores[i].stream_core != i) {
            return Err(fail(
                line,
                format_args!("core {gap} has no assignment (ids must be contiguous from 0)"),
            ));
        }
        machine_holds(cores.len()).map_err(|e| fail(line, format_args!("mix {name:?}: {e}")))?;
        Ok(MixConfig { name, cores, ramp })
    }
}

/// Whether the paper machine with `cores` cores validates: the bound a
/// mix's declared cores and its ramp must stay within.
fn machine_holds(cores: usize) -> Result<(), ConfigError> {
    SystemConfig::paper().with_cores(cores).validate()
}

/// Reads the `key=value` tokens of one line: the value of each of `keys`,
/// in `keys` order, `None` where absent. A token without `=`, a key not in
/// `keys` and a key given twice each fail at `line`.
fn read_fields<'a, const N: usize>(
    line: usize,
    tokens: &[&'a str],
    keys: [&str; N],
) -> Result<[Option<&'a str>; N], MixError> {
    let mut values = [None; N];
    for &token in tokens {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| bad(line, "field", token))?;
        let i = keys
            .iter()
            .position(|&k| k == key)
            .ok_or_else(|| fail(line, format_args!("unknown field {key:?}")))?;
        if values[i].replace(value).is_some() {
            return Err(fail(line, format_args!("repeated field {key:?}")));
        }
    }
    Ok(values)
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

    const GOOD: &str = "\
# two committed mixes
mix polite-vs-storm
core 0 workload=streaming prefetcher=bingo
core 1 workload=stress-storm prefetcher=bingo scale=50%
ramp initial=2 increment=2 max=6
end

mix solo-baseline # trailing comment
core 0 workload=data-serving prefetcher=none
end
";

    #[test]
    fn parses_a_two_mix_file() {
        let mixes = MixConfig::parse_str(GOOD).unwrap();
        assert_eq!(mixes.len(), 2);
        let m = &mixes[0];
        assert_eq!(m.name, "polite-vs-storm");
        assert_eq!(m.core_count(), 2);
        assert!(matches!(
            m.cores[0].stream,
            Stream::Synthetic(Workload::Streaming)
        ));
        assert_eq!(m.cores[0].prefetcher, PrefetcherKind::bingo());
        assert_eq!(m.cores[0].budget_percent, 100);
        assert!(matches!(
            m.cores[1].stream,
            Stream::Synthetic(Workload::StressStorm)
        ));
        assert_eq!(m.cores[1].budget_percent, 50);
        assert_eq!(m.cores[1].stream_core, 1);
        assert_eq!(
            m.ramp,
            Some(Ramp {
                initial: 2,
                increment: 2,
                max: 6
            })
        );
        assert_eq!(mixes[1].name, "solo-baseline");
        assert_eq!(mixes[1].cores[0].prefetcher, PrefetcherKind::None);
        assert_eq!(mixes[1].ramp, None);
    }

    #[test]
    fn assignment_replicates_cyclically() {
        let m = &MixConfig::parse_str(GOOD).unwrap()[0];
        let spec = RunSpec::mix(RunScale::quick(), m, 6, Pressure::NONE);
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

    // Error paths have a dedicated integration suite
    // (crates/bench/tests/mix_parser.rs); these two lock the torn-file
    // and empty-file behavior at the unit level.
    #[test]
    fn torn_file_names_the_open_mix() {
        let torn = "mix half\ncore 0 workload=zeus prefetcher=bingo\n";
        match MixConfig::parse_str(torn) {
            Err(MixError::Line { line: 1, reason }) => {
                assert_eq!(reason, "mix \"half\" never reached its end directive")
            }
            other => panic!("expected an error at line 1, got {other:?}"),
        }
    }

    #[test]
    fn empty_input_is_an_error_not_an_empty_grid() {
        assert!(matches!(
            MixConfig::parse_str("# only a comment\n"),
            Err(MixError::NoMixes)
        ));
    }
}
