//! Declarative multi-core workload mixes and the contention capacity
//! search.
//!
//! A *mix* assigns each core of an N-core machine its own workload,
//! prefetcher, and instruction-budget scale. Mixes live in committed
//! config files with a deliberately tiny line-oriented grammar (no
//! dependencies, mirroring the trace-container and checkpoint formats):
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
//! Every parse failure is a typed [`MixError`] carrying the 1-based line
//! number — a torn or hand-mangled config aborts loudly, never panics,
//! and never half-loads.
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

use bingo_sim::{SimResult, SystemConfig};
use bingo_workloads::Workload;

use crate::runner::PrefetcherKind;

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

/// A mix-config parse failure. Every variant names the 1-based line it
/// was detected on, so a bad committed config points straight at the
/// offending text.
#[derive(Debug)]
pub enum MixError {
    /// Underlying I/O failure reading the config file.
    Io(io::Error),
    /// A line started with a word that is not a directive.
    UnknownDirective {
        /// 1-based line number.
        line: usize,
        /// The unrecognized first word.
        directive: String,
    },
    /// `core`, `ramp`, or `end` appeared outside a `mix … end` block.
    OutsideMix {
        /// 1-based line number.
        line: usize,
        /// The directive that appeared too early.
        directive: String,
    },
    /// A `mix` directive opened while the previous block was still open.
    NestedMix {
        /// 1-based line number.
        line: usize,
    },
    /// A directive was missing a required token or `key=value` field.
    MissingField {
        /// 1-based line number.
        line: usize,
        /// The field that was absent.
        field: &'static str,
    },
    /// A field's value failed to parse or was out of range.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// The field whose value is bad.
        field: &'static str,
        /// The offending text.
        value: String,
    },
    /// A `core` or `ramp` field name is not recognized.
    UnknownField {
        /// 1-based line number.
        line: usize,
        /// The unrecognized field name.
        field: String,
    },
    /// Two mixes in one file share a name.
    DuplicateMixName {
        /// 1-based line number of the second definition.
        line: usize,
        /// The repeated name.
        name: String,
    },
    /// The same core id was assigned twice in one mix.
    DuplicateCore {
        /// 1-based line number of the second assignment.
        line: usize,
        /// The repeated core id.
        core: usize,
    },
    /// Core ids are not contiguous from 0 (a slot has no assignment).
    MissingCore {
        /// 1-based line number of the `end` directive.
        line: usize,
        /// The first unassigned core id.
        core: usize,
    },
    /// `workload=` named something [`Workload::from_slug`] rejects.
    UnknownWorkload {
        /// 1-based line number.
        line: usize,
        /// The unrecognized workload slug.
        name: String,
    },
    /// `prefetcher=` named something [`PrefetcherKind::from_slug`]
    /// rejects.
    UnknownPrefetcher {
        /// 1-based line number.
        line: usize,
        /// The unrecognized prefetcher slug.
        name: String,
    },
    /// A mix block closed without a single `core` line.
    ZeroCores {
        /// 1-based line number of the `end` directive.
        line: usize,
        /// The empty mix's name.
        name: String,
    },
    /// The input ended inside a `mix … end` block (a torn file).
    UnterminatedMix {
        /// 1-based line number of the `mix` directive left open.
        line: usize,
        /// The unterminated mix's name.
        name: String,
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
            MixError::UnknownDirective { line, directive } => {
                write!(f, "line {line}: unknown directive {directive:?}")
            }
            MixError::OutsideMix { line, directive } => {
                write!(f, "line {line}: {directive:?} outside a mix block")
            }
            MixError::NestedMix { line } => {
                write!(
                    f,
                    "line {line}: mix block opened before the previous one ended"
                )
            }
            MixError::MissingField { line, field } => {
                write!(f, "line {line}: missing {field}")
            }
            MixError::BadValue { line, field, value } => {
                write!(f, "line {line}: bad {field} value {value:?}")
            }
            MixError::UnknownField { line, field } => {
                write!(f, "line {line}: unknown field {field:?}")
            }
            MixError::DuplicateMixName { line, name } => {
                write!(f, "line {line}: duplicate mix name {name:?}")
            }
            MixError::DuplicateCore { line, core } => {
                write!(f, "line {line}: core {core} assigned twice")
            }
            MixError::MissingCore { line, core } => {
                write!(
                    f,
                    "line {line}: core {core} has no assignment (ids must be contiguous from 0)"
                )
            }
            MixError::UnknownWorkload { line, name } => {
                write!(f, "line {line}: unknown workload {name:?}")
            }
            MixError::UnknownPrefetcher { line, name } => {
                write!(f, "line {line}: unknown prefetcher {name:?}")
            }
            MixError::ZeroCores { line, name } => {
                write!(f, "line {line}: mix {name:?} declares zero cores")
            }
            MixError::UnterminatedMix { line, name } => {
                write!(
                    f,
                    "line {line}: mix {name:?} never reached its end directive"
                )
            }
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

/// One core slot of a mix: which workload's instruction stream it runs,
/// which prefetcher guards its L1, and what fraction of the grid's
/// instruction budget it commits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixAssignment {
    /// The workload whose per-core source this slot replays.
    pub workload: Workload,
    /// The prefetcher instance attached to this core's L1.
    pub prefetcher: PrefetcherKind,
    /// Instruction budget as an integer percentage of the grid's full
    /// per-core budget (100 = the full budget). Integer so scaled targets
    /// are exact and platform-independent.
    pub scale_percent: u32,
}

/// A core-count ramp for the capacity search: run the mix at `initial`,
/// `initial + increment`, … cores, stopping at `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ramp {
    /// First core count evaluated (≥ 1).
    pub initial: usize,
    /// Cores added per step (≥ 1).
    pub increment: usize,
    /// Largest core count evaluated (≥ `initial`).
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

/// A parsed workload mix: a name, one [`MixAssignment`] per core id
/// (contiguous from 0), and an optional capacity-search [`Ramp`].
#[derive(Debug, Clone, PartialEq)]
pub struct MixConfig {
    /// The mix's name (`[A-Za-z0-9_-]+`), used in report rows; runs are
    /// keyed by their slots, not by this name.
    pub name: String,
    /// Per-core assignments; index is the core id.
    pub cores: Vec<MixAssignment>,
    /// Optional core-count ramp for the capacity search.
    pub ramp: Option<Ramp>,
}

impl MixConfig {
    /// The number of cores the mix declares.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// The assignment of core `core` on a machine of any size: a ramped
    /// run replicates the declared pattern cyclically, so a 2-slot mix at
    /// 6 cores runs three copies of the pattern, each core keeping its
    /// own seed and address space via
    /// [`Workload::source_for_core`].
    pub fn assignment(&self, core: usize) -> MixAssignment {
        self.cores[core % self.cores.len()]
    }
    /// Parses every mix in a config file. See the module docs for the
    /// grammar.
    ///
    /// # Errors
    ///
    /// [`MixError::Io`] if the file cannot be read; otherwise any of the
    /// typed parse failures, each carrying its 1-based line number.
    pub fn parse_file(path: impl AsRef<Path>) -> Result<Vec<MixConfig>, MixError> {
        let text = std::fs::read_to_string(path).map_err(MixError::Io)?;
        Self::parse_str(&text)
    }

    /// Parses every mix in the given text. See the module docs for the
    /// grammar.
    ///
    /// # Errors
    ///
    /// Any of the typed [`MixError`] parse failures, each carrying its
    /// 1-based line number.
    pub fn parse_str(text: &str) -> Result<Vec<MixConfig>, MixError> {
        let mut mixes: Vec<MixConfig> = Vec::new();
        // (name, start line, per-core assignments as (line, core, a), ramp)
        let mut open: Option<OpenMix> = None;

        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let mut tokens = content.split_whitespace();
            let directive = tokens.next().expect("non-empty line has a first token");
            let rest: Vec<&str> = tokens.collect();
            match directive {
                "mix" => {
                    if open.is_some() {
                        return Err(MixError::NestedMix { line });
                    }
                    let name = match rest.as_slice() {
                        [name] => (*name).to_string(),
                        [] => {
                            return Err(MixError::MissingField {
                                line,
                                field: "mix name",
                            })
                        }
                        _ => {
                            return Err(MixError::BadValue {
                                line,
                                field: "mix name",
                                value: rest.join(" "),
                            })
                        }
                    };
                    if !name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
                    {
                        return Err(MixError::BadValue {
                            line,
                            field: "mix name",
                            value: name,
                        });
                    }
                    if mixes.iter().any(|m| m.name == name) {
                        return Err(MixError::DuplicateMixName { line, name });
                    }
                    open = Some(OpenMix {
                        name,
                        start_line: line,
                        cores: Vec::new(),
                        ramp: None,
                    });
                }
                "core" => {
                    let block = open.as_mut().ok_or(MixError::OutsideMix {
                        line,
                        directive: directive.to_string(),
                    })?;
                    let (core, assignment) = parse_core(line, &rest)?;
                    if block.cores.iter().any(|&(id, _)| id == core) {
                        return Err(MixError::DuplicateCore { line, core });
                    }
                    block.cores.push((core, assignment));
                }
                "ramp" => {
                    let block = open.as_mut().ok_or(MixError::OutsideMix {
                        line,
                        directive: directive.to_string(),
                    })?;
                    if block.ramp.is_some() {
                        return Err(MixError::BadValue {
                            line,
                            field: "ramp",
                            value: "declared twice".to_string(),
                        });
                    }
                    block.ramp = Some(parse_ramp(line, &rest)?);
                }
                "end" => {
                    let block = open.take().ok_or(MixError::OutsideMix {
                        line,
                        directive: directive.to_string(),
                    })?;
                    mixes.push(block.close(line)?);
                }
                other => {
                    return Err(MixError::UnknownDirective {
                        line,
                        directive: other.to_string(),
                    })
                }
            }
        }
        if let Some(block) = open {
            return Err(MixError::UnterminatedMix {
                line: block.start_line,
                name: block.name,
            });
        }
        if mixes.is_empty() {
            return Err(MixError::NoMixes);
        }
        Ok(mixes)
    }
}

/// A `mix … end` block mid-parse.
struct OpenMix {
    name: String,
    start_line: usize,
    cores: Vec<(usize, MixAssignment)>,
    ramp: Option<Ramp>,
}

impl OpenMix {
    /// Validates the finished block at its `end` line: at least one core,
    /// ids contiguous from 0.
    fn close(self, end_line: usize) -> Result<MixConfig, MixError> {
        if self.cores.is_empty() {
            return Err(MixError::ZeroCores {
                line: end_line,
                name: self.name,
            });
        }
        let mut cores = self.cores;
        cores.sort_by_key(|&(id, _)| id);
        for (expect, &(id, _)) in cores.iter().enumerate() {
            if id != expect {
                return Err(MixError::MissingCore {
                    line: end_line,
                    core: expect,
                });
            }
        }
        Ok(MixConfig {
            name: self.name,
            cores: cores.into_iter().map(|(_, a)| a).collect(),
            ramp: self.ramp,
        })
    }
}

/// Parses `core <id> workload=<slug> prefetcher=<slug> [scale=<pct>%]`.
fn parse_core(line: usize, rest: &[&str]) -> Result<(usize, MixAssignment), MixError> {
    let (id_token, fields) = rest.split_first().ok_or(MixError::MissingField {
        line,
        field: "core id",
    })?;
    let core: usize = id_token.parse().map_err(|_| MixError::BadValue {
        line,
        field: "core id",
        value: (*id_token).to_string(),
    })?;
    let mut workload: Option<Workload> = None;
    let mut prefetcher: Option<PrefetcherKind> = None;
    let mut scale_percent: u32 = 100;
    for field in fields {
        let (key, value) = split_field(line, field)?;
        match key {
            "workload" => {
                workload =
                    Some(
                        Workload::from_slug(value).ok_or_else(|| MixError::UnknownWorkload {
                            line,
                            name: value.to_string(),
                        })?,
                    );
            }
            "prefetcher" => {
                prefetcher = Some(PrefetcherKind::from_slug(value).ok_or_else(|| {
                    MixError::UnknownPrefetcher {
                        line,
                        name: value.to_string(),
                    }
                })?);
            }
            "scale" => {
                let digits = value.strip_suffix('%').unwrap_or(value);
                let pct: u32 = digits.parse().map_err(|_| MixError::BadValue {
                    line,
                    field: "scale",
                    value: value.to_string(),
                })?;
                if pct == 0 || pct > 100 {
                    return Err(MixError::BadValue {
                        line,
                        field: "scale",
                        value: value.to_string(),
                    });
                }
                scale_percent = pct;
            }
            other => {
                return Err(MixError::UnknownField {
                    line,
                    field: other.to_string(),
                })
            }
        }
    }
    let workload = workload.ok_or(MixError::MissingField {
        line,
        field: "workload",
    })?;
    let prefetcher = prefetcher.ok_or(MixError::MissingField {
        line,
        field: "prefetcher",
    })?;
    Ok((
        core,
        MixAssignment {
            workload,
            prefetcher,
            scale_percent,
        },
    ))
}

/// Parses `ramp initial=<n> increment=<n> max=<n>`.
fn parse_ramp(line: usize, rest: &[&str]) -> Result<Ramp, MixError> {
    let mut initial: Option<usize> = None;
    let mut increment: Option<usize> = None;
    let mut max: Option<usize> = None;
    for field in rest {
        let (key, value) = split_field(line, field)?;
        let slot = match key {
            "initial" => &mut initial,
            "increment" => &mut increment,
            "max" => &mut max,
            other => {
                return Err(MixError::UnknownField {
                    line,
                    field: other.to_string(),
                })
            }
        };
        let n: usize = value.parse().map_err(|_| MixError::BadValue {
            line,
            field: "ramp",
            value: value.to_string(),
        })?;
        if n == 0 {
            return Err(MixError::BadValue {
                line,
                field: "ramp",
                value: value.to_string(),
            });
        }
        *slot = Some(n);
    }
    let initial = initial.ok_or(MixError::MissingField {
        line,
        field: "initial",
    })?;
    let increment = increment.ok_or(MixError::MissingField {
        line,
        field: "increment",
    })?;
    let max = max.ok_or(MixError::MissingField { line, field: "max" })?;
    if max < initial {
        return Err(MixError::BadValue {
            line,
            field: "max",
            value: max.to_string(),
        });
    }
    Ok(Ramp {
        initial,
        increment,
        max,
    })
}

/// Splits one `key=value` token.
fn split_field(line: usize, token: &str) -> Result<(&str, &str), MixError> {
    token.split_once('=').ok_or(MixError::BadValue {
        line,
        field: "field",
        value: token.to_string(),
    })
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
        assert_eq!(m.cores[0].workload, Workload::Streaming);
        assert_eq!(m.cores[0].prefetcher, PrefetcherKind::Bingo);
        assert_eq!(m.cores[0].scale_percent, 100);
        assert_eq!(m.cores[1].workload, Workload::StressStorm);
        assert_eq!(m.cores[1].scale_percent, 50);
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
        let mixes = MixConfig::parse_str(GOOD).unwrap();
        let m = &mixes[0];
        assert_eq!(m.assignment(0), m.cores[0]);
        assert_eq!(m.assignment(1), m.cores[1]);
        assert_eq!(m.assignment(2), m.cores[0]);
        assert_eq!(m.assignment(5), m.cores[1]);
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
            Err(MixError::UnterminatedMix { line: 1, name }) => assert_eq!(name, "half"),
            other => panic!("expected UnterminatedMix, got {other:?}"),
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
