//! One benchmark run: passes over a workload's cells, the checks on every
//! simulated result, the optional traced pass, and the metrics.

use std::collections::HashMap;
use std::fs;
use std::hint::black_box;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use bingo_sim::{
    InstrSource, Prefetcher, QosReport, SimResult, System, SystemConfig, ThrottleMode,
};
use bingo_trace::DEFAULT_CHUNK_RECORDS;
use bingo_workloads::{capture_workload, TraceWorkload};

use crate::digest::{check_invariants, digest, Expected, Golden};
use crate::layers::{ratio, replay_memory, MemoryReplay, Span, TracedPrefetcher, TracedSource};
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::workload::{BenchWorkload, Cell, Kind, Scale, Slots, REPLAYED};

/// Records captured past each core's retirement budget: cores fetch a few
/// instructions beyond it, and a replay that wrapped around would diverge
/// from the live run.
const CAPTURE_SLACK: u64 = 256;

/// Everything a run needs besides its command-line options.
#[derive(Clone, Debug)]
pub struct Settings {
    /// Simulation scale.
    pub scale: Scale,
    /// Golden digests.
    pub expected: Expected,
    /// Directory under which the run makes its own temporary directory
    /// for trace captures, removed when the run ends.
    pub scratch: PathBuf,
}

impl Settings {
    /// Full scale, the committed digests, and scratch space under the
    /// Cargo target directory.
    pub fn command_line() -> Self {
        let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
        Settings {
            scale: Scale::FULL,
            expected: Expected::committed(),
            scratch: PathBuf::from(target),
        }
    }
}

/// What one run asks for.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Options {
    /// The workload.
    pub workload: BenchWorkload,
    /// Seed of every instruction stream.
    pub seed: u64,
    /// Untraced passes over the cells.
    pub passes: usize,
    /// Whether to add the traced pass and report per-layer metrics.
    pub trace: bool,
}

/// The outcome of a run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Cells attempted, traced ones included.
    pub cells: usize,
    /// Cells that panicked, aborted or failed a check.
    pub failed_cells: usize,
    /// Every [`END_TO_END`] metric, or with tracing every [`PER_LAYER`]
    /// one, in catalogue order.
    pub values: Vec<(&'static Metric, f64)>,
    /// Each cell's result from its first successful untraced pass.
    pub results: Vec<(String, SimResult)>,
}

impl Report {
    /// The value of the named metric, if this run reports it.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|&(_, v)| v)
    }
}

/// Host time of one cell, or a pass's sum over cells, split by phase.
#[derive(Copy, Clone, Debug, Default)]
struct Times {
    sources_s: f64,
    prefetchers_s: f64,
    system_s: f64,
    run_s: f64,
}

impl Times {
    fn add(&mut self, other: Times) {
        self.sources_s += other.sources_s;
        self.prefetchers_s += other.prefetchers_s;
        self.system_s += other.system_s;
        self.run_s += other.run_s;
    }

    /// Everything before `try_run`.
    fn setup_s(&self) -> f64 {
        self.sources_s + self.prefetchers_s + self.system_s
    }
}

/// The spans a traced pass records: every source shares one, and each
/// prefetcher kind has its own.
#[derive(Default)]
struct Tracer {
    source: Rc<Span>,
    prefetchers: Vec<(Kind, Rc<Span>)>,
}

impl Tracer {
    fn prefetcher(&mut self, kind: Kind) -> Rc<Span> {
        if let Some((_, span)) = self.prefetchers.iter().find(|(k, _)| *k == kind) {
            return span.clone();
        }
        let span = Rc::new(Span::default());
        self.prefetchers.push((kind, span.clone()));
        span
    }
}

/// A per-process directory removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(parent: &Path) -> io::Result<Self> {
        let dir = parent.join(format!("bingo-benchmark-{}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Runs `opts.passes` passes over the workload's cells, checks every
/// result, and with `opts.trace` adds one traced pass and the memory
/// replay.
///
/// A cell that panics, aborts or fails a check is counted in
/// [`Report::failed_cells`] and its reason written to stderr; the run goes
/// on.
///
/// # Errors
///
/// Creating the scratch directory, capturing the replayed trace or
/// reading the peak RSS failed.
pub fn run(opts: Options, settings: &Settings) -> io::Result<Report> {
    let Options {
        workload,
        seed,
        passes,
        trace,
    } = opts;
    let scale = settings.scale;
    let cfg = workload.machine();
    let cells = workload.cells();
    let scratch = ScratchDir::create(&settings.scratch)?;
    let capture = scratch.0.join(REPLAYED.slug());
    let mut gate = Gate {
        workload,
        seed,
        cfg,
        target: scale.instructions,
        expected: &settings.expected,
        live: None,
        failed: 0,
    };
    if workload == BenchWorkload::TraceReplay {
        // The replay must reproduce the live generators bit for bit; their
        // result is computed once, outside every timed pass.
        let live = Cell {
            label: "live".into(),
            slots: Slots::Live([REPLAYED; 4]),
            prefetcher: Kind::None,
            throttle: ThrottleMode::Off,
        };
        gate.live =
            Some(simulate(cfg, &live, seed, scale, &capture, None).map(|(r, _)| digest(&r)));
    }

    // Co-tenant load only ever adds time, so each cell keeps its fastest
    // `try_run` and, separately, its fastest set-up; the run keeps its
    // fastest trace capture.
    let mut firsts: Vec<Option<(SimResult, u64)>> = vec![None; cells.len()];
    let mut best_run_s = vec![f64::INFINITY; cells.len()];
    let mut best_setup: Vec<Option<Times>> = vec![None; cells.len()];
    let mut best_capture_s = f64::INFINITY;
    let mut best_pass_s = f64::INFINITY;
    let mut spin_s = f64::INFINITY;
    for pass in 0..passes {
        let pass_spin_s = host_spin_s();
        spin_s = spin_s.min(pass_spin_s);
        let mut capture_s = 0.0;
        if workload == BenchWorkload::TraceReplay {
            let start = Instant::now();
            capture_workload(
                REPLAYED,
                cfg.cores,
                seed,
                scale.per_core() + CAPTURE_SLACK,
                DEFAULT_CHUNK_RECORDS,
                &capture,
            )?;
            capture_s = start.elapsed().as_secs_f64();
        }
        let when = format!("pass {}", pass + 1);
        let mut sum = Times::default();
        for (i, cell) in cells.iter().enumerate() {
            let (result, times) = match simulate(cfg, cell, seed, scale, &capture, None) {
                Ok(done) => done,
                Err(reason) => {
                    gate.fail(cell, &when, &reason);
                    continue;
                }
            };
            if pass == 0 {
                // Printed before the checks, so expected.txt can be
                // regenerated from a run that fails them.
                let line = Expected::line(seed, workload.name(), &cell.label, digest(&result));
                eprintln!("digest {line}");
            }
            let first = firsts[i].as_ref().map(|&(_, d)| d);
            let Some(d) = gate.check(cell, &result, first, &when) else {
                continue;
            };
            if first.is_none() {
                firsts[i] = Some((result, d));
            }
            best_run_s[i] = best_run_s[i].min(times.run_s);
            if best_setup[i].is_none_or(|best| times.setup_s() < best.setup_s()) {
                best_setup[i] = Some(times);
            }
            sum.add(times);
        }
        eprintln!(
            "{} {when}/{passes}: simulate {:.3} s, set-up {:.4} s (capture {capture_s:.4} s), spin {:.3} ms",
            workload.name(),
            sum.run_s,
            capture_s + sum.setup_s(),
            pass_spin_s * 1e3,
        );
        best_capture_s = best_capture_s.min(capture_s);
        best_pass_s = best_pass_s.min(sum.run_s);
    }
    spin_s = spin_s.min(host_spin_s());

    let mut values = HashMap::new();
    let (instructions, run_s) = best_run_s
        .iter()
        .filter(|s| s.is_finite())
        .fold((0.0, 0.0), |(n, t), s| {
            (n + (scale.per_core() * cfg.cores as u64) as f64, t + s)
        });
    let minstr_per_s = ratio(instructions, run_s) / 1e6;
    let host_speed = REFERENCE_SPIN_S / spin_s;
    values.insert("sim_minstr_per_s", minstr_per_s);
    values.insert("host.speed", host_speed);
    values.insert("sim_minstr_per_ref_s", minstr_per_s / host_speed);
    let mut setup = Times::default();
    best_setup.iter().flatten().for_each(|&t| setup.add(t));
    setup.sources_s += best_capture_s;
    values.insert("setup_s", setup.setup_s());
    values.insert("setup.sources_s", setup.sources_s);
    values.insert("setup.prefetchers_s", setup.prefetchers_s);
    values.insert("setup.system_s", setup.system_s);
    values.insert("peak_rss_mib", peak_rss_mib()?);

    let mut attempted = passes * cells.len();
    if trace {
        attempted += cells.len();
        let mut tracer = Tracer::default();
        let mut traced_run_s = 0.0;
        for (i, cell) in cells.iter().enumerate() {
            match simulate(cfg, cell, seed, scale, &capture, Some(&mut tracer)) {
                Ok((result, times)) => {
                    traced_run_s += times.run_s;
                    if matches!(&firsts[i], Some((untraced, _)) if result != *untraced) {
                        gate.fail(cell, "traced", "result differs from the untraced run");
                    }
                }
                Err(reason) => gate.fail(cell, "traced", &reason),
            }
        }
        layer_values(&mut values, &tracer, traced_run_s, best_pass_s);
        let replay = memory_replay(cfg, &cells, seed, scale, &capture);
        values.insert("memory.replay_accesses", replay.accesses as f64);
        values.insert(
            "memory.replay_ns_per_access",
            ratio(replay.host_s * 1e9, replay.accesses as f64),
        );
        values.insert(
            "memory.replay_stall_share",
            100.0
                * ratio(
                    replay.stalls as f64,
                    (replay.accesses + replay.stalls) as f64,
                ),
        );
        let trace_bytes: u64 = TraceWorkload::open(&capture).map_or(0, |trace| {
            (0..trace.captured_cores())
                .filter_map(|i| fs::metadata(trace.core_path(i)).ok())
                .map(|m| m.len())
                .sum()
        });
        let records = (scale.per_core() + CAPTURE_SLACK) * cfg.cores as u64;
        values.insert(
            "trace.bytes_per_record",
            ratio(trace_bytes as f64, records as f64),
        );
        let results: Vec<Option<&SimResult>> =
            firsts.iter().map(|f| f.as_ref().map(|(r, _)| r)).collect();
        model_values(&mut values, &cells, &results);
    }

    let catalogue: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
    let values = catalogue
        .iter()
        .map(|m| {
            let v = values
                .get(m.name)
                .copied()
                .unwrap_or_else(|| panic!("metric {} was not computed", m.name));
            (m, v)
        })
        .collect();
    let results = cells
        .iter()
        .zip(firsts)
        .filter_map(|(cell, first)| first.map(|(r, _)| (cell.label.clone(), r)))
        .collect();
    Ok(Report {
        cells: attempted,
        failed_cells: gate.failed,
        values,
        results,
    })
}

/// The correctness checks every cell's result goes through, and the count
/// of cells that failed them.
struct Gate<'a> {
    workload: BenchWorkload,
    seed: u64,
    cfg: SystemConfig,
    target: u64,
    expected: &'a Expected,
    /// Digest of the live run the replayed no-prefetcher cell must match.
    live: Option<Result<u64, String>>,
    failed: usize,
}

impl Gate<'_> {
    fn fail(&mut self, cell: &Cell, when: &str, reason: &str) {
        self.failed += 1;
        eprintln!(
            "FAILED {}/{} ({when}): {reason}",
            self.workload.name(),
            cell.label
        );
    }

    /// The result's digest if it passes every check, given the digest of
    /// the cell's first passing result; `None` after counting a failure.
    fn check(
        &mut self,
        cell: &Cell,
        result: &SimResult,
        first: Option<u64>,
        when: &str,
    ) -> Option<u64> {
        self.verdict(cell, result, first)
            .map_err(|reason| self.fail(cell, when, &reason))
            .ok()
    }

    fn verdict(&self, cell: &Cell, result: &SimResult, first: Option<u64>) -> Result<u64, String> {
        check_invariants(result, &self.cfg, self.target, cell.slots == Slots::Replay)?;
        let d = digest(result);
        if let Some(first) = first.filter(|&f| f != d) {
            return Err(format!(
                "digest {d:016x} differs from the first pass's {first:016x}"
            ));
        }
        match self
            .expected
            .golden(self.seed, self.workload.name(), &cell.label)
        {
            Golden::Unlisted => {}
            Golden::Missing => return Err("expected.txt has no digest for this cell".into()),
            Golden::Digest(want) if want != d => {
                return Err(format!("digest {d:016x}, expected.txt has {want:016x}"))
            }
            Golden::Digest(_) => {}
        }
        if let (Some(live), Kind::None) = (&self.live, cell.prefetcher) {
            let live = live
                .as_ref()
                .map_err(|reason| format!("live reference run failed: {reason}"))?;
            let replayed = digest(&SimResult {
                ingest: None,
                ..result.clone()
            });
            if replayed != *live {
                return Err(format!(
                    "replay digest {replayed:016x} differs from the live run's {live:016x}"
                ));
            }
        }
        Ok(d)
    }
}

/// Iterations of the host-speed spin, about 5 ms on the reference host.
const SPIN_ITERATIONS: u64 = 4_000_000;

/// The fastest spin on the reference host, an Intel Xeon (Sapphire Rapids)
/// KVM guest with 2 vCPUs: `host.speed` is this divided by a run's fastest
/// spin.
const REFERENCE_SPIN_S: f64 = 0.005;

/// The fastest of three runs of a fixed, serially dependent integer loop.
/// Its time tracks how fast the host runs this thread (clock frequency, a
/// busy sibling) and nothing of the simulator, and no build setting can
/// vectorise it.
///
/// It allocates nothing. `bingo-bench`'s `calibration_spin` mixes in
/// random loads over a 32 MiB buffer to catch bandwidth contention, but
/// that buffer would set this process's `VmHWM` at four times the
/// simulator's own, and `peak_rss_mib` would measure the spin.
fn host_spin_s() -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(1u64);
            for i in 0..SPIN_ITERATIONS {
                x = x
                    .wrapping_mul(0x5851_f42d_4c95_7f2d)
                    .wrapping_add(i ^ (x >> 29));
            }
            black_box(x);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Builds and runs one cell, panics included in the `Err`.
fn simulate(
    cfg: SystemConfig,
    cell: &Cell,
    seed: u64,
    scale: Scale,
    capture: &Path,
    tracer: Option<&mut Tracer>,
) -> Result<(SimResult, Times), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let start = Instant::now();
        let mut sources = sources(cell.slots, cfg.cores, seed, capture)?;
        let pf_span = tracer.map(|t| {
            sources = std::mem::take(&mut sources)
                .into_iter()
                .map(|s| Box::new(TracedSource::new(s, t.source.clone())) as Box<dyn InstrSource>)
                .collect();
            t.prefetcher(cell.prefetcher)
        });
        let built_sources = Instant::now();
        let prefetchers: Vec<Box<dyn Prefetcher>> = (0..cfg.cores)
            .map(|_| match &pf_span {
                Some(span) => {
                    Box::new(TracedPrefetcher::new(cell.prefetcher.build(), span.clone()))
                }
                None => cell.prefetcher.build(),
            })
            .collect();
        let built_prefetchers = Instant::now();
        let system = System::new_heterogeneous(
            cfg,
            sources,
            prefetchers,
            &vec![scale.instructions; cfg.cores],
        )
        .with_warmup(scale.warmup)
        .with_throttle(cell.throttle);
        let built = Instant::now();
        let result = system.try_run().map_err(|abort| abort.to_string())?;
        let times = Times {
            sources_s: (built_sources - start).as_secs_f64(),
            prefetchers_s: (built_prefetchers - built_sources).as_secs_f64(),
            system_s: (built - built_prefetchers).as_secs_f64(),
            run_s: built.elapsed().as_secs_f64(),
        };
        Ok((result, times))
    }))
    .unwrap_or_else(|payload| {
        Err(payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panicked".into()))
    })
}

/// One instruction source per core.
fn sources(
    slots: Slots,
    cores: usize,
    seed: u64,
    capture: &Path,
) -> Result<Vec<Box<dyn InstrSource>>, String> {
    match slots {
        Slots::Live(apps) => Ok(apps
            .iter()
            .enumerate()
            .map(|(core, app)| app.source_for_core(core, seed))
            .collect()),
        Slots::Replay => TraceWorkload::open(capture)
            .map_err(|e| e.to_string())?
            .sources(cores)
            .map_err(|e| e.to_string()),
    }
}

/// Replays `scale.replay_accesses` demand accesses, shared equally among
/// the workload's distinct instruction-stream sets.
fn memory_replay(
    cfg: SystemConfig,
    cells: &[Cell],
    seed: u64,
    scale: Scale,
    capture: &Path,
) -> MemoryReplay {
    let mut sets: Vec<Slots> = Vec::new();
    for cell in cells {
        if !sets.contains(&cell.slots) {
            sets.push(cell.slots);
        }
    }
    let mut total = MemoryReplay::default();
    for slots in &sets {
        let sources = sources(*slots, cfg.cores, seed, capture)
            .unwrap_or_else(|e| panic!("memory replay sources: {e}"));
        let one = replay_memory(cfg, sources, scale.replay_accesses / sets.len());
        total.accesses += one.accesses;
        total.stalls += one.stalls;
        total.cycles += one.cycles;
        total.host_s += one.host_s;
    }
    total
}

fn layer_values(
    values: &mut HashMap<&'static str, f64>,
    tracer: &Tracer,
    traced_run_s: f64,
    best_pass_s: f64,
) {
    // The traced run's time without what the timing itself cost.
    let overhead_s: f64 = std::iter::once(&tracer.source)
        .chain(tracer.prefetchers.iter().map(|(_, s)| s))
        .map(|s| s.overhead_s())
        .sum();
    let total_s = traced_run_s - overhead_s;
    let source_s = tracer.source.self_s();
    let pf_s: f64 = tracer.prefetchers.iter().map(|(_, s)| s.self_s()).sum();
    let pf_calls: u64 = tracer.prefetchers.iter().map(|(_, s)| s.calls()).sum();
    let (candidates, accesses) = tracer.prefetchers.iter().fold((0, 0), |(c, a), (_, s)| {
        (c + s.candidates(), a + s.accesses())
    });
    let bingo = tracer.prefetchers.iter().find(|(k, _)| *k == Kind::Bingo);
    let (bingo_calls, bingo_s, bingo_candidates) = bingo.map_or((0, 0.0, 0.0), |(_, s)| {
        (s.calls(), s.self_s(), s.candidates_per_access())
    });
    let system_s = total_s - source_s - pf_s;
    for (name, value) in [
        ("source.calls", tracer.source.calls() as f64),
        ("source.self_s", source_s),
        (
            "source.ns_per_call",
            ratio(source_s * 1e9, tracer.source.calls() as f64),
        ),
        ("source.share", 100.0 * ratio(source_s, total_s)),
        ("prefetcher.calls", pf_calls as f64),
        ("prefetcher.self_s", pf_s),
        ("prefetcher.ns_per_call", ratio(pf_s * 1e9, pf_calls as f64)),
        ("prefetcher.share", 100.0 * ratio(pf_s, total_s)),
        (
            "prefetcher.candidates_per_access",
            ratio(candidates as f64, accesses as f64),
        ),
        ("prefetcher.bingo.calls", bingo_calls as f64),
        ("prefetcher.bingo.self_s", bingo_s),
        (
            "prefetcher.bingo.ns_per_call",
            ratio(bingo_s * 1e9, bingo_calls as f64),
        ),
        ("prefetcher.bingo.candidates_per_access", bingo_candidates),
        ("system.self_s", system_s),
        ("system.share", 100.0 * ratio(system_s, total_s)),
        ("trace_overhead", ratio(traced_run_s, best_pass_s)),
    ] {
        values.insert(name, value);
    }

    eprintln!("traced try_run {traced_run_s:.3} s, of which timing {overhead_s:.3} s");
    eprintln!(
        "{:<12} {:>14} {:>10} {:>10} {:>10}",
        "layer", "calls", "self s", "ns/call", "cand/acc"
    );
    for (name, span) in std::iter::once(("source", &tracer.source))
        .chain(tracer.prefetchers.iter().map(|(k, s)| (k.slug(), s)))
    {
        let s = span.self_s();
        eprintln!(
            "{name:<12} {:>14} {s:>10.3} {:>10.1} {:>10.2}",
            span.calls(),
            ratio(s * 1e9, span.calls() as f64),
            span.candidates_per_access(),
        );
    }
    eprintln!("{:<12} {:>14} {system_s:>10.3}", "system", "");
}

/// Simulated-machine counts summed over every cell, and the simulated
/// speed-up of the workload's treatment over its baseline.
fn model_values(
    values: &mut HashMap<&'static str, f64>,
    cells: &[Cell],
    results: &[Option<&SimResult>],
) {
    let done: Vec<&SimResult> = results.iter().flatten().copied().collect();
    let sum = |f: &dyn Fn(&SimResult) -> u64| done.iter().map(|r| f(r)).sum::<u64>() as f64;
    let kinstr = sum(&|r| r.instructions()) / 1000.0;
    let core_cycles = sum(&|r| r.cores.iter().map(|c| c.cycles).sum());
    let stalls = sum(&|r| {
        r.cores
            .iter()
            .map(|c| c.dispatch_stall_cycles + c.dependency_stall_cycles)
            .sum()
    });
    let used = sum(&|r| r.llc.pf_useful + r.llc.pf_late);
    let late = sum(&|r| r.llc.pf_late);
    let useless = sum(&|r| r.llc.pf_useless);
    let dropped =
        sum(&|r| r.llc.pf_dropped_duplicate + r.llc.pf_dropped_mshr + r.llc.pf_dropped_queue);
    let qos = |f: &dyn Fn(&QosReport) -> u64| sum(&|r| r.qos.as_ref().map_or(0, f));
    for (name, value) in [
        ("model.core.ipc", ratio(kinstr * 1000.0, core_cycles)),
        ("model.core.stall_cycles_per_kinstr", ratio(stalls, kinstr)),
        (
            "model.l1d.mpki",
            ratio(sum(&|r| r.l1d.demand_misses), kinstr),
        ),
        (
            "model.l1d.mshr_stalls_per_kinstr",
            ratio(sum(&|r| r.l1d.demand_mshr_stalls), kinstr),
        ),
        (
            "model.llc.mpki",
            ratio(sum(&|r| r.llc.demand_misses), kinstr),
        ),
        (
            "model.llc.pf_issued_per_kinstr",
            ratio(sum(&|r| r.llc.pf_issued), kinstr),
        ),
        ("model.llc.pf_accuracy", 100.0 * ratio(used, used + useless)),
        ("model.llc.pf_late_share", 100.0 * ratio(late, used)),
        (
            "model.llc.pf_dropped_share",
            100.0 * ratio(dropped, sum(&|r| r.llc.pf_requested)),
        ),
        (
            "model.dram.transfers_per_kinstr",
            ratio(sum(&|r| r.dram_transfers), kinstr),
        ),
        (
            "model.qos.degrades",
            qos(&|q| q.cores.iter().map(|c| c.degrades).sum()),
        ),
        ("model.qos.watchdog_clamps", qos(&|q| q.watchdog_clamps)),
    ] {
        values.insert(name, value);
    }

    // Treatment over baseline on the same instruction streams: throttle
    // percore over off, unthrottled Bingo over no prefetcher; the
    // geometric mean over every such pair.
    let mut log_sum = 0.0;
    let mut pairs = 0;
    for (i, cell) in cells.iter().enumerate() {
        let is_baseline = |b: &Cell| {
            b.slots == cell.slots
                && b.throttle == ThrottleMode::Off
                && match (cell.throttle, cell.prefetcher) {
                    (ThrottleMode::Percore, kind) => b.prefetcher == kind,
                    (ThrottleMode::Off, Kind::Bingo) => b.prefetcher == Kind::None,
                    _ => false,
                }
        };
        let baseline = cells.iter().position(is_baseline).and_then(|j| results[j]);
        if let (Some(r), Some(base)) = (results[i], baseline) {
            log_sum += r.speedup_over(base).ln();
            pairs += 1;
        }
    }
    values.insert(
        "model_speedup",
        if pairs == 0 {
            0.0
        } else {
            (log_sum / pairs as f64).exp()
        },
    );
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))
}
