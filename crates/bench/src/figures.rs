//! Every figure of the paper's evaluation as a function over one
//! [`Session`].
//!
//! A [`Session`] holds what every figure reads, read once: the
//! [`RunScale`], the command line and one [`ParallelHarness`]. Every cell
//! is the one configuration its figure states: throttling is off unless
//! the figure sets it in code (`fig_qos` varies the throttle mode), and
//! every cell reports its prefetch lifecycle. Each `src/bin/<figure>.rs`
//! is a wrapper around [`run`]; the `all` binary runs every entry of [`ALL`]
//! in order over one session, so a cell two figures share is simulated
//! once (the harness memoizes every result it resolves). Figures print to
//! stdout.

use std::path::PathBuf;

use bingo::{BingoConfig, EventKind, SpatialProfiler};
use bingo_sim::{
    ChaosPlan, Instr, RegionGeometry, SimResult, SourceCounters, SystemConfig, ThrottleMode,
};
use bingo_trace::DEFAULT_CHUNK_RECORDS;
use bingo_workloads::{TraceWorkload, Workload};

use crate::area::AreaModel;
use crate::capture::{ensure_capture, CAPTURE_SLACK};
use crate::cli::{flag_value, flag_values, workload_args};
use crate::mix::{
    contention_mixes, polite_vs_storm, CapacityCell, CapacitySearch, MixConfig, Pressure,
};
use crate::runner::{
    geometric_mean, mean, parallel_map, ParallelHarness, PrefetcherKind, RunScale, RunSpec,
};
use crate::table::{f2, pct, Table};

/// What every figure reads: the scale and command line, read once, and
/// the one harness that resolves every cell.
#[derive(Debug)]
pub struct Session {
    /// `--quick` plus the `BINGO_WARMUP` / `BINGO_INSTR` overrides.
    pub scale: RunScale,
    /// The command line, program name excluded.
    pub args: Vec<String>,
    /// The executor of every figure's cells, memo included.
    pub harness: ParallelHarness,
}

impl Session {
    /// Reads the scale, the command line and the harness knobs
    /// ([`ParallelHarness::from_env`]).
    ///
    /// # Panics
    ///
    /// Panics on a malformed or retired knob, as each reader documents.
    pub fn from_env() -> Session {
        Session {
            scale: RunScale::from_args(),
            args: std::env::args().skip(1).collect(),
            harness: ParallelHarness::from_env(),
        }
    }
}

/// A figure: prints its tables, resolving its cells through the session.
pub type Figure = fn(&mut Session);

/// Every figure `all` runs, in order, by binary name.
pub const ALL: [(&str, Figure); 18] = [
    ("table1_config", table1_config),
    ("table2_workloads", table2_workloads),
    ("fig2_events", fig2_events),
    ("fig3_num_events", fig3_num_events),
    ("fig4_redundancy", fig4_redundancy),
    ("fig6_table_size", fig6_table_size),
    ("fig7_coverage", fig7_coverage),
    ("fig8_performance", fig8_performance),
    ("fig9_density", fig9_density),
    ("fig10_isodegree", fig10_isodegree),
    ("fig_timeliness", fig_timeliness),
    ("fig_traces", fig_traces),
    ("fig_multicore", fig_multicore),
    ("fig_qos", fig_qos),
    ("ablation_voting", ablation_voting),
    ("ablation_region", ablation_region),
    ("ablation_training", ablation_training),
    ("workload_stats", workload_stats),
];

/// The `main` of every figure binary: runs the [`ALL`] entry `name` over
/// [`Session::from_env`].
///
/// # Panics
///
/// Panics if no entry of [`ALL`] is named `name`, and wherever the figure
/// panics.
pub fn run(name: &str) {
    let (_, figure) = ALL
        .into_iter()
        .find(|&(n, _)| n == name)
        .unwrap_or_else(|| panic!("unknown figure {name:?}"));
    figure(&mut Session::from_env());
}

/// Table I — evaluation parameters — plus the Bingo storage accounting of
/// Section VI-A (16 K entries → 119 KB, ~6 % of the LLC).
pub fn table1_config(_: &mut Session) {
    let cfg = SystemConfig::paper();
    let bingo = BingoConfig::paper();
    let mut t = Table::new(vec!["Parameter", "Value"]);
    t.row(vec![
        "Chip".to_string(),
        format!("{} GHz, {} cores", cfg.freq_ghz, cfg.cores),
    ]);
    t.row(vec![
        "Cores".to_string(),
        format!(
            "{}-wide OoO, {}-entry ROB, {}-entry LSQ",
            cfg.core.width, cfg.core.rob_entries, cfg.core.lsq_entries
        ),
    ]);
    t.row(vec![
        "L1-D".to_string(),
        format!(
            "{} KB, {}-way, {}-entry MSHR, {}-cycle",
            cfg.l1d.size_bytes / 1024,
            cfg.l1d.ways,
            cfg.l1d.mshrs,
            cfg.l1d.latency
        ),
    ]);
    t.row(vec![
        "LLC".to_string(),
        format!(
            "{} MB, {}-way, {} banks, {}-cycle hit latency",
            cfg.llc.size_bytes / 1024 / 1024,
            cfg.llc.ways,
            cfg.llc.banks,
            cfg.llc.latency
        ),
    ]);
    t.row(vec![
        "Main Memory".to_string(),
        format!(
            "{:.0} ns zero-load latency, {:.1} GB/s peak bandwidth",
            cfg.dram_zero_load_ns(),
            cfg.dram.peak_bandwidth_gbps(cfg.freq_ghz)
        ),
    ]);
    t.row(vec![
        "Spatial region".to_string(),
        format!(
            "{} B ({} blocks)",
            bingo.region.region_bytes(),
            bingo.region.blocks_per_region()
        ),
    ]);
    println!("Table I. Evaluation parameters.\n\n{t}");

    // Storage is a pure function of the configuration — no need to build
    // the prefetcher to account for it.
    let kb = bingo.storage_bits() as f64 / 8.0 / 1024.0;
    let llc_pct = bingo.storage_bits() as f64 / 8.0 / cfg.llc.size_bytes as f64 * 100.0;
    println!(
        "Bingo storage (Section VI-A): {} history entries, {:.0} KB total ({:.1}% of LLC capacity; paper: 119 KB, 6%).",
        bingo.history_entries,
        kb,
        llc_pct
    );
}

/// Table II — application parameters: baseline LLC MPKI of every workload
/// (no prefetcher), compared against the paper's reported values.
pub fn table2_workloads(s: &mut Session) {
    let kinds = [PrefetcherKind::None];
    let specs = RunSpec::grid(s.scale, &Workload::ALL, &kinds);
    let baselines = s.harness.try_run(&specs).into_complete();
    let mut t = Table::new(vec!["Application", "Description", "MPKI", "Paper MPKI"]);
    for (w, base) in Workload::ALL.into_iter().zip(&baselines) {
        t.row(vec![
            w.name().to_string(),
            w.description().to_string(),
            format!("{:.1}", base.llc_mpki()),
            format!("{:.1}", w.paper_mpki()),
        ]);
    }
    println!("Table II. Application parameters (baseline LLC MPKI).\n\n{t}");
}

/// Figure 2 — accuracy and match probability of the five event heuristics,
/// averaged across all applications.
///
/// Each event is evaluated as a single-event spatial prefetcher; accuracy
/// is the fraction of completed prefetches used before eviction, and match
/// probability is the fraction of history lookups that found an entry.
pub fn fig2_events(s: &mut Session) {
    let kinds: Vec<PrefetcherKind> = EventKind::LONGEST_FIRST
        .into_iter()
        .map(|first| PrefetcherKind::Events { first, count: 1 })
        .collect();
    let specs = RunSpec::grid(s.scale, &Workload::ALL, &kinds);
    let mut report = s.harness.try_evaluate(&specs);
    // A renamed counter must fail the figure by name, not plot as zero.
    report.require_metrics(&["lookups", "matches"]);
    let evals = report.into_complete();
    let mut t = Table::new(vec!["Event", "Accuracy", "Match Probability"]);
    for (j, kind) in EventKind::LONGEST_FIRST.into_iter().enumerate() {
        let mut accs = Vec::new();
        let mut probs = Vec::new();
        for i in 0..Workload::ALL.len() {
            let e = &evals[i * kinds.len() + j];
            accs.push(e.coverage.accuracy);
            let lookups = e.result.metric_sum("lookups").expect("required above");
            let matches = e.result.metric_sum("matches").expect("required above");
            probs.push(if lookups > 0.0 {
                matches / lookups
            } else {
                0.0
            });
        }
        t.row(vec![
            kind.label().to_string(),
            pct(mean(&accs)),
            pct(mean(&probs)),
        ]);
    }
    println!(
        "Figure 2. Accuracy and match probability of event heuristics\n\
         (longest event first; paper: accuracy decreases and match\n\
         probability increases as the event shortens).\n\n{t}"
    );
}

/// Figure 3 — coverage and accuracy of a TAGE-like spatial prefetcher as
/// the number of events grows from 1 (`PC+Address` only) to 5 (all events
/// down to bare `Offset`), averaged across all applications.
///
/// The paper's takeaway: the step from one to two events is large, and
/// returns diminish beyond two — which is why Bingo uses exactly two.
pub fn fig3_num_events(s: &mut Session) {
    let kinds: Vec<PrefetcherKind> = (1..=5)
        .map(|count| PrefetcherKind::Events {
            first: EventKind::PcAddress,
            count,
        })
        .collect();
    let specs = RunSpec::grid(s.scale, &Workload::ALL, &kinds);
    let evals = s.harness.evaluate(&specs);
    let mut t = Table::new(vec!["Events", "Coverage", "Accuracy"]);
    for (j, n) in (1..=5).enumerate() {
        let mut covs = Vec::new();
        let mut accs = Vec::new();
        for i in 0..Workload::ALL.len() {
            let e = &evals[i * kinds.len() + j];
            covs.push(e.coverage.coverage);
            accs.push(e.coverage.accuracy);
        }
        t.row(vec![n.to_string(), pct(mean(&covs)), pct(mean(&accs))]);
    }
    println!(
        "Figure 3. Coverage and accuracy vs. number of events in a\n\
         TAGE-like spatial prefetcher (paper: the 1→2 step dominates).\n\n{t}"
    );
}

/// Figure 4 — redundancy in the metadata of a naive two-table TAGE-like
/// spatial prefetcher: the fraction of lookups for which the long
/// (`PC+Address`) and short (`PC+Offset`) tables offer an *identical*
/// prediction. High redundancy is what justifies Bingo's unified table.
///
/// The paper reports redundancy from 26% (SAT Solver) to 93% (Mix 2).
pub fn fig4_redundancy(s: &mut Session) {
    let kinds = [PrefetcherKind::Events {
        first: EventKind::PcAddress,
        count: 2,
    }];
    let specs = RunSpec::grid(s.scale, &Workload::ALL, &kinds);
    let mut report = s.harness.try_evaluate(&specs);
    // A renamed counter must fail the figure by name, not plot as zero.
    report.require_metrics(&["lookups", "dual_identical", "dual_both_matched"]);
    let evals = report.into_complete();
    let mut t = Table::new(vec!["Workload", "Redundancy", "Both-matched"]);
    let mut all = Vec::new();
    for (w, e) in Workload::ALL.iter().zip(&evals) {
        let lookups = e.result.metric_sum("lookups").expect("required above");
        let identical = e
            .result
            .metric_sum("dual_identical")
            .expect("required above");
        let both = e
            .result
            .metric_sum("dual_both_matched")
            .expect("required above");
        let redundancy = if lookups > 0.0 {
            identical / lookups
        } else {
            0.0
        };
        let both_frac = if lookups > 0.0 { both / lookups } else { 0.0 };
        all.push(redundancy);
        t.row(vec![w.name().to_string(), pct(redundancy), pct(both_frac)]);
    }
    t.row(vec!["Average".to_string(), pct(mean(&all)), String::new()]);
    println!(
        "Figure 4. Redundancy of naive two-table TAGE metadata: fraction of\n\
         lookups where long and short events predict identically\n\
         (paper: 26%–93%).\n\n{t}"
    );
}

/// Figure 6 — Bingo's miss coverage as a function of history-table entries
/// (1K to 64K), per workload. The paper picks 16K entries as the knee.
pub fn fig6_table_size(s: &mut Session) {
    const SIZES: [usize; 7] = [1024, 2048, 4096, 8192, 16384, 32768, 65536];
    let kinds: Vec<PrefetcherKind> = SIZES
        .into_iter()
        .map(|n| PrefetcherKind::Bingo(BingoConfig::with_history_entries(n)))
        .collect();
    let specs = RunSpec::grid(s.scale, &Workload::ALL, &kinds);
    let evals = s.harness.evaluate(&specs);
    let mut header = vec!["Workload".to_string()];
    header.extend(SIZES.iter().map(|n| format!("{}K", n / 1024)));
    let mut t = Table::new(header);
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let mut row = vec![w.name().to_string()];
        for j in 0..kinds.len() {
            row.push(pct(evals[i * kinds.len() + j].coverage.coverage));
        }
        t.row(row);
    }
    println!(
        "Figure 6. Bingo miss coverage vs. history-table entries\n\
         (paper: coverage plateaus beyond 16K entries).\n\n{t}"
    );
}

/// Figure 7 — miss coverage and overprediction of all six prefetchers on
/// every workload (overprediction normalized to baseline misses).
///
/// The paper reports Bingo covering >63% of misses on average, 8% above
/// the second-best prefetcher, with overprediction on par with the rest.
pub fn fig7_coverage(s: &mut Session) {
    let kinds = PrefetcherKind::headline();
    let specs = RunSpec::grid(s.scale, &Workload::ALL, &kinds);
    let evals = s.harness.evaluate(&specs);
    let mut t = Table::new(vec![
        "Workload",
        "Prefetcher",
        "Coverage",
        "Overprediction",
        "Accuracy",
        "Timeliness",
    ]);
    let mut avg: Vec<(String, Vec<f64>, Vec<f64>)> = kinds
        .iter()
        .map(|k| (k.name(), Vec::new(), Vec::new()))
        .collect();
    for (idx, e) in evals.iter().enumerate() {
        let i = idx % kinds.len();
        t.row(vec![
            Workload::ALL[idx / kinds.len()].name().to_string(),
            kinds[i].name(),
            pct(e.coverage.coverage),
            pct(e.coverage.overprediction),
            pct(e.coverage.accuracy),
            pct(e.coverage.timeliness),
        ]);
        avg[i].1.push(e.coverage.coverage);
        avg[i].2.push(e.coverage.overprediction);
    }
    for (name, covs, ovs) in &avg {
        t.row(vec![
            "Average".to_string(),
            name.clone(),
            pct(mean(covs)),
            pct(mean(ovs)),
            String::new(),
            String::new(),
        ]);
    }
    println!(
        "Figure 7. Coverage and overprediction of all prefetchers\n\
         (paper: Bingo highest coverage on every workload, >63% average).\n\n{t}"
    );
}

/// Figure 8 — performance improvement of every prefetcher over the
/// no-prefetcher baseline, per workload plus the geometric mean.
///
/// The paper reports Bingo at +60% gmean (11% in Zeus to 285% in em3d),
/// 11% above the best prior spatial prefetcher.
pub fn fig8_performance(s: &mut Session) {
    let kinds = PrefetcherKind::headline();
    let specs = RunSpec::grid(s.scale, &Workload::ALL, &kinds);
    let evals = s.harness.evaluate(&specs);
    let mut header = vec!["Workload".to_string()];
    header.extend(kinds.iter().map(|k| k.name()));
    let mut t = Table::new(header);
    let n_kinds = kinds.len();
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); n_kinds];
    for (wi, w) in Workload::ALL.into_iter().enumerate() {
        let mut row = vec![w.name().to_string()];
        for (i, e) in evals[wi * n_kinds..(wi + 1) * n_kinds].iter().enumerate() {
            speedups[i].push(e.speedup);
            row.push(pct(e.improvement()));
        }
        t.row(row);
    }
    let mut gmean_row = vec!["GMean".to_string()];
    for kind_speedups in &speedups {
        gmean_row.push(pct(geometric_mean(kind_speedups) - 1.0));
    }
    t.row(gmean_row);
    println!(
        "Figure 8. Performance improvement over the no-prefetcher baseline\n\
         (paper: Bingo +60% gmean, +11% Zeus, +285% em3d).\n\n{t}"
    );
}

/// Figure 9 — performance-density improvement (throughput per unit chip
/// area) of every prefetcher over the no-prefetcher baseline.
///
/// The paper reports Bingo at +59%: the area of its metadata tables costs
/// less than 1% of the performance gain.
pub fn fig9_density(s: &mut Session) {
    let area = AreaModel::default_14nm();
    let cfg = SystemConfig::paper();
    let llc_mb = cfg.llc.size_bytes as f64 / 1024.0 / 1024.0;

    // Kind-major grid: all workloads of one prefetcher are contiguous.
    let kinds = PrefetcherKind::headline();
    let specs: Vec<RunSpec> = kinds
        .iter()
        .flat_map(|&k| RunSpec::grid(s.scale, &Workload::ALL, &[k]))
        .collect();
    let evals = s.harness.evaluate(&specs);

    let mut t = Table::new(vec![
        "Prefetcher",
        "Storage/core (KB)",
        "Perf gmean",
        "Perf density",
    ]);
    let n_workloads = Workload::ALL.len();
    for (i, &kind) in kinds.iter().enumerate() {
        let kb = kind.storage_kb();
        let speedups: Vec<f64> = evals[i * n_workloads..(i + 1) * n_workloads]
            .iter()
            .map(|e| e.speedup)
            .collect();
        let gmean = geometric_mean(&speedups);
        let density = area.density_improvement(cfg.cores, llc_mb, kb, gmean);
        t.row(vec![
            kind.name(),
            format!("{kb:.1}"),
            pct(gmean - 1.0),
            pct(density),
        ]);
    }
    println!(
        "Figure 9. Performance-density improvement over the baseline\n\
         (paper: Bingo +59%, within 1% of its raw performance gain).\n\n{t}"
    );
}

/// Figure 10 — iso-degree comparison: the SHH prefetchers with their
/// degree restrictions lifted (BOP and VLDP at degree 32, SPP at a 1%
/// confidence threshold) against their original configurations and Bingo.
///
/// The paper's result: aggressiveness buys a little performance and a lot
/// of overprediction; Bingo still wins.
pub fn fig10_isodegree(s: &mut Session) {
    let rows = [
        ("BOP-Orig", PrefetcherKind::Bop),
        ("BOP-Aggr", PrefetcherKind::BopAggressive),
        ("SPP-Orig", PrefetcherKind::Spp),
        ("SPP-Aggr", PrefetcherKind::SppAggressive),
        ("VLDP-Orig", PrefetcherKind::Vldp),
        ("VLDP-Aggr", PrefetcherKind::VldpAggressive),
        ("Bingo", PrefetcherKind::bingo()),
    ];
    let t = summary_table(s, "Prefetcher", &rows);
    println!(
        "Figure 10. Iso-degree comparison (paper: lifting the degree raises\n\
         SHH coverage slightly and overprediction sharply; Bingo still wins).\n\n{t}"
    );
}

fn source_timeliness(c: &SourceCounters) -> f64 {
    let used = c.timely + c.late;
    if used == 0 {
        0.0
    } else {
        c.timely as f64 / used as f64
    }
}

/// Prefetch-lifecycle timeliness breakdown (observability companion to
/// Fig. 7): for every workload × headline prefetcher, the full fate of
/// every issued prefetch — used timely, used late, evicted unused, or
/// dropped before issue — from the LLC's counters, plus the average fill
/// latency from the [`bingo_sim::TelemetryReport`] attached to each run.
///
/// A second table attributes Bingo's prefetches to the originating event
/// kind (long `PC+Address` event vs voted short `PC+Offset` event) and
/// reports per-event-kind accuracy — the observable counterpart of the
/// paper's Fig. 2 accuracy argument.
///
/// The cells are fig7's, so under `all` they come from the memo. Pass
/// `--workload <name>` (repeatable; a slug, paper name or variant name) to
/// restrict the sweep — the CI smoke job runs a single cheap workload this
/// way.
pub fn fig_timeliness(s: &mut Session) {
    let workloads = workload_args(&s.args, &Workload::ALL);
    let kinds = PrefetcherKind::headline();
    let specs = RunSpec::grid(s.scale, &workloads, &kinds);
    let evals = s.harness.evaluate(&specs);

    let mut t = Table::new(vec![
        "Workload",
        "Prefetcher",
        "Coverage",
        "Accuracy",
        "Timeliness",
        "Timely",
        "Late",
        "Unused",
        "Dropped",
        "Fill lat",
    ]);
    let mut timeliness_by_kind: Vec<(String, Vec<f64>)> =
        kinds.iter().map(|k| (k.name(), Vec::new())).collect();
    let workload_of = |idx: usize| workloads[idx / kinds.len()].name().to_string();
    for (idx, e) in evals.iter().enumerate() {
        let llc = &e.result.llc;
        t.row(vec![
            workload_of(idx),
            kinds[idx % kinds.len()].name(),
            pct(e.coverage.coverage),
            pct(e.coverage.accuracy),
            pct(e.coverage.timeliness),
            llc.pf_useful.to_string(),
            llc.pf_late.to_string(),
            llc.pf_useless.to_string(),
            (llc.pf_dropped_duplicate + llc.pf_dropped_mshr + llc.pf_dropped_queue).to_string(),
            f2(e.result.telemetry.avg_fill_latency()),
        ]);
        timeliness_by_kind[idx % kinds.len()]
            .1
            .push(e.coverage.timeliness);
    }
    for (name, vals) in &timeliness_by_kind {
        t.row(vec![
            "Average".to_string(),
            name.clone(),
            String::new(),
            String::new(),
            pct(mean(vals)),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }

    let mut by_kind = Table::new(vec![
        "Workload",
        "Event kind",
        "Issued",
        "Accuracy",
        "Timeliness",
    ]);
    for (idx, e) in evals.iter().enumerate() {
        if kinds[idx % kinds.len()] != PrefetcherKind::bingo() {
            continue;
        }
        for (label, c) in &e.result.telemetry.by_source {
            by_kind.row(vec![
                workload_of(idx),
                label.clone(),
                c.issued.to_string(),
                pct(c.accuracy()),
                pct(source_timeliness(c)),
            ]);
        }
    }

    println!(
        "Prefetch lifecycle: timeliness and attribution of every issued\n\
         prefetch (timely + late + unused = issued minus still-in-flight).\n\n{t}"
    );
    println!(
        "Bingo prefetches by originating event kind (long = PC+Address\n\
         history replay, short = voted PC+Offset footprints).\n\n{by_kind}"
    );
}

/// Corpus-driven replay figure: every headline prefetcher replayed on
/// *recorded* instruction streams instead of the live generators.
///
/// ```text
/// fig_traces [--traces DIR] [--workload NAME]... [--quick]
/// ```
///
/// Missing captures, and captures too short for the current [`RunScale`]
/// (they would wrap during replay), are recorded on the fly into `DIR`
/// (default `target/traces/`, the `trace_capture` tool's default); then
/// the (trace × prefetcher) grid runs through
/// [`ParallelHarness::evaluate`] with per-trace no-prefetcher baselines. Because capture and replay are bit-for-bit (see the
/// `trace_capture --verify` round trip), the numbers here match the
/// generator-driven Fig. 7/8 sweeps at the same scale — what the figure
/// *adds* is the ingestion evidence: every row reports how many records
/// the loader delivered. A damaged capture fails its cells with the
/// reader's typed error, byte offset included, and the binary exits
/// nonzero.
pub fn fig_traces(s: &mut Session) {
    let scale = s.scale;
    let workloads = workload_args(&s.args, &Workload::ALL);
    let root =
        PathBuf::from(flag_value(&s.args, "--traces").unwrap_or_else(|| "target/traces".into()));
    let cores = SystemConfig::paper().cores;
    let records = scale.warmup_per_core + scale.instructions_per_core + CAPTURE_SLACK;

    let traces: Vec<TraceWorkload> = workloads
        .iter()
        .map(|&w| {
            let dir = root.join(w.slug());
            ensure_capture(w, cores, scale.seed, records, DEFAULT_CHUNK_RECORDS, &dir)
                .unwrap_or_else(|e| panic!("capture of {} in {}: {e}", w.name(), dir.display()))
        })
        .collect();

    let kinds = PrefetcherKind::headline();
    let specs: Vec<RunSpec> = traces
        .iter()
        .flat_map(|t| kinds.iter().map(move |&k| RunSpec::trace(scale, t, k)))
        .collect();
    let evals = s.harness.evaluate(&specs);

    let mut t = Table::new(vec![
        "Trace",
        "Prefetcher",
        "Coverage",
        "Overpred",
        "Speedup",
        "Delivered",
    ]);
    let mut speedups_by_kind: Vec<(String, Vec<f64>)> =
        kinds.iter().map(|k| (k.name(), Vec::new())).collect();
    for (idx, e) in evals.iter().enumerate() {
        let ingest = e
            .result
            .ingest
            .as_ref()
            .expect("trace replays attach an ingest report");
        t.row(vec![
            traces[idx / kinds.len()].name().to_string(),
            kinds[idx % kinds.len()].name(),
            pct(e.coverage.coverage),
            pct(e.coverage.overprediction),
            format!("{:.3}x", e.speedup),
            ingest.delivered_records.to_string(),
        ]);
        speedups_by_kind[idx % kinds.len()].1.push(e.speedup);
    }
    for (name, vals) in &speedups_by_kind {
        t.row(vec![
            "Geomean".to_string(),
            name.clone(),
            String::new(),
            String::new(),
            format!("{:.3}x", geometric_mean(vals)),
            String::new(),
        ]);
    }

    println!(
        "Recorded-trace replay: headline prefetchers on the captured\n\
         corpus under {} (streamed chunk-at-a-time).\n\n{t}",
        root.display()
    );
}

/// Writes a figure's structured report, one JSON line each, to
/// `<figure>_report.json` in the `--report DIR` directory (default
/// `target`), so every figure of one run keeps its own report.
///
/// # Panics
///
/// Panics if the file cannot be written.
fn write_report(s: &Session, figure: &str, lines: &[String]) {
    let dir = PathBuf::from(flag_value(&s.args, "--report").unwrap_or_else(|| "target".into()));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    let path = dir.join(format!("{figure}_report.json"));
    std::fs::write(&path, lines.join("\n") + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    eprintln!(
        "[{figure}] report: {} line(s) -> {}",
        lines.len(),
        path.display()
    );
}

/// Multi-core contention figure: ramped capacity search over declared
/// workload mixes and per-core fairness.
///
/// ```text
/// fig_multicore [--mix NAME]... [--pressure NAME]... [--report DIR] [--quick]
/// ```
///
/// The mixes are [`contention_mixes`], declared in code; `--mix` picks
/// some of them by name. Each selected mix runs at every core count of
/// its [`Ramp`](crate::mix::Ramp) (or its declared core count when
/// unramped) under every selected memory [`Pressure`] level, through
/// [`ParallelHarness::try_evaluate_mix`] — so mix cells and their
/// per-slot solo runs parallelize and checkpoint (`BINGO_CHECKPOINT`) like
/// every other sweep. Per (mix, pressure) the ramp becomes a
/// [`CapacitySearch`]: aggregate IPC, min/max IPC fairness, worst per-core
/// slowdown versus solo at each step, plus the capacity knee (the last
/// core count whose added cores still earn ≥ 50 % of the un-contended
/// per-core IPC).
///
/// The structured report — one JSON line per capacity search — lands in
/// `fig_multicore_report.json` under `--report DIR` (default `target`;
/// CI uploads it as an artifact). The throttle-starvation comparison is
/// [`fig_qos`].
pub fn fig_multicore(s: &mut Session) {
    let scale = s.scale;
    let mut mixes = contention_mixes().to_vec();
    let picked = flag_values(&s.args, "--mix");
    if !picked.is_empty() {
        for name in &picked {
            assert!(
                mixes.iter().any(|m| &m.name == name),
                "unknown mix {name:?}; declared: {:?}",
                mixes.iter().map(|m| m.name.as_str()).collect::<Vec<_>>()
            );
        }
        mixes.retain(|m| picked.contains(&m.name));
    }
    let pressure_names = flag_values(&s.args, "--pressure");
    let pressures: Vec<Pressure> = if pressure_names.is_empty() {
        Pressure::LADDER.to_vec()
    } else {
        pressure_names
            .iter()
            .map(|name| {
                *Pressure::LADDER
                    .iter()
                    .find(|p| p.name == name)
                    .unwrap_or_else(|| {
                        let known: Vec<&str> = Pressure::LADDER.iter().map(|p| p.name).collect();
                        panic!("unknown pressure {name:?}; valid: {known:?}")
                    })
            })
            .collect()
    };

    // One flat grid over every (mix, pressure, ramp step): a single
    // harness call maximizes worker occupancy and dedups shared solos.
    let steps_of = |mix: &MixConfig| -> Vec<usize> {
        mix.ramp
            .map(|r| r.steps())
            .unwrap_or_else(|| vec![mix.core_count()])
    };
    let mut specs: Vec<RunSpec> = Vec::new();
    for mix in &mixes {
        for &pressure in &pressures {
            for cores in steps_of(mix) {
                specs.push(RunSpec::mix(scale, mix, cores, pressure));
            }
        }
    }
    let evals = s.harness.evaluate_mix(&specs);

    // Regroup the flat evaluations into per-(mix, pressure) searches.
    let mut searches: Vec<CapacitySearch> = Vec::new();
    let mut idx = 0;
    for mix in &mixes {
        for &pressure in &pressures {
            let steps = steps_of(mix);
            let measured: Vec<CapacityCell> = steps
                .iter()
                .map(|_| {
                    let e = &evals[idx];
                    idx += 1;
                    CapacityCell {
                        cores: e.spec.slots.len(),
                        fairness: e.fairness.clone(),
                    }
                })
                .collect();
            searches.push(CapacitySearch::from_steps(
                &mix.name,
                pressure.name,
                measured,
            ));
        }
    }
    assert_eq!(idx, evals.len(), "every evaluation was grouped");

    println!("Multi-core contention: capacity search over declared mixes");
    println!(
        "({} instructions/core after {} warmup, seed {}; knee = last core count",
        scale.instructions_per_core, scale.warmup_per_core, scale.seed
    );
    println!("whose added cores still earn >=50% of the un-contended per-core IPC)\n");
    let mut t = Table::new(vec![
        "Mix",
        "Pressure",
        "Cores",
        "Agg IPC",
        "Min/Max IPC",
        "Max slowdown",
        "Knee",
    ]);
    for search in &searches {
        for step in &search.steps {
            t.row(vec![
                search.mix.clone(),
                search.pressure.to_string(),
                step.cores.to_string(),
                f2(step.fairness.aggregate_ipc),
                f2(step.fairness.min_max_ipc_ratio),
                f2(step.fairness.max_slowdown()),
                if step.cores == search.knee {
                    "<-".to_string()
                } else {
                    String::new()
                },
            ]);
        }
    }
    println!("{}", t.render());

    let lines: Vec<String> = searches.iter().map(CapacitySearch::to_json).collect();
    write_report(s, "fig_multicore", &lines);
}

/// Per-core QoS throttling figure: the throttle-starvation experiment —
/// does the chip-wide feedback throttle starve a polite core, and do the
/// per-core controllers with the starvation watchdog fix it? — plus a
/// chaos-hardening cell.
///
/// ```text
/// fig_qos [--report DIR] [--quick]
/// ```
///
/// Three throttle arms run on the [`polite_vs_storm`] mix at 2 cores under
/// `constrained` memory pressure: `off` (no throttle), `feedback` (the
/// chip-wide controller, which clamps the polite core alongside the
/// storm), and `percore` (one controller per core plus the chip-level
/// starvation watchdog). The figure's claim: `percore` keeps the polite
/// core within 1 % of its unthrottled IPC while the aggregate IPC stays
/// at or above the chip-wide feedback arm's.
///
/// The chaos cell replays the same mix under the standard perturbation
/// schedule ([`bingo_sim::ChaosPlan::standard`] at `CHAOS_SEED`) with
/// the per-core throttle on, against a prefetcher-throttle-off run under
/// the *same* chaos, reporting the bounded-slowdown ratio the property
/// suite asserts.
///
/// The watchdog runs at [`bingo_sim::QOS_SLO`]. The structured report
/// (one JSON line per experiment) lands in `fig_qos_report.json` under
/// `--report DIR` (default `target`; CI uploads it as an artifact).
pub fn fig_qos(s: &mut Session) {
    /// Seed of the chaos cell's perturbation schedule: committed so every
    /// run replays the same perturbation log.
    const CHAOS_SEED: u64 = 0xB1A60;

    let mix = &polite_vs_storm();
    let pressure = Pressure::CONSTRAINED;

    let spec = |throttle: ThrottleMode, chaos: Option<ChaosPlan>| RunSpec {
        throttle,
        chaos,
        ..RunSpec::mix(s.scale, mix, 2, pressure)
    };

    // Calm arms (the starvation comparison), then the chaos cell: same
    // mix, standard perturbation schedule, percore throttle versus
    // throttle-off under identical chaos.
    let plan = ChaosPlan::standard(CHAOS_SEED);
    let specs = [
        spec(ThrottleMode::Off, None),
        spec(ThrottleMode::Feedback, None),
        spec(ThrottleMode::Percore, None),
        spec(ThrottleMode::Off, Some(plan.clone())),
        spec(ThrottleMode::Percore, Some(plan)),
    ];
    let results = s.harness.try_run(&specs).into_complete();
    let (off, feedback, percore) = (&results[0], &results[1], &results[2]);

    // "Aggregate" follows the mix-fairness convention (and the chip-wide
    // throttle's published starvation verdict): the sum of per-core IPCs.
    let sum_ipc = |r: &SimResult| -> f64 { r.core_ipcs().iter().sum() };
    let polite = [
        off.core_ipcs()[0],
        feedback.core_ipcs()[0],
        percore.core_ipcs()[0],
    ];
    let storm = [
        off.core_ipcs()[1],
        feedback.core_ipcs()[1],
        percore.core_ipcs()[1],
    ];
    let aggregate = [sum_ipc(off), sum_ipc(feedback), sum_ipc(percore)];
    let polite_ratio_feedback = polite[1] / polite[0];
    let polite_ratio_percore = polite[2] / polite[0];

    println!(
        "Per-core QoS throttling: {} @ 2 cores, {} pressure",
        mix.name, pressure.name
    );
    println!("(feedback = PR 8's chip-wide controller; percore = one controller");
    println!("per core plus the starvation watchdog)\n");
    let mut t = Table::new(vec![
        "Throttle",
        "Polite IPC",
        "Polite ratio",
        "Storm IPC",
        "Agg IPC",
    ]);
    for (i, name) in ["off", "feedback", "percore"].iter().enumerate() {
        t.row(vec![
            (*name).to_string(),
            f2(polite[i]),
            f2(polite[i] / polite[0]),
            f2(storm[i]),
            f2(aggregate[i]),
        ]);
    }
    println!("{}", t.render());

    let verdict = if polite_ratio_percore >= 0.99 && aggregate[2] >= aggregate[1] {
        "percore recovers the polite core (>=99% of unthrottled) without losing aggregate IPC"
    } else if polite_ratio_percore > polite_ratio_feedback {
        "percore improves on the chip-wide throttle but misses the 1% target at this scale"
    } else {
        "percore does not improve on the chip-wide throttle at this scale"
    };
    println!("=> {verdict}\n");

    let qos = percore
        .qos
        .as_ref()
        .expect("percore runs attach a QoS report");
    println!(
        "watchdog: {} epochs, {} starved, {} clamps, {} exemptions",
        qos.watchdog_epochs,
        qos.watchdog_starved_epochs,
        qos.watchdog_clamps,
        qos.watchdog_exempted
    );

    let (chaos_off, chaos_percore) = (&results[3], &results[4]);
    let chaos_polite_ratio = chaos_percore.core_ipcs()[0] / chaos_off.core_ipcs()[0];
    println!("\nChaos cell (standard schedule, seed {CHAOS_SEED:#x}):");
    let mut t = Table::new(vec!["Throttle", "Polite IPC", "Storm IPC", "Agg IPC"]);
    t.row(vec![
        "off".to_string(),
        f2(chaos_off.core_ipcs()[0]),
        f2(chaos_off.core_ipcs()[1]),
        f2(sum_ipc(chaos_off)),
    ]);
    t.row(vec![
        "percore".to_string(),
        f2(chaos_percore.core_ipcs()[0]),
        f2(chaos_percore.core_ipcs()[1]),
        f2(sum_ipc(chaos_percore)),
    ]);
    println!("{}", t.render());

    let lines = [
        format!(
            "{{\"qos\":{{\"mix\":\"{}\",\"pressure\":\"{}\",\"cores\":2,\
             \"polite_ipc\":[{:.6},{:.6},{:.6}],\"storm_ipc\":[{:.6},{:.6},{:.6}],\
             \"aggregate_ipc\":[{:.6},{:.6},{:.6}],\
             \"polite_ratio_feedback\":{:.6},\"polite_ratio_percore\":{:.6},\
             \"watchdog\":[{},{},{},{}]}}}}",
            mix.name,
            pressure.name,
            polite[0],
            polite[1],
            polite[2],
            storm[0],
            storm[1],
            storm[2],
            aggregate[0],
            aggregate[1],
            aggregate[2],
            polite_ratio_feedback,
            polite_ratio_percore,
            qos.watchdog_epochs,
            qos.watchdog_starved_epochs,
            qos.watchdog_clamps,
            qos.watchdog_exempted,
        ),
        format!(
            "{{\"qos_chaos\":{{\"mix\":\"{}\",\"seed\":{},\
             \"off_ipc\":[{:.6},{:.6}],\"percore_ipc\":[{:.6},{:.6}],\
             \"polite_ratio\":{:.6}}}}}",
            mix.name,
            CHAOS_SEED,
            chaos_off.core_ipcs()[0],
            chaos_off.core_ipcs()[1],
            chaos_percore.core_ipcs()[0],
            chaos_percore.core_ipcs()[1],
            chaos_polite_ratio,
        ),
    ];
    write_report(s, "fig_qos", &lines);
}

/// Ablation — Bingo's multi-match footprint-voting threshold.
///
/// Section IV: when only the short event matches, possibly in several ways,
/// Bingo prefetches blocks present in ≥20% of the matching footprints. This
/// ablation sweeps the threshold from aggressive-union (5%) to strict
/// intersection (100%), confirming the paper's choice of 20%.
pub fn ablation_voting(s: &mut Session) {
    const THRESHOLDS: [f64; 6] = [0.05, 0.2, 0.35, 0.5, 0.75, 1.0];
    let rows: Vec<(String, PrefetcherKind)> = THRESHOLDS
        .iter()
        .map(|&th| {
            let kind = PrefetcherKind::Bingo(BingoConfig {
                vote_threshold: th,
                ..BingoConfig::paper()
            });
            (pct(th), kind)
        })
        .collect();
    let t = summary_table(s, "Vote threshold", &rows);
    println!("Ablation: Bingo footprint-voting threshold (paper picks 20%).\n\n{t}");
}

/// Ablation — spatial region size (1 KB / 2 KB / 4 KB).
///
/// The region is the unit over which footprints are recorded and
/// prefetched; 2 KB is the reference ChampSim Bingo choice. Larger regions
/// amortize more blocks per trigger but dilute pattern stability. The
/// region geometry is part of [`BingoConfig`], so each size is one
/// [`PrefetcherKind::Bingo`] on the paper machine.
pub fn ablation_region(s: &mut Session) {
    const REGION_BYTES: [u64; 3] = [1024, 2048, 4096];
    let rows: Vec<(String, PrefetcherKind)> = REGION_BYTES
        .iter()
        .map(|&bytes| {
            let kind = PrefetcherKind::Bingo(BingoConfig {
                region: RegionGeometry::new(bytes),
                ..BingoConfig::paper()
            });
            (format!("{} KB", bytes / 1024), kind)
        })
        .collect();
    let t = summary_table(s, "Region", &rows);
    println!("Ablation: spatial region size for Bingo.\n\n{t}");
}

/// Ablation — Bingo's end-of-residency training signal.
///
/// The paper (following SMS) ends a region's residency — and trains the
/// history table — "whenever a block from the page is invalidated or
/// evicted from the cache". The alternative is to train only when the
/// accumulation table overflows (no cache feedback at all). This ablation
/// quantifies how much the eviction signal matters.
pub fn ablation_training(s: &mut Session) {
    let overflow_only = BingoConfig {
        train_on_eviction: false,
        ..BingoConfig::paper()
    };
    let rows = [
        ("eviction + overflow (paper)", PrefetcherKind::bingo()),
        ("overflow only", PrefetcherKind::Bingo(overflow_only)),
    ];
    let t = summary_table(s, "Training signal", &rows);
    println!("Ablation: Bingo end-of-residency training signal.\n\n{t}");
}

/// Workload spatial-structure profile (validation tool, not a paper
/// figure): measures, per workload, the footprint density and the
/// match-probability / footprint-similarity of each event heuristic —
/// the raw material behind Figs. 2–4 — directly from the access stream,
/// with no prefetcher or timing model involved.
pub fn workload_stats(s: &mut Session) {
    let scale = s.scale;
    let accesses_per_workload = (scale.instructions_per_core / 20).max(10_000);

    // Each workload profiles independently; fan them out.
    let rows = parallel_map(s.harness.jobs(), Workload::ALL.len(), |wi| {
        let w = Workload::ALL[wi];
        let mut profiler = SpatialProfiler::new(RegionGeometry::default(), 64);
        let mut sources = w.sources(1, scale.seed);
        let src = sources[0].as_mut();
        let mut seen = 0;
        while seen < accesses_per_workload {
            match src.next_instr() {
                Instr::Load { pc, addr, .. } | Instr::Store { pc, addr } => {
                    profiler.observe_parts(pc.raw(), addr.block().index());
                    seen += 1;
                }
                Instr::Op => {}
            }
        }
        let r = profiler.finish();
        let row = |k: EventKind| -> (String, String) {
            let e = r.event(k);
            (pct(e.match_probability()), pct(e.mean_similarity()))
        };
        let (pa_m, pa_s) = row(EventKind::PcAddress);
        let (po_m, po_s) = row(EventKind::PcOffset);
        let (of_m, of_s) = row(EventKind::Offset);
        eprintln!("done {w}");
        vec![
            w.name().to_string(),
            pct(r.mean_density()),
            pa_m,
            pa_s,
            po_m,
            po_s,
            of_m,
            of_s,
        ]
    });

    let mut t = Table::new(vec![
        "Workload",
        "Density",
        "P(match) PC+Addr",
        "Sim PC+Addr",
        "P(match) PC+Off",
        "Sim PC+Off",
        "P(match) Offset",
        "Sim Offset",
    ]);
    for row in rows {
        t.row(row);
    }
    println!(
        "Workload spatial-structure profile ({} accesses per workload).\n\
         'P(match)': trigger-event recurrence; 'Sim': mean footprint\n\
         similarity on recurrence (accuracy upper bound for that event).\n\n{t}",
        accesses_per_workload
    );
}

/// The summary table of the ablations and Fig. 10: each `(label, kind)`
/// row runs on every workload of [`Workload::ALL`] at the session's scale
/// and becomes one table row — the label (under `first_column`), the
/// gmean performance improvement, the mean coverage and the mean
/// overprediction.
///
/// # Panics
///
/// Panics on a failed cell, as [`ParallelHarness::evaluate`] does.
fn summary_table<S: AsRef<str>>(
    s: &mut Session,
    first_column: &str,
    rows: &[(S, PrefetcherKind)],
) -> Table {
    // Kind-major grid: all workloads of one row are contiguous.
    let specs: Vec<RunSpec> = rows
        .iter()
        .flat_map(|&(_, kind)| RunSpec::grid(s.scale, &Workload::ALL, &[kind]))
        .collect();
    let evals = s.harness.evaluate(&specs);
    let mut t = Table::new(vec![
        first_column,
        "Perf gmean",
        "Coverage",
        "Overprediction",
    ]);
    for ((label, _), chunk) in rows.iter().zip(evals.chunks(Workload::ALL.len())) {
        let speedups: Vec<f64> = chunk.iter().map(|e| e.speedup).collect();
        let covs: Vec<f64> = chunk.iter().map(|e| e.coverage.coverage).collect();
        let ovs: Vec<f64> = chunk.iter().map(|e| e.coverage.overprediction).collect();
        t.row(vec![
            label.as_ref().to_string(),
            pct(geometric_mean(&speedups) - 1.0),
            pct(mean(&covs)),
            pct(mean(&ovs)),
        ]);
    }
    t
}
