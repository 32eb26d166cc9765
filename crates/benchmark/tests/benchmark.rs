//! Checks of the benchmark itself. Simulations run at a reduced scale,
//! passed through the library; the command line always runs full scale.

use std::path::PathBuf;

use bingo_benchmark::layers::replay_memory;
use bingo_benchmark::{
    digest, main_with, run, BenchWorkload, Expected, Golden, Options, Scale, Settings, END_TO_END,
    PER_LAYER,
};
use bingo_sim::{CoreQos, CoreStats, IngestReport, QosReport, SimResult};
use bingo_workloads::Workload;

const SMALL: Scale = Scale {
    warmup: 20_000,
    instructions: 20_000,
    replay_accesses: 1 << 12,
};

fn settings(test: &str, expected: Expected) -> Settings {
    Settings {
        scale: SMALL,
        expected,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test),
    }
}

#[test]
fn tracing_wrappers_leave_every_result_unchanged() {
    for workload in BenchWorkload::ALL {
        let opts = Options {
            workload,
            seed: 3,
            passes: 1,
            trace: true,
        };
        let report = run(opts, &settings("wrappers", Expected::default())).expect("run");
        let cells = workload.cells().len();
        assert_eq!(report.cells, 2 * cells, "{workload:?}: untraced + traced");
        // A traced result that differs from its untraced one fails its cell.
        assert_eq!(report.failed_cells, 0, "{workload:?}");
        let value = |name| report.value(name).expect(name);
        assert!(value("source.calls") > 0.0, "{workload:?}: sources wrapped");
        assert!(
            value("prefetcher.calls") > 0.0,
            "{workload:?}: prefetchers wrapped"
        );
        let shares = value("source.share") + value("prefetcher.share") + value("system.share");
        assert!(
            (shares - 100.0).abs() < 1e-6,
            "{workload:?}: shares sum to {shares}"
        );
        assert_eq!(report.values.len(), PER_LAYER.len());
        assert!(report.values.iter().all(|(_, v)| v.is_finite()));
    }
}

fn sample_result() -> SimResult {
    SimResult {
        cores: vec![CoreStats::default(); 2],
        ingest: Some(IngestReport::default()),
        qos: Some(QosReport {
            cores: vec![CoreQos::default(); 2],
            ..QosReport::default()
        }),
        ..SimResult::default()
    }
}

type Perturb = Box<dyn Fn(&mut SimResult)>;

fn perturb(f: impl Fn(&mut SimResult) + 'static) -> Perturb {
    Box::new(f)
}

#[test]
fn perturbing_any_digest_field_changes_the_digest() {
    let mut perturbations: Vec<(&str, Perturb)> = vec![
        (
            "core count",
            perturb(|r| r.cores.push(CoreStats::default())),
        ),
        ("ingest absent", perturb(|r| r.ingest = None)),
        ("qos absent", perturb(|r| r.qos = None)),
        (
            "qos core count",
            perturb(|r| r.qos.as_mut().unwrap().cores.truncate(1)),
        ),
        ("dram_transfers", perturb(|r| r.dram_transfers += 1)),
        ("total_cycles", perturb(|r| r.total_cycles += 1)),
    ];
    macro_rules! each {
        ($name:literal, |$r:ident| $base:expr, $($field:ident),+) => {
            $(perturbations.push((
                concat!($name, ".", stringify!($field)),
                perturb(|$r| $base.$field += 1),
            ));)+
        };
    }
    macro_rules! cache {
        ($name:literal, |$r:ident| $base:expr) => {
            each!(
                $name,
                |$r| $base,
                demand_accesses,
                demand_hits,
                demand_hits_pending,
                demand_misses,
                demand_mshr_stalls,
                evictions,
                writebacks,
                pf_requested,
                pf_dropped_duplicate,
                pf_dropped_mshr,
                pf_dropped_queue,
                pf_issued,
                pf_useful,
                pf_late,
                pf_useless
            )
        };
    }
    each!(
        "core",
        |r| r.cores[1],
        instructions,
        cycles,
        loads,
        stores,
        dispatch_stall_cycles,
        dependency_stall_cycles
    );
    cache!("l1d", |r| r.l1d);
    cache!("llc", |r| r.llc);
    each!(
        "ingest",
        |r| r.ingest.as_mut().unwrap(),
        delivered_records,
        quarantined_records,
        quarantined_bytes,
        skipped_chunks
    );
    each!(
        "qos core",
        |r| r.qos.as_mut().unwrap().cores[1],
        demand_accesses,
        pf_issued,
        pf_used,
        prefetch_reads,
        reads,
        epochs,
        degrades,
        upgrades,
        final_level
    );
    each!(
        "qos",
        |r| r.qos.as_mut().unwrap(),
        watchdog_epochs,
        watchdog_starved_epochs,
        watchdog_clamps,
        watchdog_exempted
    );
    assert_eq!(perturbations.len(), 6 + 6 + 2 * 15 + 4 + 9 + 4);

    let base = digest(&sample_result());
    for (field, perturb) in &perturbations {
        let mut changed = sample_result();
        perturb(&mut changed);
        assert_ne!(digest(&changed), base, "{field} is not in the digest");
    }
    let mut unhashed = sample_result();
    unhashed.prefetcher_debug.push("diagnostics".into());
    unhashed.prefetcher_metrics.push(vec![("lookups", 1.0)]);
    assert_eq!(
        digest(&unhashed),
        base,
        "diagnostics stay out of the digest"
    );
}

#[test]
fn a_wrong_expected_digest_fails_one_cell_and_exits_zero() {
    let workload = BenchWorkload::Contention4Core;
    let seed = 5;
    let opts = Options {
        workload,
        seed,
        passes: 1,
        trace: false,
    };
    let truth = run(opts, &settings("golden-truth", Expected::default())).expect("run");
    assert_eq!(truth.failed_cells, 0);
    let table: Vec<String> = truth
        .results
        .iter()
        .enumerate()
        .map(|(i, (cell, result))| {
            let wrong = u64::from(i == 0);
            Expected::line(seed, workload.name(), cell, digest(result) ^ wrong)
        })
        .collect();
    let expected = Expected::parse(&table.join("\n")).expect("parse");

    let args: Vec<String> = ["--workload", workload.name(), "--seed", "5"]
        .map(String::from)
        .to_vec();
    let mut out = Vec::new();
    let status = main_with(&args, &settings("golden-wrong", expected), &mut out);
    assert_eq!(status, 0);
    let out = String::from_utf8(out).expect("utf-8");
    let summary = out.lines().last().expect("summary line");
    // The one cell with a wrong digest fails on every pass; its neighbour
    // never does.
    let passes = workload.passes();
    let head = format!(
        r#"{{"correct": false, "attempted": {}, "failed": {passes}, "metrics": {{"#,
        2 * passes
    );
    assert!(summary.starts_with(&head), "{summary}");
}

#[test]
fn the_committed_table_covers_every_cell_at_seeds_42_and_7() {
    let expected = Expected::committed();
    for seed in [42, 7] {
        for workload in BenchWorkload::ALL {
            for cell in workload.cells() {
                assert!(
                    matches!(
                        expected.golden(seed, workload.name(), &cell.label),
                        Golden::Digest(_)
                    ),
                    "seed {seed} {} {}",
                    workload.name(),
                    cell.label
                );
            }
        }
        assert_eq!(
            expected.golden(seed, "server-grid", "no-such-cell"),
            Golden::Missing
        );
    }
    assert_eq!(
        expected.golden(1, "server-grid", "zeus/bingo"),
        Golden::Unlisted
    );
}

#[test]
fn the_memory_replay_is_deterministic() {
    let cfg = BenchWorkload::Em3dGrid.machine();
    let replay = || {
        let sources = (0..cfg.cores)
            .map(|core| Workload::Em3d.source_for_core(core, 11))
            .collect();
        replay_memory(cfg, sources, 1 << 12)
    };
    let (a, b) = (replay(), replay());
    assert_eq!(a.accesses, 1 << 12);
    assert!(a.stalls > 0, "one access per cycle must overrun the MSHRs");
    assert_eq!(
        (a.accesses, a.stalls, a.cycles),
        (b.accesses, b.stalls, b.cycles)
    );
}

#[test]
fn every_listed_name_is_in_benchmark_json() {
    let json = include_str!("../../../BENCHMARK.json");
    let mut out = Vec::new();
    assert_eq!(
        main_with(
            &["--list".into()],
            &settings("list", Expected::default()),
            &mut out
        ),
        0
    );
    let listed = String::from_utf8(out).expect("utf-8");
    let mut names = 0;
    for line in listed.lines() {
        let name = line.split_whitespace().nth(1).expect("a name per line");
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "{name:?}"
        );
        assert!(
            json.contains(&format!(r#""name": "{name}""#)),
            "{name} missing"
        );
        names += 1;
    }
    assert_eq!(
        names,
        BenchWorkload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
    assert_eq!(json.matches(r#""name": "#).count(), names, "no stale names");

    // Every entry exactly as the catalogue states it.
    for w in BenchWorkload::ALL {
        let entry = format!(r#"{{"name": "{}", "why": "{}"}}"#, w.name(), w.why());
        assert!(json.contains(&entry), "{entry}");
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(r#", "bound": {b}"#));
        let entry = format!(
            r#"{{"name": "{}", "unit": "{}", "better": "{}"{bound}}}"#,
            m.name,
            m.unit,
            m.better.as_str()
        );
        assert!(json.contains(&entry), "{entry}");
    }
}

#[test]
fn bad_arguments_exit_two_without_a_summary() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "em3d-grid"],
        &["--workload", "em3d-grid", "--seed", "x"],
        &["--workload", "em3d-grid", "--seed", "1", "--seconds"],
    ] {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let status = main_with(&args, &settings("args", Expected::default()), &mut out);
        assert_eq!(status, 2, "{args:?}");
        assert!(out.is_empty());
    }
}
