//! The figure table and its shared session: every committed result has
//! a figure, an unknown name or a retired knob fails loudly, figures that
//! share cells over one [`Session`] simulate each cell once, and `all`
//! records each of them once in its checkpoint.

use std::path::{Path, PathBuf};
use std::process::Command;

use bingo_bench::figures::{self, Figure, Session, ALL};
use bingo_bench::{Checkpoint, ParallelHarness, RunScale};

fn lines_in(path: &Path) -> usize {
    std::fs::read_to_string(path)
        .expect("read back")
        .lines()
        .count()
}

/// fig7's grid (10 workloads × 6 headline prefetchers plus 10 baselines)
/// contains fig8's, fig9's and Table II's cells and is `fig_timeliness`'s,
/// so over one session those add no checkpoint line; fig4 adds exactly its
/// 10 two-event cascade cells (its baselines are fig7's). Every later
/// figure adds only the
/// machines no earlier one simulated: fig2's `PC+Offset` column is fig7's
/// SMS, fig3's 1-event row is fig2's `PC+Address` column and its 2-event
/// row fig4's, and fig6's 16K column and the ablations' paper rows are
/// fig7's Bingo.
#[test]
fn a_shared_session_simulates_each_cell_once() {
    let dir = std::env::temp_dir().join("bingo-figures-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("session-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let checkpoint = Checkpoint::open(&path).expect("fresh checkpoint");
    let mut session = Session {
        scale: RunScale {
            instructions_per_core: 2_000,
            warmup_per_core: 1_000,
            seed: 5,
        },
        args: Vec::new(),
        harness: ParallelHarness::with_jobs(2)
            .quiet()
            .with_checkpoint(checkpoint),
    };
    figures::fig7_coverage(&mut session);
    assert_eq!(lines_in(&path), 70, "fig7: 60 cells + 10 baselines");
    figures::fig8_performance(&mut session);
    figures::fig9_density(&mut session);
    figures::table2_workloads(&mut session);
    figures::fig_timeliness(&mut session);
    assert_eq!(
        lines_in(&path),
        70,
        "fig8, fig9, Table II and fig_timeliness reuse fig7's"
    );
    figures::fig4_redundancy(&mut session);
    assert_eq!(lines_in(&path), 80, "fig4 adds its two-event cells");
    let added: [(&str, Figure, usize); 6] = [
        ("fig2: 4 single events", figures::fig2_events, 40),
        ("fig3: 3-, 4- and 5-event", figures::fig3_num_events, 30),
        ("fig6: 6 sizes but 16K", figures::fig6_table_size, 60),
        ("voting: 5 thresholds but 20%", figures::ablation_voting, 50),
        ("region: 1 KB and 4 KB", figures::ablation_region, 20),
        ("training: overflow only", figures::ablation_training, 10),
    ];
    let mut expected = 80;
    for (what, figure, cells) in added {
        figure(&mut session);
        expected += cells;
        assert_eq!(lines_in(&path), expected, "{what}");
    }
    assert_eq!(expected, 290);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn every_committed_result_but_stress_degrade_is_a_figure() {
    let results = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let stems: Vec<String> = std::fs::read_dir(&results)
        .expect("results/ directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "txt"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    assert!(stems.iter().any(|s| s == "stress_degrade"), "{stems:?}");
    let names: Vec<&str> = ALL.iter().map(|&(name, _)| name).collect();
    for stem in &stems {
        assert_eq!(
            names.contains(&stem.as_str()),
            stem != "stress_degrade",
            "results/{stem}.txt"
        );
    }
}

/// `BINGO_JOBS=0` fails like every other malformed knob, with the
/// uniform message, before the figure resolves a cell.
#[test]
fn a_zero_worker_count_fails_as_a_knob() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1_config"))
        .env("BINGO_JOBS", "0")
        .output()
        .expect("run table1_config");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("BINGO_JOBS must be a positive integer, got \"0\""),
        "{stderr}"
    );
}

/// A retired knob set to any value, even the one every figure now runs,
/// aborts the run naming the variable and what replaced it.
#[test]
fn a_retired_knob_fails_naming_it() {
    for (name, value, instead) in [
        (
            "BINGO_THROTTLE",
            "feedback",
            "each figure sets its own throttle mode",
        ),
        (
            "BINGO_TELEMETRY",
            "counts",
            "telemetry is always on: every run reports its prefetch lifecycle",
        ),
        (
            "BINGO_STATS",
            "stats.json",
            "point BINGO_CHECKPOINT at a fresh file",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_table1_config"))
            .env(name, value)
            .output()
            .expect("run table1_config");
        assert!(!out.status.success(), "{name}={value} must abort");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{name} is retired: {instead}")),
            "{stderr}"
        );
    }
}

/// A fresh `BINGO_CHECKPOINT` under `all` is the run's stats export: one
/// line per simulated cell of every figure (472 distinct machines), no key
/// twice, each with its lifecycle report. The run starts outside the
/// repository, and each figure writes its own report into the `--report`
/// directory.
#[test]
fn all_exports_every_figure_to_one_stats_file() {
    let dir = std::env::temp_dir().join(format!("bingo-figures-all-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (checkpoint, reports) = (dir.join("cp.jsonl"), dir.join("reports"));
    let out = Command::new(env!("CARGO_BIN_EXE_all"))
        .current_dir(&dir)
        .args(["--traces".as_ref(), dir.join("traces").as_os_str()])
        .args(["--report".as_ref(), reports.as_os_str()])
        .env("BINGO_CHECKPOINT", &checkpoint)
        .env("BINGO_WARMUP", "0")
        .env("BINGO_INSTR", "1000")
        .env("BINGO_JOBS", "2")
        .env_remove("BINGO_CELL_TIMEOUT")
        .output()
        .expect("run all");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let cells = stderr.lines().filter(|l| l.starts_with("[cell]")).count();
    assert_eq!(cells, 472, "one cell per distinct machine");
    assert_eq!(lines_in(&checkpoint), cells, "one checkpoint line per cell");
    let keys = Checkpoint::open(&checkpoint).expect("reopen checkpoint");
    assert_eq!(keys.skipped_lines(), 0, "every line parses");
    assert_eq!(keys.len(), cells, "no key twice");
    let text = std::fs::read_to_string(&checkpoint).expect("read back");
    assert!(text.lines().all(|l| l.contains(r#""telemetry":{"#)));
    for (figure, searches) in [("fig_multicore", 9), ("fig_qos", 2)] {
        let report = reports.join(format!("{figure}_report.json"));
        assert_eq!(lines_in(&report), searches, "{}", report.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[should_panic(expected = "no-such-figure")]
fn an_unknown_figure_name_panics_naming_it() {
    figures::run("no-such-figure");
}
