//! The figure table and its shared session: every committed result has
//! a figure, an unknown name fails loudly, and figures that share cells
//! over one [`Session`] simulate each cell once.

use std::path::{Path, PathBuf};

use bingo_bench::figures::{self, Session, ALL};
use bingo_bench::{Checkpoint, ParallelHarness, RunScale};
use bingo_sim::{TelemetryLevel, ThrottleMode};

fn lines_in(path: &Path) -> usize {
    std::fs::read_to_string(path)
        .expect("read checkpoint")
        .lines()
        .count()
}

/// fig7's grid (10 workloads × 6 headline prefetchers plus 10 baselines)
/// contains fig8's, fig9's and Table II's cells, so over one session those
/// add no checkpoint line; fig4 adds exactly its 10 `MultiEvent(2)` cells
/// (its baselines are fig7's).
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
        telemetry: TelemetryLevel::Off,
        throttle: ThrottleMode::Off,
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
    assert_eq!(lines_in(&path), 70, "fig8, fig9 and Table II reuse fig7's");
    figures::fig4_redundancy(&mut session);
    assert_eq!(lines_in(&path), 80, "fig4 adds its MultiEvent(2) cells");
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

#[test]
#[should_panic(expected = "no-such-figure")]
fn an_unknown_figure_name_panics_naming_it() {
    figures::run("no-such-figure");
}
