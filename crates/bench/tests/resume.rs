//! Acceptance test of checkpoint/resume: a sweep interrupted mid-run and
//! resumed from its `BINGO_CHECKPOINT` file produces bit-for-bit the same
//! [`bingo_bench::Evaluation`]s as an uninterrupted sweep — including
//! after the file picks up a torn final line from the simulated kill.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

use bingo_bench::{Checkpoint, Evaluation, ParallelHarness, PrefetcherKind, RunScale, RunSpec};
use bingo_sim::ThrottleMode;
use bingo_workloads::Workload;

fn scale() -> RunScale {
    RunScale {
        instructions_per_core: 15_000,
        warmup_per_core: 5_000,
        seed: 21,
    }
}

fn grid() -> Vec<RunSpec> {
    RunSpec::grid(
        scale(),
        &[Workload::Em3d, Workload::Streaming],
        &[PrefetcherKind::NextLine(1), PrefetcherKind::Stride],
    )
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("bingo-resume-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// NaN-proof bitwise comparison of two evaluations.
fn assert_bit_identical(fresh: &Evaluation, resumed: &Evaluation, what: &str) {
    assert_eq!(fresh.result, resumed.result, "{what}: result differs");
    assert_eq!(fresh.baseline, resumed.baseline, "{what}: baseline differs");
    assert_eq!(
        fresh.speedup.to_bits(),
        resumed.speedup.to_bits(),
        "{what}: speedup differs"
    );
    for (a, b, field) in [
        (
            fresh.coverage.coverage,
            resumed.coverage.coverage,
            "coverage",
        ),
        (
            fresh.coverage.overprediction,
            resumed.coverage.overprediction,
            "overprediction",
        ),
        (
            fresh.coverage.accuracy,
            resumed.coverage.accuracy,
            "accuracy",
        ),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: {field} differs");
    }
    assert_eq!(
        fresh.coverage.baseline_misses, resumed.coverage.baseline_misses,
        "{what}: baseline misses differ"
    );
    assert_eq!(
        fresh.coverage.misses_with_prefetch, resumed.coverage.misses_with_prefetch,
        "{what}: prefetch misses differ"
    );
}

#[test]
fn resume_from_checkpoint_is_bit_for_bit_identical() {
    let cells = grid();
    let path = tmp_path("resume");

    // The reference: one uninterrupted sweep, no checkpoint involved.
    let fresh = ParallelHarness::with_jobs(2).quiet().evaluate(&cells);

    // The "killed" sweep: only the first half of the grid completes
    // before the process dies.
    {
        let mut h = ParallelHarness::with_jobs(2)
            .quiet()
            .with_checkpoint(Checkpoint::open(&path).expect("create checkpoint"));
        let partial = h.evaluate(&cells[..2]);
        assert_eq!(partial.len(), 2);
    }

    // The kill also tears the last line mid-write.
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("open for tearing");
        write!(f, "{{\"key\":\"torn-mid-wri").expect("torn tail");
    }

    // Resume: the finished cells (and the Em3d baseline) replay from the
    // file; only the missing half simulates.
    let resumed_checkpoint = Checkpoint::open(&path).expect("reopen checkpoint");
    assert_eq!(
        resumed_checkpoint.skipped_lines(),
        1,
        "exactly the torn line is skipped"
    );
    assert_eq!(
        resumed_checkpoint.len(),
        3,
        "two cells plus the Em3d baseline were durable"
    );
    let mut h = ParallelHarness::with_jobs(2)
        .quiet()
        .with_checkpoint(resumed_checkpoint);
    let report = h.try_evaluate(&cells);
    assert!(report.is_clean(), "{}", report.failure_report());
    assert_eq!(
        report.checkpoint_hits, 3,
        "the finished cells and baseline must replay, not re-simulate"
    );
    let resumed = report.into_complete();

    assert_eq!(fresh.len(), resumed.len());
    for (f, r) in fresh.iter().zip(&resumed) {
        assert_eq!(f.spec.key(), r.spec.key());
        assert_bit_identical(f, r, &f.spec.label());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn completed_checkpoint_resumes_without_any_simulation() {
    let cells = grid();
    let path = tmp_path("full");
    let fresh = {
        let mut h = ParallelHarness::with_jobs(2)
            .quiet()
            .with_checkpoint(Checkpoint::open(&path).expect("create"));
        h.evaluate(&cells)
    };
    // Second harness, same file: every cell and baseline is a hit, and a
    // tight deadline proves nothing is simulated (a real simulation at
    // Duration::ZERO would time out).
    let mut h = ParallelHarness::with_jobs(2)
        .quiet()
        .with_cell_timeout(Duration::ZERO)
        .with_checkpoint(Checkpoint::open(&path).expect("reopen"));
    let report = h.try_evaluate(&cells);
    assert!(report.is_clean(), "{}", report.failure_report());
    assert_eq!(
        report.checkpoint_hits,
        cells.len() + 2,
        "4 cells + 2 baselines"
    );
    let resumed = report.into_complete();
    for (f, r) in fresh.iter().zip(&resumed) {
        assert_bit_identical(f, r, &f.spec.label());
    }
    let _ = std::fs::remove_file(&path);
}

/// Checkpoint/resume with the feedback throttle enabled: the controller's
/// level walk is part of the simulated machine, so a resumed throttled
/// sweep must be bit-for-bit identical to an uninterrupted one — and the
/// mode is part of every key, so an unthrottled sweep can never replay
/// throttled results (or vice versa).
#[test]
fn throttled_sweep_resumes_bit_for_bit_and_keys_stay_disjoint() {
    let scale = RunScale {
        instructions_per_core: 15_000,
        warmup_per_core: 5_000,
        seed: 33,
    };
    let specs = |throttle| -> Vec<RunSpec> {
        [Workload::Em3d, Workload::Streaming]
            .map(|w| RunSpec {
                throttle,
                ..RunSpec::classic(scale, w, PrefetcherKind::bingo())
            })
            .to_vec()
    };
    let cells = specs(ThrottleMode::Feedback);
    let path = tmp_path("throttle");

    // Reference: uninterrupted feedback-throttled sweep, no checkpoint.
    let fresh = ParallelHarness::with_jobs(2).quiet().evaluate(&cells);

    // Interrupted: only the first cell (and its baseline) completes.
    {
        let mut h = ParallelHarness::with_jobs(2)
            .quiet()
            .with_checkpoint(Checkpoint::open(&path).expect("create checkpoint"));
        let partial = h.evaluate(&cells[..1]);
        assert_eq!(partial.len(), 1);
    }

    // Resume under the same mode: the finished cell and baseline replay.
    let mut h = ParallelHarness::with_jobs(2)
        .quiet()
        .with_checkpoint(Checkpoint::open(&path).expect("reopen checkpoint"));
    let report = h.try_evaluate(&cells);
    assert!(report.is_clean(), "{}", report.failure_report());
    assert_eq!(
        report.checkpoint_hits, 2,
        "the finished cell and the Em3d baseline must replay"
    );
    let resumed = report.into_complete();
    assert_eq!(fresh.len(), resumed.len());
    for (f, r) in fresh.iter().zip(&resumed) {
        assert_bit_identical(f, r, &f.spec.label());
    }

    // Mode mismatch: an *unthrottled* sweep on the same file finds no
    // usable entries — the throttle mode is part of every key.
    let mut h = ParallelHarness::with_jobs(2)
        .quiet()
        .with_checkpoint(Checkpoint::open(&path).expect("reopen checkpoint"));
    let report = h.try_evaluate(&specs(ThrottleMode::Off));
    assert!(report.is_clean(), "{}", report.failure_report());
    assert_eq!(
        report.checkpoint_hits, 0,
        "throttled checkpoint entries must be invisible to an unthrottled sweep"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn failed_cells_are_not_checkpointed_and_retry_on_resume() {
    let path = tmp_path("failed");
    let cells = RunSpec::grid(
        scale(),
        &[Workload::Streaming],
        &[
            PrefetcherKind::NextLine(1),
            PrefetcherKind::Faulty { panic_after: 0 },
        ],
    );
    {
        let mut h = ParallelHarness::with_jobs(2)
            .quiet()
            .with_checkpoint(Checkpoint::open(&path).expect("create"));
        let report = h.try_evaluate(&cells);
        assert_eq!(report.failures.len(), 1);
    }
    let cp = Checkpoint::open(&path).expect("reopen");
    assert_eq!(
        cp.len(),
        2,
        "baseline + healthy cell only; no failure entry"
    );
    assert!(
        cp.get(&cells[1].key()).is_none(),
        "a panicked cell must be retried on resume, not replayed"
    );
    let _ = std::fs::remove_file(&path);
}

/// A real sweep killed mid-run keeps every cell it reported finished: the
/// engine checkpoints a cell before printing its `[cell]` line, so after
/// a SIGKILL following the k-th line the file holds at least k entries —
/// baselines and grid cells alike, not just completed phases.
#[test]
fn sigkill_after_a_cell_line_keeps_that_cell() {
    const KILL_AFTER: usize = 16; // past fig7's 10 baselines
    let path = tmp_path("sigkill");
    let mut child = Command::new(env!("CARGO_BIN_EXE_fig7_coverage"))
        .env("BINGO_CHECKPOINT", &path)
        .env("BINGO_JOBS", "2")
        .env("BINGO_INSTR", "20000")
        .env("BINGO_WARMUP", "10000")
        .env_remove("BINGO_STATS")
        .env_remove("BINGO_CELL_TIMEOUT")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fig7_coverage");
    let stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut cells = 0;
    for line in stderr.lines() {
        if line.expect("stderr line").starts_with("[cell]") {
            cells += 1;
            if cells == KILL_AFTER {
                child.kill().expect("SIGKILL the sweep");
                break;
            }
        }
    }
    child.wait().expect("reap the sweep");
    assert_eq!(cells, KILL_AFTER, "the sweep ended before the kill");
    let durable = Checkpoint::open(&path).expect("reopen checkpoint").len();
    assert!(
        durable >= KILL_AFTER,
        "{KILL_AFTER} cells reported finished, only {durable} durable"
    );
    let _ = std::fs::remove_file(&path);
}
