//! Checkpoint compatibility of the mix view: mix cells and their solo
//! runs resume bit-for-bit, classic and mix entries share one file
//! without cross-talk, and a checkpoint of a sweep with failures among
//! its cells retries only what is actually missing.

use std::path::PathBuf;

use bingo_bench::{
    Checkpoint, MixConfig, MixEvaluation, ParallelHarness, PrefetcherKind, Pressure, RunScale,
    RunSpec, Slot, Stream,
};
use bingo_workloads::Workload;

fn scale() -> RunScale {
    RunScale {
        instructions_per_core: 15_000,
        warmup_per_core: 5_000,
        seed: 21,
    }
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("bingo-mix-resume-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn mix() -> MixConfig {
    MixConfig::parse_str(
        "mix pair\n\
         core 0 workload=streaming prefetcher=stride\n\
         core 1 workload=em3d prefetcher=none\n\
         end\n",
    )
    .expect("valid mix")
    .remove(0)
}

fn mix_spec(mix: &MixConfig, cores: usize, pressure: Pressure) -> RunSpec {
    RunSpec::mix(scale(), mix, cores, pressure)
}

fn mix_cells() -> Vec<RunSpec> {
    vec![
        mix_spec(&mix(), 2, Pressure::NONE),
        mix_spec(&mix(), 2, Pressure::SCARCE),
    ]
}

fn classic_cells() -> Vec<RunSpec> {
    [
        (Workload::Em3d, PrefetcherKind::Stride),
        (Workload::Streaming, PrefetcherKind::NextLine(1)),
    ]
    .map(|(w, k)| RunSpec::classic(scale(), w, k))
    .to_vec()
}

fn harness(path: &PathBuf) -> ParallelHarness {
    ParallelHarness::with_jobs(2)
        .quiet()
        .with_checkpoint(Checkpoint::open(path).expect("open checkpoint"))
}

/// NaN-proof bitwise comparison of two mix evaluations.
fn assert_bit_identical(fresh: &MixEvaluation, resumed: &MixEvaluation, what: &str) {
    assert_eq!(fresh.result, resumed.result, "{what}: result differs");
    assert_eq!(
        fresh.fairness.aggregate_ipc.to_bits(),
        resumed.fairness.aggregate_ipc.to_bits(),
        "{what}: aggregate IPC differs"
    );
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&fresh.fairness.core_ipcs),
        bits(&resumed.fairness.core_ipcs),
        "{what}: core IPCs differ"
    );
    assert_eq!(
        bits(&fresh.fairness.slowdowns),
        bits(&resumed.fairness.slowdowns),
        "{what}: slowdowns differ"
    );
}

#[test]
fn mix_keys_resume_bit_for_bit() {
    let cells = mix_cells();
    let path = tmp_path("mix-resume");

    // The reference: an uncheckpointed sweep.
    let fresh = ParallelHarness::with_jobs(2).quiet().evaluate_mix(&cells);

    // A checkpointed sweep populates the file...
    {
        let report = harness(&path).try_evaluate_mix(&cells);
        assert!(report.is_clean(), "{}", report.failure_report());
        assert_eq!(report.checkpoint_hits, 0, "first run simulates everything");
    }

    // ...and a brand-new harness replays every cell and every solo from
    // it: 2 mix cells + 2 slots × 2 pressure levels = 6 entries.
    let cp = Checkpoint::open(&path).expect("reopen checkpoint");
    assert_eq!(cp.len(), 6, "2 mix cells + 4 solo runs are durable");
    let report = ParallelHarness::with_jobs(2)
        .quiet()
        .with_checkpoint(cp)
        .try_evaluate_mix(&cells);
    assert!(report.is_clean(), "{}", report.failure_report());
    assert_eq!(
        report.checkpoint_hits, 6,
        "everything replays, nothing re-simulates"
    );
    let resumed = report.into_complete();
    assert_eq!(fresh.len(), resumed.len());
    for (f, r) in fresh.iter().zip(&resumed) {
        assert_bit_identical(f, r, &f.spec.label());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn classic_and_mix_entries_share_one_file() {
    // Classic cells checkpoint first; mix entries then append to the same
    // file without disturbing them, and the grown file replays both.
    let path = tmp_path("mixed-generations");
    let classic = classic_cells();
    harness(&path).evaluate(&classic);
    let classic_entries = Checkpoint::open(&path).expect("reopen").len();
    assert_eq!(
        classic_entries, 4,
        "2 classic cells + 2 baselines are durable"
    );

    // Run the mix cells against the same file: no classic entry matches a
    // mix cell or solo, so the mix entries append.
    {
        let report = harness(&path).try_evaluate_mix(&mix_cells());
        assert!(report.is_clean(), "{}", report.failure_report());
        assert_eq!(report.checkpoint_hits, 0, "no mix entry predates this run");
    }

    // The grown file now serves both generations entirely from replay.
    let cp = Checkpoint::open(&path).expect("reopen grown file");
    assert_eq!(
        cp.len(),
        classic_entries + 6,
        "old entries survived the append"
    );
    let mut h = ParallelHarness::with_jobs(2).quiet().with_checkpoint(cp);
    let classic_report = h.try_evaluate(&classic);
    assert!(classic_report.is_clean());
    assert_eq!(classic_report.checkpoint_hits, 4, "classic cells replay");
    let mix_report = h.try_evaluate_mix(&mix_cells());
    assert!(mix_report.is_clean());
    assert_eq!(mix_report.checkpoint_hits, 6, "mix cells replay");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mixed_old_new_checkpoint_retries_only_failed_cells() {
    // A grid containing a cell that panics: the healthy cells and solos
    // are made durable; the resume replays them and re-attempts only the
    // broken cell.
    let path = tmp_path("retry-failed");
    let broken = MixConfig {
        name: "broken".to_string(),
        cores: vec![Slot {
            stream: Stream::Synthetic(Workload::Em3d),
            stream_core: 0,
            prefetcher: PrefetcherKind::Faulty { panic_after: 100 },
            budget_percent: 100,
        }],
        ramp: None,
    };
    let mut cells = mix_cells();
    cells.push(mix_spec(&broken, 1, Pressure::NONE));

    let durable = {
        let report = harness(&path).try_evaluate_mix(&cells);
        assert!(!report.is_clean(), "the faulty cell must fail");
        assert!(report.evaluations[0].is_some() && report.evaluations[1].is_some());
        assert!(report.evaluations[2].is_none());
        Checkpoint::open(&path).expect("reopen").len()
    };
    assert_eq!(
        durable, 6,
        "every healthy mix cell and solo is durable; the failed cell is not"
    );

    // Resume over the same grid: the 6 healthy entries replay; only the
    // broken cell's solo re-simulates (and fails again, listed as data).
    let report = harness(&path).try_evaluate_mix(&cells);
    assert_eq!(
        report.checkpoint_hits, 6,
        "healthy cells replay, not re-run"
    );
    assert!(!report.is_clean(), "the retried cell still fails");
    assert!(report.evaluations[0].is_some() && report.evaluations[1].is_some());
    assert!(report.evaluations[2].is_none());
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.reason.contains("FaultyPrefetcher panicked deliberately")),
        "the re-attempted failure is the broken solo: {}",
        report.failure_report()
    );
    let _ = std::fs::remove_file(&path);
}
