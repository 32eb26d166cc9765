//! Checkpoint compatibility of the per-core throttle mode: `percore`
//! sweeps resume bit-for-bit from their own keys (the throttle mode is
//! part of every key), and those keys are disjoint from both the
//! unthrottled and the chip-wide-feedback runs sharing the same file — a
//! mixed-mode checkpoint serves all three without cross-talk.

use std::path::PathBuf;

use bingo_bench::{
    polite_vs_storm, Checkpoint, MixEvaluation, ParallelHarness, Pressure, RunScale, RunSpec,
};
use bingo_sim::ThrottleMode;

fn scale() -> RunScale {
    RunScale {
        instructions_per_core: 15_000,
        warmup_per_core: 5_000,
        seed: 21,
    }
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("bingo-percore-resume-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn specs(throttle: ThrottleMode) -> Vec<RunSpec> {
    [Pressure::NONE, Pressure::CONSTRAINED]
        .map(|p| RunSpec {
            throttle,
            ..RunSpec::mix(scale(), &polite_vs_storm(), 2, p)
        })
        .to_vec()
}

fn harness(cp: Option<Checkpoint>) -> ParallelHarness {
    let h = ParallelHarness::with_jobs(2).quiet();
    match cp {
        Some(cp) => h.with_checkpoint(cp),
        None => h,
    }
}

/// NaN-proof bitwise comparison of two mix evaluations.
fn assert_bit_identical(fresh: &MixEvaluation, resumed: &MixEvaluation, what: &str) {
    assert_eq!(fresh.result, resumed.result, "{what}: result differs");
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&fresh.fairness.core_ipcs),
        bits(&resumed.fairness.core_ipcs),
        "{what}: core IPCs differ"
    );
}

#[test]
fn percore_mix_keys_resume_bit_for_bit() {
    let path = tmp_path("percore-resume");

    // The reference: an uncheckpointed percore sweep. Its results carry
    // QoS reports, so this also pins that the optional `qos` field
    // round-trips through the checkpoint in a real sweep (not just the
    // serializer unit tests).
    let percore = specs(ThrottleMode::Percore);
    let fresh = harness(None).evaluate_mix(&percore);

    {
        let mut h = harness(Some(Checkpoint::open(&path).expect("create checkpoint")));
        let report = h.try_evaluate_mix(&percore);
        assert!(report.is_clean(), "{}", report.failure_report());
        assert_eq!(report.checkpoint_hits, 0, "first run simulates everything");
    }

    let cp = Checkpoint::open(&path).expect("reopen checkpoint");
    assert_eq!(cp.len(), 6, "2 mix cells + 4 solo runs are durable");
    let mut h = harness(Some(cp));
    let report = h.try_evaluate_mix(&percore);
    assert!(report.is_clean(), "{}", report.failure_report());
    assert_eq!(
        report.checkpoint_hits, 6,
        "everything replays, nothing re-simulates"
    );
    let resumed = report.into_complete();
    assert_eq!(fresh.len(), resumed.len());
    for (f, r) in fresh.iter().zip(&resumed) {
        let what = f.spec.label();
        assert_bit_identical(f, r, &what);
        let qos = r
            .result
            .qos
            .as_ref()
            .unwrap_or_else(|| panic!("{what}: replayed percore run lost its QoS report"));
        assert_eq!(qos.cores.len(), 2, "{what}: one QoS row per core");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn percore_entries_share_a_file_with_older_throttle_generations() {
    // One checkpoint file, three throttle modes: an unthrottled sweep, a
    // chip-wide feedback sweep, then a percore sweep. Each must populate
    // its own keys — zero hits on first contact — and replay fully from
    // them afterwards, leaving the others untouched.
    let path = tmp_path("mixed-throttle-generations");
    let generations = [
        ThrottleMode::Off,
        ThrottleMode::Feedback,
        ThrottleMode::Percore,
    ];

    let mut expected_len = 0;
    for &mode in &generations {
        let mut h = harness(Some(Checkpoint::open(&path).expect("open checkpoint")));
        let report = h.try_evaluate_mix(&specs(mode));
        assert!(report.is_clean(), "{}", report.failure_report());
        assert_eq!(
            report.checkpoint_hits, 0,
            "{mode} sweep must not replay another generation's entries"
        );
        expected_len += 6;
        let durable = Checkpoint::open(&path).expect("reopen").len();
        assert_eq!(
            durable, expected_len,
            "{mode} sweep appended its own 6 entries without clobbering"
        );
    }

    // The grown file now serves every generation entirely from replay.
    for &mode in &generations {
        let mut h = harness(Some(Checkpoint::open(&path).expect("reopen grown file")));
        let report = h.try_evaluate_mix(&specs(mode));
        assert!(report.is_clean(), "{}", report.failure_report());
        assert_eq!(report.checkpoint_hits, 6, "{mode} cells replay");
    }
    let _ = std::fs::remove_file(&path);
}
