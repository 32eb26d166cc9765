//! The run description's contracts: its key is complete and lossless,
//! older checkpoint formats are never replayed into it, and the parallel
//! engine reproduces a direct serial run bit for bit.

use std::path::{Path, PathBuf};

use bingo::BingoConfig;
use bingo_bench::{
    Checkpoint, MixConfig, ParallelHarness, PrefetcherKind, Pressure, RunScale, RunSpec, Slot,
    Stream,
};
use bingo_sim::{ChaosPlan, CoverageReport, RegionGeometry, TelemetryLevel, ThrottleMode};
use bingo_workloads::{capture_workload, TraceWorkload, Workload};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("bingo-run-spec-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A directory `TraceWorkload::open` accepts; the key never reads it.
fn fake_trace(dir: &Path) -> TraceWorkload {
    std::fs::write(dir.join("core0.btrc"), b"").expect("probe file");
    TraceWorkload::open(dir).expect("open")
}

/// A spec with every field away from its default.
fn full_spec(trace: &TraceWorkload) -> RunSpec {
    RunSpec {
        scale: RunScale {
            instructions_per_core: 1_000,
            warmup_per_core: 500,
            seed: 3,
        },
        pressure: Pressure::SCARCE,
        slots: vec![
            Slot {
                stream: Stream::Synthetic(Workload::Em3d),
                stream_core: 1,
                prefetcher: PrefetcherKind::BingoFaulty {
                    fault_seed: 9,
                    rate: 0.05,
                },
                budget_percent: 50,
            },
            Slot {
                stream: Stream::Trace(trace.clone()),
                stream_core: 2,
                prefetcher: PrefetcherKind::bingo(),
                budget_percent: 75,
            },
        ],
        telemetry: TelemetryLevel::Counts,
        throttle: ThrottleMode::Percore,
        chaos: Some(ChaosPlan::standard(5)),
    }
}

fn assert_legacy_free(key: &str) {
    assert!(
        !key.starts_with(|c: char| c.is_ascii_digit())
            && !["trace:", "mix:", "mix-solo:"]
                .iter()
                .any(|p| key.starts_with(p)),
        "key collides with a legacy namespace: {key}"
    );
}

#[test]
fn every_field_perturbation_changes_the_key() {
    let (dir, other_dir) = (scratch("keys"), scratch("keys-other"));
    let (trace, other_trace) = (fake_trace(&dir), fake_trace(&other_dir));
    let base = full_spec(&trace);
    let base_key = base.key();
    assert_legacy_free(&base_key);

    type Edit = Box<dyn Fn(&mut RunSpec)>;
    // Slot 1's prefetcher as the paper's Bingo with one field edited.
    let bingo = |edit: fn(&mut BingoConfig)| -> Edit {
        Box::new(move |s| {
            let mut cfg = BingoConfig::paper();
            edit(&mut cfg);
            s.slots[1].prefetcher = PrefetcherKind::Bingo(cfg);
        })
    };
    let edits: Vec<(&str, Edit)> = vec![
        (
            "instructions",
            Box::new(|s| s.scale.instructions_per_core += 1),
        ),
        ("warmup", Box::new(|s| s.scale.warmup_per_core += 1)),
        ("seed", Box::new(|s| s.scale.seed += 1)),
        ("channels", Box::new(|s| s.pressure.channels += 1)),
        (
            "transfer cycles",
            Box::new(|s| s.pressure.transfer_cycles += 1),
        ),
        ("queue", Box::new(|s| s.pressure.queue = Some(9))),
        ("queue unbounded", Box::new(|s| s.pressure.queue = None)),
        ("telemetry", Box::new(|s| s.telemetry = TelemetryLevel::Off)),
        (
            "throttle",
            Box::new(|s| s.throttle = ThrottleMode::Feedback),
        ),
        (
            "chaos seed",
            Box::new(|s| s.chaos = Some(ChaosPlan::standard(6))),
        ),
        ("chaos off", Box::new(|s| s.chaos = None)),
        (
            "slot stream",
            Box::new(|s| s.slots[0].stream = Stream::Synthetic(Workload::Streaming)),
        ),
        ("slot stream core", Box::new(|s| s.slots[0].stream_core = 0)),
        (
            "fault seed",
            Box::new(|s| {
                s.slots[0].prefetcher = PrefetcherKind::BingoFaulty {
                    fault_seed: 10,
                    rate: 0.05,
                }
            }),
        ),
        (
            "bingo region",
            bingo(|c| c.region = RegionGeometry::new(1024)),
        ),
        ("bingo history entries", bingo(|c| c.history_entries /= 2)),
        ("bingo history ways", bingo(|c| c.history_ways /= 2)),
        (
            "bingo accumulation entries",
            bingo(|c| c.accumulation_entries += 1),
        ),
        (
            "bingo vote threshold past display precision",
            bingo(|c| c.vote_threshold += 1e-12),
        ),
        (
            "bingo min footprint",
            bingo(|c| c.min_footprint_blocks += 1),
        ),
        (
            "bingo training signal",
            bingo(|c| c.train_on_eviction = false),
        ),
        ("slot budget", Box::new(|s| s.slots[1].budget_percent = 100)),
        (
            "trace directory",
            Box::new(move |s| s.slots[1].stream = Stream::Trace(other_trace.clone())),
        ),
        ("core count", Box::new(|s| s.slots.truncate(1))),
    ];
    for (what, edit) in &edits {
        let mut spec = base.clone();
        edit(&mut spec);
        let key = spec.key();
        assert_ne!(key, base_key, "{what} does not reach the key");
        assert_legacy_free(&key);
    }

    // The perturbations the key deliberately ignores: a pressure preset's
    // name (a label) and the seed of a spec whose streams are all
    // recorded traces.
    let mut renamed = base.clone();
    renamed.pressure.name = "renamed";
    assert_eq!(renamed.key(), base_key, "labels stay out of the key");
    assert_eq!(
        base.baseline().slots[0].prefetcher,
        PrefetcherKind::None,
        "baselines drop the prefetchers"
    );
    let replay = RunSpec::trace(base.scale, &trace, PrefetcherKind::bingo());
    let mut reseeded = replay.clone();
    reseeded.scale.seed += 1;
    assert_eq!(
        replay.key(),
        reseeded.key(),
        "the seed must not split trace entries"
    );
    assert_legacy_free(&replay.key());
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&other_dir).ok();
}

#[test]
fn legacy_checkpoint_lines_are_never_replayed() {
    let dir = scratch("legacy");
    let scale = RunScale {
        instructions_per_core: 4_000,
        warmup_per_core: 1_000,
        seed: 21,
    };
    let records = scale.warmup_per_core + scale.instructions_per_core + 256;
    let trace_dir = dir.join("streaming");
    capture_workload(Workload::Streaming, 4, scale.seed, records, 512, &trace_dir)
        .expect("capture");
    let trace = TraceWorkload::open(&trace_dir).expect("open capture");
    let mix = MixConfig::new(
        "pair",
        &[
            (Workload::Streaming, PrefetcherKind::Stride, 100),
            (Workload::Em3d, PrefetcherKind::None, 100),
        ],
        None,
    );
    let classic = RunSpec::classic(scale, Workload::Em3d, PrefetcherKind::Stride);
    let replay = RunSpec::trace(scale, &trace, PrefetcherKind::NextLine(1));
    let mixed = RunSpec::mix(scale, &mix, 2, Pressure::NONE);
    let sweep = |h: &mut ParallelHarness| {
        let classic = h.try_evaluate(std::slice::from_ref(&classic));
        let replay = h.try_run(std::slice::from_ref(&replay));
        let mixed = h.try_evaluate_mix(std::slice::from_ref(&mixed));
        let hits = classic.checkpoint_hits + replay.checkpoint_hits + mixed.checkpoint_hits;
        (
            classic.into_complete().remove(0).result,
            replay.into_complete().remove(0),
            mixed.into_complete().remove(0).result,
            hits,
        )
    };
    let fresh = sweep(&mut ParallelHarness::with_jobs(2).quiet());

    // One line per older key format for exactly these cells, each holding
    // a result that is wrong for its cell: replaying any of them would
    // show up as a changed result.
    let path = dir.join("legacy.jsonl");
    {
        let cp = Checkpoint::open(&path).expect("create checkpoint");
        let legacy = [
            "21/4000/1000/Em3d/Stride".to_string(),
            format!("trace:{}/4000/1000/NextLine(1)", trace.key()),
            "mix:21/4000/1000/pair@2/c0=streaming+Stride,c1=em3d+None".to_string(),
        ];
        let wrong = [&fresh.2, &fresh.0, &fresh.1];
        for (key, result) in legacy.iter().zip(wrong) {
            cp.record(key, result).expect("write legacy line");
        }
    }
    let cp = Checkpoint::open(&path).expect("reopen checkpoint");
    assert_eq!(cp.len(), 0, "legacy lines are never loaded");
    assert_eq!(cp.skipped_lines(), 3, "legacy lines are counted as stale");
    let resumed = sweep(&mut ParallelHarness::with_jobs(2).quiet().with_checkpoint(cp));
    assert_eq!(resumed.3, 0, "no legacy line may be looked up");
    assert_eq!(resumed.0, fresh.0, "classic cell replayed a legacy line");
    assert_eq!(resumed.1, fresh.1, "trace cell replayed a legacy line");
    assert_eq!(resumed.2, fresh.2, "mix cell replayed a legacy line");
    std::fs::remove_dir_all(&dir).ok();
}

/// The engine at 4 workers against the simple serial reference: a direct
/// [`RunSpec::run`] of each cell and of its baseline, compared with
/// [`CoverageReport::from_runs`], on a 3 × 3 grid — identical results,
/// speedups and coverage, independent of scheduling.
#[test]
fn parallel_matches_serial_bit_for_bit() {
    let scale = RunScale {
        instructions_per_core: 20_000,
        warmup_per_core: 10_000,
        seed: 7,
    };
    let specs = RunSpec::grid(
        scale,
        &[Workload::Em3d, Workload::Streaming, Workload::Mix1],
        &[
            PrefetcherKind::bingo(),
            PrefetcherKind::Bop,
            PrefetcherKind::sms(),
        ],
    );
    let parallel = ParallelHarness::with_jobs(4).quiet().evaluate(&specs);
    for (spec, pe) in specs.iter().zip(&parallel) {
        let what = spec.label();
        let result = spec.run(None).expect("serial cell completes");
        let baseline = spec
            .baseline()
            .run(None)
            .expect("serial baseline completes");
        assert_eq!(pe.spec.key(), spec.key(), "{what}: input order lost");
        assert_eq!(result, pe.result, "{what}: result differs");
        assert_eq!(baseline, pe.baseline, "{what}: baseline differs");
        assert_eq!(
            result.speedup_over(&baseline).to_bits(),
            pe.speedup.to_bits(),
            "{what}: speedup differs"
        );
        assert_eq!(
            CoverageReport::from_runs(&result, &baseline),
            pe.coverage,
            "{what}: coverage report differs"
        );
    }
}
