//! Bit-for-bit lock on a handful of small-scale cells: each cell's
//! `bingo_benchmark::digest` (every simulated counter of the result) must
//! equal the value committed in `tests/corpus/run_spec.digests`.
//!
//! The cells span the paths a refactor of the run description can break:
//! the classic 4-core grid, a 1-core machine, Bingo variants (history
//! size, vote threshold, region size, training signal), a 2-core mix under
//! both throttle modes, and a trace-replay slot. The digest leaves the
//! telemetry report out, so each telemetry-on cell also pins an FNV-1a
//! hash of its report's `Debug` text: em3d under Bingo, whose ledger
//! settles thousands of prefetches, and the `percore` mix. A mismatch
//! prints every cell's current line, so an intended change of results is
//! recorded by pasting them.

use std::path::PathBuf;

use bingo::{BingoConfig, EventKind};
use bingo_bench::{polite_vs_storm, ParallelHarness, PrefetcherKind, Pressure, RunScale, RunSpec};
use bingo_sim::{RegionGeometry, TelemetryLevel, ThrottleMode};
use bingo_workloads::{capture_workload, TraceWorkload, Workload};

const SCALE: RunScale = RunScale {
    instructions_per_core: 100_000,
    warmup_per_core: 400_000,
    seed: 42,
};

const CORPUS: &str = "tests/corpus/run_spec.digests";

fn classic(workload: Workload, kind: PrefetcherKind) -> RunSpec {
    RunSpec::classic(SCALE, workload, kind)
}

/// Bingo on Mix 2 with `edit` applied to the paper configuration. At this
/// scale em3d cannot tell 4 K history entries or overflow-only training
/// from the paper's Bingo; Mix 2 separates every variant.
fn bingo_with(edit: impl FnOnce(&mut BingoConfig)) -> RunSpec {
    let mut cfg = BingoConfig::paper();
    edit(&mut cfg);
    classic(Workload::Mix2, PrefetcherKind::Bingo(cfg))
}

fn mix(telemetry: TelemetryLevel, throttle: ThrottleMode) -> RunSpec {
    RunSpec {
        telemetry,
        throttle,
        ..RunSpec::mix(SCALE, &polite_vs_storm(), 2, Pressure::CONSTRAINED)
    }
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Scale of the trace-replay cell, whose capture is recorded per run.
const TRACE_SCALE: RunScale = RunScale {
    instructions_per_core: 60_000,
    warmup_per_core: 60_000,
    seed: SCALE.seed,
};

/// A fresh 4-core em3d capture covering [`TRACE_SCALE`].
fn em3d_capture() -> (PathBuf, TraceWorkload) {
    let dir = std::env::temp_dir()
        .join("bingo-digest-lock")
        .join(format!("em3d-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let records = TRACE_SCALE.warmup_per_core + TRACE_SCALE.instructions_per_core + 256;
    capture_workload(Workload::Em3d, 4, TRACE_SCALE.seed, records, 4096, &dir).expect("capture");
    let trace = TraceWorkload::open(&dir).expect("open capture");
    (dir, trace)
}

fn cells(trace: &TraceWorkload) -> Vec<(&'static str, RunSpec)> {
    let replay = RunSpec::trace(TRACE_SCALE, trace, PrefetcherKind::sms());
    vec![
        ("em3d/None", classic(Workload::Em3d, PrefetcherKind::None)),
        (
            "em3d/Bingo",
            classic(Workload::Em3d, PrefetcherKind::bingo()),
        ),
        (
            "em3d@1/Bingo",
            classic(Workload::Em3d, PrefetcherKind::bingo()).solo(0),
        ),
        (
            "em3d/Bingo/counts",
            RunSpec {
                telemetry: TelemetryLevel::Counts,
                ..classic(Workload::Em3d, PrefetcherKind::bingo())
            },
        ),
        ("em3d/SMS", classic(Workload::Em3d, PrefetcherKind::sms())),
        (
            "em3d/3-event",
            classic(
                Workload::Em3d,
                PrefetcherKind::Events {
                    first: EventKind::PcAddress,
                    count: 3,
                },
            ),
        ),
        (
            "mix2/Bingo",
            classic(Workload::Mix2, PrefetcherKind::bingo()),
        ),
        (
            "mix2/Bingo-4K-entries",
            bingo_with(|c| c.history_entries = 4096),
        ),
        ("mix2/Bingo-vote35", bingo_with(|c| c.vote_threshold = 0.35)),
        (
            "mix2/Bingo-region1KB",
            bingo_with(|c| c.region = RegionGeometry::new(1024)),
        ),
        (
            "mix2/Bingo-region4KB",
            bingo_with(|c| c.region = RegionGeometry::new(4096)),
        ),
        (
            "mix2/Bingo-overflow-only",
            bingo_with(|c| c.train_on_eviction = false),
        ),
        (
            "polite-vs-storm@2/constrained/feedback",
            mix(TelemetryLevel::Off, ThrottleMode::Feedback),
        ),
        (
            "polite-vs-storm@2/constrained/percore",
            mix(TelemetryLevel::Off, ThrottleMode::Percore),
        ),
        (
            "polite-vs-storm@2/constrained/percore/counts",
            mix(TelemetryLevel::Counts, ThrottleMode::Percore),
        ),
        ("trace-em3d/SMS", replay),
    ]
}

#[test]
fn small_cells_reproduce_their_committed_digests() {
    let (dir, trace) = em3d_capture();
    let (names, specs): (Vec<&str>, Vec<RunSpec>) = cells(&trace).into_iter().unzip();
    let results = ParallelHarness::with_jobs(2)
        .quiet()
        .try_run(&specs)
        .into_complete();
    std::fs::remove_dir_all(&dir).ok();
    let actual: Vec<String> = names
        .iter()
        .zip(&results)
        .map(|(name, result)| {
            let mut line = format!("{name} {:016x}", bingo_benchmark::digest(result));
            if let Some(report) = &result.telemetry {
                let text = format!("{report:?}");
                line.push_str(&format!(" telemetry={:016x}", fnv1a(text.as_bytes())));
            }
            line
        })
        .collect();
    let committed = std::fs::read_to_string(CORPUS).expect("read the digest corpus");
    let expected: Vec<&str> = committed
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert_eq!(
        expected,
        actual,
        "simulated results changed; the current digests are:\n{}",
        actual.join("\n")
    );
}
