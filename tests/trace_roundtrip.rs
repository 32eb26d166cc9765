//! Capture → replay round-trip determinism: for every synthetic workload
//! (the Table II suite *and* the adversarial stress workloads), recording
//! the generator streams to framed `.btrc` files and replaying them
//! through the simulator produces a [`SimResult`] bit-for-bit equal to
//! running the live generators — the property that makes captures
//! trustworthy substitutes for the generators in every figure.

use std::path::PathBuf;

use bingo_repro::bench::{ensure_capture, run_one, PrefetcherKind, RunScale, RunSpec};
use bingo_repro::sim::{SimResult, SystemConfig, TelemetryLevel, ThrottleMode};
use bingo_repro::workloads::{capture_workload, TraceWorkload, Workload};

const SCALE: RunScale = RunScale {
    instructions_per_core: 12_000,
    warmup_per_core: 8_000,
    seed: 42,
};

/// Fetch-ahead slack past the retirement budget (see `trace_capture`).
const SLACK: u64 = 256;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("bingo-roundtrip-tests")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Captures `workload`, replays it with `kind`, and returns
/// (live result, replayed result) with the replay's ingest report
/// detached after asserting it is clean — the only field a live run does
/// not carry.
fn round_trip(workload: Workload, kind: PrefetcherKind) -> (SimResult, SimResult) {
    let cores = SystemConfig::paper().cores;
    let records = SCALE.warmup_per_core + SCALE.instructions_per_core + SLACK;
    let dir = scratch(workload.slug());
    capture_workload(workload, cores, SCALE.seed, records, 1 << 12, &dir)
        .unwrap_or_else(|e| panic!("capture of {workload} failed: {e}"));
    let trace = TraceWorkload::open(&dir).expect("open capture");
    let mut replayed = RunSpec::trace(SCALE, &trace, kind, TelemetryLevel::Off, ThrottleMode::Off)
        .run(None)
        .unwrap_or_else(|abort| panic!("replay of {workload} aborted: {abort}"));
    let ingest = replayed
        .ingest
        .take()
        .expect("replay attaches an ingest report");
    assert!(
        ingest.is_clean(),
        "{workload}: fresh capture quarantined: {ingest}"
    );
    assert!(
        ingest.delivered_records <= records * cores as u64,
        "{workload}: replay wrapped into a second pass"
    );
    let live = run_one(workload, kind, SCALE);
    std::fs::remove_dir_all(&dir).ok();
    (live, replayed)
}

#[test]
fn every_synthetic_workload_round_trips_bit_for_bit() {
    for w in Workload::ALL {
        let (live, replayed) = round_trip(w, PrefetcherKind::None);
        assert_eq!(
            live, replayed,
            "{w}: replay diverged from the live generators"
        );
    }
}

#[test]
fn every_stress_workload_round_trips_bit_for_bit() {
    for w in Workload::STRESS {
        let (live, replayed) = round_trip(w, PrefetcherKind::None);
        assert_eq!(
            live, replayed,
            "{w}: replay diverged from the live generators"
        );
    }
}

/// The round trip holds with a real prefetcher in the machine too: the
/// prefetcher sees the identical access stream, so coverage-relevant
/// state (cache contents, MSHR traffic, prefetch fills) matches exactly.
#[test]
fn round_trip_holds_under_bingo() {
    for w in [Workload::Streaming, Workload::Em3d] {
        let (live, replayed) = round_trip(w, PrefetcherKind::bingo());
        assert_eq!(live, replayed, "{w}: Bingo replay diverged");
    }
}

/// A capture shorter than the run would wrap during replay and silently
/// measure a different program: `ensure_capture` re-records it, while a
/// capture that covers the run is reused with its bytes untouched.
#[test]
fn short_captures_are_rerecorded_and_long_ones_reused() {
    let dir = scratch("reuse");
    let (w, cores, chunk) = (Workload::Streaming, 2, 512);
    let short = 1_000;
    capture_workload(w, cores, SCALE.seed, short, chunk, &dir).expect("short capture");
    let needed = 3_000;
    let records = |dir: &std::path::Path| {
        let file = std::fs::File::open(dir.join("core1.btrc")).expect("core1.btrc");
        let reader = bingo_repro::trace::TraceReader::new(std::io::BufReader::new(file))
            .expect("header parses");
        reader.header().total_records
    };
    assert_eq!(records(&dir), short);

    ensure_capture(w, cores, SCALE.seed, needed, chunk, &dir).expect("re-record");
    assert_eq!(records(&dir), needed, "the short capture was re-recorded");

    let bytes = |dir: &std::path::Path| -> Vec<Vec<u8>> {
        (0..cores)
            .map(|i| std::fs::read(dir.join(format!("core{i}.btrc"))).expect("read"))
            .collect()
    };
    let before = bytes(&dir);
    let trace = ensure_capture(w, cores, SCALE.seed, needed - 1, chunk, &dir).expect("reuse");
    assert_eq!(
        bytes(&dir),
        before,
        "a long enough capture is reused untouched"
    );
    assert_eq!(trace.captured_cores(), cores);
    std::fs::remove_dir_all(&dir).ok();
}
