//! Graceful-degradation stress test: adversarial workloads under memory
//! resource pressure.
//!
//! Sweeps the [`Workload::STRESS`] family — traffic engineered so that an
//! aggressive prefetcher *hurts* — across pressure levels that tighten
//! DRAM bandwidth and bound the prefetch queue, comparing three
//! configurations per cell:
//!
//! * **off** — no prefetcher (the safety baseline),
//! * **unthrottled** — Bingo with `BINGO_THROTTLE=off`,
//! * **feedback** — Bingo with the closed-loop chip-wide throttle,
//! * **percore** — Bingo with per-core controllers and the starvation
//!   watchdog (`BINGO_THROTTLE=percore`).
//!
//! The acceptance criterion, asserted at the end of the sweep:
//!
//! 1. feedback-throttled *and* percore-throttled Bingo each stay within
//!    5% of the prefetcher-off IPC on *every* (pressure, workload) cell,
//!    and
//! 2. unthrottled Bingo loses more than 5% on at least one cell —
//!    otherwise the stress family is not adversarial enough to prove
//!    anything about graceful degradation.
//!
//! Each pressure level bounds the prefetch queue at its own preset depth.
//! `BINGO_STATS` exports each cell's full `SimResult` as JSON lines. The
//! throttle mode is the experiment's variable, so `BINGO_THROTTLE` does
//! not apply.

use bingo_bench::{
    f2, telemetry_from_env, ParallelHarness, PrefetcherKind, Pressure, RunScale, RunSpec, Table,
};
use bingo_sim::ThrottleMode;
use bingo_workloads::Workload;

/// Half the paper's bandwidth, then roughly a quarter (the shared
/// [`Pressure`] presets the multi-core capacity search also uses). The
/// queue bound tightens alongside so both drop paths (bandwidth
/// contention and queue-full) carry load.
const PRESSURES: [Pressure; 2] = [Pressure::CONSTRAINED, Pressure::SCARCE];

/// The four configurations compared in every cell.
fn configs() -> [(&'static str, PrefetcherKind, ThrottleMode); 4] {
    [
        ("off", PrefetcherKind::None, ThrottleMode::Off),
        ("unthrottled", PrefetcherKind::bingo(), ThrottleMode::Off),
        ("feedback", PrefetcherKind::bingo(), ThrottleMode::Feedback),
        ("percore", PrefetcherKind::bingo(), ThrottleMode::Percore),
    ]
}

/// Tolerated IPC loss versus the prefetcher-off baseline.
const TOLERANCE: f64 = 0.05;

fn main() {
    let scale = RunScale::from_args();
    let telemetry = telemetry_from_env();
    let mut specs: Vec<RunSpec> = Vec::new();
    for p in PRESSURES {
        for w in Workload::STRESS {
            for (_, kind, throttle) in configs() {
                let mut spec = RunSpec::classic(scale, w, kind, telemetry, throttle);
                // Two cores keep the sweep fast; with a single channel at
                // reduced bandwidth they contend plenty.
                spec.slots.truncate(2);
                spec.pressure = p;
                specs.push(spec);
            }
        }
    }
    let mut harness = ParallelHarness::from_env();
    harness.export_stats_as("stress_degrade");
    let results = harness.try_run(&specs).into_complete();

    let mut t = Table::new(vec![
        "Pressure",
        "Workload",
        "Off IPC",
        "Unthrottled",
        "Feedback",
        "Percore",
    ]);
    // Speedup of each Bingo configuration over the prefetcher-off run of
    // the same cell; < 1.0 means the prefetcher made things worse.
    let mut throttled_violations: Vec<String> = Vec::new();
    let mut worst_unthrottled = (f64::INFINITY, String::new());
    for (pi, p) in PRESSURES.iter().enumerate() {
        for (wi, w) in Workload::STRESS.into_iter().enumerate() {
            let base = (pi * Workload::STRESS.len() + wi) * configs().len();
            let off = &results[base];
            let unthrottled = results[base + 1].speedup_over(off);
            let feedback = results[base + 2].speedup_over(off);
            let percore = results[base + 3].speedup_over(off);
            let cell = format!("{}/{}", p.name, w.name());
            if unthrottled < worst_unthrottled.0 {
                worst_unthrottled = (unthrottled, cell.clone());
            }
            if feedback < 1.0 - TOLERANCE {
                throttled_violations.push(format!("{cell} (feedback): {feedback:.3}x"));
            }
            if percore < 1.0 - TOLERANCE {
                throttled_violations.push(format!("{cell} (percore): {percore:.3}x"));
            }
            t.row(vec![
                p.name.into(),
                w.name().into(),
                f2(off.aggregate_ipc()),
                format!("{}x", f2(unthrottled)),
                format!("{}x", f2(feedback)),
                format!("{}x", f2(percore)),
            ]);
        }
    }
    println!(
        "Graceful degradation under resource pressure\n\
         (speedup over the no-prefetcher baseline; 1.00x = harmless).\n\n{t}"
    );
    println!(
        "Worst unthrottled cell: {} at {:.3}x",
        worst_unthrottled.1, worst_unthrottled.0
    );

    assert!(
        throttled_violations.is_empty(),
        "throttling failed to degrade gracefully — cells more than \
         {:.0}% below the prefetcher-off baseline: {}",
        TOLERANCE * 100.0,
        throttled_violations.join(", ")
    );
    assert!(
        worst_unthrottled.0 < 1.0 - TOLERANCE,
        "no adversarial cell hurt the unthrottled prefetcher by more than \
         {:.0}% (worst: {} at {:.3}x) — the stress family is not stressing",
        TOLERANCE * 100.0,
        worst_unthrottled.1,
        worst_unthrottled.0
    );
    println!(
        "\nPASS: feedback and percore throttling stayed within {:.0}% of \
         prefetcher-off everywhere; unthrottled lost {:.1}% on {}.",
        TOLERANCE * 100.0,
        (1.0 - worst_unthrottled.0) * 100.0,
        worst_unthrottled.1
    );
}
