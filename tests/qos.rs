//! Per-core QoS acceptance: the headline claim of `fig_qos`, asserted
//! over the declared `polite-vs-storm` mix.
//!
//! PR 8 measured that the chip-wide feedback ladder starves the polite
//! core of `polite-vs-storm` (−5.2% IPC at full scale) because the storm
//! core's wasted prefetches walk *every* core's prefetcher down the
//! ladder. The per-core throttle must recover that loss — the polite
//! core's controller sees its own high accuracy and stays at `Full` —
//! without giving back the aggregate win the chip-wide throttle earned
//! by clamping the storm.
//!
//! The scale here is the smallest at which the starvation dynamic
//! manifests (the storm needs enough instructions past warmup for its
//! waste to trip the ladder); `fig_qos` reports the same experiment at
//! full scale.

use bingo_bench::{polite_vs_storm, MixConfig, Pressure, RunScale, RunSpec};
use bingo_sim::{SimResult, ThrottleMode};

const SCALE: RunScale = RunScale {
    instructions_per_core: 400_000,
    warmup_per_core: 600_000,
    seed: 42,
};

/// `mix` at 2 cores under `constrained` pressure, run directly.
fn run_constrained(mix: &MixConfig, scale: RunScale, throttle: ThrottleMode) -> SimResult {
    RunSpec {
        throttle,
        ..RunSpec::mix(scale, mix, 2, Pressure::CONSTRAINED)
    }
    .run(None)
    .expect("qos cell completes")
}

/// Aggregate throughput under the mix-fairness convention: the sum of
/// per-core IPCs (what PR 8's published starvation verdict used).
fn sum_ipc(r: &SimResult) -> f64 {
    r.core_ipcs().iter().sum()
}

#[test]
fn percore_recovers_the_polite_core_without_losing_aggregate_ipc() {
    let mix = polite_vs_storm();
    let run = |throttle| run_constrained(&mix, SCALE, throttle);
    let off = run(ThrottleMode::Off);
    let feedback = run(ThrottleMode::Feedback);
    let percore = run(ThrottleMode::Percore);

    let polite_off = off.core_ipcs()[0];
    let polite_feedback = feedback.core_ipcs()[0];
    let polite_percore = percore.core_ipcs()[0];

    // The premise: the chip-wide ladder really does starve the polite
    // core at this scale — otherwise the recovery below proves nothing.
    assert!(
        polite_feedback < 0.99 * polite_off,
        "premise failed: chip-wide feedback does not starve the polite core \
         here (off {polite_off:.4}, feedback {polite_feedback:.4}); \
         the recovery claim is vacuous at this scale"
    );

    // The claim, clause 1: per-core throttling keeps the polite core
    // within 1% of its unthrottled IPC.
    assert!(
        polite_percore >= 0.99 * polite_off,
        "per-core throttle starves the polite core: off {polite_off:.4}, \
         percore {polite_percore:.4} ({:.1}%)",
        100.0 * polite_percore / polite_off
    );

    // The claim, clause 2: no aggregate-IPC giveback versus the
    // chip-wide feedback arm.
    assert!(
        sum_ipc(&percore) >= sum_ipc(&feedback),
        "per-core throttle lost aggregate IPC: feedback {:.4}, percore {:.4}",
        sum_ipc(&feedback),
        sum_ipc(&percore)
    );

    // The QoS report behind the verdict is well-formed: one row per
    // core, both controllers judged epochs, attribution is consistent,
    // and the accuracy split matches the story — the polite core's
    // prefetches are mostly used, the storm's mostly wasted.
    let qos = percore
        .qos
        .as_ref()
        .expect("percore run attaches a QoS report");
    assert_eq!(qos.cores.len(), 2, "one QoS row per core");
    for (i, c) in qos.cores.iter().enumerate() {
        assert!(c.demand_accesses > 0, "core {i} saw no attributed demand");
        assert!(c.epochs > 0, "core {i}'s controller never judged an epoch");
        assert!(
            c.pf_used <= c.pf_issued,
            "core {i} used more prefetches than it issued"
        );
    }
    assert!(
        qos.watchdog_epochs > 0,
        "the watchdog never judged an epoch"
    );
    let accuracy = |i: usize| qos.cores[i].pf_used as f64 / qos.cores[i].pf_issued.max(1) as f64;
    assert!(
        accuracy(0) > accuracy(1),
        "the polite core's prefetch accuracy ({:.2}) should beat the storm's ({:.2})",
        accuracy(0),
        accuracy(1)
    );
}

#[test]
fn qos_report_attaches_only_to_percore_runs() {
    let mix = polite_vs_storm();
    let small = RunScale {
        instructions_per_core: 15_000,
        warmup_per_core: 10_000,
        seed: 42,
    };
    let run = |throttle| run_constrained(&mix, small, throttle);
    for mode in [ThrottleMode::Off, ThrottleMode::Feedback] {
        assert!(
            run(mode).qos.is_none(),
            "{mode} run must not attach a QoS report"
        );
    }
    let qos = run(ThrottleMode::Percore)
        .qos
        .expect("percore run attaches a QoS report");
    assert_eq!(qos.cores.len(), 2, "one QoS row per core");
}
