//! Multi-core contention grid: equivalence, determinism, and fairness
//! invariants of the unified [`RunSpec`] path.
//!
//! The run layer claims three things these tests pin down:
//!
//! 1. **Every machine shape is the hand-built one** — a [`RunSpec`]
//!    produces bit-for-bit the `SimResult` of the construction each
//!    caller used to write by hand: the classic 4-core sweep, the 1-core
//!    mix, and the 2-core pressured machine of `stress_degrade`, for
//!    every workload (ALL + STRESS) and for both the no-prefetcher
//!    baseline and Bingo.
//! 2. **Deterministic at any worker count and on repetition** — the mix
//!    view's results do not depend on `BINGO_JOBS` or on how often the
//!    sweep runs.
//! 3. **Fairness recomputes** — the metrics in the report recompute
//!    exactly from the per-core stats they summarize and from solo runs
//!    built by hand.

use bingo_bench::{
    parallel_map, MixConfig, ParallelHarness, PrefetcherKind, Pressure, RunScale, RunSpec, Slot,
    Stream,
};
use bingo_sim::{SimResult, System, SystemConfig, ThrottleMode};
use bingo_workloads::Workload;

const SCALE: RunScale = RunScale {
    instructions_per_core: 15_000,
    warmup_per_core: 10_000,
    seed: 42,
};

/// The hand-built homogeneous construction every classic caller used:
/// the workload's own source vector and one prefetcher per core.
fn hand_built(cfg: SystemConfig, workload: Workload, kind: PrefetcherKind) -> System {
    let sources = workload.sources(cfg.cores, SCALE.seed);
    System::with_prefetchers(cfg, sources, |_| kind.build(), SCALE.instructions_per_core)
        .with_warmup(SCALE.warmup_per_core)
}

/// Every workload (ALL + STRESS) with the baseline and with Bingo.
fn every_workload() -> Vec<(Workload, PrefetcherKind)> {
    Workload::ALL
        .into_iter()
        .chain(Workload::STRESS)
        .flat_map(|w| [(w, PrefetcherKind::None), (w, PrefetcherKind::bingo())])
        .collect()
}

/// Runs `pair` for every case in parallel and returns the labels of the
/// cases whose reference and unified results differ.
fn mismatches<C: Sync>(
    cases: &[C],
    label: impl Fn(&C) -> String + Sync,
    pair: impl Fn(&C) -> (SimResult, SimResult) + Sync,
) -> Vec<String> {
    parallel_map(4, cases.len(), |i| {
        let (reference, unified) = pair(&cases[i]);
        (reference != unified).then(|| label(&cases[i]))
    })
    .into_iter()
    .flatten()
    .collect()
}

fn run(spec: &RunSpec) -> SimResult {
    spec.run(None).expect("spec run completes")
}

/// A mix with `cores` identical slots.
fn homogeneous_mix(workload: Workload, kind: PrefetcherKind, cores: usize) -> MixConfig {
    MixConfig::new("equiv", &vec![(workload, kind, 100); cores], None)
}

/// The heterogeneous mix the determinism tests run.
fn contention_mix() -> MixConfig {
    MixConfig::new(
        "det",
        &[
            (Workload::Streaming, PrefetcherKind::bingo(), 100),
            (Workload::StressStorm, PrefetcherKind::Stride, 50),
        ],
        None,
    )
}

fn pair_label(&(w, k): &(Workload, PrefetcherKind)) -> String {
    format!("{} / {}", w.name(), k.name())
}

#[test]
fn one_core_mix_is_bit_for_bit_the_classic_single_core_path() {
    let bad = mismatches(&every_workload(), pair_label, |&(w, k)| {
        let classic = hand_built(SystemConfig::paper_single_core(), w, k).run();
        let mix = homogeneous_mix(w, k, 1);
        let spec = RunSpec::mix(SCALE, &mix, 1, Pressure::NONE);
        (classic, run(&spec))
    });
    assert!(
        bad.is_empty(),
        "1-core mix diverged from the classic path on: {bad:?}"
    );
}

#[test]
fn four_core_homogeneous_mix_matches_the_classic_path() {
    let bad = mismatches(&every_workload(), pair_label, |&(w, k)| {
        let classic = hand_built(SystemConfig::paper(), w, k)
            .with_throttle(ThrottleMode::Off)
            .run();
        let spec = RunSpec::classic(SCALE, w, k);
        let mix = homogeneous_mix(w, k, 4);
        let via_mix = RunSpec::mix(SCALE, &mix, 4, Pressure::NONE);
        assert_eq!(spec.key(), via_mix.key(), "one machine, one key");
        (classic, run(&spec))
    });
    assert!(
        bad.is_empty(),
        "4-core RunSpec diverged from the classic path on: {bad:?}"
    );
}

/// The 2-core pressured machine `stress_degrade` used to build by hand —
/// core count cut to 2, a pressure preset applied, the prefetch queue
/// overridden, a throttle attached — is exactly a truncated classic spec
/// with the queue in its pressure.
#[test]
fn two_core_pressured_spec_matches_the_hand_built_stress_machine() {
    let queue = 4;
    let configs = [
        (PrefetcherKind::None, ThrottleMode::Off),
        (PrefetcherKind::bingo(), ThrottleMode::Off),
        (PrefetcherKind::bingo(), ThrottleMode::Feedback),
        (PrefetcherKind::bingo(), ThrottleMode::Percore),
    ];
    let cases: Vec<(Workload, PrefetcherKind, ThrottleMode)> = Workload::STRESS
        .into_iter()
        .flat_map(|w| configs.map(|(k, t)| (w, k, t)))
        .collect();
    let bad = mismatches(
        &cases,
        |(w, k, t)| format!("{} / {} / {t}", w.name(), k.name()),
        |&(w, k, throttle)| {
            let mut cfg = SystemConfig::paper();
            cfg.cores = 2;
            Pressure::SCARCE.apply(&mut cfg);
            cfg.prefetch_queue_depth = Some(queue);
            let by_hand = hand_built(cfg, w, k).with_throttle(throttle).run();
            let mut spec = RunSpec {
                throttle,
                pressure: Pressure {
                    queue: Some(queue),
                    ..Pressure::SCARCE
                },
                ..RunSpec::classic(SCALE, w, k)
            };
            spec.slots.truncate(2);
            (by_hand, run(&spec))
        },
    );
    assert!(
        bad.is_empty(),
        "2-core pressured spec diverged from the hand-built machine on: {bad:?}"
    );
}

#[test]
fn mix_grid_is_deterministic_across_worker_counts() {
    let mix2 = contention_mix();
    let specs = [
        RunSpec::mix(SCALE, &mix2, 2, Pressure::NONE),
        RunSpec::mix(SCALE, &mix2, 4, Pressure::CONSTRAINED),
    ];
    let serial = ParallelHarness::with_jobs(1).quiet().evaluate_mix(&specs);
    let parallel = ParallelHarness::with_jobs(8).quiet().evaluate_mix(&specs);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        let what = s.spec.label();
        assert_eq!(
            s.result, p.result,
            "{what}: result differs across worker counts"
        );
        assert_eq!(
            s.fairness.aggregate_ipc.to_bits(),
            p.fairness.aggregate_ipc.to_bits(),
            "{what}: aggregate IPC differs"
        );
        assert_eq!(
            s.fairness.min_max_ipc_ratio.to_bits(),
            p.fairness.min_max_ipc_ratio.to_bits(),
            "{what}: fairness ratio differs"
        );
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&s.fairness.slowdowns),
            bits(&p.fairness.slowdowns),
            "{what}: slowdowns differ"
        );
    }
}

#[test]
fn repeated_mix_runs_are_bit_for_bit_equal() {
    let mix = contention_mix();
    for cores in [2usize, 4] {
        let spec = RunSpec::mix(SCALE, &mix, cores, Pressure::NONE);
        assert_eq!(
            run(&spec),
            run(&spec),
            "repeated {cores}-core mix run diverged"
        );
    }
}

#[test]
fn fairness_metrics_recompute_from_per_core_stats() {
    let mix = contention_mix();
    let spec = RunSpec::mix(SCALE, &mix, 2, Pressure::NONE);
    let evals = ParallelHarness::with_jobs(2).quiet().evaluate_mix(&[spec]);
    let e = &evals[0];

    // Recompute every reported metric from the raw per-core stats and
    // independently re-run solos; all must match the report exactly.
    let ipcs = e.result.core_ipcs();
    assert_eq!(
        e.fairness.aggregate_ipc.to_bits(),
        ipcs.iter().sum::<f64>().to_bits(),
        "aggregate IPC is not the sum of per-core IPCs"
    );
    let max = ipcs.iter().cloned().fold(0.0_f64, f64::max);
    let min = ipcs.iter().cloned().fold(f64::INFINITY, f64::min);
    assert_eq!(
        e.fairness.min_max_ipc_ratio.to_bits(),
        (min / max).to_bits(),
        "min/max IPC ratio does not recompute"
    );
    for (slot, &mix_ipc) in ipcs.iter().enumerate() {
        // A solo built by hand: the slot's own stream (same stream core,
        // so same seed and address space), prefetcher and scaled target
        // on a 1-core machine.
        let Slot {
            stream: Stream::Synthetic(workload),
            prefetcher,
            budget_percent,
            ..
        } = mix.cores[slot]
        else {
            panic!("a parsed mix has synthetic slots");
        };
        let solo = System::new(
            SystemConfig::paper_single_core(),
            vec![workload.source_for_core(slot, SCALE.seed)],
            vec![prefetcher.build()],
            SCALE.instructions_per_core * u64::from(budget_percent) / 100,
        )
        .with_warmup(SCALE.warmup_per_core)
        .run();
        let solo_ipc: f64 = solo.core_ipcs().iter().sum();
        assert_eq!(
            e.fairness.slowdowns[slot].to_bits(),
            (solo_ipc / mix_ipc).to_bits(),
            "slot {slot} slowdown does not recompute from an independent solo run"
        );
    }
}
