//! Multi-core chaos property suite: the robustness contract of the
//! per-core throttle under live perturbation.
//!
//! Every cell of a seeded (chaos kind × mix × pressure) grid asserts:
//!
//! 1. **Bounded slowdown** — with the `percore` throttle, no core
//!    falls more than [`SLOWDOWN_BOUND`] below the prefetcher-off run of
//!    the *same* chaos scenario. Prefetching plus throttling may not
//!    turn a perturbation into a rout.
//! 2. **Recovery** — once the last perturbation window closes, per-core
//!    controllers walk back up the ladder; a run that ends in a calm
//!    stretch ends at `Full` aggressiveness on every core whose traffic
//!    deserves it. (The epoch-bounded walk itself — `UPGRADE_AFTER`
//!    good epochs per rung, probe backoff capped at
//!    `MAX_UPGRADE_PATIENCE` — is pinned by the sim crate's throttle
//!    unit tests; here we assert the end state through a real machine.)
//! 3. **Determinism** — one seed names one perturbation schedule:
//!    replaying a chaos run is bit-for-bit identical, and a different
//!    seed genuinely perturbs differently.
//! 4. **Off-path invisibility** — an injector whose first onset lies
//!    past the end of the run changes nothing: the result equals the
//!    no-injector run bit-for-bit (this also pins that the run loop's
//!    fast-forward, which `with_chaos` disables, is result-invariant).

use std::path::Path;

use bingo_bench::{MixConfig, ParallelHarness, PrefetcherKind, Pressure, RunScale, RunSpec};
use bingo_sim::{
    ChaosKind, ChaosPlan, InstrSource, PhaseFlipSource, SimResult, System, SystemConfig,
    ThrottleMode,
};
use bingo_workloads::Workload;

const SCALE: RunScale = RunScale {
    instructions_per_core: 150_000,
    warmup_per_core: 100_000,
    seed: 42,
};

/// Committed chaos seed (the one `fig_qos` runs its chaos cell at): the
/// grid is deterministic, so one seed pins the whole suite.
const CHAOS_SEED: u64 = 0xB1A60;

/// Worst tolerated per-core IPC ratio versus the prefetcher-off run of
/// the same chaos scenario.
const SLOWDOWN_BOUND: f64 = 0.90;

fn committed_mix(name: &str) -> MixConfig {
    MixConfig::parse_file(Path::new("configs/mixes/contention.mix"))
        .expect("committed mix config parses")
        .into_iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("contention.mix does not declare {name:?}"))
}

/// A single-kind plan at the standard cadence, so each failure mode is
/// exercised in isolation as well as in the full rotation.
fn plan_of(kinds: Vec<ChaosKind>, seed: u64) -> ChaosPlan {
    ChaosPlan {
        seed,
        period: 20_000,
        window: 4_000,
        kinds,
    }
}

/// `mix` at 2 cores under `pressure` with the given throttle and chaos.
fn chaos_spec(
    mix: &MixConfig,
    pressure: Pressure,
    throttle: ThrottleMode,
    plan: Option<ChaosPlan>,
) -> RunSpec {
    RunSpec {
        throttle,
        chaos: plan,
        ..RunSpec::mix(SCALE, mix, 2, pressure)
    }
}

fn run_chaos(
    mix: &MixConfig,
    pressure: Pressure,
    throttle: ThrottleMode,
    plan: Option<ChaosPlan>,
) -> SimResult {
    chaos_spec(mix, pressure, throttle, plan)
        .run(None)
        .expect("chaos cell completes")
}

#[test]
fn every_chaos_cell_keeps_every_core_within_the_slowdown_bound() {
    let mix = committed_mix("polite-vs-storm");
    let plans: Vec<(String, Vec<ChaosKind>)> = ChaosKind::ALL
        .iter()
        .map(|k| (k.label().to_string(), vec![*k]))
        .chain([("all".to_string(), ChaosKind::ALL.to_vec())])
        .collect();
    let pressures = [Pressure::NONE, Pressure::CONSTRAINED];
    let cells: Vec<(usize, usize)> = (0..plans.len())
        .flat_map(|pi| (0..pressures.len()).map(move |qi| (pi, qi)))
        .collect();
    // Each cell pairs the percore run with the prefetcher-off run of the
    // same chaos scenario (every prefetcher removed, throttle off) — the
    // safety baseline the cell is measured against.
    let specs: Vec<RunSpec> = cells
        .iter()
        .flat_map(|&(pi, qi)| {
            let plan = plan_of(plans[pi].1.clone(), CHAOS_SEED);
            let with_pf = chaos_spec(&mix, pressures[qi], ThrottleMode::Percore, Some(plan));
            let without_pf = RunSpec {
                throttle: ThrottleMode::Off,
                ..with_pf.baseline()
            };
            [with_pf, without_pf]
        })
        .collect();
    let results = ParallelHarness::with_jobs(4)
        .quiet()
        .try_run(&specs)
        .into_complete();

    let mut violations: Vec<String> = Vec::new();
    for (&(pi, qi), pair) in cells.iter().zip(results.chunks(2)) {
        let (with_pf, without_pf) = (&pair[0], &pair[1]);
        for (core, (a, b)) in with_pf
            .core_ipcs()
            .iter()
            .zip(without_pf.core_ipcs())
            .enumerate()
        {
            let ratio = a / b;
            if ratio < SLOWDOWN_BOUND {
                violations.push(format!(
                    "chaos={} pressure={} core{core}: {ratio:.3}x of prefetcher-off",
                    plans[pi].0, pressures[qi].name
                ));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "per-core throttling broke the bounded-slowdown contract under chaos:\n{}",
        violations.join("\n")
    );
}

#[test]
fn controllers_recover_to_full_aggressiveness_after_the_perturbation_ends() {
    // An instruction-domain perturbation with a long calm tail: each
    // core runs a storm phase of F instructions, then em3d for 3F.
    // Nesting two [`PhaseFlipSource`]s produces the asymmetric split —
    // the outer source alternates [storm F | em3d F] against em3d at
    // 2F, so one flip of the outer source ends the storm for good.
    //
    // The storm phase must provoke at least one degrade per core
    // (storm accuracy is far below `ACCURACY_FLOOR`), and the em3d
    // tail — high-traffic, ~0.97 prefetch accuracy — must walk the
    // controller back to `Full` through the upgrade hysteresis
    // (`UPGRADE_AFTER` good epochs per rung plus the probe window)
    // before the run ends. A symmetric single flip cannot prove this:
    // upgrades need roughly four good epochs per rung while degrades
    // need two bad ones, so the tail has to outweigh the storm.
    const F: u64 = 100_000;
    let mut cfg = SystemConfig::paper().with_cores(2);
    Pressure::CONSTRAINED.apply(&mut cfg);
    let sources: Vec<Box<dyn InstrSource>> = (0..2)
        .map(|i| {
            let storm = Workload::StressStorm.source_for_core(i, SCALE.seed);
            let calm_inner = Workload::Em3d.source_for_core(i, SCALE.seed);
            let calm_outer = Workload::Em3d.source_for_core(i, SCALE.seed + 1);
            let inner = PhaseFlipSource::new(storm, calm_inner, F);
            Box::new(PhaseFlipSource::new(Box::new(inner), calm_outer, 2 * F))
                as Box<dyn InstrSource>
        })
        .collect();
    let r = System::with_prefetchers(
        cfg,
        sources,
        |_| PrefetcherKind::bingo().build(),
        4 * F - 20_000,
    )
    .with_warmup(20_000)
    .with_throttle(ThrottleMode::Percore)
    .run();
    let qos = r.qos.expect("percore run attaches a QoS report");
    for (i, c) in qos.cores.iter().enumerate() {
        // Non-vacuity first: a controller that never left `Full` would
        // make the recovery claim below meaningless.
        assert!(
            c.degrades > 0,
            "core {i}'s controller never degraded during the storm phase; \
             the recovery property is vacuous at this scale/seed"
        );
        assert_eq!(
            c.final_level, 0,
            "core {i} ended at ladder level {} instead of Full after the \
             storm ended ({} degrades, {} upgrades over {} epochs)",
            c.final_level, c.degrades, c.upgrades, c.epochs
        );
    }
}

#[test]
fn chaos_runs_replay_bit_for_bit_and_seeds_matter() {
    let mix = committed_mix("polite-vs-storm");
    let run = |seed: u64| {
        run_chaos(
            &mix,
            Pressure::CONSTRAINED,
            ThrottleMode::Percore,
            Some(plan_of(ChaosKind::ALL.to_vec(), seed)),
        )
    };
    let a = run(CHAOS_SEED);
    let b = run(CHAOS_SEED);
    assert_eq!(a, b, "same chaos seed must replay bit-for-bit");
    let c = run(CHAOS_SEED ^ 1);
    assert_ne!(
        a, c,
        "a different chaos seed produced an identical run — the injector \
         is not actually perturbing anything"
    );
}

#[test]
fn an_injector_that_never_fires_is_bit_for_bit_invisible() {
    let mix = committed_mix("polite-vs-storm");
    for throttle in [ThrottleMode::Off, ThrottleMode::Percore] {
        let calm = run_chaos(&mix, Pressure::CONSTRAINED, throttle, None);
        // First onset far past any plausible cycle count for this scale.
        let dormant = ChaosPlan {
            seed: CHAOS_SEED,
            period: u64::MAX / 2,
            window: 1,
            kinds: ChaosKind::ALL.to_vec(),
        };
        let with_dormant = run_chaos(&mix, Pressure::CONSTRAINED, throttle, Some(dormant));
        assert_eq!(
            calm, with_dormant,
            "an injector with no onsets changed a {throttle} run — either the \
             injector off-path or the fast-forward it disables is not \
             result-invariant"
        );
    }
}
