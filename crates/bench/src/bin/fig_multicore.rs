//! Multi-core contention figure: ramped capacity search over declared
//! workload mixes, per-core fairness, and the throttle-starvation
//! experiment.
//!
//! ```text
//! fig_multicore [--config FILE] [--mix NAME]... [--pressure NAME]...
//!               [--report FILE] [--quick]
//! ```
//!
//! Mixes come from a committed config file (default
//! `configs/mixes/contention.mix`; grammar in `bingo_bench::mix`). Each
//! selected mix runs at every core count of its `ramp` directive (or its
//! declared core count when unramped) under every selected memory
//! [`Pressure`] level, through [`ParallelHarness::try_evaluate_mix`] — so
//! mix cells and their per-slot solo runs parallelize, checkpoint
//! (`BINGO_CHECKPOINT`), and export stats (`BINGO_STATS`) like every other
//! sweep. Per (mix,
//! pressure) the ramp becomes a [`CapacitySearch`]: aggregate IPC,
//! min/max IPC fairness, worst per-core slowdown versus solo at each
//! step, plus the capacity knee (the last core count whose added cores
//! still earn ≥ 50 % of the un-contended per-core IPC).
//!
//! The structured report — one JSON line per capacity search plus one
//! for the starvation experiment — lands in `--report` (default
//! `target/fig_multicore_report.json`; CI uploads it as an artifact).
//!
//! The starvation experiment answers PR 5's open question: the feedback
//! throttle is *chip-wide*, so when the storm core's wasted prefetches
//! trip it, the polite core's Bingo instance is clamped too. We run the
//! `polite-vs-storm` mix at 2 cores under the `constrained` pressure
//! level with the throttle off and with feedback, and report the polite
//! core's IPC ratio between the two.

use std::path::PathBuf;

use bingo_bench::{
    f2, flag_value, flag_values, telemetry_from_env, throttle_from_env, CapacityCell,
    CapacitySearch, MixConfig, ParallelHarness, Pressure, RunScale, RunSpec, Table,
};
use bingo_sim::{TelemetryLevel, ThrottleMode};

/// The mix the starvation experiment runs, when selected.
const STARVATION_MIX: &str = "polite-vs-storm";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = RunScale::from_args();
    let (telemetry, throttle) = (telemetry_from_env(), throttle_from_env());
    let config = flag_value(&args, "--config")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("configs/mixes/contention.mix"));
    let report_path = flag_value(&args, "--report")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/fig_multicore_report.json"));

    let mut mixes =
        MixConfig::parse_file(&config).unwrap_or_else(|e| panic!("{}: {e}", config.display()));
    let picked = flag_values(&args, "--mix");
    if !picked.is_empty() {
        for name in &picked {
            assert!(
                mixes.iter().any(|m| &m.name == name),
                "unknown mix {name:?}; {} declares: {:?}",
                config.display(),
                mixes.iter().map(|m| m.name.as_str()).collect::<Vec<_>>()
            );
        }
        mixes.retain(|m| picked.contains(&m.name));
    }
    let pressure_names = flag_values(&args, "--pressure");
    let pressures: Vec<Pressure> = if pressure_names.is_empty() {
        Pressure::LADDER.to_vec()
    } else {
        pressure_names
            .iter()
            .map(|name| {
                *Pressure::LADDER
                    .iter()
                    .find(|p| p.name == name)
                    .unwrap_or_else(|| {
                        let known: Vec<&str> = Pressure::LADDER.iter().map(|p| p.name).collect();
                        panic!("unknown pressure {name:?}; valid: {known:?}")
                    })
            })
            .collect()
    };

    // One flat grid over every (mix, pressure, ramp step): a single
    // harness call maximizes worker occupancy and dedups shared solos.
    let steps_of = |mix: &MixConfig| -> Vec<usize> {
        mix.ramp
            .map(|r| r.steps())
            .unwrap_or_else(|| vec![mix.core_count()])
    };
    let mut specs: Vec<RunSpec> = Vec::new();
    for mix in &mixes {
        for &pressure in &pressures {
            for cores in steps_of(mix) {
                specs.push(RunSpec::mix(
                    scale, mix, cores, pressure, telemetry, throttle,
                ));
            }
        }
    }
    let mut harness = ParallelHarness::from_env();
    let evals = harness.evaluate_mix(&specs);

    // Regroup the flat evaluations into per-(mix, pressure) searches.
    let mut searches: Vec<CapacitySearch> = Vec::new();
    let mut idx = 0;
    for mix in &mixes {
        for &pressure in &pressures {
            let steps = steps_of(mix);
            let measured: Vec<CapacityCell> = steps
                .iter()
                .map(|_| {
                    let e = &evals[idx];
                    idx += 1;
                    CapacityCell {
                        cores: e.spec.slots.len(),
                        fairness: e.fairness.clone(),
                    }
                })
                .collect();
            searches.push(CapacitySearch::from_steps(
                &mix.name,
                pressure.name,
                measured,
            ));
        }
    }
    assert_eq!(idx, evals.len(), "every evaluation was grouped");

    println!("Multi-core contention: capacity search over declared mixes");
    println!(
        "({} instructions/core after {} warmup, seed {}; knee = last core count",
        scale.instructions_per_core, scale.warmup_per_core, scale.seed
    );
    println!("whose added cores still earn >=50% of the un-contended per-core IPC)\n");
    let mut t = Table::new(vec![
        "Mix",
        "Pressure",
        "Cores",
        "Agg IPC",
        "Min/Max IPC",
        "Max slowdown",
        "Knee",
    ]);
    for s in &searches {
        for step in &s.steps {
            t.row(vec![
                s.mix.clone(),
                s.pressure.to_string(),
                step.cores.to_string(),
                f2(step.fairness.aggregate_ipc),
                f2(step.fairness.min_max_ipc_ratio),
                f2(step.fairness.max_slowdown()),
                if step.cores == s.knee {
                    "<-".to_string()
                } else {
                    String::new()
                },
            ]);
        }
    }
    println!("{}", t.render());

    let starvation = mixes
        .iter()
        .find(|m| m.name == STARVATION_MIX)
        .map(|mix| starvation_experiment(&mut harness, mix, scale, telemetry));

    let mut report_lines: Vec<String> = searches.iter().map(CapacitySearch::to_json).collect();
    if let Some(line) = &starvation {
        report_lines.push(line.clone());
    }
    if let Some(parent) = report_path.parent() {
        std::fs::create_dir_all(parent)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", parent.display()));
    }
    std::fs::write(&report_path, report_lines.join("\n") + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", report_path.display()));
    eprintln!(
        "[fig_multicore] report: {} search(es) -> {}",
        report_lines.len(),
        report_path.display()
    );
}

/// Runs the throttle-starvation experiment and returns its report JSON
/// line: `polite-vs-storm` at 2 cores under `constrained` pressure,
/// throttle off versus chip-wide feedback (the throttle mode is the
/// experiment's variable, so the environment's mode does not apply).
fn starvation_experiment(
    harness: &mut ParallelHarness,
    mix: &MixConfig,
    scale: RunScale,
    telemetry: TelemetryLevel,
) -> String {
    let pressure = Pressure::CONSTRAINED;
    let specs = [ThrottleMode::Off, ThrottleMode::Feedback]
        .map(|throttle| RunSpec::mix(scale, mix, 2, pressure, telemetry, throttle));
    let [off, feedback]: [_; 2] = harness
        .try_run(&specs)
        .into_complete()
        .try_into()
        .expect("two arms in, two results out");
    let polite = (off.core_ipcs()[0], feedback.core_ipcs()[0]);
    let storm = (off.core_ipcs()[1], feedback.core_ipcs()[1]);
    let polite_ratio = polite.1 / polite.0;

    println!(
        "Throttle starvation: {} @ 2 cores, {} pressure",
        mix.name, pressure.name
    );
    println!("(the feedback throttle is chip-wide: the storm core's wasted");
    println!("prefetches clamp the polite core's Bingo instance too)\n");
    let mut t = Table::new(vec!["Core", "Unthrottled IPC", "Feedback IPC", "Ratio"]);
    t.row(vec![
        "polite (streaming)".to_string(),
        f2(polite.0),
        f2(polite.1),
        f2(polite_ratio),
    ]);
    t.row(vec![
        "storm (stress-storm)".to_string(),
        f2(storm.0),
        f2(storm.1),
        f2(storm.1 / storm.0),
    ]);
    println!("{}", t.render());
    let verdict = if polite_ratio >= 0.95 {
        "the polite core keeps >=95% of its unthrottled IPC: no starvation"
    } else {
        "the polite core loses >5% of its unthrottled IPC: the chip-wide throttle starves it"
    };
    println!("=> {verdict}");
    println!("   (fig_qos reruns this comparison with the per-core throttle arm)\n");

    format!(
        "{{\"starvation\":{{\"mix\":\"{}\",\"pressure\":\"{}\",\"cores\":2,\
         \"polite_ipc_unthrottled\":{:.6},\"polite_ipc_feedback\":{:.6},\
         \"polite_ratio\":{:.6},\"storm_ipc_unthrottled\":{:.6},\
         \"storm_ipc_feedback\":{:.6}}}}}",
        mix.name, pressure.name, polite.0, polite.1, polite_ratio, storm.0, storm.1
    )
}
