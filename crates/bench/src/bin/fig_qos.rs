//! Per-core QoS throttling figure: the starvation experiment of
//! `fig_multicore`, re-run with the per-core controllers and the
//! starvation watchdog in the comparison, plus a chaos-hardening cell.
//!
//! ```text
//! fig_qos [--config FILE] [--report FILE] [--quick]
//! ```
//!
//! Three throttle arms run on the `polite-vs-storm` mix at 2 cores under
//! `constrained` memory pressure: `off` (no throttle), `feedback` (PR 8's
//! chip-wide controller, which clamps the polite core alongside the
//! storm), and `percore` (one controller per core plus the chip-level
//! starvation watchdog). The figure's claim: `percore` keeps the polite
//! core within 1 % of its unthrottled IPC while the aggregate IPC stays
//! at or above the chip-wide feedback arm's.
//!
//! The chaos cell replays the same mix under the standard perturbation
//! schedule ([`bingo_sim::ChaosPlan::standard`] at [`CHAOS_SEED`]) with
//! the per-core throttle on, against a prefetcher-throttle-off run under
//! the *same* chaos, reporting the bounded-slowdown ratio the property
//! suite asserts.
//!
//! The watchdog runs at [`bingo_sim::QOS_SLO`]. The structured report
//! (one JSON line per experiment) lands in `--report` (default
//! `target/fig_qos_report.json`; CI uploads it as an artifact).

use std::path::PathBuf;

use bingo_bench::{
    f2, flag_value, telemetry_from_env, MixConfig, ParallelHarness, Pressure, RunScale, RunSpec,
    Table,
};
use bingo_sim::{ChaosPlan, SimResult, ThrottleMode};

/// The mix every arm runs: one streaming core behind Bingo, one
/// stress-storm core whose prefetches are mostly waste.
const QOS_MIX: &str = "polite-vs-storm";

/// Seed of the chaos cell's perturbation schedule: committed so every run
/// replays the same perturbation log.
const CHAOS_SEED: u64 = 0xB1A60;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = RunScale::from_args();
    // The throttle mode is this figure's variable, so only the telemetry
    // knob is read from the environment.
    let telemetry = telemetry_from_env();
    let config = flag_value(&args, "--config")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("configs/mixes/contention.mix"));
    let report_path = flag_value(&args, "--report")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/fig_qos_report.json"));

    let mixes =
        MixConfig::parse_file(&config).unwrap_or_else(|e| panic!("{}: {e}", config.display()));
    let mix = mixes
        .iter()
        .find(|m| m.name == QOS_MIX)
        .unwrap_or_else(|| panic!("{} does not declare mix {QOS_MIX:?}", config.display()));
    let pressure = Pressure::CONSTRAINED;

    let spec = |throttle: ThrottleMode, chaos: Option<ChaosPlan>| RunSpec {
        chaos,
        ..RunSpec::mix(scale, mix, 2, pressure, telemetry, throttle)
    };

    // Calm arms (the starvation comparison), then the chaos cell: same
    // mix, standard perturbation schedule, percore throttle versus
    // throttle-off under identical chaos.
    let plan = ChaosPlan::standard(CHAOS_SEED);
    let specs = [
        spec(ThrottleMode::Off, None),
        spec(ThrottleMode::Feedback, None),
        spec(ThrottleMode::Percore, None),
        spec(ThrottleMode::Off, Some(plan.clone())),
        spec(ThrottleMode::Percore, Some(plan)),
    ];
    let results = ParallelHarness::from_env().try_run(&specs).into_complete();
    let (off, feedback, percore) = (&results[0], &results[1], &results[2]);

    // "Aggregate" follows the mix-fairness convention (and PR 8's
    // published starvation verdict): the sum of per-core IPCs.
    let sum_ipc = |r: &SimResult| -> f64 { r.core_ipcs().iter().sum() };
    let polite = [
        off.core_ipcs()[0],
        feedback.core_ipcs()[0],
        percore.core_ipcs()[0],
    ];
    let storm = [
        off.core_ipcs()[1],
        feedback.core_ipcs()[1],
        percore.core_ipcs()[1],
    ];
    let aggregate = [sum_ipc(off), sum_ipc(feedback), sum_ipc(percore)];
    let polite_ratio_feedback = polite[1] / polite[0];
    let polite_ratio_percore = polite[2] / polite[0];

    println!(
        "Per-core QoS throttling: {} @ 2 cores, {} pressure",
        mix.name, pressure.name
    );
    println!("(feedback = PR 8's chip-wide controller; percore = one controller");
    println!("per core plus the starvation watchdog)\n");
    let mut t = Table::new(vec![
        "Throttle",
        "Polite IPC",
        "Polite ratio",
        "Storm IPC",
        "Agg IPC",
    ]);
    for (i, name) in ["off", "feedback", "percore"].iter().enumerate() {
        t.row(vec![
            (*name).to_string(),
            f2(polite[i]),
            f2(polite[i] / polite[0]),
            f2(storm[i]),
            f2(aggregate[i]),
        ]);
    }
    println!("{}", t.render());

    let verdict = if polite_ratio_percore >= 0.99 && aggregate[2] >= aggregate[1] {
        "percore recovers the polite core (>=99% of unthrottled) without losing aggregate IPC"
    } else if polite_ratio_percore > polite_ratio_feedback {
        "percore improves on the chip-wide throttle but misses the 1% target at this scale"
    } else {
        "percore does not improve on the chip-wide throttle at this scale"
    };
    println!("=> {verdict}\n");

    let qos = percore
        .qos
        .as_ref()
        .expect("percore runs attach a QoS report");
    println!(
        "watchdog: {} epochs, {} starved, {} clamps, {} exemptions",
        qos.watchdog_epochs,
        qos.watchdog_starved_epochs,
        qos.watchdog_clamps,
        qos.watchdog_exempted
    );

    let (chaos_off, chaos_percore) = (&results[3], &results[4]);
    let chaos_polite_ratio = chaos_percore.core_ipcs()[0] / chaos_off.core_ipcs()[0];
    println!("\nChaos cell (standard schedule, seed {CHAOS_SEED:#x}):");
    let mut t = Table::new(vec!["Throttle", "Polite IPC", "Storm IPC", "Agg IPC"]);
    t.row(vec![
        "off".to_string(),
        f2(chaos_off.core_ipcs()[0]),
        f2(chaos_off.core_ipcs()[1]),
        f2(sum_ipc(chaos_off)),
    ]);
    t.row(vec![
        "percore".to_string(),
        f2(chaos_percore.core_ipcs()[0]),
        f2(chaos_percore.core_ipcs()[1]),
        f2(sum_ipc(chaos_percore)),
    ]);
    println!("{}", t.render());

    let report_lines = [
        format!(
            "{{\"qos\":{{\"mix\":\"{}\",\"pressure\":\"{}\",\"cores\":2,\
             \"polite_ipc\":[{:.6},{:.6},{:.6}],\"storm_ipc\":[{:.6},{:.6},{:.6}],\
             \"aggregate_ipc\":[{:.6},{:.6},{:.6}],\
             \"polite_ratio_feedback\":{:.6},\"polite_ratio_percore\":{:.6},\
             \"watchdog\":[{},{},{},{}]}}}}",
            mix.name,
            pressure.name,
            polite[0],
            polite[1],
            polite[2],
            storm[0],
            storm[1],
            storm[2],
            aggregate[0],
            aggregate[1],
            aggregate[2],
            polite_ratio_feedback,
            polite_ratio_percore,
            qos.watchdog_epochs,
            qos.watchdog_starved_epochs,
            qos.watchdog_clamps,
            qos.watchdog_exempted,
        ),
        format!(
            "{{\"qos_chaos\":{{\"mix\":\"{}\",\"seed\":{},\
             \"off_ipc\":[{:.6},{:.6}],\"percore_ipc\":[{:.6},{:.6}],\
             \"polite_ratio\":{:.6}}}}}",
            mix.name,
            CHAOS_SEED,
            chaos_off.core_ipcs()[0],
            chaos_off.core_ipcs()[1],
            chaos_percore.core_ipcs()[0],
            chaos_percore.core_ipcs()[1],
            chaos_polite_ratio,
        ),
    ];
    if let Some(parent) = report_path.parent() {
        std::fs::create_dir_all(parent)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", parent.display()));
    }
    std::fs::write(&report_path, report_lines.join("\n") + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", report_path.display()));
    eprintln!(
        "[fig_qos] report: {} line(s) -> {}",
        report_lines.len(),
        report_path.display()
    );
}
