//! Per-core prefetch attribution is one fact: the LLC line records which
//! core's prefetcher issued it, and the per-core throttle signals are
//! credited from that one field at the events that count `pf_useful` and
//! `pf_late`. So on a shared LLC the per-core QoS sums must equal the
//! chip-wide counters exactly — which is also why the chip-wide `feedback`
//! throttle, one domain fed by every core, judges exactly the LLC totals.
//!
//! The memory system is driven directly, one cycle at a time with no
//! warmup, so no stats reset separates the cumulative throttle signals
//! from the LLC's counters.

use bingo_repro::prefetcher::{Bingo, BingoConfig};
use bingo_repro::sim::{CoreId, MemorySystem, OooCore, Prefetcher, SystemConfig, ThrottleMode};
use bingo_repro::workloads::Workload;

/// Runs one Bingo per core over `apps` on the paper's shared LLC and
/// returns the drained memory system.
fn run(apps: &[Workload], instructions: u64, throttle: ThrottleMode) -> MemorySystem {
    let mut cfg = SystemConfig::paper();
    cfg.cores = apps.len();
    let prefetchers = apps
        .iter()
        .map(|_| Box::new(Bingo::new(BingoConfig::paper())) as Box<dyn Prefetcher>)
        .collect();
    let mut mem = MemorySystem::new(cfg, prefetchers);
    mem.set_throttle(throttle);
    let mut cores: Vec<OooCore> = (0..apps.len())
        .map(|i| OooCore::new(CoreId(i), cfg.core, instructions))
        .collect();
    let mut sources: Vec<_> = apps
        .iter()
        .enumerate()
        .map(|(i, app)| app.source_for_core(i, 42))
        .collect();
    let mut now = 0;
    while !cores.iter().all(OooCore::is_done) {
        mem.tick(now);
        for (core, source) in cores.iter_mut().zip(&mut sources) {
            core.step(now, &mut mem, source.as_mut());
        }
        now += 1;
    }
    mem.drain();
    mem
}

fn assert_attribution_agrees(apps: &[Workload], instructions: u64) {
    let mem = run(apps, instructions, ThrottleMode::Percore);
    let llc = mem.llc_stats();
    let qos = mem.qos_report().expect("percore attaches a QoS report");
    assert!(llc.pf_issued > 0, "{apps:?}: the mix must prefetch");
    assert!(llc.pf_useful + llc.pf_late > 0, "{apps:?}: and use some");

    let issued: u64 = qos.cores.iter().map(|c| c.pf_issued).sum();
    let used: u64 = qos.cores.iter().map(|c| c.pf_used).sum();
    assert_eq!(issued, llc.pf_issued, "{apps:?}: per-core issued sum");
    assert_eq!(
        used,
        llc.pf_useful + llc.pf_late,
        "{apps:?}: per-core used sum"
    );

    let feedback = run(apps, instructions, ThrottleMode::Feedback);
    assert!(
        feedback.qos_report().is_none(),
        "{apps:?}: feedback attaches no QoS report"
    );
}

#[test]
fn per_core_attribution_sums_to_the_llc_counters_on_polite_vs_storm() {
    assert_attribution_agrees(&[Workload::Streaming, Workload::StressStorm], 200_000);
}

#[test]
fn per_core_attribution_sums_to_the_llc_counters_on_a_server_mix() {
    assert_attribution_agrees(
        &[
            Workload::DataServing,
            Workload::SatSolver,
            Workload::Em3d,
            Workload::Zeus,
        ],
        100_000,
    );
}
