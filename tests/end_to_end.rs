//! End-to-end integration tests: full simulations spanning the simulator,
//! prefetcher, baseline, and workload crates.

use bingo_repro::baselines::{Bop, BopConfig, Sms, Vldp, VldpConfig};
use bingo_repro::prefetcher::{Bingo, BingoConfig};
use bingo_repro::sim::{
    Addr, CoverageReport, Instr, InstrSource, NextLinePrefetcher, NoPrefetcher, Pc, Prefetcher,
    SimResult, System, SystemConfig, ThrottleMode,
};
use bingo_repro::trace::capture_source;
use bingo_repro::workloads::{TraceWorkload, Workload};

const INSTRUCTIONS: u64 = 120_000;
const WARMUP: u64 = 150_000;

fn run(workload: Workload, make: &dyn Fn() -> Box<dyn Prefetcher>) -> SimResult {
    let cfg = SystemConfig::paper();
    System::with_prefetchers(
        cfg,
        workload.sources(cfg.cores, 42),
        |_| make(),
        INSTRUCTIONS,
    )
    .with_warmup(WARMUP)
    .run()
}

#[test]
fn every_workload_runs_to_completion_without_prefetcher() {
    for w in Workload::ALL {
        let r = run(w, &|| Box::new(NoPrefetcher));
        assert_eq!(r.cores.len(), 4, "{w}");
        for (i, c) in r.cores.iter().enumerate() {
            assert_eq!(c.instructions, INSTRUCTIONS, "{w} core {i}");
            assert!(c.cycles > 0, "{w} core {i}");
        }
        assert!(r.llc.demand_misses > 0, "{w} must produce LLC misses");
        assert!(
            r.llc_mpki() > 0.3,
            "{w} MPKI {:.2} unreasonably low",
            r.llc_mpki()
        );
        assert!(
            r.llc_mpki() < 60.0,
            "{w} MPKI {:.2} unreasonably high",
            r.llc_mpki()
        );
    }
}

#[test]
fn bingo_reduces_misses_on_spatially_regular_workloads() {
    for w in [Workload::Em3d, Workload::Streaming, Workload::DataServing] {
        let base = run(w, &|| Box::new(NoPrefetcher));
        let pf = run(w, &|| Box::new(Bingo::new(BingoConfig::paper())));
        let report = CoverageReport::from_runs(&pf, &base);
        assert!(
            report.coverage > 0.25,
            "{w}: Bingo coverage {:.2} too low",
            report.coverage
        );
        assert!(
            pf.speedup_over(&base) > 1.0,
            "{w}: Bingo must not slow the system down"
        );
    }
}

#[test]
fn bingo_beats_bop_on_the_graph_workload() {
    let base = run(Workload::Em3d, &|| Box::new(NoPrefetcher));
    let bingo = run(Workload::Em3d, &|| {
        Box::new(Bingo::new(BingoConfig::paper()))
    });
    let bop = run(Workload::Em3d, &|| Box::new(Bop::new(BopConfig::paper())));
    let s_bingo = bingo.speedup_over(&base);
    let s_bop = bop.speedup_over(&base);
    assert!(
        s_bingo > s_bop,
        "paper ordering violated: Bingo {s_bingo:.3} vs BOP {s_bop:.3}"
    );
    assert!(s_bingo > 1.5, "em3d is the headline result ({s_bingo:.2}x)");
}

#[test]
fn bingo_at_least_matches_sms_on_servers() {
    // Bingo = SMS + the long event; on server workloads it must not lose.
    for w in [Workload::DataServing, Workload::SatSolver] {
        let base = run(w, &|| Box::new(NoPrefetcher));
        let bingo = run(w, &|| Box::new(Bingo::new(BingoConfig::paper())));
        let sms = run(w, &|| Box::new(Sms::default()));
        let s_bingo = bingo.speedup_over(&base);
        let s_sms = sms.speedup_over(&base);
        assert!(
            s_bingo >= s_sms - 0.02,
            "{w}: Bingo {s_bingo:.3} must not trail SMS {s_sms:.3}"
        );
    }
}

#[test]
fn zeus_gains_are_small_for_every_prefetcher() {
    // The paper's Zeus result: spatial prefetching barely helps.
    let base = run(Workload::Zeus, &|| Box::new(NoPrefetcher));
    for make in [
        (&|| Box::new(Bingo::new(BingoConfig::paper())) as Box<dyn Prefetcher>)
            as &dyn Fn() -> Box<dyn Prefetcher>,
        &|| Box::new(Vldp::new(VldpConfig::paper())),
        &|| Box::new(Bop::new(BopConfig::paper())),
    ] {
        let r = run(Workload::Zeus, make);
        let s = r.speedup_over(&base);
        assert!(
            (0.9..1.25).contains(&s),
            "Zeus speedup {s:.3} outside the 'barely helps' band"
        );
    }
}

#[test]
fn warmup_determinism_and_reset() {
    // Two identical runs must agree exactly, and warmup must not leak into
    // measured instruction counts.
    let a = run(Workload::Mix1, &|| {
        Box::new(Bingo::new(BingoConfig::paper()))
    });
    let b = run(Workload::Mix1, &|| {
        Box::new(Bingo::new(BingoConfig::paper()))
    });
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.llc.demand_misses, b.llc.demand_misses);
    assert_eq!(a.llc.pf_issued, b.llc.pf_issued);
    assert_eq!(a.cores[0].instructions, INSTRUCTIONS);
}

#[test]
fn prefetcher_storage_accounting_is_sane() {
    let bingo = Bingo::new(BingoConfig::paper());
    let kb = bingo.storage_bits() as f64 / 8.0 / 1024.0;
    assert!(
        (110.0..130.0).contains(&kb),
        "Bingo storage {kb:.1} KB (paper: 119)"
    );
    let bop = Bop::new(BopConfig::paper());
    assert!(
        bop.storage_bits() < bingo.storage_bits() / 50,
        "BOP is tiny"
    );
}

#[test]
fn mix_workloads_assign_different_programs_per_core() {
    // Mix cores must behave differently (different SPEC programs).
    let r = run(Workload::Mix1, &|| Box::new(NoPrefetcher));
    let ipcs: Vec<f64> = r.cores.iter().map(|c| c.ipc()).collect();
    let min = ipcs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = ipcs.iter().cloned().fold(0.0, f64::max);
    assert!(
        max / min > 1.1,
        "mix cores should have distinct IPCs, got {ipcs:?}"
    );
}

/// The fast-forward — per-core sleeping, including the op-crank over
/// the run-length-encoded workload streams — must be unobservable on the
/// real workload suite: identical `SimResult`s with it on and off.
/// (The closure-source equivalence tests in `bingo-sim` never exercise
/// the crank, because closures report no op runs; `WorkloadSource` does.)
/// SAT Solver and Zeus complete the server workloads, where the crank's
/// closed-form jump over a full ROB does most of its work.
#[test]
fn fast_forward_is_bit_for_bit_on_real_workloads() {
    for w in [
        Workload::Em3d,
        Workload::DataServing,
        Workload::SatSolver,
        Workload::Zeus,
        Workload::Mix1,
    ] {
        let cfg = SystemConfig::paper();
        let build = |ff: bool| {
            System::with_prefetchers(
                cfg,
                w.sources(cfg.cores, 42),
                |_| Box::new(Bingo::new(BingoConfig::paper())) as Box<dyn Prefetcher>,
                40_000,
            )
            .with_warmup(30_000)
            .with_fast_forward(ff)
        };
        let fast = build(true).run();
        let slow = build(false).run();
        assert_eq!(fast, slow, "fast-forward diverged on {w}");
    }

    // A heterogeneous mix under constrained memory, throttled: cores
    // finish and throttle levels move while other cores sleep. Next-line prefetchers issue from the first access, so
    // the ladders move within these short budgets (Bingo would still be
    // training).
    let mut cfg = SystemConfig::paper();
    cfg.dram.channels = 1;
    cfg.dram.transfer_cycles = 28;
    cfg.prefetch_queue_depth = Some(16);
    let mix = [
        Workload::Em3d,
        Workload::StressStorm,
        Workload::Streaming,
        Workload::StressChase,
    ];
    for mode in [ThrottleMode::Feedback, ThrottleMode::Percore] {
        let build = |ff: bool| {
            System::new_heterogeneous(
                cfg,
                (0..4)
                    .map(|core| mix[core].source_for_core(core, 42))
                    .collect(),
                (0..4)
                    .map(|_| Box::new(NextLinePrefetcher::new(4)) as Box<dyn Prefetcher>)
                    .collect(),
                &[60_000, 20_000, 45_000, 10_000],
            )
            .with_warmup(15_000)
            .with_throttle(mode)
            .with_fast_forward(ff)
        };
        let fast = build(true).run();
        let slow = build(false).run();
        assert!(
            !fast.telemetry.by_source.is_empty(),
            "{mode:?}: the lifecycle report covers the prefetches"
        );
        if let Some(qos) = &fast.qos {
            assert!(
                qos.cores.iter().any(|c| c.degrades > 0),
                "some per-core ladder must move"
            );
        }
        assert_eq!(
            fast, slow,
            "fast-forward diverged on the heterogeneous mix under {mode:?}"
        );
    }
}

/// Sequential 8-byte stores: eight merge into one in-flight block, so the
/// 16-entry LSQ of the tiny configuration fills long before the L1 MSHRs
/// do. A core stalled on its LSQ sleeps until its oldest store
/// completes; waking it any later shows up here.
#[test]
fn fast_forward_is_bit_for_bit_on_lsq_stalls() {
    let cfg = SystemConfig::tiny().with_cores(2);
    let build = |ff: bool| {
        let mut next = 0u64;
        let stores: Box<dyn InstrSource> = Box::new(move || {
            next += 1;
            Instr::Store {
                pc: Pc::new(0x500),
                addr: Addr::new(next * 8),
            }
        });
        System::with_prefetchers(
            cfg,
            vec![stores, Workload::DataServing.source_for_core(1, 42)],
            |_| Box::new(Bingo::new(BingoConfig::paper())) as Box<dyn Prefetcher>,
            30_000,
        )
        .with_fast_forward(ff)
    };
    let fast = build(true).run();
    let slow = build(false).run();
    assert_eq!(fast, slow, "fast-forward diverged under LSQ stalls");
    // Every MSHR stall is also a dispatch stall; core 0 stalling more
    // often than all MSHR stalls together proves it stalled on its LSQ.
    let mshr_stalls = fast.l1d.demand_mshr_stalls + fast.llc.demand_mshr_stalls;
    assert!(
        fast.cores[0].dispatch_stall_cycles > mshr_stalls,
        "core 0 must stall on its LSQ ({} dispatch stalls, {mshr_stalls} MSHR stalls)",
        fast.cores[0].dispatch_stall_cycles
    );
}

/// The same equivalence on replayed `.btrc` traces, whose op runs reach
/// the crank through `ReplaySource::peek_ops` and stop at every chunk
/// boundary. The capture is shorter than the run, so both cores also
/// wrap around mid-simulation.
#[test]
fn fast_forward_is_bit_for_bit_on_replayed_traces() {
    let dir = std::env::temp_dir()
        .join("bingo-end-to-end-tests")
        .join(format!("ff-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for (core, w) in [Workload::Streaming, Workload::Em3d]
        .into_iter()
        .enumerate()
    {
        let file = std::fs::File::create(dir.join(format!("core{core}.btrc"))).expect("create");
        let mut source = w.source_for_core(core, 42);
        capture_source(source.as_mut(), 50_000, 1024, std::io::BufWriter::new(file))
            .expect("capture");
    }
    let trace = TraceWorkload::open(&dir).expect("open capture");
    let cfg = SystemConfig::paper().with_cores(2);
    let build = |ff: bool| {
        System::with_prefetchers(
            cfg,
            trace.sources(cfg.cores).expect("replay sources"),
            |_| Box::new(Bingo::new(BingoConfig::paper())) as Box<dyn Prefetcher>,
            40_000,
        )
        .with_warmup(30_000)
        .with_fast_forward(ff)
    };
    let fast = build(true).run();
    let slow = build(false).run();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        fast.ingest.is_some_and(|r| r.delivered_records > 100_000),
        "the run must outlast the 50k-record captures"
    );
    assert_eq!(fast, slow, "fast-forward diverged on replayed traces");
}
