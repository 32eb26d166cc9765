//! Acceptance properties of the fault-injection layer: Bingo whose
//! metadata is corrupted by a seeded `FaultInjector` (footprint bit flips,
//! history-entry drops, dropped prefetches at 1–10 % rates) must complete
//! a full simulation without panicking or deadlocking, stay deterministic
//! for a fixed fault seed, and only *lose coverage*, degrading toward
//! no-prefetch behavior — never corrupting the simulation itself.

use bingo_bench::{run_one, Evaluation, ParallelHarness, PrefetcherKind, RunScale, RunSpec};
use bingo_workloads::Workload;

fn scale(seed: u64) -> RunScale {
    RunScale {
        instructions_per_core: 20_000,
        warmup_per_core: 5_000,
        seed,
    }
}

const RATES: [f64; 3] = [0.01, 0.05, 0.10];

/// Evaluates one cell against its (memoized) baseline.
fn evaluate(h: &mut ParallelHarness, seed: u64, w: Workload, k: PrefetcherKind) -> Evaluation {
    let spec = RunSpec::classic(scale(seed), w, k);
    h.evaluate(&[spec]).remove(0)
}

#[test]
fn corrupted_bingo_completes_and_degrades_gracefully() {
    for (workload, seed) in [(Workload::Em3d, 31), (Workload::Streaming, 32)] {
        let mut h = ParallelHarness::with_jobs(2).quiet();
        let fault_free = evaluate(&mut h, seed, workload, PrefetcherKind::bingo());
        for rate in RATES {
            // Completing `evaluate` at all is the no-panic/no-deadlock
            // half of the property (a livelock would hit the simulator's
            // cycle limit and panic).
            let faulty = evaluate(
                &mut h,
                seed,
                workload,
                PrefetcherKind::BingoFaulty {
                    fault_seed: 0xFA17,
                    rate,
                },
            );
            let cov = faulty.coverage.coverage;
            // Coverage stays between no-prefetch (0, the metric's floor)
            // and fault-free Bingo, with a small tolerance for lucky
            // spurious prefetches at this scale.
            assert!(
                cov.is_finite() && cov >= 0.0,
                "{} rate {rate}: coverage {cov} must be a non-negative number",
                workload.name()
            );
            assert!(
                cov <= fault_free.coverage.coverage + 0.05,
                "{} rate {rate}: corrupted coverage {cov:.3} exceeds fault-free {:.3}",
                workload.name(),
                fault_free.coverage.coverage
            );
            // The baseline the cell is judged against is untouched by the
            // injector (corruption is confined to the prefetcher).
            assert_eq!(faulty.baseline, fault_free.baseline);
        }
    }
}

#[test]
fn fault_injection_is_deterministic_per_seed() {
    let kind = PrefetcherKind::BingoFaulty {
        fault_seed: 0xDE7E_2717,
        rate: 0.05,
    };
    let a = run_one(Workload::Em3d, kind, scale(33));
    let b = run_one(Workload::Em3d, kind, scale(33));
    assert_eq!(
        a, b,
        "same workload seed + fault seed must reproduce exactly"
    );

    // A different fault seed corrupts differently (the injector stream is
    // real, not a no-op).
    let c = run_one(
        Workload::Em3d,
        PrefetcherKind::BingoFaulty {
            fault_seed: 0xDE7E_2718,
            rate: 0.05,
        },
        scale(33),
    );
    assert_ne!(a, c, "distinct fault seeds should perturb the run");
}

#[test]
fn total_prefetch_loss_collapses_to_no_prefetch_behavior() {
    // Rate 1.0 drops every prefetch candidate: the memory system sees
    // exactly the no-prefetcher access stream, so misses match the
    // baseline and coverage is exactly zero — the documented degradation
    // endpoint.
    let mut h = ParallelHarness::with_jobs(2).quiet();
    let eval = evaluate(
        &mut h,
        34,
        Workload::Streaming,
        PrefetcherKind::BingoFaulty {
            fault_seed: 1,
            rate: 1.0,
        },
    );
    assert_eq!(eval.result.llc.pf_issued, 0, "every prefetch was dropped");
    assert_eq!(
        eval.coverage.misses_with_prefetch, eval.coverage.baseline_misses,
        "with all prefetches dropped the miss stream is the baseline's"
    );
    assert_eq!(eval.coverage.coverage.to_bits(), 0f64.to_bits());
}
