//! End-to-end benches: one small-scale simulation per paper figure family
//! plus the full fig8 workload × prefetcher grid, so `cargo bench`
//! exercises every experiment path and tracks simulator-throughput
//! regressions.
//!
//! The hermetic build has no criterion, so this is a plain `harness = false`
//! binary printing median-of-N wall-clock per case with the observed
//! spread. Set `BINGO_BENCH_JSON=<file>` to also emit machine-readable
//! records (see `bingo_bench::perf_record`) for the CI regression gate.

use std::hint::black_box;

use bingo::{BingoConfig, EventKind};
use bingo_bench::{run_one, time_median, BenchWriter, PrefetcherKind, RunScale, RunSpec};
use bingo_sim::SystemConfig;
use bingo_workloads::Workload;

fn tiny_scale() -> RunScale {
    RunScale {
        instructions_per_core: 30_000,
        warmup_per_core: 20_000,
        seed: 42,
    }
}

/// Simulated instructions one `run_one` pass executes (warmup included).
fn instrs_per_pass(scale: RunScale) -> f64 {
    let cores = SystemConfig::paper().cores as u64;
    (cores * (scale.instructions_per_core + scale.warmup_per_core)) as f64
}

/// Times `f` (median of `samples` passes) and reports wall-clock cost.
fn report(writer: &mut Option<BenchWriter>, group: &str, name: &str, samples: u32, f: impl Fn()) {
    let s = time_median(samples, f);
    println!(
        "{group}/{name}: {:.1} ms/run (lo {:.1}, hi {:.1}, n={samples})",
        s.median, s.lo, s.hi
    );
    if let Some(w) = writer {
        w.record_or_die(s.cost_record(&format!("{group}/{name}")));
    }
}

fn bench_simulation_throughput(writer: &mut Option<BenchWriter>) {
    report(writer, "simulation", "baseline_em3d", 5, || {
        black_box(run_one(Workload::Em3d, PrefetcherKind::None, tiny_scale()));
    });
    report(writer, "simulation", "bingo_em3d", 5, || {
        black_box(run_one(
            Workload::Em3d,
            PrefetcherKind::bingo(),
            tiny_scale(),
        ));
    });
    report(writer, "simulation", "bingo_data_serving", 5, || {
        black_box(run_one(
            Workload::DataServing,
            PrefetcherKind::bingo(),
            tiny_scale(),
        ));
    });
}

fn bench_figure_paths(writer: &mut Option<BenchWriter>) {
    // One representative (workload, prefetcher) per figure family, small
    // enough to repeat a few times per case.
    let cases: [(&str, Workload, PrefetcherKind); 6] = [
        (
            "fig2_single_event",
            Workload::DataServing,
            PrefetcherKind::Events {
                first: EventKind::PcOffset,
                count: 1,
            },
        ),
        (
            "fig3_multi_event",
            Workload::DataServing,
            PrefetcherKind::Events {
                first: EventKind::PcAddress,
                count: 5,
            },
        ),
        (
            "fig6_small_table",
            Workload::Streaming,
            PrefetcherKind::Bingo(BingoConfig::with_history_entries(1024)),
        ),
        ("fig7_sms", Workload::Streaming, PrefetcherKind::Sms),
        ("fig8_vldp", Workload::Mix1, PrefetcherKind::Vldp),
        (
            "fig10_spp_aggressive",
            Workload::Mix1,
            PrefetcherKind::SppAggressive,
        ),
    ];
    for (name, w, k) in cases {
        report(writer, "figures", name, 5, move || {
            black_box(run_one(w, k, tiny_scale()));
        });
    }
}

/// The raw-speed trajectory: simulator throughput (million simulated
/// instructions per wall-clock second) for every cell of the fig8 grid —
/// all ten workloads against the no-prefetch baseline and the six headline
/// prefetchers.
fn bench_fig8_grid(writer: &mut Option<BenchWriter>) {
    let scale = tiny_scale();
    let instrs = instrs_per_pass(scale);
    let mut kinds = vec![PrefetcherKind::None];
    kinds.extend(PrefetcherKind::headline());
    for w in Workload::ALL {
        for &k in &kinds {
            let s = time_median(3, || {
                black_box(run_one(w, k, scale));
            });
            let key = format!("fig8_grid/{}/{}", w.name(), k.name());
            let r = s.throughput_record(&key, instrs);
            println!(
                "{key}: {:.1} Minstr/s (lo {:.1}, hi {:.1}, n={})",
                r.median, r.lo, r.hi, r.samples
            );
            if let Some(wr) = writer {
                wr.record_or_die(r);
            }
        }
    }
}

/// The multi-core trajectory: 2-core homogeneous runs (per-core
/// front-ends, shared LLC/MSHR/DRAM at the paper's sizing) for every fig8
/// workload against the baseline and Bingo, so contention-grid speed is
/// gated alongside the single-core grid.
fn bench_fig8_2core(writer: &mut Option<BenchWriter>) {
    let scale = tiny_scale();
    let cores = 2usize;
    let instrs = (cores as u64 * (scale.instructions_per_core + scale.warmup_per_core)) as f64;
    for w in Workload::ALL {
        for k in [PrefetcherKind::None, PrefetcherKind::bingo()] {
            let mut spec = RunSpec::classic(scale, w, k);
            spec.slots.truncate(cores);
            let s = time_median(3, || {
                black_box(spec.run(None).expect("bench 2-core cell completes"));
            });
            let key = format!("fig8_2core/{}/{}", w.name(), k.name());
            let r = s.throughput_record(&key, instrs);
            println!(
                "{key}: {:.1} Minstr/s (lo {:.1}, hi {:.1}, n={})",
                r.median, r.lo, r.hi, r.samples
            );
            if let Some(wr) = writer {
                wr.record_or_die(r);
            }
        }
    }
}

fn main() {
    let mut writer = BenchWriter::from_env();
    if let Some(w) = &mut writer {
        // Host-speed reference for bench_compare's normalization.
        w.record_or_die(bingo_bench::calibration_record());
    }
    bench_simulation_throughput(&mut writer);
    bench_figure_paths(&mut writer);
    bench_fig8_grid(&mut writer);
    bench_fig8_2core(&mut writer);
    if let Some(w) = &writer {
        println!("bench records written to {}", w.path().display());
    }
}
