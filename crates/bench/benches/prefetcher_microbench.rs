//! Microbenchmarks of the prefetcher data structures: per-access costs of
//! Bingo's tables versus the baselines, and the unified history table's
//! three operations (the storage-consolidation contribution).
//!
//! The hermetic build has no criterion, so this is a plain `harness = false`
//! binary: each case times a fixed-iteration loop several times and prints
//! the median nanoseconds per operation with the observed spread. Set
//! `BINGO_BENCH_JSON=<file>` to also emit machine-readable records (see
//! `bingo_bench::perf_record`) for the CI regression gate.

use std::hint::black_box;

use bingo_bench::{time_median, BenchRecord, BenchWriter};

use bingo::multi_event::{MultiEventConfig, MultiEventPrefetcher};
use bingo::{Bingo, BingoConfig, EventKind, Footprint, UnifiedHistoryTable};
use bingo_baselines::{Ampm, AmpmConfig, Bop, BopConfig, Sms, Spp, SppConfig, Vldp, VldpConfig};
use bingo_sim::{AccessInfo, BlockAddr, Pc, Prefetcher};

fn info(pc: u64, block: u64) -> AccessInfo {
    AccessInfo::demand(Pc::new(pc), BlockAddr::new(block), 0)
}

/// Drives a prefetcher with a deterministic mixed access stream.
fn drive(p: &mut dyn Prefetcher, accesses: u64) -> usize {
    let mut out = Vec::with_capacity(64);
    let mut issued = 0;
    let mut x = 0x1234_5678_9abc_def0u64;
    for i in 0..accesses {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let block = if i % 4 == 0 {
            x % (1 << 22)
        } else {
            i * 3 % (1 << 22)
        };
        out.clear();
        p.on_access(&info(0x400 + (i % 16) * 4, block), &mut out);
        issued += out.len();
        if i % 64 == 0 {
            p.on_eviction(BlockAddr::new(block));
        }
    }
    issued
}

/// Times `samples` passes of `iters` runs of `f` and reports the median
/// ns per inner operation with the observed spread.
fn report(
    writer: &mut Option<BenchWriter>,
    group: &str,
    name: &str,
    samples: u32,
    iters: u64,
    ops_per_iter: u64,
    mut f: impl FnMut(),
) {
    let ops = (iters * ops_per_iter) as f64;
    let s = time_median(samples, || {
        for _ in 0..iters {
            f();
        }
    });
    // A pass is `iters` loops; convert the ms-per-pass spread to ns/op.
    let to_ns = |ms: f64| ms * 1e6 / ops;
    let record = BenchRecord {
        key: format!("{group}/{name}"),
        unit: "ns/op".to_string(),
        median: to_ns(s.median),
        lo: to_ns(s.lo),
        hi: to_ns(s.hi),
        samples,
    };
    println!(
        "{group}/{name}: {:.1} ns/op (lo {:.1}, hi {:.1}, n={samples})",
        record.median, record.lo, record.hi
    );
    if let Some(w) = writer {
        w.record_or_die(record);
    }
}

fn bench_prefetcher_access(writer: &mut Option<BenchWriter>) {
    const ACCESSES: u64 = 2_000;
    const ITERS: u64 = 10;
    const SAMPLES: u32 = 5;
    let cases: Vec<(&str, Box<dyn Prefetcher>)> = vec![
        ("bingo", Box::new(Bingo::new(BingoConfig::paper()))),
        (
            "bingo_naive_two_table",
            Box::new(MultiEventPrefetcher::new(MultiEventConfig::with_events(
                vec![EventKind::PcAddress, EventKind::PcOffset],
            ))),
        ),
        ("sms", Box::<Sms>::default()),
        ("ampm", Box::new(Ampm::new(AmpmConfig::paper()))),
        ("vldp", Box::new(Vldp::new(VldpConfig::paper()))),
        ("spp", Box::new(Spp::new(SppConfig::paper()))),
        ("bop", Box::new(Bop::new(BopConfig::paper()))),
    ];
    for (name, mut p) in cases {
        report(
            writer,
            "prefetcher_access",
            name,
            SAMPLES,
            ITERS,
            ACCESSES,
            || {
                black_box(drive(p.as_mut(), ACCESSES));
            },
        );
    }
}

fn bench_history_table(writer: &mut Option<BenchWriter>) {
    const OPS: u64 = 100_000;

    let mut t = UnifiedHistoryTable::new(16 * 1024, 16, 32);
    let mut i = 0u64;
    report(writer, "unified_history_table", "insert", 5, 2, OPS, || {
        for _ in 0..OPS {
            i += 1;
            t.insert(
                black_box(i),
                black_box(i % 512),
                Footprint::from_bits(i & 0xffff_ffff, 32),
            );
        }
    });

    let mut t = UnifiedHistoryTable::new(16 * 1024, 16, 32);
    for i in 0..16_384u64 {
        t.insert(i, i % 1024, Footprint::from_bits(i & 0xffff_ffff, 32));
    }
    let mut i = 0u64;
    report(
        writer,
        "unified_history_table",
        "lookup_long",
        5,
        2,
        OPS,
        || {
            for _ in 0..OPS {
                i += 1;
                black_box(t.lookup_long(black_box(i % 16_384), black_box(i % 1024)));
            }
        },
    );

    let mut t = UnifiedHistoryTable::new(16 * 1024, 16, 32);
    for i in 0..16_384u64 {
        t.insert(i, i % 64, Footprint::from_bits(i & 0xffff_ffff, 32));
    }
    let mut matches = Vec::with_capacity(16);
    let mut i = 0u64;
    report(
        writer,
        "unified_history_table",
        "lookup_short_vote",
        5,
        2,
        OPS,
        || {
            for _ in 0..OPS {
                i += 1;
                t.lookup_short(black_box(i % 64), &mut matches);
                black_box(Footprint::vote(&matches, 0.2));
            }
        },
    );
}

fn main() {
    let mut writer = BenchWriter::from_env();
    if let Some(w) = &mut writer {
        // Host-speed reference for bench_compare's normalization. Both
        // bench binaries record it; the merged file keeps the fastest.
        w.record_or_die(bingo_bench::calibration_record());
    }
    bench_prefetcher_access(&mut writer);
    bench_history_table(&mut writer);
    if let Some(w) = &writer {
        println!("bench records written to {}", w.path().display());
    }
}
