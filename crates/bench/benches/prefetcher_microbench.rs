//! Microbenchmarks of the prefetcher data structures: per-access costs of
//! Bingo's tables versus the baselines, the accumulation table's two
//! operations, and the unified history table's three operations (the
//! storage-consolidation contribution); plus the memory system's fill
//! layer, which lands every block those prefetchers predict, the cache
//! lookup that checks each of them for a duplicate, and the trace decode
//! layer that replaces the generators on a replayed run.
//!
//! The hermetic build has no criterion, so this is a plain `harness = false`
//! binary: each case times a fixed-iteration loop several times and prints
//! the median nanoseconds per operation with the observed spread, to three
//! significant digits. Set
//! `BINGO_BENCH_JSON=<file>` to also emit machine-readable records (see
//! `bingo_bench::perf_record`) for the CI regression gate.

use std::hint::black_box;
use std::io::Cursor;

use bingo_bench::{time_median, BenchRecord, BenchWriter};

use bingo::multi_event::{MultiEventConfig, MultiEventPrefetcher};
use bingo::{AccumulationTable, Bingo, BingoConfig, EventKind, Footprint, UnifiedHistoryTable};
use bingo_baselines::{Ampm, AmpmConfig, Bop, BopConfig, Sms, Spp, SppConfig, Vldp, VldpConfig};
use bingo_sim::{
    AccessInfo, BlockAddr, Cache, MemorySystem, NoPrefetcher, Pc, Prefetcher, RegionGeometry,
    RegionId, SystemConfig,
};
use bingo_trace::format::{CHUNK_HEADER_BYTES, FILE_HEADER_BYTES};
use bingo_trace::{capture_source, crc32::crc32, TraceReader, DEFAULT_CHUNK_RECORDS};
use bingo_workloads::Workload;

fn info(pc: u64, block: u64) -> AccessInfo {
    AccessInfo::demand(Pc::new(pc), BlockAddr::new(block), 0)
}

/// A deterministic mixed block stream over 2^22 blocks: every fourth
/// block random, the rest a stride-3 sweep.
fn blocks() -> impl Iterator<Item = u64> {
    let mut x = 0x1234_5678_9abc_def0u64;
    (0..).map(move |i: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if i.is_multiple_of(4) {
            x % (1 << 22)
        } else {
            i * 3 % (1 << 22)
        }
    })
}

/// Drives a prefetcher with the mixed stream of [`blocks`].
fn drive(p: &mut dyn Prefetcher, accesses: u64) -> usize {
    let mut out = Vec::with_capacity(64);
    let mut issued = 0;
    for (i, block) in (0..accesses).zip(blocks()) {
        out.clear();
        p.on_access(&info(0x400 + (i % 16) * 4, block), &mut out);
        issued += out.len();
        if i % 64 == 0 {
            p.on_eviction(BlockAddr::new(block));
        }
    }
    issued
}

/// `x` with three significant digits, and no fewer than its integer
/// digits: a sub-nanosecond case still tells runs apart.
fn three_digits(x: f64) -> String {
    let magnitude = if x.is_normal() {
        x.abs().log10().floor() as i32
    } else {
        0
    };
    let decimals = (2 - magnitude).max(0) as usize;
    format!("{x:.decimals$}")
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
        "{group}/{name}: {} ns/op (lo {}, hi {}, n={samples})",
        three_digits(record.median),
        three_digits(record.lo),
        three_digits(record.hi)
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

/// The accumulation table alone, at the call mix of Bingo on
/// `contention-4core`: about six `end_residency` calls (one per LLC
/// eviction) per `observe`, and in a recorded cell 99.97 % of them for
/// regions the table does not hold. `drive` evicts once per 64 accesses,
/// so `prefetcher_access` barely reaches this path.
fn bench_accumulation_table(writer: &mut Option<BenchWriter>) {
    const ACCESSES: u64 = 20_000;
    const ENDS_PER_ACCESS: u64 = 6;
    const ITERS: u64 = 10;
    const SAMPLES: u32 = 5;
    let geometry = RegionGeometry::default();
    let accesses: Vec<AccessInfo> = (0..ACCESSES)
        .zip(blocks())
        .map(|(i, block)| info(0x400 + (i % 16) * 4, block))
        .collect();
    // Regions past the stream's 2^22 blocks: every call misses, so the
    // table keeps the full, churning state `observe` leaves it in.
    let absent: Vec<RegionId> = blocks()
        .take((ACCESSES * ENDS_PER_ACCESS) as usize)
        .map(|block| geometry.region_of(BlockAddr::new(block + (1 << 22))))
        .collect();
    let mut t = AccumulationTable::new(BingoConfig::paper().accumulation_entries, geometry);
    report(
        writer,
        "accumulation_table",
        "observe",
        SAMPLES,
        ITERS,
        ACCESSES,
        || {
            for a in &accesses {
                black_box(t.observe(black_box(a)));
            }
        },
    );
    report(
        writer,
        "accumulation_table",
        "end_residency",
        SAMPLES,
        ITERS,
        ACCESSES * ENDS_PER_ACCESS,
        || {
            for &r in &absent {
                black_box(t.end_residency(black_box(r)));
            }
        },
    );
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

/// The fill layer alone: prefetches issued into the paper machine's LLC
/// and landed by `tick` (every cycle), in bursts of 64 every 448 cycles,
/// as much as the two DRAM channels transfer in that time. One block per
/// DRAM row, so the rows alternate channels and each burst queues 32 deep
/// per channel: about 67 fills are in flight on average (100 at most);
/// `em3d-grid` has about 72 queued at each landing. Every block is fresh,
/// so no prefetch is dropped, and once the 128 sets the blocks map to are
/// full every landing evicts.
fn bench_memory_fill(writer: &mut Option<BenchWriter>) {
    const BURST: u64 = 64;
    const PERIOD: u64 = 448;
    const ITERS: u64 = 5_000;
    const SAMPLES: u32 = 5;
    let cfg = SystemConfig::paper();
    let prefetchers = (0..cfg.cores)
        .map(|_| Box::new(NoPrefetcher) as Box<dyn Prefetcher>)
        .collect();
    let mut mem = MemorySystem::new(cfg, prefetchers);
    let mut now = 0u64;
    let mut row = 0u64;
    report(
        writer,
        "memory_fill",
        "issue_and_land",
        SAMPLES,
        ITERS,
        BURST,
        || {
            for _ in 0..BURST {
                mem.issue_prefetch(BlockAddr::new(row * 64 + row % 64), now);
                row += 1;
            }
            for _ in 0..PERIOD {
                now += 1;
                mem.tick(black_box(now));
            }
        },
    );
    let llc = mem.llc_stats();
    assert_eq!(llc.pf_issued, llc.pf_requested, "every prefetch issues");
}

/// The cache lookup layer alone: `Cache::probe` of a block neither
/// resident nor in flight, the duplicate check every new prefetch
/// candidate passes, on the paper machine's LLC filled to capacity with
/// 144 fills in flight (`em3d-grid`'s mean LLC MSHR occupancy at a
/// lookup). The probed blocks spread over every set.
fn bench_cache(writer: &mut Option<BenchWriter>) {
    const IN_FLIGHT: usize = 144;
    const PROBES: usize = 100_000;
    const ITERS: u64 = 10;
    const SAMPLES: u32 = 5;
    let cfg = SystemConfig::paper().llc;
    let mut llc = Cache::new(cfg);
    for block in (0..cfg.blocks()).map(BlockAddr::new) {
        llc.allocate_fill(block, 0, None);
        llc.complete_fill(block);
    }
    // The stream's blocks are below 2^22: shifted to 2^23 and up they
    // are in flight, shifted to 2^22 and up they are probed, so neither
    // meets the 2^17 resident blocks or the other.
    for block in blocks().take(IN_FLIGHT) {
        llc.allocate_fill(BlockAddr::new(block + (2 << 22)), 1, None);
    }
    assert_eq!(llc.mshr_occupancy(), IN_FLIGHT);
    let absent: Vec<BlockAddr> = blocks()
        .skip(IN_FLIGHT)
        .take(PROBES)
        .map(|block| BlockAddr::new(block + (1 << 22)))
        .collect();
    assert!(absent.iter().all(|&block| !llc.probe(block)));
    report(
        writer,
        "cache",
        "probe_absent",
        SAMPLES,
        ITERS,
        PROBES as u64,
        || {
            for &block in &absent {
                black_box(llc.probe(black_box(block)));
            }
        },
    );
}

/// The trace decode layer on a capture of Data Serving's core 0, as
/// `trace-replay` replays it: the CRC check of one full chunk, and the
/// cost per record of draining the capture the way the core does (one
/// `leading_ops` per op run, a `take_ops` of the whole run, then
/// `next_instr`).
fn bench_trace_decode(writer: &mut Option<BenchWriter>) {
    const CHUNKS: u64 = 16;
    const RECORDS: u64 = CHUNKS * DEFAULT_CHUNK_RECORDS as u64;
    const SAMPLES: u32 = 5;
    let mut image = Cursor::new(Vec::new());
    let mut source = Workload::DataServing.source_for_core(0, 42);
    capture_source(source.as_mut(), RECORDS, DEFAULT_CHUNK_RECORDS, &mut image)
        .expect("in-memory capture");
    let image = image.into_inner();

    let header = FILE_HEADER_BYTES as usize;
    let payload_len =
        u32::from_le_bytes(image[header + 8..header + 12].try_into().expect("4 bytes")) as usize;
    let payload_at = header + CHUNK_HEADER_BYTES as usize;
    let chunk = &image[payload_at..payload_at + payload_len];
    report(writer, "trace_crc32", "chunk", SAMPLES, 1_000, 1, || {
        black_box(crc32(black_box(chunk)));
    });

    report(
        writer,
        "trace_reader",
        "record",
        SAMPLES,
        10,
        RECORDS,
        || {
            let mut reader = TraceReader::new(Cursor::new(&image)).expect("header");
            let mut records = 0;
            loop {
                let run = reader.leading_ops();
                if run > 0 {
                    records += reader.take_ops(run);
                }
                match reader.next_instr().expect("clean capture") {
                    Some(instr) => {
                        black_box(instr);
                        records += 1;
                    }
                    None => break,
                }
            }
            assert_eq!(records as u64, RECORDS, "the drain delivers every record");
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
    bench_accumulation_table(&mut writer);
    bench_history_table(&mut writer);
    bench_memory_fill(&mut writer);
    bench_cache(&mut writer);
    bench_trace_decode(&mut writer);
    if let Some(w) = &writer {
        println!("bench records written to {}", w.path().display());
    }
}
