//! Trace-driven workflow: capture a workload's instruction stream once to
//! a framed `.btrc` file, profile its spatial structure offline by
//! streaming the file back, and replay it against two prefetchers — the
//! ChampSim-style methodology this library supports end-to-end.
//!
//! ```sh
//! cargo run --release --example trace_workflow
//! ```

use std::fs::File;
use std::io::BufReader;

use bingo_repro::prefetcher::{Bingo, BingoConfig, EventKind, SpatialProfiler};
use bingo_repro::sim::{Instr, NoPrefetcher, Prefetcher, RegionGeometry, System, SystemConfig};
use bingo_repro::trace::{
    capture_source, Policy, ReplaySource, TraceReader, DEFAULT_CHUNK_RECORDS,
};
use bingo_repro::workloads::Workload;

fn main() {
    // 1. Capture 400K instructions of the Data Serving workload to a file.
    let path =
        std::env::temp_dir().join(format!("bingo-trace-workflow-{}.btrc", std::process::id()));
    let mut sources = Workload::DataServing.sources(1, 42);
    let file = File::create(&path).expect("create trace file");
    let records = capture_source(sources[0].as_mut(), 400_000, DEFAULT_CHUNK_RECORDS, file)
        .expect("capture trace");
    let bytes = std::fs::metadata(&path).expect("stat trace file").len();
    println!(
        "captured {records} instructions to {} ({} KB)",
        path.display(),
        bytes / 1024
    );

    // 2. Profile the spatial structure offline by streaming the file back
    //    (one chunk resident at a time): how predictable is this stream,
    //    per trigger event, before any prefetcher runs?
    let file = File::open(&path).expect("open trace file");
    let mut reader = TraceReader::new(BufReader::new(file), Policy::Strict).expect("read header");
    let mut profiler = SpatialProfiler::new(RegionGeometry::default(), 64);
    let mut accesses = 0u64;
    while let Some(instr) = reader.next_instr().expect("decode trace") {
        match instr {
            Instr::Load { pc, addr, .. } | Instr::Store { pc, addr } => {
                accesses += 1;
                profiler.observe_parts(pc.raw(), addr.block().index());
            }
            Instr::Op => {}
        }
    }
    assert!(
        reader.report().is_clean(),
        "a fresh capture decodes cleanly"
    );
    let report = profiler.finish();
    println!(
        "\nspatial profile of {accesses} memory accesses: {} residencies, \
         mean footprint density {:.1}%",
        report.residencies,
        report.mean_density() * 100.0
    );
    for kind in [EventKind::PcAddress, EventKind::PcOffset, EventKind::Offset] {
        let e = report.event(kind);
        println!(
            "  {:<10}  recurrence {:5.1}%   footprint similarity {:5.1}%",
            kind.label(),
            e.match_probability() * 100.0,
            e.mean_similarity() * 100.0
        );
    }

    // 3. Replay the identical stream against a baseline and Bingo.
    let mut cfg = SystemConfig::tiny();
    cfg.cores = 1;
    let run = |prefetcher: Box<dyn Prefetcher>| {
        let replay = ReplaySource::open(&path, Policy::Strict).expect("open trace for replay");
        System::new(cfg, vec![Box::new(replay)], vec![prefetcher], 150_000)
            .with_warmup(100_000)
            .run()
    };
    let base = run(Box::new(NoPrefetcher));
    let bingo = run(Box::new(Bingo::new(BingoConfig::paper())));
    std::fs::remove_file(&path).expect("remove trace file");
    println!("\n--- baseline ---\n{base}");
    println!("\n--- bingo ---\n{bingo}");
    println!(
        "\nspeedup from the identical replayed stream: {:+.1}%",
        (bingo.speedup_over(&base) - 1.0) * 100.0
    );
}
