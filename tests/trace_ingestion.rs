//! Committed-corpus ingestion tests: every capture under
//! `tests/corpus/traces/` is re-decoded on plain `cargo test`, so a format
//! or loader regression that breaks previously-written traces (or stops
//! rejecting previously-rejected corruption) fails CI without needing the
//! fuzz driver.
//!
//! The corpus holds three pristine single-core captures (2 256 records
//! each, 256-record chunks) plus `corrupt-bitflip.btrc` — the minimal
//! corruption, a single flipped payload bit in the first chunk, which
//! must trip that chunk's CRC with a typed error at its payload offset.

use std::io::Cursor;
use std::mem::{discriminant, Discriminant};
use std::path::{Path, PathBuf};

use bingo_repro::bench::{ParallelHarness, PrefetcherKind, RunScale, RunSpec};
use bingo_repro::sim::{Addr, IngestReport, Instr, InstrSource, Pc};
use bingo_repro::trace::{apply, CorruptionOp, ReadError, ReplaySource, TraceReader, TraceWriter};
use bingo_repro::workloads::TraceWorkload;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/traces")
}

const PRISTINE: [&str; 3] = ["streaming.btrc", "em3d.btrc", "stress-chase.btrc"];
const CORRUPT: &str = "corrupt-bitflip.btrc";

fn decode(bytes: &[u8]) -> Result<Vec<Instr>, ReadError> {
    let mut reader = TraceReader::new(Cursor::new(bytes))?;
    let mut out = Vec::new();
    while let Some(instr) = reader.next_instr()? {
        out.push(instr);
    }
    Ok(out)
}

/// Copies a corpus file into a scratch capture directory (as `core0.btrc`)
/// so it can be opened as a [`TraceWorkload`].
fn as_capture_dir(file: &str, scratch_name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("bingo-corpus-tests")
        .join(format!("{scratch_name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::copy(corpus_dir().join(file), dir.join("core0.btrc")).expect("copy corpus file");
    dir
}

#[test]
fn corpus_is_present_and_complete() {
    for name in PRISTINE.iter().chain([CORRUPT].iter()) {
        let path = corpus_dir().join(name);
        assert!(path.is_file(), "missing corpus file {}", path.display());
    }
}

#[test]
fn pristine_corpus_decodes_identically_under_both_policies() {
    for name in PRISTINE {
        let bytes = std::fs::read(corpus_dir().join(name)).expect("read corpus file");
        let records = decode(&bytes).unwrap_or_else(|e| panic!("{name}: decode failed: {e}"));
        assert!(!records.is_empty(), "{name}: no records decoded");

        let mut reader = TraceReader::new(Cursor::new(&bytes[..])).unwrap();
        let total = reader.header().total_records;
        while reader.next_instr().unwrap().is_some() {}
        assert_eq!(
            records.len() as u64,
            total,
            "{name}: header total disagrees"
        );
        assert!(reader.report().is_clean(), "{name}: {}", reader.report());
    }
}

#[test]
fn corrupt_corpus_trace_yields_typed_strict_error_with_offset() {
    let bytes = std::fs::read(corpus_dir().join(CORRUPT)).expect("read corpus file");
    let mut reader = TraceReader::new(Cursor::new(&bytes[..])).expect("header intact");
    let err = reader
        .next_instr()
        .expect_err("a flipped bit must not decode cleanly");
    // The bit sits in the first chunk's payload, which starts after the
    // 24-byte file header and the 16-byte chunk header; no record is
    // delivered before the CRC check rejects it.
    assert!(
        matches!(err, ReadError::ChecksumMismatch { offset: 40, .. }),
        "expected a checksum mismatch at byte 40, got {err}"
    );
    assert_eq!(reader.report().delivered_records, 0);
    assert!(
        err.to_string().contains("byte 40"),
        "typed errors carry their byte offset: {err}"
    );
}

#[test]
fn corpus_trace_drives_a_simulation_end_to_end() {
    let dir = as_capture_dir(PRISTINE[0], "sim");
    let trace = TraceWorkload::open(&dir).expect("open corpus capture");
    let scale = RunScale {
        instructions_per_core: 1_500,
        warmup_per_core: 500,
        seed: 0,
    };
    let kind = PrefetcherKind::NextLine(1);
    let mut result = RunSpec::trace(scale, &trace, kind)
        .run(None)
        .expect("corpus replay completes");
    let ingest = result.ingest.take().expect("replay attaches a report");
    assert!(ingest.is_clean(), "pristine corpus quarantined: {ingest}");
    assert!(
        result.llc.demand_misses > 0,
        "the replay must exercise the LLC"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Everything a drain observes: the stream, the final report, and the
/// error (variant and byte offset) that ended it, if any.
type Drained = (
    Vec<Instr>,
    IngestReport,
    Option<(Discriminant<ReadError>, u64)>,
);

/// Drains `bytes` through `next_instr` alone or, when `batched`, through
/// `leading_ops`/`take_ops(k)` (k cycling 1..=9) interleaved with it.
fn drain_observed(bytes: &[u8], batched: bool) -> Drained {
    let error = |e: ReadError| Some((discriminant(&e), e.offset()));
    let mut reader = match TraceReader::new(Cursor::new(bytes)) {
        Ok(reader) => reader,
        Err(e) => return (Vec::new(), IngestReport::default(), error(e)),
    };
    let mut out = Vec::new();
    let mut k = 0;
    loop {
        if batched {
            k = k % 9 + 1;
            let peeked = reader.leading_ops();
            let taken = reader.take_ops(k);
            assert_eq!(taken, peeked.min(k), "take_ops disagrees with leading_ops");
            out.resize(out.len() + taken, Instr::Op);
        }
        match reader.next_instr() {
            Ok(Some(instr)) => out.push(instr),
            Ok(None) => return (out, reader.report(), None),
            Err(e) => return (out, reader.report(), error(e)),
        }
    }
}

#[test]
fn batched_op_drain_matches_the_lazy_drain_on_every_corpus_file() {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("list corpus")
        .map(|entry| entry.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "btrc"))
        .collect();
    files.sort();
    assert_eq!(files.len(), PRISTINE.len() + 1, "{files:?}");
    for path in &files {
        let bytes = std::fs::read(path).expect("read corpus file");
        // Also a forgery whose CRC-valid chunks each declare one record
        // fewer than their payload holds: the fast path must stop at the
        // declared count even when zero bytes run on past it.
        let forged = apply(&bytes, &[CorruptionOp::ShortenChunks { fewer: 1 }]);
        for (image, which) in [(&bytes, "as committed"), (&forged, "forged")] {
            let lazy = drain_observed(image, false);
            let batched = drain_observed(image, true);
            let name = format!("{} ({which})", path.display());
            assert_eq!(lazy.0, batched.0, "{name}: streams differ");
            assert_eq!(lazy.1, batched.1, "{name}: reports differ");
            assert_eq!(lazy.2, batched.2, "{name}: errors differ");
        }
    }
    let corrupt = std::fs::read(corpus_dir().join(CORRUPT)).expect("read corpus file");
    let (_, _, err) = drain_observed(&corrupt, true);
    assert!(err.is_some(), "the error comparison must be exercised");
}

#[test]
fn batched_replay_matches_lazy_replay_across_chunk_ends_and_wraps() {
    // Op runs of assorted lengths between loads, ending in a run at EOF;
    // 7-record chunks split them at chunk boundaries and mid-word.
    let mut records = Vec::new();
    for (i, run) in [5usize, 9, 2, 16, 3, 0, 7].into_iter().enumerate() {
        records.resize(records.len() + run, Instr::Op);
        records.push(Instr::Load {
            pc: Pc::new(0x400 + i as u64),
            addr: Addr::new(i as u64 * 64),
            dep: None,
        });
    }
    records.resize(records.len() + 6, Instr::Op);

    let dir = std::env::temp_dir().join("bingo-corpus-tests");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(format!("op-runs-{}.btrc", std::process::id()));
    let file = std::fs::File::create(&path).expect("create trace");
    let mut writer = TraceWriter::new(file, 7).expect("header");
    for &instr in &records {
        writer.push(instr).expect("push");
    }
    writer.finish().expect("finish");

    // Three passes: the replay wraps around twice.
    let total = 3 * records.len();
    let expected: Vec<Instr> = records.iter().copied().cycle().take(total).collect();
    let mut lazy = ReplaySource::open(&path).expect("open");
    let lazy_stream: Vec<Instr> = (0..total).map(|_| lazy.next_instr()).collect();
    assert_eq!(lazy_stream, expected);

    let mut batched = ReplaySource::open(&path).expect("open");
    let mut stream = Vec::new();
    let mut k = 0;
    while stream.len() < total {
        k = k % 9 + 1;
        let want = k.min(total - stream.len());
        let peeked = batched.peek_ops();
        let taken = batched.take_ops(want);
        assert_eq!(taken, peeked.min(want), "take_ops disagrees with peek_ops");
        stream.resize(stream.len() + taken, Instr::Op);
        if stream.len() < total {
            stream.push(batched.next_instr());
        }
    }
    assert_eq!(stream, expected);
    assert_eq!(lazy.passes(), 2);
    assert_eq!(batched.passes(), 2);
    assert_eq!(lazy.ingest_report(), batched.ingest_report());
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_corpus_trace_fails_only_its_own_cell() {
    let corrupt_dir = as_capture_dir(CORRUPT, "corrupt-sim");
    let pristine_dir = as_capture_dir(PRISTINE[0], "pristine-sim");
    let scale = RunScale {
        instructions_per_core: 1_000,
        warmup_per_core: 300,
        seed: 0,
    };
    let bytes = std::fs::read(corpus_dir().join(CORRUPT)).expect("read corpus file");
    let decode_error = decode(&bytes).expect_err("a flipped bit must not decode cleanly");

    // The corrupt capture beside a pristine one, in one panic-isolated
    // sweep.
    let corrupt = TraceWorkload::open(&corrupt_dir).expect("open corrupt capture");
    let pristine = TraceWorkload::open(&pristine_dir).expect("open pristine capture");
    let spec = |trace: &TraceWorkload| RunSpec::trace(scale, trace, PrefetcherKind::None);
    let report = ParallelHarness::with_jobs(2)
        .quiet()
        .try_run(&[spec(&corrupt), spec(&pristine)]);

    assert!(report.evaluations[0].is_none(), "corrupt replay must fail");
    let [failure] = &report.failures[..] else {
        panic!("only the corrupt cell fails: {}", report.failure_report());
    };
    assert!(
        failure.reason.contains(&decode_error.to_string()),
        "the cell failure should carry the reader's {decode_error}: {}",
        failure.reason
    );
    let result = report.evaluations[1]
        .as_ref()
        .expect("pristine replay must complete");
    let ingest = result.ingest.as_ref().expect("replay attaches a report");
    assert!(ingest.is_clean(), "pristine corpus quarantined: {ingest}");
    assert!(ingest.delivered_records > 0, "{ingest}");
    std::fs::remove_dir_all(&corrupt_dir).ok();
    std::fs::remove_dir_all(&pristine_dir).ok();
}
