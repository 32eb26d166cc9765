//! Replaying captured traces into the simulator, and capturing live
//! sources into trace files.
//!
//! [`ReplaySource`] adapts a framed trace file to the simulator's
//! [`InstrSource`] contract (an infinite stream): when the trace is
//! exhausted it reopens the file and wraps around, accumulating the
//! ingestion report across passes. Under [`Policy::Strict`] a corrupt
//! byte panics with the typed error — inside a bench cell that panic is
//! caught and becomes a sweep `Failure` whose reason starts with
//! `panicked:` and names the byte offset. Under [`Policy::Lenient`] corruption is quarantined and
//! the replay continues on whatever records survive.
//!
//! `ReplaySource` forwards the simulator's op-run fast path
//! ([`InstrSource::take_ops`] / [`InstrSource::peek_ops`]) to
//! [`TraceReader::take_ops`] / [`TraceReader::leading_ops`]. That path
//! never crosses a chunk: at a chunk boundary or end of pass it reports
//! 0, and the core falls back to `next_instr`, which loads the next chunk
//! or wraps around exactly as before.

use std::fs::File;
use std::io::{self, BufReader, Seek, Write};
use std::path::{Path, PathBuf};

use bingo_sim::{Counters, IngestReport, Instr, InstrSource};

use crate::error::ReadError;
use crate::reader::{Policy, TraceReader};
use crate::writer::TraceWriter;

/// An [`InstrSource`] that replays a framed trace file, looping forever.
pub struct ReplaySource {
    path: PathBuf,
    policy: Policy,
    reader: TraceReader<BufReader<File>>,
    /// Ingestion totals from completed passes over the file.
    completed: IngestReport,
    /// Completed wrap-arounds.
    passes: u64,
}

impl std::fmt::Debug for ReplaySource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplaySource")
            .field("path", &self.path)
            .field("policy", &self.policy)
            .field("passes", &self.passes)
            .finish_non_exhaustive()
    }
}

impl ReplaySource {
    /// Opens `path` for replay under `policy`.
    pub fn open(path: impl Into<PathBuf>, policy: Policy) -> Result<Self, ReadError> {
        let path = path.into();
        let reader = Self::open_reader(&path, policy)?;
        Ok(ReplaySource {
            path,
            policy,
            reader,
            completed: IngestReport::default(),
            passes: 0,
        })
    }

    fn open_reader(path: &Path, policy: Policy) -> Result<TraceReader<BufReader<File>>, ReadError> {
        let file = File::open(path).map_err(|error| ReadError::Io { offset: 0, error })?;
        TraceReader::new(BufReader::new(file), policy)
    }

    /// The trace file being replayed.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Completed wrap-arounds over the file.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// High-water memory mark of the current pass's reader.
    pub fn peak_resident_bytes(&self) -> usize {
        self.reader.peak_resident_bytes()
    }
}

impl InstrSource for ReplaySource {
    fn next_instr(&mut self) -> Instr {
        loop {
            match self.reader.next_instr() {
                Ok(Some(instr)) => return instr,
                Ok(None) => {
                    let pass = self.reader.report();
                    // A pass that delivered nothing would loop forever;
                    // fail loudly instead (lenient mode can hit this
                    // when every chunk of a short trace is corrupt).
                    assert!(
                        pass.delivered_records > 0,
                        "trace {}: no decodable records to replay",
                        self.path.display()
                    );
                    self.completed.add(&pass);
                    self.passes += 1;
                    match Self::open_reader(&self.path, self.policy) {
                        Ok(reader) => self.reader = reader,
                        Err(err) => panic!(
                            "trace {}: reopen for pass {} failed: {err}",
                            self.path.display(),
                            self.passes + 1
                        ),
                    }
                }
                Err(err) => panic!("trace {}: {err}", self.path.display()),
            }
        }
    }

    fn ingest_report(&self) -> Option<IngestReport> {
        let mut total = self.completed;
        total.add(&self.reader.report());
        Some(total)
    }

    fn take_ops(&mut self, max: usize) -> usize {
        self.reader.take_ops(max)
    }

    fn peek_ops(&mut self) -> usize {
        self.reader.leading_ops()
    }
}

/// Captures `records` instructions from `source` into `sink` as a framed
/// trace with `chunk_records` records per chunk. Op runs the source hands
/// out through [`InstrSource::take_ops`] are written in bulk. Returns the
/// total written (always `records`).
pub fn capture_source<W: Write + Seek>(
    source: &mut dyn InstrSource,
    records: u64,
    chunk_records: u32,
    sink: W,
) -> io::Result<u64> {
    let mut writer = TraceWriter::new(sink, chunk_records)?;
    let mut left = records;
    while left > 0 {
        let ops = source.take_ops(usize::try_from(left).unwrap_or(usize::MAX)) as u64;
        if ops > 0 {
            writer.push_ops(ops)?;
            left -= ops;
        } else {
            writer.push(source.next_instr())?;
            left -= 1;
        }
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use bingo_sim::{Addr, Pc};

    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bingo-trace-tests");
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir.join(format!("{name}-{}.btrc", std::process::id()))
    }

    fn synthetic() -> Box<dyn InstrSource> {
        let mut n = 0u64;
        Box::new(move || {
            n += 1;
            if n.is_multiple_of(3) {
                Instr::Load {
                    pc: Pc::new(0x400),
                    addr: Addr::new(n * 64),
                    dep: None,
                }
            } else {
                Instr::Op
            }
        })
    }

    #[test]
    fn replay_wraps_around_and_accumulates_reports() {
        let path = scratch("wrap");
        let file = File::create(&path).expect("create");
        capture_source(&mut *synthetic(), 10, 4, file).expect("capture");

        let mut replay = ReplaySource::open(&path, Policy::Strict).expect("open");
        let mut live = synthetic();
        // Two full passes: the wrap must restart the stream exactly.
        for pass in 0..2 {
            for i in 0..10 {
                assert_eq!(
                    replay.next_instr(),
                    live.next_instr(),
                    "pass {pass} record {i}"
                );
            }
            live = synthetic();
        }
        assert_eq!(replay.passes(), 1);
        let report = replay.ingest_report().expect("replay reports");
        assert_eq!(report.delivered_records, 20);
        assert!(report.is_clean());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "no decodable records")]
    fn empty_trace_fails_loudly_instead_of_spinning() {
        let path = scratch("empty");
        let file = File::create(&path).expect("create");
        capture_source(&mut *synthetic(), 0, 4, file).expect("capture");
        let mut replay = ReplaySource::open(&path, Policy::Strict).expect("open");
        let _ = replay.next_instr();
    }
}
