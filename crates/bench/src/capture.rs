//! Reusable trace captures for the replay figures.
//!
//! A capture directory (`core{i}.btrc` per core, see
//! [`bingo_workloads::TraceWorkload`]) is only a faithful stand-in for the
//! live generators if every stream covers what the run fetches. A shorter
//! capture wraps around and replays its beginning, which silently turns a
//! figure into a different experiment, so a capture is reused only when
//! every per-core header declares enough records.

use std::fs::File;
use std::io::{self, BufReader};
use std::path::Path;

use bingo_trace::{Policy, TraceReader};
use bingo_workloads::{capture_workload, TraceWorkload, Workload};

/// Fetch-ahead slack appended to every per-core stream: cores fetch a
/// handful of instructions past their retirement budget (stalled slots),
/// so a capture sized exactly to the budget would wrap into a second
/// replay pass and diverge from the live run.
pub const CAPTURE_SLACK: u64 = 256;

/// Records declared by the header of every `core{i}.btrc` in `dir` for
/// `i < cores`; the smallest wins. `None` when a file is missing or its
/// header does not parse.
fn captured_records(dir: &Path, cores: usize) -> Option<u64> {
    (0..cores)
        .map(|core| {
            let file = File::open(dir.join(format!("core{core}.btrc"))).ok()?;
            let reader = TraceReader::new(BufReader::new(file), Policy::Strict).ok()?;
            reader.header().map(|h| h.total_records)
        })
        .min()
        .flatten()
}

/// Opens the capture of `workload` in `dir`, recording it first when it is
/// missing or when any of its `cores` streams holds fewer than `records`
/// records (a shorter capture would wrap during replay). A long enough
/// capture is reused untouched; a re-recording is announced on stderr
/// with both lengths.
///
/// # Errors
///
/// Returns any I/O error from recording or opening the capture.
pub fn ensure_capture(
    workload: Workload,
    cores: usize,
    seed: u64,
    records: u64,
    chunk_records: u32,
    dir: &Path,
) -> io::Result<TraceWorkload> {
    match captured_records(dir, cores) {
        Some(have) if have >= records => {}
        Some(have) => {
            eprintln!(
                "[capture] {} holds {have} records/core, the run needs {records}; \
                 re-recording {}",
                dir.display(),
                workload.name()
            );
            capture_workload(workload, cores, seed, records, chunk_records, dir)?;
        }
        None => {
            eprintln!(
                "[capture] recording {} -> {}",
                workload.name(),
                dir.display()
            );
            capture_workload(workload, cores, seed, records, chunk_records, dir)?;
        }
    }
    TraceWorkload::open(dir)
}
