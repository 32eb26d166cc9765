//! Recorded-trace workloads: a directory of per-core `.btrc` files that
//! stands in for a synthetic generator.
//!
//! A captured workload is a directory holding one framed trace per core
//! (`core0.btrc`, `core1.btrc`, ...), as written by the `trace_capture`
//! tool. [`TraceWorkload`] adapts such a directory to the same
//! `sources(cores)` shape as [`crate::Workload::sources`], so the bench
//! harness can evaluate prefetchers on recorded streams exactly as it
//! does on live generators. Each per-core file gets its own
//! bounded-memory reader, so total residency is `cores × one chunk`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use bingo_sim::InstrSource;
use bingo_trace::{capture_source, ReadError, ReplaySource};

use crate::Workload;

/// A directory of per-core captured traces, usable as a workload.
#[derive(Clone, Debug)]
pub struct TraceWorkload {
    dir: PathBuf,
    name: String,
}

impl TraceWorkload {
    /// Opens a capture directory.
    ///
    /// Fails with the path and cause when the directory is missing or
    /// holds no `core0.btrc` — misconfiguration surfaces before any
    /// simulation time is spent.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        let probe = core_path(&dir, 0);
        if !probe.is_file() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "trace workload {}: no {} (not a capture directory?)",
                    dir.display(),
                    probe.display()
                ),
            ));
        }
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| dir.display().to_string());
        Ok(TraceWorkload { dir, name })
    }

    /// The capture directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Display name (the directory's file name, typically a workload slug).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stable identifier for checkpoint cell keys: the capture
    /// directory path.
    pub fn key(&self) -> String {
        self.dir.display().to_string()
    }

    /// Path of core `core`'s trace file.
    pub fn core_path(&self, core: usize) -> PathBuf {
        core_path(&self.dir, core)
    }

    /// Builds one replay source per core.
    ///
    /// Cores beyond the captured count wrap around onto the captured
    /// files (matching how SPEC mixes cycle programs across cores).
    pub fn sources(&self, cores: usize) -> Result<Vec<Box<dyn InstrSource>>, ReadError> {
        let captured = self.captured_cores();
        assert!(captured > 0, "open() guarantees at least core0.btrc");
        (0..cores)
            .map(|core| {
                let path = self.core_path(core % captured);
                ReplaySource::open(path).map(|source| Box::new(source) as Box<dyn InstrSource>)
            })
            .collect()
    }

    /// Number of consecutive `core{i}.btrc` files present.
    pub fn captured_cores(&self) -> usize {
        (0..).take_while(|&i| self.core_path(i).is_file()).count()
    }
}

fn core_path(dir: &Path, core: usize) -> PathBuf {
    dir.join(format!("core{core}.btrc"))
}

/// Captures `records_per_core` instructions from each of `workload`'s
/// per-core generators (seeded with `seed`) into `dir/core{i}.btrc`.
///
/// Replaying the capture with the same core count reproduces the live
/// generator streams bit for bit, provided `records_per_core` covers the
/// instructions the run will fetch (retired instructions plus a small
/// slack for in-flight fetches at the end).
pub fn capture_workload(
    workload: Workload,
    cores: usize,
    seed: u64,
    records_per_core: u64,
    chunk_records: u32,
    dir: &Path,
) -> io::Result<()> {
    fs::create_dir_all(dir).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("create capture dir {}: {e}", dir.display()),
        )
    })?;
    let sources = workload.sources(cores, seed);
    for (core, mut source) in sources.into_iter().enumerate() {
        let path = core_path(dir, core);
        let file = fs::File::create(&path).map_err(|e| {
            io::Error::new(e.kind(), format!("create trace {}: {e}", path.display()))
        })?;
        capture_source(
            &mut *source,
            records_per_core,
            chunk_records,
            io::BufWriter::new(file),
        )
        .map_err(|e| io::Error::new(e.kind(), format!("write trace {}: {e}", path.display())))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("bingo-trace-workload-tests")
            .join(format!("{name}-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn captured_workload_replays_the_generator_stream() {
        let dir = scratch("replay");
        capture_workload(Workload::Streaming, 2, 42, 500, 64, &dir).expect("capture");

        let tw = TraceWorkload::open(&dir).expect("open");
        assert_eq!(tw.captured_cores(), 2);
        let mut replayed = tw.sources(2).expect("sources");
        let mut live = Workload::Streaming.sources(2, 42);
        for core in 0..2 {
            for i in 0..500 {
                assert_eq!(
                    replayed[core].next_instr(),
                    live[core].next_instr(),
                    "core {core} record {i}"
                );
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn extra_cores_wrap_onto_captured_files() {
        let dir = scratch("wrap");
        capture_workload(Workload::Em3d, 1, 7, 100, 32, &dir).expect("capture");
        let tw = TraceWorkload::open(&dir).expect("open");
        let mut sources = tw.sources(3).expect("sources");
        assert_eq!(sources.len(), 3);
        // One captured core: every extra core replays the same file.
        for _ in 0..50 {
            assert_eq!(sources[0].next_instr(), sources[1].next_instr());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_fails_with_path() {
        let missing = scratch("gone").join("nope");
        let err = TraceWorkload::open(&missing).expect_err("must fail");
        assert!(err.to_string().contains("nope"), "error names the path");
    }
}
