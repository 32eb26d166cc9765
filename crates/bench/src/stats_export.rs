//! Machine-readable stats export: one JSON line per completed sweep cell.
//!
//! Point `BINGO_STATS` at a file (or a directory — the file is then named
//! `<name>.json` after the figure or binary) and every bench binary writes
//! each completed cell's full [`SimResult`] — telemetry report included,
//! when enabled — as one self-contained JSON line, in the same format the
//! crash-safe checkpoint uses (floats as IEEE-754 bit patterns, see
//! [`crate::checkpoint`]). CI uploads the file as an artifact; offline
//! analysis parses it with any JSON reader.
//!
//! Unlike the checkpoint (an append-only resume log), the export is a
//! *report*: it is truncated when its first cell is recorded (an export
//! that records nothing leaves no file), written in deterministic order
//! (baselines first, then cells in grid order), and deduplicates keys so
//! repeated grids over the same harness cannot double-report a cell.

use std::collections::HashSet;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use bingo_sim::SimResult;

use crate::checkpoint::serialize_entry;

/// Environment variable naming the stats-export file (or directory) for
/// CLI sweeps.
pub const STATS_ENV: &str = "BINGO_STATS";

/// A deduplicating JSONL writer of completed cell results.
#[derive(Debug)]
pub struct StatsExport {
    path: PathBuf,
    /// Created, truncating, by the first [`StatsExport::record`].
    writer: Mutex<Option<File>>,
    written: Mutex<HashSet<String>>,
}

impl StatsExport {
    /// An export to `path`. The file (and any missing parent directory)
    /// is created, truncating, when the first cell is recorded.
    pub fn new(path: impl Into<PathBuf>) -> StatsExport {
        StatsExport {
            path: path.into(),
            writer: Mutex::new(None),
            written: Mutex::new(HashSet::new()),
        }
    }

    /// The export `BINGO_STATS` names for `stem`, or `None` when unset. A
    /// value that names an existing directory or ends in a separator is a
    /// directory, and the file inside it is `<stem>.json`, so one
    /// `BINGO_STATS=results/` serves every figure of a multi-figure run.
    pub fn from_env(stem: &str) -> Option<StatsExport> {
        let target = std::env::var(STATS_ENV).ok()?;
        Some(StatsExport::new(resolve_path(Path::new(&target), stem)))
    }

    /// The file this export writes.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Writes one cell as a JSON line, flushed immediately. A key already
    /// written is skipped — repeated grids over one harness report each
    /// cell once.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from appending to the export file.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be created: a run asked to export stats
    /// must not silently drop them.
    pub fn record(&self, key: &str, result: &SimResult) -> io::Result<()> {
        if !lock(&self.written).insert(key.to_string()) {
            return Ok(());
        }
        let line = serialize_entry(key, result);
        let mut writer = lock(&self.writer);
        let writer = writer.get_or_insert_with(|| {
            create_file(&self.path).unwrap_or_else(|e| {
                panic!("cannot create stats export {}: {e}", self.path.display())
            })
        });
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()
    }
}

/// Maps a directory-like path to `<dir>/<stem>.json`.
fn resolve_path(path: &Path, stem: &str) -> PathBuf {
    let dir_like = path.is_dir()
        || path
            .to_str()
            .is_some_and(|s| s.ends_with('/') || s.ends_with(std::path::MAIN_SEPARATOR));
    if dir_like {
        path.join(format!("{stem}.json"))
    } else {
        path.to_path_buf()
    }
}

/// Creates (truncating) `path` and any missing parent directory.
fn create_file(path: &Path) -> io::Result<File> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    File::create(path)
}

/// Locks a mutex, ignoring poisoning: the export state is a plain set and
/// file handle, consistent even if another thread panicked mid-sweep.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_sim::{CacheStats, CoreStats};

    fn sample(salt: u64) -> SimResult {
        SimResult {
            cores: vec![CoreStats {
                instructions: salt,
                cycles: 2 * salt,
                ..CoreStats::default()
            }],
            l1d: CacheStats::default(),
            llc: CacheStats::default(),
            dram_transfers: 1,
            total_cycles: 2 * salt,
            prefetcher_debug: vec![],
            prefetcher_metrics: vec![vec![]],
            telemetry: None,
            ingest: None,
            qos: None,
        }
    }

    fn tmp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bingo-stats-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn writes_one_line_per_unique_key() {
        let path = tmp_dir().join("unique.json");
        let export = StatsExport::new(&path);
        export.record("a", &sample(1)).expect("write a");
        export.record("b", &sample(2)).expect("write b");
        export.record("a", &sample(3)).expect("dup is a no-op");
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "duplicate key must not re-export");
        assert!(lines[0].contains("\"key\":\"a\""));
        assert!(lines[1].contains("\"key\":\"b\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn create_truncates_previous_report() {
        let path = tmp_dir().join("truncate.json");
        let export = StatsExport::new(&path);
        export.record("stale", &sample(1)).expect("write");
        drop(export);
        let export = StatsExport::new(&path);
        export.record("fresh", &sample(2)).expect("write");
        drop(export);
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(!text.contains("stale"), "report is truncated, not appended");
        assert!(text.contains("fresh"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn directory_target_names_file_after_the_stem() {
        let dir = tmp_dir().join("results");
        std::fs::create_dir_all(&dir).expect("dir");
        let named = dir.join("fig8_performance.json");
        assert_eq!(resolve_path(&dir, "fig8_performance"), named);
        let missing = tmp_dir().join("not-yet");
        let slash = PathBuf::from(format!("{}/", missing.display()));
        assert_eq!(
            resolve_path(&slash, "fig_qos"),
            missing.join("fig_qos.json")
        );
        let file = dir.join("out.json");
        assert_eq!(resolve_path(&file, "fig_qos"), file);
    }

    #[test]
    fn an_export_that_records_nothing_writes_no_file() {
        let path = tmp_dir().join("untouched/never.json");
        drop(StatsExport::new(&path));
        assert!(!path.exists(), "no cell recorded, so no file");
    }

    #[test]
    fn missing_parent_directories_are_created() {
        let path = tmp_dir().join("deep/nested/out.json");
        let export = StatsExport::new(&path);
        export.record("k", &sample(1)).expect("write");
        assert!(path.exists());
        let _ = std::fs::remove_file(&path);
    }
}
