//! Machine-readable bench records: the perf-trajectory file format.
//!
//! The two `harness = false` bench binaries emit one JSON line per timed
//! case — `{"key":..,"unit":..,"median":..,"lo":..,"hi":..,"samples":..}`
//! — into the file named by `BINGO_BENCH_JSON`. The committed snapshot
//! (`BENCH_simulator.json` at the repo root) pins the current performance
//! baseline; the `bench_compare` binary diffs a fresh candidate against it
//! with a noise threshold and fails CI on regressions. Lines are read and
//! their strings escaped by the same JSON module as the checkpoint's.
//!
//! Writing follows the same discipline as [`crate::stats_export`]: errors
//! are loud (a run asked to record measurements must not silently drop
//! them) and a key is recorded once per writer (re-runs of a case inside
//! one process dedupe instead of double-reporting). Unlike the stats
//! export, the target file is *merged*, not truncated: both bench binaries
//! write to the one snapshot file, so a writer loads existing records,
//! keeps the better of the existing and the new record for each key it
//! re-measured, and atomically rewrites the whole file via a temp-file
//! rename — a crashed writer can never leave a half-written snapshot
//! behind.
//!
//! The `unit` string doubles as the comparison direction: units ending in
//! `/s` are throughputs (higher is better); everything else (`ms/run`,
//! `ns/op`) is a cost (lower is better).

use std::collections::HashSet;
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::json::{self, Json};

/// Environment variable naming the bench-record output file.
pub const BENCH_JSON_ENV: &str = "BINGO_BENCH_JSON";

/// Key of the host-speed calibration case every bench binary records.
///
/// The snapshot is a file of absolute times, but the machine that
/// produced it is not the machine checking against it — a different
/// runner class, or the same shared box under different co-tenant load,
/// shifts *every* case by a common factor. The calibration case is a
/// fixed CPU-bound spin whose time tracks that common factor;
/// `bench_compare` divides it out before applying the threshold, so the
/// gate measures the simulator against the host, not the host against
/// itself.
pub const CALIBRATION_KEY: &str = "calibration/spin";

/// Measures the calibration spin (median of 5 passes, ms/run).
pub fn calibration_record() -> BenchRecord {
    time_median(5, calibration_spin).cost_record(CALIBRATION_KEY)
}

/// A fixed workload whose profile resembles the simulator's: integer
/// arithmetic interleaved with random loads over a 32 MiB buffer (far
/// beyond any LLC), so its wall-clock tracks both CPU speed and the
/// memory-subsystem pressure a co-tenant or a different runner class
/// imposes. A pure ALU spin would miss bandwidth contention — the
/// component that hits the cache-model-heavy simulator hardest.
fn calibration_spin() {
    use std::sync::OnceLock;
    static BUF: OnceLock<Vec<u64>> = OnceLock::new();
    let buf = BUF.get_or_init(|| {
        let mut x = 0x1234_5678_9abc_def0u64;
        (0..(4usize << 20))
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    });
    let mask = (buf.len() - 1) as u64;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut sum = 0u64;
    for _ in 0..2_000_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x ^= x >> 33;
        sum = sum.wrapping_add(buf[(x & mask) as usize]);
    }
    std::hint::black_box(sum);
}

/// One measured case: a median over `samples` repeats with the observed
/// spread.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Case name, e.g. `fig8/Em3d/Bingo` or `prefetcher_access/spp`.
    pub key: String,
    /// Measurement unit; `…/s` units compare higher-is-better.
    pub unit: String,
    /// Median over the samples.
    pub median: f64,
    /// Smallest observed sample.
    pub lo: f64,
    /// Largest observed sample.
    pub hi: f64,
    /// Number of samples the median was taken over.
    pub samples: u32,
}

impl BenchRecord {
    /// Whether larger values of this record's unit are better.
    pub fn higher_is_better(&self) -> bool {
        self.unit.ends_with("/s")
    }

    /// Serializes to one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"key\":");
        json::push_string(&mut s, &self.key);
        s.push_str(",\"unit\":");
        json::push_string(&mut s, &self.unit);
        s.push_str(&format!(
            ",\"median\":{},\"lo\":{},\"hi\":{},\"samples\":{}}}",
            json_f64(self.median),
            json_f64(self.lo),
            json_f64(self.hi),
            self.samples,
        ));
        s
    }

    /// Parses one JSON line produced by [`BenchRecord::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description naming the first missing or mistyped field.
    pub fn from_json(line: &str) -> Result<BenchRecord, String> {
        let root = Json::parse(line).ok_or_else(|| format!("not a JSON object: {line:?}"))?;
        let field = |name: &str| {
            root.field(name)
                .ok_or_else(|| format!("missing field {name:?} in {line:?}"))
        };
        let mistyped = |name: &str, kind: &str| format!("field {name:?} is not {kind} in {line:?}");
        let text = |name: &str| {
            field(name)?
                .str()
                .map(str::to_string)
                .ok_or_else(|| mistyped(name, "a string"))
        };
        let number = |name: &str| {
            field(name)?
                .float()
                .ok_or_else(|| mistyped(name, "a number"))
        };
        Ok(BenchRecord {
            key: text("key")?,
            unit: text("unit")?,
            median: number("median")?,
            lo: number("lo")?,
            hi: number("hi")?,
            samples: field("samples")?
                .num()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| mistyped("samples", "a u32"))?,
        })
    }
}

/// Formats a float so that `f64::parse` round-trips it.
fn json_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Loads every record of a bench-JSON file, in file order.
///
/// # Errors
///
/// Returns I/O errors and the first malformed line (with its number).
pub fn load_records(path: &Path) -> io::Result<Vec<BenchRecord>> {
    let text = std::fs::read_to_string(path)?;
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = BenchRecord::from_json(line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}:{}: {e}", path.display(), i + 1),
            )
        })?;
        records.push(record);
    }
    Ok(records)
}

/// A merging, deduplicating writer of [`BenchRecord`]s.
///
/// Each [`BenchWriter::record`] call rewrites the target file atomically
/// (temp file + rename) with the merged record set: existing keys not
/// re-measured by this process are preserved, a re-measured key keeps
/// whichever record is *better* (by its unit's direction), and a key
/// recorded twice by this process is written once (first measurement
/// wins, matching the stats-export dedup policy).
///
/// Repeated `cargo bench` runs into the same file therefore accumulate a
/// best-of-runs snapshot: contention from co-tenant load only ever adds
/// time, so the per-key minimum converges on the host's intrinsic speed —
/// the right baseline to commit from a shared or otherwise noisy machine.
/// To record a slower baseline on purpose, accumulate into an empty file
/// and copy it over the snapshot.
#[derive(Debug)]
pub struct BenchWriter {
    path: PathBuf,
    records: Vec<BenchRecord>,
    written: HashSet<String>,
}

impl BenchWriter {
    /// Opens (or creates) the bench-record file at `path`, loading any
    /// existing records for merging.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from reading an existing file, and data errors
    /// from malformed existing records — a corrupt snapshot must be fixed
    /// or deleted explicitly, never silently clobbered.
    pub fn open(path: impl AsRef<Path>) -> io::Result<BenchWriter> {
        let path = path.as_ref().to_path_buf();
        let records = match load_records(&path) {
            Ok(records) => records,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        Ok(BenchWriter {
            path,
            records,
            written: HashSet::new(),
        })
    }

    /// Builds the writer named by `BINGO_BENCH_JSON`, or `None` when the
    /// variable is unset.
    ///
    /// # Panics
    ///
    /// Panics if the variable is set but the file cannot be opened or
    /// parsed (a run asked to record measurements must not drop them).
    pub fn from_env() -> Option<BenchWriter> {
        let path = std::env::var(BENCH_JSON_ENV).ok()?;
        Some(
            BenchWriter::open(&path)
                .unwrap_or_else(|e| panic!("{BENCH_JSON_ENV}: cannot open {path:?}: {e}")),
        )
    }

    /// The target file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records one measurement and rewrites the file. A key already
    /// recorded by this writer is skipped.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from rewriting the file.
    pub fn record(&mut self, record: BenchRecord) -> io::Result<()> {
        if !self.written.insert(record.key.clone()) {
            return Ok(());
        }
        if let Some(existing) = self.records.iter_mut().find(|r| r.key == record.key) {
            let keep_existing = existing.unit == record.unit
                && if record.higher_is_better() {
                    existing.median >= record.median
                } else {
                    existing.median <= record.median
                };
            if !keep_existing {
                *existing = record;
            }
        } else {
            self.records.push(record);
        }
        self.rewrite()
    }

    /// Records and panics on failure — the loud path for bench binaries.
    ///
    /// # Panics
    ///
    /// Panics on any I/O error, naming the file.
    pub fn record_or_die(&mut self, record: BenchRecord) {
        let key = record.key.clone();
        if let Err(e) = self.record(record) {
            panic!("cannot record {key:?} to {:?}: {e}", self.path);
        }
    }

    /// Atomically replaces the target file with the merged record set.
    fn rewrite(&self) -> io::Result<()> {
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = self.path.with_extension("json.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            for r in &self.records {
                f.write_all(r.to_json().as_bytes())?;
                f.write_all(b"\n")?;
            }
            f.flush()?;
        }
        std::fs::rename(&tmp, &self.path)
    }
}

/// Median-of-N timing: runs `f` once untimed (warmup), then `samples`
/// timed passes, and returns the per-pass statistics in milliseconds.
pub fn time_median(samples: u32, mut f: impl FnMut()) -> Sample {
    assert!(samples > 0, "need at least one sample");
    f();
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    Sample {
        median: times[times.len() / 2],
        lo: times[0],
        hi: times[times.len() - 1],
        samples,
    }
}

/// Per-pass wall-clock statistics from [`time_median`], in milliseconds.
#[derive(Copy, Clone, Debug)]
pub struct Sample {
    /// Median pass time (ms).
    pub median: f64,
    /// Fastest pass (ms).
    pub lo: f64,
    /// Slowest pass (ms).
    pub hi: f64,
    /// Number of timed passes.
    pub samples: u32,
}

impl Sample {
    /// Converts to a record measuring cost in `ms/run`.
    pub fn cost_record(&self, key: &str) -> BenchRecord {
        BenchRecord {
            key: key.to_string(),
            unit: "ms/run".to_string(),
            median: self.median,
            lo: self.lo,
            hi: self.hi,
            samples: self.samples,
        }
    }

    /// Converts to a throughput record in `Minstr/s`, given the number of
    /// simulated instructions each pass executes. The spread maps
    /// inversely: the fastest pass is the highest throughput.
    pub fn throughput_record(&self, key: &str, instructions: f64) -> BenchRecord {
        let to_minstr_s = |ms: f64| instructions / (ms * 1e-3) / 1e6;
        BenchRecord {
            key: key.to_string(),
            unit: "Minstr/s".to_string(),
            median: to_minstr_s(self.median),
            lo: to_minstr_s(self.hi),
            hi: to_minstr_s(self.lo),
            samples: self.samples,
        }
    }
}

impl fmt::Display for BenchRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.3} {} (lo {:.3}, hi {:.3}, n={})",
            self.key, self.median, self.unit, self.lo, self.hi, self.samples
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(key: &str, median: f64) -> BenchRecord {
        BenchRecord {
            key: key.to_string(),
            unit: "ms/run".to_string(),
            median,
            lo: median * 0.9,
            hi: median * 1.1,
            samples: 5,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bingo-bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn json_round_trips() {
        let r = BenchRecord {
            key: "fig8/Em3d/Bingo".to_string(),
            unit: "Minstr/s".to_string(),
            median: 12.625,
            lo: 11.0,
            hi: 13.5,
            samples: 5,
        };
        let parsed = BenchRecord::from_json(&r.to_json()).expect("parse back");
        assert_eq!(parsed, r);
        assert!(parsed.higher_is_better());
        assert!(!rec("x", 1.0).higher_is_better());
    }

    #[test]
    fn committed_snapshot_re_renders_byte_for_byte() {
        let snapshot = include_str!("../../../BENCH_simulator.json");
        assert!(snapshot.lines().count() > 100);
        for line in snapshot.lines() {
            let record = BenchRecord::from_json(line).expect("committed record parses");
            assert_eq!(record.to_json(), line);
        }
    }

    #[test]
    fn malformed_lines_are_rejected_loudly() {
        for (bad, names) in [
            ("not json", "not a JSON object"),
            ("{\"key\":\"a\"}", "missing field \"unit\""),
            (
                "{\"key\":\"a\",\"unit\":\"ms/run\",\"median\":\"abc\",\"lo\":1,\"hi\":2,\"samples\":3}",
                "field \"median\" is not a number",
            ),
            (
                "{\"key\":\"a\",\"unit\":\"ms/run\",\"median\":1,\"lo\":1,\"hi\":2,\"samples\":3.5}",
                "field \"samples\" is not a u32",
            ),
        ] {
            let err = BenchRecord::from_json(bad).expect_err(bad);
            assert!(err.contains(names), "{bad}: {err}");
        }
    }

    #[test]
    fn writer_merges_and_replaces_by_key() {
        let path = tmp("merge.json");
        let _ = std::fs::remove_file(&path);
        let mut w = BenchWriter::open(&path).expect("open fresh");
        w.record(rec("a", 1.0)).expect("a");
        w.record(rec("b", 7.0)).expect("b");
        drop(w);
        // A second writer (another bench binary) improves one key and adds
        // another; the untouched key survives.
        let mut w = BenchWriter::open(&path).expect("reopen");
        w.record(rec("b", 5.0)).expect("update b");
        w.record(rec("c", 3.0)).expect("add c");
        drop(w);
        let records = load_records(&path).expect("load");
        let get = |k: &str| {
            records
                .iter()
                .find(|r| r.key == k)
                .unwrap_or_else(|| panic!("missing {k}"))
                .median
        };
        assert_eq!(records.len(), 3);
        assert_eq!(get("a"), 1.0);
        assert_eq!(get("b"), 5.0);
        assert_eq!(get("c"), 3.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn writer_keeps_the_better_of_existing_and_new_records() {
        let path = tmp("keepbest.json");
        let _ = std::fs::remove_file(&path);
        let mut w = BenchWriter::open(&path).expect("open");
        w.record(rec("cost", 5.0)).expect("seed cost");
        drop(w);
        // Second "run": a slower cost is discarded, a faster one kept.
        let mut w = BenchWriter::open(&path).expect("reopen");
        w.record(rec("cost", 9.0)).expect("slower ignored");
        drop(w);
        let mut w = BenchWriter::open(&path).expect("reopen");
        w.record(rec("cost", 3.0)).expect("faster kept");
        // Throughput direction: higher wins.
        let thru = |median: f64| BenchRecord {
            key: "thru".to_string(),
            unit: "Minstr/s".to_string(),
            median,
            lo: median,
            hi: median,
            samples: 3,
        };
        w.record(thru(40.0)).expect("seed thru");
        drop(w);
        let mut w = BenchWriter::open(&path).expect("reopen");
        w.record(thru(55.0)).expect("higher kept");
        drop(w);
        let records = load_records(&path).expect("load");
        let get = |k: &str| records.iter().find(|r| r.key == k).expect(k).median;
        assert_eq!(get("cost"), 3.0);
        assert_eq!(get("thru"), 55.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn repeat_keys_in_one_process_dedupe() {
        let path = tmp("dedupe.json");
        let _ = std::fs::remove_file(&path);
        let mut w = BenchWriter::open(&path).expect("open");
        w.record(rec("a", 1.0)).expect("first");
        w.record(rec("a", 9.0)).expect("dup is a no-op");
        drop(w);
        let records = load_records(&path).expect("load");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].median, 1.0, "first measurement wins");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_existing_file_fails_open_instead_of_clobbering() {
        let path = tmp("corrupt.json");
        std::fs::write(&path, "{malformed\n").expect("seed corrupt file");
        let err = BenchWriter::open(&path).expect_err("must refuse to open");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The corrupt content is still there for inspection.
        let text = std::fs::read_to_string(&path).expect("still readable");
        assert!(text.contains("malformed"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn time_median_orders_spread() {
        let mut n = 0u64;
        let s = time_median(5, || {
            n += 1;
            std::hint::black_box(n);
        });
        assert!(s.lo <= s.median && s.median <= s.hi);
        assert_eq!(s.samples, 5);
        let t = s.throughput_record("k", 1_000_000.0);
        assert!(t.lo <= t.median && t.median <= t.hi);
    }
}
