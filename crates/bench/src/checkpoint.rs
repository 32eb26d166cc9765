//! Crash-safe sweep checkpoints: a JSONL file of completed cell results,
//! and the run's one machine-readable record of them.
//!
//! A long sweep killed mid-run (OOM, ^C, node preemption) loses hours of
//! finished cells. The checkpoint makes each cell's [`SimResult`] durable
//! the moment it completes: one self-contained JSON line per cell, appended
//! and flushed immediately by the worker that ran it, keyed by
//! [`crate::RunSpec::key`] — every field of the run description (scale,
//! machine, per-core slots, throttle, chaos). A resumed sweep
//! pointed at the same file replays the finished cells from disk and only
//! simulates the missing ones; because a cell's result is a pure function
//! of its key (see the determinism notes in [`crate::runner`]), the
//! resumed sweep is **bit-for-bit identical** to an uninterrupted one —
//! test-locked by `resume_from_checkpoint_is_bit_for_bit_identical`.
//!
//! The same file is the stats export: each line holds a cell's full
//! [`SimResult`] (its prefetch-lifecycle report always, its ingest and QoS
//! reports when the run carries them), so offline analysis parses it with
//! any JSON reader. A fresh file records every cell the run simulates,
//! each once, in completion order; a resumed run appends only the cells it
//! simulated.
//!
//! Robustness properties:
//!
//! * a torn final line (the process died mid-write) is skipped, not fatal;
//! * corrupt or hand-edited lines are skipped the same way, and counted in
//!   [`Checkpoint::skipped_lines`] so tampering is visible;
//! * stale lines — keys without the `run:` prefix, written under an older
//!   key format that no cell can look up — are skipped and counted too,
//!   so those cells re-simulate;
//! * a line without a `telemetry` object, written when the lifecycle
//!   report was optional, is stale the same way;
//! * every counter array holds exactly one number per counter of its
//!   struct's walk ([`bingo_sim::Counters`]), in walk order; a line with
//!   an array of any other length (one written under another layout) is
//!   skipped too, so no cell replays half-read counters;
//! * floats are stored as IEEE-754 bit patterns (`f64::to_bits`), so a
//!   round trip through the file cannot lose precision — "resume equals
//!   fresh run" holds at the bit level, not merely approximately;
//! * only successful cells are recorded: a panicked or timed-out cell is
//!   retried on resume rather than replayed as a failure.
//!
//! The line is JSON read and escaped by the crate's one hand-rolled JSON
//! module (this workspace builds offline, without serde). Every number a
//! line carries is an unsigned integer, read back exactly.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use bingo_sim::{Counters, QosReport, SimResult, TelemetryReport};

use crate::json::{self, Json};

/// Environment variable naming the checkpoint file for CLI sweeps.
pub const CHECKPOINT_ENV: &str = "BINGO_CHECKPOINT";

/// A durable map from cell key to completed [`SimResult`], backed by an
/// append-only JSONL file.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    entries: Mutex<HashMap<String, SimResult>>,
    writer: Mutex<File>,
    skipped: usize,
}

impl Checkpoint {
    /// Opens (or creates) the checkpoint file, loading every parseable
    /// `run:` entry. Unparseable lines — torn tails, hand-edits, bit rot —
    /// and stale lines under older key formats are skipped and counted,
    /// never fatal.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from reading or opening the file itself.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Checkpoint> {
        let path = path.as_ref().to_path_buf();
        let mut entries = HashMap::new();
        let mut skipped = 0;
        match File::open(&path) {
            Ok(mut f) => {
                let mut text = String::new();
                f.read_to_string(&mut text)?;
                for line in text.lines() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    match parse_entry(line) {
                        Some((key, result)) => {
                            entries.insert(key, result);
                        }
                        None => skipped += 1,
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let writer = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Checkpoint {
            path,
            entries: Mutex::new(entries),
            writer: Mutex::new(writer),
            skipped,
        })
    }

    /// The backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of loaded entries.
    pub fn len(&self) -> usize {
        lock(&self.entries).len()
    }

    /// Whether no entry was loaded or recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lines of the existing file that did not parse, or were stale, and
    /// were ignored.
    pub fn skipped_lines(&self) -> usize {
        self.skipped
    }

    /// The recorded result for a cell key, if any.
    pub fn get(&self, key: &str) -> Option<SimResult> {
        lock(&self.entries).get(key).cloned()
    }

    /// Records a completed cell: inserted in memory and appended to the
    /// file with an immediate flush, so the entry survives a kill right
    /// after this call returns. Write errors are reported, not silently
    /// swallowed — but the in-memory entry stays either way, so the
    /// current sweep keeps its result.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from appending to the checkpoint file.
    pub fn record(&self, key: &str, result: &SimResult) -> io::Result<()> {
        let line = serialize_entry(key, result);
        lock(&self.entries).insert(key.to_string(), result.clone());
        let mut writer = lock(&self.writer);
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()
    }
}

/// Locks a mutex, ignoring poisoning: checkpoint state is a plain map and
/// stays consistent even if another thread panicked mid-sweep.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// --- serialization -------------------------------------------------------

fn serialize_entry(key: &str, r: &SimResult) -> String {
    let mut s = String::with_capacity(512);
    s.push_str("{\"key\":");
    json::push_string(&mut s, key);
    s.push_str(",\"cores\":[");
    for (i, c) in r.cores.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_counters(&mut s, c);
    }
    s.push_str("],\"l1d\":");
    push_counters(&mut s, &r.l1d);
    s.push_str(",\"llc\":");
    push_counters(&mut s, &r.llc);
    s.push_str(&format!(
        ",\"dram_transfers\":{},\"total_cycles\":{},\"debug\":[",
        r.dram_transfers, r.total_cycles
    ));
    for (i, d) in r.prefetcher_debug.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        json::push_string(&mut s, d);
    }
    s.push_str("],\"metrics\":[");
    for (i, core) in r.prefetcher_metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('[');
        for (j, (name, value)) in core.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push('[');
            json::push_string(&mut s, name);
            // f64 as IEEE-754 bits: exact round trip, no decimal formatting.
            s.push_str(&format!(",{}]", value.to_bits()));
        }
        s.push(']');
    }
    s.push(']');
    s.push_str(",\"telemetry\":{\"counts\":");
    push_counters(&mut s, &r.telemetry);
    s.push_str(",\"by_source\":[");
    for (i, (label, c)) in r.telemetry.by_source.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('[');
        json::push_string(&mut s, label);
        s.push(',');
        push_counters(&mut s, c);
        s.push(']');
    }
    s.push_str("]}");
    // Optional: only trace-replay cells carry ingestion accounting.
    if let Some(g) = &r.ingest {
        s.push_str(",\"ingest\":");
        push_counters(&mut s, g);
    }
    // Optional again: only `percore`-throttled runs carry QoS accounting.
    if let Some(q) = &r.qos {
        s.push_str(",\"qos\":{\"cores\":[");
        for (i, c) in q.cores.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_counters(&mut s, c);
        }
        s.push_str("],\"watchdog\":");
        push_counters(&mut s, q);
        s.push('}');
    }
    s.push('}');
    s
}

/// Appends a struct's counters as one JSON array, in walk order.
fn push_counters(s: &mut String, c: &impl Counters) {
    let values: Vec<String> = c.values().iter().map(u64::to_string).collect();
    s.push('[');
    s.push_str(&values.join(","));
    s.push(']');
}

// --- parsing -------------------------------------------------------------

/// Parses one checkpoint line into `(key, result)`; `None` on any
/// malformation or a stale key — the caller skips the line.
fn parse_entry(line: &str) -> Option<(String, SimResult)> {
    // Trailing garbage fails the parse: the whole line counts as torn.
    let root = Json::parse(line)?;
    // Only `RunSpec::key`'s format can be looked up; an older key is stale
    // and its result is never decoded.
    let key = root.field("key")?.str()?;
    if !key.starts_with("run:") {
        return None;
    }
    let result = SimResult {
        cores: list(root.field("cores")?, counters)?,
        l1d: counters(root.field("l1d")?)?,
        llc: counters(root.field("llc")?)?,
        dram_transfers: root.field("dram_transfers")?.num()?,
        total_cycles: root.field("total_cycles")?.num()?,
        prefetcher_debug: list(root.field("debug")?, |v| v.str().map(str::to_string))?,
        prefetcher_metrics: list(root.field("metrics")?, parse_metrics)?,
        telemetry: parse_telemetry(root.field("telemetry")?)?,
        // Optional: only trace-replay cells carry it.
        ingest: match root.field("ingest") {
            Some(v) => Some(counters(v)?),
            None => None,
        },
        // Optional: only percore-throttled lines carry QoS accounting.
        qos: match root.field("qos") {
            Some(v) => Some(QosReport {
                cores: list(v.field("cores")?, counters)?,
                ..counters(v.field("watchdog")?)?
            }),
            None => None,
        },
    };
    Some((key.to_string(), result))
}

/// Reads an array of exactly one number per counter of `C`, in walk
/// order.
fn counters<C: Counters>(v: &Json) -> Option<C> {
    let values = list(v, Json::num)?;
    C::from_values(&values)
}

/// Reads an array whose every element `parse` accepts.
fn list<T>(v: &Json, parse: impl Fn(&Json) -> Option<T>) -> Option<Vec<T>> {
    v.arr()?.iter().map(parse).collect()
}

fn parse_telemetry(v: &Json) -> Option<TelemetryReport> {
    Some(TelemetryReport {
        by_source: list(v.field("by_source")?, |pair| {
            let [label, c] = pair.arr()? else {
                return None;
            };
            Some((label.str()?.to_string(), counters(c)?))
        })?,
        ..counters(v.field("counts")?)?
    })
}

fn parse_metrics(v: &Json) -> Option<Vec<(&'static str, f64)>> {
    list(v, |pair| {
        let [name, bits] = pair.arr()? else {
            return None;
        };
        // Metric names are `&'static str` in SimResult; the small,
        // bounded set of distinct names makes leaking them the
        // pragmatic way to restore that lifetime from a file.
        let name: &'static str = Box::leak(name.str()?.into());
        Some((name, f64::from_bits(bits.num()?)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_sim::{CacheStats, CoreQos, CoreStats, IngestReport, SourceCounters};
    use std::collections::HashSet;

    /// `serialize_entry` of a result with every optional field.
    const PINNED: &str = concat!(
        r#"{"key":"run:1000/500/\"quoted\"/Bingo","#,
        r#""cores":[[103,250,30,10,5,7],[90,260,28,12,6,8]],"#,
        r#""l1d":[40,30,0,10,0,0,0,0,0,0,0,0,0,0,0],"#,
        r#""llc":[10,0,0,4,0,0,0,0,0,0,3,2,0,0,1],"#,
        r#""dram_transfers":9,"total_cycles":260,"#,
        r#""debug":["plain","quotes \" and \\ and\nnewline \u0001 unicode é"],"#,
        r#""metrics":[[["coverage",4592086352849071506],"#,
        r#"["nan_metric",9221120237041090560]],[]],"#,
        r#""telemetry":{"counts":[95,40000],"#,
        r#""by_source":[["long",[64,32,16,8,4]],["short",[32,16,8,4,2]]]},"#,
        r#""ingest":[10000,37,612,3],"#,
        r#""qos":{"cores":[[5000,900,700,850,1400,12,2,1,1]],"watchdog":[6,2,1,0]}}"#,
    );

    fn sample_result(salt: u64) -> SimResult {
        SimResult {
            cores: vec![
                CoreStats {
                    instructions: 100 + salt,
                    cycles: 250,
                    loads: 30,
                    stores: 10,
                    dispatch_stall_cycles: 5,
                    dependency_stall_cycles: 7,
                },
                CoreStats {
                    instructions: 90,
                    cycles: 260,
                    loads: 28,
                    stores: 12,
                    dispatch_stall_cycles: 6,
                    dependency_stall_cycles: 8,
                },
            ],
            l1d: CacheStats {
                demand_accesses: 40,
                demand_hits: 30,
                demand_misses: 10,
                ..CacheStats::default()
            },
            llc: CacheStats {
                demand_accesses: 10,
                demand_misses: 4,
                pf_issued: 3,
                pf_useful: 2,
                pf_dropped_queue: 1,
                ..CacheStats::default()
            },
            dram_transfers: 9,
            total_cycles: 260,
            prefetcher_debug: vec![
                "plain".to_string(),
                "quotes \" and \\ and\nnewline \u{1} unicode é".to_string(),
            ],
            prefetcher_metrics: vec![
                vec![
                    ("coverage", 0.1 + salt as f64 * 1e-3),
                    ("nan_metric", f64::NAN),
                ],
                vec![],
            ],
            telemetry: TelemetryReport::default(),
            ingest: None,
            qos: None,
        }
    }

    /// A `C` whose counters hold the next distinct values of `next`.
    fn distinct<C: Counters + Default>(next: &mut u64) -> C {
        let len = C::default().values().len() as u64;
        let values: Vec<u64> = (*next..*next + len).collect();
        *next += len;
        C::from_values(&values).expect("small values fit every counter")
    }

    /// A result carrying a full lifecycle report and both optional
    /// fields, every walked counter set to a value no other counter holds.
    fn distinct_result() -> SimResult {
        let mut n = 1;
        SimResult {
            cores: vec![distinct(&mut n), distinct(&mut n)],
            l1d: distinct(&mut n),
            llc: distinct(&mut n),
            telemetry: TelemetryReport {
                by_source: vec![
                    ("long".to_string(), distinct(&mut n)),
                    ("short".to_string(), distinct(&mut n)),
                ],
                ..distinct(&mut n)
            },
            ingest: Some(distinct(&mut n)),
            qos: Some(QosReport {
                cores: vec![distinct(&mut n), distinct(&mut n)],
                ..distinct(&mut n)
            }),
            ..sample_result(0)
        }
    }

    /// Every walked struct of `r` as `(name, walk values)`, the counter
    /// arrays a line carries.
    fn walks(r: &SimResult) -> Vec<(String, Vec<u64>)> {
        let mut out = Vec::new();
        for (i, c) in r.cores.iter().enumerate() {
            out.push((format!("core {i}"), c.values()));
        }
        out.push(("l1d".into(), r.l1d.values()));
        out.push(("llc".into(), r.llc.values()));
        out.push(("telemetry counts".into(), r.telemetry.values()));
        for (label, c) in &r.telemetry.by_source {
            out.push((format!("by_source {label}"), c.values()));
        }
        if let Some(g) = &r.ingest {
            out.push(("ingest".into(), g.values()));
        }
        if let Some(q) = &r.qos {
            for (i, c) in q.cores.iter().enumerate() {
                out.push((format!("qos core {i}"), c.values()));
            }
            out.push(("watchdog".into(), q.values()));
        }
        out
    }

    /// `values` as the JSON array a line carries.
    fn array(values: &[u64]) -> String {
        let text: Vec<String> = values.iter().map(u64::to_string).collect();
        format!("[{}]", text.join(","))
    }

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bingo-checkpoint-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Equality that also holds for NaN metrics (SimResult's PartialEq
    /// would reject NaN == NaN; the checkpoint must preserve even that).
    fn assert_bit_equal(a: &SimResult, b: &SimResult) {
        assert_eq!(a.cores, b.cores);
        assert_eq!(a.l1d, b.l1d);
        assert_eq!(a.llc, b.llc);
        assert_eq!(a.dram_transfers, b.dram_transfers);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.prefetcher_debug, b.prefetcher_debug);
        assert_eq!(a.prefetcher_metrics.len(), b.prefetcher_metrics.len());
        for (ca, cb) in a.prefetcher_metrics.iter().zip(&b.prefetcher_metrics) {
            assert_eq!(ca.len(), cb.len());
            for ((na, va), (nb, vb)) in ca.iter().zip(cb) {
                assert_eq!(na, nb);
                assert_eq!(va.to_bits(), vb.to_bits(), "metric {na} lost bits");
            }
        }
        assert_eq!(a.telemetry, b.telemetry);
        assert_eq!(a.ingest, b.ingest);
        assert_eq!(a.qos, b.qos);
    }

    /// Every walked counter, each holding its own value, comes back from
    /// the line in its own struct and position.
    #[test]
    fn round_trip_preserves_every_bit() {
        let r = distinct_result();
        let expected = walks(&r);
        let all: Vec<u64> = expected.iter().flat_map(|(_, v)| v.clone()).collect();
        assert_eq!(
            all.len(),
            all.iter().collect::<HashSet<_>>().len(),
            "values are distinct"
        );
        let line = serialize_entry("run:1000/500/Em3d/Bingo", &r);
        let (key, parsed) = parse_entry(&line).expect("own output parses");
        assert_eq!(key, "run:1000/500/Em3d/Bingo");
        assert_eq!(walks(&parsed), expected);
        assert_bit_equal(&r, &parsed);
        assert!(
            parse_entry(&line.replace("run:", "")).is_none(),
            "stale key"
        );
    }

    /// Each counter array must hold exactly its walk's length: one value
    /// more or fewer skips the whole line. So does a `final_level` that
    /// does not fit its `u8`.
    #[test]
    fn counter_arrays_of_another_length_are_rejected() {
        let r = distinct_result();
        let line = serialize_entry("run:k", &r);
        assert!(parse_entry(&line).is_some());
        for (name, values) in walks(&r) {
            let text = array(&values);
            assert_eq!(line.matches(&text).count(), 1, "{name}: {text} in {line}");
            let longer = array(&[&values[..], &[999]].concat());
            let shorter = array(&values[..values.len() - 1]);
            for bad in [longer, shorter] {
                let edited = line.replace(&text, &bad);
                assert!(parse_entry(&edited).is_none(), "{name} as {bad} parsed");
            }
        }
        let core = r.qos.as_ref().expect("qos present").cores[0].values();
        let with_level = |level: u64| {
            let mut edited = core.clone();
            *edited.last_mut().expect("final_level is walked last") = level;
            line.replace(&array(&core), &array(&edited))
        };
        let parsed = parse_entry(&with_level(255)).expect("255 fits final_level");
        assert_eq!(parsed.1.qos.expect("qos").cores[0].final_level, 255);
        assert!(
            parse_entry(&with_level(256)).is_none(),
            "final_level 256 parsed"
        );
    }

    /// A result lacking one optional field writes no such field and reads
    /// back equal, with the field `None`.
    fn round_trip_without(field: &str, strip: fn(&mut SimResult)) {
        let mut r = distinct_result();
        strip(&mut r);
        let line = serialize_entry("run:k", &r);
        assert!(!line.contains(&format!("\"{field}\"")), "{line}");
        let (_, parsed) = parse_entry(&line).expect("own output parses");
        assert_bit_equal(&r, &parsed);
    }

    /// The lifecycle report reads back equal whether empty or full, and
    /// a line without one, written when the report was optional, is
    /// stale.
    #[test]
    fn round_trip_preserves_telemetry() {
        for telemetry in [TelemetryReport::default(), distinct_result().telemetry] {
            let r = SimResult {
                telemetry,
                ..distinct_result()
            };
            let (_, parsed) = parse_entry(&serialize_entry("run:k", &r)).expect("parses");
            assert_bit_equal(&r, &parsed);
        }
        let line = serialize_entry("run:k", &sample_result(0));
        let empty = r#","telemetry":{"counts":[0,0],"by_source":[]}"#;
        assert_eq!(line.matches(empty).count(), 1, "{line}");
        assert!(parse_entry(&line.replace(empty, "")).is_none());
    }

    #[test]
    fn round_trip_preserves_ingest_report() {
        round_trip_without("ingest", |r| r.ingest = None);
    }

    #[test]
    fn round_trip_preserves_qos_report() {
        round_trip_without("qos", |r| r.qos = None);
    }

    #[test]
    fn serialized_line_is_pinned() {
        let c = |base: u64| SourceCounters {
            issued: base,
            timely: base / 2,
            late: base / 4,
            unused: base / 8,
            dropped: base / 16,
        };
        let mut r = sample_result(3);
        r.telemetry = TelemetryReport {
            fills: 95,
            fill_latency_sum: 40_000,
            by_source: vec![("long".to_string(), c(64)), ("short".to_string(), c(32))],
        };
        r.ingest = Some(IngestReport {
            delivered_records: 10_000,
            quarantined_records: 37,
            quarantined_bytes: 612,
            skipped_chunks: 3,
        });
        r.qos = Some(QosReport {
            cores: vec![CoreQos {
                demand_accesses: 5_000,
                pf_issued: 900,
                pf_used: 700,
                prefetch_reads: 850,
                reads: 1_400,
                epochs: 12,
                degrades: 2,
                upgrades: 1,
                final_level: 1,
            }],
            watchdog_epochs: 6,
            watchdog_starved_epochs: 2,
            watchdog_clamps: 1,
            watchdog_exempted: 0,
        });
        let line = serialize_entry("run:1000/500/\"quoted\"/Bingo", &r);
        assert_eq!(line, PINNED);
        let (_, parsed) = parse_entry(&line).expect("own output parses");
        assert_bit_equal(&r, &parsed);
    }

    #[test]
    fn open_record_reopen_restores_entries() {
        let path = tmp_path("reopen");
        let cp = Checkpoint::open(&path).expect("create");
        assert!(cp.is_empty());
        cp.record("run:a", &sample_result(1)).expect("write");
        cp.record("run:b", &sample_result(2)).expect("write");
        drop(cp);
        let cp = Checkpoint::open(&path).expect("reopen");
        assert_eq!(cp.len(), 2);
        assert_eq!(cp.skipped_lines(), 0);
        assert_bit_equal(&cp.get("run:a").expect("a"), &sample_result(1));
        assert_bit_equal(&cp.get("run:b").expect("b"), &sample_result(2));
        assert!(cp.get("run:c").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_and_tampered_lines_are_skipped_not_fatal() {
        let path = tmp_path("torn");
        let cp = Checkpoint::open(&path).expect("create");
        cp.record("run:good", &sample_result(3)).expect("write");
        drop(cp);
        // Simulate a mid-write kill plus hand tampering: a torn half line,
        // a valid-JSON-wrong-shape line, and plain garbage.
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        let torn = serialize_entry("run:torn", &sample_result(4));
        writeln!(f, "{}", &torn[..torn.len() / 2]).expect("torn write");
        writeln!(f, "{{\"key\":\"run:shapeless\"}}").expect("tamper write");
        writeln!(f, "not json at all").expect("garbage write");
        drop(f);
        let cp = Checkpoint::open(&path).expect("reopen survives corruption");
        assert_eq!(cp.len(), 1, "only the intact entry is loaded");
        assert_eq!(cp.skipped_lines(), 3);
        assert!(cp.get("run:torn").is_none());
        assert_bit_equal(&cp.get("run:good").expect("good"), &sample_result(3));
        // The file still accepts new entries after corruption.
        cp.record("run:after", &sample_result(5))
            .expect("append after skip");
        let cp = Checkpoint::open(&path).expect("third open");
        assert_eq!(cp.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn latest_entry_wins_on_duplicate_keys() {
        let path = tmp_path("dup");
        let cp = Checkpoint::open(&path).expect("create");
        cp.record("run:k", &sample_result(1)).expect("write");
        cp.record("run:k", &sample_result(9)).expect("write");
        assert_eq!(cp.len(), 1);
        drop(cp);
        let cp = Checkpoint::open(&path).expect("reopen");
        assert_bit_equal(&cp.get("run:k").expect("k"), &sample_result(9));
        let _ = std::fs::remove_file(&path);
    }
}
