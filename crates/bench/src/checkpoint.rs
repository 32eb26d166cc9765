//! Crash-safe sweep checkpoints: a JSONL file of completed cell results.
//!
//! A long sweep killed mid-run (OOM, ^C, node preemption) loses hours of
//! finished cells. The checkpoint makes each cell's [`SimResult`] durable
//! the moment it completes: one self-contained JSON line per cell, appended
//! and flushed immediately by the worker that ran it, keyed by
//! [`crate::RunSpec::key`] — every field of the run description (scale,
//! machine, per-core slots, telemetry, throttle, chaos). A resumed sweep
//! pointed at the same file replays the finished cells from disk and only
//! simulates the missing ones; because a cell's result is a pure function
//! of its key (see the determinism notes in [`crate::runner`]), the
//! resumed sweep is **bit-for-bit identical** to an uninterrupted one —
//! test-locked by `resume_from_checkpoint_is_bit_for_bit_identical`.
//!
//! Robustness properties:
//!
//! * a torn final line (the process died mid-write) is skipped, not fatal;
//! * corrupt or hand-edited lines are skipped the same way, and counted in
//!   [`Checkpoint::skipped_lines`] so tampering is visible;
//! * stale lines — keys without the `run:` prefix, written under an older
//!   key format that no cell can look up — are skipped and counted too,
//!   so those cells re-simulate;
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

use bingo_sim::{
    CacheStats, CoreQos, CoreStats, IngestReport, QosReport, SimResult, SourceCounters,
    TelemetryReport,
};

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

pub(crate) fn serialize_entry(key: &str, r: &SimResult) -> String {
    let mut s = String::with_capacity(512);
    s.push_str("{\"key\":");
    json::push_string(&mut s, key);
    s.push_str(",\"cores\":[");
    for (i, c) in r.cores.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "[{},{},{},{},{},{}]",
            c.instructions,
            c.cycles,
            c.loads,
            c.stores,
            c.dispatch_stall_cycles,
            c.dependency_stall_cycles
        ));
    }
    s.push_str("],\"l1d\":");
    push_cache(&mut s, &r.l1d);
    s.push_str(",\"llc\":");
    push_cache(&mut s, &r.llc);
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
    // The telemetry field is optional: absent when the run had telemetry
    // off.
    if let Some(t) = &r.telemetry {
        s.push_str(",\"telemetry\":{\"counts\":");
        // `dropped_queue` rides at the end, as in `push_cache`.
        s.push_str(&format!(
            "[{},{},{},{},{},{},{},{},{},{},{}]",
            t.issued,
            t.dropped_duplicate,
            t.dropped_mshr,
            t.timely,
            t.late,
            t.unused,
            t.fills,
            t.fill_latency_sum,
            t.in_flight_at_end,
            t.orphans,
            t.dropped_queue
        ));
        s.push_str(",\"by_source\":[");
        for (i, (label, c)) in t.by_source.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('[');
            json::push_string(&mut s, label);
            s.push(',');
            push_source_counters(&mut s, c);
            s.push(']');
        }
        s.push_str("],\"hot_pcs\":[");
        for (i, (pc, c)) in t.hot_pcs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("[{pc},"));
            push_source_counters(&mut s, c);
            s.push(']');
        }
        s.push_str("]}");
    }
    // Also optional: only trace-replay cells carry ingestion accounting.
    if let Some(g) = &r.ingest {
        s.push_str(&format!(
            ",\"ingest\":[{},{},{},{}]",
            g.delivered_records, g.quarantined_records, g.quarantined_bytes, g.skipped_chunks
        ));
    }
    // Optional again: only `percore`-throttled runs carry QoS accounting.
    if let Some(q) = &r.qos {
        s.push_str(",\"qos\":{\"cores\":[");
        for (i, c) in q.cores.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "[{},{},{},{},{},{},{},{},{}]",
                c.demand_accesses,
                c.pf_issued,
                c.pf_used,
                c.prefetch_reads,
                c.reads,
                c.epochs,
                c.degrades,
                c.upgrades,
                c.final_level
            ));
        }
        s.push_str(&format!(
            "],\"watchdog\":[{},{},{},{}]}}",
            q.watchdog_epochs, q.watchdog_starved_epochs, q.watchdog_clamps, q.watchdog_exempted
        ));
    }
    s.push('}');
    s
}

fn push_source_counters(s: &mut String, c: &SourceCounters) {
    s.push_str(&format!(
        "[{},{},{},{},{}]",
        c.issued, c.timely, c.late, c.unused, c.dropped
    ));
}

fn push_cache(s: &mut String, c: &CacheStats) {
    // `pf_dropped_queue` rides at the *end*, not at its struct position.
    s.push_str(&format!(
        "[{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}]",
        c.demand_accesses,
        c.demand_hits,
        c.demand_hits_pending,
        c.demand_misses,
        c.demand_mshr_stalls,
        c.evictions,
        c.writebacks,
        c.pf_requested,
        c.pf_dropped_duplicate,
        c.pf_dropped_mshr,
        c.pf_issued,
        c.pf_useful,
        c.pf_late,
        c.pf_useless,
        c.pf_dropped_queue
    ));
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
    let cores = root
        .field("cores")?
        .arr()?
        .iter()
        .map(parse_core)
        .collect::<Option<Vec<_>>>()?;
    let result = SimResult {
        cores,
        l1d: parse_cache(root.field("l1d")?)?,
        llc: parse_cache(root.field("llc")?)?,
        dram_transfers: root.field("dram_transfers")?.num()?,
        total_cycles: root.field("total_cycles")?.num()?,
        prefetcher_debug: root
            .field("debug")?
            .arr()?
            .iter()
            .map(|v| v.str().map(str::to_string))
            .collect::<Option<Vec<_>>>()?,
        prefetcher_metrics: root
            .field("metrics")?
            .arr()?
            .iter()
            .map(parse_metrics)
            .collect::<Option<Vec<_>>>()?,
        // Optional: absent when the run had telemetry off.
        telemetry: match root.field("telemetry") {
            Some(v) => Some(parse_telemetry(v)?),
            None => None,
        },
        // Optional: only trace-replay cells carry it.
        ingest: match root.field("ingest") {
            Some(v) => Some(parse_ingest(v)?),
            None => None,
        },
        // Optional: only percore-throttled lines carry QoS accounting.
        qos: match root.field("qos") {
            Some(v) => Some(parse_qos(v)?),
            None => None,
        },
    };
    Some((key.to_string(), result))
}

fn parse_ingest(v: &Json) -> Option<IngestReport> {
    let a = v.arr()?;
    // Exactly 4 today; extra counters would ride at the end, so accept
    // longer arrays for forward compatibility but never shorter.
    if a.len() < 4 {
        return None;
    }
    Some(IngestReport {
        delivered_records: a[0].num()?,
        quarantined_records: a[1].num()?,
        quarantined_bytes: a[2].num()?,
        skipped_chunks: a[3].num()?,
    })
}

fn parse_qos(v: &Json) -> Option<QosReport> {
    let cores = v
        .field("cores")?
        .arr()?
        .iter()
        .map(|c| {
            let a = c.arr()?;
            // Exactly 9 today; extras would ride at the end.
            if a.len() < 9 {
                return None;
            }
            Some(CoreQos {
                demand_accesses: a[0].num()?,
                pf_issued: a[1].num()?,
                pf_used: a[2].num()?,
                prefetch_reads: a[3].num()?,
                reads: a[4].num()?,
                epochs: a[5].num()?,
                degrades: a[6].num()?,
                upgrades: a[7].num()?,
                final_level: u8::try_from(a[8].num()?).ok()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let wd = v.field("watchdog")?.arr()?;
    if wd.len() < 4 {
        return None;
    }
    Some(QosReport {
        cores,
        watchdog_epochs: wd[0].num()?,
        watchdog_starved_epochs: wd[1].num()?,
        watchdog_clamps: wd[2].num()?,
        watchdog_exempted: wd[3].num()?,
    })
}

fn parse_telemetry(v: &Json) -> Option<TelemetryReport> {
    let counts = v.field("counts")?.arr()?;
    if counts.len() != 11 {
        return None;
    }
    Some(TelemetryReport {
        issued: counts[0].num()?,
        dropped_duplicate: counts[1].num()?,
        dropped_mshr: counts[2].num()?,
        timely: counts[3].num()?,
        late: counts[4].num()?,
        unused: counts[5].num()?,
        fills: counts[6].num()?,
        fill_latency_sum: counts[7].num()?,
        in_flight_at_end: counts[8].num()?,
        orphans: counts[9].num()?,
        dropped_queue: counts[10].num()?,
        by_source: v
            .field("by_source")?
            .arr()?
            .iter()
            .map(|pair| {
                let a = pair.arr()?;
                if a.len() != 2 {
                    return None;
                }
                Some((a[0].str()?.to_string(), parse_source_counters(&a[1])?))
            })
            .collect::<Option<Vec<_>>>()?,
        hot_pcs: v
            .field("hot_pcs")?
            .arr()?
            .iter()
            .map(|pair| {
                let a = pair.arr()?;
                if a.len() != 2 {
                    return None;
                }
                Some((a[0].num()?, parse_source_counters(&a[1])?))
            })
            .collect::<Option<Vec<_>>>()?,
    })
}

fn parse_source_counters(v: &Json) -> Option<SourceCounters> {
    let a = v.arr()?;
    if a.len() != 5 {
        return None;
    }
    Some(SourceCounters {
        issued: a[0].num()?,
        timely: a[1].num()?,
        late: a[2].num()?,
        unused: a[3].num()?,
        dropped: a[4].num()?,
    })
}

fn parse_core(v: &Json) -> Option<CoreStats> {
    let a = v.arr()?;
    if a.len() != 6 {
        return None;
    }
    Some(CoreStats {
        instructions: a[0].num()?,
        cycles: a[1].num()?,
        loads: a[2].num()?,
        stores: a[3].num()?,
        dispatch_stall_cycles: a[4].num()?,
        dependency_stall_cycles: a[5].num()?,
    })
}

fn parse_cache(v: &Json) -> Option<CacheStats> {
    let a = v.arr()?;
    if a.len() != 15 {
        return None;
    }
    Some(CacheStats {
        demand_accesses: a[0].num()?,
        demand_hits: a[1].num()?,
        demand_hits_pending: a[2].num()?,
        demand_misses: a[3].num()?,
        demand_mshr_stalls: a[4].num()?,
        evictions: a[5].num()?,
        writebacks: a[6].num()?,
        pf_requested: a[7].num()?,
        pf_dropped_duplicate: a[8].num()?,
        pf_dropped_mshr: a[9].num()?,
        pf_issued: a[10].num()?,
        pf_useful: a[11].num()?,
        pf_late: a[12].num()?,
        pf_useless: a[13].num()?,
        pf_dropped_queue: a[14].num()?,
    })
}

fn parse_metrics(v: &Json) -> Option<Vec<(&'static str, f64)>> {
    v.arr()?
        .iter()
        .map(|pair| {
            let a = pair.arr()?;
            if a.len() != 2 {
                return None;
            }
            // Metric names are `&'static str` in SimResult; the small,
            // bounded set of distinct names makes leaking them the
            // pragmatic way to restore that lifetime from a file.
            let name: &'static str = Box::leak(a[0].str()?.into());
            Some((name, f64::from_bits(a[1].num()?)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        r#""telemetry":{"counts":[105,3,2,60,20,20,95,40000,0,0,1],"#,
        r#""by_source":[["long",[64,32,16,8,4]],["short",[32,16,8,4,2]]],"#,
        r#""hot_pcs":[[1024,[48,24,12,6,3]],[4660,[16,8,4,2,1]]]},"#,
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
            telemetry: None,
            ingest: None,
            qos: None,
        }
    }

    fn sample_telemetry(salt: u64) -> TelemetryReport {
        let c = |base: u64| SourceCounters {
            issued: base,
            timely: base / 2,
            late: base / 4,
            unused: base / 8,
            dropped: base / 16,
        };
        TelemetryReport {
            issued: 100 + salt,
            dropped_duplicate: 3,
            dropped_mshr: 2,
            dropped_queue: 1,
            timely: 60,
            late: 20,
            unused: 20,
            fills: 95,
            fill_latency_sum: 40_000,
            in_flight_at_end: 0,
            orphans: 0,
            by_source: vec![("long".to_string(), c(64)), ("short".to_string(), c(32))],
            hot_pcs: vec![(0x400, c(48)), (0x1234, c(16))],
        }
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
    }

    #[test]
    fn round_trip_preserves_every_bit() {
        let r = sample_result(1);
        let line = serialize_entry("run:1000/500/Em3d/Bingo", &r);
        let (key, parsed) = parse_entry(&line).expect("own output parses");
        assert_eq!(key, "run:1000/500/Em3d/Bingo");
        assert_bit_equal(&r, &parsed);
        // A 14-counter cache array (the pre-queue layout) is corrupt, and
        // a key under an older format is stale.
        let short = line.replace("3,2,0,0,1]", "3,2,0,0]");
        assert_ne!(short, line, "replacement must hit");
        assert!(parse_entry(&short).is_none(), "14-element cache is corrupt");
        assert!(
            parse_entry(&line.replace("run:", "")).is_none(),
            "stale key"
        );
    }

    #[test]
    fn round_trip_preserves_telemetry() {
        let mut r = sample_result(2);
        r.telemetry = Some(sample_telemetry(7));
        let line = serialize_entry("run:1000/500/Em3d/Bingo/Counts", &r);
        let (_, parsed) = parse_entry(&line).expect("own output parses");
        assert_bit_equal(&r, &parsed);
        // 10 counts (the pre-queue layout) are corrupt.
        let short = line.replace(
            "[107,3,2,60,20,20,95,40000,0,0,1]",
            "[107,3,2,60,20,20,95,40000,0,0]",
        );
        assert_ne!(short, line, "replacement must hit");
        assert!(
            parse_entry(&short).is_none(),
            "10 telemetry counts are corrupt"
        );
        // A telemetry-off result (no field) parses to None.
        let plain = serialize_entry("run:k", &sample_result(2));
        let (_, parsed) = parse_entry(&plain).expect("parses");
        assert!(parsed.telemetry.is_none());
    }

    #[test]
    fn round_trip_preserves_ingest_report() {
        let mut r = sample_result(9);
        r.ingest = Some(bingo_sim::IngestReport {
            delivered_records: 10_000,
            quarantined_records: 37,
            quarantined_bytes: 612,
            skipped_chunks: 3,
        });
        let line = serialize_entry("run:10/5/trace=/tmp/t/Bingo", &r);
        let (key, parsed) = parse_entry(&line).expect("parses");
        assert_eq!(key, "run:10/5/trace=/tmp/t/Bingo");
        assert_eq!(parsed.ingest, r.ingest);
        // A live cell's line (no field) parses to None.
        let plain = serialize_entry("run:k", &sample_result(2));
        let (_, parsed) = parse_entry(&plain).expect("parses");
        assert!(parsed.ingest.is_none());
        // Longer arrays (future counters ride at the end) still parse;
        // shorter ones are rejected as corrupt.
        let extended = line.replace(
            "\"ingest\":[10000,37,612,3]",
            "\"ingest\":[10000,37,612,3,8]",
        );
        assert_ne!(extended, line, "replacement must hit");
        assert_eq!(parse_entry(&extended).expect("parses").1.ingest, r.ingest);
        let torn = line.replace("\"ingest\":[10000,37,612,3]", "\"ingest\":[10000,37]");
        assert!(parse_entry(&torn).is_none(), "2-element ingest is corrupt");
    }

    #[test]
    fn round_trip_preserves_qos_report() {
        let mut r = sample_result(11);
        r.qos = Some(QosReport {
            cores: vec![
                CoreQos {
                    demand_accesses: 5_000,
                    pf_issued: 900,
                    pf_used: 700,
                    prefetch_reads: 850,
                    reads: 1_400,
                    epochs: 12,
                    degrades: 2,
                    upgrades: 1,
                    final_level: 1,
                },
                CoreQos {
                    demand_accesses: 4_800,
                    pf_issued: 40,
                    pf_used: 39,
                    prefetch_reads: 38,
                    reads: 620,
                    epochs: 12,
                    degrades: 0,
                    upgrades: 0,
                    final_level: 0,
                },
            ],
            watchdog_epochs: 6,
            watchdog_starved_epochs: 2,
            watchdog_clamps: 1,
            watchdog_exempted: 0,
        });
        let line = serialize_entry("run:1000/500/mix/Percore", &r);
        let (key, parsed) = parse_entry(&line).expect("own output parses");
        assert_eq!(key, "run:1000/500/mix/Percore");
        assert_eq!(parsed.qos, r.qos);
        // A qos-free result serializes without the field at all and
        // parses back to None.
        let plain = serialize_entry("run:k", &sample_result(11));
        assert!(!plain.contains("\"qos\""));
        let (_, parsed) = parse_entry(&plain).expect("parses");
        assert!(parsed.qos.is_none());
        // A torn per-core array is corrupt, not silently zero-filled.
        let torn = line.replace("[5000,900,700,850,1400,12,2,1,1]", "[5000,900]");
        assert_ne!(torn, line, "replacement must hit");
        assert!(
            parse_entry(&torn).is_none(),
            "2-element core qos is corrupt"
        );
    }

    #[test]
    fn serialized_line_is_pinned() {
        let mut r = sample_result(3);
        r.telemetry = Some(sample_telemetry(5));
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
        assert_eq!((parsed.ingest, parsed.qos), (r.ingest, r.qos));
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
