//! The correctness gate: an FNV-1a digest over every simulated result of a
//! cell, the invariants each result must satisfy, and the committed
//! digests they are compared against.

use bingo_sim::{
    CacheConfig, CacheStats, CoreQos, CoreStats, IngestReport, QosReport, SimResult, SystemConfig,
    BLOCK_BYTES,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn words<const N: usize>(&mut self, values: [u64; N]) {
        values.into_iter().for_each(|v| self.word(v));
    }
}

/// Digest of a cell's simulated results: per-core [`CoreStats`], every
/// [`CacheStats`] field of L1D and LLC, `dram_transfers`, `total_cycles`,
/// and `ingest` and `qos` when present. Prefetcher debug strings, metrics
/// and telemetry are left out.
///
/// Every struct is destructured field by field, so a counter added to the
/// simulator fails to compile here until the digest covers it.
pub fn digest(result: &SimResult) -> u64 {
    let SimResult {
        cores,
        l1d,
        llc,
        dram_transfers,
        total_cycles,
        prefetcher_debug: _,
        prefetcher_metrics: _,
        telemetry: _,
        ingest,
        qos,
    } = result;
    let mut h = Fnv(FNV_OFFSET);
    h.word(cores.len() as u64);
    for core in cores {
        let CoreStats {
            instructions,
            cycles,
            loads,
            stores,
            dispatch_stall_cycles,
            dependency_stall_cycles,
        } = *core;
        h.words([
            instructions,
            cycles,
            loads,
            stores,
            dispatch_stall_cycles,
            dependency_stall_cycles,
        ]);
    }
    cache(&mut h, l1d);
    cache(&mut h, llc);
    h.words([*dram_transfers, *total_cycles]);
    match ingest {
        None => h.word(0),
        Some(report) => {
            let IngestReport {
                delivered_records,
                quarantined_records,
                quarantined_bytes,
                skipped_chunks,
            } = *report;
            h.words([
                1,
                delivered_records,
                quarantined_records,
                quarantined_bytes,
                skipped_chunks,
            ]);
        }
    }
    match qos {
        None => h.word(0),
        Some(QosReport {
            cores,
            watchdog_epochs,
            watchdog_starved_epochs,
            watchdog_clamps,
            watchdog_exempted,
        }) => {
            h.words([1, cores.len() as u64]);
            for core in cores {
                let CoreQos {
                    demand_accesses,
                    pf_issued,
                    pf_used,
                    prefetch_reads,
                    reads,
                    epochs,
                    degrades,
                    upgrades,
                    final_level,
                } = *core;
                h.words([
                    demand_accesses,
                    pf_issued,
                    pf_used,
                    prefetch_reads,
                    reads,
                    epochs,
                    degrades,
                    upgrades,
                    u64::from(final_level),
                ]);
            }
            h.words([
                *watchdog_epochs,
                *watchdog_starved_epochs,
                *watchdog_clamps,
                *watchdog_exempted,
            ]);
        }
    }
    h.0
}

fn cache(h: &mut Fnv, stats: &CacheStats) {
    let CacheStats {
        demand_accesses,
        demand_hits,
        demand_hits_pending,
        demand_misses,
        demand_mshr_stalls,
        evictions,
        writebacks,
        pf_requested,
        pf_dropped_duplicate,
        pf_dropped_mshr,
        pf_dropped_queue,
        pf_issued,
        pf_useful,
        pf_late,
        pf_useless,
    } = *stats;
    h.words([
        demand_accesses,
        demand_hits,
        demand_hits_pending,
        demand_misses,
        demand_mshr_stalls,
        evictions,
        writebacks,
        pf_requested,
        pf_dropped_duplicate,
        pf_dropped_mshr,
        pf_dropped_queue,
        pf_issued,
        pf_useful,
        pf_late,
        pf_useless,
    ]);
}

/// Checks the invariants every cell's result must satisfy on machine
/// `cfg`; `Err` names the first one broken.
///
/// * each core retired exactly `target` measured instructions;
/// * in each cache, `pf_requested` is `pf_issued` plus the three drop
///   counters;
/// * in each cache, the prefetches judged (useful, late or useless) do
///   not exceed those issued plus those that can carry over the warm-up
///   reset, which zeroes the counters but not the prefetched lines still
///   resident or in flight: at most one per block frame and MSHR;
/// * trace ingest is present exactly when the cell `replays` a trace,
///   and then clean.
pub(crate) fn check_invariants(
    result: &SimResult,
    cfg: &SystemConfig,
    target: u64,
    replays: bool,
) -> Result<(), String> {
    for (i, core) in result.cores.iter().enumerate() {
        if core.instructions != target {
            return Err(format!(
                "core {i} retired {} instructions, target {target}",
                core.instructions
            ));
        }
    }
    let frames = |c: &CacheConfig| c.size_bytes / BLOCK_BYTES + c.mshrs as u64;
    for (level, s, carried) in [
        ("L1D", &result.l1d, frames(&cfg.l1d) * cfg.cores as u64),
        ("LLC", &result.llc, frames(&cfg.llc)),
    ] {
        let accounted =
            s.pf_issued + s.pf_dropped_duplicate + s.pf_dropped_mshr + s.pf_dropped_queue;
        if s.pf_requested != accounted {
            return Err(format!(
                "{level}: pf_requested {} != issued + dropped {accounted}",
                s.pf_requested
            ));
        }
        let judged = s.pf_useful + s.pf_late + s.pf_useless;
        if judged > s.pf_issued + carried {
            return Err(format!(
                "{level}: {judged} prefetches judged, only {} issued and {carried} carried over",
                s.pf_issued
            ));
        }
    }
    match (&result.ingest, replays) {
        (None, false) => Ok(()),
        (Some(report), true) if report.is_clean() => Ok(()),
        (Some(report), true) => Err(format!("trace ingest not clean: {report}")),
        (None, true) => Err("replayed cell carries no ingest report".into()),
        (Some(_), false) => Err("live cell carries an ingest report".into()),
    }
}

/// The committed golden digests, one per (seed, workload, cell).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Expected {
    entries: Vec<(u64, String, String, u64)>,
}

/// What the golden table says about one cell.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Golden {
    /// The table holds no digest for this seed and workload: only the
    /// determinism and invariant checks apply.
    Unlisted,
    /// The table lists the seed and workload but not this cell.
    Missing,
    /// The committed digest.
    Digest(u64),
}

impl Expected {
    /// The table committed as `crates/benchmark/expected.txt`.
    pub fn committed() -> Self {
        Self::parse(include_str!("../expected.txt")).expect("the committed expected.txt parses")
    }

    /// Parses lines of `<seed> <workload> <cell> <digest as 16 hex digits>`;
    /// blank lines and lines starting with `#` are skipped.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("expected.txt line {}: {line:?}", n + 1);
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [seed, workload, cell, digest] = fields[..] else {
                return Err(bad());
            };
            let seed = seed.parse().map_err(|_| bad())?;
            let digest = u64::from_str_radix(digest, 16).map_err(|_| bad())?;
            entries.push((seed, workload.to_string(), cell.to_string(), digest));
        }
        Ok(Expected { entries })
    }

    /// The line [`Expected::parse`] reads back for one cell.
    pub fn line(seed: u64, workload: &str, cell: &str, digest: u64) -> String {
        format!("{seed} {workload} {cell} {digest:016x}")
    }

    /// Looks up one cell.
    pub fn golden(&self, seed: u64, workload: &str, cell: &str) -> Golden {
        let mut listed = self
            .entries
            .iter()
            .filter(|(s, w, _, _)| *s == seed && w == workload)
            .peekable();
        if listed.peek().is_none() {
            return Golden::Unlisted;
        }
        listed
            .find(|(_, _, c, _)| c == cell)
            .map_or(Golden::Missing, |&(_, _, _, d)| Golden::Digest(d))
    }
}
