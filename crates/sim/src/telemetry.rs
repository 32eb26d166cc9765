//! Prefetch-lifecycle observability: the [`PrefetchLedger`].
//!
//! The aggregate prefetch counters in [`CacheStats`](crate::CacheStats)
//! (`pf_useful`, `pf_late`, `pf_useless`) say *how many* prefetches helped,
//! but not *which* predictions produced them, *who* triggered them, or *how
//! long* they were in flight. The ledger tracks every prefetch through its
//! full lifecycle:
//!
//! ```text
//! issued ──► in flight ──► filled ──► used timely     (pf_useful)
//!    │            │                   used late        (pf_late)
//!    │            └──────────────────► used late       (demand merged in flight)
//!    │                                 evicted unused  (pf_useless)
//!    └──► dropped (duplicate / queue / MSHR)
//! ```
//!
//! and attributes each one to the prediction event that produced it
//! ([`PrefetchSource`]: Bingo's long `PC+Address` event, its voted short
//! `PC+Offset` event, or a multi-event cascade level) and to the trigger
//! PC, mirroring the paper's per-event quality analysis. The issuing core
//! is not tracked here: it lives on the LLC line, and only the per-core
//! throttle reads it.
//!
//! **Zero cost when disabled.** The level is checked once per access
//! ([`PrefetchLedger::enabled`], a single branch on a two-variant check);
//! with [`TelemetryLevel::Off`] no record is ever allocated and the
//! simulated machine is untouched either way — telemetry observes fills and
//! evictions, it never changes them. `telemetry_on_is_invisible` in
//! `tests/telemetry.rs` locks the on/off miss streams bit-for-bit equal.
//!
//! **Agreement with the cache counters.** The report keeps no totals of
//! its own: the LLC's `pf_*` counters are the one tally of how many
//! prefetches issued, dropped and settled. The ledger classifies a use as
//! timely or late by observing the same events that increment `pf_useful`
//! / `pf_late`, and closes unused records on the same evictions that
//! increment `pf_useless`, so at end of run its per-source counters sum to
//! the LLC's exactly: `issued` to `pf_issued`, `timely` to `pf_useful`,
//! `late` to `pf_late`, `unused` to `pf_useless`, and `dropped` to the
//! three `pf_dropped_*` together — including across a warmup reset. These
//! sums are test-locked, making the attribution a cross-check of the cache
//! counters rather than a second opinion.

use std::collections::HashMap;

use crate::stats::counters;

/// How much prefetch-lifecycle instrumentation to collect.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum TelemetryLevel {
    /// No instrumentation; the hot path pays one branch per access.
    #[default]
    Off,
    /// Lifecycle counters plus per-source and per-PC attribution.
    Counts,
}

impl TelemetryLevel {
    /// Whether any instrumentation is active.
    pub fn enabled(self) -> bool {
        self != TelemetryLevel::Off
    }

    /// Parses the spelling used by the `BINGO_TELEMETRY` knob: `off` or
    /// `counts`, trimmed and in any case; `None` on anything else,
    /// including the retired `trace` level, so callers can abort loudly.
    pub fn parse(value: &str) -> Option<Self> {
        match value.trim().to_ascii_lowercase().as_str() {
            "off" => Some(TelemetryLevel::Off),
            "counts" => Some(TelemetryLevel::Counts),
            _ => None,
        }
    }
}

/// The prediction event that produced a prefetch, reported by the
/// prefetcher via [`Prefetcher::last_burst_source`] and threaded through
/// the ledger for per-event-kind accuracy.
///
/// [`Prefetcher::last_burst_source`]: crate::prefetch::Prefetcher::last_burst_source
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum PrefetchSource {
    /// The prefetcher does not attribute its predictions (baselines).
    #[default]
    Unattributed,
    /// Bingo's long event: an exact `PC+Address` history match.
    LongEvent,
    /// Bingo's short event: a `PC+Offset` match resolved by footprint
    /// voting.
    ShortVote,
    /// A multi-event cascade hit at the given table index (0 = longest
    /// event, in the configured lookup order).
    CascadeLevel(u8),
}

/// Number of per-source counter slots: unattributed, long, short, plus one
/// per cascade level (the event cascade is at most 5 tables deep).
const SOURCE_SLOTS: usize = 8;

impl PrefetchSource {
    /// Dense counter-slot index in `0..SOURCE_SLOTS`. Cascade levels
    /// beyond the deepest configured cascade share the last slot.
    fn slot(self) -> usize {
        match self {
            PrefetchSource::Unattributed => 0,
            PrefetchSource::LongEvent => 1,
            PrefetchSource::ShortVote => 2,
            PrefetchSource::CascadeLevel(i) => 3 + (i as usize).min(SOURCE_SLOTS - 4),
        }
    }

    /// Stable human-readable label, used in reports and the JSON export.
    pub fn label(self) -> &'static str {
        match self {
            PrefetchSource::Unattributed => "unattributed",
            PrefetchSource::LongEvent => "long",
            PrefetchSource::ShortVote => "short",
            PrefetchSource::CascadeLevel(0) => "cascade0",
            PrefetchSource::CascadeLevel(1) => "cascade1",
            PrefetchSource::CascadeLevel(2) => "cascade2",
            PrefetchSource::CascadeLevel(3) => "cascade3",
            PrefetchSource::CascadeLevel(_) => "cascade4+",
        }
    }

    fn of_slot(slot: usize) -> PrefetchSource {
        match slot {
            0 => PrefetchSource::Unattributed,
            1 => PrefetchSource::LongEvent,
            2 => PrefetchSource::ShortVote,
            i => PrefetchSource::CascadeLevel((i - 3) as u8),
        }
    }
}

/// Lifecycle counters attributed to one prediction source or trigger PC.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SourceCounters {
    /// Prefetches issued toward DRAM.
    pub issued: u64,
    /// Filled and demanded before eviction (arrived in time).
    pub timely: u64,
    /// Demanded while still in flight (arrived late, partially covered).
    pub late: u64,
    /// Filled and evicted (or still resident at end of run) undemanded.
    pub unused: u64,
    /// Candidates filtered before issue (duplicate, queue-full or
    /// MSHR-full).
    pub dropped: u64,
}

counters!(SourceCounters {
    issued,
    timely,
    late,
    unused,
    dropped,
});

impl SourceCounters {
    /// Accuracy over this source's settled prefetches, with the paper's
    /// convention that late counts as useful. 0 when nothing settled.
    pub fn accuracy(&self) -> f64 {
        let used = self.timely + self.late;
        let judged = used + self.unused;
        if judged == 0 {
            0.0
        } else {
            used as f64 / judged as f64
        }
    }
}

/// Hot-list length of the per-trigger-PC report.
pub const HOT_PC_LIMIT: usize = 16;

/// One in-flight-or-resident prefetch the ledger is still tracking.
#[derive(Copy, Clone, Debug)]
struct OpenRecord {
    source: PrefetchSource,
    pc: u64,
    issued_at: u64,
    filled_at: Option<u64>,
    /// Whether the record's fill belongs to the measurement window. Records
    /// already *filled* when the warmup reset hits are excluded from
    /// end-of-run unused accounting, mirroring the cache's per-line
    /// `measured` flag; records still in flight will fill post-reset and
    /// stay measured.
    measured: bool,
}

/// Per-prefetch lifecycle ledger, keyed by block address.
///
/// Owned by the memory system, which reports issues, drops, fills, uses,
/// and evictions; see the module docs for the lifecycle and the
/// equality guarantees against [`CacheStats`](crate::CacheStats).
#[derive(Debug)]
pub struct PrefetchLedger {
    level: TelemetryLevel,
    open: HashMap<u64, OpenRecord>,
    /// The fill and desync counters. Its two attribution lists stay empty
    /// here: [`report`](PrefetchLedger::report) builds them from the
    /// tallies below.
    counts: TelemetryReport,
    by_source: [SourceCounters; SOURCE_SLOTS],
    by_pc: HashMap<u64, SourceCounters>,
}

impl PrefetchLedger {
    /// Creates a ledger at the given level. [`TelemetryLevel::Off`] costs
    /// nothing beyond the struct itself.
    pub fn new(level: TelemetryLevel) -> Self {
        PrefetchLedger {
            level,
            open: HashMap::new(),
            counts: TelemetryReport::default(),
            by_source: [SourceCounters::default(); SOURCE_SLOTS],
            by_pc: HashMap::new(),
        }
    }

    /// The configured level.
    pub fn level(&self) -> TelemetryLevel {
        self.level
    }

    /// Whether any instrumentation is active — the hot path's single
    /// branch.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.level.enabled()
    }

    /// Records a prefetch issued toward DRAM.
    pub fn issued(&mut self, block: u64, pc: u64, source: PrefetchSource, cycle: u64) {
        if !self.enabled() {
            return;
        }
        self.by_source[source.slot()].issued += 1;
        self.by_pc.entry(pc).or_default().issued += 1;
        if let Some(stale) = self.open.insert(
            block,
            OpenRecord {
                source,
                pc,
                issued_at: cycle,
                filled_at: None,
                measured: true,
            },
        ) {
            // A fresh issue over a still-open record means the memory
            // system and the ledger disagree about the block's state
            // (possible only under injected faults or direct-drive tests
            // that bypass filtering). Never panic, never double-count:
            // the stale record is counted as an orphan and forgotten.
            let _ = stale;
            self.counts.orphans += 1;
        }
    }

    /// Records a candidate filtered before issue (the LLC counts it under
    /// its reason).
    pub fn dropped(&mut self, pc: u64, source: PrefetchSource) {
        if !self.enabled() {
            return;
        }
        self.by_source[source.slot()].dropped += 1;
        self.by_pc.entry(pc).or_default().dropped += 1;
    }

    /// Records a fill landing. A no-op unless the block has an open
    /// prefetch record (demand fills share this call site).
    pub fn filled(&mut self, block: u64, cycle: u64) {
        if !self.enabled() {
            return;
        }
        if let Some(rec) = self.open.get_mut(&block) {
            if rec.filled_at.is_none() {
                rec.filled_at = Some(cycle);
                self.counts.fills += 1;
                self.counts.fill_latency_sum += cycle.saturating_sub(rec.issued_at);
            }
        }
    }

    fn close(&mut self, block: u64) -> Option<OpenRecord> {
        let rec = self.open.remove(&block);
        if rec.is_none() {
            // A use/eviction for a block the ledger never saw issued:
            // counted, never fatal (see `issued` on desync).
            self.counts.orphans += 1;
        }
        rec
    }

    /// Records the first demand touch of a filled prefetched line (the
    /// event that increments `pf_useful`).
    pub fn used_timely(&mut self, block: u64) {
        if !self.enabled() {
            return;
        }
        if let Some(rec) = self.close(block) {
            self.by_source[rec.source.slot()].timely += 1;
            self.by_pc.entry(rec.pc).or_default().timely += 1;
        }
    }

    /// Records a demand merging with a still-in-flight prefetch (the event
    /// that increments `pf_late`).
    pub fn used_late(&mut self, block: u64) {
        if !self.enabled() {
            return;
        }
        if let Some(rec) = self.close(block) {
            self.by_source[rec.source.slot()].late += 1;
            self.by_pc.entry(rec.pc).or_default().late += 1;
        }
    }

    /// Records the eviction of a never-demanded prefetched line (the event
    /// that increments `pf_useless`).
    pub fn evicted_unused(&mut self, block: u64) {
        if !self.enabled() {
            return;
        }
        if let Some(rec) = self.close(block) {
            self.by_source[rec.source.slot()].unused += 1;
            self.by_pc.entry(rec.pc).or_default().unused += 1;
        }
    }

    /// End-of-warmup reset: zeroes every counter (mirroring
    /// [`Cache::reset_stats`](crate::Cache::reset_stats)) while keeping
    /// open records, so prefetches spanning the warmup boundary still close
    /// correctly. Records already filled are marked pre-measurement so
    /// [`finalize`](PrefetchLedger::finalize) skips them, exactly like the
    /// cache's per-line `measured` flag.
    pub fn on_stats_reset(&mut self) {
        if !self.enabled() {
            return;
        }
        self.counts = TelemetryReport::default();
        self.by_source = [SourceCounters::default(); SOURCE_SLOTS];
        self.by_pc.clear();
        for rec in self.open.values_mut() {
            if rec.filled_at.is_some() {
                rec.measured = false;
            }
        }
    }

    /// End-of-run settlement, paired with the drain that folds resident
    /// unused prefetched lines into `pf_useless`: every still-open record
    /// that was filled inside the measurement window counts as unused; the
    /// rest (still in flight, or filled pre-measurement) are dropped.
    /// Consumes the open set, so draining twice cannot double-count.
    pub fn finalize(&mut self) {
        if !self.enabled() {
            return;
        }
        let open = std::mem::take(&mut self.open);
        for rec in open.into_values() {
            if rec.filled_at.is_none() {
                self.counts.in_flight_at_end += 1;
            } else if rec.measured {
                self.by_source[rec.source.slot()].unused += 1;
                self.by_pc.entry(rec.pc).or_default().unused += 1;
            }
        }
    }

    /// Builds the aggregate report; `None` when the ledger is off, so a
    /// disabled run is distinguishable from a run with zero prefetches.
    pub fn report(&self) -> Option<TelemetryReport> {
        if !self.enabled() {
            return None;
        }
        let by_source = (0..SOURCE_SLOTS)
            .filter(|&i| self.by_source[i] != SourceCounters::default())
            .map(|i| {
                (
                    PrefetchSource::of_slot(i).label().to_string(),
                    self.by_source[i],
                )
            })
            .collect();
        // Deterministic hot list: issued descending, PC ascending as the
        // tie break, truncated to HOT_PC_LIMIT.
        let mut hot_pcs: Vec<(u64, SourceCounters)> =
            self.by_pc.iter().map(|(&pc, &c)| (pc, c)).collect();
        hot_pcs.sort_by(|a, b| b.1.issued.cmp(&a.1.issued).then(a.0.cmp(&b.0)));
        hot_pcs.truncate(HOT_PC_LIMIT);
        Some(TelemetryReport {
            by_source,
            hot_pcs,
            ..self.counts.clone()
        })
    }
}

/// The prefetch-lifecycle report of one run, attached to
/// [`SimResult`](crate::SimResult) when telemetry is enabled.
///
/// All counts cover the measurement window (post-warmup). The report
/// holds only what the ledger alone knows: attribution (per prediction
/// source, per trigger PC), in-flight latency and desync counts. The
/// totals live in the LLC's `pf_*` counters, which `by_source` sums to
/// exactly (see the module docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Prefetch fills observed (excludes prefetches demanded in flight,
    /// which settle at the merge, before their fill lands).
    pub fills: u64,
    /// Total issue-to-fill cycles over [`fills`](TelemetryReport::fills).
    pub fill_latency_sum: u64,
    /// Records still in flight when the run was finalized (0 after a full
    /// drain).
    pub in_flight_at_end: u64,
    /// Lifecycle transitions for blocks the ledger was not tracking —
    /// always 0 unless filtering was bypassed; never fatal.
    pub orphans: u64,
    /// Per-prediction-source counters, labeled, in a fixed source order
    /// (only sources with activity appear).
    pub by_source: Vec<(String, SourceCounters)>,
    /// Busiest trigger PCs by issued count (at most [`HOT_PC_LIMIT`]),
    /// deterministically ordered.
    pub hot_pcs: Vec<(u64, SourceCounters)>,
}

counters!(TelemetryReport {
    fills,
    fill_latency_sum,
    in_flight_at_end,
    orphans,
} except { by_source, hot_pcs });

impl TelemetryReport {
    /// Mean issue-to-fill latency in cycles over observed prefetch fills.
    pub fn avg_fill_latency(&self) -> f64 {
        if self.fills == 0 {
            0.0
        } else {
            self.fill_latency_sum as f64 / self.fills as f64
        }
    }

    /// The counters attributed to a source label ("long", "short", ...).
    pub fn source(&self, label: &str) -> Option<&SourceCounters> {
        self.by_source
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, c)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Counters;

    fn counting_ledger() -> PrefetchLedger {
        PrefetchLedger::new(TelemetryLevel::Counts)
    }

    /// The report's per-source counters summed: the totals the LLC's
    /// `pf_*` counters hold in a full run.
    fn totals(r: &TelemetryReport) -> SourceCounters {
        let mut sum = SourceCounters::default();
        for (_, c) in &r.by_source {
            sum.add(c);
        }
        sum
    }

    fn settled(c: SourceCounters) -> (u64, u64, u64, u64) {
        (c.issued, c.timely, c.late, c.unused)
    }

    #[test]
    fn level_parsing() {
        assert_eq!(TelemetryLevel::parse("off"), Some(TelemetryLevel::Off));
        assert_eq!(
            TelemetryLevel::parse(" Counts "),
            Some(TelemetryLevel::Counts)
        );
        assert_eq!(
            TelemetryLevel::parse("TRACE"),
            None,
            "the trace level is retired"
        );
        // Exactly the two words: no undocumented alias.
        for alias in ["0", "none", "on", "1", "2"] {
            assert_eq!(TelemetryLevel::parse(alias), None, "{alias}");
        }
        assert_eq!(TelemetryLevel::parse("verbose"), None);
        assert!(!TelemetryLevel::Off.enabled());
        assert!(TelemetryLevel::Counts.enabled());
    }

    #[test]
    fn off_ledger_records_nothing_and_reports_none() {
        let mut led = PrefetchLedger::new(TelemetryLevel::Off);
        led.issued(1, 0x400, PrefetchSource::LongEvent, 10);
        led.filled(1, 50);
        led.used_timely(1);
        led.finalize();
        assert!(led.report().is_none());
    }

    #[test]
    fn timely_lifecycle_attributes_source_and_pc() {
        let mut led = counting_ledger();
        led.issued(7, 0x400, PrefetchSource::LongEvent, 10);
        led.filled(7, 100);
        led.used_timely(7);
        led.finalize();
        let r = led.report().expect("counts level reports");
        let long = *r.source("long").expect("long active");
        assert_eq!(settled(long), (1, 1, 0, 0));
        assert_eq!(r.fills, 1);
        assert_eq!(r.fill_latency_sum, 90);
        assert_eq!(r.orphans, 0);
        assert!(r.source("short").is_none(), "inactive sources are omitted");
        assert_eq!(r.hot_pcs, vec![(0x400, long)]);
        assert_eq!(long.accuracy(), 1.0);
    }

    #[test]
    fn late_use_settles_before_fill() {
        let mut led = counting_ledger();
        led.issued(7, 0x400, PrefetchSource::ShortVote, 10);
        led.used_late(7);
        // The fill still lands later, but the record is already settled.
        led.filled(7, 100);
        led.finalize();
        let r = led.report().unwrap();
        let short = *r.source("short").expect("short active");
        assert_eq!(settled(short), (1, 0, 1, 0));
        assert_eq!(r.fills, 0, "late prefetches settle before their fill");
        assert_eq!(short.accuracy(), 1.0, "late still counts as useful");
    }

    #[test]
    fn unused_eviction_and_end_of_run_residue() {
        let mut led = counting_ledger();
        led.issued(1, 0xa, PrefetchSource::Unattributed, 0);
        led.filled(1, 10);
        led.evicted_unused(1);
        // Second prefetch: filled, never used, still resident at drain.
        led.issued(2, 0xa, PrefetchSource::Unattributed, 0);
        led.filled(2, 10);
        // Third prefetch: still in flight at drain.
        led.issued(3, 0xa, PrefetchSource::Unattributed, 0);
        led.finalize();
        let r = led.report().unwrap();
        let t = totals(&r);
        assert_eq!(t.unused, 2, "evicted + resident-unused both settle unused");
        assert_eq!(r.in_flight_at_end, 1);
        assert_eq!(t.accuracy(), 0.0);
    }

    #[test]
    fn finalize_is_idempotent() {
        let mut led = counting_ledger();
        led.issued(1, 0xa, PrefetchSource::Unattributed, 0);
        led.filled(1, 10);
        led.finalize();
        led.finalize();
        assert_eq!(totals(&led.report().unwrap()).unused, 1, "no double count");
    }

    #[test]
    fn drops_are_counted_per_source_and_pc() {
        let mut led = counting_ledger();
        led.dropped(0x4, PrefetchSource::LongEvent);
        led.dropped(0x4, PrefetchSource::LongEvent);
        led.dropped(0x8, PrefetchSource::ShortVote);
        let r = led.report().unwrap();
        assert_eq!(r.source("long").unwrap().dropped, 2);
        assert_eq!(r.source("short").unwrap().dropped, 1);
        let by_pc: Vec<(u64, u64)> = r.hot_pcs.iter().map(|(pc, c)| (*pc, c.dropped)).collect();
        assert_eq!(by_pc, vec![(0x4, 2), (0x8, 1)]);
        assert_eq!(totals(&r).issued, 0, "a drop is not an issue");
    }

    #[test]
    fn orphan_transitions_never_panic_or_count_classes() {
        let mut led = counting_ledger();
        led.used_timely(42); // never issued
        led.evicted_unused(43); // never issued
        led.filled(44, 7); // no record: ignored entirely
                           // Re-issue over an open record.
        led.issued(45, 0x4, PrefetchSource::ShortVote, 0);
        led.issued(45, 0x4, PrefetchSource::ShortVote, 1);
        let r = led.report().unwrap();
        assert_eq!(r.orphans, 3);
        assert_eq!(settled(totals(&r)), (2, 0, 0, 0));
    }

    #[test]
    fn warmup_reset_zeroes_counters_but_keeps_open_records() {
        let mut led = counting_ledger();
        // Filled pre-reset: excluded from finalize.
        led.issued(1, 0xa, PrefetchSource::LongEvent, 0);
        led.filled(1, 10);
        // In flight across the reset: fill lands post-reset, stays measured.
        led.issued(2, 0xb, PrefetchSource::ShortVote, 5);
        led.on_stats_reset();
        assert_eq!(
            led.report().unwrap(),
            TelemetryReport::default(),
            "counters wiped"
        );
        led.filled(2, 20);
        // Pre-reset-filled record still closes correctly if used.
        led.used_timely(1);
        led.finalize();
        let r = led.report().unwrap();
        let t = totals(&r);
        assert_eq!(t.timely, 1, "pre-warmup prefetch used post-warmup counts");
        assert_eq!(t.unused, 1, "post-reset fill settles unused at drain");
        assert_eq!(r.orphans, 0);
    }

    #[test]
    fn hot_pc_list_is_deterministic_and_bounded() {
        let mut led = counting_ledger();
        for pc in 0..(HOT_PC_LIMIT as u64 + 10) {
            // Give PC 5 the most issues; everyone else one each.
            let n = if pc == 5 { 3 } else { 1 };
            for i in 0..n {
                led.issued(pc * 1000 + i, pc, PrefetchSource::Unattributed, 0);
            }
        }
        let r = led.report().unwrap();
        assert_eq!(r.hot_pcs.len(), HOT_PC_LIMIT);
        assert_eq!(r.hot_pcs[0].0, 5, "busiest PC first");
        // Ties broken by ascending PC.
        assert_eq!(r.hot_pcs[1].0, 0);
        assert_eq!(r.hot_pcs[2].0, 1);
    }

    #[test]
    fn source_slots_cover_cascades() {
        assert_eq!(PrefetchSource::CascadeLevel(0).label(), "cascade0");
        assert_eq!(PrefetchSource::CascadeLevel(4).label(), "cascade4+");
        assert_eq!(PrefetchSource::CascadeLevel(9).label(), "cascade4+");
        // Deep cascade levels share the last slot rather than indexing out
        // of bounds.
        let mut led = counting_ledger();
        led.issued(1, 0x4, PrefetchSource::CascadeLevel(200), 0);
        assert_eq!(led.report().unwrap().source("cascade4+").unwrap().issued, 1);
    }

    #[test]
    fn report_metrics_handle_zero_denominators() {
        assert_eq!(TelemetryReport::default().avg_fill_latency(), 0.0);
        assert_eq!(SourceCounters::default().accuracy(), 0.0);
    }
}
