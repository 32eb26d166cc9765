//! Prefetch-lifecycle observability: the [`PrefetchLedger`].
//!
//! The aggregate prefetch counters in [`CacheStats`](crate::CacheStats)
//! (`pf_useful`, `pf_late`, `pf_useless`) say *how many* prefetches helped,
//! but not *which* predictions produced them or *how long* they were in
//! flight. Every prefetch follows one lifecycle:
//!
//! ```text
//! issued ──► in flight ──► filled ──► used timely               (pf_useful)
//!    │            │                   evicted unused             (pf_useless)
//!    │            │                   resident unused at drain   (pf_useless)
//!    │            └──► used late: a demand merged in flight      (pf_late)
//!    └──► dropped: duplicate, queue-full or MSHR-full       (pf_dropped_*)
//! ```
//!
//! The LLC is the one record of that lifecycle. Each prefetch's pending
//! fill and line carry the core that issued it and the prediction event
//! that produced it ([`PrefetchSource`]: Bingo's long `PC+Address` event,
//! its voted short `PC+Offset` event, or a multi-event cascade level), and
//! the cache hands that [`PrefetchOrigin`](crate::cache::PrefetchOrigin)
//! back at each event that settles the prefetch; the pending fill also
//! keeps its issue cycle, reported when a prefetch lands before any demand
//! asked for it. The ledger only tallies those events per source,
//! mirroring the paper's per-event quality analysis, plus the
//! issue-to-fill latency.
//!
//! **Zero cost when disabled.** The level is checked once per burst and
//! once per counted event ([`PrefetchLedger::enabled`], a single branch on
//! a two-variant check); with [`TelemetryLevel::Off`] every prefetch's
//! source is [`PrefetchSource::Unattributed`] and nothing is counted. The
//! simulated machine is untouched either way — telemetry observes fills
//! and evictions, it never changes them. `telemetry_on_is_invisible` in
//! `tests/telemetry.rs` locks the on/off miss streams bit-for-bit equal.
//!
//! **Agreement with the cache counters.** The report keeps no totals of
//! its own: the LLC's `pf_*` counters are the one tally of how many
//! prefetches issued, dropped and settled. Each per-source counter is
//! bumped at the very event that bumps its LLC counter, with the source
//! the LLC hands back, so at end of run the per-source counters sum to the
//! LLC's by construction: `issued` to `pf_issued`, `timely` to
//! `pf_useful`, `late` to `pf_late`, `unused` to `pf_useless`, and
//! `dropped` to the three `pf_dropped_*` together — across a warmup reset
//! too, since both reset at the same point.

use crate::stats::counters;

/// How much prefetch-lifecycle instrumentation to collect.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum TelemetryLevel {
    /// No instrumentation; the hot path pays one branch per access.
    #[default]
    Off,
    /// Lifecycle counters attributed per prediction source.
    Counts,
}

impl TelemetryLevel {
    /// Whether any instrumentation is active.
    pub fn enabled(self) -> bool {
        self != TelemetryLevel::Off
    }
}

/// The prediction event that produced a prefetch, reported by the
/// prefetcher via [`Prefetcher::last_burst_source`] and carried by the
/// LLC with the prefetch for per-event-kind accuracy.
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
/// per cascade level (the event cascade is at most 5 tables deep). An LLC
/// line keeps its prefetch's slot in the three spare bits of its flags.
pub(crate) const SOURCE_SLOTS: usize = 8;

impl PrefetchSource {
    /// Dense counter-slot index in `0..SOURCE_SLOTS`. Cascade levels
    /// beyond the deepest configured cascade share the last slot.
    pub(crate) fn slot(self) -> usize {
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

    /// The source a slot counts; the deepest slot reads as the shallowest
    /// cascade level it holds, which has the same label.
    pub(crate) fn of_slot(slot: usize) -> PrefetchSource {
        match slot {
            0 => PrefetchSource::Unattributed,
            1 => PrefetchSource::LongEvent,
            2 => PrefetchSource::ShortVote,
            i => PrefetchSource::CascadeLevel((i - 3) as u8),
        }
    }
}

/// Lifecycle counters attributed to one prediction source.
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

/// Per-source prefetch-lifecycle tallies, owned by the memory system.
///
/// The ledger keeps no record of any one prefetch: the LLC holds each
/// prefetch's origin and hands it back when the prefetch settles (see the
/// module docs). The ledger only counts what it is told.
#[derive(Debug)]
pub struct PrefetchLedger {
    level: TelemetryLevel,
    fills: u64,
    fill_latency_sum: u64,
    by_source: [SourceCounters; SOURCE_SLOTS],
}

impl PrefetchLedger {
    /// Creates a ledger at the given level. [`TelemetryLevel::Off`] costs
    /// nothing beyond the struct itself.
    pub fn new(level: TelemetryLevel) -> Self {
        PrefetchLedger {
            level,
            fills: 0,
            fill_latency_sum: 0,
            by_source: [SourceCounters::default(); SOURCE_SLOTS],
        }
    }

    /// Whether any instrumentation is active — the hot path's single
    /// branch.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.level.enabled()
    }

    /// Counts one lifecycle event of a prefetch from `source`: `count`
    /// bumps the event's counter among the source's.
    #[inline]
    pub fn record(&mut self, source: PrefetchSource, count: impl FnOnce(&mut SourceCounters)) {
        if self.enabled() {
            count(&mut self.by_source[source.slot()]);
        }
    }

    /// Records a prefetch that landed before any demand asked for it,
    /// `latency` cycles after its issue.
    #[inline]
    pub fn filled(&mut self, latency: u64) {
        if self.enabled() {
            self.fills += 1;
            self.fill_latency_sum += latency;
        }
    }

    /// End-of-warmup reset: zeroes every counter, mirroring
    /// [`Cache::reset_stats`](crate::Cache::reset_stats).
    pub fn on_stats_reset(&mut self) {
        *self = PrefetchLedger::new(self.level);
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
        Some(TelemetryReport {
            fills: self.fills,
            fill_latency_sum: self.fill_latency_sum,
            by_source,
        })
    }
}

/// The prefetch-lifecycle report of one run, attached to
/// [`SimResult`](crate::SimResult) when telemetry is enabled.
///
/// All counts cover the measurement window (post-warmup). The report
/// holds only what the LLC's `pf_*` counters do not: the attribution per
/// prediction source, which sums to those counters exactly (see the module
/// docs), and the in-flight latency of prefetches that landed unasked.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Prefetches that landed before any demand asked for them (a
    /// prefetch demanded in flight settles at the merge, before its fill
    /// lands).
    pub fills: u64,
    /// Total issue-to-fill cycles over [`fills`](TelemetryReport::fills).
    pub fill_latency_sum: u64,
    /// Per-prediction-source counters, labeled, in a fixed source order
    /// (only sources with activity appear).
    pub by_source: Vec<(String, SourceCounters)>,
}

counters!(TelemetryReport {
    fills,
    fill_latency_sum,
} except { by_source });

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

    #[test]
    fn level_parsing() {
        assert!(!TelemetryLevel::Off.enabled());
        assert!(TelemetryLevel::Counts.enabled());
    }

    #[test]
    fn off_ledger_records_nothing_and_reports_none() {
        let mut led = PrefetchLedger::new(TelemetryLevel::Off);
        led.record(PrefetchSource::LongEvent, |c| c.issued += 1);
        led.filled(90);
        assert!(led.report().is_none());
    }

    #[test]
    fn counts_land_under_their_source() {
        let mut led = PrefetchLedger::new(TelemetryLevel::Counts);
        led.record(PrefetchSource::LongEvent, |c| c.issued += 1);
        led.record(PrefetchSource::LongEvent, |c| c.timely += 1);
        led.record(PrefetchSource::ShortVote, |c| c.dropped += 1);
        led.filled(90);
        led.filled(10);
        let r = led.report().expect("counts level reports");
        let long = SourceCounters {
            issued: 1,
            timely: 1,
            ..SourceCounters::default()
        };
        let short = SourceCounters {
            dropped: 1,
            ..SourceCounters::default()
        };
        let expected = TelemetryReport {
            fills: 2,
            fill_latency_sum: 100,
            by_source: vec![("long".to_string(), long), ("short".to_string(), short)],
        };
        assert_eq!(r, expected, "inactive sources are omitted");
        assert_eq!(r.avg_fill_latency(), 50.0);
        assert_eq!(long.accuracy(), 1.0);
    }

    #[test]
    fn warmup_reset_zeroes_every_count() {
        let mut led = PrefetchLedger::new(TelemetryLevel::Counts);
        led.record(PrefetchSource::ShortVote, |c| c.unused += 1);
        led.filled(10);
        led.on_stats_reset();
        assert_eq!(led.report(), Some(TelemetryReport::default()));
    }

    #[test]
    fn source_slots_cover_cascades() {
        assert_eq!(PrefetchSource::CascadeLevel(0).label(), "cascade0");
        assert_eq!(PrefetchSource::CascadeLevel(4).label(), "cascade4+");
        assert_eq!(PrefetchSource::CascadeLevel(9).label(), "cascade4+");
        // Deep cascade levels share the last slot rather than indexing out
        // of bounds, and every slot reads back as a source of its label.
        assert_eq!(PrefetchSource::CascadeLevel(200).slot(), SOURCE_SLOTS - 1);
        for slot in 0..SOURCE_SLOTS {
            assert_eq!(PrefetchSource::of_slot(slot).slot(), slot);
        }
        let mut led = PrefetchLedger::new(TelemetryLevel::Counts);
        led.record(PrefetchSource::CascadeLevel(200), |c| c.issued += 1);
        assert_eq!(led.report().unwrap().source("cascade4+").unwrap().issued, 1);
    }

    #[test]
    fn report_metrics_handle_zero_denominators() {
        assert_eq!(TelemetryReport::default().avg_fill_latency(), 0.0);
        assert_eq!(SourceCounters::default().accuracy(), 0.0);
    }
}
