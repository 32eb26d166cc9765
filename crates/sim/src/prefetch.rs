//! The prefetcher interface.
//!
//! Every prefetcher in this reproduction — Bingo, the multi-event
//! predictors, and all baselines — implements [`Prefetcher`]. The memory
//! system invokes [`Prefetcher::on_access`] for every *demand* access
//! observed at the LLC (the paper trains and triggers all prefetchers at the
//! LLC and prefetches directly into it), and [`Prefetcher::on_eviction`]
//! whenever a block leaves the LLC — the end-of-residency signal
//! per-page-history prefetchers train on.

use crate::addr::{BlockAddr, Pc};
use crate::telemetry::PrefetchSource;
use crate::throttle::ThrottleLevel;

/// What a prefetcher observes of one demand access at the LLC: the
/// load's or store's program counter and the block it touches.
///
/// Region and offset are not part of it: a spatial prefetcher derives
/// them from `block` with the [`RegionGeometry`](crate::RegionGeometry)
/// of its own configuration, so the two can never disagree.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AccessInfo {
    /// Program counter of the load/store.
    pub pc: Pc,
    /// Cache-block index of the access.
    pub block: BlockAddr,
}

impl AccessInfo {
    /// The access of the instruction at `pc` to `block`: how trace replay
    /// and the differential harness present each access to a prefetcher.
    pub fn demand(pc: Pc, block: BlockAddr) -> Self {
        AccessInfo { pc, block }
    }
}

/// A hardware data prefetcher observing the LLC access stream.
///
/// Implementations append candidate blocks to `out` in [`on_access`];
/// the memory system deduplicates against resident and in-flight blocks,
/// enforces MSHR limits, and issues the survivors toward DRAM.
///
/// [`on_access`]: Prefetcher::on_access
pub trait Prefetcher {
    /// Short human-readable name ("Bingo", "SMS", ...), used in reports.
    fn name(&self) -> &str;

    /// Observes a demand access and appends prefetch candidates to `out`.
    ///
    /// `out` is a reusable buffer: it arrives empty and any blocks left in
    /// it are issued (subject to filtering) at the access's cycle.
    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<BlockAddr>);

    /// Observes the eviction of `block` from the LLC. Default: ignored.
    fn on_eviction(&mut self, block: BlockAddr) {
        let _ = block;
    }

    /// Never called: the memory system reports no fill to its
    /// prefetchers, since none of them trains on fills. The method stays
    /// only while `bingo-benchmark`'s tracing wrapper still forwards it.
    /// Default: ignored.
    fn on_fill(&mut self, block: BlockAddr, prefetch: bool) {
        let _ = (block, prefetch);
    }

    /// Total metadata storage in bits, for the storage/area studies
    /// (Section VI-A, Fig. 9). Default: 0 (no metadata).
    fn storage_bits(&self) -> u64 {
        0
    }

    /// One-line internal-statistics summary for diagnostics (match rates,
    /// table occupancy, ...). Default: empty.
    fn debug_stats(&self) -> String {
        String::new()
    }

    /// Structured internal metrics for experiment harnesses, as
    /// (name, value) pairs — e.g. history-lookup and match counts for the
    /// paper's match-probability and redundancy studies. Default: none.
    fn metrics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Applies a throttle level pushed by the memory system's
    /// [`Throttle`](crate::throttle::Throttle).
    ///
    /// Implementations must be *strictly subtractive*: at any level the
    /// emitted burst must be a subset (in fact a prefix, or a vote-raised
    /// narrowing) of what the unthrottled prefetcher would emit, and
    /// training/table state must evolve identically. Default: ignored
    /// (baselines run unthrottled; the controller's level still gates
    /// nothing for them).
    fn set_throttle_level(&mut self, level: ThrottleLevel) {
        let _ = level;
    }

    /// The prediction event that produced the candidates emitted by the
    /// most recent [`on_access`](Prefetcher::on_access) call, for
    /// lifecycle-telemetry attribution. Queried once per burst, right
    /// after `on_access` returns with a non-empty buffer. Default:
    /// [`PrefetchSource::Unattributed`] (baselines need not implement
    /// attribution).
    fn last_burst_source(&self) -> PrefetchSource {
        PrefetchSource::Unattributed
    }
}

/// The no-op prefetcher used for baseline runs.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NoPrefetcher;

impl Prefetcher for NoPrefetcher {
    fn name(&self) -> &str {
        "None"
    }

    fn on_access(&mut self, _info: &AccessInfo, _out: &mut Vec<BlockAddr>) {}
}

/// A simple next-N-line prefetcher, useful as a sanity baseline and in
/// substrate tests.
#[derive(Copy, Clone, Debug)]
pub struct NextLinePrefetcher {
    degree: usize,
    level: ThrottleLevel,
}

impl NextLinePrefetcher {
    /// Creates a next-line prefetcher issuing `degree` sequential blocks.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero.
    pub fn new(degree: usize) -> Self {
        assert!(degree > 0, "degree must be nonzero");
        NextLinePrefetcher {
            degree,
            level: ThrottleLevel::Full,
        }
    }

    /// The effective degree under the current throttle level — always a
    /// prefix of the unthrottled burst, so throttling stays subtractive.
    fn effective_degree(&self) -> usize {
        match self.level {
            ThrottleLevel::Full => self.degree,
            ThrottleLevel::RaisedVote => self.degree.div_ceil(2),
            ThrottleLevel::TriggerOnly => 1,
            ThrottleLevel::Stopped => 0,
        }
    }
}

impl Default for NextLinePrefetcher {
    fn default() -> Self {
        NextLinePrefetcher::new(1)
    }
}

impl Prefetcher for NextLinePrefetcher {
    fn name(&self) -> &str {
        "NextLine"
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<BlockAddr>) {
        for d in 1..=self.effective_degree() {
            out.push(info.block.offset(d as i64));
        }
    }

    fn set_throttle_level(&mut self, level: ThrottleLevel) {
        self.level = level;
    }
}

/// A prefetcher that deliberately panics after a fixed number of accesses.
///
/// Exists purely for fault-tolerance testing: a harness cell built on this
/// prefetcher is guaranteed to die mid-simulation, exercising the
/// panic-isolation path without touching real prefetcher code.
#[derive(Copy, Clone, Debug)]
pub struct FaultyPrefetcher {
    panic_after: u64,
    accesses: u64,
}

impl FaultyPrefetcher {
    /// Creates a prefetcher that panics on access number `panic_after + 1`
    /// (i.e. it survives exactly `panic_after` accesses).
    pub fn new(panic_after: u64) -> Self {
        FaultyPrefetcher {
            panic_after,
            accesses: 0,
        }
    }
}

impl Prefetcher for FaultyPrefetcher {
    fn name(&self) -> &str {
        "Faulty"
    }

    fn on_access(&mut self, _info: &AccessInfo, _out: &mut Vec<BlockAddr>) {
        self.accesses += 1;
        if self.accesses > self.panic_after {
            panic!(
                "FaultyPrefetcher panicked deliberately after {} accesses",
                self.panic_after
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(block: u64) -> AccessInfo {
        AccessInfo::demand(Pc::new(0x400), BlockAddr::new(block))
    }

    #[test]
    fn no_prefetcher_emits_nothing() {
        let mut p = NoPrefetcher;
        let mut out = Vec::new();
        p.on_access(&info(10), &mut out);
        assert!(out.is_empty());
        assert_eq!(p.storage_bits(), 0);
        assert_eq!(p.name(), "None");
    }

    #[test]
    fn next_line_emits_sequential_blocks() {
        let mut p = NextLinePrefetcher::new(3);
        let mut out = Vec::new();
        p.on_access(&info(10), &mut out);
        assert_eq!(
            out,
            vec![BlockAddr::new(11), BlockAddr::new(12), BlockAddr::new(13)]
        );
    }

    #[test]
    #[should_panic(expected = "degree")]
    fn next_line_rejects_zero_degree() {
        let _ = NextLinePrefetcher::new(0);
    }

    #[test]
    fn next_line_throttle_truncates_its_burst_prefix() {
        let full: Vec<BlockAddr> = {
            let mut p = NextLinePrefetcher::new(4);
            let mut out = Vec::new();
            p.on_access(&info(10), &mut out);
            out
        };
        for (level, want) in [
            (ThrottleLevel::Full, 4),
            (ThrottleLevel::RaisedVote, 2),
            (ThrottleLevel::TriggerOnly, 1),
            (ThrottleLevel::Stopped, 0),
        ] {
            let mut p = NextLinePrefetcher::new(4);
            p.set_throttle_level(level);
            let mut out = Vec::new();
            p.on_access(&info(10), &mut out);
            assert_eq!(out.len(), want, "{level}");
            assert_eq!(out[..], full[..want], "throttled burst must be a prefix");
        }
    }

    #[test]
    fn faulty_prefetcher_survives_its_budget() {
        let mut p = FaultyPrefetcher::new(3);
        let mut out = Vec::new();
        for b in 0..3 {
            p.on_access(&info(b), &mut out);
        }
    }

    #[test]
    #[should_panic(expected = "panicked deliberately after 3 accesses")]
    fn faulty_prefetcher_panics_past_its_budget() {
        let mut p = FaultyPrefetcher::new(3);
        let mut out = Vec::new();
        for b in 0..4 {
            p.on_access(&info(b), &mut out);
        }
    }
}
