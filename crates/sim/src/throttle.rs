//! Adaptive prefetch throttling driven by resource-pressure feedback.
//!
//! Aggressive spatial prefetching is only profitable while its predictions
//! are accurate and memory bandwidth is plentiful; under pressure the same
//! 31-block bursts evict useful lines and queue demand fills behind
//! prefetch traffic. The [`Throttle`] watches per-epoch deltas of one
//! signal vector, [`CoreSignals`] — prefetches issued and used (judging
//! accuracy as used-vs-issued, which is timely, rather than waiting for
//! evictions to settle `pf_useless`), the prefetch share of DRAM reads, and
//! the DRAM queue wait — and degrades the effective prefetch degree one
//! [`ThrottleLevel`] at a time — full burst → raised-vote burst →
//! trigger-block-only → off — with hysteresis in both directions, in the
//! spirit of DSPatch's bandwidth-aware aggressiveness control and
//! Triangel's accuracy gating.
//!
//! Throttling is *strictly subtractive*: at every level the prefetcher's
//! prediction set is a subset of what it would have emitted unthrottled,
//! and training/table state evolves identically. The differential harness
//! checks this against the executable specification.
//!
//! The throttle holds one ladder per *domain*, and each domain judges the
//! signals its cores feed it. [`ThrottleMode::Feedback`] is a single
//! chip-wide domain that every core feeds, so it judges exactly the LLC and
//! DRAM totals. That has a measured fairness bug on a multi-core chip: one
//! core's useless prefetch storm trips the shared verdict and clamps every
//! core's prefetcher, starving the polite neighbors.
//! [`ThrottleMode::Percore`] therefore runs one domain per core, each
//! judging only that core's attributed share of the shared LLC/DRAM, plus a
//! chip-level starvation watchdog that clamps *only* cores hogging prefetch
//! bandwidth when the min/max per-core progress ratio crosses the QoS SLO.
//! A used prefetch is credited to the core that issued it, which the LLC
//! line records (see [`Lookup`](crate::cache::Lookup)).

use crate::stats::{CoreQos, QosReport};

/// How prefetch throttling is driven, selected by the `BINGO_THROTTLE`
/// knob.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum ThrottleMode {
    /// No throttling. The memory system carries no throttle at all, so
    /// disabled throttling is bit-for-bit invisible.
    #[default]
    Off,
    /// Closed-loop control over one chip-wide domain: per-epoch accuracy,
    /// bandwidth share, and congestion move the level of every core's
    /// prefetcher up and down the ladder with hysteresis.
    Feedback,
    /// One ladder domain *per core*, each judging its own attributed share
    /// of the shared LLC/DRAM, plus the chip-level starvation watchdog. A
    /// storm core throttles alone; polite neighbors keep their full
    /// aggressiveness.
    Percore,
}

impl ThrottleMode {
    /// Parses the spelling used by the `BINGO_THROTTLE` knob: `off`,
    /// `feedback` or `percore`, trimmed and in any case; `None` on
    /// anything else so callers can abort loudly.
    pub fn parse(value: &str) -> Option<Self> {
        match value.trim().to_ascii_lowercase().as_str() {
            "off" => Some(ThrottleMode::Off),
            "feedback" => Some(ThrottleMode::Feedback),
            "percore" => Some(ThrottleMode::Percore),
            _ => None,
        }
    }
}

impl std::fmt::Display for ThrottleMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThrottleMode::Off => write!(f, "off"),
            ThrottleMode::Feedback => write!(f, "feedback"),
            ThrottleMode::Percore => write!(f, "percore"),
        }
    }
}

/// Effective prefetcher aggressiveness, ordered from least to most
/// throttled. Every step down the ladder only *removes* candidates from
/// the burst a prefetcher would emit unthrottled — never adds or reorders
/// — so a throttled run's prediction set is always a subset of the
/// unthrottled one.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum ThrottleLevel {
    /// Unrestricted bursts (identical to no throttling).
    #[default]
    Full,
    /// Bingo raises its short-event vote threshold to
    /// [`RAISED_VOTE_THRESHOLD`](crate::throttle::RAISED_VOTE_THRESHOLD)
    /// so only widely agreed-upon blocks survive; cascade prefetchers
    /// halve their burst.
    RaisedVote,
    /// Only the first predicted block of each burst is issued.
    TriggerOnly,
    /// No prefetches are issued at all (training continues, so recovery
    /// is instant when pressure lifts).
    Stopped,
}

impl ThrottleLevel {
    /// One step more throttled (saturates at [`ThrottleLevel::Stopped`]).
    pub fn degraded(self) -> Self {
        match self {
            ThrottleLevel::Full => ThrottleLevel::RaisedVote,
            ThrottleLevel::RaisedVote => ThrottleLevel::TriggerOnly,
            ThrottleLevel::TriggerOnly | ThrottleLevel::Stopped => ThrottleLevel::Stopped,
        }
    }

    /// One step less throttled (saturates at [`ThrottleLevel::Full`]).
    pub fn upgraded(self) -> Self {
        match self {
            ThrottleLevel::Full | ThrottleLevel::RaisedVote => ThrottleLevel::Full,
            ThrottleLevel::TriggerOnly => ThrottleLevel::RaisedVote,
            ThrottleLevel::Stopped => ThrottleLevel::TriggerOnly,
        }
    }

    /// Ladder position (0 = [`Full`](ThrottleLevel::Full), 3 =
    /// [`Stopped`](ThrottleLevel::Stopped)) — the stable numeric form
    /// reports and checkpoints carry.
    pub fn index(self) -> u8 {
        match self {
            ThrottleLevel::Full => 0,
            ThrottleLevel::RaisedVote => 1,
            ThrottleLevel::TriggerOnly => 2,
            ThrottleLevel::Stopped => 3,
        }
    }
}

impl std::fmt::Display for ThrottleLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThrottleLevel::Full => write!(f, "full"),
            ThrottleLevel::RaisedVote => write!(f, "raised-vote"),
            ThrottleLevel::TriggerOnly => write!(f, "trigger-only"),
            ThrottleLevel::Stopped => write!(f, "stopped"),
        }
    }
}

/// Bingo's effective short-event vote threshold at
/// [`ThrottleLevel::RaisedVote`] (the paper's default is 0.2; 0.75 keeps
/// only blocks most matching footprints agree on).
pub const RAISED_VOTE_THRESHOLD: f64 = 0.75;

/// Demand accesses per evaluation epoch of a single domain (and of the
/// starvation watchdog); [`Throttle::new`] divides it among per-core
/// domains.
pub const EPOCH_ACCESSES: u64 = 2048;

/// An epoch whose used-to-issued prefetch ratio falls below this is bad.
///
/// Accuracy is judged *issued-based* — `(Δpf_useful + Δpf_late) /
/// Δpf_issued` — not on eviction-settled counts: a useless prefetch into
/// an 8 MB LLC is not evicted (hence not counted `pf_useless`) for
/// millions of cycles, far too late to steer anything. Issued-vs-used is
/// timely and converges to true accuracy in steady state; its only bias
/// is the sub-epoch in-flight lag at ramp-up.
pub const ACCURACY_FLOOR: f64 = 0.5;

/// Used-to-issued ratio above which an epoch counts as good (between the
/// floor and this the epoch is neutral: streaks reset, level holds).
pub const ACCURACY_TARGET: f64 = 0.75;

/// Minimum prefetches issued in an epoch for its accuracy to count as
/// evidence; below this the epoch is neutral (sampling noise on a handful
/// of prefetches must not walk the ladder).
pub const MIN_EVIDENCE: u64 = 8;

/// Prefetch share of DRAM reads above which an epoch is bad regardless of
/// accuracy — even accurate prefetching must yield when it starves demand
/// fills of bandwidth.
pub const BANDWIDTH_CEILING: f64 = 0.6;

/// Average DRAM queue wait per read, in multiples of the channel's
/// per-transfer service time, above which the memory system counts as
/// *congested*. Past this point every read is queued behind several others
/// and the channel is the bottleneck, so a wasted prefetch transfer costs
/// a full service slot that a demand fill wanted.
pub const CONGESTION_WAIT_FACTOR: f64 = 2.0;

/// [`ACCURACY_FLOOR`] while the DRAM channel is congested. Moderately
/// accurate prefetching is profitable when bandwidth is spare — a 70%-hit
/// burst still hides latency — but on a saturated channel a useful
/// prefetch only *moves* a transfer earlier while a useless one *adds*
/// a transfer, so the break-even accuracy climbs steeply.
pub const CONGESTED_ACCURACY_FLOOR: f64 = 0.85;

/// [`ACCURACY_TARGET`] while the DRAM channel is congested.
pub const CONGESTED_ACCURACY_TARGET: f64 = 0.95;

/// Consecutive bad epochs before degrading one level.
pub const DEGRADE_AFTER: u32 = 2;

/// Consecutive good epochs before upgrading one level (the starting
/// upgrade patience; failed probes back it off, see
/// [`MAX_UPGRADE_PATIENCE`]).
pub const UPGRADE_AFTER: u32 = 4;

/// Epochs an upgrade must survive without degrading back for the probe to
/// count as successful.
pub const PROBE_WINDOW: u32 = 4;

/// Ceiling on the backed-off upgrade patience. Without backoff the
/// controller limit-cycles on steadily hostile traffic: good epochs at
/// the throttled level earn an upgrade, the restored aggressiveness is
/// promptly judged bad, and the two full-blast epochs per cycle cost real
/// bandwidth. Doubling the patience after every failed probe makes those
/// probes geometrically rarer, while one survived probe resets patience
/// to [`UPGRADE_AFTER`] so genuine pressure relief still recovers fast.
pub const MAX_UPGRADE_PATIENCE: u32 = 64;

/// Starvation SLO for [`ThrottleMode::Percore`]: the watchdog flags an
/// epoch when the minimum-to-maximum per-core progress ratio falls
/// *strictly below* this (a ratio exactly at the SLO is compliant).
/// Deliberately loose — heterogeneous mixes have legitimate progress
/// imbalance; the watchdog is a backstop against pathological
/// starvation, not a fairness equalizer.
pub const QOS_SLO: f64 = 0.25;

/// Consecutive starved watchdog epochs before the watchdog clamps the
/// offending core(s) — the watchdog-side hysteresis, mirroring
/// [`DEGRADE_AFTER`].
pub const WATCHDOG_STARVED_AFTER: u32 = 2;

/// Cumulative activity of one ladder domain, for diagnostics.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ThrottleStats {
    /// Completed evaluation epochs.
    pub epochs: u64,
    /// Epochs judged bad (inaccurate or bandwidth-starving).
    pub bad_epochs: u64,
    /// Epochs judged good (accurate and within the bandwidth budget).
    pub good_epochs: u64,
    /// Level degradations applied.
    pub degrades: u64,
    /// Level upgrades applied.
    pub upgrades: u64,
}

/// Cumulative attribution counters of one throttle domain on the shared
/// LLC/DRAM — what every ladder judges. A per-core domain holds one core's
/// share; the chip-wide domain holds their sums, which equal the LLC and
/// DRAM totals. The counters are monotone (they survive the warmup stats
/// reset untouched), so epoch deltas are always well defined.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CoreSignals {
    /// Resolved demand accesses — the epoch clock and the watchdog's
    /// progress proxy.
    pub demand_accesses: u64,
    /// Prefetches issued toward DRAM.
    pub pf_issued: u64,
    /// Issued prefetches later demanded (timely or late), credited to the
    /// *issuing* core regardless of which core demanded the line.
    pub pf_used: u64,
    /// DRAM reads carrying prefetches.
    pub prefetch_reads: u64,
    /// All DRAM reads: demand misses plus prefetches.
    pub reads: u64,
    /// DRAM queue-wait cycles of those reads.
    pub queue_wait_cycles: u64,
}

impl CoreSignals {
    /// Counter deltas since `prev` (saturating).
    fn delta_since(&self, prev: &CoreSignals) -> CoreSignals {
        CoreSignals {
            demand_accesses: self.demand_accesses.saturating_sub(prev.demand_accesses),
            pf_issued: self.pf_issued.saturating_sub(prev.pf_issued),
            pf_used: self.pf_used.saturating_sub(prev.pf_used),
            prefetch_reads: self.prefetch_reads.saturating_sub(prev.prefetch_reads),
            reads: self.reads.saturating_sub(prev.reads),
            queue_wait_cycles: self
                .queue_wait_cycles
                .saturating_sub(prev.queue_wait_cycles),
        }
    }
}

/// The per-epoch verdict driving the hysteresis streaks.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Verdict {
    Good,
    Neutral,
    Bad,
}

/// One domain's closed-loop ladder: every `epoch_accesses` demand
/// accesses it judges the elapsed epoch from its [`CoreSignals`] deltas and
/// walks the [`ThrottleLevel`] ladder.
#[derive(Debug)]
struct Ladder {
    level: ThrottleLevel,
    accesses: u64,
    /// Signals at the previous epoch boundary.
    snap: CoreSignals,
    bad_streak: u32,
    good_streak: u32,
    /// Good epochs currently required for an upgrade; starts at
    /// [`UPGRADE_AFTER`], doubles on every failed probe (capped at
    /// [`MAX_UPGRADE_PATIENCE`]), resets on a survived one.
    upgrade_patience: u32,
    /// An in-flight upgrade probe: the level upgraded to and the epochs
    /// elapsed since. `None` when no probe is outstanding.
    probe: Option<(ThrottleLevel, u32)>,
    /// DRAM per-transfer service time, used to normalize queue-wait cycles
    /// into a congestion signal.
    dram_service_cycles: u64,
    epoch_accesses: u64,
    stats: ThrottleStats,
}

impl Ladder {
    fn new(epoch_accesses: u64, dram_service_cycles: u64) -> Self {
        Ladder {
            level: ThrottleLevel::Full,
            accesses: 0,
            snap: CoreSignals::default(),
            bad_streak: 0,
            good_streak: 0,
            upgrade_patience: UPGRADE_AFTER,
            probe: None,
            dram_service_cycles,
            epoch_accesses,
            stats: ThrottleStats::default(),
        }
    }

    /// Counts one demand access; at epoch boundaries judges the elapsed
    /// epoch against `now` and returns `Some(new_level)` if the level
    /// changed.
    #[inline]
    fn on_access(&mut self, now: &CoreSignals) -> Option<ThrottleLevel> {
        self.accesses += 1;
        if self.accesses < self.epoch_accesses {
            return None;
        }
        self.epoch_boundary(*now)
    }

    /// The 1-in-`epoch_accesses` slow path of
    /// [`on_access`](Ladder::on_access), kept out of line so the
    /// per-access counter bump inlines into the memory system's demand
    /// path without dragging the epoch-judging code with it.
    #[inline(never)]
    fn epoch_boundary(&mut self, now: CoreSignals) -> Option<ThrottleLevel> {
        self.accesses = 0;
        self.stats.epochs += 1;
        let verdict = self.judge(&now.delta_since(&self.snap));
        self.snap = now;
        let before = self.level;
        // Age the outstanding probe; one that outlives its window at the
        // probed (or better) level succeeded — pressure genuinely lifted.
        if let Some((target, age)) = self.probe.as_mut() {
            *age += 1;
            if *age > PROBE_WINDOW && self.level <= *target {
                self.upgrade_patience = UPGRADE_AFTER;
                self.probe = None;
            }
        }
        match verdict {
            Verdict::Bad => {
                self.stats.bad_epochs += 1;
                self.good_streak = 0;
                self.bad_streak += 1;
                if self.bad_streak >= DEGRADE_AFTER {
                    self.bad_streak = 0;
                    self.level = self.level.degraded();
                    if self.level != before {
                        self.stats.degrades += 1;
                        if self.probe.take().is_some() {
                            // The upgrade was promptly punished: back off
                            // before probing again.
                            self.upgrade_patience =
                                (self.upgrade_patience * 2).min(MAX_UPGRADE_PATIENCE);
                        }
                    }
                }
            }
            Verdict::Good => {
                self.stats.good_epochs += 1;
                self.bad_streak = 0;
                self.good_streak += 1;
                if self.good_streak >= self.upgrade_patience {
                    self.good_streak = 0;
                    self.level = self.level.upgraded();
                    if self.level != before {
                        self.stats.upgrades += 1;
                        self.probe = Some((self.level, 0));
                    }
                }
            }
            Verdict::Neutral => {
                self.bad_streak = 0;
                self.good_streak = 0;
            }
        }
        (self.level != before).then_some(self.level)
    }

    /// One externally forced step down the ladder — the starvation
    /// watchdog's clamp. Streaks clear, any outstanding probe is
    /// cancelled, and the upgrade patience doubles (capped at
    /// [`MAX_UPGRADE_PATIENCE`]), so a clamped core neither climbs
    /// straight back out of the clamp nor probes into it at the old
    /// cadence — repeated interventions get geometrically rarer probes,
    /// exactly like organically failed ones.
    fn force_degrade(&mut self) -> Option<ThrottleLevel> {
        let before = self.level;
        self.level = self.level.degraded();
        self.bad_streak = 0;
        self.good_streak = 0;
        self.probe = None;
        self.upgrade_patience = (self.upgrade_patience * 2).min(MAX_UPGRADE_PATIENCE);
        if self.level == before {
            return None;
        }
        self.stats.degrades += 1;
        Some(self.level)
    }

    fn judge(&self, epoch: &CoreSignals) -> Verdict {
        let issued = epoch.pf_issued;
        let reads = epoch.reads;
        if issued == 0 {
            // Nothing issued: the prefetcher is quiet (Stopped, or nothing
            // triggered) and any settlements are free wins from earlier
            // epochs. Counts as good, so a stopped prefetcher probes its
            // way back up once pressure could have lifted.
            return Verdict::Good;
        }
        if issued < MIN_EVIDENCE {
            return Verdict::Neutral;
        }
        // Issued-based accuracy (see ACCURACY_FLOOR): how much of what the
        // prefetcher asked for this epoch did demand actually want? Can
        // exceed 1.0 when prior epochs' prefetches settle late — that only
        // strengthens a good verdict.
        let accuracy = epoch.pf_used as f64 / issued as f64;
        let bw_share = if reads == 0 {
            0.0
        } else {
            epoch.prefetch_reads as f64 / reads as f64
        };
        // Congestion raises the accuracy bar: when reads queue several
        // service slots deep on average, the channel is the bottleneck and
        // wasted transfers directly delay demand fills.
        let congested = reads > 0
            && epoch.queue_wait_cycles as f64 / reads as f64
                > CONGESTION_WAIT_FACTOR * self.dram_service_cycles as f64;
        let (floor, target) = if congested {
            (CONGESTED_ACCURACY_FLOOR, CONGESTED_ACCURACY_TARGET)
        } else {
            (ACCURACY_FLOOR, ACCURACY_TARGET)
        };
        if accuracy < floor || bw_share > BANDWIDTH_CEILING {
            Verdict::Bad
        } else if accuracy >= target {
            Verdict::Good
        } else {
            Verdict::Neutral
        }
    }
}

/// Cumulative starvation-watchdog activity, for diagnostics and the
/// [`QosReport`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WatchdogStats {
    /// Completed chip-level watchdog epochs.
    pub epochs: u64,
    /// Epochs whose min/max progress ratio fell below the SLO.
    pub starved_epochs: u64,
    /// Forced level degradations applied to offender cores.
    pub clamps: u64,
    /// Offenders spared by the never-all-stopped arbiter rule.
    pub exempted: u64,
}

/// The chip-level starvation watchdog coordinating the per-core domains.
///
/// Every [`EPOCH_ACCESSES`] resolved demand accesses *chip-wide* it
/// compares per-core progress (resolved demand accesses in the window, the
/// in-simulator proxy for per-core IPC). When the minimum-to-maximum
/// ratio over active cores falls strictly below the SLO for
/// [`WATCHDOG_STARVED_AFTER`] consecutive epochs, it force-degrades only
/// the cores consuming more than their fair share of prefetch bandwidth —
/// never the starved core, and never the last core standing (see
/// [`Watchdog::decide`]).
#[derive(Debug)]
struct Watchdog {
    accesses: u64,
    prev: Vec<CoreSignals>,
    starved_streak: u32,
    stats: WatchdogStats,
}

/// The watchdog's verdict for one chip epoch: which cores to clamp, and
/// whether an offender was exempted to satisfy the never-all-stopped
/// invariant.
#[derive(Debug, Default, PartialEq, Eq)]
struct WatchdogVerdict {
    starved: bool,
    clamp: Vec<usize>,
    exempted: bool,
}

impl Watchdog {
    fn new(cores: usize) -> Self {
        Watchdog {
            accesses: 0,
            prev: vec![CoreSignals::default(); cores],
            starved_streak: 0,
            stats: WatchdogStats::default(),
        }
    }

    /// Ticks the chip-wide watchdog clock by one demand access; returns
    /// whether an epoch's clamps changed any core's level.
    #[inline]
    fn on_access(&mut self, ladders: &mut [Ladder], signals: &[CoreSignals]) -> bool {
        self.accesses += 1;
        if self.accesses < EPOCH_ACCESSES {
            return false;
        }
        self.accesses = 0;
        self.epoch(ladders, signals)
    }

    /// Chip-level watchdog epoch: snapshot the window deltas, decide,
    /// clamp. Out of line for the same reason as
    /// [`Ladder::epoch_boundary`].
    #[inline(never)]
    fn epoch(&mut self, ladders: &mut [Ladder], signals: &[CoreSignals]) -> bool {
        let delta: Vec<CoreSignals> = signals
            .iter()
            .zip(&self.prev)
            .map(|(now, prev)| now.delta_since(prev))
            .collect();
        self.prev.copy_from_slice(signals);
        let levels: Vec<ThrottleLevel> = ladders.iter().map(|l| l.level).collect();
        let verdict = self.decide(&levels, &delta);
        let mut changed = false;
        for &i in &verdict.clamp {
            if ladders[i].force_degrade().is_some() {
                self.stats.clamps += 1;
                changed = true;
            }
        }
        changed
    }

    /// Pure clamp decision for one epoch window. `levels` are the cores'
    /// current throttle levels, `delta` their window counter deltas.
    /// Separated from the counter plumbing so the edge cases (exact-SLO
    /// ratio, all-cores-offending) are unit-testable in isolation.
    fn decide(&mut self, levels: &[ThrottleLevel], delta: &[CoreSignals]) -> WatchdogVerdict {
        self.stats.epochs += 1;
        let n = levels.len();
        let mut verdict = WatchdogVerdict::default();
        // A core with zero window progress is idle (it met its
        // instruction target), not starved — contention in this machine
        // slows demand down, it cannot stop it entirely. Fewer than two
        // active cores means there is no contention question to judge.
        let active: Vec<usize> = (0..n).filter(|&i| delta[i].demand_accesses > 0).collect();
        if active.len() < 2 {
            self.starved_streak = 0;
            return verdict;
        }
        let progress = |i: usize| delta[i].demand_accesses;
        let max = active.iter().map(|&i| progress(i)).max().expect("active");
        let starved_core = *active
            .iter()
            .min_by_key(|&&i| (progress(i), i))
            .expect("active");
        // Strict comparison: a ratio exactly at the SLO is compliant.
        if progress(starved_core) as f64 / max as f64 >= QOS_SLO {
            self.starved_streak = 0;
            return verdict;
        }
        verdict.starved = true;
        self.stats.starved_epochs += 1;
        self.starved_streak += 1;
        if self.starved_streak < WATCHDOG_STARVED_AFTER {
            return verdict;
        }
        self.starved_streak = 0;
        let total_pf: u64 = delta.iter().map(|d| d.prefetch_reads).sum();
        if total_pf == 0 {
            // Imbalance without prefetch traffic is not ours to fix.
            return verdict;
        }
        // Offenders: every core (other than the starved one) drawing more
        // than its fair 1/n share of the window's prefetch bandwidth;
        // if nobody crosses that bar, the single largest consumer.
        let fair = total_pf as f64 / n as f64;
        let mut clamp: Vec<usize> = (0..n)
            .filter(|&i| i != starved_core && delta[i].prefetch_reads as f64 > fair)
            .collect();
        if clamp.is_empty() {
            let top = (0..n)
                .filter(|&i| i != starved_core && delta[i].prefetch_reads > 0)
                .max_by_key(|&i| (delta[i].prefetch_reads, std::cmp::Reverse(i)));
            match top {
                Some(i) => clamp.push(i),
                None => return verdict, // all prefetch traffic is the starved core's own
            }
        }
        // Never clamp the whole chip to Stopped: if applying the clamps
        // would leave every core at Stopped, spare the offender whose
        // window accuracy is best (ties: fewer prefetch reads, then lower
        // index) so at least one prefetcher keeps probing for recovery.
        let clamped_level = |i: usize, clamp: &[usize]| {
            if clamp.contains(&i) {
                levels[i].degraded()
            } else {
                levels[i]
            }
        };
        if (0..n).all(|i| clamped_level(i, &clamp) == ThrottleLevel::Stopped) {
            let accuracy = |i: usize| {
                if delta[i].pf_issued == 0 {
                    1.0
                } else {
                    delta[i].pf_used as f64 / delta[i].pf_issued as f64
                }
            };
            let spare = clamp
                .iter()
                .copied()
                .reduce(|best, i| {
                    match accuracy(i).total_cmp(&accuracy(best)).then(
                        delta[best]
                            .prefetch_reads
                            .cmp(&delta[i].prefetch_reads)
                            .then(best.cmp(&i)),
                    ) {
                        std::cmp::Ordering::Greater => i,
                        _ => best,
                    }
                })
                .expect("clamp set is non-empty");
            clamp.retain(|&i| i != spare);
            verdict.exempted = true;
            self.stats.exempted += 1;
        }
        verdict.clamp = clamp;
        verdict
    }
}

/// The prefetch throttle: one ladder per domain, each fed the
/// [`CoreSignals`] of the cores mapped to it, plus the starvation watchdog
/// under [`ThrottleMode::Percore`].
///
/// [`ThrottleMode::Feedback`] is one chip-wide domain fed by every core;
/// [`ThrottleMode::Percore`] is one domain per core. The memory system
/// reports every resolved demand access, DRAM read, and prefetch use to
/// the issuing core's domain, so the chip-wide domain's signals are
/// exactly the LLC and DRAM totals.
#[derive(Debug)]
pub struct Throttle {
    ladders: Vec<Ladder>,
    signals: Vec<CoreSignals>,
    /// `Some` exactly under [`ThrottleMode::Percore`].
    watchdog: Option<Watchdog>,
}

impl Throttle {
    /// Builds the throttle for `mode` on a `cores`-core chip; `None` for
    /// [`ThrottleMode::Off`], which carries no throttle at all (that is
    /// what keeps it bit-for-bit invisible). `dram_service_cycles` is the
    /// DRAM per-transfer service time, against which an average queue wait
    /// of more than [`CONGESTION_WAIT_FACTOR`] slots per read counts as
    /// congestion and raises the accuracy bar to
    /// [`CONGESTED_ACCURACY_FLOOR`]/[`CONGESTED_ACCURACY_TARGET`].
    ///
    /// # Panics
    ///
    /// Panics when `cores` is zero.
    pub fn new(mode: ThrottleMode, cores: usize, dram_service_cycles: u64) -> Option<Self> {
        assert!(cores > 0, "throttling needs at least one core");
        let domains = match mode {
            ThrottleMode::Off => return None,
            ThrottleMode::Feedback => 1,
            ThrottleMode::Percore => cores,
        };
        // A per-core domain only sees its core's ~1/n slice of the chip's
        // demand accesses, so its epoch clock is scaled to keep the
        // reaction cadence — and the evidence behind each verdict — equal
        // to the chip-wide domain's. Without the scaling a per-core ladder
        // walks n× slower and loses the graceful-degradation bound on short
        // adversarial runs; the floor keeps a many-core epoch out of
        // sampling-noise territory.
        let epoch = (EPOCH_ACCESSES / domains as u64).max(4 * MIN_EVIDENCE);
        Some(Throttle {
            ladders: (0..domains)
                .map(|_| Ladder::new(epoch, dram_service_cycles))
                .collect(),
            signals: vec![CoreSignals::default(); domains],
            watchdog: (mode == ThrottleMode::Percore).then(|| Watchdog::new(cores)),
        })
    }

    #[inline]
    fn domain(&self, core: usize) -> usize {
        if self.signals.len() == 1 {
            0
        } else {
            core
        }
    }

    /// The current effective level of one core's prefetcher.
    pub fn level(&self, core: usize) -> ThrottleLevel {
        self.ladders[self.domain(core)].level
    }

    /// The cumulative signals of `core`'s domain (under
    /// [`ThrottleMode::Feedback`], the chip-wide sums).
    pub fn signals(&self, core: usize) -> &CoreSignals {
        &self.signals[self.domain(core)]
    }

    /// Counts one resolved demand access by `core`: ticks its domain's
    /// epoch clock and ladder, and the watchdog clock. Returns whether
    /// *any* core's level changed — the caller then re-pushes every core's
    /// level to its prefetcher (cheap: epoch boundaries only).
    #[inline]
    pub fn on_access(&mut self, core: usize) -> bool {
        let d = self.domain(core);
        let signals = &mut self.signals[d];
        signals.demand_accesses += 1;
        let mut changed = self.ladders[d].on_access(signals).is_some();
        if let Some(watchdog) = self.watchdog.as_mut() {
            changed |= watchdog.on_access(&mut self.ladders, &self.signals);
        }
        changed
    }

    /// Attributes a prefetch issued by `core` (and its tagged DRAM read).
    #[inline]
    pub fn note_pf_issued(&mut self, core: usize, queue_wait: u64) {
        let d = self.domain(core);
        let s = &mut self.signals[d];
        s.pf_issued += 1;
        s.prefetch_reads += 1;
        s.reads += 1;
        s.queue_wait_cycles += queue_wait;
    }

    /// Credits a demanded prefetched line (timely or late) to `core`, the
    /// core that issued it.
    #[inline]
    pub fn note_pf_used(&mut self, core: usize) {
        let d = self.domain(core);
        self.signals[d].pf_used += 1;
    }

    /// Attributes a demand DRAM read (and its queue wait) to the core that
    /// missed.
    #[inline]
    pub fn note_demand_read(&mut self, core: usize, queue_wait: u64) {
        let d = self.domain(core);
        let s = &mut self.signals[d];
        s.reads += 1;
        s.queue_wait_cycles += queue_wait;
    }

    /// The end-of-warmup hook. Signals are monotone and survive the stats
    /// reset, and levels, streaks, and the watchdog are learned state that
    /// survives warmup like predictor tables.
    pub fn on_stats_reset(&mut self) {
        // The one asymmetry between the modes; removing it would change
        // results. The chip-wide domain rebases its snapshot to the current
        // signal sums and restarts its epoch clock, so it judges exactly
        // the deltas of the LLC and DRAM counters the reset zeroes.
        // Per-core domains keep their snapshot and clock.
        if self.watchdog.is_none() {
            let ladder = &mut self.ladders[0];
            ladder.snap = self.signals[0];
            ladder.accesses = 0;
        }
    }

    /// The end-of-run per-core attribution report; `None` unless the mode
    /// is [`ThrottleMode::Percore`].
    pub fn report(&self) -> Option<QosReport> {
        let watchdog = self.watchdog.as_ref()?;
        Some(QosReport {
            cores: self
                .ladders
                .iter()
                .zip(&self.signals)
                .map(|(ladder, sig)| CoreQos {
                    demand_accesses: sig.demand_accesses,
                    pf_issued: sig.pf_issued,
                    pf_used: sig.pf_used,
                    prefetch_reads: sig.prefetch_reads,
                    reads: sig.reads,
                    epochs: ladder.stats.epochs,
                    degrades: ladder.stats.degrades,
                    upgrades: ladder.stats.upgrades,
                    final_level: ladder.level.index(),
                })
                .collect(),
            watchdog_epochs: watchdog.stats.epochs,
            watchdog_starved_epochs: watchdog.stats.starved_epochs,
            watchdog_clamps: watchdog.stats.clamps,
            watchdog_exempted: watchdog.stats.exempted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// DRAM service time used by every test throttle; an idle channel
    /// (zero queue wait) is never congested against it.
    const SERVICE: u64 = 14;

    fn ladder() -> Ladder {
        Ladder::new(EPOCH_ACCESSES, SERVICE)
    }

    fn tick_epoch(l: &mut Ladder, sig: &CoreSignals) -> Option<ThrottleLevel> {
        let mut change = None;
        for _ in 0..EPOCH_ACCESSES {
            if let Some(level) = l.on_access(sig) {
                change = Some(level);
            }
        }
        change
    }

    /// Cumulative signals of `epochs` epochs issuing 100 prefetches each,
    /// `used` of them demanded.
    fn issuing(epochs: u64, used: u64) -> CoreSignals {
        CoreSignals {
            pf_issued: epochs * 100,
            pf_used: epochs * used,
            ..CoreSignals::default()
        }
    }

    #[test]
    fn parse_accepts_knob_spellings() {
        assert_eq!(ThrottleMode::parse("off"), Some(ThrottleMode::Off));
        assert_eq!(
            ThrottleMode::parse("feedback"),
            Some(ThrottleMode::Feedback)
        );
        assert_eq!(
            ThrottleMode::parse("Feedback"),
            Some(ThrottleMode::Feedback)
        );
        assert_eq!(ThrottleMode::parse("percore"), Some(ThrottleMode::Percore));
        assert_eq!(
            ThrottleMode::parse(" PerCore "),
            Some(ThrottleMode::Percore)
        );
        // Exactly the three words: no undocumented alias.
        for alias in ["0", "none", "on", "2", "3"] {
            assert_eq!(ThrottleMode::parse(alias), None, "{alias}");
        }
        assert_eq!(ThrottleMode::parse("aggressive"), None);
        assert_eq!(ThrottleMode::parse(""), None);
        // The retired fixed-degree mode fails loudly rather than silently
        // running some other policy.
        assert_eq!(ThrottleMode::parse("static"), None);
        assert_eq!(ThrottleMode::parse("1"), None);
        assert_eq!(ThrottleMode::Percore.to_string(), "percore");
    }

    #[test]
    fn ladder_is_monotone_and_saturating() {
        let mut l = ThrottleLevel::Full;
        let mut seen = vec![l];
        for _ in 0..5 {
            l = l.degraded();
            seen.push(l);
        }
        assert_eq!(
            &seen[..4],
            &[
                ThrottleLevel::Full,
                ThrottleLevel::RaisedVote,
                ThrottleLevel::TriggerOnly,
                ThrottleLevel::Stopped
            ]
        );
        assert_eq!(l, ThrottleLevel::Stopped, "degrade saturates");
        assert_eq!(ThrottleLevel::Full.upgraded(), ThrottleLevel::Full);
        assert!(ThrottleLevel::Full < ThrottleLevel::Stopped);
    }

    #[test]
    fn off_mode_builds_no_throttle() {
        assert!(Throttle::new(ThrottleMode::Off, 4, SERVICE).is_none());
    }

    #[test]
    fn feedback_is_one_chip_wide_domain() {
        let mut t = Throttle::new(ThrottleMode::Feedback, 4, SERVICE).expect("feedback throttles");
        assert_eq!(t.ladders.len(), 1);
        assert_eq!(t.ladders[0].epoch_accesses, EPOCH_ACCESSES);
        t.note_pf_issued(1, 3);
        t.note_pf_used(2);
        t.note_demand_read(3, 4);
        t.on_access(0);
        assert_eq!(
            t.signals[0],
            CoreSignals {
                demand_accesses: 1,
                pf_issued: 1,
                pf_used: 1,
                prefetch_reads: 1,
                reads: 2,
                queue_wait_cycles: 7,
            },
            "every core feeds the one domain"
        );
        assert!(t.report().is_none(), "feedback attaches no QoS report");
    }

    #[test]
    fn sustained_inaccuracy_degrades_to_stopped() {
        // Issuing epoch after epoch with demand never touching a prefetched
        // block is exactly what a useless storm looks like — the in-flight
        // lag excuse only lasts a fraction of one epoch.
        let mut c = ladder();
        let mut changes = Vec::new();
        for epoch in 1..=8u64 {
            if let Some(l) = tick_epoch(&mut c, &issuing(epoch, 0)) {
                changes.push(l);
            }
        }
        assert_eq!(
            changes,
            vec![
                ThrottleLevel::RaisedVote,
                ThrottleLevel::TriggerOnly,
                ThrottleLevel::Stopped
            ],
            "one degrade per {DEGRADE_AFTER} bad epochs, saturating"
        );
        assert_eq!(c.stats.degrades, 3);
    }

    #[test]
    fn quiet_epochs_let_a_stopped_prefetcher_recover() {
        let mut c = ladder();
        for epoch in 1..=6u64 {
            tick_epoch(&mut c, &issuing(epoch, 0));
        }
        assert_eq!(c.level, ThrottleLevel::Stopped);
        // Stopped: no new prefetch activity at all -> quiet epochs are
        // good, and every UPGRADE_AFTER of them climb one level.
        let frozen = issuing(6, 0);
        for _ in 0..u64::from(UPGRADE_AFTER) * 3 {
            tick_epoch(&mut c, &frozen);
        }
        assert_eq!(c.level, ThrottleLevel::Full, "full recovery");
        assert_eq!(c.stats.upgrades, 3);
    }

    #[test]
    fn accurate_epochs_hold_full_aggressiveness() {
        let mut c = ladder();
        for epoch in 1..=10u64 {
            tick_epoch(&mut c, &issuing(epoch, 100));
        }
        assert_eq!(c.level, ThrottleLevel::Full);
        assert_eq!(c.stats.degrades, 0);
        assert_eq!(c.stats.good_epochs, 10);
    }

    #[test]
    fn bandwidth_hogging_is_bad_even_when_accurate() {
        let mut c = ladder();
        for epoch in 1..=4u64 {
            let sig = CoreSignals {
                prefetch_reads: epoch * 90, // ...but 90% of all reads
                reads: epoch * 100,
                ..issuing(epoch, 100) // perfectly accurate
            };
            tick_epoch(&mut c, &sig);
        }
        assert!(c.level > ThrottleLevel::Full, "bandwidth ceiling fired");
        assert!(c.stats.bad_epochs >= 2);
    }

    #[test]
    fn tiny_samples_are_neutral_evidence() {
        let mut c = ladder();
        for epoch in 1..=6u64 {
            // A trickle below MIN_EVIDENCE, all of it useless: too little
            // to walk the ladder either way.
            let sig = CoreSignals {
                pf_issued: epoch * (MIN_EVIDENCE - 1),
                ..CoreSignals::default()
            };
            tick_epoch(&mut c, &sig);
        }
        assert_eq!(c.level, ThrottleLevel::Full);
        assert_eq!(c.stats.bad_epochs, 0);
        assert_eq!(c.stats.good_epochs, 0);
    }

    #[test]
    fn congestion_raises_the_accuracy_bar() {
        // 80% accuracy: comfortably good on an idle channel, bad on one
        // where reads queue several service slots deep.
        let run = |queue_wait_per_read: u64| {
            let mut c = ladder();
            let mut sig = CoreSignals::default();
            for _ in 0..6 {
                sig.pf_issued += 100;
                sig.pf_used += 80;
                sig.reads += 100;
                sig.queue_wait_cycles += 100 * queue_wait_per_read;
                tick_epoch(&mut c, &sig);
            }
            c
        };
        let idle = run(0);
        assert_eq!(idle.level, ThrottleLevel::Full);
        assert!(idle.stats.bad_epochs == 0 && idle.stats.good_epochs >= 4);
        let congested = run(100); // far past CONGESTION_WAIT_FACTOR * SERVICE
        assert!(congested.level > ThrottleLevel::Full);
        assert!(congested.stats.bad_epochs >= 4);
    }

    #[test]
    fn failed_probes_back_off_exponentially() {
        // Steadily hostile traffic: every epoch spent at Full issues
        // useless prefetches (Bad), every throttled epoch is accurate
        // (Good). Without backoff the ladder limit-cycles, spending a
        // third of all epochs at full blast; with it the probes must get
        // geometrically rarer.
        let mut c = ladder();
        let mut sig = CoreSignals::default();
        let mut full_epochs = 0u32;
        for _ in 0..120 {
            sig.pf_issued += 100;
            if c.level == ThrottleLevel::Full {
                full_epochs += 1; // nothing used: Bad
            } else {
                sig.pf_used += 100; // accurate when throttled: Good
            }
            tick_epoch(&mut c, &sig);
        }
        // Limit-cycling would put ~40 of 120 epochs at Full; backoff caps
        // the early oscillation plus ever-rarer probes well below that.
        assert!(
            full_epochs <= 16,
            "{full_epochs} full-blast epochs despite hostile traffic"
        );
        assert!(c.stats.degrades > c.stats.upgrades);
    }

    #[test]
    fn surviving_a_probe_restores_upgrade_patience() {
        let mut c = ladder();
        // Drive to Stopped with a couple of failed probes to inflate the
        // patience.
        let mut sig = CoreSignals::default();
        for _ in 0..40 {
            sig.pf_issued += 100;
            tick_epoch(&mut c, &sig);
        }
        assert_eq!(c.level, ThrottleLevel::Stopped);
        // Pressure lifts: quiet epochs from here on. Recovery to Full must
        // complete despite the earlier failures — each survived probe
        // resets the patience, so the climb accelerates back to the
        // UPGRADE_AFTER cadence instead of paying the inflated patience at
        // every rung.
        let mut recovery = 0u32;
        while c.level != ThrottleLevel::Full {
            tick_epoch(&mut c, &sig);
            recovery += 1;
            assert!(recovery < 300, "recovery stalled at {}", c.level);
        }
        assert!(
            recovery <= MAX_UPGRADE_PATIENCE + 3 * (UPGRADE_AFTER + PROBE_WINDOW) + 8,
            "recovery took {recovery} epochs"
        );
    }

    #[test]
    fn stats_reset_rebases_the_snapshot() {
        // Half an epoch of pure waste, the warmup reset, then accurate
        // prefetching until the next boundary.
        let run = |mode: ThrottleMode| {
            let mut t = Throttle::new(mode, 2, SERVICE).expect("enabled");
            let epoch = t.ladders[0].epoch_accesses;
            for _ in 0..100 {
                t.note_pf_issued(0, 0);
            }
            for _ in 0..epoch / 2 {
                t.on_access(0);
            }
            t.on_stats_reset();
            for _ in 0..10 {
                t.note_pf_issued(0, 0);
                t.note_pf_used(0);
                t.note_demand_read(0, 0);
            }
            for _ in 0..epoch / 2 {
                t.on_access(0);
            }
            t
        };
        // The chip-wide domain forgets the pre-reset waste and restarts its
        // clock: no boundary yet, and the first epoch after it is good.
        let mut fb = run(ThrottleMode::Feedback);
        assert_eq!(fb.ladders[0].stats.epochs, 0, "clock restarted");
        for _ in 0..EPOCH_ACCESSES / 2 {
            fb.on_access(1);
        }
        assert_eq!(fb.ladders[0].stats.epochs, 1);
        assert_eq!(fb.ladders[0].stats.good_epochs, 1);
        // A per-core domain keeps both across the reset: its boundary lands
        // on schedule and judges the waste too.
        let pc = run(ThrottleMode::Percore);
        assert_eq!(pc.ladders[0].stats.epochs, 1);
        assert_eq!(pc.ladders[0].stats.bad_epochs, 1);
    }

    #[test]
    fn force_degrade_steps_cancels_probe_and_backs_off() {
        let mut c = ladder();
        assert_eq!(c.force_degrade(), Some(ThrottleLevel::RaisedVote));
        assert_eq!(c.upgrade_patience, UPGRADE_AFTER * 2);
        assert_eq!(c.stats.degrades, 1);
        assert_eq!(c.force_degrade(), Some(ThrottleLevel::TriggerOnly));
        assert_eq!(c.force_degrade(), Some(ThrottleLevel::Stopped));
        // Saturated: no level change, still backs the patience off.
        assert_eq!(c.force_degrade(), None);
        assert_eq!(c.stats.degrades, 3);
        assert_eq!(c.upgrade_patience, UPGRADE_AFTER * 16);
        assert!(c.probe.is_none());
    }

    /// Backed-off patience must saturate, never wrap, over runs long
    /// enough for thousands of failed probes.
    #[test]
    fn probe_backoff_saturates_without_overflow_on_long_runs() {
        let mut c = ladder();
        let mut sig = CoreSignals::default();
        for _ in 0..20_000 {
            sig.pf_issued += 100;
            if c.level != ThrottleLevel::Full {
                sig.pf_used += 100; // accurate only while throttled
            }
            tick_epoch(&mut c, &sig);
            assert!(c.upgrade_patience <= MAX_UPGRADE_PATIENCE);
        }
        // Probes became geometrically rare but never stopped entirely.
        assert!(c.stats.upgrades > 0);
        assert!(c.stats.degrades >= c.stats.upgrades);
        // And hammering force_degrade on top cannot wrap either.
        for _ in 0..10_000 {
            c.force_degrade();
            assert!(c.upgrade_patience <= MAX_UPGRADE_PATIENCE);
        }
    }

    // ---- per-core domains + starvation watchdog ----------------------

    fn percore(cores: usize) -> Throttle {
        Throttle::new(ThrottleMode::Percore, cores, SERVICE).expect("percore throttles")
    }

    /// Ticks `t` for one full chip epoch with per-core access shares
    /// given in `share` (must sum to EPOCH_ACCESSES), interleaved
    /// round-robin so per-core and chip clocks advance together.
    fn tick_chip_epoch(t: &mut Throttle, share: &[u64]) {
        assert_eq!(share.iter().sum::<u64>(), EPOCH_ACCESSES);
        let mut left: Vec<u64> = share.to_vec();
        let mut remaining: u64 = left.iter().sum();
        while remaining > 0 {
            for (core, l) in left.iter_mut().enumerate() {
                if *l > 0 {
                    *l -= 1;
                    remaining -= 1;
                    t.on_access(core);
                }
            }
        }
    }

    #[test]
    fn percore_epochs_scale_with_the_core_count() {
        assert_eq!(percore(2).ladders[1].epoch_accesses, 1024);
        assert_eq!(
            percore(256).ladders[0].epoch_accesses,
            4 * MIN_EVIDENCE,
            "floored against sampling noise"
        );
    }

    #[test]
    fn storm_core_throttles_alone() {
        let mut t = percore(2);
        // Each chip epoch is split between the two cores, so a per-core
        // epoch takes two outer iterations; 16 iterations give each ladder
        // 8 epochs — enough for the full descent.
        for _ in 0..16 {
            // Core 0: accurate prefetching. Core 1: pure waste. Both also
            // carry demand reads so the bandwidth share stays moderate.
            for _ in 0..(EPOCH_ACCESSES / 2) {
                t.note_pf_issued(0, 0);
                t.note_pf_used(0);
                t.note_pf_issued(1, 0);
                for core in 0..2 {
                    t.note_demand_read(core, 0);
                    t.note_demand_read(core, 0);
                }
            }
            tick_chip_epoch(&mut t, &[EPOCH_ACCESSES / 2, EPOCH_ACCESSES / 2]);
        }
        assert_eq!(t.level(0), ThrottleLevel::Full, "polite core untouched");
        assert_eq!(t.level(1), ThrottleLevel::Stopped, "storm core clamped");
        assert!(t.ladders[1].stats.degrades >= 3);
        assert_eq!(t.ladders[0].stats.degrades, 0);
    }

    #[test]
    fn percore_report_carries_attribution_and_levels() {
        let mut t = percore(2);
        t.note_pf_issued(0, 5);
        t.note_pf_used(0);
        t.note_demand_read(1, 9);
        t.on_access(0);
        t.on_access(1);
        let r = t.report().expect("percore reports");
        assert_eq!(r.cores.len(), 2);
        assert_eq!(r.cores[0].pf_issued, 1);
        assert_eq!(r.cores[0].pf_used, 1);
        assert_eq!(r.cores[0].prefetch_reads, 1);
        assert_eq!(r.cores[0].demand_accesses, 1);
        assert_eq!(r.cores[1].reads, 1);
        assert_eq!(r.cores[1].pf_issued, 0);
        assert_eq!(r.cores[0].final_level, 0);
    }

    fn delta(progress: u64, pf_reads: u64) -> CoreSignals {
        CoreSignals {
            demand_accesses: progress,
            pf_issued: pf_reads,
            pf_used: 0,
            prefetch_reads: pf_reads,
            reads: progress + pf_reads,
            queue_wait_cycles: 0,
        }
    }

    /// An epoch whose progress ratio lands *exactly* on the SLO threshold
    /// is compliant — only strictly-below counts as starved.
    #[test]
    fn progress_ratio_exactly_at_the_slo_is_compliant() {
        let levels = [ThrottleLevel::Full, ThrottleLevel::Full];
        let mut wd = Watchdog::new(2);
        assert_eq!(500.0 / 2000.0, QOS_SLO);
        for _ in 0..4 {
            let v = wd.decide(&levels, &[delta(500, 500), delta(2000, 0)]);
            assert!(!v.starved, "ratio == SLO must not count as starved");
            assert!(v.clamp.is_empty());
        }
        assert_eq!(wd.stats.starved_epochs, 0);
        // One access less — with the fast core hogging the prefetch
        // bandwidth — and the same windows are starved epochs.
        let v = wd.decide(&levels, &[delta(499, 0), delta(2000, 500)]);
        assert!(v.starved);
        assert_eq!(wd.starved_streak, 1, "first starved epoch arms hysteresis");
        assert!(v.clamp.is_empty(), "hysteresis defers the clamp");
        let v = wd.decide(&levels, &[delta(499, 0), delta(2000, 500)]);
        assert_eq!(v.clamp, vec![1], "second consecutive starved epoch clamps");
    }

    #[test]
    fn watchdog_clamps_only_bandwidth_hogs_never_the_starved_core() {
        let levels = [ThrottleLevel::Full; 3];
        let mut wd = Watchdog::new(3);
        // Core 0 starves; cores 1 and 2 split prefetch traffic, but only
        // core 2 exceeds the fair 1/3 share.
        let window = [delta(100, 0), delta(2000, 100), delta(2000, 500)];
        wd.decide(&levels, &window);
        let v = wd.decide(&levels, &window);
        assert_eq!(v.clamp, vec![2]);
    }

    #[test]
    fn compliant_epochs_reset_the_starved_streak() {
        let levels = [ThrottleLevel::Full, ThrottleLevel::Full];
        let mut wd = Watchdog::new(2);
        let starving = [delta(100, 0), delta(2000, 800)];
        let fine = [delta(2000, 0), delta(2000, 800)];
        wd.decide(&levels, &starving);
        wd.decide(&levels, &fine);
        let v = wd.decide(&levels, &starving);
        assert!(
            v.clamp.is_empty(),
            "a compliant epoch between two starved ones must disarm the clamp"
        );
    }

    #[test]
    fn idle_cores_are_not_starved_cores() {
        let levels = [ThrottleLevel::Full, ThrottleLevel::Full];
        let mut wd = Watchdog::new(2);
        // Core 0 finished its instruction target: zero progress, but that
        // is idleness, not starvation.
        for _ in 0..4 {
            let v = wd.decide(&levels, &[delta(0, 0), delta(2000, 800)]);
            assert!(!v.starved);
            assert!(v.clamp.is_empty());
        }
    }

    /// Simultaneous degrade pressure on every core must never clamp the
    /// whole chip to Stopped — the best-accuracy offender is spared.
    #[test]
    fn watchdog_never_clamps_every_core_to_stopped() {
        let mut t = percore(3);
        // Drive every core's ladder to TriggerOnly, one forced step at a
        // time, so any further clamp would mean Stopped.
        for ladder in &mut t.ladders {
            ladder.force_degrade();
            ladder.force_degrade();
        }
        // Core 0 starves; cores 1 and 2 both hog prefetch bandwidth, but
        // core 2 is the (relatively) accurate one.
        let mut window = [delta(100, 0), delta(2000, 900), delta(2000, 900)];
        window[2].pf_used = 500;
        // Starved core 0 is already headed to Stopped too via its own
        // ladder in the worst case; force it there outright.
        t.ladders[0].force_degrade();
        let levels_now: Vec<ThrottleLevel> = (0..3).map(|i| t.level(i)).collect();
        assert_eq!(levels_now[0], ThrottleLevel::Stopped);
        let wd = t.watchdog.as_mut().expect("percore has a watchdog");
        wd.decide(&levels_now, &window); // arm hysteresis
        let v = wd.decide(&levels_now, &window);
        assert_eq!(v.clamp, vec![1], "the accurate offender is spared");
        assert!(v.exempted);
        assert_eq!(wd.stats.exempted, 1);
        for &i in &v.clamp {
            t.ladders[i].force_degrade();
        }
        assert!(
            (0..3).any(|i| t.level(i) != ThrottleLevel::Stopped),
            "some core must stay un-stopped"
        );
    }

    /// The recovery-time bound the chaos property suite leans on: once
    /// signals turn clean, a clamped core returns to Full within
    /// `MAX_UPGRADE_PATIENCE + 3 * (UPGRADE_AFTER + PROBE_WINDOW) + 8`
    /// of its own epochs, even from Stopped with fully backed-off
    /// patience.
    #[test]
    fn clamped_core_recovers_within_the_bounded_epoch_count() {
        let mut t = percore(2);
        for _ in 0..6 {
            t.ladders[1].force_degrade(); // Stopped, patience saturated
        }
        assert_eq!(t.level(1), ThrottleLevel::Stopped);
        let bound = MAX_UPGRADE_PATIENCE + 3 * (UPGRADE_AFTER + PROBE_WINDOW) + 8;
        let mut epochs = 0u32;
        while t.level(1) != ThrottleLevel::Full {
            // Clean epoch: no prefetch activity on core 1 at all (the
            // prefetcher is stopped), both cores progressing equally.
            tick_chip_epoch(&mut t, &[EPOCH_ACCESSES / 2, EPOCH_ACCESSES / 2]);
            epochs += 1;
            assert!(
                epochs <= 2 * bound,
                "recovery exceeded the bound at {}",
                t.level(1)
            );
        }
        assert!(t.ladders[1].stats.upgrades >= 3);
    }
}
