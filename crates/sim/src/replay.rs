//! Step-level prefetcher replay: the entry point of the differential
//! verification subsystem.
//!
//! The full simulator ([`crate::system::System`]) exercises a prefetcher
//! through an out-of-order core, caches, MSHRs, and DRAM — which is exactly
//! the wrong vehicle for checking the *prediction logic* itself: every
//! end-to-end metric folds timing into the comparison, so a silent
//! model/implementation drift in the prefetcher hides behind plausible
//! aggregate numbers. This module strips all of that away. A
//! [`PrefetchTrace`] is a bare sequence of the two stimuli a
//! [`Prefetcher`] can observe — demand accesses and LLC evictions — and
//! [`PrefetchTrace::replay_with`] drives a prefetcher through it one event
//! at a time, handing every emitted candidate burst to the caller. A
//! reference model replayed over the same trace must emit the same bursts,
//! block for block, or one of the two is wrong.
//!
//! Traces serialize to a line-oriented text format so shrunk failing
//! inputs can be committed to a regression corpus (`tests/corpus/` at the
//! workspace root) and reviewed in a diff:
//!
//! ```text
//! # optional comment lines
//! region_bytes 2048
//! A 400 1f3      <- demand access: PC 0x400, block 0x1f3
//! E 1f3          <- LLC eviction of block 0x1f3
//! ```
//!
//! Values are hexadecimal without a `0x` prefix; `region_bytes` is decimal
//! and fixes the [`RegionGeometry`] every replayed prefetcher must be
//! configured with (spatial prefetchers derive region/offset from it).

use std::fmt;

use crate::addr::{BlockAddr, Pc, RegionGeometry};
use crate::prefetch::{AccessInfo, Prefetcher};

/// One stimulus of a step-level replay.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PrefetchEvent {
    /// A demand access observed at the LLC.
    Access {
        /// Program counter of the access.
        pc: u64,
        /// Cache-block index accessed.
        block: u64,
    },
    /// An LLC eviction (the end-of-residency training signal).
    Evict {
        /// Cache-block index evicted.
        block: u64,
    },
}

/// A replayable sequence of prefetcher stimuli plus the region geometry
/// they are interpreted under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrefetchTrace {
    region_bytes: u64,
    events: Vec<PrefetchEvent>,
}

/// One replayed step, as seen by the [`PrefetchTrace::replay_with`]
/// callback.
#[derive(Copy, Clone, Debug)]
pub enum ReplayStep<'a> {
    /// A demand access and the candidate burst the prefetcher emitted for
    /// it (empty when it predicted nothing).
    Access {
        /// The access as the prefetcher observed it.
        info: AccessInfo,
        /// Blocks the prefetcher asked to prefetch, in emission order.
        emitted: &'a [BlockAddr],
    },
    /// An eviction notification (prefetchers emit nothing on these).
    Evict {
        /// The evicted block.
        block: BlockAddr,
    },
}

/// Errors from parsing the textual trace format.
#[derive(Debug)]
pub enum ReplayParseError {
    /// The `region_bytes` header line is missing or malformed.
    BadHeader {
        /// 1-based line number.
        line: usize,
    },
    /// The declared region size is not a valid [`RegionGeometry`].
    BadGeometry {
        /// The declared size in bytes.
        region_bytes: u64,
    },
    /// An event line could not be parsed.
    BadEvent {
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for ReplayParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayParseError::BadHeader { line } => {
                write!(f, "line {line}: expected `region_bytes <decimal>` header")
            }
            ReplayParseError::BadGeometry { region_bytes } => {
                write!(
                    f,
                    "region_bytes {region_bytes} is not a power-of-two region of >= 64 bytes"
                )
            }
            ReplayParseError::BadEvent { line } => {
                write!(
                    f,
                    "line {line}: expected `A <pc-hex> <block-hex>` or `E <block-hex>`"
                )
            }
        }
    }
}

impl std::error::Error for ReplayParseError {}

impl PrefetchTrace {
    /// Creates an empty trace over `region_bytes`-sized regions.
    ///
    /// # Panics
    ///
    /// Panics if `region_bytes` is not a valid [`RegionGeometry`] size.
    pub fn new(region_bytes: u64) -> Self {
        let _ = RegionGeometry::new(region_bytes); // validate eagerly
        PrefetchTrace {
            region_bytes,
            events: Vec::new(),
        }
    }

    /// The region geometry every replayed prefetcher must use.
    pub fn geometry(&self) -> RegionGeometry {
        RegionGeometry::new(self.region_bytes)
    }

    /// Region size in bytes.
    pub fn region_bytes(&self) -> u64 {
        self.region_bytes
    }

    /// The event sequence.
    pub fn events(&self) -> &[PrefetchEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends a raw event.
    pub fn push(&mut self, event: PrefetchEvent) {
        self.events.push(event);
    }

    /// Appends a demand access.
    pub fn access(&mut self, pc: u64, block: u64) {
        self.events.push(PrefetchEvent::Access { pc, block });
    }

    /// Appends an eviction.
    pub fn evict(&mut self, block: u64) {
        self.events.push(PrefetchEvent::Evict { block });
    }

    /// Replaces the event sequence (used by trace shrinkers).
    pub fn with_events(&self, events: Vec<PrefetchEvent>) -> PrefetchTrace {
        PrefetchTrace {
            region_bytes: self.region_bytes,
            events,
        }
    }

    /// Drives `prefetcher` through the trace one event at a time, invoking
    /// `on_step` after every event with what the prefetcher emitted. The
    /// callback returns `false` to stop the replay early (e.g. on the
    /// first divergence from a reference model); `replay_with` returns
    /// whether the full trace was replayed.
    ///
    /// Each access is presented as [`AccessInfo::demand`] of its PC and
    /// block.
    pub fn replay_with(
        &self,
        prefetcher: &mut dyn Prefetcher,
        mut on_step: impl FnMut(usize, ReplayStep<'_>) -> bool,
    ) -> bool {
        let mut out = Vec::new();
        for (i, &event) in self.events.iter().enumerate() {
            match event {
                PrefetchEvent::Access { pc, block } => {
                    let info = AccessInfo::demand(Pc::new(pc), BlockAddr::new(block));
                    out.clear();
                    prefetcher.on_access(&info, &mut out);
                    if !on_step(
                        i,
                        ReplayStep::Access {
                            info,
                            emitted: &out,
                        },
                    ) {
                        return false;
                    }
                }
                PrefetchEvent::Evict { block } => {
                    let block = BlockAddr::new(block);
                    prefetcher.on_eviction(block);
                    if !on_step(i, ReplayStep::Evict { block }) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Replays the trace and collects the emitted burst of every event
    /// (empty vectors for evictions), index-aligned with
    /// [`PrefetchTrace::events`].
    pub fn replay(&self, prefetcher: &mut dyn Prefetcher) -> Vec<Vec<BlockAddr>> {
        let mut bursts = Vec::with_capacity(self.events.len());
        self.replay_with(prefetcher, |_, step| {
            bursts.push(match step {
                ReplayStep::Access { emitted, .. } => emitted.to_vec(),
                ReplayStep::Evict { .. } => Vec::new(),
            });
            true
        });
        bursts
    }

    /// Serializes the trace to the committable text format.
    pub fn to_text(&self) -> String {
        let mut s = String::with_capacity(32 + self.events.len() * 12);
        s.push_str(&format!("region_bytes {}\n", self.region_bytes));
        for event in &self.events {
            match *event {
                PrefetchEvent::Access { pc, block } => {
                    s.push_str(&format!("A {pc:x} {block:x}\n"));
                }
                PrefetchEvent::Evict { block } => {
                    s.push_str(&format!("E {block:x}\n"));
                }
            }
        }
        s
    }

    /// Parses the text format written by [`PrefetchTrace::to_text`].
    /// Blank lines and lines starting with `#` are ignored anywhere.
    ///
    /// # Errors
    ///
    /// A [`ReplayParseError`] naming the offending line.
    pub fn parse_text(text: &str) -> Result<Self, ReplayParseError> {
        let mut region_bytes: Option<u64> = None;
        let mut events = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let l = raw.trim();
            if l.is_empty() || l.starts_with('#') {
                continue;
            }
            let mut parts = l.split_whitespace();
            let head = parts.next().expect("non-empty line has a first token");
            if region_bytes.is_none() {
                if head != "region_bytes" {
                    return Err(ReplayParseError::BadHeader { line });
                }
                let value = parts
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or(ReplayParseError::BadHeader { line })?;
                if parts.next().is_some() {
                    return Err(ReplayParseError::BadHeader { line });
                }
                if !value.is_power_of_two() || value < crate::addr::BLOCK_BYTES {
                    return Err(ReplayParseError::BadGeometry {
                        region_bytes: value,
                    });
                }
                region_bytes = Some(value);
                continue;
            }
            let hex = |s: Option<&str>| s.and_then(|v| u64::from_str_radix(v, 16).ok());
            match head {
                "A" => {
                    let pc = hex(parts.next()).ok_or(ReplayParseError::BadEvent { line })?;
                    let block = hex(parts.next()).ok_or(ReplayParseError::BadEvent { line })?;
                    if parts.next().is_some() {
                        return Err(ReplayParseError::BadEvent { line });
                    }
                    events.push(PrefetchEvent::Access { pc, block });
                }
                "E" => {
                    let block = hex(parts.next()).ok_or(ReplayParseError::BadEvent { line })?;
                    if parts.next().is_some() {
                        return Err(ReplayParseError::BadEvent { line });
                    }
                    events.push(PrefetchEvent::Evict { block });
                }
                _ => return Err(ReplayParseError::BadEvent { line }),
            }
        }
        let region_bytes = region_bytes.ok_or(ReplayParseError::BadHeader { line: 1 })?;
        Ok(PrefetchTrace {
            region_bytes,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetch::NextLinePrefetcher;

    fn sample() -> PrefetchTrace {
        let mut t = PrefetchTrace::new(2048);
        t.access(0x400, 32 * 5 + 3);
        t.access(0x400, 32 * 5 + 7);
        t.evict(32 * 5 + 3);
        t.access(0x404, 32 * 9);
        t
    }

    #[test]
    fn text_round_trip() {
        let t = sample();
        let back = PrefetchTrace::parse_text(&t.to_text()).expect("parse");
        assert_eq!(t, back);
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = "# a comment\n\nregion_bytes 1024\n# more\nA 400 a3\n\nE a3\n";
        let t = PrefetchTrace::parse_text(text).expect("parse");
        assert_eq!(t.region_bytes(), 1024);
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.events()[0],
            PrefetchEvent::Access {
                pc: 0x400,
                block: 0xa3
            }
        );
        assert_eq!(t.events()[1], PrefetchEvent::Evict { block: 0xa3 });
    }

    #[test]
    fn missing_header_is_rejected() {
        let err = PrefetchTrace::parse_text("A 400 3\n").unwrap_err();
        assert!(
            matches!(err, ReplayParseError::BadHeader { line: 1 }),
            "{err}"
        );
    }

    #[test]
    fn bad_geometry_is_rejected() {
        let err = PrefetchTrace::parse_text("region_bytes 100\n").unwrap_err();
        assert!(
            matches!(err, ReplayParseError::BadGeometry { region_bytes: 100 }),
            "{err}"
        );
        let err = PrefetchTrace::parse_text("region_bytes 32\n").unwrap_err();
        assert!(matches!(err, ReplayParseError::BadGeometry { .. }), "{err}");
    }

    #[test]
    fn bad_event_is_rejected_with_line_number() {
        let err = PrefetchTrace::parse_text("region_bytes 2048\nA 400\n").unwrap_err();
        assert!(
            matches!(err, ReplayParseError::BadEvent { line: 2 }),
            "{err}"
        );
        let err = PrefetchTrace::parse_text("region_bytes 2048\nX 1 2\n").unwrap_err();
        assert!(
            matches!(err, ReplayParseError::BadEvent { line: 2 }),
            "{err}"
        );
        let err = PrefetchTrace::parse_text("region_bytes 2048\nA 400 zz\n").unwrap_err();
        assert!(
            matches!(err, ReplayParseError::BadEvent { line: 2 }),
            "{err}"
        );
    }

    #[test]
    fn replay_drives_prefetcher_step_by_step() {
        let t = sample();
        let mut p = NextLinePrefetcher::new(2);
        let bursts = t.replay(&mut p);
        assert_eq!(bursts.len(), t.len());
        // Every access emits two next-line candidates; the evict emits none.
        assert_eq!(
            bursts[0],
            vec![BlockAddr::new(32 * 5 + 4), BlockAddr::new(32 * 5 + 5)]
        );
        assert!(bursts[2].is_empty());
    }

    #[test]
    fn replay_with_can_stop_early() {
        let t = sample();
        let mut p = NextLinePrefetcher::new(1);
        let mut steps = 0;
        let completed = t.replay_with(&mut p, |i, _| {
            steps += 1;
            i < 1
        });
        assert!(!completed);
        assert_eq!(steps, 2, "stopped right after the second event");
    }

    #[test]
    fn replayed_accesses_are_demand_misses() {
        let mut t = PrefetchTrace::new(1024);
        t.access(0x400, 16 * 3 + 5);
        let mut p = NextLinePrefetcher::new(1);
        t.replay_with(&mut p, |_, step| {
            if let ReplayStep::Access { info, .. } = step {
                let expected = AccessInfo::demand(Pc::new(0x400), BlockAddr::new(16 * 3 + 5));
                assert_eq!(info, expected);
            }
            true
        });
    }
}
