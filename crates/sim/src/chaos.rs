//! Seeded mid-run perturbations: the [`ChaosInjector`].
//!
//! The [`FaultInjector`](crate::fault::FaultInjector) corrupts Bingo's
//! *metadata* while it runs (footprint bits, history entries, emitted
//! bursts); the chaos layer perturbs the *machine* around a live
//! simulation, to harden the per-core QoS throttle against the transients
//! it will face on a shared chip:
//!
//! - **DRAM bandwidth collapse** — the per-transfer channel occupancy is
//!   multiplied up for a window, as if a co-runner (or thermal event)
//!   stole most of the bus, then restored.
//! - **Prefetch-queue squeeze** — the bounded prefetch queue shrinks to a
//!   few slots for a window, shedding prefetch admission without ever
//!   gating demand misses.
//! - **Core stall bubble** — one core is frozen for a window (pipeline
//!   flush, interrupt storm), testing that the watchdog does not confuse a
//!   stalled core with a starved one and that recovery is clean.
//! - **Workload phase flip** — realized in the instruction domain by
//!   [`PhaseFlipSource`], which alternates two instruction sources on a
//!   fixed cadence (e.g. a polite STRESS generator and a storm).
//!
//! Everything is deterministic in the plan's seed: the same
//! (plan, workload, machine) triple replays bit-for-bit, which is what
//! lets the chaos property tests assert exact bounds. Chaos runs disable
//! the fast-forward (see [`System::with_chaos`]), stepping every core
//! every cycle, so a perturbation window can never be leapt over.
//!
//! [`System::with_chaos`]: crate::System::with_chaos

use crate::core_model::{Instr, InstrSource};
use crate::memory::MemorySystem;

/// One family of live perturbation. See the module docs for the taxonomy;
/// phase flips live in [`PhaseFlipSource`] (instruction domain), not here.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ChaosKind {
    /// Multiply the DRAM per-transfer occupancy for the window.
    DramCollapse,
    /// Clamp the prefetch queue to a few slots for the window.
    QueueSqueeze,
    /// Freeze one core for the window.
    StallBubble,
}

impl ChaosKind {
    /// Every injector-driven kind, in a fixed order.
    pub const ALL: [ChaosKind; 3] = [
        ChaosKind::DramCollapse,
        ChaosKind::QueueSqueeze,
        ChaosKind::StallBubble,
    ];

    /// Stable label for reports and logs.
    pub fn label(self) -> &'static str {
        match self {
            ChaosKind::DramCollapse => "dram-collapse",
            ChaosKind::QueueSqueeze => "queue-squeeze",
            ChaosKind::StallBubble => "stall-bubble",
        }
    }
}

/// A deterministic schedule of perturbations.
///
/// Onset `k` (0-based) fires at cycle `(k + 1) * period` and lasts
/// `window` cycles; which kind fires, and its magnitude/victim, come from
/// a seeded PRNG, so one u64 names the whole scenario.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// PRNG seed; scrambled before use so small seeds diverge.
    pub seed: u64,
    /// Cycles between onsets.
    pub period: u64,
    /// Cycles each perturbation lasts; must be shorter than `period` so
    /// the machine always gets a calm stretch to recover in.
    pub window: u64,
    /// The kinds this plan rotates through (drawn uniformly).
    pub kinds: Vec<ChaosKind>,
}

impl ChaosPlan {
    /// A plan covering every kind with a cadence suited to the scaled-down
    /// test machines: perturb every 20k cycles for 4k cycles.
    pub fn standard(seed: u64) -> Self {
        ChaosPlan {
            seed,
            period: 20_000,
            window: 4_000,
            kinds: ChaosKind::ALL.to_vec(),
        }
    }

    fn validate(&self) {
        assert!(self.period > 0, "chaos period must be nonzero");
        assert!(self.window > 0, "chaos window must be nonzero");
        assert!(
            self.window < self.period,
            "chaos window ({}) must be shorter than the period ({}) \
             so perturbations always end before the next begins",
            self.window,
            self.period
        );
        assert!(!self.kinds.is_empty(), "chaos plan needs at least one kind");
    }
}

/// One perturbation the injector applied, for logs and reports.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AppliedPerturbation {
    /// What was perturbed.
    pub kind: ChaosKind,
    /// Onset cycle.
    pub at: u64,
    /// First cycle after the perturbation (restore point).
    pub until: u64,
    /// The stalled core for [`ChaosKind::StallBubble`]; the collapse
    /// multiplier for [`ChaosKind::DramCollapse`]; the squeezed depth for
    /// [`ChaosKind::QueueSqueeze`].
    pub magnitude: u64,
}

#[derive(Copy, Clone, Debug)]
struct ActiveWindow {
    kind: ChaosKind,
    until: u64,
    /// Victim core (stall bubble only).
    core: usize,
    saved_transfer: u64,
    saved_depth: Option<usize>,
}

/// Applies a [`ChaosPlan`] to a live run. Owned by the
/// [`System`](crate::System); the run loop calls [`ChaosInjector::on_cycle`]
/// once per cycle.
#[derive(Debug)]
pub struct ChaosInjector {
    plan: ChaosPlan,
    rng: u64,
    next_onset: u64,
    active: Option<ActiveWindow>,
    log: Vec<AppliedPerturbation>,
}

impl ChaosInjector {
    /// Builds an injector for `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the plan is degenerate (zero period/window, window not
    /// shorter than the period, or no kinds).
    pub fn new(plan: ChaosPlan) -> Self {
        plan.validate();
        // SplitMix64 scramble, as in `FaultInjector`: adjacent seeds must
        // not produce correlated streams.
        let mut z = plan.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let rng = (z ^ (z >> 31)) | 1;
        ChaosInjector {
            next_onset: plan.period,
            plan,
            rng,
            active: None,
            log: Vec::new(),
        }
    }

    /// xorshift64* step.
    fn draw(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Every perturbation applied so far, in onset order.
    pub fn log(&self) -> &[AppliedPerturbation] {
        &self.log
    }

    /// Whether a perturbation window is open at `now`.
    pub fn active(&self) -> bool {
        self.active.is_some()
    }

    /// Advances the injector to cycle `now`: restores an expired window,
    /// fires a due onset, and returns the core to freeze this cycle (if a
    /// stall bubble is open). Must be called every cycle in ascending
    /// order — the chaos run loop never fast-forwards.
    pub fn on_cycle(&mut self, now: u64, mem: &mut MemorySystem, cores: usize) -> Option<usize> {
        if let Some(active) = self.active {
            if now < active.until {
                return (active.kind == ChaosKind::StallBubble).then_some(active.core);
            }
            match active.kind {
                ChaosKind::DramCollapse => mem.set_dram_transfer_cycles(active.saved_transfer),
                ChaosKind::QueueSqueeze => mem.set_prefetch_queue_depth(active.saved_depth),
                ChaosKind::StallBubble => {}
            }
            self.active = None;
        }
        if now < self.next_onset {
            return None;
        }
        let at = self.next_onset;
        self.next_onset += self.plan.period;
        let kind_idx = (self.draw() % self.plan.kinds.len() as u64) as usize;
        let kind = self.plan.kinds[kind_idx];
        let until = at + self.plan.window;
        let mut window = ActiveWindow {
            kind,
            until,
            core: 0,
            saved_transfer: mem.dram_transfer_cycles(),
            saved_depth: mem.prefetch_queue_depth(),
        };
        let magnitude = match kind {
            ChaosKind::DramCollapse => {
                let mult = 2 + self.draw() % 7; // 2x..8x slower transfers
                mem.set_dram_transfer_cycles(window.saved_transfer * mult);
                mult
            }
            ChaosKind::QueueSqueeze => {
                let depth = 1 + (self.draw() % 4) as usize; // 1..4 slots
                mem.set_prefetch_queue_depth(Some(depth));
                depth as u64
            }
            ChaosKind::StallBubble => {
                window.core = (self.draw() % cores as u64) as usize;
                window.core as u64
            }
        };
        self.log.push(AppliedPerturbation {
            kind,
            at,
            until,
            magnitude,
        });
        self.active = Some(window);
        (kind == ChaosKind::StallBubble).then_some(window.core)
    }
}

/// Instruction-domain chaos: alternates two sources every `flip_every`
/// instructions, modeling a workload phase change mid-run (e.g. a polite
/// phase flipping into a storm). Deterministic by construction — no PRNG.
///
/// The wrapper deliberately leaves `take_ops`/`peek_ops` at their no-crank
/// defaults: chaos runs step every cycle anyway, and without chaos the op
/// crank is a pure optimization whose absence cannot change results.
pub struct PhaseFlipSource {
    a: Box<dyn InstrSource>,
    b: Box<dyn InstrSource>,
    flip_every: u64,
    emitted: u64,
    on_b: bool,
}

impl std::fmt::Debug for PhaseFlipSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhaseFlipSource")
            .field("flip_every", &self.flip_every)
            .field("emitted", &self.emitted)
            .field("on_b", &self.on_b)
            .finish()
    }
}

impl PhaseFlipSource {
    /// Starts in phase `a`, flipping after every `flip_every` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `flip_every` is zero.
    pub fn new(a: Box<dyn InstrSource>, b: Box<dyn InstrSource>, flip_every: u64) -> Self {
        assert!(flip_every > 0, "phase length must be nonzero");
        PhaseFlipSource {
            a,
            b,
            flip_every,
            emitted: 0,
            on_b: false,
        }
    }
}

impl InstrSource for PhaseFlipSource {
    fn next_instr(&mut self) -> Instr {
        if self.emitted == self.flip_every {
            self.emitted = 0;
            self.on_b = !self.on_b;
        }
        self.emitted += 1;
        if self.on_b {
            self.b.next_instr()
        } else {
            self.a.next_instr()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Addr, Pc};
    use crate::config::SystemConfig;
    use crate::prefetch::NoPrefetcher;

    fn mem() -> MemorySystem {
        MemorySystem::new(SystemConfig::tiny(), vec![Box::new(NoPrefetcher)])
    }

    fn plan(seed: u64, kinds: Vec<ChaosKind>) -> ChaosPlan {
        ChaosPlan {
            seed,
            period: 1_000,
            window: 100,
            kinds,
        }
    }

    #[test]
    #[should_panic(expected = "shorter than the period")]
    fn window_must_be_shorter_than_period() {
        let _ = ChaosInjector::new(ChaosPlan {
            seed: 1,
            period: 100,
            window: 100,
            kinds: ChaosKind::ALL.to_vec(),
        });
    }

    #[test]
    #[should_panic(expected = "at least one kind")]
    fn plan_needs_kinds() {
        let _ = ChaosInjector::new(plan(1, vec![]));
    }

    #[test]
    fn same_seed_replays_the_same_perturbation_log() {
        let run = || {
            let mut inj = ChaosInjector::new(plan(7, ChaosKind::ALL.to_vec()));
            let mut m = mem();
            for now in 0..10_000 {
                inj.on_cycle(now, &mut m, 4);
            }
            inj.log().to_vec()
        };
        let a = run();
        assert_eq!(a, run(), "seeded chaos must replay bit-for-bit");
        // Onsets at 1_000, 2_000, ..., 9_000: cycle 10_000 is never
        // reached by the exclusive loop.
        assert_eq!(a.len(), 9, "one onset per period");
        // A different seed produces a different draw sequence somewhere.
        let mut inj = ChaosInjector::new(plan(8, ChaosKind::ALL.to_vec()));
        let mut m = mem();
        for now in 0..10_000 {
            inj.on_cycle(now, &mut m, 4);
        }
        assert_ne!(a, inj.log(), "different seeds must diverge");
    }

    #[test]
    fn dram_collapse_restores_the_saved_occupancy() {
        let mut inj = ChaosInjector::new(plan(3, vec![ChaosKind::DramCollapse]));
        let mut m = mem();
        let base = m.dram_transfer_cycles();
        for now in 0..=1_000 {
            inj.on_cycle(now, &mut m, 1);
        }
        let collapsed = m.dram_transfer_cycles();
        assert!(
            collapsed >= 2 * base,
            "window open: occupancy {collapsed} should be >= 2x {base}"
        );
        for now in 1_001..=1_100 {
            inj.on_cycle(now, &mut m, 1);
        }
        assert_eq!(m.dram_transfer_cycles(), base, "restored after the window");
    }

    #[test]
    fn queue_squeeze_restores_the_saved_depth() {
        let mut inj = ChaosInjector::new(plan(3, vec![ChaosKind::QueueSqueeze]));
        let mut m = mem();
        assert_eq!(m.prefetch_queue_depth(), None);
        for now in 0..=1_000 {
            inj.on_cycle(now, &mut m, 1);
        }
        let squeezed = m.prefetch_queue_depth().expect("window clamps the queue");
        assert!((1..=4).contains(&squeezed));
        for now in 1_001..=1_100 {
            inj.on_cycle(now, &mut m, 1);
        }
        assert_eq!(m.prefetch_queue_depth(), None, "unbounded again");
    }

    #[test]
    fn stall_bubble_names_one_core_for_the_whole_window() {
        let mut inj = ChaosInjector::new(plan(11, vec![ChaosKind::StallBubble]));
        let mut m = mem();
        let mut stalled = Vec::new();
        for now in 0..1_200 {
            if let Some(core) = inj.on_cycle(now, &mut m, 4) {
                stalled.push((now, core));
            }
        }
        assert_eq!(stalled.len(), 100, "exactly the window length");
        let core = stalled[0].1;
        assert!(core < 4);
        assert!(stalled.iter().all(|&(_, c)| c == core), "one victim");
        assert_eq!(stalled.first().unwrap().0, 1_000);
        assert_eq!(stalled.last().unwrap().0, 1_099);
    }

    #[test]
    fn phase_flip_source_alternates_on_the_cadence() {
        let a = Box::new(|| Instr::Op);
        let b = Box::new(|| Instr::Load {
            pc: Pc::new(0x400),
            addr: Addr::new(0),
            dep: None,
        });
        let mut src = PhaseFlipSource::new(a, b, 3);
        let kinds: Vec<bool> = (0..12)
            .map(|_| matches!(src.next_instr(), Instr::Op))
            .collect();
        assert_eq!(
            kinds,
            vec![true, true, true, false, false, false, true, true, true, false, false, false],
            "three of each phase, alternating"
        );
    }

    #[test]
    #[should_panic(expected = "phase length must be nonzero")]
    fn phase_flip_rejects_zero_length() {
        let _ = PhaseFlipSource::new(Box::new(|| Instr::Op), Box::new(|| Instr::Op), 0);
    }
}
