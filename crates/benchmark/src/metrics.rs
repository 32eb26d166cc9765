//! The metric catalogue: every number the benchmark reports, with its
//! unit, direction and regression bound. `BENCHMARK.json` lists the same
//! names; a test keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// `higher` or `lower`, as in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, unique across the catalogue.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` for
    /// per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Reported by untraced runs (`--trace 0`).
pub const END_TO_END: [Metric; 3] = [
    e2e("sim_minstr_per_ref_s", "Minstr/ref_s", Higher, 0.20),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
];

/// Reported by traced runs (`--trace 1`).
pub const PER_LAYER: [Metric; 38] = [
    layer("sim_minstr_per_s", "Minstr/s", Higher),
    layer("host.speed", "x", Higher),
    layer("source.calls", "count", Lower),
    layer("source.self_s", "s", Lower),
    layer("source.ns_per_call", "ns", Lower),
    layer("source.share", "%", Lower),
    layer("prefetcher.calls", "count", Lower),
    layer("prefetcher.self_s", "s", Lower),
    layer("prefetcher.ns_per_call", "ns", Lower),
    layer("prefetcher.share", "%", Lower),
    layer("prefetcher.candidates_per_access", "count", Lower),
    layer("prefetcher.bingo.calls", "count", Lower),
    layer("prefetcher.bingo.self_s", "s", Lower),
    layer("prefetcher.bingo.ns_per_call", "ns", Lower),
    layer("prefetcher.bingo.candidates_per_access", "count", Lower),
    layer("system.self_s", "s", Lower),
    layer("system.share", "%", Lower),
    layer("memory.replay_accesses", "count", Higher),
    layer("memory.replay_ns_per_access", "ns", Lower),
    layer("memory.replay_stall_share", "%", Lower),
    layer("setup.sources_s", "s", Lower),
    layer("setup.prefetchers_s", "s", Lower),
    layer("setup.system_s", "s", Lower),
    layer("trace.bytes_per_record", "B", Lower),
    layer("trace_overhead", "x", Lower),
    layer("model_speedup", "x", Higher),
    layer("model.core.ipc", "instr/cycle", Higher),
    layer("model.core.stall_cycles_per_kinstr", "cycles/kinstr", Lower),
    layer("model.l1d.mpki", "miss/kinstr", Lower),
    layer("model.l1d.mshr_stalls_per_kinstr", "stalls/kinstr", Lower),
    layer("model.llc.mpki", "miss/kinstr", Lower),
    layer("model.llc.pf_issued_per_kinstr", "pf/kinstr", Lower),
    layer("model.llc.pf_accuracy", "%", Higher),
    layer("model.llc.pf_late_share", "%", Lower),
    layer("model.llc.pf_dropped_share", "%", Lower),
    layer("model.dram.transfers_per_kinstr", "xfer/kinstr", Lower),
    layer("model.qos.degrades", "count", Lower),
    layer("model.qos.watchdog_clamps", "count", Lower),
];
