//! Deep diagnostic for one workload+prefetcher pair (development tool).

use bingo_bench::{
    telemetry_from_env, throttle_from_env, ParallelHarness, PrefetcherKind, RunScale, RunSpec,
};
use bingo_workloads::Workload;

fn main() {
    let scale = RunScale::from_args();
    let (telemetry, throttle) = (telemetry_from_env(), throttle_from_env());
    let workloads = [Workload::Em3d, Workload::DataServing];
    let kind = PrefetcherKind::Ampm;
    let specs = RunSpec::grid(scale, &workloads, &[kind], telemetry, throttle);
    let evals = ParallelHarness::from_env().evaluate(&specs);
    for (w, e) in workloads.iter().zip(evals) {
        let s = &e.result.llc;
        println!("=== {w} + {} ===", kind.name());
        println!(
            "base: misses={} mpki={:.1} ipc={:.2} cycles={}",
            e.baseline.llc.demand_misses,
            e.baseline.llc_mpki(),
            e.baseline.aggregate_ipc(),
            e.baseline.total_cycles
        );
        println!(
            "pf:   misses={} ipc={:.2} cycles={}",
            s.demand_misses,
            e.result.aggregate_ipc(),
            e.result.total_cycles
        );
        println!(
            "      requested={} issued={} dup={} mshr_drop={}",
            s.pf_requested, s.pf_issued, s.pf_dropped_duplicate, s.pf_dropped_mshr
        );
        println!(
            "      useful={} late={} useless={} acc={:.2}",
            s.pf_useful,
            s.pf_late,
            s.pf_useless,
            s.accuracy()
        );
        println!(
            "      cov={:.3} ov={:.3} speedup={:.3}",
            e.coverage.coverage, e.coverage.overprediction, e.speedup
        );
        println!(
            "      hits={} pending_hits={} mshr_stalls={} dram_transfers(base/pf)={}/{}",
            s.demand_hits,
            s.demand_hits_pending,
            s.demand_mshr_stalls,
            e.baseline.dram_transfers,
            e.result.dram_transfers
        );
        println!(
            "      core0: instr={} cycles={} ipc={:.3} disp_stall={} dep_stall={} (base ipc={:.3})",
            e.result.cores[0].instructions,
            e.result.cores[0].cycles,
            e.result.cores[0].ipc(),
            e.result.cores[0].dispatch_stall_cycles,
            e.result.cores[0].dependency_stall_cycles,
            e.baseline.cores[0].ipc()
        );
        if !e.result.prefetcher_debug[0].is_empty() {
            println!("      pf[0]: {}", e.result.prefetcher_debug[0]);
        }
        for (i, (a, b)) in e.result.cores.iter().zip(&e.baseline.cores).enumerate() {
            println!(
                "      core{i}: ipc {:.3} -> {:.3} ({:+.1}%)",
                b.ipc(),
                a.ipc(),
                (a.ipc() / b.ipc() - 1.0) * 100.0
            );
        }
    }
}
