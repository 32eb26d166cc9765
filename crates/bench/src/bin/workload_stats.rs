//! Workload profile: prints [`bingo_bench::figures::workload_stats`].
fn main() {
    bingo_bench::figures::run("workload_stats");
}
