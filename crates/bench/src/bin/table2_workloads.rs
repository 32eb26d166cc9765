//! Table II: prints [`bingo_bench::figures::table2_workloads`].
fn main() {
    bingo_bench::figures::run("table2_workloads");
}
