//! Multi-core contention: prints [`bingo_bench::figures::fig_multicore`].
fn main() {
    bingo_bench::figures::run("fig_multicore");
}
