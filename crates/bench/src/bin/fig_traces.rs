//! Trace replay: prints [`bingo_bench::figures::fig_traces`].
fn main() {
    bingo_bench::figures::run("fig_traces");
}
