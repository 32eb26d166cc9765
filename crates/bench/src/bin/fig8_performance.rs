//! Figure 8: prints [`bingo_bench::figures::fig8_performance`].
fn main() {
    bingo_bench::figures::run("fig8_performance");
}
