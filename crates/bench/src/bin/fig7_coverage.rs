//! Figure 7: prints [`bingo_bench::figures::fig7_coverage`].
fn main() {
    bingo_bench::figures::run("fig7_coverage");
}
