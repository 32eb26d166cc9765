//! Figure 4: prints [`bingo_bench::figures::fig4_redundancy`].
fn main() {
    bingo_bench::figures::run("fig4_redundancy");
}
