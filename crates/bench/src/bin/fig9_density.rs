//! Figure 9: prints [`bingo_bench::figures::fig9_density`].
fn main() {
    bingo_bench::figures::run("fig9_density");
}
