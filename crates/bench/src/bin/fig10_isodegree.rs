//! Figure 10: prints [`bingo_bench::figures::fig10_isodegree`].
fn main() {
    bingo_bench::figures::run("fig10_isodegree");
}
