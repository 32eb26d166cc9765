//! Region ablation: prints [`bingo_bench::figures::ablation_region`].
fn main() {
    bingo_bench::figures::run("ablation_region");
}
