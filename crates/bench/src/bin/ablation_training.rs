//! Training ablation: prints [`bingo_bench::figures::ablation_training`].
fn main() {
    bingo_bench::figures::run("ablation_training");
}
