//! Voting ablation: prints [`bingo_bench::figures::ablation_voting`].
fn main() {
    bingo_bench::figures::run("ablation_voting");
}
