//! Figure 6: prints [`bingo_bench::figures::fig6_table_size`].
fn main() {
    bingo_bench::figures::run("fig6_table_size");
}
