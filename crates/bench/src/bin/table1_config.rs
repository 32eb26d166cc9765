//! Table I: prints [`bingo_bench::figures::table1_config`].
fn main() {
    bingo_bench::figures::run("table1_config");
}
