//! Figure 3: prints [`bingo_bench::figures::fig3_num_events`].
fn main() {
    bingo_bench::figures::run("fig3_num_events");
}
