//! Figure 2: prints [`bingo_bench::figures::fig2_events`].
fn main() {
    bingo_bench::figures::run("fig2_events");
}
