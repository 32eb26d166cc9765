//! Prefetch timeliness: prints [`bingo_bench::figures::fig_timeliness`].
fn main() {
    bingo_bench::figures::run("fig_timeliness");
}
