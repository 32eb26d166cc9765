//! Per-core QoS throttling: prints [`bingo_bench::figures::fig_qos`].
fn main() {
    bingo_bench::figures::run("fig_qos");
}
