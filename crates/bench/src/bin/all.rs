//! Runs every figure of [`bingo_bench::figures::ALL`] in order, in this
//! process and over one [`Session`], printing each under a header and then
//! per-figure wall-clock timings. Pass `--quick` to run at CI scale.
//!
//! The session's one harness memoizes every cell, so a cell two figures
//! share is simulated once; it parallelizes across cells — see
//! `BINGO_JOBS` in EXPERIMENTS.md. With `BINGO_CHECKPOINT` naming a fresh
//! file, that file records every figure's cells, each once.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use bingo_bench::figures::{Session, ALL};

fn main() {
    let mut session = Session::from_env();
    let total = Instant::now();
    let mut timings = Vec::new();
    for (name, figure) in ALL {
        println!("\n================ {name} ================\n");
        let start = Instant::now();
        // One failing figure must not cost the rest: its panic message is
        // already on stderr, so record the failure and keep sweeping.
        let ok = catch_unwind(AssertUnwindSafe(|| figure(&mut session))).is_ok();
        let secs = start.elapsed().as_secs_f64();
        let verdict = if ok { "finished in" } else { "FAILED after" };
        eprintln!("[all] {name} {verdict} {secs:.1}s");
        timings.push((name, secs, ok));
    }
    let total_secs = total.elapsed().as_secs_f64();
    println!("\n================ timing summary ================\n");
    for (name, secs, ok) in &timings {
        let mark = if *ok { "" } else { "  FAILED" };
        println!("{name:<18} {secs:>8.1}s{mark}");
    }
    println!("{:<18} {:>8.1}s", "total", total_secs);
    let failures: Vec<&str> = timings
        .iter()
        .filter(|(_, _, ok)| !ok)
        .map(|(name, ..)| *name)
        .collect();
    if !failures.is_empty() {
        eprintln!(
            "\nFAILURE REPORT: {} of {} figures failed: {}",
            failures.len(),
            ALL.len(),
            failures.join(", ")
        );
        std::process::exit(1);
    }
}
