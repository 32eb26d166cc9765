//! Figure 10 — iso-degree comparison: the SHH prefetchers with their
//! degree restrictions lifted (BOP and VLDP at degree 32, SPP at a 1%
//! confidence threshold) against their original configurations and Bingo.
//!
//! The paper's result: aggressiveness buys a little performance and a lot
//! of overprediction; Bingo still wins.

use bingo_bench::{summary_table, PrefetcherKind};

fn main() {
    let rows = [
        ("BOP-Orig", PrefetcherKind::Bop),
        ("BOP-Aggr", PrefetcherKind::BopAggressive),
        ("SPP-Orig", PrefetcherKind::Spp),
        ("SPP-Aggr", PrefetcherKind::SppAggressive),
        ("VLDP-Orig", PrefetcherKind::Vldp),
        ("VLDP-Aggr", PrefetcherKind::VldpAggressive),
        ("Bingo", PrefetcherKind::Bingo),
    ];
    let t = summary_table("Prefetcher", &rows);
    println!(
        "Figure 10. Iso-degree comparison (paper: lifting the degree raises\n\
         SHH coverage slightly and overprediction sharply; Bingo still wins).\n\n{t}"
    );
}
