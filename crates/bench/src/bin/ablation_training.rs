//! Ablation — Bingo's end-of-residency training signal.
//!
//! The paper (following SMS) ends a region's residency — and trains the
//! history table — "whenever a block from the page is invalidated or
//! evicted from the cache". The alternative is to train only when the
//! accumulation table overflows (no cache feedback at all). This ablation
//! quantifies how much the eviction signal matters.

use bingo::BingoConfig;
use bingo_bench::{summary_table, PrefetcherKind};

fn main() {
    let overflow_only = BingoConfig {
        train_on_eviction: false,
        ..BingoConfig::paper()
    };
    let rows = [
        (
            "eviction + overflow (paper)",
            PrefetcherKind::BingoWith(BingoConfig::paper()),
        ),
        ("overflow only", PrefetcherKind::BingoWith(overflow_only)),
    ];
    let t = summary_table("Training signal", &rows);
    println!("Ablation: Bingo end-of-residency training signal.\n\n{t}");
}
