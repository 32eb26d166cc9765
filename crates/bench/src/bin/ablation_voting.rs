//! Ablation — Bingo's multi-match footprint-voting threshold.
//!
//! Section IV: when only the short event matches, possibly in several ways,
//! Bingo prefetches blocks present in ≥20% of the matching footprints. This
//! ablation sweeps the threshold from aggressive-union (5%) to strict
//! intersection (100%), confirming the paper's choice of 20%.

use bingo::BingoConfig;
use bingo_bench::{pct, summary_table, PrefetcherKind};

const THRESHOLDS: [f64; 6] = [0.05, 0.2, 0.35, 0.5, 0.75, 1.0];

fn main() {
    let rows: Vec<(String, PrefetcherKind)> = THRESHOLDS
        .iter()
        .map(|&th| {
            let kind = PrefetcherKind::BingoWith(BingoConfig {
                vote_threshold: th,
                ..BingoConfig::paper()
            });
            (pct(th), kind)
        })
        .collect();
    let t = summary_table("Vote threshold", &rows);
    println!("Ablation: Bingo footprint-voting threshold (paper picks 20%).\n\n{t}");
}
