//! Ablation — spatial region size (1 KB / 2 KB / 4 KB).
//!
//! The region is the unit over which footprints are recorded and
//! prefetched; 2 KB is the reference ChampSim Bingo choice. Larger regions
//! amortize more blocks per trigger but dilute pattern stability. The
//! region geometry is part of [`BingoConfig`], so each size is one
//! [`PrefetcherKind::BingoWith`] on the paper machine.

use bingo::BingoConfig;
use bingo_bench::{summary_table, PrefetcherKind};
use bingo_sim::RegionGeometry;

const REGION_BYTES: [u64; 3] = [1024, 2048, 4096];

fn main() {
    let rows: Vec<(String, PrefetcherKind)> = REGION_BYTES
        .iter()
        .map(|&bytes| {
            let kind = PrefetcherKind::BingoWith(BingoConfig {
                region: RegionGeometry::new(bytes),
                ..BingoConfig::paper()
            });
            (format!("{} KB", bytes / 1024), kind)
        })
        .collect();
    let t = summary_table("Region", &rows);
    println!("Ablation: spatial region size for Bingo.\n\n{t}");
}
