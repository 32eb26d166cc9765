//! Table I — evaluation parameters — plus the Bingo storage accounting of
//! Section VI-A (16 K entries → 119 KB, ~6 % of the LLC).

use bingo::BingoConfig;
use bingo_bench::Table;
use bingo_sim::SystemConfig;

fn main() {
    let cfg = SystemConfig::paper();
    let bingo = BingoConfig::paper();
    let mut t = Table::new(vec!["Parameter", "Value"]);
    t.row(vec![
        "Chip".to_string(),
        format!("{} GHz, {} cores", cfg.freq_ghz, cfg.cores),
    ]);
    t.row(vec![
        "Cores".to_string(),
        format!(
            "{}-wide OoO, {}-entry ROB, {}-entry LSQ",
            cfg.core.width, cfg.core.rob_entries, cfg.core.lsq_entries
        ),
    ]);
    t.row(vec![
        "L1-D".to_string(),
        format!(
            "{} KB, {}-way, {}-entry MSHR, {}-cycle",
            cfg.l1d.size_bytes / 1024,
            cfg.l1d.ways,
            cfg.l1d.mshrs,
            cfg.l1d.latency
        ),
    ]);
    t.row(vec![
        "LLC".to_string(),
        format!(
            "{} MB, {}-way, {} banks, {}-cycle hit latency",
            cfg.llc.size_bytes / 1024 / 1024,
            cfg.llc.ways,
            cfg.llc.banks,
            cfg.llc.latency
        ),
    ]);
    t.row(vec![
        "Main Memory".to_string(),
        format!(
            "{:.0} ns zero-load latency, {:.1} GB/s peak bandwidth",
            cfg.dram_zero_load_ns(),
            cfg.dram.peak_bandwidth_gbps(cfg.freq_ghz)
        ),
    ]);
    t.row(vec![
        "Spatial region".to_string(),
        format!(
            "{} B ({} blocks)",
            bingo.region.region_bytes(),
            bingo.region.blocks_per_region()
        ),
    ]);
    println!("Table I. Evaluation parameters.\n\n{t}");

    // Storage is a pure function of the configuration — no need to build
    // the prefetcher to account for it.
    let kb = bingo.storage_bits() as f64 / 8.0 / 1024.0;
    let llc_pct = bingo.storage_bits() as f64 / 8.0 / cfg.llc.size_bytes as f64 * 100.0;
    println!(
        "Bingo storage (Section VI-A): {} history entries, {:.0} KB total ({:.1}% of LLC capacity; paper: 119 KB, 6%).",
        bingo.history_entries,
        kb,
        llc_pct
    );
}
