//! Extending the framework: implement your own prefetcher against the
//! `bingo_sim::Prefetcher` trait and race it against Bingo.
//!
//! The example builds a "region rounding" prefetcher — on every demand
//! miss it fetches the rest of the aligned 2 KB region (footprint = all
//! ones). It is a useful foil: maximal coverage on dense scans, terrible
//! accuracy on sparse ones, which is exactly the gap footprint *learning*
//! closes.
//!
//! ```sh
//! cargo run --release --example custom_prefetcher
//! ```

use bingo_repro::prefetcher::{Bingo, BingoConfig};
use bingo_repro::sim::{
    AccessInfo, BlockAddr, CoverageReport, NoPrefetcher, Prefetcher, RegionGeometry, SimResult,
    System, SystemConfig,
};
use bingo_repro::workloads::Workload;

/// Prefetches every remaining block of the accessed region on a miss.
/// Like every spatial prefetcher, it maps the block to its region and
/// offset with its own geometry.
#[derive(Debug, Default)]
struct RegionRounder {
    geometry: RegionGeometry,
}

impl Prefetcher for RegionRounder {
    fn name(&self) -> &str {
        "RegionRounder"
    }

    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<BlockAddr>) {
        if info.hit {
            return;
        }
        let region = self.geometry.region_of(info.block);
        let trigger = self.geometry.offset_of(info.block);
        for offset in 0..self.geometry.blocks_per_region() as u32 {
            if offset != trigger {
                out.push(self.geometry.block_at(region, offset));
            }
        }
    }

    fn storage_bits(&self) -> u64 {
        0 // stateless!
    }
}

fn run(workload: Workload, make: &dyn Fn() -> Box<dyn Prefetcher>) -> SimResult {
    let cfg = SystemConfig::paper();
    System::with_prefetchers(cfg, workload.sources(cfg.cores, 42), |_| make(), 300_000)
        .with_warmup(400_000)
        .run()
}

fn main() {
    for workload in [Workload::Em3d, Workload::DataServing] {
        println!("=== {workload} ===");
        let baseline = run(workload, &|| Box::new(NoPrefetcher));
        for (name, make) in [
            (
                "RegionRounder",
                Box::new(|| Box::new(RegionRounder::default()) as Box<dyn Prefetcher>)
                    as Box<dyn Fn() -> Box<dyn Prefetcher>>,
            ),
            (
                "Bingo",
                Box::new(|| Box::new(Bingo::new(BingoConfig::paper())) as Box<dyn Prefetcher>),
            ),
        ] {
            let r = run(workload, make.as_ref());
            let c = CoverageReport::from_runs(&r, &baseline);
            println!(
                "{name:>14}: coverage {:5.1}%  overprediction {:6.1}%  accuracy {:5.1}%  speedup {:+.1}%",
                c.coverage * 100.0,
                c.overprediction * 100.0,
                c.accuracy * 100.0,
                (r.speedup_over(&baseline) - 1.0) * 100.0
            );
        }
        println!();
    }
    println!("Dense scans (em3d) reward blind region rounding; sparse server");
    println!("footprints (Data Serving) punish it — learning the footprint");
    println!("keeps the coverage and drops the waste.");
}
