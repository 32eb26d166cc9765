//! System configuration mirroring Table I of the paper.
//!
//! The defaults reproduce the evaluated machine: a 4 GHz, 4-core chip with
//! 4-wide out-of-order cores (256-entry ROB, 64-entry LSQ), split 64 KB
//! L1 caches, an 8 MB 16-way shared last-level cache with 4 banks and a
//! 15-cycle hit latency, and two DRAM channels providing 60 ns zero-load
//! latency and 37.5 GB/s of peak bandwidth. Blocks are 64 bytes everywhere.

use crate::addr::BLOCK_BYTES;
use crate::cache::MAX_PREFETCH_OWNERS;
use crate::recency::MAX_WAYS;

/// Why [`SystemConfig::validate`] rejected a configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// More cores than the LLC's per-line prefetch-owner field can name.
    TooManyCores {
        /// The configured core count.
        cores: usize,
        /// The largest supported core count.
        max: usize,
    },
    /// Any other inconsistency, described in words.
    Invalid(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::TooManyCores { cores, max } => write!(
                f,
                "{cores} cores exceed the {max} the LLC's prefetch-owner field can name"
            ),
            ConfigError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<&str> for ConfigError {
    fn from(msg: &str) -> Self {
        ConfigError::Invalid(msg.into())
    }
}

impl From<String> for ConfigError {
    fn from(msg: String) -> Self {
        ConfigError::Invalid(msg)
    }
}

/// Parameters of one cache level.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Tag+data access latency in core cycles.
    pub latency: u64,
    /// Number of miss status holding registers (outstanding misses).
    pub mshrs: usize,
    /// Number of banks; each bank accepts one access per cycle.
    pub banks: usize,
}

impl CacheConfig {
    /// Number of sets implied by size, associativity, and block size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible into
    /// `ways * BLOCK_BYTES` sets, or a non-power-of-two set count).
    pub fn sets(&self) -> usize {
        let sets = self.size_bytes / (self.ways as u64 * BLOCK_BYTES);
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "cache of {} bytes / {} ways yields invalid set count {}",
            self.size_bytes,
            self.ways,
            sets
        );
        sets as usize
    }

    /// Capacity in cache blocks.
    pub fn blocks(&self) -> u64 {
        self.size_bytes / BLOCK_BYTES
    }
}

/// Parameters of the DRAM subsystem.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct DramConfig {
    /// Number of independent channels.
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Latency (cycles) of a row-buffer hit, excluding data transfer.
    pub row_hit_latency: u64,
    /// Latency (cycles) of a row-buffer miss (precharge + activate + CAS).
    pub row_miss_latency: u64,
    /// Channel occupancy (cycles) per 64-byte transfer; sets peak bandwidth.
    pub transfer_cycles: u64,
}

impl DramConfig {
    /// Peak bandwidth in GB/s at the given core frequency.
    pub fn peak_bandwidth_gbps(&self, freq_ghz: f64) -> f64 {
        let blocks_per_cycle = self.channels as f64 / self.transfer_cycles as f64;
        blocks_per_cycle * BLOCK_BYTES as f64 * freq_ghz
    }
}

/// Parameters of one out-of-order core (Table I "Cores" row).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CoreConfig {
    /// Dispatch/issue width in instructions per cycle.
    pub width: usize,
    /// Retire width in instructions per cycle.
    pub retire_width: usize,
    /// Reorder buffer capacity.
    pub rob_entries: usize,
    /// Load/store queue capacity (outstanding stores tracked against this).
    pub lsq_entries: usize,
}

/// Full system configuration (Table I).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Number of cores on the chip.
    pub cores: usize,
    /// Core clock frequency in GHz (used only for bandwidth/latency docs).
    pub freq_ghz: f64,
    /// Per-core parameters.
    pub core: CoreConfig,
    /// Private L1 data cache.
    pub l1d: CacheConfig,
    /// Shared last-level cache (the paper calls it "L2 Cache" in Table I).
    pub llc: CacheConfig,
    /// DRAM subsystem.
    pub dram: DramConfig,
    /// LLC MSHR slots reserved for demand requests; prefetches may only use
    /// the remainder so they can never starve demands.
    pub llc_mshrs_reserved_for_demand: usize,
    /// Bound on concurrently in-flight prefetch fills (the prefetch queue).
    /// `None` models an unbounded queue — the paper configuration — and is
    /// bit-for-bit identical to the pre-pressure-model simulator. `Some(n)`
    /// drops candidates beyond `n` outstanding prefetches with an explicit
    /// queue-full classification instead of issuing them; demand misses are
    /// never gated by this bound.
    pub prefetch_queue_depth: Option<usize>,
}

impl SystemConfig {
    /// The exact configuration of Table I in the paper.
    ///
    /// DRAM timing at 4 GHz: 60 ns zero-load latency = 240 cycles for a
    /// row-buffer miss; a row hit costs 180 cycles. Each 64 B transfer
    /// occupies its channel for ~13.6 cycles, which with two channels yields
    /// 37.5 GB/s of peak bandwidth.
    pub fn paper() -> Self {
        SystemConfig {
            cores: 4,
            freq_ghz: 4.0,
            core: CoreConfig {
                width: 4,
                retire_width: 4,
                rob_entries: 256,
                lsq_entries: 64,
            },
            l1d: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 8,
                latency: 4,
                mshrs: 8,
                banks: 1,
            },
            llc: CacheConfig {
                size_bytes: 8 * 1024 * 1024,
                ways: 16,
                latency: 15,
                // Table I fixes only the L1 MSHR count (8); the shared LLC
                // follows ChampSim's convention of scaling MSHRs with
                // capacity so that footprint-sized prefetch bursts (up to
                // 32 blocks x 4 cores) are not artificially serialized.
                mshrs: 256,
                banks: 4,
            },
            dram: DramConfig {
                channels: 2,
                banks_per_channel: 8,
                row_bytes: 4096,
                row_hit_latency: 160,
                row_miss_latency: 226,
                transfer_cycles: 14,
            },
            llc_mshrs_reserved_for_demand: 32,
            prefetch_queue_depth: None,
        }
    }

    /// A single-core variant of the paper configuration, convenient for
    /// unit tests and single-threaded microbenchmarks.
    pub fn paper_single_core() -> Self {
        Self::paper().with_cores(1)
    }

    /// The same configuration with a different core count. The shared
    /// resources (LLC capacity, MSHR pool, DRAM channels) deliberately do
    /// *not* scale with it — contention for them at higher counts is
    /// exactly what the multi-core capacity search measures.
    pub fn with_cores(self, cores: usize) -> Self {
        SystemConfig { cores, ..self }
    }

    /// A scaled-down configuration for fast tests: one core, 8 KB L1,
    /// 256 KB LLC. Miss behavior manifests after a few thousand accesses
    /// instead of millions.
    pub fn tiny() -> Self {
        SystemConfig {
            cores: 1,
            freq_ghz: 4.0,
            core: CoreConfig {
                width: 4,
                retire_width: 4,
                rob_entries: 64,
                lsq_entries: 16,
            },
            l1d: CacheConfig {
                size_bytes: 8 * 1024,
                ways: 4,
                latency: 4,
                mshrs: 8,
                banks: 1,
            },
            llc: CacheConfig {
                size_bytes: 256 * 1024,
                ways: 8,
                latency: 15,
                mshrs: 32,
                banks: 2,
            },
            dram: DramConfig {
                channels: 2,
                banks_per_channel: 8,
                row_bytes: 4096,
                row_hit_latency: 160,
                row_miss_latency: 226,
                transfer_cycles: 14,
            },
            llc_mshrs_reserved_for_demand: 8,
            prefetch_queue_depth: None,
        }
    }

    /// Zero-load DRAM latency in nanoseconds (row miss, empty queues).
    pub fn dram_zero_load_ns(&self) -> f64 {
        (self.dram.row_miss_latency + self.dram.transfer_cycles) as f64 / self.freq_ghz
    }

    /// Validates internal consistency; returns a description of the first
    /// problem found.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::TooManyCores`] past [`MAX_PREFETCH_OWNERS`]
    /// cores, and [`ConfigError::Invalid`] if any parameter is zero where
    /// that is meaningless, if a cache has more than [`MAX_WAYS`] ways, if
    /// cache geometry does not divide evenly, or if the demand MSHR
    /// reservation exceeds the LLC MSHR count.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err("system must have at least one core".into());
        }
        if self.cores > MAX_PREFETCH_OWNERS {
            return Err(ConfigError::TooManyCores {
                cores: self.cores,
                max: MAX_PREFETCH_OWNERS,
            });
        }
        if self.core.width == 0 || self.core.retire_width == 0 {
            return Err("core width must be nonzero".into());
        }
        if self.core.rob_entries == 0 {
            return Err("ROB must have at least one entry".into());
        }
        for (name, c) in [("l1d", &self.l1d), ("llc", &self.llc)] {
            if c.ways == 0 || c.banks == 0 || c.mshrs == 0 {
                return Err(format!("{name}: ways/banks/mshrs must be nonzero").into());
            }
            if c.ways > MAX_WAYS {
                return Err(format!(
                    "{name}: {} ways exceed the {MAX_WAYS} a set's recency word can order",
                    c.ways
                )
                .into());
            }
            let sets = c.size_bytes / (c.ways as u64 * BLOCK_BYTES);
            if sets == 0 || !sets.is_power_of_two() {
                return Err(format!("{name}: set count {sets} is not a power of two").into());
            }
        }
        if self.dram.channels == 0 || self.dram.banks_per_channel == 0 {
            return Err("dram: channels and banks must be nonzero".into());
        }
        if self.dram.transfer_cycles == 0 {
            return Err("dram: transfer occupancy must be nonzero".into());
        }
        if !self.dram.row_bytes.is_power_of_two() || self.dram.row_bytes < BLOCK_BYTES {
            return Err("dram: row size must be a power of two >= one block".into());
        }
        if self.llc_mshrs_reserved_for_demand >= self.llc.mshrs {
            return Err("llc demand MSHR reservation must leave room for prefetches".into());
        }
        if self.prefetch_queue_depth == Some(0) {
            return Err("prefetch queue depth of 0 disables prefetching entirely; \
                        use a no-op prefetcher instead"
                .into());
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_validates() {
        SystemConfig::paper()
            .validate()
            .expect("paper config valid");
        SystemConfig::tiny().validate().expect("tiny config valid");
        SystemConfig::paper_single_core()
            .validate()
            .expect("single-core config valid");
    }

    #[test]
    fn paper_llc_geometry_matches_table1() {
        let cfg = SystemConfig::paper();
        assert_eq!(cfg.llc.sets(), 8192); // 8 MB / (16 ways * 64 B)
        assert_eq!(cfg.l1d.sets(), 128); // 64 KB / (8 ways * 64 B)
        assert_eq!(cfg.llc.blocks(), 131_072);
    }

    #[test]
    fn paper_dram_bandwidth_close_to_37_5_gbps() {
        let cfg = SystemConfig::paper();
        let bw = cfg.dram.peak_bandwidth_gbps(cfg.freq_ghz);
        assert!(
            (bw - 37.5).abs() < 1.0,
            "peak bandwidth {bw:.2} GB/s should be ~37.5 GB/s"
        );
    }

    #[test]
    fn paper_dram_zero_load_latency_close_to_60ns() {
        let cfg = SystemConfig::paper();
        let ns = cfg.dram_zero_load_ns();
        assert!(
            (ns - 60.0).abs() < 2.0,
            "zero-load {ns:.1} ns should be ~60 ns"
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = SystemConfig::paper();
        cfg.cores = 0;
        assert!(cfg.validate().is_err());
        // The per-line prefetch owner is one byte wide.
        cfg.cores = MAX_PREFETCH_OWNERS;
        assert!(cfg.validate().is_ok());
        cfg.cores = MAX_PREFETCH_OWNERS + 1;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::TooManyCores {
                cores: 257,
                max: 256
            })
        );

        let mut cfg = SystemConfig::paper();
        cfg.l1d.ways = 0;
        assert!(cfg.validate().is_err());

        // A set's recency word orders at most 16 ways.
        let mut cfg = SystemConfig::paper();
        cfg.llc.ways = 32;
        cfg.llc.size_bytes = 16 * 1024 * 1024;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::Invalid(
                "llc: 32 ways exceed the 16 a set's recency word can order".into()
            ))
        );
        let mut cfg = SystemConfig::paper();
        cfg.l1d.ways = 17;
        cfg.l1d.size_bytes = 17 * 64 * 128;
        assert!(cfg
            .validate()
            .unwrap_err()
            .to_string()
            .starts_with("l1d: 17 ways"));
        cfg.l1d.ways = MAX_WAYS;
        cfg.l1d.size_bytes = 16 * 64 * 128;
        assert!(cfg.validate().is_ok());

        let mut cfg = SystemConfig::paper();
        cfg.l1d.size_bytes = 3 * 1024; // 3 KB / (8*64) = 6 sets, not a power of two
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::paper();
        cfg.llc_mshrs_reserved_for_demand = cfg.llc.mshrs;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::paper();
        cfg.dram.row_bytes = 100;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::paper();
        cfg.prefetch_queue_depth = Some(0);
        assert!(cfg.validate().is_err());
        cfg.prefetch_queue_depth = Some(16);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(SystemConfig::default(), SystemConfig::paper());
    }
}
