//! DRAM timing model: channels, banks, row buffers, and bandwidth as
//! channel occupancy.
//!
//! Each channel services one 64-byte transfer at a time; a request arriving
//! while the channel is busy queues behind it (`free_at` bookkeeping), which
//! is how bandwidth saturation and the "bandwidth wall" of the iso-degree
//! study (Fig. 10) emerge. Each bank remembers its open row: a request to
//! the open row pays the row-hit latency, anything else pays the full
//! precharge+activate+CAS latency. Consecutive blocks map to the same row,
//! so spatial prefetch bursts enjoy row-buffer hits — the effect BuMP-style
//! work highlights and the paper leans on in Section II.

use crate::addr::BlockAddr;
use crate::config::DramConfig;

#[derive(Debug)]
struct Bank {
    open_row: Option<u64>,
}

#[derive(Debug)]
struct Channel {
    free_at: u64,
    banks: Vec<Bank>,
}

/// Statistics for the DRAM subsystem.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read (fill) transfers serviced.
    pub reads: u64,
    /// Reads issued on behalf of prefetches (a subset of
    /// [`reads`](DramStats::reads)) — the prefetcher's bandwidth share,
    /// which feeds the feedback throttle.
    pub prefetch_reads: u64,
    /// Writeback transfers serviced.
    pub writes: u64,
    /// Reads that hit an open row.
    pub row_hits: u64,
    /// Reads that needed an activate.
    pub row_misses: u64,
    /// Total cycles read requests spent queued behind busy channels.
    pub queue_wait_cycles: u64,
    /// Cycles *demand* reads spent queued behind busy channels (a subset of
    /// [`queue_wait_cycles`](DramStats::queue_wait_cycles)) — the direct
    /// measure of how much prefetch traffic delays demand fills.
    pub demand_wait_cycles: u64,
}

impl DramStats {
    /// Total transfers (reads + writes).
    pub fn transfers(&self) -> u64 {
        self.reads + self.writes
    }
}

/// The DRAM subsystem.
#[derive(Debug)]
pub struct Dram {
    cfg: DramConfig,
    channels: Vec<Channel>,
    row_shift: u32,
    /// `(channel mask, channel shift, bank mask)` when both the channel
    /// and bank counts are powers of two, reducing the per-read address
    /// map to shifts and masks instead of two integer divisions.
    pow2_map: Option<(u64, u32, u64)>,
    /// Queue wait (cycles) of the most recent read — the per-core throttle
    /// reads this right after a fill to attribute queueing to the issuer.
    last_read_wait: u64,
    /// Statistics; reset with [`Dram::reset_stats`].
    pub stats: DramStats,
}

impl Dram {
    /// Creates the subsystem from its configuration.
    pub fn new(cfg: DramConfig) -> Self {
        let channels = (0..cfg.channels)
            .map(|_| Channel {
                free_at: 0,
                banks: (0..cfg.banks_per_channel)
                    .map(|_| Bank { open_row: None })
                    .collect(),
            })
            .collect();
        // Blocks within one row are contiguous: row id = block >> log2(blocks/row).
        let row_blocks = cfg.row_bytes / crate::addr::BLOCK_BYTES;
        let pow2_map = (cfg.channels.is_power_of_two() && cfg.banks_per_channel.is_power_of_two())
            .then(|| {
                (
                    cfg.channels as u64 - 1,
                    cfg.channels.trailing_zeros(),
                    cfg.banks_per_channel as u64 - 1,
                )
            });
        Dram {
            cfg,
            channels,
            row_shift: row_blocks.trailing_zeros(),
            pow2_map,
            last_read_wait: 0,
            stats: DramStats::default(),
        }
    }

    /// The configuration this subsystem was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Queue wait (cycles) incurred by the most recent read. Zero until the
    /// first read.
    pub fn last_read_wait(&self) -> u64 {
        self.last_read_wait
    }

    /// Current per-transfer channel occupancy.
    pub fn transfer_cycles(&self) -> u64 {
        self.cfg.transfer_cycles
    }

    /// Overrides the per-transfer channel occupancy mid-run. Chaos hook:
    /// a transient bandwidth collapse multiplies this up for a window and
    /// restores it afterwards. Open rows and channel `free_at` bookkeeping
    /// are untouched, so the change takes effect on the next transfer.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero (infinite bandwidth is not modeled).
    pub fn set_transfer_cycles(&mut self, cycles: u64) {
        assert!(cycles > 0, "transfer_cycles must be nonzero");
        self.cfg.transfer_cycles = cycles;
    }

    fn map(&self, block: BlockAddr) -> (usize, usize, u64) {
        let row = block.index() >> self.row_shift;
        match self.pow2_map {
            Some((ch_mask, ch_shift, bank_mask)) => {
                let channel = (row & ch_mask) as usize;
                let bank = ((row >> ch_shift) & bank_mask) as usize;
                (channel, bank, row)
            }
            None => {
                let channel = (row % self.cfg.channels as u64) as usize;
                let bank =
                    ((row / self.cfg.channels as u64) % self.cfg.banks_per_channel as u64) as usize;
                (channel, bank, row)
            }
        }
    }

    /// Issues a demand read for `block` at cycle `now`; returns the cycle
    /// the data arrives at the requesting cache.
    pub fn read(&mut self, block: BlockAddr, now: u64) -> u64 {
        self.read_tagged(block, now, false)
    }

    /// Issues a read tagged as demand or prefetch. Timing is identical for
    /// both — the tag only routes the bandwidth/wait accounting, so the
    /// feedback throttle can observe the prefetcher's channel share and the
    /// queueing it inflicts on demand fills.
    pub fn read_tagged(&mut self, block: BlockAddr, now: u64, prefetch: bool) -> u64 {
        let (ch_idx, bank_idx, row) = self.map(block);
        let ch = &mut self.channels[ch_idx];
        let start = now.max(ch.free_at);
        self.stats.queue_wait_cycles += start - now;
        self.last_read_wait = start - now;
        if prefetch {
            self.stats.prefetch_reads += 1;
        } else {
            self.stats.demand_wait_cycles += start - now;
        }
        let bank = &mut ch.banks[bank_idx];
        let row_hit = bank.open_row == Some(row);
        bank.open_row = Some(row);
        let access_latency = if row_hit {
            self.stats.row_hits += 1;
            self.cfg.row_hit_latency
        } else {
            self.stats.row_misses += 1;
            self.cfg.row_miss_latency
        };
        ch.free_at = start + self.cfg.transfer_cycles;
        self.stats.reads += 1;
        start + access_latency + self.cfg.transfer_cycles
    }

    /// Issues a writeback for `block` at cycle `now`. Writebacks consume
    /// channel bandwidth but nothing waits on them.
    pub fn write(&mut self, block: BlockAddr, now: u64) {
        let (ch_idx, bank_idx, row) = self.map(block);
        let ch = &mut self.channels[ch_idx];
        let start = now.max(ch.free_at);
        ch.free_at = start + self.cfg.transfer_cycles;
        ch.banks[bank_idx].open_row = Some(row);
        self.stats.writes += 1;
    }

    /// Clears statistics, keeping row-buffer and queue state.
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig {
            channels: 2,
            banks_per_channel: 8,
            row_bytes: 4096,
            row_hit_latency: 160,
            row_miss_latency: 226,
            transfer_cycles: 14,
        }
    }

    #[test]
    fn zero_load_read_pays_row_miss() {
        let mut d = Dram::new(cfg());
        let t = d.read(BlockAddr::new(0), 1000);
        assert_eq!(t, 1000 + 226 + 14);
        assert_eq!(d.stats.row_misses, 1);
    }

    #[test]
    fn same_row_second_read_is_a_row_hit() {
        let mut d = Dram::new(cfg());
        let _ = d.read(BlockAddr::new(0), 0);
        // Block 1 is in the same 4 KB row (64 blocks/row).
        let t = d.read(BlockAddr::new(1), 1000);
        assert_eq!(t, 1000 + 160 + 14);
        assert_eq!(d.stats.row_hits, 1);
    }

    #[test]
    fn different_row_same_bank_closes_row() {
        let mut d = Dram::new(cfg());
        let _ = d.read(BlockAddr::new(0), 0);
        // Row 16 maps to channel 0, bank 8/... compute: row 16 -> ch 0, bank 0.
        let far = BlockAddr::new(16 * 64);
        let t = d.read(far, 1000);
        assert_eq!(t, 1000 + 226 + 14);
        // Original row now closed for bank 0.
        let t2 = d.read(BlockAddr::new(2), 2000);
        assert_eq!(t2, 2000 + 226 + 14);
    }

    #[test]
    fn channel_occupancy_queues_requests() {
        let mut d = Dram::new(cfg());
        let t1 = d.read(BlockAddr::new(0), 0);
        // Same channel (same row => same channel), issued same cycle: waits
        // for the 14-cycle transfer slot.
        let t2 = d.read(BlockAddr::new(1), 0);
        assert_eq!(t1, 240);
        assert_eq!(t2, 14 + 160 + 14);
        assert_eq!(d.stats.queue_wait_cycles, 14);
    }

    #[test]
    fn channels_are_independent() {
        let mut d = Dram::new(cfg());
        // Rows 0 and 1 map to different channels.
        let t1 = d.read(BlockAddr::new(0), 0);
        let t2 = d.read(BlockAddr::new(64), 0); // row 1 -> channel 1
        assert_eq!(t1, 240);
        assert_eq!(t2, 240, "no queueing across channels");
        assert_eq!(d.stats.queue_wait_cycles, 0);
    }

    #[test]
    fn writes_consume_bandwidth() {
        let mut d = Dram::new(cfg());
        d.write(BlockAddr::new(0), 0);
        let t = d.read(BlockAddr::new(1), 0);
        assert_eq!(t, 14 + 160 + 14, "read queued behind the writeback");
        assert_eq!(d.stats.writes, 1);
    }

    #[test]
    fn sustained_bandwidth_matches_transfer_cycles() {
        let mut d = Dram::new(cfg());
        // Saturate channel 0 with 100 same-row reads issued at cycle 0.
        let mut last = 0;
        for i in 0..100 {
            last = d.read(BlockAddr::new(i % 64), 0);
        }
        // 100 transfers at 14 cycles each, minus pipelined latency overlap:
        // completion of the last ≈ 99*14 + latency.
        assert!(last >= 99 * 14, "last completion {last}");
        assert!(last <= 99 * 14 + 226 + 14);
    }

    #[test]
    fn tagged_reads_split_accounting_but_not_timing() {
        let mut a = Dram::new(cfg());
        let mut b = Dram::new(cfg());
        // Same sequence, one tagged prefetch, one all-demand: identical
        // completion cycles.
        let t1 = a.read_tagged(BlockAddr::new(0), 0, true);
        let t2 = a.read_tagged(BlockAddr::new(1), 0, false);
        let u1 = b.read(BlockAddr::new(0), 0);
        let u2 = b.read(BlockAddr::new(1), 0);
        assert_eq!(t1, u1);
        assert_eq!(t2, u2);
        assert_eq!(a.stats.prefetch_reads, 1);
        assert_eq!(a.stats.reads, 2);
        // The demand read queued behind the prefetch transfer: its wait is
        // visible in the demand split.
        assert_eq!(a.stats.demand_wait_cycles, 14);
        assert_eq!(a.stats.queue_wait_cycles, 14);
        assert_eq!(b.stats.prefetch_reads, 0);
        assert_eq!(b.stats.demand_wait_cycles, 14);
    }
}
