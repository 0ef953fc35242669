//! The simulated device: block scheduling, occupancy and timing.

use crate::config::{DeviceConfig, LaunchConfig};
use crate::context::BlockCost;
use crate::stats::{DeviceStats, LaunchStats};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A simulated GPU device.
///
/// The device holds its configuration and its cumulative statistics. A
/// launch is a pure fold of per-block costs; only the statistics update
/// takes the device's lock, so concurrent launches from several host
/// threads do not wait on one another's kernels. Each launch is timed as if
/// it had the device to itself.
#[derive(Debug)]
pub struct Device {
    config: DeviceConfig,
    stats: Mutex<DeviceStats>,
}

impl Device {
    /// Creates a device from a configuration.
    pub fn new(config: DeviceConfig) -> Self {
        Device {
            config,
            stats: Mutex::new(DeviceStats::default()),
        }
    }

    /// The device's static configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Cumulative statistics since the device was created.
    pub fn stats(&self) -> DeviceStats {
        *self.lock_stats()
    }

    /// Number of blocks of the given launch that can be resident on one SM
    /// simultaneously, limited by the thread, block and shared-memory caps.
    pub fn blocks_per_sm(&self, launch: &LaunchConfig) -> u32 {
        let by_threads = self.config.max_threads_per_sm / launch.block_dim.max(1);
        let by_shmem = if launch.shared_mem_bytes == 0 {
            self.config.max_blocks_per_sm
        } else {
            self.config.shared_mem_per_sm / launch.shared_mem_bytes.max(1)
        };
        by_threads
            .min(by_shmem)
            .min(self.config.max_blocks_per_sm)
            .max(1)
    }

    /// Achieved occupancy of the launch: resident warps per SM divided by the
    /// device maximum.
    pub fn occupancy(&self, launch: &LaunchConfig) -> f64 {
        let resident_warps =
            self.blocks_per_sm(launch) * launch.warps_per_block(self.config.warp_size);
        f64::from(resident_warps.min(self.config.max_warps_per_sm()))
            / f64::from(self.config.max_warps_per_sm())
    }

    /// Folds the per-block costs of one kernel launch into its timing and
    /// records the launch in the device's statistics. `blocks` holds one
    /// [`BlockCost`] per block of the grid, in block order; the kernel's
    /// functional results are computed elsewhere.
    ///
    /// Scheduling model: blocks are assigned round-robin to SMs. On each SM,
    /// resident blocks overlap their memory stalls (latency hiding) according
    /// to how many warps are resident; compute cycles serialize. The launch
    /// finishes when the busiest SM finishes.
    pub fn launch(&self, launch: &LaunchConfig, blocks: &[BlockCost]) -> LaunchStats {
        assert_eq!(
            blocks.len(),
            launch.grid_dim as usize,
            "one cost per block of the grid"
        );
        let sms = self.config.multiprocessors.max(1) as usize;
        // Per SM: (compute cycles, memory stall cycles).
        let mut sm_cycles = vec![(0u64, 0u64); sms];

        let mut agg = LaunchStats {
            blocks_launched: launch.grid_dim,
            blocks_per_sm: self.blocks_per_sm(launch),
            occupancy: self.occupancy(launch),
            ..LaunchStats::default()
        };

        for (block_idx, block) in blocks.iter().enumerate() {
            let sm = block_idx % sms;
            sm_cycles[sm].0 += block.compute_cycles;
            sm_cycles[sm].1 += block.memory_stall_cycles;
            agg.compute_cycles += block.compute_cycles;
            agg.memory_stall_cycles += block.memory_stall_cycles;
            agg.bank_conflicts += block.bank_conflicts;
            agg.shared_accesses += block.shared_accesses;
            agg.global_transactions += block.global_transactions;
            agg.syncs += block.syncs;
        }

        // Latency hiding: with more resident warps per SM, memory stalls
        // overlap with other warps' compute. The hiding factor interpolates
        // between "no hiding" (1 resident warp) and "fully hidden down to a
        // residual throughput cost" at `warps_to_hide_latency`.
        let resident_warps =
            (agg.blocks_per_sm * launch.warps_per_block(self.config.warp_size)).max(1);
        let hiding = (f64::from(resident_warps) / f64::from(self.config.warps_to_hide_latency))
            .clamp(0.0, 1.0);
        let residual = 0.15; // even fully hidden traffic costs some throughput
        let memory_scale = (1.0 - hiding) + hiding * residual;

        let critical_cycles = sm_cycles
            .iter()
            .map(|&(c, m)| c + (m as f64 * memory_scale).ceil() as u64)
            .max()
            .unwrap_or(0);

        agg.cycles = self.config.launch_overhead_cycles + critical_cycles;
        agg.time_seconds = agg.cycles as f64 / self.config.clock_hz * self.config.slowdown;

        let mut stats = self.lock_stats();
        stats.launches += 1;
        stats.total_cycles += agg.cycles;
        stats.busy_seconds += agg.time_seconds;
        agg
    }

    /// Models a host↔device transfer of `bytes` over PCIe and returns the
    /// simulated transfer time in seconds. Batching many small tasks into one
    /// transfer amortizes the fixed per-transfer overhead — the reason the
    /// aggregator stage batches its input (§4.1).
    pub fn transfer(&self, bytes: u64) -> f64 {
        const FIXED_OVERHEAD_SECONDS: f64 = 10.0e-6; // driver + DMA setup
        let seconds = FIXED_OVERHEAD_SECONDS + bytes as f64 / self.config.transfer_bandwidth;
        let mut stats = self.lock_stats();
        stats.bytes_transferred += bytes;
        stats.transfer_seconds += seconds;
        stats.busy_seconds += seconds;
        seconds
    }

    /// Locks the statistics, recovering them if a holder panicked: an
    /// engine whose shard panics is contained by the caller, and the next
    /// launch on the shared device must still count. (This crate sits below
    /// `sccg`, so it cannot use `sccg::sync::lock`.)
    fn lock_stats(&self) -> MutexGuard<'_, DeviceStats> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Device {
        Device::new(DeviceConfig::tiny_test_device())
    }

    /// One meter per block of `launch`, each charged by `charge`.
    fn costs(device: &Device, launch: &LaunchConfig, charge: fn(&mut BlockCost)) -> Vec<BlockCost> {
        let mut block = BlockCost::new(device.config(), launch);
        charge(&mut block);
        vec![block; launch.grid_dim as usize]
    }

    #[test]
    fn launch_runs_every_block_and_counts_cycles() {
        let device = tiny();
        let launch = LaunchConfig::new(8, 16);
        let blocks: Vec<BlockCost> = (0..8)
            .map(|ops| {
                let mut block = BlockCost::new(device.config(), &launch);
                block.charge_alu(ops);
                block
            })
            .collect();
        let stats = device.launch(&launch, &blocks);
        // 16 threads are 4 warps on the tiny device: 4 * (0 + 1 + ... + 7).
        assert_eq!(stats.compute_cycles, 4 * 28);
        assert_eq!(stats.blocks_launched, 8);
        assert!(stats.cycles > 0);
        assert!(stats.time_seconds > 0.0);
        assert_eq!(device.stats().launches, 1);
    }

    /// Engines share one device, and a shard that panics is contained by
    /// its caller: a panic while the statistics are locked must not fail
    /// every later launch, transfer or snapshot.
    #[test]
    fn stats_survive_a_panic_while_locked() {
        let device = std::sync::Arc::new(tiny());
        let poisoner = std::sync::Arc::clone(&device);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.stats.lock().unwrap();
            panic!("poison the stats lock");
        })
        .join();
        assert!(device.stats.is_poisoned());

        let launch = LaunchConfig::new(2, 16);
        let stats = device.launch(&launch, &costs(&device, &launch, |b| b.charge_alu(3)));
        assert!(stats.cycles > 0);
        assert!(device.transfer(1024) > 0.0);
        let totals = device.stats();
        assert_eq!(totals.launches, 1);
        assert_eq!(totals.total_cycles, stats.cycles);
        assert_eq!(totals.bytes_transferred, 1024);
    }

    #[test]
    fn occupancy_limited_by_shared_memory() {
        let device = tiny(); // 4 KiB shared per SM
        let small = LaunchConfig::new(4, 16).with_shared_mem(512);
        let large = LaunchConfig::new(4, 16).with_shared_mem(4096);
        assert!(device.blocks_per_sm(&small) > device.blocks_per_sm(&large));
        assert_eq!(device.blocks_per_sm(&large), 1);
    }

    #[test]
    fn occupancy_limited_by_threads() {
        let device = tiny(); // 64 threads per SM max
        let launch = LaunchConfig::new(4, 64);
        assert_eq!(device.blocks_per_sm(&launch), 1);
        let launch = LaunchConfig::new(4, 16);
        assert_eq!(device.blocks_per_sm(&launch), 4);
        assert!(device.occupancy(&launch) <= 1.0);
    }

    #[test]
    fn more_sms_finish_sooner() {
        let mut fast_cfg = DeviceConfig::tiny_test_device();
        fast_cfg.multiprocessors = 8;
        let fast = Device::new(fast_cfg);
        let slow = tiny(); // 2 SMs
        let launch = LaunchConfig::new(32, 16);
        let work = |block: &mut BlockCost| block.charge_alu(1_000);
        let t_fast = fast
            .launch(&launch, &costs(&fast, &launch, work))
            .time_seconds;
        let t_slow = slow
            .launch(&launch, &costs(&slow, &launch, work))
            .time_seconds;
        assert!(t_fast < t_slow);
    }

    #[test]
    fn higher_occupancy_hides_memory_latency() {
        let device = Device::new(DeviceConfig::gtx580());
        // Same total traffic, but the small-block launch leaves only one warp
        // resident per SM (forced via shared memory), so stalls are exposed.
        let exposed = LaunchConfig::new(16, 32).with_shared_mem(48 * 1024);
        let hidden = LaunchConfig::new(16, 32).with_shared_mem(1024);
        let work = |block: &mut BlockCost| {
            block.global_access(16, true);
            block.charge_alu(100);
        };
        let t_exposed = device
            .launch(&exposed, &costs(&device, &exposed, work))
            .cycles;
        let t_hidden = device
            .launch(&hidden, &costs(&device, &hidden, work))
            .cycles;
        assert!(t_hidden < t_exposed);
    }

    #[test]
    fn slowdown_scales_time_not_cycles() {
        let launch = LaunchConfig::new(8, 32);
        let normal = Device::new(DeviceConfig::gtx580());
        let shared = Device::new(DeviceConfig::gtx580().slowed_down(4.0));
        let blocks = costs(&normal, &launch, |block| block.charge_alu(500));
        let a = normal.launch(&launch, &blocks);
        let b = shared.launch(&launch, &blocks);
        assert_eq!(a.cycles, b.cycles);
        assert!(b.time_seconds > 3.9 * a.time_seconds);
    }

    #[test]
    fn transfers_accumulate_and_batching_amortizes_overhead() {
        let device = tiny();
        let many_small: f64 = (0..100).map(|_| device.transfer(1_000)).sum();
        let one_big = device.transfer(100_000);
        assert!(one_big < many_small);
        let stats = device.stats();
        assert_eq!(stats.bytes_transferred, 200_000);
        assert!(stats.transfer_seconds > 0.0);
    }

    #[test]
    fn deterministic_launch_cost() {
        let device = Device::new(DeviceConfig::gtx580());
        let launch = LaunchConfig::new(64, 64).with_shared_mem(2048);
        let blocks = costs(&device, &launch, |block| {
            block.charge_alu(123);
            block.shared_access_uniform(7);
            block.global_access(8, true);
            block.sync_threads();
        });
        let a = device.launch(&launch, &blocks);
        let b = device.launch(&launch, &blocks);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.bank_conflicts, b.bank_conflicts);
    }
}
