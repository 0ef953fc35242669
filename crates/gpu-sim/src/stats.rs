//! Launch and device statistics.

/// Statistics of a single kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LaunchStats {
    /// Total simulated cycles for the launch (critical-path SM).
    pub cycles: u64,
    /// Simulated wall-clock time of the launch in seconds.
    pub time_seconds: f64,
    /// Number of thread blocks launched.
    pub blocks_launched: u32,
    /// Number of blocks resident per SM under the occupancy rules.
    pub blocks_per_sm: u32,
    /// Achieved occupancy: resident warps per SM / maximum warps per SM.
    pub occupancy: f64,
    /// Pure compute (issue) cycles accumulated across all blocks.
    pub compute_cycles: u64,
    /// Memory stall cycles accumulated across all blocks, before latency
    /// hiding is applied.
    pub memory_stall_cycles: u64,
    /// Shared-memory bank conflicts detected (extra serialized accesses).
    pub bank_conflicts: u64,
    /// Number of shared-memory accesses issued.
    pub shared_accesses: u64,
    /// Number of global-memory transactions issued.
    pub global_transactions: u64,
    /// Number of `__syncthreads()` barriers executed.
    pub syncs: u64,
}

/// Cumulative statistics of a device across its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeviceStats {
    /// Number of kernel launches executed.
    pub launches: u64,
    /// Total simulated busy time in seconds (kernels + transfers).
    pub busy_seconds: f64,
    /// Total cycles across all launches.
    pub total_cycles: u64,
    /// Total bytes moved between host and device.
    pub bytes_transferred: u64,
    /// Total host↔device transfer time in seconds.
    pub transfer_seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zero() {
        let l = LaunchStats::default();
        assert_eq!(l.cycles, 0);
        assert_eq!(l.time_seconds, 0.0);
        let d = DeviceStats::default();
        assert_eq!(d.launches, 0);
        assert_eq!(d.bytes_transferred, 0);
    }
}
