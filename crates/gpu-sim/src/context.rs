//! Per-block cost meter: the cost-model half of a kernel.
//!
//! The functional half of a kernel runs elsewhere, at host speed. The cost
//! half is a sequence of charges on one [`BlockCost`] per thread block,
//! describing what the block's warps executed. The meter accumulates issue
//! cycles, memory stalls, bank conflicts and barriers; [`Device::launch`]
//! folds the meters of a grid into the launch's timing.
//!
//! [`Device::launch`]: crate::Device::launch

use crate::config::{DeviceConfig, LaunchConfig};
use std::ops::AddAssign;

/// The cost of one thread block: every charge its warps executed.
#[derive(Debug, Clone)]
pub struct BlockCost {
    block_dim: u32,
    warp_size: u32,
    banks: u32,
    shared_latency: u64,
    global_latency: u64,
    // Accumulators.
    pub(crate) compute_cycles: u64,
    pub(crate) memory_stall_cycles: u64,
    pub(crate) bank_conflicts: u64,
    pub(crate) shared_accesses: u64,
    pub(crate) global_transactions: u64,
    pub(crate) syncs: u64,
}

/// One shared-memory access by a block's lanes, with its bank conflicts
/// analysed by [`BlockCost::analyse_shared`].
///
/// A pattern depends only on the lane addresses and the device's warp size
/// and bank count, so a kernel that repeats one pattern analyses it once per
/// launch and charges it with [`BlockCost::shared_access_many`]. Patterns
/// add up: `a += b` is the access `a` followed by `b`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedPattern {
    accesses: u64,
    conflicts: u64,
    /// Serialized access rounds: the sum of every warp's conflict degree.
    rounds: u64,
}

impl AddAssign for SharedPattern {
    fn add_assign(&mut self, other: SharedPattern) {
        self.accesses += other.accesses;
        self.conflicts += other.conflicts;
        self.rounds += other.rounds;
    }
}

impl BlockCost {
    /// An empty meter for one block of `launch` on `device`.
    pub fn new(device: &DeviceConfig, launch: &LaunchConfig) -> Self {
        BlockCost {
            block_dim: launch.block_dim,
            warp_size: device.warp_size,
            banks: device.shared_mem_banks,
            shared_latency: device.shared_latency_cycles,
            global_latency: device.global_latency_cycles,
            compute_cycles: 0,
            memory_stall_cycles: 0,
            bank_conflicts: 0,
            shared_accesses: 0,
            global_transactions: 0,
            syncs: 0,
        }
    }

    /// Number of threads in the block (`blockDim.x`).
    #[inline]
    pub fn threads(&self) -> u32 {
        self.block_dim
    }

    /// Number of warps in the block.
    #[inline]
    pub fn warps(&self) -> u32 {
        self.block_dim.div_ceil(self.warp_size)
    }

    /// Charges `ops` arithmetic/logic instructions executed by every lane of
    /// every warp of the block (uniform, fully converged execution).
    #[inline]
    pub fn charge_alu(&mut self, ops: u64) {
        self.compute_cycles += ops * u64::from(self.warps());
    }

    /// Charges loop bookkeeping (compare + branch + induction update) for
    /// `iterations` iterations executed by every warp. Loop unrolling by a
    /// factor `u` lets a kernel charge `iterations / u` instead — this is how
    /// the `PixelBox-NBC-UR` variant models its benefit (paper §3.3).
    #[inline]
    pub fn charge_loop_overhead(&mut self, iterations: u64) {
        const OVERHEAD_OPS_PER_ITERATION: u64 = 3;
        self.compute_cycles += iterations * OVERHEAD_OPS_PER_ITERATION * u64::from(self.warps());
    }

    /// Analyses one shared-memory access by the lanes at `word_addresses`
    /// (in 32-bit word units, lane order): within each warp, accesses mapping
    /// to the same bank but *different* word addresses are serialized
    /// (identical addresses broadcast for free).
    pub fn analyse_shared(&self, word_addresses: &[u32]) -> SharedPattern {
        let mut pattern = SharedPattern::default();
        for warp in word_addresses.chunks(self.warp_size as usize) {
            let degree = conflict_degree(warp, self.banks);
            pattern.accesses += warp.len() as u64;
            pattern.conflicts += degree - 1;
            pattern.rounds += degree;
        }
        pattern
    }

    /// Issues `count` repetitions of an analysed shared-memory access
    /// pattern, charging its bank-conflict serialization every time.
    pub fn shared_access_many(&mut self, pattern: &SharedPattern, count: u64) {
        self.shared_accesses += pattern.accesses * count;
        self.bank_conflicts += pattern.conflicts * count;
        self.memory_stall_cycles += self.shared_latency * pattern.rounds * count;
    }

    /// Shorthand for a conflict-free shared-memory access pattern executed
    /// `count` times by every lane (e.g. stride-1 or broadcast reads).
    pub fn shared_access_uniform(&mut self, count: u64) {
        self.shared_accesses += count * u64::from(self.block_dim);
        self.memory_stall_cycles += self.shared_latency * count * u64::from(self.warps());
    }

    /// Global-memory transactions of one access of `bytes_per_lane` bytes by
    /// every lane.
    fn global_transactions_per_access(&self, bytes_per_lane: u32, coalesced: bool) -> u64 {
        const TRANSACTION_BYTES: u64 = 128;
        if coalesced {
            let warp_bytes = u64::from(bytes_per_lane) * u64::from(self.warp_size);
            u64::from(self.warps()) * warp_bytes.div_ceil(TRANSACTION_BYTES).max(1)
        } else {
            u64::from(self.block_dim) * u64::from(bytes_per_lane).div_ceil(TRANSACTION_BYTES).max(1)
        }
    }

    /// Issues a global-memory access of `bytes_per_lane` bytes by every lane.
    /// When `coalesced`, each warp's accesses merge into 128-byte
    /// transactions; otherwise every lane pays its own transaction.
    pub fn global_access(&mut self, bytes_per_lane: u32, coalesced: bool) {
        let transactions = self.global_transactions_per_access(bytes_per_lane, coalesced);
        self.global_transactions += transactions;
        // One latency charge per warp (transactions within a warp pipeline),
        // plus a small per-transaction throughput cost.
        self.memory_stall_cycles +=
            self.global_latency * u64::from(self.warps()) + transactions * 4;
    }

    /// Issues a *streamed* sequence of `count` global-memory accesses of
    /// `bytes_per_lane` bytes by every lane. Unlike `count` calls of
    /// [`BlockCost::global_access`], the stream exposes the memory latency
    /// only once (subsequent accesses are pipelined / prefetched behind it)
    /// and then pays a per-transaction throughput cost — the appropriate
    /// model for sequential scans such as reading a polygon's vertex array
    /// once per edge test.
    pub fn global_stream(&mut self, bytes_per_lane: u32, coalesced: bool, count: u64) {
        if count == 0 {
            return;
        }
        let per_access = self.global_transactions_per_access(bytes_per_lane, coalesced);
        self.global_transactions += per_access * count;
        self.memory_stall_cycles +=
            self.global_latency * u64::from(self.warps()) + per_access * count * 4;
    }

    /// Executes `count` `__syncthreads()` barriers.
    pub fn sync_threads_many(&mut self, count: u64) {
        self.syncs += count;
        self.compute_cycles += (8 + 2 * u64::from(self.warps())) * count;
    }

    /// Executes a `__syncthreads()` barrier: all warps drain and re-converge.
    /// Barrier cost grows with the number of warps that must arrive.
    pub fn sync_threads(&mut self) {
        self.sync_threads_many(1);
    }
}

/// The serialization degree of one warp's shared-memory access: the largest
/// number of distinct word addresses that fall in one bank (at least 1).
///
/// Lanes are keyed by `(bank, address)` and sorted, so each bank's distinct
/// addresses form one run. Warps of up to `STACK_LANES` lanes — every real
/// device — are analysed in a stack buffer without allocating.
fn conflict_degree(warp: &[u32], banks: u32) -> u64 {
    const STACK_LANES: usize = 64;
    let mut stack = [0u64; STACK_LANES];
    let mut heap = Vec::new();
    let keys = match stack.get_mut(..warp.len()) {
        Some(keys) => keys,
        None => {
            heap.resize(warp.len(), 0);
            &mut heap[..]
        }
    };
    for (key, &addr) in keys.iter_mut().zip(warp) {
        *key = u64::from(addr % banks) << 32 | u64::from(addr);
    }
    keys.sort_unstable();
    keys.chunk_by(|a, b| a >> 32 == b >> 32)
        .map(|bank| 1 + bank.windows(2).filter(|pair| pair[0] != pair[1]).count() as u64)
        .max()
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A meter for one `block_dim`-thread block on a device with 32-lane
    /// warps, 32 banks, 2-cycle shared and 400-cycle global latency.
    fn ctx(block_dim: u32) -> BlockCost {
        BlockCost::new(&DeviceConfig::gtx580(), &LaunchConfig::new(1, block_dim))
    }

    /// Charges one access by the lanes at `addresses`.
    fn shared_access(cost: &mut BlockCost, addresses: &[u32]) {
        let pattern = cost.analyse_shared(addresses);
        cost.shared_access_many(&pattern, 1);
    }

    #[test]
    fn alu_cost_scales_with_warps() {
        let mut a = ctx(32);
        a.charge_alu(100);
        let mut b = ctx(128);
        b.charge_alu(100);
        assert_eq!(a.compute_cycles, 100);
        assert_eq!(b.compute_cycles, 400);
    }

    #[test]
    fn conflict_free_shared_access() {
        let mut c = ctx(32);
        let addrs: Vec<u32> = (0..32).collect(); // one word per bank
        shared_access(&mut c, &addrs);
        assert_eq!(c.bank_conflicts, 0);
        assert_eq!(c.shared_accesses, 32);
        assert_eq!(c.memory_stall_cycles, 2);
    }

    #[test]
    fn strided_shared_access_conflicts() {
        let mut c = ctx(32);
        // Stride of 32 words: every lane hits bank 0 with a distinct address
        // -> a 32-way conflict, serialized into 32 accesses.
        let addrs: Vec<u32> = (0..32).map(|i| i * 32).collect();
        shared_access(&mut c, &addrs);
        assert_eq!(c.bank_conflicts, 31);
        assert_eq!(c.memory_stall_cycles, 2 * 32);
    }

    #[test]
    fn broadcast_shared_access_is_free_of_conflicts() {
        let mut c = ctx(32);
        shared_access(&mut c, &[7u32; 32]);
        assert_eq!(c.bank_conflicts, 0);
    }

    #[test]
    fn coalesced_global_access_uses_fewer_transactions() {
        let mut coalesced = ctx(64);
        coalesced.global_access(4, true);
        let mut scattered = ctx(64);
        scattered.global_access(4, false);
        assert!(coalesced.global_transactions < scattered.global_transactions);
        assert!(coalesced.memory_stall_cycles < scattered.memory_stall_cycles);
    }

    #[test]
    fn sync_cost_grows_with_block_size() {
        let mut small = ctx(32);
        small.sync_threads();
        let mut large = ctx(512);
        large.sync_threads();
        assert!(large.compute_cycles > small.compute_cycles);
        assert_eq!(small.syncs, 1);
    }

    #[test]
    fn loop_overhead_is_linear_in_iterations() {
        let mut a = ctx(64);
        a.charge_loop_overhead(100);
        let mut b = ctx(64);
        b.charge_loop_overhead(25); // 4x unrolled
        assert_eq!(a.compute_cycles, 4 * b.compute_cycles);
    }

    #[test]
    fn aggregated_shared_access_matches_repeated_calls() {
        // Conflict-free, an 8-way strided conflict, a broadcast, duplicates
        // inside a conflicting bank, a ragged last warp, and a warp wider
        // than the stack buffer.
        let patterns: Vec<(u32, Vec<u32>)> = vec![
            (32, (0..64).collect()),
            (32, (0..64).map(|tid| tid * 8).collect()),
            (32, vec![7; 64]),
            (32, vec![0, 32, 32, 64, 1, 33, 5, 5]),
            (32, (0..45).map(|tid| tid * 3 + 1).collect()),
            (96, (0..96).map(|tid| tid % 7 * 32 + tid % 3).collect()),
        ];
        for (warp_size, addresses) in patterns {
            let device = DeviceConfig {
                warp_size,
                ..DeviceConfig::gtx580()
            };
            let fresh = || BlockCost::new(&device, &LaunchConfig::new(1, addresses.len() as u32));
            let mut repeated = fresh();
            for _ in 0..7 {
                shared_access(&mut repeated, &addresses);
            }
            let mut aggregated = fresh();
            let pattern = aggregated.analyse_shared(&addresses);
            aggregated.shared_access_many(&pattern, 7);
            assert_eq!(repeated.shared_accesses, aggregated.shared_accesses);
            assert_eq!(repeated.bank_conflicts, aggregated.bank_conflicts);
            assert_eq!(repeated.memory_stall_cycles, aggregated.memory_stall_cycles);
            // Patterns add like consecutive accesses.
            let mut twice = pattern;
            twice += pattern;
            let mut doubled = fresh();
            doubled.shared_access_many(&twice, 1);
            let mut two = fresh();
            two.shared_access_many(&pattern, 2);
            assert_eq!(doubled.memory_stall_cycles, two.memory_stall_cycles);
            // And the conflict analysis is the per-bank distinct-address
            // count by definition.
            let by_definition: u64 = addresses
                .chunks(warp_size as usize)
                .map(|warp| {
                    let distinct_in = |bank: u32| {
                        let mut hits: Vec<u32> =
                            warp.iter().copied().filter(|a| a % 32 == bank).collect();
                        hits.sort_unstable();
                        hits.dedup();
                        hits.len() as u64
                    };
                    (0..32).map(distinct_in).max().unwrap().max(1) - 1
                })
                .sum();
            assert_eq!(by_definition * 7, repeated.bank_conflicts);
        }
        let mut none = ctx(64);
        let pattern = none.analyse_shared(&[0, 1, 2]);
        none.shared_access_many(&pattern, 0);
        assert_eq!(none.shared_accesses, 0);
        assert_eq!(none.memory_stall_cycles, 0);
    }

    #[test]
    fn streamed_global_access_is_cheaper_than_repeated_exposed_latency() {
        let mut stream = ctx(64);
        stream.global_stream(8, true, 100);
        let mut repeated = ctx(64);
        for _ in 0..100 {
            repeated.global_access(8, true);
        }
        assert_eq!(stream.global_transactions, repeated.global_transactions);
        assert!(stream.memory_stall_cycles < repeated.memory_stall_cycles);
        // One exposed latency per warp, then the repeated accesses' throughput.
        let latency = 400 * u64::from(stream.warps());
        assert_eq!(
            stream.memory_stall_cycles,
            repeated.memory_stall_cycles - 99 * latency
        );
        let mut empty = ctx(64);
        empty.global_stream(8, true, 0);
        assert_eq!(empty.memory_stall_cycles, 0);
    }

    #[test]
    fn aggregated_syncs_match_repeated_calls() {
        let mut repeated = ctx(96);
        for _ in 0..5 {
            repeated.sync_threads();
        }
        let mut aggregated = ctx(96);
        aggregated.sync_threads_many(5);
        assert_eq!(repeated.syncs, aggregated.syncs);
        assert_eq!(repeated.compute_cycles, aggregated.compute_cycles);
    }
}
