//! Per-block execution context: the cost-model half of a kernel.
//!
//! The functional half of a kernel is ordinary Rust code iterating over the
//! block's threads; the cost half is a sequence of calls on [`BlockContext`]
//! describing what the warps executed. The context accumulates issue cycles,
//! memory stalls, bank conflicts, divergence and barriers for the block.

/// Execution context handed to a kernel closure, one per thread block.
#[derive(Debug, Clone)]
pub struct BlockContext {
    block_idx: u32,
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
    pub(crate) divergent_lane_cycles: u64,
    pub(crate) syncs: u64,
}

impl BlockContext {
    pub(crate) fn new(
        block_idx: u32,
        block_dim: u32,
        warp_size: u32,
        banks: u32,
        shared_latency: u64,
        global_latency: u64,
    ) -> Self {
        BlockContext {
            block_idx,
            block_dim,
            warp_size,
            banks,
            shared_latency,
            global_latency,
            compute_cycles: 0,
            memory_stall_cycles: 0,
            bank_conflicts: 0,
            shared_accesses: 0,
            global_transactions: 0,
            divergent_lane_cycles: 0,
            syncs: 0,
        }
    }

    /// Index of this block within the grid (`blockIdx.x`).
    #[inline]
    pub fn block_idx(&self) -> u32 {
        self.block_idx
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

    /// SIMD width of the device.
    #[inline]
    pub fn warp_size(&self) -> u32 {
        self.warp_size
    }

    /// Charges `ops` arithmetic/logic instructions executed by every lane of
    /// every warp of the block (uniform, fully converged execution).
    #[inline]
    pub fn charge_alu(&mut self, ops: u64) {
        self.compute_cycles += ops * u64::from(self.warps());
    }

    /// Charges `ops` instructions on a *divergent* region where only
    /// `active_lanes` of the block's threads do useful work. The whole warp
    /// still issues every instruction (SIMT lock-step), so the cycle cost is
    /// identical to [`Self::charge_alu`]; the wasted lane-cycles are recorded so the
    /// divergence penalty is observable in statistics.
    pub fn charge_alu_divergent(&mut self, ops: u64, active_lanes: u32) {
        let active = active_lanes.min(self.block_dim);
        // Warps that contain at least one active lane must issue.
        let issuing_warps = if active == 0 {
            0
        } else {
            active.div_ceil(self.warp_size).max(1)
        };
        self.compute_cycles += ops * u64::from(issuing_warps);
        let wasted_lanes = u64::from(issuing_warps) * u64::from(self.warp_size) - u64::from(active);
        self.divergent_lane_cycles += ops * wasted_lanes;
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

    /// Issues one shared-memory access per provided lane address (in 32-bit
    /// word units) and charges bank-conflict serialization: within each warp,
    /// accesses mapping to the same bank but *different* word addresses are
    /// serialized (identical addresses broadcast for free).
    pub fn shared_access(&mut self, word_addresses: &[u32]) {
        self.shared_access_many(word_addresses, 1);
    }

    /// Issues `count` repetitions of one shared-memory access pattern.
    /// Equivalent to calling [`BlockContext::shared_access`] `count` times
    /// with the same addresses, with the conflict analysis done once —
    /// kernels use it for a push repeated once per partition round.
    pub fn shared_access_many(&mut self, word_addresses: &[u32], count: u64) {
        if count == 0 {
            return;
        }
        for warp in word_addresses.chunks(self.warp_size as usize) {
            let degree = conflict_degree(warp, self.banks);
            self.shared_accesses += warp.len() as u64 * count;
            self.bank_conflicts += (degree - 1) * count;
            self.memory_stall_cycles += self.shared_latency * degree * count;
        }
    }

    /// Shorthand for a conflict-free shared-memory access pattern executed
    /// `count` times by every lane (e.g. stride-1 or broadcast reads).
    pub fn shared_access_uniform(&mut self, count: u64) {
        self.shared_accesses += count * u64::from(self.block_dim);
        self.memory_stall_cycles += self.shared_latency * count * u64::from(self.warps());
    }

    /// Issues a global-memory access of `bytes_per_lane` bytes by every lane.
    /// When `coalesced`, each warp's accesses merge into 128-byte
    /// transactions; otherwise every lane pays its own transaction.
    pub fn global_access(&mut self, bytes_per_lane: u32, coalesced: bool) {
        const TRANSACTION_BYTES: u64 = 128;
        let lanes = u64::from(self.block_dim);
        let warps = u64::from(self.warps());
        let transactions = if coalesced {
            let warp_bytes = u64::from(bytes_per_lane) * u64::from(self.warp_size);
            warps * warp_bytes.div_ceil(TRANSACTION_BYTES).max(1)
        } else {
            lanes * u64::from(bytes_per_lane).div_ceil(TRANSACTION_BYTES).max(1)
        };
        self.global_transactions += transactions;
        // One latency charge per warp (transactions within a warp pipeline),
        // plus a small per-transaction throughput cost.
        self.memory_stall_cycles += self.global_latency * warps + transactions * 4;
    }

    /// Issues `count` repetitions of a global-memory access of
    /// `bytes_per_lane` bytes by every lane. Equivalent to calling
    /// [`BlockContext::global_access`] `count` times, without the per-call
    /// loop on the host side — kernels use it to report aggregated streaming
    /// access patterns (e.g. one vertex read per edge test).
    pub fn global_access_many(&mut self, bytes_per_lane: u32, coalesced: bool, count: u64) {
        if count == 0 {
            return;
        }
        const TRANSACTION_BYTES: u64 = 128;
        let lanes = u64::from(self.block_dim);
        let warps = u64::from(self.warps());
        let per_call = if coalesced {
            let warp_bytes = u64::from(bytes_per_lane) * u64::from(self.warp_size);
            warps * warp_bytes.div_ceil(TRANSACTION_BYTES).max(1)
        } else {
            lanes * u64::from(bytes_per_lane).div_ceil(TRANSACTION_BYTES).max(1)
        };
        self.global_transactions += per_call * count;
        self.memory_stall_cycles += (self.global_latency * warps + per_call * 4) * count;
    }

    /// Issues a *streamed* sequence of `count` global-memory accesses of
    /// `bytes_per_lane` bytes by every lane. Unlike
    /// [`BlockContext::global_access_many`], the stream exposes the memory
    /// latency only once (subsequent accesses are pipelined / prefetched
    /// behind it) and then pays a per-transaction throughput cost — the
    /// appropriate model for sequential scans such as reading a polygon's
    /// vertex array once per edge test.
    pub fn global_stream(&mut self, bytes_per_lane: u32, coalesced: bool, count: u64) {
        if count == 0 {
            return;
        }
        const TRANSACTION_BYTES: u64 = 128;
        let lanes = u64::from(self.block_dim);
        let warps = u64::from(self.warps());
        let per_call = if coalesced {
            let warp_bytes = u64::from(bytes_per_lane) * u64::from(self.warp_size);
            warps * warp_bytes.div_ceil(TRANSACTION_BYTES).max(1)
        } else {
            lanes * u64::from(bytes_per_lane).div_ceil(TRANSACTION_BYTES).max(1)
        };
        self.global_transactions += per_call * count;
        self.memory_stall_cycles += self.global_latency * warps + per_call * count * 4;
    }

    /// Executes `count` `__syncthreads()` barriers.
    pub fn sync_threads_many(&mut self, count: u64) {
        self.syncs += count;
        self.compute_cycles += (8 + 2 * u64::from(self.warps())) * count;
    }

    /// Executes a `__syncthreads()` barrier: all warps drain and re-converge.
    pub fn sync_threads(&mut self) {
        self.syncs += 1;
        // Barrier cost grows with the number of warps that must arrive.
        self.compute_cycles += 8 + 2 * u64::from(self.warps());
    }

    /// Total cycles attributed to this block before latency hiding.
    pub fn block_cycles(&self) -> u64 {
        self.compute_cycles + self.memory_stall_cycles
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

    fn ctx(block_dim: u32) -> BlockContext {
        BlockContext::new(0, block_dim, 32, 32, 2, 400)
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
    fn divergent_charge_records_wasted_lanes() {
        let mut c = ctx(64);
        c.charge_alu_divergent(10, 16);
        // 16 active lanes fit in one warp: 10 ops issued by 1 warp.
        assert_eq!(c.compute_cycles, 10);
        assert_eq!(c.divergent_lane_cycles, 10 * (32 - 16));
        let mut d = ctx(64);
        d.charge_alu_divergent(10, 0);
        assert_eq!(d.compute_cycles, 0);
    }

    #[test]
    fn conflict_free_shared_access() {
        let mut c = ctx(32);
        let addrs: Vec<u32> = (0..32).collect(); // one word per bank
        c.shared_access(&addrs);
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
        c.shared_access(&addrs);
        assert_eq!(c.bank_conflicts, 31);
        assert_eq!(c.memory_stall_cycles, 2 * 32);
    }

    #[test]
    fn broadcast_shared_access_is_free_of_conflicts() {
        let mut c = ctx(32);
        let addrs = vec![7u32; 32];
        c.shared_access(&addrs);
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
    fn aggregated_global_access_matches_repeated_calls() {
        let mut repeated = ctx(64);
        for _ in 0..10 {
            repeated.global_access(8, true);
        }
        let mut aggregated = ctx(64);
        aggregated.global_access_many(8, true, 10);
        assert_eq!(repeated.global_transactions, aggregated.global_transactions);
        assert_eq!(repeated.memory_stall_cycles, aggregated.memory_stall_cycles);
        let mut none = ctx(64);
        none.global_access_many(8, true, 0);
        assert_eq!(none.global_transactions, 0);
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
            let fresh = || BlockContext::new(0, addresses.len() as u32, warp_size, 32, 2, 400);
            let mut repeated = fresh();
            for _ in 0..7 {
                repeated.shared_access(&addresses);
            }
            let mut aggregated = fresh();
            aggregated.shared_access_many(&addresses, 7);
            assert_eq!(repeated.shared_accesses, aggregated.shared_accesses);
            assert_eq!(repeated.bank_conflicts, aggregated.bank_conflicts);
            assert_eq!(repeated.memory_stall_cycles, aggregated.memory_stall_cycles);
            // And the conflict analysis is the per-bank distinct-address
            // count it replaced.
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
        none.shared_access_many(&[0, 1, 2], 0);
        assert_eq!(none.shared_accesses, 0);
        assert_eq!(none.memory_stall_cycles, 0);
    }

    #[test]
    fn streamed_global_access_is_cheaper_than_repeated_exposed_latency() {
        let mut stream = ctx(64);
        stream.global_stream(8, true, 100);
        let mut repeated = ctx(64);
        repeated.global_access_many(8, true, 100);
        assert_eq!(stream.global_transactions, repeated.global_transactions);
        assert!(stream.memory_stall_cycles < repeated.memory_stall_cycles);
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

    #[test]
    fn block_cycles_sums_compute_and_memory() {
        let mut c = ctx(32);
        c.charge_alu(10);
        c.global_access(4, true);
        assert_eq!(c.block_cycles(), c.compute_cycles + c.memory_stall_cycles);
        assert!(c.block_cycles() > 10);
    }
}
