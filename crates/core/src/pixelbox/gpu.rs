//! The PixelBox GPU kernel, costed on the simulated SIMT device.
//!
//! This is the Rust rendition of Algorithm 1: polygon pairs are distributed
//! round-robin over thread blocks; each block processes its pairs with the
//! sampling-box / pixelization scan, keeping the sampling-box stack and
//! (optionally) the polygon vertex data in shared memory. A batch is
//! computed and costed in two separate steps:
//!
//! 1. **Compute.** Each pair runs once on the process-wide [`WorkerPool`]:
//!    its areas come from [`sweep_pair`], the exact row sweep the CPU
//!    substrate serves, and its execution [`Trace`] from [`trace_pair`], the
//!    count-only partition scan at the GPU's partition fanout (`block_size`).
//!    The trace is the one the full scan ([`compute_pair`](super::algorithm::compute_pair))
//!    records, so the modelled device does exactly the paper's work; the
//!    host skips the pixelized boxes' interval arithmetic, whose charges are
//!    analytic anyway. It reads each polygon's stored area, and a warm
//!    thread's scan allocates nothing, so at the serving defaults the host
//!    spends about 1.5× the sweep per pair on the trace. Areas are exact
//!    integers, so they equal the scan's bit for bit.
//! 2. **Cost.** `charge_pair` converts one pair's vertex count and trace
//!    into simulated cycles, shared-memory traffic, bank conflicts, global
//!    transactions and barriers on its block's [`BlockCost`], honouring the
//!    optimization toggles compared in Figure 9. The device then folds the
//!    blocks into the launch's time.
//!
//! The cost is a pure function of the traces and the configuration, so the
//! device's numbers do not depend on how the host scheduled the compute.

use super::algorithm::{trace_pair, Trace};
use super::cpu::sweep_pair;
use super::{OptimizationFlags, PairAreas, PixelBoxConfig, PolygonPair};
use crate::parallel::{default_workers, WorkerPool};
use sccg_gpu_sim::{BlockCost, Device, LaunchConfig, LaunchStats, SharedPattern};
use std::sync::Arc;

/// Bytes of shared memory reserved per block for the sampling-box stack
/// (five sub-stacks of `block_size` entries each, as in §3.3).
fn stack_shared_bytes(block_size: u32) -> u32 {
    5 * 4 * block_size * 2
}

/// Bytes of shared memory reserved per block for staged polygon vertices
/// when the shared-memory optimization is enabled (a fixed-size region; only
/// polygons that fit are staged, §3.3).
const SHARED_VERTEX_REGION_BYTES: u32 = 2 * 1024;

/// Result of one batched PixelBox launch.
#[derive(Debug, Clone)]
pub struct GpuBatchResult {
    /// Areas of intersection and union per input pair, in input order.
    pub areas: Vec<PairAreas>,
    /// Simulated execution statistics of the kernel launch.
    pub launch: LaunchStats,
    /// Simulated host→device and device→host transfer time, in seconds.
    pub transfer_seconds: f64,
    /// Aggregated algorithm trace over all pairs.
    pub trace: Trace,
}

impl GpuBatchResult {
    /// Total simulated GPU time (transfer + kernel), in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.transfer_seconds + self.launch.time_seconds
    }
}

/// A PixelBox execution engine bound to one simulated GPU device.
#[derive(Debug, Clone)]
pub struct GpuPixelBox {
    device: Arc<Device>,
}

impl GpuPixelBox {
    /// Creates an engine on the given device.
    pub fn new(device: Arc<Device>) -> Self {
        GpuPixelBox { device }
    }

    /// The underlying simulated device.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// Computes the areas of intersection and union for a batch of polygon
    /// pairs with one kernel launch (plus the host↔device transfers for the
    /// batch), mirroring the aggregator stage's batched invocation (§4.1).
    pub fn compute_batch(&self, pairs: &[PolygonPair], config: &PixelBoxConfig) -> GpuBatchResult {
        if pairs.is_empty() {
            return GpuBatchResult {
                areas: Vec::new(),
                launch: LaunchStats::default(),
                transfer_seconds: 0.0,
                trace: Trace::default(),
            };
        }
        let computed = WorkerPool::global().map(pairs, default_workers(), 64, |pair| {
            let trace = trace_pair(pair, config.threshold, config.block_size, config.variant);
            (sweep_pair(pair), trace)
        });

        // Host → device: vertex arrays and MBRs of every pair; device → host:
        // the per-thread partial areas (block_size values per pair).
        let input_bytes: u64 = pairs
            .iter()
            .map(|pair| 8 * (pair.p.vertex_count() + pair.q.vertex_count()) as u64 + 16)
            .sum();
        let output_bytes = 8 * u64::from(config.block_size) * pairs.len() as u64;
        let mut transfer_seconds = self.device.transfer(input_bytes);

        let grid_dim = config.grid_size.min(pairs.len() as u32).max(1);
        let shared_bytes = stack_shared_bytes(config.block_size)
            + if config.opts.shared_memory_vertices {
                SHARED_VERTEX_REGION_BYTES
            } else {
                0
            };
        let launch_config =
            LaunchConfig::new(grid_dim, config.block_size).with_shared_mem(shared_bytes);

        // Pair `i` runs on block `i mod grid_dim` (round-robin assignment,
        // Algorithm 1 line 10).
        let empty = BlockCost::new(self.device.config(), &launch_config);
        let stack_push = stack_push_pattern(&empty, &config.opts);
        let mut blocks = vec![empty; grid_dim as usize];
        let mut trace = Trace::default();
        for (index, (pair, (_, pair_trace))) in pairs.iter().zip(&computed).enumerate() {
            let vertices = (pair.p.vertex_count() + pair.q.vertex_count()) as u64;
            let block = &mut blocks[index % grid_dim as usize];
            charge_pair(block, vertices, pair_trace, config, &stack_push);
            trace.merge(pair_trace);
        }
        let launch = self.device.launch(&launch_config, &blocks);

        transfer_seconds += self.device.transfer(output_bytes);
        GpuBatchResult {
            areas: computed.into_iter().map(|(areas, _)| areas).collect(),
            launch,
            transfer_seconds,
            trace,
        }
    }
}

/// The bank-conflict analysis of one partition round's sampling-box push:
/// every lane pushes one sub-box, five words each. The sub-stacks are laid
/// out either as five separate arrays (stride-1, conflict-free) or as an
/// array of five-word structures padded to eight words (stride-8, 8-way
/// conflicts on a 32-bank device), per §3.3 "Avoid memory bank conflicts".
/// The pattern depends only on the launch, so it is analysed once per launch.
fn stack_push_pattern(block: &BlockCost, opts: &OptimizationFlags) -> SharedPattern {
    let stride: u32 = if opts.avoid_bank_conflicts { 1 } else { 8 };
    let lanes = block.threads();
    let mut pattern = SharedPattern::default();
    let mut addresses = Vec::with_capacity(lanes as usize);
    for field in 0..5u32 {
        addresses.clear();
        addresses.extend(
            (0..lanes).map(|tid| tid * stride + field * if stride == 1 { lanes } else { 1 }),
        );
        pattern += block.analyse_shared(&addresses);
    }
    pattern
}

/// Charges one pair to its block: converts the pair's total vertex count
/// and algorithmic trace into simulated costs, honouring the optimization
/// flags. `stack_push` is the launch's [`stack_push_pattern`]. A pure
/// function of its inputs; it allocates nothing.
fn charge_pair(
    block: &mut BlockCost,
    total_vertices: u64,
    trace: &Trace,
    config: &PixelBoxConfig,
    stack_push: &SharedPattern,
) {
    let lanes = u64::from(block.threads().max(1));
    let opts = &config.opts;

    // Instruction cost constants (per polygon edge examined and per pixel).
    const OPS_PER_EDGE_TEST: u64 = 8;
    const OPS_PER_PIXEL_FIXED: u64 = 6;
    const OPS_PER_SHOELACE_VERTEX: u64 = 6;
    const VERTEX_BYTES: u32 = 8;

    // --- Input staging -----------------------------------------------------
    let vertex_loads = total_vertices.div_ceil(lanes).max(1);
    // MBR + bookkeeping.
    block.global_access(16, true);
    // Vertex data is always read from global memory once.
    block.global_stream(VERTEX_BYTES, true, vertex_loads);
    let vertices_fit_shared =
        total_vertices * u64::from(VERTEX_BYTES) <= u64::from(SHARED_VERTEX_REGION_BYTES);
    let use_shared_vertices = opts.shared_memory_vertices && vertices_fit_shared;
    if use_shared_vertices {
        // Stage into shared memory (one conflict-free store per vertex load).
        block.shared_access_uniform(vertex_loads);
        block.sync_threads();
    }

    // --- Edge-examination work (pixel tests + box-position tests) ----------
    // Pixel tests execute in lane-padded rounds: every pixelized region costs
    // whole thread-block rounds even when it holds fewer pixels than lanes
    // (the inefficiency that makes very small thresholds T slow, §3.4). Each
    // round examines every edge of both polygons.
    let pixel_round_edge_ops = trace.pixel_rounds * total_vertices;
    // Box-position tests: one sub-box per lane per partition round.
    let box_edge_ops = trace.box_edge_ops.div_ceil(lanes);
    let per_lane_edge_ops = pixel_round_edge_ops + box_edge_ops;
    block.charge_alu(per_lane_edge_ops * OPS_PER_EDGE_TEST);
    // Per-pixel fixed work (index arithmetic, predicate accumulation).
    let per_lane_pixels = trace.pixel_tests.div_ceil(lanes);
    block.charge_alu(per_lane_pixels * OPS_PER_PIXEL_FIXED);
    // Each edge examined needs its vertex pair: from shared memory when
    // staged (broadcast, conflict-free), from (L1-cached, streamed) global
    // memory otherwise.
    if use_shared_vertices {
        block.shared_access_uniform(per_lane_edge_ops);
    } else {
        block.global_stream(VERTEX_BYTES, true, per_lane_edge_ops);
    }
    // Edge-loop bookkeeping; unrolling by 4 divides the per-iteration
    // overhead (§3.3, "Perform loop unrolling").
    let unroll = if opts.unroll_loops { 4 } else { 1 };
    block.charge_loop_overhead(per_lane_edge_ops.div_ceil(unroll));

    // --- Shoelace polygon areas (Full variant only charges when used) ------
    if trace.shoelace_vertices > 0 {
        let per_lane = trace.shoelace_vertices.div_ceil(lanes);
        block.charge_alu(per_lane * OPS_PER_SHOELACE_VERTEX);
        if use_shared_vertices {
            block.shared_access_uniform(per_lane);
        } else {
            block.global_stream(VERTEX_BYTES, true, per_lane);
        }
    }

    // --- Sampling-box stack traffic ----------------------------------------
    // Every partition round pushes `block_size` sub-boxes and every processed
    // box is popped by all threads.
    if trace.partitions > 0 {
        block.shared_access_many(stack_push, trace.partitions);
        // Position tests write/read the flag column and pop boxes.
        block.shared_access_uniform(trace.stack_pushes.div_ceil(lanes) * 5);
    }

    // --- Synchronization ----------------------------------------------------
    // One barrier per stack pop (Algorithm 1, line 17): pops equal pushes.
    block.sync_threads_many(trace.stack_pushes.max(1));

    // --- Result write-back ---------------------------------------------------
    block.global_access(8, true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixelbox::{OptimizationFlags, Variant};
    use sccg_geometry::{raster, Rect, RectilinearPolygon};
    use sccg_gpu_sim::DeviceConfig;

    fn device() -> Arc<Device> {
        Arc::new(Device::new(DeviceConfig::gtx580()))
    }

    fn sample_pairs(n: i32) -> Vec<PolygonPair> {
        (0..n)
            .map(|i| {
                let p = RectilinearPolygon::rectangle(Rect::new(
                    3 * i,
                    2 * i,
                    3 * i + 12 + (i % 4),
                    2 * i + 9,
                ))
                .unwrap();
                let q = RectilinearPolygon::rectangle(Rect::new(
                    3 * i + 4,
                    2 * i + 3,
                    3 * i + 17,
                    2 * i + 13,
                ))
                .unwrap();
                PolygonPair::new(p, q)
            })
            .collect()
    }

    #[test]
    fn gpu_results_match_raster_oracle() {
        let engine = GpuPixelBox::new(device());
        let pairs = sample_pairs(25);
        let result = engine.compute_batch(&pairs, &PixelBoxConfig::paper_default());
        assert_eq!(result.areas.len(), pairs.len());
        for (pair, areas) in pairs.iter().zip(&result.areas) {
            let (ri, ru) = raster::intersection_union_area(&pair.p, &pair.q);
            assert_eq!((areas.intersection, areas.union), (ri, ru));
        }
        assert!(result.launch.cycles > 0);
        assert!(result.transfer_seconds > 0.0);
        assert!(result.total_seconds() > result.launch.time_seconds);
    }

    #[test]
    fn gpu_and_cpu_agree() {
        let engine = GpuPixelBox::new(device());
        let pairs = sample_pairs(40);
        let config = PixelBoxConfig::paper_default();
        let gpu = engine.compute_batch(&pairs, &config);
        let cpu = super::super::cpu::compute_batch_cpu(&pairs, &config, 2);
        assert_eq!(gpu.areas, cpu);
    }

    #[test]
    fn empty_batch_is_free() {
        let engine = GpuPixelBox::new(device());
        let result = engine.compute_batch(&[], &PixelBoxConfig::paper_default());
        assert!(result.areas.is_empty());
        assert_eq!(result.launch.cycles, 0);
        assert_eq!(result.transfer_seconds, 0.0);
    }

    #[test]
    fn variants_produce_identical_areas_but_different_costs() {
        let engine = GpuPixelBox::new(device());
        // Scale pairs up so the sampling-box machinery actually engages.
        let pairs: Vec<PolygonPair> = sample_pairs(10)
            .into_iter()
            .map(|pair| PolygonPair::new(pair.p.scale(6).unwrap(), pair.q.scale(6).unwrap()))
            .collect();
        let base = PixelBoxConfig::paper_default();
        let full = engine.compute_batch(&pairs, &base.with_variant(Variant::Full));
        let nosep = engine.compute_batch(&pairs, &base.with_variant(Variant::NoSep));
        let pixel_only = engine.compute_batch(&pairs, &base.with_variant(Variant::PixelOnly));
        assert_eq!(full.areas, nosep.areas);
        assert_eq!(full.areas, pixel_only.areas);
        // Figure 8 shape: PixelBox <= PixelBox-NoSep <= PixelOnly in time.
        assert!(full.launch.cycles <= nosep.launch.cycles);
        assert!(nosep.launch.cycles < pixel_only.launch.cycles);
    }

    #[test]
    fn optimizations_reduce_cost_without_changing_results() {
        let engine = GpuPixelBox::new(device());
        let pairs: Vec<PolygonPair> = sample_pairs(10)
            .into_iter()
            .map(|pair| PolygonPair::new(pair.p.scale(5).unwrap(), pair.q.scale(5).unwrap()))
            .collect();
        let base = PixelBoxConfig::paper_default();
        let optimized = engine.compute_batch(&pairs, &base.with_opts(OptimizationFlags::all()));
        let unoptimized = engine.compute_batch(&pairs, &base.with_opts(OptimizationFlags::none()));
        assert_eq!(optimized.areas, unoptimized.areas);
        assert!(optimized.launch.cycles < unoptimized.launch.cycles);
        // Bank conflicts only appear when the stack is interleaved.
        assert!(optimized.launch.bank_conflicts <= unoptimized.launch.bank_conflicts);
    }

    #[test]
    fn batching_amortizes_transfer_overhead() {
        let engine = GpuPixelBox::new(device());
        let pairs = sample_pairs(64);
        let config = PixelBoxConfig::paper_default();
        let batched = engine.compute_batch(&pairs, &config).transfer_seconds;
        let unbatched: f64 = pairs
            .chunks(1)
            .map(|chunk| engine.compute_batch(chunk, &config).transfer_seconds)
            .sum();
        assert!(batched < unbatched);
    }
}
