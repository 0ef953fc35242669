//! Deterministic performance model of the cross-comparing workflow.
//!
//! The paper's system-level results (Table 1, Figures 11 and 12) measure how
//! wall-clock throughput changes with the execution *structure*: sequential
//! vs multi-stream vs pipelined, with and without dynamic task migration, on
//! platforms with different CPU/GPU balances. Those effects come from
//! thread-level overlap across many cores and a discrete GPU. Here the GPU
//! is simulated and the overlap a few shared host cores give is not
//! reproducible run to run, so we reproduce them with a deterministic
//! resource-constrained scheduling model:
//!
//! * per-tile stage costs are derived from an analytic cost model whose
//!   constants are calibrated to the per-operation costs reported or implied
//!   by the paper (§2.3, §5.2, §5.5);
//! * each execution scheme is simulated by list-scheduling the per-tile stage
//!   tasks onto CPU worker slots and GPU slots;
//! * dynamic task migration is modelled exactly like the real component: a
//!   stage task may execute on the other device when that device would start
//!   it sooner (GPU idle → parse tasks move to the GPU; GPU congested →
//!   aggregation tasks move to the CPU).
//!
//! The model is fully deterministic, so the regenerated tables and figures
//! are reproducible bit-for-bit.

use crate::pixelbox::adaptive::{BatchObservation, SplitConfig, SplitController, SplitTrace};
use sccg_datagen::{Dataset, TilePair};

/// Workload statistics of one tile task, the unit of scheduling (§4.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileStats {
    /// Raw text bytes of the tile's two polygon files.
    pub text_bytes: u64,
    /// Total polygons across both segmentation results.
    pub polygons: u64,
    /// Candidate pairs produced by the MBR join.
    pub pairs: u64,
    /// Total pixels covered by the candidate pairs' joint MBRs (drives the
    /// aggregation cost).
    pub pair_pixels: u64,
}

impl TileStats {
    /// Derives tile statistics from a generated tile pair by running the
    /// actual MBR join (cheap) and summing joint-MBR pixel counts.
    pub fn from_tile(tile: &TilePair) -> TileStats {
        let left: Vec<_> = tile.first.iter().map(|r| r.polygon.mbr()).collect();
        let right: Vec<_> = tile.second.iter().map(|r| r.polygon.mbr()).collect();
        let pairs = sccg_rtree::mbr_join(&left, &right);
        let pair_pixels: u64 = pairs
            .iter()
            .map(|&(i, j)| left[i as usize].union(&right[j as usize]).pixel_count() as u64)
            .sum();
        TileStats {
            text_bytes: (tile.first_as_text().len() + tile.second_as_text().len()) as u64,
            polygons: (tile.first.len() + tile.second.len()) as u64,
            pairs: pairs.len() as u64,
            pair_pixels,
        }
    }

    /// Derives the statistics of every tile of a data set.
    pub fn from_dataset(dataset: &Dataset) -> Vec<TileStats> {
        dataset.tiles.iter().map(TileStats::from_tile).collect()
    }
}

/// Calibrated per-operation costs (seconds). The defaults reproduce the
/// relative stage weights reported by the paper: GEOS-style exact overlay
/// ~0.7 ms per pair (430 s for 620 k pairs, §5.2), PixelBox-CPU-S ~0.47 ms
/// per pair (290 s), PixelBox on the GTX 580 ~5.8 µs per pair (3.6 s), text
/// parsing around 8 MiB/s (geometry text parsing with validation), index
/// building and filtering each well under 6% of query time (§2.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Seconds per byte of polygon text parsed on one CPU core.
    pub parse_per_byte: f64,
    /// Seconds per byte of polygon text parsed by GPU-Parser on the reference
    /// GPU. The paper describes its performance as "only comparable to its
    /// CPU counterpart" (§4.2); the default makes one GPU roughly one and a
    /// half CPU cores' worth of parsing throughput.
    pub gpu_parse_per_byte: f64,
    /// Seconds per polygon for Hilbert R-tree bulk loading.
    pub build_per_polygon: f64,
    /// Seconds per polygon probed during the MBR-join filter.
    pub filter_per_polygon: f64,
    /// Seconds per candidate pair emitted by the filter.
    pub filter_per_pair: f64,
    /// Seconds per candidate pair for the SDBMS executing
    /// `ST_Area(ST_Intersection(...))` with the GEOS-style exact overlay
    /// (including executor overhead), used by the PostGIS baselines.
    pub geos_per_pair: f64,
    /// Seconds per candidate pair for PixelBox-CPU on one core.
    pub pixelbox_cpu_per_pair: f64,
    /// Seconds per candidate pair for PixelBox on the reference GPU,
    /// including its share of host↔device transfer.
    pub pixelbox_gpu_per_pair: f64,
    /// Fixed per-launch GPU overhead (kernel dispatch plus the latency of the
    /// small, unbatched host↔device transfers of a single tile task). The
    /// pipelined aggregator amortizes it over [`CostParams::aggregator_batch_tiles`]
    /// tiles; the NoPipe schemes pay it per tile (§4.1).
    pub gpu_launch_overhead: f64,
    /// Number of tiles the pipelined aggregator batches per launch.
    pub aggregator_batch_tiles: f64,
    /// Multiplier on GPU aggregation time under uncoordinated sharing by
    /// multiple streams (`NoPipe-M`), modelling the serialization and
    /// contention the paper attributes to uncontrolled kernel invocations
    /// (§4, §5.5).
    pub uncoordinated_gpu_penalty: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            parse_per_byte: 1.0e-7,
            gpu_parse_per_byte: 6.5e-8,
            build_per_polygon: 1.0e-6,
            filter_per_polygon: 1.5e-6,
            filter_per_pair: 2.0e-7,
            geos_per_pair: 1.1e-3,
            pixelbox_cpu_per_pair: 4.7e-4,
            pixelbox_gpu_per_pair: 5.8e-6,
            gpu_launch_overhead: 6.0e-3,
            aggregator_batch_tiles: 8.0,
            uncoordinated_gpu_penalty: 1.3,
        }
    }
}

/// Per-tile stage durations used by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileCosts {
    /// Parser stage on a CPU worker.
    pub parse_cpu: f64,
    /// Parser stage executed by GPU-Parser.
    pub parse_gpu: f64,
    /// Builder stage (single CPU thread).
    pub build: f64,
    /// Filter stage (single CPU thread).
    pub filter: f64,
    /// Aggregator stage with PixelBox on one reference GPU, with the launch
    /// overhead amortized by the pipelined aggregator's batching.
    pub aggregate_gpu: f64,
    /// Aggregator stage with PixelBox on one reference GPU without batching
    /// (one launch per tile), the NoPipe code path.
    pub aggregate_gpu_unbatched: f64,
    /// Aggregator stage with PixelBox-CPU on one CPU worker.
    pub aggregate_cpu: f64,
    /// Aggregator stage with the GEOS-style overlay on one CPU core (the
    /// SDBMS baseline path).
    pub aggregate_geos: f64,
}

impl CostParams {
    /// Evaluates the cost model for one tile.
    pub fn tile_costs(&self, stats: &TileStats) -> TileCosts {
        let pairs = stats.pairs as f64;
        let kernel = pairs * self.pixelbox_gpu_per_pair;
        TileCosts {
            parse_cpu: stats.text_bytes as f64 * self.parse_per_byte,
            parse_gpu: stats.text_bytes as f64 * self.gpu_parse_per_byte,
            build: stats.polygons as f64 * self.build_per_polygon,
            filter: stats.polygons as f64 * self.filter_per_polygon + pairs * self.filter_per_pair,
            aggregate_gpu: kernel + self.gpu_launch_overhead / self.aggregator_batch_tiles.max(1.0),
            aggregate_gpu_unbatched: kernel + self.gpu_launch_overhead,
            aggregate_cpu: pairs * self.pixelbox_cpu_per_pair,
            aggregate_geos: pairs * self.geos_per_pair,
        }
    }
}

/// Hardware platform of an experiment, mirroring §5.1 and §5.6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformConfig {
    /// Human-readable name.
    pub name: &'static str,
    /// Number of CPU worker slots available to the workflow.
    pub cpu_workers: u32,
    /// Number of GPUs.
    pub gpus: u32,
    /// Relative speed of each GPU versus the reference GTX 580 cost model
    /// (1.0 = reference; smaller is slower). Config-III deliberately slows the
    /// GPU down to emulate a shared card, as the paper does by choosing a
    /// sub-optimal block size.
    pub gpu_speed: f64,
}

impl PlatformConfig {
    /// Config-I: the Dell T1500 workstation — 4-core Core i7 860 + GTX 580.
    pub const fn config_i() -> Self {
        PlatformConfig {
            name: "Config-I (T1500: 4-core CPU + GTX 580)",
            cpu_workers: 4,
            gpus: 1,
            gpu_speed: 1.0,
        }
    }

    /// Config-II: the Amazon EC2 instance — 2× Xeon X5570 (8 cores) + 2× Tesla M2050.
    pub const fn config_ii() -> Self {
        PlatformConfig {
            name: "Config-II (EC2: 8-core CPU + 2x Tesla M2050)",
            cpu_workers: 8,
            gpus: 2,
            gpu_speed: 0.9,
        }
    }

    /// Config-III: the EC2 instance with a single GPU deliberately slowed
    /// down (the paper slows PixelBox by choosing a sub-optimal thread block
    /// size to emulate a card shared with other applications, §5.6).
    pub const fn config_iii() -> Self {
        PlatformConfig {
            name: "Config-III (EC2: 8-core CPU + 1 slowed GPU)",
            cpu_workers: 8,
            gpus: 1,
            gpu_speed: 0.7,
        }
    }

    /// The platform PostGIS-M runs on in §5.7 (EC2 with both CPUs, 16 query
    /// streams over 8 physical cores).
    pub const fn postgis_m_platform() -> Self {
        PlatformConfig {
            name: "PostGIS-M (EC2: 8 cores, 16 query streams)",
            cpu_workers: 8,
            gpus: 0,
            gpu_speed: 1.0,
        }
    }
}

/// Execution scheme of the whole workload (§5.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// One execution stream, stages strictly sequential per tile pair
    /// (`NoPipe-S`).
    NoPipeS,
    /// `streams` independent execution streams, each running the sequential
    /// per-tile workflow, contending for CPU cores and GPUs (`NoPipe-M`).
    NoPipeM {
        /// Number of concurrent streams.
        streams: u32,
    },
    /// The fully pipelined SCCG framework (`Pipelined`).
    Pipelined,
}

/// How the modelled hybrid aggregator splits each batch between the GPU and
/// the spare CPU workers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HybridSplitMode {
    /// Every batch at the given GPU fraction (the pre-adaptive behavior).
    Static(f64),
    /// Batch-by-batch timing feedback through the real [`SplitController`]
    /// (seeded at 0.5), including its warm-up and convergence transient.
    Adaptive,
}

/// Result of modelling the pipelined scheme with a hybrid aggregator.
#[derive(Debug, Clone)]
pub struct HybridPipelineReport {
    /// Modelled makespan of the full pipelined scheme, seconds.
    pub seconds: f64,
    /// Busy seconds of the hybrid aggregation stage alone (sum of per-batch
    /// walls, each the max of the two substrate shares).
    pub aggregation_seconds: f64,
    /// The controller's per-batch split decisions.
    pub trace: SplitTrace,
}

/// A pool of identical execution slots; acquiring a slot schedules a task at
/// the earliest time both the task and a slot are ready.
#[derive(Debug, Clone)]
struct SlotPool {
    free_at: Vec<f64>,
}

impl SlotPool {
    fn new(slots: u32) -> Self {
        SlotPool {
            free_at: vec![0.0; slots.max(1) as usize],
        }
    }

    /// Schedules a task of length `duration` that becomes ready at `ready`;
    /// returns its completion time.
    fn acquire(&mut self, ready: f64, duration: f64) -> f64 {
        let (idx, _) = self
            .free_at
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite times"))
            .expect("pool has at least one slot");
        let start = self.free_at[idx].max(ready);
        let end = start + duration;
        self.free_at[idx] = end;
        end
    }

    fn makespan(&self) -> f64 {
        self.free_at.iter().fold(0.0, |acc, &t| acc.max(t))
    }
}

/// The performance model: platform + cost parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineModel {
    /// Platform being modelled.
    pub platform: PlatformConfig,
    /// Per-operation cost parameters.
    pub costs: CostParams,
}

impl PipelineModel {
    /// Creates a model with default (paper-calibrated) cost parameters.
    pub fn new(platform: PlatformConfig) -> Self {
        PipelineModel {
            platform,
            costs: CostParams::default(),
        }
    }

    fn gpu_time(&self, reference_seconds: f64) -> f64 {
        reference_seconds / self.platform.gpu_speed.max(1e-6)
    }

    /// Number of CPU workers dedicated to the parser stage in the pipelined
    /// scheme (the remaining workers host the builder, the filter and the
    /// aggregator's host thread, mirroring the thread layout of Figure 6).
    fn parser_slots(&self) -> u32 {
        (self.platform.cpu_workers / 2).max(2)
    }

    /// Simulated makespan (seconds) of processing `tiles` under `scheme`,
    /// with or without dynamic task migration (migration only affects the
    /// pipelined scheme, as in the paper).
    pub fn simulate(&self, scheme: Scheme, tiles: &[TileStats], migration: bool) -> f64 {
        let costs: Vec<TileCosts> = tiles.iter().map(|t| self.costs.tile_costs(t)).collect();
        match scheme {
            Scheme::NoPipeS => costs
                .iter()
                .map(|c| {
                    c.parse_cpu + c.build + c.filter + self.gpu_time(c.aggregate_gpu_unbatched)
                })
                .sum(),
            Scheme::NoPipeM { streams } => self.simulate_multi_stream(&costs, streams),
            Scheme::Pipelined => self.simulate_pipelined(&costs, migration),
        }
    }

    /// Multiple independent streams, each running the four stages back to
    /// back per tile; CPU phases contend for the worker slots and GPU phases
    /// for the GPU slots. GPU use is uncoordinated (no batching, contending
    /// kernel invocations), which the paper observes as serialization that
    /// leaves the CPU cores only ~50% utilized (§5.5).
    fn simulate_multi_stream(&self, costs: &[TileCosts], streams: u32) -> f64 {
        let streams = streams.max(1);
        let mut cpu = SlotPool::new(self.platform.cpu_workers);
        let mut gpu = SlotPool::new(self.platform.gpus.max(1));
        let contention = if streams > 1 {
            self.costs.uncoordinated_gpu_penalty.max(1.0)
        } else {
            1.0
        };
        let mut stream_ready = vec![0.0f64; streams as usize];
        for (i, c) in costs.iter().enumerate() {
            let s = i % streams as usize;
            let cpu_done = cpu.acquire(stream_ready[s], c.parse_cpu + c.build + c.filter);
            let gpu_done = gpu.acquire(
                cpu_done,
                self.gpu_time(c.aggregate_gpu_unbatched) * contention,
            );
            stream_ready[s] = gpu_done;
        }
        cpu.makespan().max(gpu.makespan())
    }

    /// The pipelined scheme, evaluated with a steady-state bottleneck model:
    /// with every stage overlapped through the inter-stage buffers, the
    /// makespan is governed by the busiest stage (parser pool, builder,
    /// filter, or GPU aggregator) plus the latency of filling the pipeline
    /// with the first tile.
    ///
    /// Dynamic task migration re-balances the two flexible stages exactly as
    /// §4.2 describes: when the parser pool is the bottleneck and the GPU has
    /// spare capacity, a fraction of the parse work moves to GPU-Parser until
    /// the two equalize; when the GPU aggregator is the bottleneck, a
    /// fraction of the aggregation work moves to PixelBox-CPU on the CPU
    /// workers until the two equalize.
    fn simulate_pipelined(&self, costs: &[TileCosts], migration: bool) -> f64 {
        let slots = f64::from(self.parser_slots());
        let gpus = f64::from(self.platform.gpus.max(1));

        let total_parse_cpu: f64 = costs.iter().map(|c| c.parse_cpu).sum();
        let total_parse_gpu: f64 = costs.iter().map(|c| self.gpu_time(c.parse_gpu)).sum();
        let total_build: f64 = costs.iter().map(|c| c.build).sum();
        let total_filter: f64 = costs.iter().map(|c| c.filter).sum();
        let total_agg_gpu: f64 = costs.iter().map(|c| self.gpu_time(c.aggregate_gpu)).sum();
        let total_agg_cpu: f64 = costs.iter().map(|c| c.aggregate_cpu).sum();

        let mut parse_stage = total_parse_cpu / slots;
        let mut agg_stage = total_agg_gpu / gpus;

        if migration && parse_stage > agg_stage && total_parse_cpu > 0.0 {
            // GPU idle: move a fraction `x` of the parse work onto the GPU
            // until the parser pool and the GPU finish at the same time:
            //   P(1-x)/slots = A/gpus + Pg*x/gpus
            let x = ((parse_stage - agg_stage)
                / (total_parse_gpu / gpus + total_parse_cpu / slots))
                .clamp(0.0, 1.0);
            parse_stage = total_parse_cpu * (1.0 - x) / slots;
            agg_stage += total_parse_gpu * x / gpus;
        } else if migration && agg_stage > parse_stage && total_agg_gpu > 0.0 {
            // GPU congested: move a fraction `y` of the aggregation work onto
            // the CPU workers until both sides finish at the same time:
            //   A(1-y)/gpus = (P + Ac*y)/slots
            let y = ((agg_stage - parse_stage) / (total_agg_cpu / slots + total_agg_gpu / gpus))
                .clamp(0.0, 1.0);
            agg_stage = total_agg_gpu * (1.0 - y) / gpus;
            parse_stage = (total_parse_cpu + total_agg_cpu * y) / slots;
        }

        let bottleneck = parse_stage
            .max(agg_stage)
            .max(total_build)
            .max(total_filter);
        // Pipeline fill/drain latency: one average tile traversing all stages.
        let fill = if costs.is_empty() {
            0.0
        } else {
            let n = costs.len() as f64;
            (total_parse_cpu + total_build + total_filter + total_agg_gpu) / n
        };
        bottleneck + fill
    }

    /// CPU worker slots available to the aggregator's hybrid CPU share (the
    /// workers not hosting the parser pool; at least one).
    fn aggregation_cpu_slots(&self) -> u32 {
        self.platform
            .cpu_workers
            .saturating_sub(self.parser_slots())
            .max(1)
    }

    /// Models the pipelined scheme with a *hybrid* aggregator: each
    /// aggregator batch splits between the GPU and the spare CPU workers.
    /// Under [`HybridSplitMode::Adaptive`] the split is steered batch by
    /// batch by the **actual** [`SplitController`] (fed the modelled batch
    /// timings), so Table 1 can be reproduced with and without the feedback
    /// loop — including its warm-up and convergence transient; under
    /// [`HybridSplitMode::Static`] every batch uses the given fraction, the
    /// pre-adaptive behavior.
    pub fn simulate_pipelined_hybrid(
        &self,
        tiles: &[TileStats],
        mode: HybridSplitMode,
    ) -> HybridPipelineReport {
        let costs: Vec<TileCosts> = tiles.iter().map(|t| self.costs.tile_costs(t)).collect();
        let controller = SplitController::new(match mode {
            HybridSplitMode::Adaptive => SplitConfig::adaptive(0.5),
            HybridSplitMode::Static(fraction) => SplitConfig::fixed(fraction),
        });
        let cpu_slots = self.aggregation_cpu_slots();
        let batch_tiles = (self.costs.aggregator_batch_tiles.max(1.0)) as usize;

        let mut aggregation_seconds = 0.0;
        for batch in tiles.chunks(batch_tiles.max(1)) {
            let pairs: u64 = batch.iter().map(|t| t.pairs).sum();
            if pairs == 0 {
                continue;
            }
            let fraction = controller.next_fraction();
            let mut gpu_pairs = ((pairs as f64) * fraction).round().min(pairs as f64) as u64;
            if mode == HybridSplitMode::Adaptive && pairs >= 2 {
                // Same observability guarantee as the real hybrid backend:
                // rounding must not starve either substrate of samples.
                gpu_pairs = gpu_pairs.clamp(1, pairs - 1);
            }
            let cpu_pairs = pairs - gpu_pairs;
            let gpu_seconds = if gpu_pairs > 0 {
                self.gpu_time(
                    gpu_pairs as f64 * self.costs.pixelbox_gpu_per_pair
                        + self.costs.gpu_launch_overhead,
                )
            } else {
                0.0
            };
            let cpu_seconds =
                cpu_pairs as f64 * self.costs.pixelbox_cpu_per_pair / f64::from(cpu_slots);
            // Both shares run concurrently; the batch finishes with the
            // slower one — exactly what the controller equalizes.
            aggregation_seconds += gpu_seconds.max(cpu_seconds);
            controller.record(BatchObservation {
                gpu_pairs: gpu_pairs as usize,
                gpu_seconds,
                gpu_simulated_seconds: gpu_seconds,
                cpu_pairs: cpu_pairs as usize,
                cpu_seconds,
                cpu_workers: cpu_slots as usize,
                fraction_used: Some(fraction),
            });
        }

        // Same steady-state bottleneck structure as `simulate_pipelined`,
        // with the hybrid aggregation stage in place of the GPU-only one.
        // Aggregation-side task migration is subsumed by the intra-batch
        // split, so no separate migration term applies.
        let slots = f64::from(self.parser_slots());
        let total_parse: f64 = costs.iter().map(|c| c.parse_cpu).sum();
        let total_build: f64 = costs.iter().map(|c| c.build).sum();
        let total_filter: f64 = costs.iter().map(|c| c.filter).sum();
        let bottleneck = (total_parse / slots)
            .max(aggregation_seconds)
            .max(total_build)
            .max(total_filter);
        let fill = if costs.is_empty() {
            0.0
        } else {
            // One average tile traversing all stages, with the aggregation
            // leg costed at this run's *hybrid* per-tile wall (the GPU-only
            // per-tile cost would overstate the scheme it models).
            let n = costs.len() as f64;
            (total_parse + total_build + total_filter + aggregation_seconds) / n
        };
        HybridPipelineReport {
            seconds: bottleneck + fill,
            aggregation_seconds,
            trace: controller.trace(),
        }
    }

    /// Modelled single-core SDBMS execution time of the *optimized*
    /// cross-comparing query (Figure 1(b)): index build + index search +
    /// exact area-of-intersection per candidate pair. Loading time is
    /// excluded, matching §5.1.
    pub fn sdbms_single_core(&self, tiles: &[TileStats]) -> f64 {
        tiles
            .iter()
            .map(|t| {
                let c = self.costs.tile_costs(t);
                c.build + c.filter + c.aggregate_geos
            })
            .sum()
    }

    /// Modelled parallelized SDBMS execution (PostGIS-M, §5.7): the polygon
    /// tables are partitioned into chunks processed by independent query
    /// streams across the platform's CPU workers.
    pub fn sdbms_parallel(&self, tiles: &[TileStats]) -> f64 {
        let mut cpu = SlotPool::new(self.platform.cpu_workers);
        for t in tiles {
            let c = self.costs.tile_costs(t);
            cpu.acquire(0.0, c.build + c.filter + c.aggregate_geos);
        }
        cpu.makespan()
    }

    /// Throughput (bytes of raw text per second) of the pipelined scheme, the
    /// metric Figure 11 normalizes.
    pub fn pipelined_throughput(&self, tiles: &[TileStats], migration: bool) -> f64 {
        let bytes: u64 = tiles.iter().map(|t| t.text_bytes).sum();
        let seconds = self.simulate(Scheme::Pipelined, tiles, migration);
        if seconds <= 0.0 {
            0.0
        } else {
            bytes as f64 / seconds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_tiles(n: usize) -> Vec<TileStats> {
        (0..n)
            .map(|i| TileStats {
                // Text sizes reflect real segmentation output, where nucleus
                // boundaries carry 50–100 vertices (§5.1: ~1.6 KiB of text per
                // polygon), so parsing is a substantial share of CPU work.
                text_bytes: 90_000 + (i as u64 % 7) * 8_000,
                polygons: 400 + (i as u64 % 5) * 40,
                pairs: 220 + (i as u64 % 9) * 20,
                pair_pixels: 90_000 + (i as u64 % 3) * 10_000,
            })
            .collect()
    }

    #[test]
    fn tile_costs_are_positive_and_ordered() {
        let costs = CostParams::default().tile_costs(&synthetic_tiles(1)[0]);
        assert!(costs.parse_cpu > 0.0);
        assert!(costs.aggregate_geos > costs.aggregate_cpu);
        assert!(costs.aggregate_cpu > costs.aggregate_gpu);
        assert!(costs.build < costs.aggregate_geos);
    }

    #[test]
    fn slot_pool_serializes_on_one_slot_and_overlaps_on_many() {
        let mut one = SlotPool::new(1);
        one.acquire(0.0, 1.0);
        one.acquire(0.0, 1.0);
        assert!((one.makespan() - 2.0).abs() < 1e-12);
        let mut four = SlotPool::new(4);
        for _ in 0..4 {
            four.acquire(0.0, 1.0);
        }
        assert!((four.makespan() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table1_ordering_holds() {
        // Table 1: PostGIS-S >> NoPipe-S > NoPipe-M > Pipelined (in time).
        let tiles = synthetic_tiles(64);
        let model = PipelineModel::new(PlatformConfig::config_i());
        let postgis = model.sdbms_single_core(&tiles);
        let nopipe_s = model.simulate(Scheme::NoPipeS, &tiles, false);
        let nopipe_m = model.simulate(Scheme::NoPipeM { streams: 4 }, &tiles, false);
        let pipelined = model.simulate(Scheme::Pipelined, &tiles, false);
        assert!(
            postgis > nopipe_s * 10.0,
            "postgis {postgis} nopipe_s {nopipe_s}"
        );
        assert!(nopipe_s > nopipe_m);
        assert!(nopipe_m > pipelined);
    }

    #[test]
    fn migration_never_hurts_and_helps_most_on_config_i() {
        let tiles = synthetic_tiles(96);
        let gain = |platform: PlatformConfig| {
            let model = PipelineModel::new(platform);
            let without = model.pipelined_throughput(&tiles, false);
            let with = model.pipelined_throughput(&tiles, true);
            with / without
        };
        let g1 = gain(PlatformConfig::config_i());
        let g2 = gain(PlatformConfig::config_ii());
        let g3 = gain(PlatformConfig::config_iii());
        assert!(g1 >= 1.0 && g2 >= 1.0 && g3 >= 1.0);
        // Figure 11 shape: every configuration benefits, Config-III (slowed,
        // congested GPU) benefits the least.
        assert!(g1 > 1.05, "Config-I gain should be substantial, got {g1}");
        assert!(g2 > 1.02, "Config-II gain should be visible, got {g2}");
        assert!(g3 < g1, "g3 {g3} should be below g1 {g1}");
        assert!(g3 < g2 + 1e-9, "g3 {g3} should not exceed g2 {g2}");
    }

    #[test]
    fn adaptive_hybrid_split_beats_or_matches_every_static_fraction() {
        // The hybrid split's acceptance bar, modelled: on an
        // asymmetric platform the adaptive aggregation
        // stage must come within 10% of the best static fraction (and here
        // it beats them — the static fractions pay their imbalance on every
        // batch, the adaptive one only during convergence).
        let tiles = synthetic_tiles(96);
        let model = PipelineModel::new(PlatformConfig::config_i());
        let adaptive = model.simulate_pipelined_hybrid(&tiles, HybridSplitMode::Adaptive);
        let best_static = [0.25, 0.5, 0.75]
            .into_iter()
            .map(|f| {
                model
                    .simulate_pipelined_hybrid(&tiles, HybridSplitMode::Static(f))
                    .aggregation_seconds
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            adaptive.aggregation_seconds <= best_static * 1.10,
            "adaptive {} vs best static {best_static}",
            adaptive.aggregation_seconds
        );
    }

    #[test]
    fn adaptive_hybrid_trace_converges_and_static_stays_pinned() {
        let tiles = synthetic_tiles(96);
        let model = PipelineModel::new(PlatformConfig::config_i());
        let adaptive = model.simulate_pipelined_hybrid(&tiles, HybridSplitMode::Adaptive);
        // The modelled GPU is orders of magnitude faster per pair than the
        // spare CPU workers, so the balanced fraction is close to 1; the
        // trace must move from the 0.5 seed into that neighborhood.
        assert!(!adaptive.trace.is_empty());
        assert_eq!(adaptive.trace.samples()[0].fraction, 0.5);
        assert!(
            adaptive.trace.last_fraction().unwrap() > 0.9,
            "converged fraction {:?}",
            adaptive.trace.last_fraction()
        );
        let pinned = model.simulate_pipelined_hybrid(&tiles, HybridSplitMode::Static(0.6));
        assert!(pinned
            .trace
            .samples()
            .iter()
            .all(|s| s.fraction == 0.6 && s.next_fraction == 0.6));
        // The full-scheme makespan is finite and at least the stage time.
        assert!(adaptive.seconds >= adaptive.aggregation_seconds);
    }

    #[test]
    fn parallel_sdbms_scales_with_workers() {
        let tiles = synthetic_tiles(64);
        let model = PipelineModel::new(PlatformConfig::postgis_m_platform());
        let single = model.sdbms_single_core(&tiles);
        let parallel = model.sdbms_parallel(&tiles);
        assert!(parallel < single);
        assert!(parallel > single / 16.0);
    }

    #[test]
    fn sccg_beats_parallel_sdbms_by_over_an_order_of_magnitude() {
        // The headline claim (abstract, §5.7) is >18x over parallelized
        // PostGIS on the full-size data sets; on the scaled-down synthetic
        // workload the fixed per-tile overheads weigh more, so the model is
        // required to show "over half an order of magnitude" here, with the
        // full-shape comparison printed by `reproduce fig12`.
        let tiles = synthetic_tiles(128);
        let sccg = PipelineModel::new(PlatformConfig::config_i());
        let postgis = PipelineModel::new(PlatformConfig::postgis_m_platform());
        let speedup =
            postgis.sdbms_parallel(&tiles) / sccg.simulate(Scheme::Pipelined, &tiles, true);
        assert!(speedup > 6.0, "speedup {speedup}");
    }

    #[test]
    fn more_streams_do_not_slow_down_nopipe_m() {
        let tiles = synthetic_tiles(40);
        let model = PipelineModel::new(PlatformConfig::config_i());
        let one = model.simulate(Scheme::NoPipeM { streams: 1 }, &tiles, false);
        let four = model.simulate(Scheme::NoPipeM { streams: 4 }, &tiles, false);
        assert!(four <= one + 1e-9);
    }

    #[test]
    fn tile_stats_can_be_derived_from_generated_tiles() {
        let tile = sccg_datagen::generate_tile_pair(&sccg_datagen::TileSpec {
            target_polygons: 50,
            width: 512,
            height: 512,
            seed: 5,
            ..Default::default()
        });
        let stats = TileStats::from_tile(&tile);
        assert!(stats.text_bytes > 0);
        assert_eq!(stats.polygons as usize, tile.polygon_count());
        assert!(stats.pairs > 0);
        assert!(stats.pair_pixels >= stats.pairs);
    }
}
