//! The pipelined cross-comparing framework with dynamic task migration
//! (paper §4, Figure 6), executed as an **event-driven streaming pipeline**.
//!
//! The workflow from raw polygon text files to the final similarity score
//! runs as four stages connected by *bounded* buffers:
//!
//! 1. **Parser** — multiple parser tasks turn polygon text files into binary
//!    polygon records. Each task parses one tile at a time with the one-pass
//!    [`parse_polygon_file`]; the stage's parallelism is across tiles, never
//!    across the records of one file.
//! 2. **Builder** — a single task bulk-loads a Hilbert R-tree over each
//!    tile's second polygon set.
//! 3. **Filter** — a single task probes the index with the first polygon
//!    set, emitting the array of MBR-intersecting pairs.
//! 4. **Aggregator** — a single task owns the (simulated) GPU, batches
//!    filtered tasks and runs the PixelBox kernel, folding the per-pair
//!    ratios into the Jaccard similarity.
//!
//! # Execution model
//!
//! Every stage is a future spawned on a small hand-rolled task executor
//! ([`exec`]) whose tasks are polled on the process-wide
//! [`WorkerPool`](crate::parallel::WorkerPool) — the same threads the
//! kernels fan out to. The stages communicate
//! through bounded async channels whose `send` suspends (without occupying
//! a thread) while the downstream buffer is full, and each stage yields
//! after handing a tile on, so the stages take turns tile by tile on the
//! pool's threads. Backpressure propagates all the way to the input:
//! [`Pipeline::run_streaming`] pulls tasks from the caller's iterator *only
//! as buffer space frees up*, so a dataset of any length streams through
//! with **O(buffer capacity) tiles resident**, never O(dataset). The
//! observed high-water mark is reported as
//! [`PipelineReport::peak_in_flight_tiles`].
//!
//! Tasks are defined at image-tile granularity, matching the segmentation
//! procedure (§4.1). The two *migration heuristics* of §4.2 are event-driven
//! reactions to queue-depth changes of the aggregator's input buffer
//! (subscribed via [`exec::Receiver::register_watch`], replacing the former
//! sleep-polling threads): when the buffer fills up (GPU congested), a
//! migration task pulls aggregation work out and runs PixelBox-CPU on it;
//! when it runs empty (GPU idle), another migration task pulls parse tasks
//! forward through the GPU parser path.
//!
//! The streaming pipeline here is functionally real — every result is
//! computed by the actual stages. Its wall-clock overlap depends on the
//! host's cores and on what else runs on them, so it is not reproducible;
//! the *performance* of the different execution schemes is reproduced by
//! the deterministic model in [`model`], fed by the same per-tile
//! statistics.

pub mod exec;
pub mod model;

use crate::engine::{CrossComparison, EngineConfig};
use crate::jaccard::{JaccardAccumulator, JaccardSummary};
use crate::pixelbox::{ComputeBackend, CpuBackend, PolygonPair};
use crate::sync::lock;
use sccg_datagen::TilePair;
use sccg_geometry::text::{parse_polygon_file, PolygonRecord};
use sccg_geometry::Rect;
use sccg_gpu_sim::Device;
use sccg_rtree::HilbertRTree;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};
use std::time::Instant;

/// Configuration of the pipelined framework: the four stage settings plus
/// the [`EngineConfig`] of the aggregator's engine (substrate, simulated
/// GPU, PixelBox parameters, CPU workers and hybrid split), which every run
/// builds afresh.
///
/// Marked `#[non_exhaustive]` so future fields are not breaking changes:
/// construct it with [`PipelineConfig::default`] and the `with_*` builder
/// methods rather than a struct literal.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct PipelineConfig {
    /// Number of parser tasks. Tasks are polled on the shared
    /// [`WorkerPool`](crate::parallel::WorkerPool), so this bounds how many
    /// tiles parse at once, not a thread count. It is the parser stage's
    /// only parallelism: a task parses its tile's files sequentially.
    pub parser_workers: usize,
    /// Capacity of each inter-stage buffer — including the input buffer —
    /// in tasks. This bounds the pipeline's peak memory: see
    /// [`PipelineReport::peak_in_flight_tiles`].
    pub buffer_capacity: usize,
    /// Whether the dynamic task-migration tasks run.
    pub enable_migration: bool,
    /// Maximum number of filtered tasks the aggregator groups into one GPU
    /// batch (input data batching, §4.1).
    pub aggregator_batch: usize,
    /// The aggregator's engine. Its `gpu` is the simulated device the
    /// pipeline owns for its lifetime; its substrate, PixelBox parameters,
    /// CPU workers and hybrid split are applied per run, each run with a
    /// fresh split controller.
    pub engine: EngineConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            parser_workers: 2,
            buffer_capacity: 8,
            enable_migration: true,
            aggregator_batch: 8,
            engine: EngineConfig::default(),
        }
    }
}

impl PipelineConfig {
    /// Returns a copy with a different parser worker count.
    pub fn with_parser_workers(mut self, parser_workers: usize) -> Self {
        self.parser_workers = parser_workers;
        self
    }

    /// Returns a copy with a different inter-stage buffer capacity.
    pub fn with_buffer_capacity(mut self, buffer_capacity: usize) -> Self {
        self.buffer_capacity = buffer_capacity;
        self
    }

    /// Returns a copy with dynamic task migration enabled or disabled.
    pub fn with_migration(mut self, enable_migration: bool) -> Self {
        self.enable_migration = enable_migration;
        self
    }

    /// Returns a copy with a different aggregator batch size.
    pub fn with_aggregator_batch(mut self, aggregator_batch: usize) -> Self {
        self.aggregator_batch = aggregator_batch;
        self
    }

    /// Returns a copy whose aggregator runs a different engine.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }
}

/// Input task for the parser stage: the two polygon text files of one tile.
#[derive(Debug, Clone)]
pub struct ParseTask {
    /// Tile identifier.
    pub tile_id: u32,
    /// Text of the first segmentation result's polygon file.
    pub first_text: String,
    /// Text of the second segmentation result's polygon file.
    pub second_text: String,
}

impl ParseTask {
    /// Builds a parse task from an in-memory tile pair by serializing it to
    /// the text format (what a segmentation pipeline would have written to
    /// disk).
    pub fn from_tile_pair(tile: &TilePair) -> Self {
        ParseTask {
            tile_id: tile.tile_id,
            first_text: tile.first_as_text(),
            second_text: tile.second_as_text(),
        }
    }
}

/// Output of the parser stage.
struct ParsedTile {
    first: Vec<PolygonRecord>,
    second: Vec<PolygonRecord>,
}

/// Output of the builder stage.
struct IndexedTile {
    first: Vec<PolygonRecord>,
    second: Vec<PolygonRecord>,
    index: HilbertRTree<u32>,
}

/// Output of the filter stage / input of the aggregator.
struct FilteredTile {
    pairs: Vec<PolygonPair>,
}

/// Per-stage busy wall-clock time, in seconds. How much the stage times
/// overlap depends on the host and its load, so they are reported for
/// observability, while the scheme comparisons use [`model`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageSeconds {
    /// Parser workers (CPU).
    pub parse: f64,
    /// Builder task.
    pub build: f64,
    /// Filter task.
    pub filter: f64,
    /// Aggregator host time (including the functional half of the simulated
    /// kernel execution).
    pub aggregate_host: f64,
    /// Simulated GPU busy time (kernels + transfers).
    pub aggregate_gpu_simulated: f64,
    /// CPU time spent on aggregation tasks migrated off the GPU.
    pub aggregate_migrated_cpu: f64,
}

/// Result of one pipeline run over a set of tiles.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Jaccard similarity summary over every tile processed.
    pub summary: JaccardSummary,
    /// Number of tiles processed.
    pub tiles: usize,
    /// Number of candidate pairs aggregated.
    pub candidate_pairs: u64,
    /// Aggregation tasks migrated from the GPU to the CPU.
    pub migrated_to_cpu: u64,
    /// Parse tasks migrated from CPU workers to the GPU parser path.
    pub migrated_to_gpu: u64,
    /// High-water mark of tiles resident in the pipeline at once: admitted
    /// from the input iterator but not yet folded by the aggregator. Bounded
    /// by the buffers, not the dataset: at most `4 × buffer_capacity` (the
    /// four inter-stage buffers) plus one tile in the hands of the feeder
    /// and of each stage task (`parser_workers + 4`, plus 2 with migration
    /// enabled) plus the aggregator's in-progress batch
    /// (`aggregator_batch − 1`) and, with migration, one CPU-migration
    /// quantum (`buffer_capacity − 1`). See
    /// [`PipelineReport::in_flight_bound`].
    pub peak_in_flight_tiles: usize,
    /// Per-stage busy times.
    pub stage_seconds: StageSeconds,
    /// Per-batch hybrid split decisions, when the aggregator dispatched to
    /// [`AggregationDevice::Hybrid`](crate::pixelbox::AggregationDevice::Hybrid)
    /// (`None` for single-substrate runs).
    pub split_trace: Option<crate::pixelbox::SplitTrace>,
}

impl PipelineReport {
    /// The final `J'` similarity. Guarded against degenerate summaries
    /// ([`JaccardSummary::similarity_or_zero`]): a run with no intersecting
    /// pairs (or a hand-built report whose ratio denominator was zero)
    /// reports `0.0`, never `NaN`.
    pub fn similarity(&self) -> f64 {
        self.summary.similarity_or_zero()
    }

    /// The analytic bound on [`PipelineReport::peak_in_flight_tiles`] for a
    /// configuration — what the bounded-memory regression test asserts
    /// against. O(buffer capacity), independent of the dataset length.
    pub fn in_flight_bound(config: &PipelineConfig) -> usize {
        let capacity = config.buffer_capacity.max(1);
        // One tile in the feeder's hand (pulled from the iterator, awaiting
        // buffer space) plus one in each stage task's hands.
        let hands =
            1 + config.parser_workers.max(1) + 3 + if config.enable_migration { 2 } else { 0 };
        let batching = config.aggregator_batch.max(1) - 1;
        let migration_quantum = if config.enable_migration {
            capacity - 1
        } else {
            0
        };
        4 * capacity + hands + batching + migration_quantum
    }
}

/// Target busy time of one CPU migration batch. The migration task pulls
/// congested aggregation tasks until their estimated single-worker compute
/// time (from the split controller's observed CPU rate) fills this slice, so
/// each migration amortizes the steal overhead without holding work hostage
/// from a GPU that may drain the congestion first.
const MIGRATION_SLICE_SECONDS: f64 = 0.02;

/// The pipelined cross-comparing framework.
#[derive(Debug)]
pub struct Pipeline {
    config: PipelineConfig,
    device: Arc<Device>,
}

struct SharedState {
    accumulator: Mutex<JaccardAccumulator>,
    candidate_pairs: AtomicU64,
    tiles_done: AtomicU64,
    /// Tasks pulled from the input iterator so far.
    admitted: AtomicU64,
    /// High-water mark of `admitted − tiles_done`.
    peak_in_flight: AtomicU64,
    migrated_to_cpu: AtomicU64,
    migrated_to_gpu: AtomicU64,
    parse_nanos: AtomicU64,
    build_nanos: AtomicU64,
    filter_nanos: AtomicU64,
    aggregate_host_nanos: AtomicU64,
    aggregate_migrated_nanos: AtomicU64,
}

impl SharedState {
    fn new() -> Self {
        SharedState {
            accumulator: Mutex::new(JaccardAccumulator::new()),
            candidate_pairs: AtomicU64::new(0),
            tiles_done: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            peak_in_flight: AtomicU64::new(0),
            migrated_to_cpu: AtomicU64::new(0),
            migrated_to_gpu: AtomicU64::new(0),
            parse_nanos: AtomicU64::new(0),
            build_nanos: AtomicU64::new(0),
            filter_nanos: AtomicU64::new(0),
            aggregate_host_nanos: AtomicU64::new(0),
            aggregate_migrated_nanos: AtomicU64::new(0),
        }
    }

    fn add_nanos(counter: &AtomicU64, started: Instant) {
        counter.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Accounts one task pulled from the input iterator and samples the
    /// in-flight high-water mark. The sample conservatively over-counts (a
    /// tile may finish between the two loads), so the recorded peak is an
    /// upper bound on the true peak — exactly what a memory-bound assertion
    /// wants.
    fn record_admitted(&self) {
        let admitted = self.admitted.fetch_add(1, Ordering::Relaxed) + 1;
        let done = self.tiles_done.load(Ordering::Relaxed);
        self.peak_in_flight
            .fetch_max(admitted.saturating_sub(done), Ordering::Relaxed);
    }

    /// Folds one aggregated batch into the shared accumulator and counters.
    fn fold_batch(&self, areas: &[crate::pixelbox::PairAreas], tiles: u64) {
        let mut acc = JaccardAccumulator::new();
        for a in areas {
            acc.add_pair(*a);
        }
        lock(&self.accumulator).merge(&acc);
        self.candidate_pairs
            .fetch_add(areas.len() as u64, Ordering::Relaxed);
        self.tiles_done.fetch_add(tiles, Ordering::Relaxed);
    }
}

/// Steals a parse task for the GPU parser path once the aggregator's input
/// buffer runs empty (GPU idleness indication, §4.2). Resolves to `None`
/// when the input is exhausted. Event-driven: between relevant queue-depth
/// changes the migration task is suspended, occupying no thread — the
/// replacement for the former 100 µs sleep-poll loop.
struct ParseSteal<'a> {
    parse: &'a exec::Receiver<ParseTask>,
    agg_probe: &'a exec::Receiver<FilteredTile>,
}

impl Future for ParseSteal<'_> {
    type Output = Option<ParseTask>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // Subscribe before checking: any depth change after this point
        // re-polls us, so the checks below cannot miss an event.
        self.parse.register_watch(cx.waker());
        self.agg_probe.register_watch(cx.waker());
        if self.agg_probe.is_empty() {
            match self.parse.try_recv() {
                Ok(task) => Poll::Ready(Some(task)),
                Err(exec::TryRecvError::Disconnected) => Poll::Ready(None),
                Err(exec::TryRecvError::Empty) => Poll::Pending,
            }
        } else if self.parse.is_finished() {
            Poll::Ready(None)
        } else {
            Poll::Pending
        }
    }
}

/// Steals an aggregation task for PixelBox-CPU once the aggregator's input
/// buffer has filled up (GPU congestion indication, §4.2). Resolves to
/// `None` when the buffer is drained and disconnected.
struct CongestedSteal<'a> {
    agg: &'a exec::Receiver<FilteredTile>,
    capacity: usize,
}

impl Future for CongestedSteal<'_> {
    type Output = Option<FilteredTile>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.agg.register_watch(cx.waker());
        if self.agg.len() >= self.capacity {
            if let Ok(task) = self.agg.try_recv() {
                return Poll::Ready(Some(task));
            }
        }
        if self.agg.is_finished() {
            Poll::Ready(None)
        } else {
            Poll::Pending
        }
    }
}

impl Pipeline {
    /// Creates a pipeline with its own simulated GPU device, built from
    /// `config.engine.gpu`.
    pub fn new(config: PipelineConfig) -> Self {
        let device = Arc::new(Device::new(config.engine.gpu.clone()));
        Pipeline { config, device }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The simulated GPU owned by the aggregator stage.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// Runs the full workflow over a pre-materialized set of parse tasks.
    /// Equivalent to [`Pipeline::run_streaming`] over the vector's iterator;
    /// prefer `run_streaming` when tasks can be produced lazily, so the
    /// whole task list never has to exist in memory at once.
    pub fn run(&self, tasks: Vec<ParseTask>) -> PipelineReport {
        self.run_streaming(tasks.into_iter())
    }

    /// Runs the full workflow over a *stream* of parse tasks and returns the
    /// similarity report.
    ///
    /// The iterator is advanced from the calling thread, and only as buffer
    /// space frees up: when every bounded stage buffer is full, the next
    /// `next()` call is deferred until the aggregator drains a tile. Peak
    /// resident tiles are therefore O([`PipelineConfig::buffer_capacity`])
    /// regardless of how many tasks the iterator yields (asserted by the
    /// bounded-memory regression test; observed value in
    /// [`PipelineReport::peak_in_flight_tiles`]).
    pub fn run_streaming(&self, tasks: impl Iterator<Item = ParseTask>) -> PipelineReport {
        let shared = Arc::new(SharedState::new());
        let gpu_busy_before = self.device.stats().busy_seconds;

        // The aggregator's engine (and, for the hybrid substrate, its fresh
        // split controller) exists before any task starts: the migration
        // task consults the controller's observed rates while the
        // aggregator feeds it per-batch timings.
        let engine = CrossComparison::with_device(
            self.config.engine.clone(),
            Arc::clone(&self.device),
            None,
        );
        let split_controller = engine.split_controller().cloned();

        let capacity = self.config.buffer_capacity.max(1);
        let (parse_tx, parse_rx) = exec::channel::<ParseTask>(capacity);
        let (build_tx, build_rx) = exec::channel::<ParsedTile>(capacity);
        let (filter_tx, filter_rx) = exec::channel::<IndexedTile>(capacity);
        let (agg_tx, agg_rx) = exec::channel::<FilteredTile>(capacity);

        // Every stage task is polled on the shared pool's threads;
        // suspended tasks occupy none of them.
        let parser_workers = self.config.parser_workers.max(1);
        let executor = exec::Executor::new(crate::parallel::WorkerPool::global());

        // --- Parser tasks --------------------------------------------------
        for _ in 0..parser_workers {
            let parse_rx = parse_rx.clone();
            let build_tx = build_tx.clone();
            let shared = Arc::clone(&shared);
            executor.spawn(async move {
                while let Some(task) = parse_rx.recv().await {
                    let started = Instant::now();
                    let parsed = parse_task(&task);
                    SharedState::add_nanos(&shared.parse_nanos, started);
                    if build_tx.send(parsed).await.is_err() {
                        break;
                    }
                    // Let the stages take turns tile by tile. Polled until
                    // it blocks, a stage with a backlog would work through
                    // all of it on its worker while the tiles it sent cool
                    // down in the next buffer.
                    exec::yield_now().await;
                }
            });
        }

        // --- Migration task: parse tasks onto the idle GPU ------------------
        if self.config.enable_migration {
            let parse_rx = parse_rx.clone();
            let build_tx = build_tx.clone();
            let agg_probe = agg_rx.clone();
            let shared = Arc::clone(&shared);
            let device = Arc::clone(&self.device);
            executor.spawn(async move {
                while let Some(task) = (ParseSteal {
                    parse: &parse_rx,
                    agg_probe: &agg_probe,
                })
                .await
                {
                    let bytes = (task.first_text.len() + task.second_text.len()) as u64;
                    // The GPU parser produces the same records; bill the
                    // transfer of the raw text to the device to account for
                    // its use.
                    device.transfer(bytes);
                    let parsed = parse_task(&task);
                    shared.migrated_to_gpu.fetch_add(1, Ordering::Relaxed);
                    if build_tx.send(parsed).await.is_err() {
                        break;
                    }
                    exec::yield_now().await;
                }
            });
        }
        drop(parse_rx);
        drop(build_tx);

        // --- Migration task: aggregation tasks onto the CPU -----------------
        if self.config.enable_migration {
            let agg_rx = agg_rx.clone();
            let shared = Arc::clone(&shared);
            let pixelbox = self.config.engine.pixelbox;
            let controller = split_controller.clone();
            executor.spawn(async move {
                // The migration target is always a single-worker CPU
                // backend: the extra CPU share of §4.2 is the one pool
                // worker polling this task, not another fan-out.
                let migration_backend = CpuBackend::new(1);
                while let Some(first) = (CongestedSteal {
                    agg: &agg_rx,
                    capacity,
                })
                .await
                {
                    let started = Instant::now();
                    let mut pairs = first.pairs;
                    let mut tiles = 1u64;
                    // Size the migration batch from the controller's
                    // observed per-worker CPU rate: keep pulling congested
                    // tasks until the accumulated pairs fill one migration
                    // time slice, instead of the fixed one-task quantum.
                    // Without an observed rate (single-substrate aggregator,
                    // or no data yet) the quantum stays one task. The tile
                    // bound keeps the in-hand data O(buffer capacity) — the
                    // bounded-memory guarantee extends to migration.
                    let quantum_pairs = controller
                        .as_ref()
                        .and_then(|c| c.observed_cpu_rate_per_worker())
                        .map_or(0.0, |rate| rate * MIGRATION_SLICE_SECONDS);
                    while (pairs.len() as f64) < quantum_pairs
                        && tiles < capacity as u64
                        && agg_rx.len() >= capacity.div_ceil(2)
                    {
                        match agg_rx.try_recv() {
                            Ok(extra) => {
                                pairs.extend(extra.pairs);
                                tiles += 1;
                            }
                            Err(_) => break,
                        }
                    }
                    let batch = migration_backend.compute_batch(&pairs, &pixelbox);
                    let seconds = started.elapsed().as_secs_f64();
                    shared.fold_batch(&batch.areas, tiles);
                    // Every migrated run is a valid sample of the
                    // single-worker CPU rate.
                    if let Some(controller) = &controller {
                        controller.record_cpu_sample(pairs.len(), seconds, 1);
                    }
                    shared.migrated_to_cpu.fetch_add(tiles, Ordering::Relaxed);
                    SharedState::add_nanos(&shared.aggregate_migrated_nanos, started);
                }
            });
        }

        // --- Builder --------------------------------------------------------
        {
            let shared = Arc::clone(&shared);
            executor.spawn(async move {
                while let Some(parsed) = build_rx.recv().await {
                    let started = Instant::now();
                    let index = HilbertRTree::bulk_load(
                        parsed
                            .second
                            .iter()
                            .enumerate()
                            .map(|(j, r)| (r.polygon.mbr(), j as u32))
                            .collect(),
                    );
                    // Prewarm every record's edge table while the tile is
                    // still records: the filter stage clones polygons into
                    // pairs, and a clone shares an already-built table but
                    // starts cold otherwise — so building here costs one
                    // build per polygon per tile instead of one per pair
                    // membership at first kernel touch.
                    let polygons: Vec<_> = parsed
                        .first
                        .iter()
                        .chain(parsed.second.iter())
                        .map(|record| &record.polygon)
                        .collect();
                    crate::pixelbox::build_edge_tables_batch(
                        &polygons,
                        crate::parallel::default_workers(),
                    );
                    let tile = IndexedTile {
                        first: parsed.first,
                        second: parsed.second,
                        index,
                    };
                    SharedState::add_nanos(&shared.build_nanos, started);
                    if filter_tx.send(tile).await.is_err() {
                        break;
                    }
                    exec::yield_now().await;
                }
            });
        }

        // --- Filter ---------------------------------------------------------
        {
            let shared = Arc::clone(&shared);
            executor.spawn(async move {
                while let Some(tile) = filter_rx.recv().await {
                    let started = Instant::now();
                    let mut pairs = Vec::new();
                    for record in &tile.first {
                        let mbr: Rect = record.polygon.mbr();
                        tile.index.search(&mbr, |_, &j| {
                            pairs.push(PolygonPair::new(
                                record.polygon.clone(),
                                tile.second[j as usize].polygon.clone(),
                            ));
                        });
                    }
                    SharedState::add_nanos(&shared.filter_nanos, started);
                    if agg_tx.send(FilteredTile { pairs }).await.is_err() {
                        break;
                    }
                    exec::yield_now().await;
                }
            });
        }

        // --- Aggregator -----------------------------------------------------
        {
            let shared = Arc::clone(&shared);
            let pixelbox = self.config.engine.pixelbox;
            let aggregator_batch = self.config.aggregator_batch.max(1) as u64;
            executor.spawn(async move {
                while let Some(first) = agg_rx.recv().await {
                    // Batch additional tasks that are already waiting (§4.1).
                    let mut batch_pairs = first.pairs;
                    let mut batch_tiles = 1u64;
                    while batch_tiles < aggregator_batch {
                        match agg_rx.try_recv() {
                            Ok(task) => {
                                batch_pairs.extend(task.pairs);
                                batch_tiles += 1;
                            }
                            Err(_) => break,
                        }
                    }
                    let started = Instant::now();
                    let result = engine.backend().compute_batch(&batch_pairs, &pixelbox);
                    shared.fold_batch(&result.areas, batch_tiles);
                    SharedState::add_nanos(&shared.aggregate_host_nanos, started);
                }
            });
        }

        // --- Feeder (the calling thread) ------------------------------------
        // Backpressure reaches the iterator here: `send` suspends while the
        // input buffer is full, so `tasks.next()` is only called when the
        // pipeline has room for the result.
        for task in tasks {
            shared.record_admitted();
            if parse_tx.send_blocking(task).is_err() {
                break;
            }
        }
        drop(parse_tx); // Parser tasks drain until disconnected.
        executor.wait_idle();

        let submitted = shared.admitted.load(Ordering::Relaxed) as usize;
        let gpu_busy_after = self.device.stats().busy_seconds;
        let summary = lock(&shared.accumulator).summary();
        let mut report = PipelineReport {
            summary,
            tiles: shared.tiles_done.load(Ordering::Relaxed) as usize,
            candidate_pairs: shared.candidate_pairs.load(Ordering::Relaxed),
            migrated_to_cpu: shared.migrated_to_cpu.load(Ordering::Relaxed),
            migrated_to_gpu: shared.migrated_to_gpu.load(Ordering::Relaxed),
            peak_in_flight_tiles: shared.peak_in_flight.load(Ordering::Relaxed) as usize,
            stage_seconds: StageSeconds {
                parse: shared.parse_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
                build: shared.build_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
                filter: shared.filter_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
                aggregate_host: shared.aggregate_host_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
                aggregate_gpu_simulated: gpu_busy_after - gpu_busy_before,
                aggregate_migrated_cpu: shared.aggregate_migrated_nanos.load(Ordering::Relaxed)
                    as f64
                    * 1e-9,
            },
            split_trace: split_controller.map(|controller| controller.trace()),
        };
        // Defensive clamp: every admitted task is processed exactly once.
        report.tiles = report.tiles.min(submitted);
        report
    }
}

/// Parses both polygon files of a task. Parse failures are treated as empty
/// segmentation results: a malformed tile must not abort a whole-slide
/// comparison (the workflow skips malformed tiles).
fn parse_task(task: &ParseTask) -> ParsedTile {
    ParsedTile {
        first: parse_polygon_file(&task.first_text).unwrap_or_default(),
        second: parse_polygon_file(&task.second_text).unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixelbox::{AggregationDevice, SplitPolicy};
    use sccg_datagen::{generate_dataset, DatasetSpec};

    fn small_dataset() -> sccg_datagen::Dataset {
        generate_dataset(&DatasetSpec {
            name: "pipeline-test".into(),
            tiles: 6,
            polygons_per_tile: 40,
            tile_size: 512,
            seed: 77,
            nucleus_radius: 6,
        })
    }

    fn tasks_of(dataset: &sccg_datagen::Dataset) -> Vec<ParseTask> {
        dataset
            .tiles
            .iter()
            .map(ParseTask::from_tile_pair)
            .collect()
    }

    #[test]
    fn pipeline_matches_direct_engine_results() {
        let dataset = small_dataset();
        let pipeline = Pipeline::new(PipelineConfig {
            enable_migration: false,
            ..PipelineConfig::default()
        });
        let report = pipeline.run(tasks_of(&dataset));

        // Reference: compare each tile directly with the engine and merge.
        let engine = CrossComparison::new(EngineConfig::default());
        let mut acc = JaccardAccumulator::new();
        for tile in &dataset.tiles {
            let r = engine.compare_records(&tile.first, &tile.second);
            for areas in &r.pair_areas {
                acc.add_pair(*areas);
            }
        }
        let expected = acc.summary();
        assert_eq!(report.summary.candidate_pairs, expected.candidate_pairs);
        assert_eq!(
            report.summary.intersecting_pairs,
            expected.intersecting_pairs
        );
        assert!((report.similarity() - expected.similarity).abs() < 1e-12);
        assert_eq!(report.tiles, dataset.tiles.len());
        assert_eq!(report.migrated_to_cpu + report.migrated_to_gpu, 0);
        assert!(report.stage_seconds.parse > 0.0);
        assert!(report.stage_seconds.aggregate_gpu_simulated > 0.0);
    }

    #[test]
    fn migration_enabled_produces_identical_similarity() {
        let dataset = small_dataset();
        let without = Pipeline::new(PipelineConfig {
            enable_migration: false,
            ..PipelineConfig::default()
        })
        .run(tasks_of(&dataset));
        let with = Pipeline::new(PipelineConfig {
            enable_migration: true,
            buffer_capacity: 2,
            ..PipelineConfig::default()
        })
        .run(tasks_of(&dataset));
        assert_eq!(
            with.summary.candidate_pairs,
            without.summary.candidate_pairs
        );
        assert!((with.similarity() - without.similarity()).abs() < 1e-12);
        assert_eq!(with.tiles, without.tiles);
    }

    #[test]
    fn pipeline_aggregation_devices_agree() {
        // The aggregator must produce the same similarity regardless of the
        // substrate it dispatches to — CPU, GPU or the hybrid split.
        let dataset = small_dataset();
        let reference = Pipeline::new(PipelineConfig {
            enable_migration: false,
            ..PipelineConfig::default()
        })
        .run(tasks_of(&dataset));
        assert!(reference.split_trace.is_none(), "GPU runs carry no trace");
        for (device, split_policy) in [
            (AggregationDevice::Cpu, SplitPolicy::Adaptive),
            (AggregationDevice::Hybrid, SplitPolicy::Adaptive),
            (AggregationDevice::Hybrid, SplitPolicy::Static),
        ] {
            let report = Pipeline::new(PipelineConfig {
                enable_migration: false,
                engine: EngineConfig::default()
                    .with_device(device)
                    .with_split_policy(split_policy),
                ..PipelineConfig::default()
            })
            .run(tasks_of(&dataset));
            assert_eq!(
                report.summary.candidate_pairs, reference.summary.candidate_pairs,
                "{device:?}/{split_policy:?}"
            );
            assert_eq!(
                report.summary.intersecting_pairs, reference.summary.intersecting_pairs,
                "{device:?}/{split_policy:?}"
            );
            assert!(
                (report.similarity() - reference.similarity()).abs() < 1e-12,
                "{device:?}/{split_policy:?}"
            );
            if device == AggregationDevice::Hybrid {
                let trace = report.split_trace.as_ref().expect("hybrid runs trace");
                assert!(!trace.is_empty());
                assert!(trace
                    .samples()
                    .iter()
                    .all(|s| (0.0..=1.0).contains(&s.next_fraction)));
                if split_policy == SplitPolicy::Static {
                    assert!(trace.samples().iter().all(|s| s.next_fraction == 0.5));
                }
            }
        }
    }

    #[test]
    fn every_run_of_one_pipeline_starts_a_fresh_split_controller() {
        // A pipeline is reused across runs (a batch job streams one slide
        // after another through it); each run must learn its split from the
        // seed again rather than inherit the previous run's controller.
        let dataset = small_dataset();
        let seed = 0.5;
        // One tile per batch, so a run records one sample per tile.
        let pipeline = Pipeline::new(PipelineConfig {
            enable_migration: false,
            aggregator_batch: 1,
            engine: EngineConfig::default()
                .with_device(AggregationDevice::Hybrid)
                .with_hybrid_gpu_fraction(seed),
            ..PipelineConfig::default()
        });
        let traces: Vec<_> = (0..2)
            .map(|_| {
                let report = pipeline.run(tasks_of(&dataset));
                report.split_trace.expect("hybrid runs trace")
            })
            .collect();
        assert_eq!(traces[0].len(), dataset.tiles.len());
        assert_eq!(traces[0].len(), traces[1].len());
        for trace in &traces {
            let first = trace.samples()[0];
            assert_eq!((first.batch, first.fraction), (0, seed));
        }
    }

    #[test]
    fn empty_input_is_handled() {
        let pipeline = Pipeline::new(PipelineConfig::default());
        let report = pipeline.run(Vec::new());
        assert_eq!(report.tiles, 0);
        assert_eq!(report.candidate_pairs, 0);
        assert_eq!(report.similarity(), 0.0);
        assert_eq!(report.peak_in_flight_tiles, 0);
    }

    #[test]
    fn similarity_accessor_guards_degenerate_summaries() {
        // An empty run reports 0.0, and even a hand-built report whose
        // summary carries a NaN ratio (zero denominator upstream) must not
        // leak the NaN through the accessor.
        let mut report = Pipeline::new(PipelineConfig::default()).run(Vec::new());
        assert_eq!(report.similarity(), 0.0);
        report.summary.similarity = f64::NAN;
        assert_eq!(report.similarity(), 0.0);
        report.summary.similarity = f64::INFINITY;
        assert_eq!(report.similarity(), 0.0);
    }

    #[test]
    fn malformed_tiles_are_skipped_not_fatal() {
        let mut tasks = tasks_of(&small_dataset());
        let tiles = tasks.len();
        // Not a record at all, and records declaring vertex counts
        // (2^64 - 1, 3e9) that must never be allocated.
        for (tile_id, bad) in [
            (999, "this is not a polygon file"),
            (1000, "7 18446744073709551615 0 0"),
            (1001, "7 3000000000 0 0 1 0"),
        ] {
            tasks.push(ParseTask {
                tile_id,
                first_text: bad.into(),
                second_text: String::new(),
            });
        }
        let pipeline = Pipeline::new(PipelineConfig {
            enable_migration: false,
            ..PipelineConfig::default()
        });
        let report = pipeline.run(tasks);
        assert!(report.candidate_pairs > 0);
        // Each malformed tile went through as an empty one.
        assert_eq!(report.tiles, tiles + 3);
    }

    #[test]
    fn single_parser_worker_and_tiny_buffers_still_complete() {
        let dataset = small_dataset();
        let pipeline = Pipeline::new(PipelineConfig {
            parser_workers: 1,
            buffer_capacity: 1,
            aggregator_batch: 1,
            enable_migration: true,
            ..PipelineConfig::default()
        });
        let report = pipeline.run(tasks_of(&dataset));
        assert_eq!(report.tiles, dataset.tiles.len());
        assert!(report.similarity() > 0.0);
    }

    #[test]
    fn peak_in_flight_stays_within_the_analytic_bound() {
        let dataset = small_dataset();
        for enable_migration in [false, true] {
            let config = PipelineConfig {
                buffer_capacity: 2,
                aggregator_batch: 2,
                enable_migration,
                ..PipelineConfig::default()
            };
            let report = Pipeline::new(config.clone()).run(tasks_of(&dataset));
            assert_eq!(report.tiles, dataset.tiles.len());
            assert!(
                report.peak_in_flight_tiles <= PipelineReport::in_flight_bound(&config),
                "peak {} exceeds bound {} (migration: {enable_migration})",
                report.peak_in_flight_tiles,
                PipelineReport::in_flight_bound(&config)
            );
        }
    }
}
