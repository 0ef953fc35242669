//! Allocation budget of one tile through the streaming pipeline.
//!
//! A warm `Pipeline` with migration off, one parser task and aggregator
//! batches of one tile runs every tile through the same four stage steps,
//! so its allocations per tile do not depend on how the stages interleave.
//! The marginal count — allocations for 2N tiles minus those for N tiles,
//! over N — excludes what a run costs once (its engine, channels and stage
//! tasks) and is held to the measured count plus 10 %.
//!
//! The global allocator counts every thread's allocations, so this file is
//! its own test binary with a single test.

use sccg::pipeline::{ParseTask, Pipeline, PipelineConfig};
use sccg::{CrossComparison, EngineConfig};
use sccg_datagen::{generate_dataset, DatasetSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator, counting allocations (`alloc` and
/// `realloc` calls) across all threads.
struct CountingAllocator;

static COUNT: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNT.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Tiles in the shorter of the two measured runs.
const N: usize = 8;

/// Marginal allocations per 48-polygon tile (about 46 candidate pairs), as
/// measured when this budget was set: 616–619 across runs, in release and
/// debug builds alike.
const MEASURED_PER_TILE: f64 = 617.0;

#[test]
fn a_warm_pipeline_tile_stays_within_its_allocation_budget() {
    let dataset = generate_dataset(&DatasetSpec {
        name: "pipeline-alloc-budget".into(),
        tiles: 2 * N as u32,
        polygons_per_tile: 48,
        tile_size: 512,
        seed: 5,
        nucleus_radius: 6,
    });
    // Every tile stays under the simulated GPU's 64-pair map chunk, so its
    // kernel runs inline and the count does not depend on the core count.
    let engine = CrossComparison::new(EngineConfig::default());
    for tile in &dataset.tiles {
        let pairs = engine.filter_pairs(&tile.first, &tile.second).len();
        assert!(pairs <= 64, "tile {} has {pairs} pairs", tile.tile_id);
    }
    let tasks: Vec<ParseTask> = dataset
        .tiles
        .iter()
        .map(ParseTask::from_tile_pair)
        .collect();
    let pipeline = Pipeline::new(
        PipelineConfig::default()
            .with_migration(false)
            .with_parser_workers(1)
            .with_aggregator_batch(1),
    );
    // Allocations of one run over the first `tiles` tasks; the task list is
    // cloned before counting starts.
    let run = |tiles: usize| {
        let input = tasks[..tiles].to_vec();
        let before = COUNT.load(Ordering::Relaxed);
        let report = pipeline.run(input);
        let allocations = COUNT.load(Ordering::Relaxed) - before;
        assert_eq!(report.tiles, tiles);
        allocations
    };
    // Warm: start the worker pool and the simulated device.
    run(2 * N);
    let short = run(N);
    let long = run(2 * N);
    let per_tile = (long - short) as f64 / N as f64;
    println!(
        "{per_tile} allocations per tile ({short} for {N} tiles, {long} for {})",
        2 * N
    );
    assert!(
        per_tile <= MEASURED_PER_TILE * 1.1,
        "{per_tile} allocations per tile exceed the budget of {MEASURED_PER_TILE} + 10 %"
    );
}
