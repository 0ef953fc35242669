//! Allocation budget of the CPU substrate.
//!
//! A `CpuBackend::new(1)` batch over benchmark-shaped pairs whose edge
//! tables are already built allocates exactly one block: the result vector.
//! The row sweep itself, the union's area terms and the batch wrapper
//! allocate nothing, so an allocation per pair shows here before it shows
//! in the benchmark.
//!
//! The global allocator counts every thread's allocations, so this file is
//! its own test binary with a single test.

use sccg::pixelbox::{ComputeBackend, CpuBackend, PixelBoxConfig};
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

#[test]
fn a_warm_single_worker_cpu_batch_allocates_only_its_result() {
    let engine = CrossComparison::new(EngineConfig::default());
    let backend = CpuBackend::new(1);
    let config = PixelBoxConfig::paper_default();
    for nucleus_radius in [6, 32] {
        let dataset = generate_dataset(&DatasetSpec {
            name: "cpu-alloc-budget".into(),
            tiles: 2,
            polygons_per_tile: 96,
            tile_size: 512,
            seed: 7,
            nucleus_radius,
        });
        for tile in &dataset.tiles {
            let pairs = engine.filter_pairs(&tile.first, &tile.second);
            assert!(pairs.len() > 40, "{} pairs", pairs.len());
            // The first batch builds the tables (and starts the pool).
            let cold = backend.compute_batch(&pairs, &config);
            let before = COUNT.load(Ordering::Relaxed);
            let batch = backend.compute_batch(&pairs, &config);
            let allocations = COUNT.load(Ordering::Relaxed) - before;
            assert_eq!(batch.areas, cold.areas);
            assert_eq!(
                allocations,
                1,
                "radius {nucleus_radius}: {allocations} allocations for {} warm pairs",
                pairs.len()
            );
        }
    }
}
