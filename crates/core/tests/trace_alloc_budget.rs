//! Allocation budget of the simulated GPU's count-only partition scan.
//!
//! On benchmark-shaped radius-32 pairs (threshold 2048, fanout 64, the full
//! variant) every pair partitions once, so this is where the scan's box
//! stack, partition grid and hover marks are exercised. They are per-thread
//! scratch, reused from pair to pair, so once a thread has traced a pair,
//! `trace_pair` allocates nothing; and a warm `GpuBackend` batch makes the
//! same number of allocations however many pairs it holds.
//!
//! The global allocator counts every thread's allocations, so this file is
//! its own test binary with a single test.

use sccg::pixelbox::algorithm::trace_pair;
use sccg::pixelbox::{ComputeBackend, GpuBackend, PixelBoxConfig, PolygonPair};
use sccg::{CrossComparison, EngineConfig};
use sccg_datagen::{generate_dataset, DatasetSpec};
use sccg_gpu_sim::{Device, DeviceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

/// Allocations made while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = COUNT.load(Ordering::Relaxed);
    let value = f();
    (COUNT.load(Ordering::Relaxed) - before, value)
}

#[test]
fn a_warm_radius_32_trace_allocates_nothing() {
    let engine = CrossComparison::new(EngineConfig::default());
    let config = PixelBoxConfig::paper_default();
    let dataset = generate_dataset(&DatasetSpec {
        name: "trace-alloc-budget".into(),
        tiles: 2,
        polygons_per_tile: 200,
        tile_size: 2048,
        seed: 7,
        nucleus_radius: 32,
    });
    let pairs: Vec<PolygonPair> = dataset
        .tiles
        .iter()
        .flat_map(|tile| engine.filter_pairs(&tile.first, &tile.second))
        .collect();
    assert!(pairs.len() > 300, "{} pairs", pairs.len());
    for pair in &pairs {
        pair.p.edge_table();
        pair.q.edge_table();
    }
    let trace =
        |pair: &PolygonPair| trace_pair(pair, config.threshold, config.block_size, config.variant);

    // The first call on this thread sets its scratch up.
    let first = trace(&pairs[0]);
    let (warm, partitions) = allocations(|| {
        pairs
            .iter()
            .map(|pair| {
                let partitions = trace(pair).partitions;
                assert!(partitions > 0, "every benchmark-shaped pair partitions");
                partitions
            })
            .sum::<u64>()
    });
    assert_eq!(trace(&pairs[0]), first);
    assert_eq!(
        warm,
        0,
        "{warm} allocations for {} warm traces ({partitions} partitions)",
        pairs.len()
    );

    // A GPU batch's allocations do not grow with its pairs: batches of a
    // quarter, half and all of the pairs each make the same few allocations
    // (the batch's vectors and the pool's dispatch). Which pool thread runs
    // which pairs varies, and a thread's first trace sets its scratch up,
    // so each size counts its fewest over three batches.
    let backend = GpuBackend::new(Arc::new(Device::new(DeviceConfig::gtx580())));
    let all = backend.compute_batch(&pairs, &config);
    for n in [pairs.len() / 4, pairs.len() / 2, pairs.len()] {
        let made = (0..3)
            .map(|_| {
                let (made, batch) = allocations(|| backend.compute_batch(&pairs[..n], &config));
                assert_eq!(batch.areas, all.areas[..n]);
                made
            })
            .min()
            .expect("three batches");
        assert!(
            made as f64 <= GPU_BATCH_MEASURED * 1.1,
            "a warm GPU batch of {n} pairs made {made} allocations"
        );
    }
}

/// Allocations of a warm `GpuBackend` batch of 65 to 391 pairs, measured
/// 6–7 (4 for a batch of at most 64 pairs, which runs inline); pinned at
/// the largest + 10 %.
const GPU_BATCH_MEASURED: f64 = 7.0;
