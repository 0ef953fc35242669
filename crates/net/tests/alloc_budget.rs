//! Allocation budget of a streamed wire query.
//!
//! A warm, streamed, 1-tile query of a 48-polygon tile (the shape of the
//! benchmark's `serve_small` workload) over a loopback `WireServer` on the
//! default service with the response cache off: the client's request frame,
//! the server's decode, the in-process query (validation, admission, one
//! shard, the merge and the event stream), the tile frame and the summary
//! frame, and the client's decode of both. The mean over many queries must
//! stay within 10 % of the count measured when the budget was set, so an
//! extra buffer, clone or channel per query on the wire path shows here
//! before it shows in the benchmark.
//!
//! The server's connection thread and the engines on the worker pool's
//! threads allocate too, so the global allocator counts every thread's
//! allocations, and this file is its own test binary with a single test.

use sccg_datagen::{generate_dataset, DatasetSpec};
use sccg_net::wire::WireRequestSpec;
use sccg_net::{ClientConfig, NetConfig, WireClient, WireServer};
use sccg_serve::prelude::*;
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

/// Mean allocations per query measured when the budget was set, on a
/// 2-vCPU host.
const MEASURED: f64 = 243.5;

const TILES: usize = 8;
const WARM_UP: usize = 200;
const COUNTED: usize = 2000;

#[test]
fn a_warm_streamed_one_tile_query_stays_within_its_allocation_budget() {
    let dataset = generate_dataset(&DatasetSpec {
        name: "wire-alloc-budget".into(),
        tiles: TILES as u32,
        polygons_per_tile: 48,
        tile_size: 512,
        seed: 5,
        nucleus_radius: 6,
    });
    let store = SlideStore::new();
    let first = store.register_slide("a", dataset.tiles.iter().map(|t| t.first.clone()).collect());
    let second = store.register_slide(
        "b",
        dataset.tiles.iter().map(|t| t.second.clone()).collect(),
    );
    let service = ComparisonService::new(store, ServiceConfig::default().with_cache_capacity(0))
        .expect("default service starts");
    let server = WireServer::start(Arc::new(service), "127.0.0.1:0", NetConfig::default())
        .expect("server starts");
    let mut client =
        WireClient::connect(server.local_addr(), ClientConfig::default()).expect("connects");
    let mut query = |i: usize| {
        let mut spec = WireRequestSpec::new(first, second);
        spec.tiles = Some(vec![(i % TILES) as u64]);
        let outcome = client
            .query_streaming(&spec, |_, _| {})
            .expect("query resolves");
        assert_eq!(outcome.tile_frames, 1);
        assert_eq!(outcome.response.shards, 1);
    };

    for i in 0..WARM_UP {
        query(i);
    }
    let before = COUNT.load(Ordering::Relaxed);
    for i in 0..COUNTED {
        query(i);
    }
    let mean = (COUNT.load(Ordering::Relaxed) - before) as f64 / COUNTED as f64;

    println!("{mean:.1} allocations per warm streamed 1-tile query");
    assert!(
        mean <= MEASURED * 1.1,
        "{mean:.1} allocations per query, budget {:.1}",
        MEASURED * 1.1
    );
}
