//! The serving API: register slides once, serve concurrent queries.
//!
//! ```text
//! cargo run --release --example serving
//! ```
//!
//! Demonstrates the persistent query layer: a `SlideStore` holding two
//! registered segmentation results, and a `ComparisonService` sharding
//! whole-slide comparison queries across a mixed CPU/GPU/hybrid engine
//! pool, answering repeats from its response cache, and bounding
//! concurrency with admission control.

use sccg_datagen::{generate_dataset, DatasetSpec};
use sccg_repro::prelude::*;

fn main() {
    // 1. Register the two segmentation results of one synthetic slide once.
    let dataset = generate_dataset(&DatasetSpec {
        name: "serving-demo".into(),
        tiles: 10,
        polygons_per_tile: 80,
        tile_size: 512,
        seed: 7,
        nucleus_radius: 6,
    });
    let store = SlideStore::new();
    let first = store.register_slide(
        "oligoastroiii-algo-a",
        dataset.tiles.iter().map(|t| t.first.clone()).collect(),
    );
    let second = store.register_slide(
        "oligoastroiii-algo-b",
        dataset.tiles.iter().map(|t| t.second.clone()).collect(),
    );
    for id in [first, second] {
        let info = store.slide(id).expect("registered slide");
        println!(
            "registered slide {}: {:<22} {} tiles, {} polygons",
            id.value(),
            info.name,
            info.tiles,
            info.polygons
        );
    }

    // 2. Start a service: a mixed engine pool (GPU, CPU, 2x hybrid sharing
    //    one pooled split controller), at most 2 queries in flight.
    let service = ComparisonService::new(store, ServiceConfig::default().with_max_in_flight(2))
        .expect("service starts");
    println!("engine pool: {:?}\n", service.config().engines);

    // 3. Serve concurrent queries: a whole-slide comparison on any engine, a
    //    CPU-pinned repeat, and a high-priority subset query.
    let responses: Vec<QueryResponse> = std::thread::scope(|scope| {
        let requests = vec![
            QueryRequest::new(first, second),
            QueryRequest::new(first, second).on_device(AggregationDevice::Cpu),
            QueryRequest::new(first, second)
                .tiles(vec![0, 1, 2])
                .priority(QueryPriority::High),
        ];
        let handles: Vec<_> = requests
            .into_iter()
            .map(|request| {
                let service = &service;
                scope.spawn(move || service.submit(request).unwrap().wait().unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for response in &responses {
        println!(
            "query over {:>2} tiles: J' = {:.6}  ({} shards, backends {:?})",
            response.tiles.len(),
            response.similarity(),
            response.shards,
            response.backends_used(),
        );
    }
    // Sharding never changes the answer: every whole-slide response is
    // bit-identical regardless of device preference.
    assert_eq!(responses[0].summary, responses[1].summary);

    // 4. A repeated query is a cache hit — no backend touched.
    let before = service.stats().backend_batches;
    let repeat = service
        .submit(QueryRequest::new(first, second))
        .unwrap()
        .wait()
        .unwrap();
    assert!(repeat.cache_hit);
    assert_eq!(service.stats().backend_batches, before);
    println!("\nrepeat query: cache hit, backend batches still {before}");

    // 5. Telemetry: service counters and the pooled hybrid split trace,
    //    exported as JSON.
    println!("\nservice stats: {}", service.stats().to_json());
    if let Some(controller) = service.split_controller() {
        let trace = controller.trace();
        println!(
            "pooled split controller: {} batches recorded, last fraction {:?}",
            trace.len(),
            trace.last_fraction()
        );
    }
}
