//! Integration tests of the serving layer's three core invariants —
//! determinism under sharding, response caching, admission control — plus
//! the typed error route and the pooled hybrid split controller.

use sccg::pixelbox::{AggregationDevice, SplitConfig, Variant};
use sccg::{CrossComparison, EngineConfig, JaccardAccumulator, JaccardSummary, SccgError};
use sccg_datagen::{generate_dataset, DatasetSpec};
use sccg_gpu_sim::DeviceConfig;
use sccg_serve::prelude::*;

/// A small deterministic dataset and its two "slides" (segmentation results).
fn dataset(tiles: u32, polygons: u32, seed: u64) -> sccg_datagen::Dataset {
    generate_dataset(&DatasetSpec {
        name: "serve-test".into(),
        tiles,
        polygons_per_tile: polygons,
        tile_size: 512,
        seed,
        nucleus_radius: 6,
    })
}

fn register(store: &SlideStore, dataset: &sccg_datagen::Dataset) -> (SlideId, SlideId) {
    let first = store.register_slide(
        "result-a",
        dataset.tiles.iter().map(|t| t.first.clone()).collect(),
    );
    let second = store.register_slide(
        "result-b",
        dataset.tiles.iter().map(|t| t.second.clone()).collect(),
    );
    (first, second)
}

/// Sequential single-engine baseline: per-tile accumulators merged in tile
/// order — the exact structure the service's shard merge must reproduce
/// bit-for-bit.
fn sequential_baseline(dataset: &sccg_datagen::Dataset) -> (JaccardSummary, Vec<JaccardSummary>) {
    let engine = CrossComparison::new(EngineConfig::default());
    let mut total = JaccardAccumulator::new();
    let mut per_tile = Vec::new();
    for tile in &dataset.tiles {
        let report = engine.compare_records(&tile.first, &tile.second);
        let mut acc = JaccardAccumulator::new();
        for areas in &report.pair_areas {
            acc.add_pair(*areas);
        }
        per_tile.push(acc.summary());
        total.merge(&acc);
    }
    (total.summary(), per_tile)
}

/// The PR's acceptance test: ≥4 concurrent whole-slide queries through one
/// service sharded across ≥2 engines with mixed devices, asserting
/// (a) bit-identical `J'` and per-tile areas versus the sequential
/// single-engine baseline, (b) a cache hit on resubmission with zero new
/// backend batches (and zero new simulated-GPU launches), and (c) admission
/// control capping observed in-flight queries at the configured bound.
#[test]
fn concurrent_sharded_queries_are_deterministic_cached_and_admission_bounded() {
    let data = dataset(8, 40, 2101);
    let store = SlideStore::new();
    let (first, second) = register(&store, &data);
    let (expected_summary, expected_tiles) = sequential_baseline(&data);

    let bound = 2;
    let service = ComparisonService::new(
        store,
        ServiceConfig::default()
            .with_engines(vec![
                AggregationDevice::Gpu,
                AggregationDevice::Cpu,
                AggregationDevice::Hybrid,
                AggregationDevice::Hybrid,
            ])
            .with_max_in_flight(bound),
    )
    .expect("service starts");

    // (a) Four concurrent whole-slide queries: one free to use any engine,
    // three pinned to distinct devices — so the run provably exercises at
    // least three engines on mixed substrates.
    let preferences = [
        None,
        Some(AggregationDevice::Cpu),
        Some(AggregationDevice::Gpu),
        Some(AggregationDevice::Hybrid),
    ];
    let responses: Vec<QueryResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = preferences
            .iter()
            .map(|&device| {
                let service = &service;
                scope.spawn(move || {
                    let mut request = QueryRequest::new(first, second);
                    if let Some(device) = device {
                        request = request.on_device(device);
                    }
                    service
                        .submit(request)
                        .expect("submit succeeds")
                        .wait()
                        .expect("query resolves")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (response, &device) in responses.iter().zip(&preferences) {
        assert_eq!(response.shards, data.tiles.len(), "{device:?}");
        assert!(!response.cache_hit, "{device:?}");
        // Bit-identical whole-query summary (exact f64 + i64 equality).
        assert_eq!(response.summary, expected_summary, "{device:?}");
        assert_eq!(response.similarity(), expected_summary.similarity);
        // Bit-identical per-tile areas, in tile order.
        let tile_summaries: Vec<JaccardSummary> =
            response.tiles.iter().map(|t| t.summary).collect();
        assert_eq!(tile_summaries, expected_tiles, "{device:?}");
        // A pinned query was served exclusively by engines on that device.
        if let Some(device) = device {
            for tile in &response.tiles {
                assert_eq!(service.config().engines[tile.engine], device);
            }
        }
    }

    // The pinned queries force ≥3 distinct engines (mixed devices) to have
    // computed shards.
    let stats = service.stats();
    let engines_used = stats.shards_per_engine.iter().filter(|&&n| n > 0).count();
    assert!(
        engines_used >= 3,
        "shards per engine: {:?}",
        stats.shards_per_engine
    );
    assert_eq!(
        stats.backend_batches,
        (preferences.len() * data.tiles.len()) as u64
    );

    // (b) Resubmitting answers from the cache: no new backend batches, no
    // new simulated-GPU launches.
    let launches_before = service.device().stats().launches;
    let batches_before = service.stats().backend_batches;
    let repeat = service
        .submit(QueryRequest::new(first, second))
        .expect("resubmit succeeds")
        .wait()
        .expect("cached query resolves");
    assert!(repeat.cache_hit);
    assert_eq!(repeat.summary, expected_summary);
    assert_eq!(repeat.tiles.len(), data.tiles.len());
    assert_eq!(service.stats().backend_batches, batches_before);
    assert_eq!(service.device().stats().launches, launches_before);

    // (c) Admission control capped concurrency at the bound.
    let stats = service.stats();
    assert!(
        stats.peak_in_flight <= bound,
        "peak {} exceeded bound {bound}",
        stats.peak_in_flight
    );
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.completed, preferences.len() as u64);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.submitted, preferences.len() as u64 + 1);
}

#[test]
fn pooled_controller_aggregates_observations_across_hybrid_engines() {
    let data = dataset(8, 40, 777);
    let store = SlideStore::new();
    let (first, second) = register(&store, &data);
    let split = SplitConfig::adaptive(0.5).with_warmup_batches(2);
    let mut config = ServiceConfig::default()
        .with_engines(vec![AggregationDevice::Hybrid, AggregationDevice::Hybrid]);
    config.split = split;
    let service = ComparisonService::new(store, config).expect("service starts");

    let controller = service.split_controller().expect("hybrid pool").clone();
    assert_eq!(controller.batches_recorded(), 0);

    let response = service
        .submit(QueryRequest::new(first, second))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(response.shards, 8);

    // Every hybrid shard — whichever of the two engines computed it — fed
    // the one pooled controller: the fleet warmed up together and passed
    // the warm-up threshold a per-engine controller would still be under.
    assert_eq!(controller.batches_recorded(), 8);
    let trace = controller.trace();
    assert_eq!(trace.len(), 8);
    assert!(trace
        .samples()
        .iter()
        .all(|s| (0.0..=1.0).contains(&s.next_fraction)));
    let stats = service.stats();
    assert_eq!(stats.shards_per_engine.iter().sum::<u64>(), 8);

    // Both engines run on the service's one simulated GPU, the pooled trace
    // holds one sample per hybrid shard, and the pooled controller starts
    // from the service's split.
    assert_eq!(
        service.device().config().name,
        DeviceConfig::gtx580().name,
        "one service-level device"
    );
    let hybrid_shards: u64 = stats
        .shards_per_engine
        .iter()
        .zip(&service.config().engines)
        .filter(|(_, &device)| device == AggregationDevice::Hybrid)
        .map(|(&shards, _)| shards)
        .sum();
    assert_eq!(trace.len() as u64, hybrid_shards);
    assert_eq!(trace.samples()[0].fraction, split.seed_gpu_fraction);
}

#[test]
fn overload_rejection_and_priority_lanes() {
    // A single CPU engine, admission bound 1: a heavy low-priority
    // query occupies the only slot while we probe admission and priority.
    let data = dataset(16, 120, 5005);
    let store = SlideStore::new();
    let (first, second) = register(&store, &data);
    let service = ComparisonService::new(
        store,
        ServiceConfig::default()
            .with_engines(vec![AggregationDevice::Cpu])
            .with_max_in_flight(1)
            .with_cache_capacity(0),
    )
    .expect("service starts");

    let heavy = service
        .submit(
            QueryRequest::new(first, second)
                .priority(QueryPriority::Low)
                .on_device(AggregationDevice::Cpu),
        )
        .expect("heavy query admitted");

    // The slot is taken: a non-blocking submission is rejected with the
    // typed overload error instead of queueing unboundedly.
    let err = service
        .try_submit(QueryRequest::new(first, second).tiles(vec![0]))
        .expect_err("admission bound reached");
    assert_eq!(
        err,
        SccgError::Overloaded {
            in_flight: 1,
            bound: 1
        }
    );

    let heavy = heavy.wait().expect("heavy query resolves");
    assert_eq!(heavy.shards, 16);
    let stats = service.stats();
    assert_eq!(stats.peak_in_flight, 1);
    assert_eq!(stats.in_flight, 0);

    // With the slot free again, a high-priority query is admitted and
    // resolves normally.
    let high = service
        .submit(
            QueryRequest::new(first, second)
                .tiles(vec![3, 1])
                .priority(QueryPriority::High),
        )
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(high.shards, 2);
    assert_eq!(high.tiles[0].tile, 3, "tiles merge in request order");
    assert_eq!(high.tiles[1].tile, 1);
}

#[test]
fn request_validation_returns_typed_errors() {
    let data = dataset(3, 20, 11);
    let store = SlideStore::new();
    let (first, second) = register(&store, &data);
    let short = store.register_slide(
        "short",
        data.tiles
            .iter()
            .take(2)
            .map(|t| t.second.clone())
            .collect(),
    );
    let service = ComparisonService::new(
        store.clone(),
        ServiceConfig::default().with_engines(vec![AggregationDevice::Cpu]),
    )
    .expect("service starts");

    // Unknown slide.
    let bogus_err = service
        .submit(QueryRequest::new(first, SlideId::from_raw(99)))
        .expect_err("unknown slide");
    assert_eq!(bogus_err, SccgError::UnknownSlide { slide: 99 });

    // Whole-slide over mismatched tile counts.
    let err = service
        .submit(QueryRequest::new(first, short))
        .expect_err("tile count mismatch");
    assert_eq!(
        err,
        SccgError::TileCountMismatch {
            first: 3,
            second: 2
        }
    );

    // Out-of-range tile subset.
    let err = service
        .submit(QueryRequest::new(first, second).tiles(vec![0, 7]))
        .expect_err("unknown tile");
    assert_eq!(
        err,
        SccgError::UnknownTile {
            slide: first.value(),
            tile: 7,
            tiles: 3
        }
    );

    // Duplicate tile selection.
    let err = service
        .submit(QueryRequest::new(first, second).tiles(vec![1, 1]))
        .expect_err("duplicate tile");
    assert!(matches!(err, SccgError::InvalidRequest { .. }));

    // Device preference with no eligible engine.
    let err = service
        .submit(QueryRequest::new(first, second).on_device(AggregationDevice::Gpu))
        .expect_err("no GPU engine in the pool");
    assert_eq!(
        err,
        SccgError::NoEligibleEngine {
            device: AggregationDevice::Gpu
        }
    );

    // Empty engine pool is rejected at construction.
    let err = ComparisonService::new(store, ServiceConfig::default().with_engines(Vec::new()))
        .expect_err("no engines");
    assert_eq!(err, SccgError::EmptyEnginePool);
}

#[test]
fn empty_queries_resolve_immediately_with_zero_similarity() {
    let store = SlideStore::new();
    let first = store.register_slide("empty-a", Vec::new());
    let second = store.register_slide("empty-b", Vec::new());
    let service = ComparisonService::new(store, ServiceConfig::default()).unwrap();

    // A whole-slide query over empty slides has nothing to shard: the
    // guarded similarity accessor reports 0.0, never NaN.
    let response = service
        .submit(QueryRequest::new(first, second))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(response.shards, 0);
    assert_eq!(response.similarity(), 0.0);
    assert!(response.similarity().is_finite());

    // Same for an explicitly empty tile selection.
    let response = service
        .submit(QueryRequest::new(first, second).tiles(Vec::new()))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(response.similarity(), 0.0);
    // Neither empty query consumed an execution slot or touched a backend.
    let stats = service.stats();
    assert_eq!(stats.backend_batches, 0);
    assert_eq!(stats.peak_in_flight, 0);
}

#[test]
fn variant_overrides_cache_separately() {
    let data = dataset(2, 30, 404);
    let store = SlideStore::new();
    let (first, second) = register(&store, &data);
    let service = ComparisonService::new(store, ServiceConfig::default()).unwrap();

    let full = service
        .submit(QueryRequest::new(first, second))
        .unwrap()
        .wait()
        .unwrap();
    assert!(!full.cache_hit);

    // A different PixelBox variant is a different cache key: it computes.
    let nosep = service
        .submit(QueryRequest::new(first, second).variant(Variant::NoSep))
        .unwrap()
        .wait()
        .unwrap();
    assert!(!nosep.cache_hit);
    // The variants are alternative exact algorithms: same similarity.
    assert_eq!(nosep.summary, full.summary);

    // Repeating each now hits its own cache entry.
    assert!(
        service
            .submit(QueryRequest::new(first, second))
            .unwrap()
            .wait()
            .unwrap()
            .cache_hit
    );
    assert!(
        service
            .submit(QueryRequest::new(first, second).variant(Variant::NoSep))
            .unwrap()
            .wait()
            .unwrap()
            .cache_hit
    );
}

#[test]
fn responses_render_as_json() {
    let data = dataset(2, 25, 88);
    let store = SlideStore::new();
    let (first, second) = register(&store, &data);
    let service = ComparisonService::new(store, ServiceConfig::default()).unwrap();
    let response = service
        .submit(QueryRequest::new(first, second))
        .unwrap()
        .wait()
        .unwrap();

    let json = response.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"similarity\":"));
    assert!(json.contains("\"cache_hit\":false"));
    assert!(json.contains("\"tiles\":["));

    let stats_json = service.stats().to_json();
    assert!(stats_json.contains("\"backend_batches\":2"));

    if let Some(controller) = service.split_controller() {
        let trace_json = sccg_serve::json::split_trace_to_json(&controller.trace());
        assert!(trace_json.starts_with('[') && trace_json.ends_with(']'));
    }
}

/// An engine pool larger than the worker pool still serves every query:
/// idle worker tasks are suspended futures on the job queue, not blocked OS
/// threads, so five mixed-device engines make progress on the global pool's
/// one thread per core (interleaved compute, unchanged results).
#[test]
fn engine_pool_larger_than_the_worker_pool_still_serves() {
    let data = dataset(6, 30, 512);
    let store = SlideStore::new();
    let (first, second) = register(&store, &data);
    let (expected_summary, _) = sequential_baseline(&data);

    let service = ComparisonService::new(
        store,
        ServiceConfig::default()
            .with_engines(vec![
                AggregationDevice::Gpu,
                AggregationDevice::Cpu,
                AggregationDevice::Cpu,
                AggregationDevice::Hybrid,
                AggregationDevice::Hybrid,
            ])
            .with_cache_capacity(0),
    )
    .expect("service starts");

    // Concurrent submissions from multiple client threads, including
    // device-pinned ones that only a subset of the pool may serve.
    let summaries: Vec<JaccardSummary> = std::thread::scope(|scope| {
        let handles: Vec<_> = [
            None,
            Some(AggregationDevice::Cpu),
            Some(AggregationDevice::Hybrid),
            None,
        ]
        .into_iter()
        .map(|device| {
            let service = &service;
            scope.spawn(move || {
                let mut request = QueryRequest::new(first, second);
                if let Some(device) = device {
                    request = request.on_device(device);
                }
                service.submit(request).unwrap().wait().unwrap().summary
            })
        })
        .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for summary in summaries {
        assert_eq!(summary, expected_summary);
    }
    let stats = service.stats();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.backend_batches, 4 * data.tiles.len() as u64);
}

/// The concurrent-overload contract of the admission path, probed while the
/// semaphore is genuinely full:
///
/// * cache hits resolve without taking an execution slot;
/// * `try_submit` fails with `Overloaded` and leaks no permit;
/// * every blocked `submit` (more waiters than slots) eventually wakes
///   through the `notify_one` release chain and completes.
#[test]
fn full_admission_serves_cache_hits_rejects_try_submit_and_wakes_all_waiters() {
    let data = dataset(12, 100, 7007);
    let store = SlideStore::new();
    let (first, second) = register(&store, &data);
    let service = ComparisonService::new(
        store,
        ServiceConfig::default()
            .with_engines(vec![AggregationDevice::Cpu])
            .with_max_in_flight(1)
            .with_cache_capacity(8),
    )
    .expect("service starts");

    // Prime the cache while the service is idle.
    let cached_request = || QueryRequest::new(first, second).tiles(vec![0]);
    let primed = service.submit(cached_request()).unwrap().wait().unwrap();
    assert!(!primed.cache_hit);

    // Occupy the only slot with a whole-slide query.
    let heavy = service
        .submit(QueryRequest::new(first, second).priority(QueryPriority::Low))
        .expect("heavy query admitted");

    // try_submit: typed rejection, repeatedly, without consuming anything.
    for _ in 0..3 {
        let err = service
            .try_submit(QueryRequest::new(first, second).tiles(vec![1]))
            .expect_err("semaphore is full");
        assert!(matches!(
            err,
            SccgError::Overloaded {
                in_flight: 1,
                bound: 1
            }
        ));
    }

    // Cache hit: resolves ready *while the semaphore is full*, because the
    // cache check precedes admission.
    let hit = service
        .submit(cached_request())
        .expect("cache hit admitted");
    assert!(hit.wait().unwrap().cache_hit);
    assert_eq!(
        service.stats().in_flight,
        1,
        "only the heavy query holds a slot: the cache hit took none"
    );

    // More blocked submitters than slots: all of them must eventually wake
    // and complete once the heavy query (and then each other) release.
    let waiter_summaries: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..=3)
            .map(|tile| {
                let service = &service;
                scope.spawn(move || {
                    service
                        .submit(QueryRequest::new(first, second).tiles(vec![tile]))
                        .unwrap()
                        .wait()
                        .unwrap()
                        .shards
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(
        waiter_summaries,
        vec![1, 1, 1],
        "every blocked submit completed"
    );
    assert_eq!(heavy.wait().unwrap().shards, 12);

    let stats = service.stats();
    assert_eq!(stats.in_flight, 0, "all slots returned");
    assert_eq!(stats.peak_in_flight, 1, "the bound was never exceeded");
    // Nothing leaked: the slot is immediately grantable again.
    let after = service
        .try_submit(QueryRequest::new(first, second).tiles(vec![4]))
        .expect("slot available after the storm");
    after.wait().expect("post-storm query resolves");
}

/// Streaming submissions deliver one tile event per shard, in completion
/// order, each bit-identical to the final response's corresponding entry,
/// terminated by a finish event carrying the same response `submit` returns.
#[test]
fn streaming_submission_matches_blocking_response_tile_for_tile() {
    let data = dataset(6, 80, 9009);
    let store = SlideStore::new();
    let (first, second) = register(&store, &data);
    let service = ComparisonService::new(store, ServiceConfig::default().with_cache_capacity(0))
        .expect("service starts");

    let blocking = service
        .submit(QueryRequest::new(first, second))
        .unwrap()
        .wait()
        .unwrap();

    let mut events: Vec<(usize, JaccardSummary)> = Vec::new();
    let streamed = service
        .submit_streaming(QueryRequest::new(first, second))
        .expect("streaming submit")
        .wait_with(|position, report| events.push((position, report.summary)))
        .expect("streaming query resolves");

    assert_eq!(events.len(), streamed.tiles.len(), "one event per shard");
    for (position, summary) in &events {
        assert_eq!(
            *summary, streamed.tiles[*position].summary,
            "tile event {position} is bit-identical to the merged response"
        );
    }
    assert_eq!(
        streamed.summary, blocking.summary,
        "merged J' matches blocking"
    );
    assert_eq!(streamed.shards, blocking.shards);

    // Cache hits replay the same event shape.
    let store = SlideStore::new();
    let (first, second) = register(&store, &data);
    let service = ComparisonService::new(store, ServiceConfig::default()).unwrap();
    let warm = service
        .submit_streaming(QueryRequest::new(first, second))
        .unwrap()
        .wait()
        .unwrap();
    let mut replayed = 0;
    let hit = service
        .submit_streaming(QueryRequest::new(first, second))
        .unwrap()
        .wait_with(|_, _| replayed += 1)
        .unwrap();
    assert!(hit.cache_hit);
    assert_eq!(
        replayed,
        warm.tiles.len(),
        "cache hits replay every tile event"
    );
    assert_eq!(hit.summary, warm.summary);
}

/// Blocks until the service has completed `count` sharded queries and
/// returned every admission slot (a query counts as completed just before
/// its slot is released).
fn wait_until_idle(service: &ComparisonService, count: u64) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let stats = service.stats();
        if stats.completed >= count && stats.in_flight == 0 {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "query never finished: {stats:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// A one-engine pool whose only engine must run every shard of a query.
fn one_engine_service(store: SlideStore, cache_capacity: usize) -> ComparisonService {
    ComparisonService::new(
        store,
        ServiceConfig::default()
            .with_engines(vec![AggregationDevice::Cpu])
            .with_cache_capacity(cache_capacity),
    )
    .expect("service starts")
}

/// A handle nobody reads until its query has finished must not stall the
/// engine: the query completes on its own, and the handle then yields every
/// tile event and the finish, bit-identical to a blocking `wait`.
#[test]
fn an_unread_handle_never_stalls_the_engine() {
    let data = dataset(6, 60, 4242);
    let store = SlideStore::new();
    let (first, second) = register(&store, &data);
    let service = one_engine_service(store, 0);

    let unread = service
        .submit(QueryRequest::new(first, second))
        .expect("query admitted");
    wait_until_idle(&service, 1);

    let mut tiles = Vec::new();
    let streamed = loop {
        match unread.next_event().expect("the finish is buffered") {
            QueryEvent::Tile { position, report } => tiles.push((position, report)),
            QueryEvent::Finished(result) => break result.expect("query succeeded"),
        }
    };
    assert!(unread.next_event().is_none(), "nothing follows the finish");

    let blocking = service
        .submit(QueryRequest::new(first, second))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(streamed, blocking);
    assert_eq!(tiles.len(), blocking.tiles.len(), "one event per shard");
    for (position, report) in &tiles {
        assert_eq!(*report, blocking.tiles[*position]);
    }
}

/// Dropping a handle mid-query cancels nothing: the engine finishes the
/// query, its admission slot comes back, and the response is cached.
#[test]
fn a_dropped_handle_returns_its_slot_and_still_caches_the_response() {
    let data = dataset(6, 60, 4343);
    let store = SlideStore::new();
    let (first, second) = register(&store, &data);
    let service = one_engine_service(store, 8);

    drop(
        service
            .submit(QueryRequest::new(first, second))
            .expect("query admitted"),
    );
    wait_until_idle(&service, 1);
    assert_eq!(service.stats().cache_entries, 1, "the response was cached");

    let hit = service
        .submit(QueryRequest::new(first, second))
        .unwrap()
        .wait()
        .unwrap();
    assert!(hit.cache_hit);
    assert_eq!(hit.shards, data.tiles.len());
}
