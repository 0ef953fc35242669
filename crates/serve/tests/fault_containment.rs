//! Failure-containment integration tests: engine supervision under
//! injected kills, typed deadline expiry, and crash-safe streaming
//! registration — the serving layer's end of the PR's fault-injection
//! harness.

use sccg::pixelbox::AggregationDevice;
use sccg::{FaultInjector, FaultPlan, JaccardSummary, SccgError};
use sccg_datagen::{generate_dataset, DatasetSpec};
use sccg_geometry::text::write_polygon_file;
use sccg_serve::prelude::*;
use sccg_serve::ServiceConfig;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn dataset(tiles: u32, seed: u64) -> sccg_datagen::Dataset {
    generate_dataset(&DatasetSpec {
        name: "fault-test".into(),
        tiles,
        polygons_per_tile: 30,
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

/// The fault-free twin: the same query on an identical service without an
/// injector, giving the bit-exact expected response.
fn fault_free_summary(data: &sccg_datagen::Dataset) -> (JaccardSummary, Vec<JaccardSummary>) {
    let store = SlideStore::new();
    let (first, second) = register(&store, data);
    let service = ComparisonService::new(
        store,
        ServiceConfig::default().with_engines(vec![AggregationDevice::Cpu, AggregationDevice::Cpu]),
    )
    .unwrap();
    let response = service
        .submit(QueryRequest::new(first, second))
        .unwrap()
        .wait()
        .unwrap();
    let tiles = response.tiles.iter().map(|t| t.summary).collect();
    (response.summary, tiles)
}

/// Satellite (a): a worker killed mid-shard hands its shard back — the
/// query completes bit-identically on the survivor, the supervisor records
/// the death and the re-dispatch, and nothing hangs.
#[test]
fn killed_engine_redispatches_its_shard_and_responses_stay_bit_identical() {
    let data = dataset(8, 4242);
    let (expected_summary, expected_tiles) = fault_free_summary(&data);

    let store = SlideStore::new();
    let (first, second) = register(&store, &data);
    let injector = Arc::new(FaultInjector::new(FaultPlan::new(7).kill_engine(0, 1)));
    let service = ComparisonService::new(
        store,
        ServiceConfig::default()
            .with_engines(vec![AggregationDevice::Cpu, AggregationDevice::Cpu])
            .with_failure_threshold(1)
            .with_revival_cooldown(Duration::from_secs(3600))
            .with_cache_capacity(0)
            .with_faults(Arc::clone(&injector)),
    )
    .unwrap();

    // The kill fires the first time worker 0 pops a shard. Repeat queries
    // until it has (virtually always the first one: both workers pull from
    // the same 8-shard queue), asserting bit-identity on every response.
    let mut killed = false;
    for round in 0..50 {
        let response = service
            .submit(QueryRequest::new(first, second))
            .unwrap()
            .wait()
            .unwrap_or_else(|e| panic!("round {round}: query must survive the kill: {e}"));
        assert_eq!(response.summary, expected_summary, "round {round}");
        let tiles: Vec<JaccardSummary> = response.tiles.iter().map(|t| t.summary).collect();
        assert_eq!(tiles, expected_tiles, "round {round}");
        if service.stats().redispatches >= 1 {
            killed = true;
            break;
        }
    }
    assert!(
        killed,
        "worker 0 never popped a shard in 50 whole-slide runs"
    );

    let stats = service.stats();
    assert_eq!(injector.stats().engine_kills, 1);
    assert!(stats.redispatches >= 1);
    let health = &stats.engines[0];
    assert!(!health.alive, "threshold 1: one kill is death");
    assert_eq!(health.total_failures, 1);
    assert_eq!(health.redispatched_shards, stats.redispatches);
    assert!(stats.engines[1].alive, "the survivor is unaffected");
}

/// When the *last* eligible engine dies, every shard — queued or in hand —
/// fails typed and the query resolves instead of hanging on its merge
/// barrier.
#[test]
fn death_of_the_only_eligible_engine_fails_the_query_typed_never_hangs() {
    let data = dataset(6, 99);
    let store = SlideStore::new();
    let (first, second) = register(&store, &data);
    let injector = Arc::new(FaultInjector::new(
        FaultPlan::new(1).kill_engine(0, u64::MAX),
    ));
    let service = ComparisonService::new(
        store,
        ServiceConfig::default()
            .with_engines(vec![AggregationDevice::Cpu])
            .with_failure_threshold(1)
            .with_revival_cooldown(Duration::from_secs(3600))
            .with_faults(injector),
    )
    .unwrap();

    let err = service
        .submit(QueryRequest::new(first, second).on_device(AggregationDevice::Cpu))
        .unwrap()
        .wait()
        .expect_err("no engine left to serve the query");
    assert_eq!(
        err,
        SccgError::NoEligibleEngine {
            device: AggregationDevice::Cpu
        }
    );
    let stats = service.stats();
    assert!(!stats.engines[0].alive);
    assert_eq!(stats.redispatches, 0, "nowhere to re-dispatch to");
    assert_eq!(stats.in_flight, 0, "the admission slot was returned");

    // The service still answers: an unpinned query fails typed too (same
    // dead pool), rather than wedging admission.
    let err = service
        .submit(QueryRequest::new(first, second))
        .unwrap()
        .wait()
        .expect_err("pool is dead");
    assert!(
        matches!(&err, SccgError::Internal { detail } if detail.contains("no live engine")),
        "{err:?}"
    );
}

/// An expired deadline fails the query with the typed error through both
/// the blocking and the streaming path, and abandoned shards compute
/// nothing.
#[test]
fn expired_deadline_fails_typed_through_blocking_and_streaming_paths() {
    let data = dataset(4, 777);
    let store = SlideStore::new();
    let (first, second) = register(&store, &data);
    let service = ComparisonService::new(
        store,
        ServiceConfig::default()
            .with_engines(vec![AggregationDevice::Cpu])
            .with_cache_capacity(0),
    )
    .unwrap();

    // A zero deadline is already expired when the first worker pops a
    // shard — the deterministic test vehicle (no real clock is raced).
    let err = service
        .submit(QueryRequest::new(first, second).with_deadline(Duration::ZERO))
        .unwrap()
        .wait()
        .expect_err("deadline already expired");
    assert_eq!(err, SccgError::DeadlineExceeded { deadline_ms: 0 });
    assert_eq!(
        service.stats().backend_batches,
        0,
        "abandoned shards never compute"
    );

    let mut tile_events = 0;
    let err = service
        .submit_streaming(QueryRequest::new(first, second).with_deadline(Duration::ZERO))
        .unwrap()
        .wait_with(|_, _| tile_events += 1)
        .expect_err("streaming deadline expiry");
    assert_eq!(err, SccgError::DeadlineExceeded { deadline_ms: 0 });
    assert_eq!(tile_events, 0);

    // Without a deadline the same service still serves normally.
    let ok = service
        .submit(QueryRequest::new(first, second))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(ok.shards, 4);
    assert_eq!(service.stats().in_flight, 0);
}

fn fault_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("sccg-serve-fault-tests")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tile_texts(count: u64) -> Vec<String> {
    (0..count)
        .map(|i| {
            let mut records =
                sccg_geometry::text::parse_polygon_file("0 4 0 0 10 0 10 10 0 10").unwrap();
            records[0].id = i;
            write_polygon_file(&records)
        })
        .collect()
}

/// The crash-safety acceptance test: an injected write failure at *every*
/// successive write operation of a streaming registration leaves no registry
/// entry, no final slide file, and no partial temp file behind. The error
/// crosses from the writer task to the caller, so each failing operation is
/// tried many times: a clean-up that merely races the return passes most
/// single attempts.
#[test]
fn write_failure_at_any_op_leaves_no_registry_entry_and_no_file() {
    const ATTEMPTS_PER_OP: usize = 40;
    let dir = fault_dir("crash-safety");
    let texts = tile_texts(3);
    let mut completed = false;
    'ops: for op in 0..64u64 {
        for attempt in 0..ATTEMPTS_PER_OP {
            let injector = Arc::new(FaultInjector::new(FaultPlan::new(0).fail_write_op(op)));
            let store = SlideStore::with_spill_and_faults(&dir, 2, Some(injector)).unwrap();
            match store.register_slide_streaming("victim", texts.clone()) {
                Err(err) => {
                    assert!(matches!(err, SccgError::Storage { .. }), "op {op}: {err:?}");
                    assert_eq!(store.len(), 0, "op {op}: no registry entry");
                    let leftovers: Vec<_> = std::fs::read_dir(&dir)
                        .unwrap()
                        .map(|e| e.unwrap().path())
                        .collect();
                    assert!(
                        leftovers.is_empty(),
                        "op {op}, attempt {attempt}: neither a final nor a partial file may \
                         survive: {leftovers:?}"
                    );
                }
                Ok(id) => {
                    // `op` is past the registration's last write: it succeeded,
                    // the file is complete, and every tile reads back.
                    assert_eq!(attempt, 0, "op {op} failed before and must fail again");
                    assert!(op >= texts.len() as u64, "op {op} cannot succeed early");
                    let info = store.slide(id).unwrap();
                    assert!(info.on_disk);
                    assert_eq!(info.tiles, texts.len());
                    for (index, text) in texts.iter().enumerate() {
                        let fetched = store.tile(TileId { slide: id, index }).unwrap();
                        assert_eq!(&write_polygon_file(&fetched), text);
                    }
                    completed = true;
                    break 'ops;
                }
            }
        }
    }
    assert!(completed, "write-op space should have been exhausted by 64");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Startup recovery: orphaned `*.partial` temp files from a crashed writer
/// are swept — explicitly via [`SlideStore::recover`] and implicitly by the
/// spilling constructors — while completed slide files survive.
#[test]
fn recovery_sweeps_orphaned_partials_and_keeps_complete_files() {
    let dir = fault_dir("recover");
    std::fs::create_dir_all(&dir).unwrap();
    let orphan = dir.join("slide-000007.sccgt.partial");
    let complete = dir.join("slide-000001.sccgt");
    std::fs::write(&orphan, b"half a slide").unwrap();
    std::fs::write(&complete, b"pretend finished file").unwrap();

    let removed = SlideStore::recover(&dir).unwrap();
    assert_eq!(removed, vec![orphan.clone()]);
    assert!(!orphan.exists());
    assert!(complete.exists(), "completed files are never touched");

    // A missing directory is an empty sweep, not an error.
    assert_eq!(
        SlideStore::recover(dir.join("does-not-exist")).unwrap(),
        Vec::<PathBuf>::new()
    );

    // The constructor sweeps too: a fresh orphan disappears at startup.
    std::fs::write(&orphan, b"crashed again").unwrap();
    let store = SlideStore::with_spill(&dir, 2).unwrap();
    assert!(!orphan.exists());
    assert!(complete.exists());
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
