//! Failure containment end to end: a disk-backed, multi-client wire workload
//! under a seeded [`FaultPlan`] that kills an engine worker mid-query,
//! corrupts one tile on disk, charges virtual latency on another, and resets
//! one client's connection mid-stream.
//!
//! Every completed response must be bit-identical to a fault-free twin
//! (engine attribution aside — a re-dispatched shard legitimately moves
//! engines), every failure must be typed and never hang past its deadline,
//! at least one shard must be re-dispatched to a survivor, and the corrupted
//! tile must trip the pager's circuit breaker.

use sccg::pixelbox::AggregationDevice;
use sccg::{FaultInjector, FaultPlan, SccgError};
use sccg_datagen::{generate_dataset, DatasetSpec};
use sccg_geometry::text::write_polygon_file;
use sccg_net::{
    ClientConfig, NetConfig, WireClient, WireError, WireRequestSpec, WireResponse, WireServer,
};
use sccg_serve::{ComparisonService, QueryRequest, ServiceConfig, SlideStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TILES: u32 = 8;
const RESIDENCY_BOUND: usize = 3;
const CORRUPT_TILE: u64 = 7;
const SLOW_TILE: u64 = 2;
const CLIENTS: usize = 3;
const QUERIES_PER_CLIENT: usize = 4;
const HEALTHY_TILE_COUNT: usize = (TILES - 1) as usize;

#[test]
fn seeded_fault_plan_is_contained_typed_and_bit_identical() {
    let dataset = generate_dataset(&DatasetSpec {
        name: "chaos".into(),
        tiles: TILES,
        polygons_per_tile: 48,
        tile_size: 512,
        seed: 1212,
        nucleus_radius: 6,
    });
    let first_texts: Vec<String> = dataset
        .tiles
        .iter()
        .map(|t| write_polygon_file(&t.first))
        .collect();
    let second_texts: Vec<String> = dataset
        .tiles
        .iter()
        .map(|t| write_polygon_file(&t.second))
        .collect();
    // The main workload stays off the corrupted tile; dedicated probes hit it.
    let healthy_tiles: Vec<u64> = (0..u64::from(TILES))
        .filter(|&t| t != CORRUPT_TILE)
        .collect();

    // The fault-free twin: an in-memory service computing the expected
    // response for the healthy-tile subset, bit-for-bit.
    let engines = || vec![AggregationDevice::Cpu, AggregationDevice::Cpu];
    let twin_store = SlideStore::new();
    let twin_first = twin_store.register_slide_text("a", &first_texts).unwrap();
    let twin_second = twin_store.register_slide_text("b", &second_texts).unwrap();
    let twin = ComparisonService::new(twin_store, ServiceConfig::default().with_engines(engines()))
        .unwrap();
    let expected = twin
        .submit(
            QueryRequest::new(twin_first, twin_second)
                .tiles(healthy_tiles.iter().map(|&t| t as usize).collect()),
        )
        .unwrap()
        .wait()
        .unwrap();
    let expected = WireResponse::of_response(&expected);

    // The seeded plan, shared by storage, serving and wire layers: worker 0
    // dies on its first popped shard, tile 7 corrupts on every disk read,
    // tile 2 charges virtual latency, and the server connection of wire
    // client 3 (one of the workload clients below) drops after one frame —
    // the first tile of its first streaming query, so mid-stream.
    let plan = FaultPlan::new(42)
        .kill_engine(0, 1)
        .corrupt_tile(CORRUPT_TILE)
        .slow_read(SLOW_TILE, 1_500_000)
        .reset_connection(3, 1);
    let injector = Arc::new(FaultInjector::new(plan));

    let dir = std::env::temp_dir().join(format!("sccg-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store =
        SlideStore::with_spill_and_faults(&dir, RESIDENCY_BOUND, Some(Arc::clone(&injector)))
            .unwrap();
    let first = store.register_slide_streaming("a", first_texts).unwrap();
    let second = store.register_slide_streaming("b", second_texts).unwrap();
    let service = Arc::new(
        ComparisonService::new(
            store,
            ServiceConfig::default()
                .with_engines(engines())
                .with_failure_threshold(1)
                .with_revival_cooldown(Duration::from_secs(3600))
                .with_cache_capacity(0)
                .with_faults(Arc::clone(&injector)),
        )
        .unwrap(),
    );
    let server = WireServer::start(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetConfig::default().with_faults(Arc::clone(&injector)),
    )
    .unwrap();
    let addr = server.local_addr();

    // Only the engine/backend attribution may differ from the twin: a
    // re-dispatched shard legitimately completes on a different engine.
    let assert_identical = |label: &str, got: &WireResponse| {
        assert_eq!(got.summary, expected.summary, "{label}: summary diverged");
        assert_eq!(got.tiles.len(), expected.tiles.len(), "{label}: tile count");
        for (g, w) in got.tiles.iter().zip(&expected.tiles) {
            assert_eq!(g.tile, w.tile, "{label}: tile order");
            assert_eq!(
                g.candidate_pairs, w.candidate_pairs,
                "{label}: tile {}",
                g.tile
            );
            assert_eq!(g.summary, w.summary, "{label}: tile {} summary", g.tile);
        }
    };
    let healthy_spec = || {
        let mut spec = WireRequestSpec::new(first, second);
        spec.tiles = Some(healthy_tiles.clone());
        spec
    };

    // Probe 1 — deadlines: an already-expired deadline fails typed through
    // the wire (server answers wire code 12), and never hangs.
    let mut probe = WireClient::connect(addr, ClientConfig::default()).unwrap();
    let mut spec = healthy_spec();
    spec.deadline_ms = Some(0);
    let started = Instant::now();
    let err = probe
        .query_blocking(&spec)
        .expect_err("deadline already expired");
    let waited = started.elapsed();
    assert!(
        matches!(err, WireError::DeadlineExceeded { deadline_ms: 0, .. }),
        "expected the typed deadline failure, got {err:?}"
    );
    assert!(
        waited < Duration::from_secs(5),
        "deadline wait took {waited:?}"
    );

    // Probe 2 — corruption: every read of the corrupted tile fails with the
    // typed storage error over the wire, and the third consecutive failure
    // trips the pager's circuit breaker (the tile is quarantined).
    for round in 0..4 {
        let mut spec = WireRequestSpec::new(first, second);
        spec.tiles = Some(vec![CORRUPT_TILE]);
        let err = probe.query_blocking(&spec).expect_err("corrupted tile");
        assert!(
            matches!(&err, WireError::Remote(SccgError::Storage { .. })),
            "round {round}: expected a typed storage error, got {err:?}"
        );
    }
    assert!(
        service.store().storage_stats().quarantined_tiles >= 1,
        "the corrupted tile must be quarantined"
    );
    drop(probe);

    // The workload: concurrent streaming clients over the healthy tiles.
    // One of them is scheduled to lose its connection mid-stream; the typed
    // ResetMidStream error is the signal to retry on a fresh connection.
    let (completed, retried): (usize, usize) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let assert_identical = &assert_identical;
                let healthy_spec = &healthy_spec;
                scope.spawn(move || {
                    let mut client = WireClient::connect(addr, ClientConfig::default()).unwrap();
                    let mut completed = 0;
                    let mut retried = 0;
                    for _ in 0..QUERIES_PER_CLIENT {
                        match client.query_streaming(&healthy_spec(), |_, _| {}) {
                            Ok(outcome) => {
                                assert_identical("workload", &outcome.response);
                                completed += 1;
                            }
                            Err(WireError::ResetMidStream { tiles_received, .. }) => {
                                assert!(tiles_received < HEALTHY_TILE_COUNT);
                                // Retry on a fresh connection: the query is
                                // idempotent, the result must not change.
                                client = WireClient::connect(addr, ClientConfig::default())
                                    .expect("reconnects after reset");
                                let outcome = client
                                    .query_streaming(&healthy_spec(), |_, _| {})
                                    .expect("retry after reset succeeds");
                                assert_identical("retry-after-reset", &outcome.response);
                                completed += 1;
                                retried += 1;
                            }
                            Err(other) => panic!("workload query failed: {other}"),
                        }
                    }
                    (completed, retried)
                })
            })
            .collect();
        handles.into_iter().fold((0, 0), |(c, r), handle| {
            let (hc, hr) = handle.join().expect("workload client thread");
            (c + hc, r + hr)
        })
    });
    assert_eq!(
        completed,
        CLIENTS * QUERIES_PER_CLIENT,
        "every workload query must resolve"
    );

    // The injected engine kill fires on worker 0's first popped shard —
    // virtually always during the workload above. Top up with in-process
    // rounds until it has, so the re-dispatch assertions are deterministic.
    let mut rounds = 0;
    while service.stats().redispatches == 0 {
        rounds += 1;
        assert!(rounds <= 50, "worker 0 never popped a shard");
        let response = service
            .submit(
                QueryRequest::new(first, second)
                    .tiles(healthy_tiles.iter().map(|&t| t as usize).collect()),
            )
            .unwrap()
            .wait()
            .expect("top-up round must survive the kill");
        assert_identical("top-up", &WireResponse::of_response(&response));
    }

    let stats = service.stats();
    let fault_stats = injector.stats();
    assert_eq!(fault_stats.engine_kills, 1, "the scheduled kill fired once");
    assert!(
        stats.redispatches >= 1,
        "the killed shard was re-dispatched"
    );
    assert!(!stats.engines[0].alive, "threshold 1: one kill is death");
    assert!(stats.engines[1].alive, "the survivor carried the workload");
    assert_eq!(
        fault_stats.connection_resets, 1,
        "the scheduled reset fired once"
    );
    assert_eq!(retried, 1, "exactly one client retried after the reset");
    assert!(
        injector.virtual_delay_nanos() > 0,
        "slow reads charge virtual latency (no real sleeps)"
    );

    drop(server);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
