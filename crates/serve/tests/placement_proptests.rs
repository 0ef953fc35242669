//! Placement equivalence: scheduling policy must never change results.
//!
//! The scheduler's whole contract is that placement decides *where and
//! when* a shard runs, never what it computes: each shard's `position`
//! pins its slot in the merge-ordered response, so any enqueue order and
//! any engine assignment folds to the same bits. These properties pin that
//! contract across the axes that could plausibly break it — placement
//! policy (round-robin vs residency-aware), device preference (including
//! pinned queries the policy must not starve), tile subsets (whose
//! response order follows the *request*, not the placement), and backing
//! (in-memory vs disk-backed with a residency bound smaller than the
//! slide, where the residency-aware policy actually reorders and
//! prefetches). A last test checks what the residency-aware policy is for:
//! on a repeated paged workload it faults fewer tiles than round-robin.

// The vendored proptest shim's `proptest!` macro expands bodies token by
// token; these test bodies are long enough to overflow the default limit.
#![recursion_limit = "1024"]

use proptest::prelude::*;
use sccg::pixelbox::AggregationDevice;
use sccg::EngineConfig;
use sccg_datagen::{generate_dataset, DatasetSpec};
use sccg_geometry::text::write_polygon_file;
use sccg_serve::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

const TILES: u32 = 6;
const POLYGONS_PER_TILE: u32 = 16;
const RESIDENCY_BOUND: usize = 2;

static CASE: AtomicUsize = AtomicUsize::new(0);

/// Held by every test in this file, so the locality test's prefetcher never
/// competes for the CPU with the proptest's services: it can only issue
/// while the first round still leaves the pager free capacity.
static SERIAL: Mutex<()> = Mutex::new(());

fn tile_texts(tiles: u32, polygons_per_tile: u32, second: bool) -> Vec<String> {
    let data = generate_dataset(&DatasetSpec {
        name: "placement-test".into(),
        tiles,
        polygons_per_tile,
        tile_size: 256,
        seed: 53,
        nucleus_radius: 5,
    });
    data.tiles
        .iter()
        .map(|t| write_polygon_file(if second { &t.second } else { &t.first }))
        .collect()
}

/// A fresh spill directory for one disk-backed store; the caller removes it.
fn spill_dir() -> PathBuf {
    let dir = std::env::temp_dir()
        .join("sccg-serve-placement-proptests")
        .join(format!(
            "{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One service per (policy, backing) corner. Disk stores get their own
/// spill directory (removed with the returned path) and a residency bound
/// smaller than the slide, so paging genuinely happens.
fn service(
    policy: PlacementPolicy,
    on_disk: bool,
) -> (ComparisonService, SlideId, SlideId, Option<PathBuf>) {
    let (store, first, second, dir) = if on_disk {
        let dir = spill_dir();
        let store = SlideStore::with_spill(&dir, RESIDENCY_BOUND).unwrap();
        let first = store
            .register_slide_streaming("a", tile_texts(TILES, POLYGONS_PER_TILE, false))
            .unwrap();
        let second = store
            .register_slide_streaming("b", tile_texts(TILES, POLYGONS_PER_TILE, true))
            .unwrap();
        (store, first, second, Some(dir))
    } else {
        let store = SlideStore::new();
        let first = store
            .register_slide_text("a", &tile_texts(TILES, POLYGONS_PER_TILE, false))
            .unwrap();
        let second = store
            .register_slide_text("b", &tile_texts(TILES, POLYGONS_PER_TILE, true))
            .unwrap();
        (store, first, second, None)
    };
    // One engine per device preference so pinned queries are satisfiable,
    // on two executor threads so a prefetcher task can never be starved by
    // a busy worker.
    let config = ServiceConfig::default()
        .with_engines(vec![
            EngineConfig::default().with_device(AggregationDevice::Gpu),
            EngineConfig::default().with_device(AggregationDevice::Cpu),
            EngineConfig::default().with_device(AggregationDevice::Hybrid),
        ])
        .with_executor_threads(2)
        .with_placement(policy);
    (
        ComparisonService::new(store, config).unwrap(),
        first,
        second,
        dir,
    )
}

/// Everything the determinism contract covers: per-tile identity, areas
/// and summaries in merge order, the merged summary, and the exact `J'`
/// bits. Engine assignment (`TileReport::engine`/`backend`) is scheduling,
/// not semantics, and is deliberately excluded.
fn semantic_view(
    response: &QueryResponse,
) -> (
    Vec<(usize, sccg::JaccardSummary, usize)>,
    sccg::JaccardSummary,
    usize,
    u64,
) {
    (
        response
            .tiles
            .iter()
            .map(|t| (t.tile, t.summary, t.candidate_pairs))
            .collect(),
        response.summary,
        response.shards,
        response.similarity().to_bits(),
    )
}

fn run_query(
    policy: PlacementPolicy,
    on_disk: bool,
    device: Option<AggregationDevice>,
    tiles: &TileSelection,
) -> (
    Vec<(usize, sccg::JaccardSummary, usize)>,
    sccg::JaccardSummary,
    usize,
    u64,
) {
    let (service, first, second, dir) = service(policy, on_disk);
    let mut request = QueryRequest::new(first, second);
    request.device = device;
    request.tiles = tiles.clone();
    let response = service.submit(request).unwrap().wait().unwrap();
    let view = semantic_view(&response);
    drop(service);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    view
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Across every (device preference × tile subset) point, all four
    // (policy × backing) corners answer bit-identically.
    #[test]
    fn placement_policy_never_changes_response_bits(
        device_pick in 0usize..4,
        mask in prop::collection::vec(0u8..2, TILES as usize),
    ) {
        let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let device = [
            None,
            Some(AggregationDevice::Cpu),
            Some(AggregationDevice::Gpu),
            Some(AggregationDevice::Hybrid),
        ][device_pick];
        let subset: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| (keep == 1).then_some(i))
            .collect();
        let tiles = if subset.len() == TILES as usize {
            TileSelection::WholeSlide
        } else {
            TileSelection::Tiles(subset)
        };

        let baseline = run_query(PlacementPolicy::RoundRobin, false, device, &tiles);
        for policy in [PlacementPolicy::RoundRobin, PlacementPolicy::ResidencyAware] {
            for on_disk in [false, true] {
                let view = run_query(policy, on_disk, device, &tiles);
                prop_assert!(
                    view == baseline,
                    "{policy:?} on_disk={on_disk} diverged from the in-memory \
                     round-robin baseline"
                );
            }
        }
    }
}

/// The same repeated whole-slide workload over a disk-backed store under
/// both policies: every round answers bit-identically to an in-memory twin,
/// and residency-aware placement faults strictly fewer tiles from disk than
/// round-robin. Resident-first ordering turns the start of each round into
/// pager hits, and the prefetcher faults upcoming tiles ahead of demand.
#[test]
fn residency_aware_placement_faults_fewer_tiles_than_round_robin() {
    const TILES: u32 = 12;
    const RESIDENCY_BOUND: usize = 4;
    const ROUNDS: usize = 4;
    // The prefetcher can only issue in the first round, while the pager
    // still has free capacity, so the worker's first `RESIDENCY_BOUND`
    // shards must take longer than the prefetcher's thread takes to start.
    // On a 2-vCPU VM in a release build those shards take ~5 ms with
    // 256-polygon tiles; with 48-polygon tiles they took ~1 ms, and the
    // prefetcher missed them in about 1 run in 20.
    const POLYGONS_PER_TILE: u32 = 256;
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let first_texts = tile_texts(TILES, POLYGONS_PER_TILE, false);
    let second_texts = tile_texts(TILES, POLYGONS_PER_TILE, true);
    // One CPU engine so dispatch order is the only degree of freedom, a
    // second executor thread so the prefetcher can overlap with the worker,
    // and no response cache so every round recomputes (and re-pages).
    let config = |policy: PlacementPolicy| {
        ServiceConfig::default()
            .with_engines(vec![
                EngineConfig::default().with_device(AggregationDevice::Cpu)
            ])
            .with_executor_threads(2)
            .with_cache_capacity(0)
            .with_placement(policy)
    };

    let memory_store = SlideStore::new();
    let first = memory_store.register_slide_text("a", &first_texts).unwrap();
    let second = memory_store
        .register_slide_text("b", &second_texts)
        .unwrap();
    let twin = ComparisonService::new(memory_store, config(PlacementPolicy::RoundRobin)).unwrap();
    let expected = semantic_view(
        &twin
            .submit(QueryRequest::new(first, second))
            .unwrap()
            .wait()
            .unwrap(),
    );

    let run = |policy: PlacementPolicy| {
        let dir = spill_dir();
        let store = SlideStore::with_spill(&dir, RESIDENCY_BOUND).unwrap();
        let first = store
            .register_slide_streaming("a", first_texts.clone())
            .unwrap();
        let second = store
            .register_slide_streaming("b", second_texts.clone())
            .unwrap();
        let service = ComparisonService::new(store, config(policy)).unwrap();
        for round in 0..ROUNDS {
            let response = service
                .submit(QueryRequest::new(first, second))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(
                semantic_view(&response),
                expected,
                "{policy:?} round {round} diverged from the in-memory twin"
            );
        }
        let scheduler = service.stats().scheduler;
        let misses = service.store().storage_stats().pager_misses;
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
        (scheduler, misses)
    };
    let (round_robin, round_robin_misses) = run(PlacementPolicy::RoundRobin);
    let (residency_aware, residency_aware_misses) = run(PlacementPolicy::ResidencyAware);

    assert_eq!(round_robin.policy, "round-robin");
    assert_eq!(residency_aware.policy, "residency-aware");
    assert!(
        residency_aware_misses < round_robin_misses,
        "residency-aware placement must fault fewer tiles than round-robin \
         ({residency_aware_misses} vs {round_robin_misses})"
    );
    assert!(
        residency_aware.faults_avoided > 0,
        "resident-first ordering must dispatch some shards without touching disk"
    );
    assert!(
        residency_aware.affinity_hits > 0,
        "some shards must land on the engine holding their tiles resident"
    );
    assert!(
        residency_aware.prefetch_issued > 0,
        "the background prefetcher must have faulted tiles ahead of demand"
    );
}
