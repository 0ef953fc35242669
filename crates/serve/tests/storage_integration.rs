//! Out-of-core equivalence: a service over disk-backed slides must be
//! indistinguishable — bit-for-bit — from the same service over in-memory
//! slides.
//!
//! Two stores are registered from the same tile texts: one through the
//! classic in-memory path, one through streaming registration onto disk
//! with a residency bound smaller than the slide. Whole-slide queries
//! across CPU/GPU/hybrid device preferences must return bit-identical
//! responses (per-tile areas, engine-agnostic fields, merged `J'`), repeats
//! must replay from each service's cache identically, and the disk service
//! must page within its residency bound the whole time. A property test
//! repeats the comparison for random tile subsets under every device
//! preference: a subset's response order follows the *request*, and pinned
//! queries must still be served.

use proptest::prelude::*;
use sccg::pixelbox::AggregationDevice;
use sccg_datagen::{generate_dataset, DatasetSpec};
use sccg_geometry::text::write_polygon_file;
use sccg_serve::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const TILES: u32 = 8;
const RESIDENCY_BOUND: usize = 3;

fn dataset() -> sccg_datagen::Dataset {
    generate_dataset(&DatasetSpec {
        name: "storage-test".into(),
        tiles: TILES,
        polygons_per_tile: 24,
        tile_size: 384,
        seed: 41,
        nucleus_radius: 6,
    })
}

fn tile_texts(dataset: &sccg_datagen::Dataset, second: bool) -> Vec<String> {
    dataset
        .tiles
        .iter()
        .map(|t| write_polygon_file(if second { &t.second } else { &t.first }))
        .collect()
}

fn spill_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("sccg-serve-storage-integration")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service_over(store: SlideStore) -> ComparisonService {
    // One engine per device preference so pinned queries are satisfiable.
    let config = ServiceConfig::default().with_engines(vec![
        AggregationDevice::Gpu,
        AggregationDevice::Cpu,
        AggregationDevice::Hybrid,
    ]);
    ComparisonService::new(store, config).expect("service starts")
}

/// Per-tile `(tile, summary, candidate pairs)` in merge order, the merged
/// summary, the shard count and the cache flag.
type SemanticView = (
    Vec<(usize, sccg::JaccardSummary, usize)>,
    sccg::JaccardSummary,
    usize,
    bool,
);

/// Strips the engine-assignment fields that legitimately differ between
/// runs (which pool member computed a tile is scheduling, not semantics),
/// keeping everything the paper's determinism argument covers: per-tile
/// areas and summaries, merge order, the merged `J'`.
fn semantic_view(response: &QueryResponse) -> SemanticView {
    (
        response
            .tiles
            .iter()
            .map(|t| (t.tile, t.summary, t.candidate_pairs))
            .collect(),
        response.summary,
        response.shards,
        response.cache_hit,
    )
}

#[test]
fn disk_and_memory_paths_answer_bit_identically_across_devices() {
    let data = dataset();
    let first_texts = tile_texts(&data, false);
    let second_texts = tile_texts(&data, true);

    let memory_store = SlideStore::new();
    let mem_first = memory_store
        .register_slide_text("result-a", &first_texts)
        .unwrap();
    let mem_second = memory_store
        .register_slide_text("result-b", &second_texts)
        .unwrap();

    let dir = spill_dir("equivalence");
    let disk_store = SlideStore::with_spill(&dir, RESIDENCY_BOUND).unwrap();
    let disk_first = disk_store
        .register_slide_streaming("result-a", first_texts.clone())
        .unwrap();
    let disk_second = disk_store
        .register_slide_streaming("result-b", second_texts.clone())
        .unwrap();
    assert!(disk_store.slide(disk_first).unwrap().on_disk);
    assert!(disk_store.slide(disk_second).unwrap().on_disk);
    // The dataset is larger than the residency bound, so the pager genuinely
    // pages during the queries below.
    assert!(TILES as usize > RESIDENCY_BOUND);

    let memory_service = service_over(memory_store);
    let disk_service = service_over(disk_store.clone());

    let devices = [
        None,
        Some(AggregationDevice::Cpu),
        Some(AggregationDevice::Gpu),
        Some(AggregationDevice::Hybrid),
    ];
    for device in devices {
        let request = |first, second| {
            let mut r = QueryRequest::new(first, second);
            r.device = device;
            r
        };
        let mem = memory_service
            .submit(request(mem_first, mem_second))
            .unwrap()
            .wait()
            .unwrap();
        let disk = disk_service
            .submit(request(disk_first, disk_second))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            semantic_view(&mem),
            semantic_view(&disk),
            "device {device:?}: disk-backed response diverged"
        );
        assert_eq!(mem.similarity(), disk.similarity());
        assert!(!disk.cache_hit);

        // Replay: both services answer the repeat from their caches, still
        // bit-identical to each other and to the first answer.
        let mem_again = memory_service
            .submit(request(mem_first, mem_second))
            .unwrap()
            .wait()
            .unwrap();
        let disk_again = disk_service
            .submit(request(disk_first, disk_second))
            .unwrap()
            .wait()
            .unwrap();
        assert!(mem_again.cache_hit && disk_again.cache_hit);
        assert_eq!(mem_again.summary, mem.summary);
        assert_eq!(disk_again.summary, disk.summary);
        assert_eq!(semantic_view(&mem_again).0, semantic_view(&disk_again).0);

        // Paging stayed within the residency bound throughout.
        let storage = disk_store.storage_stats();
        assert_eq!(storage.disk_slides, 2);
        assert!(
            storage.resident_tiles <= 2 * RESIDENCY_BOUND,
            "resident {} exceeds bound",
            storage.resident_tiles
        );
        assert!(
            storage.peak_resident_tiles <= 2 * RESIDENCY_BOUND,
            "peak resident {} exceeds bound",
            storage.peak_resident_tiles
        );
    }

    // The service surfaces pager telemetry through its stats.
    let stats = disk_service.stats();
    assert!(stats.resident_tiles <= 2 * RESIDENCY_BOUND);
    assert!(stats.bytes_on_disk > 0);
    assert!(stats.pager_hit_rate >= 0.0 && stats.pager_hit_rate <= 1.0);
    let mem_stats = memory_service.stats();
    assert_eq!(mem_stats.resident_tiles, 0);
    assert_eq!(mem_stats.bytes_on_disk, 0);

    drop(disk_service);
    drop(disk_store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Streaming queries over a disk-backed store deliver the same per-tile
/// events and final response as the blocking path — faulting through the
/// pager does not disturb the streaming seam.
#[test]
fn streaming_queries_page_from_disk() {
    let data = dataset();
    let dir = spill_dir("streaming");
    let store = SlideStore::with_spill(&dir, RESIDENCY_BOUND).unwrap();
    let first = store
        .register_slide_streaming("a", tile_texts(&data, false))
        .unwrap();
    let second = store
        .register_slide_streaming("b", tile_texts(&data, true))
        .unwrap();
    let service = service_over(store.clone());

    let mut seen = Vec::new();
    let response = service
        .submit_streaming(QueryRequest::new(first, second))
        .unwrap()
        .wait_with(|position, report| seen.push((position, report.clone())))
        .unwrap();
    assert_eq!(seen.len(), TILES as usize);
    for (position, report) in seen {
        assert_eq!(&response.tiles[position], &report);
    }
    assert!(store.storage_stats().resident_tiles <= 2 * RESIDENCY_BOUND);

    drop(service);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

static CASE: AtomicUsize = AtomicUsize::new(0);

/// One query over a fresh store — in memory, or streamed onto disk with a
/// residency bound smaller than the slide — reduced to its semantic view
/// and the exact bits of its `J'`.
fn answer(
    on_disk: bool,
    device: Option<AggregationDevice>,
    tiles: &TileSelection,
) -> (SemanticView, u64) {
    let data = dataset();
    let dir = on_disk.then(|| {
        spill_dir(&format!(
            "proptest-{}",
            CASE.fetch_add(1, Ordering::Relaxed)
        ))
    });
    let store = match &dir {
        Some(dir) => SlideStore::with_spill(dir, RESIDENCY_BOUND).unwrap(),
        None => SlideStore::new(),
    };
    let first = store
        .register_slide_streaming("a", tile_texts(&data, false))
        .unwrap();
    let second = store
        .register_slide_streaming("b", tile_texts(&data, true))
        .unwrap();
    assert_eq!(store.slide(first).unwrap().on_disk, on_disk);
    let service = service_over(store);
    let mut request = QueryRequest::new(first, second);
    request.device = device;
    request.tiles = tiles.clone();
    let response = service.submit(request).unwrap().wait().unwrap();
    drop(service);
    if let Some(dir) = dir {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    (semantic_view(&response), response.similarity().to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Across device preference × tile subset, the disk-backed service
    // answers bit-identically to the in-memory one.
    #[test]
    fn disk_and_memory_answer_bit_identically_for_any_device_and_tile_subset(
        device_pick in 0usize..4,
        mask in prop::collection::vec(0u8..2, TILES as usize),
    ) {
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
        prop_assert_eq!(answer(true, device, &tiles), answer(false, device, &tiles));
    }
}
