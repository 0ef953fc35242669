//! Cross-crate integration tests: every computation path of the system must
//! agree on the same workloads — the SDBMS query, the GEOS-style overlay, the
//! PixelBox CPU port, the PixelBox GPU kernel and the full pipelined
//! framework all compute the identical Jaccard similarity.

use sccg::jaccard::JaccardAccumulator;
use sccg::pipeline::{ParseTask, Pipeline, PipelineConfig};
use sccg_datagen::{generate_dataset, generate_tile_pair, DatasetSpec, TileSpec};
use sccg_repro::prelude::*;
use sccg_sdbms::{execute_cross_comparison, execute_parallel, PolygonTable, QueryPlan};

fn test_tile() -> sccg_datagen::TilePair {
    generate_tile_pair(&TileSpec {
        target_polygons: 150,
        width: 1024,
        height: 1024,
        seed: 2024,
        ..TileSpec::default()
    })
}

#[test]
fn sdbms_engine_and_pipeline_agree_on_similarity() {
    let tile = test_tile();

    // Path 1: the mini SDBMS executing the optimized query (PostGIS path).
    let table_a = PolygonTable::new("a", tile.first.clone());
    let table_b = PolygonTable::new("b", tile.second.clone());
    let sdbms = execute_cross_comparison(&table_a, &table_b, QueryPlan::Optimized);

    // Path 2: the library engine with PixelBox on the simulated GPU.
    let engine = CrossComparison::new(EngineConfig::default());
    let gpu_report = engine.compare_records(&tile.first, &tile.second);

    // Path 3: the library engine with PixelBox-CPU.
    let cpu_engine =
        CrossComparison::new(EngineConfig::default().with_device(AggregationDevice::Cpu));
    let cpu_report = cpu_engine.compare_records(&tile.first, &tile.second);

    // Path 4: the full pipelined framework from text files.
    let pipeline = Pipeline::new(PipelineConfig::default().with_migration(true));
    let pipeline_report = pipeline.run(vec![ParseTask::from_tile_pair(&tile)]);

    assert_eq!(sdbms.candidate_pairs as usize, gpu_report.candidate_pairs);
    assert_eq!(
        sdbms.intersecting_pairs,
        gpu_report.summary.intersecting_pairs
    );
    assert!((sdbms.similarity - gpu_report.similarity).abs() < 1e-12);
    assert!((gpu_report.similarity - cpu_report.similarity).abs() < 1e-12);
    assert!((gpu_report.similarity - pipeline_report.similarity()).abs() < 1e-12);
}

#[test]
fn cpu_gpu_and_both_hybrid_modes_agree_bit_for_bit_end_to_end() {
    // Backend agreement across the whole stack: the same tile pushed through
    // every substrate — CPU, GPU, the static §5 hybrid split AND the
    // adaptive timing-feedback split — must yield bit-identical per-pair
    // areas and the identical J'.
    let tile = test_tile();
    let reports: Vec<CrossComparisonReport> = [
        (AggregationDevice::Gpu, SplitPolicy::Static),
        (AggregationDevice::Cpu, SplitPolicy::Static),
        (AggregationDevice::Hybrid, SplitPolicy::Static),
        (AggregationDevice::Hybrid, SplitPolicy::Adaptive),
    ]
    .into_iter()
    .map(|(device, split_policy)| {
        let engine = CrossComparison::new(
            EngineConfig::default()
                .with_device(device)
                .with_split_policy(split_policy),
        );
        // Several comparisons so the adaptive controller actually moves; the
        // returned report is the last one.
        engine.compare_records(&tile.first, &tile.second);
        engine.compare_records(&tile.first, &tile.second);
        engine.compare_records(&tile.first, &tile.second)
    })
    .collect();
    let [gpu, cpu, hybrid, adaptive] = <[CrossComparisonReport; 4]>::try_from(reports).unwrap();
    assert_eq!(gpu.pair_areas, cpu.pair_areas);
    assert_eq!(gpu.pair_areas, hybrid.pair_areas);
    assert_eq!(gpu.pair_areas, adaptive.pair_areas);
    assert_eq!(gpu.summary, cpu.summary);
    assert_eq!(gpu.summary, hybrid.summary);
    assert_eq!(gpu.summary, adaptive.summary);
    assert_eq!(gpu.similarity, hybrid.similarity);
    assert_eq!(gpu.similarity, adaptive.similarity);
    // And the static hybrid run demonstrably touched both substrates: its
    // GPU launch covers only part of the batch.
    assert!(hybrid.gpu_launch.is_some());
    assert!(hybrid.gpu_launch.unwrap().cycles < gpu.gpu_launch.unwrap().cycles);
}

#[test]
fn adaptive_pipeline_traces_its_splits_and_matches_static_results() {
    // The pipelined framework under AggregationDevice::Hybrid defaults to
    // the adaptive split and reports a per-batch SplitTrace; similarity is
    // identical to the static-split run on the same tiles.
    let dataset = generate_dataset(&DatasetSpec {
        name: "adaptive-e2e".into(),
        tiles: 8,
        polygons_per_tile: 50,
        tile_size: 512,
        seed: 99,
        nucleus_radius: 6,
    });
    let tasks = || -> Vec<ParseTask> {
        dataset
            .tiles
            .iter()
            .map(ParseTask::from_tile_pair)
            .collect()
    };
    let hybrid = EngineConfig::default().with_device(AggregationDevice::Hybrid);
    let adaptive = Pipeline::new(
        PipelineConfig::default()
            .with_engine(hybrid.clone())
            .with_aggregator_batch(2)
            .with_migration(false),
    )
    .run(tasks());
    let pinned = Pipeline::new(
        PipelineConfig::default()
            .with_engine(hybrid.with_split_policy(SplitPolicy::Static))
            .with_aggregator_batch(2)
            .with_migration(false),
    )
    .run(tasks());
    assert!((adaptive.similarity() - pinned.similarity()).abs() < 1e-12);
    assert_eq!(
        adaptive.summary.candidate_pairs,
        pinned.summary.candidate_pairs
    );
    let trace = adaptive.split_trace.as_ref().expect("hybrid trace");
    assert!(!trace.is_empty());
    assert!(trace
        .samples()
        .iter()
        .all(|s| (0.0..=1.0).contains(&s.next_fraction)));
    assert!(pinned
        .split_trace
        .as_ref()
        .expect("static hybrid trace")
        .samples()
        .iter()
        .all(|s| s.next_fraction == 0.5));
}

#[test]
fn unoptimized_and_optimized_sdbms_plans_agree_with_parallel_execution() {
    let tile = test_tile();
    let a = PolygonTable::new("a", tile.first);
    let b = PolygonTable::new("b", tile.second);
    let unopt = execute_cross_comparison(&a, &b, QueryPlan::Unoptimized);
    let opt = execute_cross_comparison(&a, &b, QueryPlan::Optimized);
    let (parallel, makespan) = execute_parallel(&a, &b, QueryPlan::Optimized, 16, 8);
    assert!((unopt.similarity - opt.similarity).abs() < 1e-12);
    assert!((parallel.similarity - opt.similarity).abs() < 1e-9);
    assert!(makespan > 0.0);
}

#[test]
fn identical_segmentations_score_perfect_similarity_everywhere() {
    let tile = test_tile();
    let engine = CrossComparison::new(EngineConfig::default());
    let report = engine.compare_records(&tile.first, &tile.first);
    assert!((report.similarity - 1.0).abs() < 1e-12);

    let table = PolygonTable::new("t", tile.first.clone());
    let sdbms = execute_cross_comparison(&table, &table, QueryPlan::Optimized);
    assert!((sdbms.similarity - 1.0).abs() < 1e-12);
}

#[test]
fn pixelbox_matches_exact_overlay_per_pair_on_a_dataset() {
    // Per-pair agreement (not just aggregate) between the GPU kernel and the
    // GEOS-style overlay across a small multi-tile data set.
    let dataset = generate_dataset(&DatasetSpec {
        name: "integration".into(),
        tiles: 3,
        polygons_per_tile: 60,
        tile_size: 768,
        seed: 31,
        nucleus_radius: 7,
    });
    let engine = CrossComparison::new(EngineConfig::default());
    for tile in &dataset.tiles {
        let pairs = engine.filter_pairs(&tile.first, &tile.second);
        let report = engine.compare_pairs(&pairs);
        let mut acc = JaccardAccumulator::new();
        for (pair, areas) in pairs.iter().zip(&report.pair_areas) {
            let reference = sccg_clip::pair_areas(&pair.p, &pair.q);
            assert_eq!(*areas, reference);
            acc.add_pair(reference);
        }
        assert_eq!(report.summary, acc.summary());
    }
}

#[test]
fn serving_layer_agrees_with_engine_pipeline_and_sdbms() {
    // The fifth computation path: the persistent serving layer. A
    // whole-slide query through a mixed-device ComparisonService must
    // produce the same similarity as the one-shot engine, the pipelined
    // framework and the SDBMS on the same tiles.
    let dataset = generate_dataset(&DatasetSpec {
        name: "serving-e2e".into(),
        tiles: 5,
        polygons_per_tile: 60,
        tile_size: 512,
        seed: 321,
        nucleus_radius: 6,
    });

    // Reference: the one-shot engine, tile by tile.
    let engine = CrossComparison::new(EngineConfig::default());
    let mut acc = JaccardAccumulator::new();
    for tile in &dataset.tiles {
        let report = engine.compare_records(&tile.first, &tile.second);
        let mut tile_acc = JaccardAccumulator::new();
        for areas in &report.pair_areas {
            tile_acc.add_pair(*areas);
        }
        acc.merge(&tile_acc);
    }
    let expected = acc.summary();

    // The pipelined framework from serialized text.
    let pipeline_report = Pipeline::new(PipelineConfig::default()).run(
        dataset
            .tiles
            .iter()
            .map(ParseTask::from_tile_pair)
            .collect(),
    );
    assert!((pipeline_report.similarity() - expected.similarity).abs() < 1e-12);

    // The serving layer, registered once and queried.
    let store = SlideStore::new();
    let first = store.register_slide(
        "result-a",
        dataset.tiles.iter().map(|t| t.first.clone()).collect(),
    );
    let second = store.register_slide(
        "result-b",
        dataset.tiles.iter().map(|t| t.second.clone()).collect(),
    );
    let service = ComparisonService::new(store, ServiceConfig::default()).expect("service");
    let response = service
        .submit(QueryRequest::new(first, second))
        .expect("submit")
        .wait()
        .expect("resolve");
    // Sharded, merged in tile order: bit-identical to the reference fold.
    assert_eq!(response.summary, expected);
    assert_eq!(response.shards, dataset.tiles.len());

    // And a resubmission is answered from the cache with the same result.
    let cached = service
        .submit(QueryRequest::new(first, second))
        .expect("resubmit")
        .wait()
        .expect("cached resolve");
    assert!(cached.cache_hit);
    assert_eq!(cached.summary, expected);
}

#[test]
fn text_round_trip_preserves_similarity() {
    // Serializing to the polygon-file format and re-parsing (what the parser
    // stage does) must not change any result.
    let tile = test_tile();
    let engine = CrossComparison::new(EngineConfig::default());
    let direct = engine.compare_records(&tile.first, &tile.second);

    let first = sccg_geometry::text::parse_polygon_file(&tile.first_as_text()).unwrap();
    let second = sccg_geometry::text::parse_polygon_file(&tile.second_as_text()).unwrap();
    let reparsed = engine.compare_records(&first, &second);
    assert_eq!(direct.summary, reparsed.summary);
}
