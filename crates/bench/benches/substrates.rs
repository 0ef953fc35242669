//! Ablation micro-benchmarks of the substrates: Hilbert R-tree join vs naive
//! join, exact overlay vs Monte-Carlo estimation, text parsing throughput,
//! and the hybrid CPU/GPU split — static fractions vs the adaptive
//! controller, on deliberately asymmetric substrate speeds (a single CPU
//! worker against the simulated GTX 580).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sccg::pixelbox::algorithm::{compute_pair, compute_pair_reference};
use sccg::pixelbox::{ComputeBackend, HybridBackend, PixelBoxConfig, SplitConfig, SplitController};
use sccg_bench::{dense_l_pair, filtered_pairs, representative_tile};
use sccg_clip::{monte_carlo_areas, pair_areas};
use sccg_geometry::edge_table::{
    overlap_len_in, overlap_len_in_scalar, span_len_in, span_len_in_scalar, LANES,
};
use sccg_geometry::text::{parse_polygon_file, write_polygon_file};
use sccg_geometry::Rect;
use sccg_gpu_sim::{Device, DeviceConfig};
use sccg_rtree::{mbr_join, naive_mbr_join};
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let tile = representative_tile(300);
    let left: Vec<Rect> = tile.first.iter().map(|r| r.polygon.mbr()).collect();
    let right: Vec<Rect> = tile.second.iter().map(|r| r.polygon.mbr()).collect();
    let text = write_polygon_file(&tile.first);
    let p = &tile.first[0].polygon;
    let q = &tile.second[0].polygon;

    let mut group = c.benchmark_group("substrates");
    group.sample_size(20);
    group.bench_function("mbr_join_hilbert_rtree", |bench| {
        bench.iter(|| mbr_join(&left, &right))
    });
    group.bench_function("mbr_join_naive", |bench| {
        bench.iter(|| naive_mbr_join(&left, &right))
    });
    group.bench_function("exact_overlay_pair", |bench| {
        bench.iter(|| pair_areas(p, q))
    });
    group.bench_function("monte_carlo_pair_10k_samples", |bench| {
        bench.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            monte_carlo_areas(p, q, 10_000, &mut rng)
        })
    });
    group.bench_function("parse_polygon_file", |bench| {
        bench.iter(|| parse_polygon_file(&text).unwrap())
    });

    // Dense pixelization ablation: two large overlapping L-shapes with the
    // threshold far above the region size, so the whole joint MBR is
    // finished by the pixelization kernel. The `scanline` row is the
    // interval fast path, the `per_pixel_seed` row the retained seed loop —
    // same areas, same trace, different cost (the fast path's acceptance
    // target is ≥ 100× on this shape; the observed gap is far larger).
    let dense = dense_l_pair(512);
    let dense_threshold = 1u32 << 30; // threshold ≫ region: pixelize at once
    group.bench_function("pixelize_dense_scanline", |bench| {
        bench.iter(|| compute_pair(&dense, dense_threshold, 64, sccg::pixelbox::Variant::Full))
    });
    group.sample_size(10);
    group.bench_function("pixelize_dense_per_pixel_seed", |bench| {
        bench.iter(|| {
            compute_pair_reference(&dense, dense_threshold, 64, sccg::pixelbox::Variant::Full)
        })
    });
    group.sample_size(20);

    // Interval-merge kernel ablation: the lane-chunked branchless kernels vs
    // their early-break scalar references, on crossing lists wide enough to
    // span several lane chunks (the kernels are proven bit-identical by the
    // lane-boundary proptests; these rows track the cost gap).
    let wide_a: Vec<i32> = (0..(4 * LANES as i32 + 2)).map(|i| 3 * i).collect();
    let wide_b: Vec<i32> = (0..(4 * LANES as i32 + 2)).map(|i| 3 * i + 1).collect();
    let (lo, hi) = (4, 3 * (4 * LANES as i32 + 2) - 4);
    group.bench_function("interval_merge_scalar", |bench| {
        bench.iter(|| {
            span_len_in_scalar(&wide_a, lo, hi) + overlap_len_in_scalar(&wide_a, &wide_b, lo, hi)
        })
    });
    group.bench_function("interval_merge_lanes", |bench| {
        bench.iter(|| span_len_in(&wide_a, lo, hi) + overlap_len_in(&wide_a, &wide_b, lo, hi))
    });

    // Hybrid split ablation: the same pair stream chunked into batches, run
    // through static GPU fractions and the adaptive controller. The backend
    // (and so the controller's learned state) persists across iterations, so
    // the adaptive rows report converged behavior; the acceptance target is
    // adaptive wall-clock ≤ the best static fraction within 10%.
    let pairs = filtered_pairs(&tile);
    let pixelbox = PixelBoxConfig::paper_default();
    for (label, split) in [
        ("hybrid_split_static_0.25", SplitConfig::fixed(0.25)),
        ("hybrid_split_static_0.50", SplitConfig::fixed(0.50)),
        ("hybrid_split_static_0.75", SplitConfig::fixed(0.75)),
        ("hybrid_split_adaptive", SplitConfig::adaptive(0.5)),
    ] {
        let backend = HybridBackend::new(
            Arc::new(Device::new(DeviceConfig::gtx580())),
            1,
            Arc::new(SplitController::new(split)),
        );
        group.bench_function(label, |bench| {
            bench.iter(|| {
                let mut computed = 0usize;
                for chunk in pairs.chunks(64) {
                    computed += backend.compute_batch(chunk, &pixelbox).areas.len();
                }
                computed
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
