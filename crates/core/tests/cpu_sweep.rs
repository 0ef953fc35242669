//! Differential suite for the CPU substrate's row sweep.
//!
//! [`sweep_pair`] computes a pair's areas with one row sweep over the
//! overlap of the two MBRs, where PixelBox partitions sampling boxes. Areas
//! are exact integers, so the sweep must equal PixelBox for every variant
//! and fanout, and the retained per-pixel oracle
//! ([`compute_pair_reference`]), on every pair. The pairs are random
//! rectilinear polygons and the shapes where a row sweep could slip: combs,
//! one-pixel slivers, shared edges, nested and disjoint polygons, and MBRs
//! that only touch (the generator in `adversarial/mod.rs`, shared with the
//! GPU's `trace_pair.rs`).

mod adversarial;

use adversarial::AdversarialPair;
use proptest::prelude::*;
use proptest::TestRng;
use sccg::pixelbox::algorithm::{compute_pair, compute_pair_reference};
use sccg::pixelbox::cpu::sweep_pair;
use sccg::pixelbox::{ComputeBackend, CpuBackend, PixelBoxConfig, PolygonPair, Variant};
use sccg::{CrossComparison, EngineConfig};
use sccg_datagen::{generate_dataset, DatasetSpec};

/// Checks the sweep against PixelBox's three variants at fanouts 4 and 64
/// and against the per-pixel oracle.
fn assert_sweep_is_exact(pair: &PolygonPair, threshold: u32) {
    let swept = sweep_pair(pair);
    for variant in [Variant::PixelOnly, Variant::NoSep, Variant::Full] {
        for fanout in [4, 64] {
            assert_eq!(
                compute_pair(pair, threshold, fanout, variant).0,
                swept,
                "{variant:?} at fanout {fanout}, threshold {threshold}: {pair:?}"
            );
        }
    }
    assert_eq!(
        compute_pair_reference(pair, threshold, 4, Variant::PixelOnly).0,
        swept,
        "per-pixel oracle: {pair:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn the_sweep_equals_pixelbox_and_the_per_pixel_oracle(
        pair in AdversarialPair,
        threshold in 1u32..300,
    ) {
        assert_sweep_is_exact(&pair, threshold);
    }
}

/// Benchmark-shaped nuclei: every candidate pair of a tile at radius 6 and
/// at radius 32, at the paper's threshold.
#[test]
fn the_sweep_is_exact_on_generated_nuclei() {
    let engine = CrossComparison::new(EngineConfig::default());
    for nucleus_radius in [6, 32] {
        let dataset = generate_dataset(&DatasetSpec {
            name: "cpu-sweep".into(),
            tiles: 1,
            polygons_per_tile: 48,
            tile_size: 512,
            seed: 11,
            nucleus_radius,
        });
        let tile = &dataset.tiles[0];
        let pairs = engine.filter_pairs(&tile.first, &tile.second);
        assert!(pairs.len() > 20, "{} pairs", pairs.len());
        for pair in &pairs {
            assert_sweep_is_exact(pair, PixelBoxConfig::paper_default().threshold);
        }
    }
}

/// The CPU backend is the sweep mapped over the pool, for any worker count
/// and any variant in the request.
#[test]
fn the_cpu_backend_sweeps_whatever_the_variant() {
    let mut rng = TestRng::from_seed(3);
    let pairs: Vec<PolygonPair> = (0..300)
        .map(|_| AdversarialPair.generate(&mut rng))
        .collect();
    let swept: Vec<_> = pairs.iter().map(sweep_pair).collect();
    for variant in [Variant::PixelOnly, Variant::NoSep, Variant::Full] {
        let config = PixelBoxConfig::paper_default().with_variant(variant);
        for workers in [1, 3] {
            let batch = CpuBackend::new(workers).compute_batch(&pairs, &config);
            assert_eq!(batch.areas, swept, "{variant:?} on {workers} workers");
            assert!(batch.launch.is_none());
        }
    }
}
