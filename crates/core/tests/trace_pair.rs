//! Differential suite for the simulated GPU's count-only partition scan.
//!
//! The GPU engine charges each pair the [`Trace`] of [`trace_pair`] and
//! takes its areas from the CPU's row sweep. [`trace_pair`] marks,
//! classifies, pushes and pops sampling boxes exactly as [`compute_pair`]
//! does but skips the pixelized boxes' interval arithmetic, so its trace
//! must equal [`compute_pair`]'s field for field, and the GPU batch's areas
//! must equal both [`compute_pair`]'s and the per-pixel oracle's
//! ([`compute_pair_reference`]), for every variant, fanout and threshold.
//!
//! [`Trace`]: sccg::pixelbox::algorithm::Trace

mod adversarial;

use adversarial::AdversarialPair;
use proptest::prelude::*;
use proptest::TestRng;
use sccg::pixelbox::algorithm::{compute_pair, compute_pair_reference, trace_pair};
use sccg::pixelbox::gpu::GpuPixelBox;
use sccg::pixelbox::{PairAreas, PixelBoxConfig, PolygonPair, Variant};
use sccg::{CrossComparison, EngineConfig};
use sccg_datagen::{generate_dataset, DatasetSpec};
use sccg_gpu_sim::{Device, DeviceConfig};
use std::sync::Arc;

const VARIANTS: [Variant; 3] = [Variant::PixelOnly, Variant::NoSep, Variant::Full];
const FANOUTS: [u32; 4] = [4, 16, 64, 128];
const THRESHOLDS: [u32; 4] = [1, 64, 2048, 1 << 30];

/// Checks `pairs` at every variant, fanout and threshold: each pair's
/// count-only trace against the full scan's, and one GPU batch's areas
/// against the full scan's and the per-pixel oracle's.
fn assert_trace_pair_is_exact(pairs: &[PolygonPair]) {
    // Areas are exact, so one oracle run per pair serves every setting.
    let oracle: Vec<PairAreas> = pairs
        .iter()
        .map(|pair| compute_pair_reference(pair, 64, 16, Variant::Full).0)
        .collect();
    let engine = GpuPixelBox::new(Arc::new(Device::new(DeviceConfig::gtx580())));
    for variant in VARIANTS {
        for fanout in FANOUTS {
            for threshold in THRESHOLDS {
                let config = PixelBoxConfig::paper_default()
                    .with_block_size(fanout)
                    .with_threshold(threshold)
                    .with_variant(variant);
                let setting = format!("{variant:?} at fanout {fanout}, threshold {threshold}");
                let batch = engine.compute_batch(pairs, &config);
                for ((pair, gpu), oracle) in pairs.iter().zip(&batch.areas).zip(&oracle) {
                    let (areas, trace) = compute_pair(pair, threshold, fanout, variant);
                    assert_eq!(
                        trace_pair(pair, threshold, fanout, variant),
                        trace,
                        "trace, {setting}: {pair:?}"
                    );
                    assert_eq!(*gpu, areas, "GPU areas, {setting}: {pair:?}");
                    assert_eq!(areas, *oracle, "per-pixel oracle, {setting}: {pair:?}");
                }
            }
        }
    }
}

/// Benchmark-shaped nuclei: every candidate pair of a generated tile at
/// radius 6 and at radius 32.
#[test]
fn the_count_only_scan_is_exact_on_generated_nuclei() {
    let engine = CrossComparison::new(EngineConfig::default());
    for nucleus_radius in [6, 32] {
        let dataset = generate_dataset(&DatasetSpec {
            name: "trace-pair".into(),
            tiles: 1,
            polygons_per_tile: 48,
            tile_size: 512,
            seed: 11,
            nucleus_radius,
        });
        let tile = &dataset.tiles[0];
        let pairs = engine.filter_pairs(&tile.first, &tile.second);
        assert!(pairs.len() > 20, "{} pairs", pairs.len());
        assert_trace_pair_is_exact(&pairs);
    }
}

/// The shapes where a partition scan could slip, a batch at a time.
#[test]
fn the_count_only_scan_is_exact_on_adversarial_pairs() {
    let mut rng = TestRng::from_seed(7);
    let pairs: Vec<PolygonPair> = (0..200)
        .map(|_| AdversarialPair.generate(&mut rng))
        .collect();
    assert_trace_pair_is_exact(&pairs);
}
