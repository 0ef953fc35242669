//! Property tests for the hybrid CPU+GPU backend: for *any* split ratio in
//! `[0, 1]` the hybrid backend must preserve pair order and produce exactly
//! the results of a single-substrate run — splitting and merging is a
//! performance decision, never a correctness one.

use proptest::prelude::*;
use sccg::pixelbox::backend::hybrid_split_point;
use sccg::pixelbox::{
    ComputeBackend, CpuBackend, HybridBackend, PixelBoxConfig, PolygonPair, SplitConfig,
    SplitController,
};
use sccg_geometry::{Rect, RectilinearPolygon};
use sccg_gpu_sim::{Device, DeviceConfig};
use std::sync::Arc;

/// Strategy for a batch of overlapping rectangle pairs with varied sizes and
/// offsets, indexed so order scrambling would be caught.
fn pair_batch() -> impl Strategy<Value = Vec<PolygonPair>> {
    prop::collection::vec(
        (0i32..400, 0i32..400, 1i32..24, 1i32..24, -6i32..6, -6i32..6),
        0usize..24,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .map(|(x, y, w, h, dx, dy)| {
                let p = RectilinearPolygon::rectangle(Rect::new(x, y, x + w, y + h)).unwrap();
                let q = RectilinearPolygon::rectangle(Rect::new(
                    x + dx,
                    y + dy,
                    x + dx + w + 2,
                    y + dy + h + 1,
                ))
                .unwrap();
                PolygonPair::new(p, q)
            })
            .collect()
    })
}

fn hybrid(fraction: f64) -> HybridBackend {
    hybrid_with(SplitConfig::fixed(fraction))
}

fn hybrid_with(split: SplitConfig) -> HybridBackend {
    HybridBackend::new(
        Arc::new(Device::new(DeviceConfig::gtx580())),
        2,
        Arc::new(SplitController::new(split)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_split_ratio_preserves_pair_order_and_areas(
        pairs in pair_batch(),
        fraction in 0.0f64..1.0,
    ) {
        let config = PixelBoxConfig::paper_default();
        let reference = CpuBackend::new(1).compute_batch(&pairs, &config);
        let split = hybrid(fraction).compute_batch(&pairs, &config);
        // Bit-identical per-pair areas, in the original pair order.
        prop_assert_eq!(&split.areas, &reference.areas);
    }

    #[test]
    fn any_split_ratio_preserves_totals(
        pairs in pair_batch(),
        fraction in 0.0f64..1.0,
    ) {
        let config = PixelBoxConfig::paper_default();
        let reference = CpuBackend::new(1).compute_batch(&pairs, &config);
        let split = hybrid(fraction).compute_batch(&pairs, &config);
        let total = |areas: &[sccg::pixelbox::PairAreas]| -> (i64, i64) {
            (
                areas.iter().map(|a| a.intersection).sum(),
                areas.iter().map(|a| a.union).sum(),
            )
        };
        prop_assert_eq!(split.areas.len(), pairs.len());
        prop_assert_eq!(total(&split.areas), total(&reference.areas));
    }

    #[test]
    fn split_point_is_monotone_and_bounded(
        len in 0usize..10_000,
        fraction in -2.0f64..3.0,
        delta in 0.0f64..1.0,
    ) {
        let here = hybrid_split_point(len, fraction);
        prop_assert!(here <= len);
        // Monotone in the fraction: more GPU share never shrinks the prefix.
        let larger = hybrid_split_point(len, fraction + delta);
        prop_assert!(larger >= here);
        // Clamped extremes.
        prop_assert_eq!(hybrid_split_point(len, 0.0), 0);
        prop_assert_eq!(hybrid_split_point(len, 1.0), len);
    }

    #[test]
    fn adaptive_split_agrees_bit_for_bit_across_consecutive_batches(
        pairs in pair_batch(),
        seed in 0.0f64..1.0,
        batches in 1usize..5,
    ) {
        // Whatever trajectory the controller takes from any seed, the merged
        // results of every batch must stay bit-identical to the CPU
        // reference — adaptation is a performance decision, never a
        // correctness one.
        let config = PixelBoxConfig::paper_default();
        let reference = CpuBackend::new(1).compute_batch(&pairs, &config);
        let backend = hybrid_with(SplitConfig::adaptive(seed).with_warmup_batches(0));
        for _ in 0..batches {
            let batch = backend.compute_batch(&pairs, &config);
            prop_assert_eq!(&batch.areas, &reference.areas);
        }
        // Telemetry invariants: one sample per nonempty batch, fractions in
        // bounds, steps within the clamp.
        let trace = backend.controller().trace();
        if pairs.is_empty() {
            prop_assert!(trace.is_empty());
        } else {
            prop_assert_eq!(trace.len(), batches);
        }
        for sample in trace.samples() {
            prop_assert!((0.0..=1.0).contains(&sample.fraction));
            prop_assert!((0.0..=1.0).contains(&sample.next_fraction));
        }
        prop_assert!(
            trace.max_step_taken() <= backend.controller().config().max_step + 1e-12
        );
    }

    #[test]
    fn gpu_share_strictly_tracks_the_split(
        pairs in pair_batch(),
        fraction in 0.0f64..1.0,
    ) {
        // The number of pairs the GPU computed is exactly the split point:
        // with a nonempty GPU share there is a launch, otherwise none.
        let backend = hybrid(fraction);
        let split = backend.split_point(pairs.len());
        let batch = backend.compute_batch(&pairs, &PixelBoxConfig::paper_default());
        prop_assert_eq!(batch.launch.is_some(), split > 0);
        prop_assert_eq!(backend.device().stats().launches > 0, split > 0);
    }
}
