//! PixelBox-CPU: the multi-core CPU port of PixelBox (paper §4.2).
//!
//! The CPU port executes the same sampling-box / pixelization logic as the
//! GPU kernel, sequentially per pair, and parallelizes across pairs on the
//! persistent process-wide [`WorkerPool`] (the
//! TBB stand-in) — shared with the hybrid backend's CPU share and every
//! `ComparisonService` engine, so batches cost no thread spawns or channel
//! traffic. It exists for two reasons in the paper's system: as the
//! single-core reference point (`PixelBox-CPU-S`, Figure 7) and as the
//! migration target when the GPU is congested (§4.2).

use super::algorithm::{compute_pair, Trace};
use super::{PairAreas, PixelBoxConfig, PolygonPair};
use crate::parallel::WorkerPool;

/// Computes the areas of one pair on the CPU.
pub fn compute_pair_cpu(pair: &PolygonPair, config: &PixelBoxConfig) -> PairAreas {
    compute_pair(pair, config.threshold, config.cpu_fanout, config.variant).0
}

/// Computes the areas of one pair on the CPU, also returning the execution
/// trace (used by benchmarks and the performance model).
pub fn compute_pair_cpu_traced(pair: &PolygonPair, config: &PixelBoxConfig) -> (PairAreas, Trace) {
    compute_pair(pair, config.threshold, config.cpu_fanout, config.variant)
}

/// Computes a whole batch of pairs on `workers` CPU threads
/// (`PixelBox-CPU`). With `workers == 1` this is `PixelBox-CPU-S`.
pub fn compute_batch_cpu(
    pairs: &[PolygonPair],
    config: &PixelBoxConfig,
    workers: usize,
) -> Vec<PairAreas> {
    WorkerPool::global().map(pairs, workers, 64, |pair| compute_pair_cpu(pair, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixelbox::Variant;
    use sccg_geometry::{raster, Rect, RectilinearPolygon};

    fn sample_pairs() -> Vec<PolygonPair> {
        let mut pairs = Vec::new();
        for i in 0..12i32 {
            let p = RectilinearPolygon::rectangle(Rect::new(i, i, i + 10 + i % 3, i + 8)).unwrap();
            let q = RectilinearPolygon::rectangle(Rect::new(i + 3, i + 2, i + 14, i + 11)).unwrap();
            pairs.push(PolygonPair::new(p, q));
        }
        pairs
    }

    #[test]
    fn single_pair_matches_oracle() {
        let config = PixelBoxConfig::paper_default();
        for pair in sample_pairs() {
            let areas = compute_pair_cpu(&pair, &config);
            let (ri, ru) = raster::intersection_union_area(&pair.p, &pair.q);
            assert_eq!(areas.intersection, ri);
            assert_eq!(areas.union, ru);
        }
    }

    #[test]
    fn batch_matches_per_pair_results_regardless_of_worker_count() {
        let config = PixelBoxConfig::paper_default();
        let pairs = sample_pairs();
        let sequential = compute_batch_cpu(&pairs, &config, 1);
        let parallel = compute_batch_cpu(&pairs, &config, 4);
        assert_eq!(sequential, parallel);
        assert_eq!(sequential.len(), pairs.len());
    }

    #[test]
    fn all_variants_agree_on_cpu() {
        let pairs = sample_pairs();
        let base = PixelBoxConfig::paper_default();
        for variant in [Variant::PixelOnly, Variant::NoSep, Variant::Full] {
            let config = base.with_variant(variant);
            let results = compute_batch_cpu(&pairs, &config, 2);
            for (pair, areas) in pairs.iter().zip(results) {
                let (ri, ru) = raster::intersection_union_area(&pair.p, &pair.q);
                assert_eq!((areas.intersection, areas.union), (ri, ru), "{variant:?}");
            }
        }
    }

    #[test]
    fn traced_computation_returns_work_counts() {
        let config = PixelBoxConfig::paper_default().with_threshold(16);
        let pair = &sample_pairs()[5];
        let (areas, trace) = compute_pair_cpu_traced(pair, &config);
        assert!(areas.union >= areas.intersection);
        assert!(trace.pixel_tests + trace.box_tests > 0);
    }

    #[test]
    fn empty_batch_is_empty() {
        let config = PixelBoxConfig::paper_default();
        assert!(compute_batch_cpu(&[], &config, 4).is_empty());
    }
}
