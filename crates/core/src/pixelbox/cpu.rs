//! The CPU's area kernels: the served row sweep, and the paper's CPU port.
//!
//! PixelBox partitions sampling boxes because on the paper's GPU a pixel
//! test walks every polygon edge (§3, Figure 8). On this CPU a pixel row of
//! a polygon's scanline [`EdgeTable`](sccg_geometry::EdgeTable) costs
//! O(crossings), so the partition buys nothing here. The CPU substrate
//! therefore computes areas with [`sweep_pair`]: one exact row sweep of the
//! two MBRs' overlap. [`CpuBackend`](super::CpuBackend) — the CPU engine,
//! the hybrid backend's CPU share and the pipeline's migration batches —
//! maps it over the persistent process-wide [`WorkerPool`] (the TBB
//! stand-in), whatever the request's [`Variant`](super::Variant).
//!
//! [`compute_batch_cpu`] is the paper's multi-core port of PixelBox
//! (§4.2): the same sampling-box / pixelization scan as the GPU kernel,
//! sequential per pair at [`CPU_FANOUT`]. It serves one row, Figure 7's
//! single-core `PixelBox-CPU-S`. Both kernels return exact integer areas,
//! so they agree bit for bit with each other and with the modelled GPU.

use super::algorithm::compute_pair;
use super::{PairAreas, PixelBoxConfig, PolygonPair};
use crate::parallel::WorkerPool;
use sccg_geometry::edge_table::intersection_len_in;

/// Partition fanout of the paper's CPU port: it explores sampling boxes
/// depth-first with a small fanout, which is friendlier to a single core's
/// cache (the GPU always partitions into `block_size` sub-boxes).
pub const CPU_FANOUT: u32 = 4;

/// Computes the areas of one pair with one row sweep over the overlap of
/// the two MBRs: `‖p∩q‖` from both polygons' edge tables, then
/// `‖p∪q‖ = ‖p‖ + ‖q‖ − ‖p∩q‖`. A pair whose MBRs share no pixel touches
/// neither edge table.
pub fn sweep_pair(pair: &PolygonPair) -> PairAreas {
    let (p, q) = (&pair.p, &pair.q);
    let window = p.mbr().intersection(&q.mbr());
    let intersection = if window.is_empty() {
        0
    } else {
        intersection_len_in(p.edge_table(), q.edge_table(), &window)
    };
    PairAreas {
        intersection,
        union: p.area() + q.area() - intersection,
    }
}

/// The paper's CPU port (`PixelBox-CPU`): the request's variant at
/// [`CPU_FANOUT`] for every pair, on `workers` pool threads. With
/// `workers == 1` this is `PixelBox-CPU-S`.
pub fn compute_batch_cpu(
    pairs: &[PolygonPair],
    config: &PixelBoxConfig,
    workers: usize,
) -> Vec<PairAreas> {
    WorkerPool::global().map(pairs, workers, 64, |pair| {
        compute_pair(pair, config.threshold, CPU_FANOUT, config.variant).0
    })
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
        for pair in sample_pairs() {
            let areas = sweep_pair(&pair);
            let (ri, ru) = raster::intersection_union_area(&pair.p, &pair.q);
            assert_eq!(areas.intersection, ri);
            assert_eq!(areas.union, ru);
        }
    }

    #[test]
    fn pairs_whose_mbrs_share_no_pixel_touch_no_edge_table() {
        let p = RectilinearPolygon::rectangle(Rect::new(0, 0, 4, 4)).unwrap();
        for q in [
            Rect::new(4, 0, 8, 4),
            Rect::new(4, 4, 8, 8),
            Rect::new(9, 9, 12, 12),
        ] {
            let pair = PolygonPair::new(p.clone(), RectilinearPolygon::rectangle(q).unwrap());
            let areas = sweep_pair(&pair);
            assert_eq!((areas.intersection, areas.union), (0, 16 + q.pixel_count()));
            assert!(pair.p.edge_table_if_built().is_none());
            assert!(pair.q.edge_table_if_built().is_none());
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
                assert_eq!(areas, sweep_pair(pair), "{variant:?}");
            }
        }
    }

    #[test]
    fn traced_computation_returns_work_counts() {
        let config = PixelBoxConfig::paper_default().with_threshold(16);
        let pair = &sample_pairs()[5];
        let (areas, trace) = compute_pair(pair, config.threshold, CPU_FANOUT, config.variant);
        assert!(areas.union >= areas.intersection);
        assert!(trace.pixel_tests + trace.box_tests > 0);
    }

    #[test]
    fn empty_batch_is_empty() {
        let config = PixelBoxConfig::paper_default();
        assert!(compute_batch_cpu(&[], &config, 4).is_empty());
    }
}
