//! Shared workload construction for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation (§5) is regenerated by a
//! Criterion bench (`crates/bench/benches/`) and by the `reproduce` binary
//! (`cargo run -p sccg-bench --release --bin reproduce -- all`), both of which
//! build their inputs through the helpers in this module so the workloads are
//! identical and deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sccg::pipeline::model::TileStats;
use sccg::pixelbox::PolygonPair;
use sccg_datagen::{catalog, generate_dataset, generate_tile_pair, Dataset, TileSpec};
use sccg_geometry::Rect;
use sccg_rtree::mbr_join;

/// The tile used as the stand-in for the paper's `oligoastroIII_1`
/// representative data set in the algorithm-level experiments (Figures 7–10).
/// The paper filters 15,724 pairs from two representative polygon files; this
/// workload is scaled down so a full sweep completes in seconds, while keeping
/// the same polygon-size distribution.
pub fn representative_tile(polygons: u32) -> sccg_datagen::TilePair {
    generate_tile_pair(&TileSpec {
        tile_id: 1,
        width: 2048,
        height: 2048,
        target_polygons: polygons,
        seed: 0x0A11_0B0C,
        ..TileSpec::default()
    })
}

/// Filters the MBR-intersecting pairs of a tile, exactly what the filter
/// stage hands to the aggregator.
pub fn filtered_pairs(tile: &sccg_datagen::TilePair) -> Vec<PolygonPair> {
    let left: Vec<Rect> = tile.first.iter().map(|r| r.polygon.mbr()).collect();
    let right: Vec<Rect> = tile.second.iter().map(|r| r.polygon.mbr()).collect();
    mbr_join(&left, &right)
        .into_iter()
        .map(|(i, j)| {
            PolygonPair::new(
                tile.first[i as usize].polygon.clone(),
                tile.second[j as usize].polygon.clone(),
            )
        })
        .collect()
}

/// The representative pair batch used by Figures 7–10, with every polygon's
/// coordinates multiplied by `scale_factor` (the paper's stress test scales
/// vertices by 1–5, §5.2).
pub fn representative_pairs(polygons: u32, scale_factor: i32) -> Vec<PolygonPair> {
    let tile = representative_tile(polygons);
    filtered_pairs(&tile)
        .into_iter()
        .map(|pair| {
            PolygonPair::new(
                pair.p.scale(scale_factor).expect("scale within range"),
                pair.q.scale(scale_factor).expect("scale within range"),
            )
        })
        .collect()
}

/// Two large overlapping L-shapes with a `size × size` joint region: the
/// dense pixelization workload of the substrates bench's `pixelize_dense`
/// rows. With the pixelization threshold far above `size²` the whole joint
/// MBR is finished by the pixelization kernel, isolating interval-scanline
/// vs per-pixel cost.
pub fn dense_l_pair(size: i32) -> PolygonPair {
    use sccg_geometry::Point;
    let l_shape = |offset: i32| {
        sccg_geometry::RectilinearPolygon::new(vec![
            Point::new(offset, offset),
            Point::new(offset + size, offset),
            Point::new(offset + size, offset + size / 2),
            Point::new(offset + size / 2, offset + size / 2),
            Point::new(offset + size / 2, offset + size),
            Point::new(offset, offset + size),
        ])
        .expect("L-shape is valid")
    };
    PolygonPair::new(l_shape(0), l_shape(size / 8))
}

/// Per-tile statistics for the system-level experiments (Table 1, Figures 11
/// and 12), derived from a generated data set.
pub fn dataset_tile_stats(dataset: &Dataset) -> Vec<TileStats> {
    TileStats::from_dataset(dataset)
}

/// Generates every data set of the 18-entry study catalog.
pub fn study_datasets() -> Vec<Dataset> {
    catalog().iter().map(generate_dataset).collect()
}

/// A medium-sized data set standing in for `oligoastroIII_1` in the
/// system-level experiments.
pub fn system_dataset() -> Dataset {
    generate_dataset(&sccg_datagen::DatasetSpec {
        name: "oligoastroIII_1 (scaled)".into(),
        tiles: 24,
        polygons_per_tile: 150,
        tile_size: 1024,
        seed: 0x51CC,
        nucleus_radius: 7,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representative_pairs_are_nonempty_and_scale() {
        let base = representative_pairs(60, 1);
        let scaled = representative_pairs(60, 3);
        assert!(!base.is_empty());
        assert_eq!(base.len(), scaled.len());
        assert!(scaled[0].p.area() > base[0].p.area());
    }

    #[test]
    fn system_dataset_has_expected_shape() {
        let ds = system_dataset();
        assert_eq!(ds.tiles.len(), 24);
        let stats = dataset_tile_stats(&ds);
        assert_eq!(stats.len(), 24);
        assert!(stats.iter().all(|s| s.pairs > 0));
    }
}
