//! Data-set level generation and the 18-entry study catalog.

use crate::tile::{generate_tile_pair, TilePair, TileSpec};
use crate::NucleusParams;

/// Specification of one synthetic data set (one whole-slide image compared
/// across two segmentation runs).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Data-set name, mirroring the paper's naming (e.g. `oligoastroIII_1`).
    pub name: String,
    /// Number of image tiles (= polygon files per segmentation result).
    pub tiles: u32,
    /// Approximate number of polygons per tile in the first result.
    pub polygons_per_tile: u32,
    /// Tile side length in pixels.
    pub tile_size: u32,
    /// Base random seed for the whole data set.
    pub seed: u64,
    /// Nucleus semi-axis used for this data set (varies slightly between
    /// images, changing polygon sizes and pair counts as in Figure 12).
    pub nucleus_radius: u32,
}

impl DatasetSpec {
    /// Expected total polygon count of the first segmentation result.
    pub fn expected_polygons(&self) -> u64 {
        u64::from(self.tiles) * u64::from(self.polygons_per_tile)
    }

    /// Returns a copy of the spec with tile and polygon counts multiplied by
    /// `factor` (clamped to at least one tile / one polygon). Benchmarks use
    /// small factors so full sweeps finish quickly; examples can scale up.
    pub fn scaled(&self, factor: f64) -> DatasetSpec {
        let mut out = self.clone();
        out.tiles = ((f64::from(self.tiles) * factor).round() as u32).max(1);
        out.polygons_per_tile =
            ((f64::from(self.polygons_per_tile) * factor).round() as u32).max(1);
        out
    }
}

/// A fully generated data set: one [`TilePair`] per image tile.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The specification the data set was generated from.
    pub spec: DatasetSpec,
    /// Generated tile pairs.
    pub tiles: Vec<TilePair>,
}

impl Dataset {
    /// Total polygons in the first segmentation result.
    pub fn first_polygon_count(&self) -> usize {
        self.tiles.iter().map(|t| t.first.len()).sum()
    }

    /// Total polygons in the second segmentation result.
    pub fn second_polygon_count(&self) -> usize {
        self.tiles.iter().map(|t| t.second.len()).sum()
    }

    /// Total raw text size of all polygon files, in bytes — the quantity the
    /// paper's throughput metric divides by ("size of data set divided by
    /// execution time", §5.6).
    pub fn text_size_bytes(&self) -> usize {
        self.tiles
            .iter()
            .map(|t| t.first_as_text().len() + t.second_as_text().len())
            .sum()
    }
}

/// Generates a data set from its specification.
pub fn generate_dataset(spec: &DatasetSpec) -> Dataset {
    let tiles = (0..spec.tiles)
        .map(|tile_id| {
            generate_tile_pair(&TileSpec {
                tile_id,
                width: spec.tile_size,
                height: spec.tile_size,
                target_polygons: spec.polygons_per_tile,
                nucleus: NucleusParams {
                    radius_x: spec.nucleus_radius,
                    radius_y: spec.nucleus_radius,
                    boundary_jitter: 1,
                },
                dropout: 0.05,
                max_shift: 2,
                seed: spec.seed,
            })
        })
        .collect();
    Dataset {
        spec: spec.clone(),
        tiles,
    }
}

/// The 18-data-set study catalog, mirroring the structure of the paper's
/// evaluation (§5.1, §5.7): data sets differ in the number of polygon files
/// (tiles), the number of polygons and slightly in polygon size. The counts
/// here are reduced by roughly 1000× relative to the real study (first data
/// set ≈ 20 files / 57k polygons, last ≈ 442 files / 4M polygons) so that the
/// full 18-set sweep completes on a laptop-class machine; the *relative*
/// proportions between data sets follow the paper.
pub fn catalog() -> Vec<DatasetSpec> {
    // (tiles, polygons per tile, nucleus radius) roughly interpolating from
    // the smallest to the largest data set in the study.
    let shapes: [(u32, u32, u32); 18] = [
        (6, 30, 6),
        (8, 40, 7),
        (9, 60, 7),
        (11, 60, 6),
        (12, 80, 7),
        (14, 80, 8),
        (15, 100, 7),
        (17, 100, 6),
        (19, 120, 7),
        (21, 120, 8),
        (24, 130, 7),
        (27, 140, 7),
        (30, 150, 6),
        (33, 160, 7),
        (36, 170, 8),
        (42, 180, 7),
        (51, 200, 7),
        (66, 220, 7),
    ];
    shapes
        .iter()
        .enumerate()
        .map(|(i, &(tiles, per_tile, radius))| DatasetSpec {
            name: format!("oligoastroIII_{}", i + 1),
            tiles,
            polygons_per_tile: per_tile,
            tile_size: 1024,
            seed: 0x5CC6_0000 ^ (i as u64 * 7919),
            nucleus_radius: radius,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_eighteen_increasingly_large_datasets() {
        let cat = catalog();
        assert_eq!(cat.len(), 18);
        assert!(cat.first().unwrap().expected_polygons() < cat.last().unwrap().expected_polygons());
        let names: std::collections::HashSet<_> = cat.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), 18, "data set names must be unique");
    }

    #[test]
    fn generate_dataset_matches_spec() {
        let spec = catalog()[0].clone();
        let ds = generate_dataset(&spec);
        assert_eq!(ds.tiles.len(), spec.tiles as usize);
        assert_eq!(ds.first_polygon_count() as u64, spec.expected_polygons());
        assert!(ds.second_polygon_count() > 0);
        assert!(ds.text_size_bytes() > 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = catalog()[1].clone();
        let a = generate_dataset(&spec);
        let b = generate_dataset(&spec);
        assert_eq!(a.tiles, b.tiles);
    }

    #[test]
    fn different_tiles_have_different_content() {
        let spec = catalog()[2].clone();
        let ds = generate_dataset(&spec);
        assert_ne!(ds.tiles[0].first, ds.tiles[1].first);
    }

    #[test]
    fn scaled_spec_changes_counts_but_not_identity() {
        let spec = catalog()[17].clone();
        let bigger = spec.scaled(2.0);
        assert_eq!(bigger.name, spec.name);
        assert_eq!(bigger.tiles, spec.tiles * 2);
        let tiny = spec.scaled(0.0001);
        assert_eq!(tiny.tiles, 1);
        assert_eq!(tiny.polygons_per_tile, 1);
    }

    #[test]
    fn spec_debug_output_names_the_dataset() {
        let spec = catalog()[5].clone();
        let debug = format!("{spec:?}");
        assert!(debug.contains("oligoastroIII_6"));
        assert!(debug.contains("polygons_per_tile"));
    }
}
