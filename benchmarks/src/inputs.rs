//! The five workloads and everything generated from the seed: data sets,
//! polygon-file texts, query sequences, and the oracle answers every
//! response is checked against.

use sccg::pixelbox::{AggregationDevice, PixelBoxConfig};
use sccg::{CrossComparison, EngineConfig, JaccardAccumulator};
use sccg_datagen::{generate_dataset, Dataset, DatasetSpec};
use sccg_geometry::text::{write_polygon_file, PolygonRecord};
use sccg_net::{WireSummary, WireTile};
use std::time::Instant;

/// How a workload drives the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Pipeline::run_streaming` over polygon-file texts, round after round.
    Batch,
    /// Wire clients querying uniformly drawn aligned tile windows of one
    /// registered slide pair.
    Serve,
    /// Wire clients registering a fresh slide pair and querying it, cycle
    /// after cycle.
    Ingest,
}

/// One workload: the data shape, how it is driven, and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub tiles: u32,
    pub polygons_per_tile: u32,
    pub tile_size: u32,
    pub nucleus_radius: u32,
    /// Tiles per query (`Serve`); a whole slide otherwise.
    pub window: usize,
    /// Pager bound of the disk-backed store; `None` keeps slides in memory.
    pub residency_bound: Option<usize>,
    /// Data-set variants generated (`Ingest` registers them cyclically).
    pub variants: u32,
}

/// Closed-loop client threads, one connection each: the sandbox has two
/// cores, and more clients than cores measure the scheduler, not the system.
pub const CLIENTS: usize = 2;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "batch_text",
        why: "only workload through core::pipeline; parse, edge-table build and MBR filter do ~90 % of the work, the kernel ~5 %: geometry/rtree/pipeline gains show, kernel/store/serve/net changes should not",
        kind: Kind::Batch,
        tiles: 256,
        polygons_per_tile: 400,
        tile_size: 1024,
        nucleus_radius: 6,
        window: 256,
        residency_bound: None,
        variants: 1,
    },
    Workload {
        name: "serve_resident",
        why: "kernel-heavy serving: big nuclei, tiles in memory, edge tables warm, so pixelbox + gpu-sim + parallel do most of each shard; the no-change control for storage work",
        kind: Kind::Serve,
        tiles: 64,
        polygons_per_tile: 400,
        tile_size: 4096,
        nucleus_radius: 32,
        window: 4,
        residency_bound: None,
        variants: 1,
    },
    Workload {
        name: "serve_paged",
        why: "storage-heavy serving: working set 8x the pager bound, so store read + checksum + decode and the edge-table rebuild after every fault dominate; where a read-path change must show",
        kind: Kind::Serve,
        tiles: 256,
        polygons_per_tile: 400,
        tile_size: 1024,
        nucleus_radius: 6,
        window: 16,
        residency_bound: Some(32),
        variants: 1,
    },
    Workload {
        name: "serve_small",
        why: "per-query overhead: one 48-polygon tile a query, so framing, codec, admission, placement, job queue, supervisor and merge are most of the latency; guards instrumentation budgets",
        kind: Kind::Serve,
        tiles: 2048,
        polygons_per_tile: 48,
        tile_size: 512,
        nucleus_radius: 6,
        window: 1,
        residency_bound: None,
        variants: 1,
    },
    Workload {
        name: "ingest_mixed",
        why: "writes beside reads: each cycle streams a fresh slide pair to disk (parse, encode, checksum, append, rename) then queries it cold, so a read gain bought with slower registration shows",
        kind: Kind::Ingest,
        tiles: 32,
        polygons_per_tile: 200,
        tile_size: 1024,
        nucleus_radius: 6,
        window: 32,
        residency_bound: Some(8),
        variants: 4,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the benchmark's own seeded generator, so the query sequence
/// depends on nothing but the seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for the
    /// window counts used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The window sequence of one client: uniformly drawn aligned windows.
pub fn client_rng(seed: u64, client: usize) -> SplitMix64 {
    SplitMix64::new(seed ^ (client as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// What the oracle expects of one tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileExpectation {
    pub candidate_pairs: u64,
    pub summary: WireSummary,
    accumulator: JaccardAccumulator,
}

/// One generated slide pair: the texts the program is given and the answers
/// it must return.
#[derive(Debug)]
pub struct SlidePair {
    pub first_texts: Vec<String>,
    pub second_texts: Vec<String>,
    pub tiles: Vec<TileExpectation>,
}

impl SlidePair {
    pub fn text_bytes(&self) -> usize {
        let bytes = |texts: &[String]| texts.iter().map(String::len).sum::<usize>();
        bytes(&self.first_texts) + bytes(&self.second_texts)
    }

    /// The merged summary of `tiles` (ascending indices), folded in tile
    /// order exactly as the service merges its shards.
    pub fn merged(&self, tiles: impl Iterator<Item = usize>) -> WireSummary {
        let mut total = JaccardAccumulator::new();
        for tile in tiles {
            total.merge(&self.tiles[tile].accumulator);
        }
        WireSummary::of_summary(&total.summary())
    }

    /// Whether a wire answer over the ascending tile list `expected_tiles`
    /// is bit-identical to the oracle: every tile's pair count and summary,
    /// and the merged summary.
    pub fn answer_matches(
        &self,
        expected_tiles: impl Iterator<Item = usize> + Clone,
        tiles: &[WireTile],
        summary: &WireSummary,
    ) -> bool {
        let mut seen = 0;
        for (index, tile) in expected_tiles.clone().zip(tiles) {
            let want = &self.tiles[index];
            if tile.tile != index as u64
                || tile.candidate_pairs != want.candidate_pairs
                || tile.summary != want.summary
            {
                return false;
            }
            seen += 1;
        }
        seen == tiles.len()
            && seen == expected_tiles.clone().count()
            && *summary == self.merged(expected_tiles)
    }
}

/// Everything a run generates before the program under test starts, with
/// the harness time it took (reported, never part of `setup_s`).
#[derive(Debug)]
pub struct Inputs {
    pub workload: &'static Workload,
    pub seed: u64,
    /// One pair per variant.
    pub pairs: Vec<SlidePair>,
    pub datagen_seconds: f64,
    pub oracle_seconds: f64,
}

fn dataset_spec(workload: &Workload, seed: u64, variant: u32) -> DatasetSpec {
    DatasetSpec {
        name: format!("{}-{variant}", workload.name),
        tiles: workload.tiles,
        polygons_per_tile: workload.polygons_per_tile,
        tile_size: workload.tile_size,
        // Variants of one run and runs of different seeds all differ.
        seed: seed
            .wrapping_mul(0x0100_0000_01B3)
            .wrapping_add(u64::from(variant)),
        nucleus_radius: workload.nucleus_radius,
    }
}

/// The oracle engine: one sequential CPU engine, the fold every other
/// configuration of the system promises to be bit-identical to.
pub fn oracle_engine() -> CrossComparison {
    CrossComparison::new(
        EngineConfig::default()
            .with_device(AggregationDevice::Cpu)
            .with_cpu_workers(1),
    )
}

fn expect_tile(
    engine: &CrossComparison,
    first: &[PolygonRecord],
    second: &[PolygonRecord],
) -> TileExpectation {
    let report = engine.compare_records_with(first, second, &PixelBoxConfig::paper_default());
    let mut accumulator = JaccardAccumulator::new();
    for areas in &report.pair_areas {
        accumulator.add_pair(*areas);
    }
    TileExpectation {
        candidate_pairs: report.candidate_pairs as u64,
        summary: WireSummary::of_summary(&report.summary),
        accumulator,
    }
}

/// Generates a workload's inputs and oracle answers from the seed. The
/// parsed data set is dropped before returning: the program under test
/// receives only the texts.
pub fn generate(workload: &'static Workload, seed: u64) -> Inputs {
    let mut datagen_seconds = 0.0;
    let mut oracle_seconds = 0.0;
    let engine = oracle_engine();
    let pairs = (0..workload.variants)
        .map(|variant| {
            let started = Instant::now();
            let dataset: Dataset = generate_dataset(&dataset_spec(workload, seed, variant));
            let texts = |pick: fn(&sccg_datagen::TilePair) -> &Vec<PolygonRecord>| {
                dataset
                    .tiles
                    .iter()
                    .map(|t| write_polygon_file(pick(t)))
                    .collect::<Vec<String>>()
            };
            let first_texts = texts(|t| &t.first);
            let second_texts = texts(|t| &t.second);
            datagen_seconds += started.elapsed().as_secs_f64();

            let started = Instant::now();
            let tiles = dataset
                .tiles
                .iter()
                .map(|t| expect_tile(&engine, &t.first, &t.second))
                .collect();
            oracle_seconds += started.elapsed().as_secs_f64();
            SlidePair {
                first_texts,
                second_texts,
                tiles,
            }
        })
        .collect();
    Inputs {
        workload,
        seed,
        pairs,
        datagen_seconds,
        oracle_seconds,
    }
}

impl Inputs {
    /// Aligned windows a `Serve` query can draw.
    pub fn window_count(&self) -> usize {
        self.workload.tiles as usize / self.workload.window
    }

    /// The tile indices of window `w`.
    pub fn window_tiles(&self, w: usize) -> std::ops::Range<usize> {
        w * self.workload.window..(w + 1) * self.workload.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature of `serve_small`, so the determinism tests run in
    /// milliseconds.
    static TINY: Workload = Workload {
        name: "tiny",
        why: "unit tests",
        kind: Kind::Serve,
        tiles: 6,
        polygons_per_tile: 12,
        tile_size: 256,
        nucleus_radius: 6,
        window: 2,
        residency_bound: None,
        variants: 2,
    };

    fn draws(seed: u64, client: usize) -> Vec<usize> {
        let mut rng = client_rng(seed, client);
        (0..64).map(|_| rng.below(3)).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs_and_query_sequence() {
        let (a, b) = (generate(&TINY, 7), generate(&TINY, 7));
        for (pa, pb) in a.pairs.iter().zip(&b.pairs) {
            assert_eq!(pa.first_texts, pb.first_texts);
            assert_eq!(pa.second_texts, pb.second_texts);
            assert_eq!(pa.tiles, pb.tiles);
        }
        assert_eq!(draws(7, 0), draws(7, 0));
        assert_eq!(draws(7, 1), draws(7, 1));
    }

    #[test]
    fn different_seed_variant_or_client_gives_different_inputs() {
        let (a, b) = (generate(&TINY, 7), generate(&TINY, 8));
        assert_ne!(a.pairs[0].first_texts, b.pairs[0].first_texts);
        assert_ne!(a.pairs[0].first_texts, a.pairs[1].first_texts);
        assert_ne!(draws(7, 0), draws(8, 0));
        assert_ne!(draws(7, 0), draws(7, 1));
    }

    #[test]
    fn oracle_accepts_its_own_answer_and_rejects_a_flipped_bit() {
        let inputs = generate(&TINY, 3);
        let pair = &inputs.pairs[0];
        assert_eq!(inputs.window_count(), 3);
        let window = inputs.window_tiles(1);
        let mut tiles: Vec<WireTile> = window
            .clone()
            .map(|i| WireTile {
                tile: i as u64,
                engine: 0,
                backend: "any".into(),
                candidate_pairs: pair.tiles[i].candidate_pairs,
                summary: pair.tiles[i].summary,
            })
            .collect();
        let merged = pair.merged(window.clone());
        assert!(pair.answer_matches(window.clone(), &tiles, &merged));
        // A missing tile, a wrong merge and a one-bit similarity error fail.
        assert!(!pair.answer_matches(window.clone(), &tiles[..1], &merged));
        assert!(!pair.answer_matches(window.clone(), &tiles, &pair.merged(0..1)));
        tiles[0].summary.similarity_bits ^= 1;
        assert!(!pair.answer_matches(window, &tiles, &merged));
    }

    #[test]
    fn the_five_workloads_are_named_as_the_issue_names_them() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "batch_text",
                "serve_resident",
                "serve_paged",
                "serve_small",
                "ingest_mixed"
            ]
        );
        for w in &WORKLOADS {
            assert_eq!(
                w.tiles as usize % w.window,
                0,
                "{}: windows are aligned",
                w.name
            );
        }
        assert!(workload("serve_small").is_some());
        assert!(workload("nope").is_none());
    }
}
