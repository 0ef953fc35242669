//! Differential suite for the CPU substrate's row sweep.
//!
//! [`sweep_pair`] computes a pair's areas with one row sweep over the
//! overlap of the two MBRs, where PixelBox partitions sampling boxes. Areas
//! are exact integers, so the sweep must equal PixelBox for every variant
//! and fanout, and the retained per-pixel oracle
//! ([`compute_pair_reference`]), on every pair. The pairs are random
//! rectilinear polygons and the shapes where a row sweep could slip: combs,
//! one-pixel slivers, shared edges, nested and disjoint polygons, and MBRs
//! that only touch.

use proptest::prelude::*;
use proptest::TestRng;
use sccg::pixelbox::algorithm::{compute_pair, compute_pair_reference};
use sccg::pixelbox::cpu::sweep_pair;
use sccg::pixelbox::{ComputeBackend, CpuBackend, PixelBoxConfig, PolygonPair, Variant};
use sccg::{CrossComparison, EngineConfig};
use sccg_datagen::{generate_dataset, DatasetSpec};
use sccg_geometry::{Point, Rect, RectilinearPolygon};

fn between(rng: &mut TestRng, lo: i32, hi: i32) -> i32 {
    lo + rng.below((hi - lo) as u64) as i32
}

fn polygon(vertices: Vec<Point>) -> RectilinearPolygon {
    RectilinearPolygon::canonicalize(vertices).expect("generated polygon is valid")
}

fn rect(min_x: i32, min_y: i32, max_x: i32, max_y: i32) -> RectilinearPolygon {
    RectilinearPolygon::rectangle(Rect::new(min_x, min_y, max_x, max_y)).unwrap()
}

/// The polygon mirrored about the diagonal, so rows become columns.
fn transpose(poly: &RectilinearPolygon) -> RectilinearPolygon {
    polygon(
        poly.vertices()
            .iter()
            .map(|v| Point::new(v.y, v.x))
            .collect(),
    )
}

fn translate(poly: &RectilinearPolygon, dx: i32, dy: i32) -> RectilinearPolygon {
    poly.translate(dx, dy).unwrap()
}

/// A comb standing on its base at `(ox, oy)`: `teeth` teeth of width
/// `tooth_w`, `gap_w` apart, on a base `base_h` tall. Its tooth rows cross
/// two intervals per tooth.
fn comb(
    (ox, oy): (i32, i32),
    teeth: i32,
    (tooth_w, gap_w): (i32, i32),
    (base_h, tooth_h): (i32, i32),
) -> RectilinearPolygon {
    let left = |k: i32| ox + k * (tooth_w + gap_w);
    let right = left(teeth - 1) + tooth_w;
    let (base_top, top) = (oy + base_h, oy + base_h + tooth_h);
    let mut vertices = vec![
        Point::new(ox, oy),
        Point::new(right, oy),
        Point::new(right, top),
    ];
    for k in (1..teeth).rev() {
        vertices.push(Point::new(left(k), top));
        vertices.push(Point::new(left(k), base_top));
        vertices.push(Point::new(left(k - 1) + tooth_w, base_top));
        vertices.push(Point::new(left(k - 1) + tooth_w, top));
    }
    vertices.push(Point::new(ox, top));
    polygon(vertices)
}

fn random_comb(rng: &mut TestRng, origin: (i32, i32)) -> RectilinearPolygon {
    comb(
        origin,
        1 + rng.below(6) as i32,
        (between(rng, 1, 4), between(rng, 1, 4)),
        (between(rng, 1, 4), between(rng, 1, 6)),
    )
}

/// A skyline (columns of varying heights on a flat base) or a staircase,
/// with its lower-left MBR corner at `origin`.
fn random_polygon(rng: &mut TestRng, origin: (i32, i32)) -> RectilinearPolygon {
    let (ox, oy) = origin;
    let steps = 1 + rng.below(6) as usize;
    let widths: Vec<i32> = (0..steps).map(|_| between(rng, 1, 5)).collect();
    let heights: Vec<i32> = (0..steps).map(|_| between(rng, 1, 8)).collect();
    let mut x = ox;
    let mut vertices = vec![Point::new(ox, oy)];
    if rng.below(2) == 0 {
        for (w, h) in widths.iter().zip(&heights) {
            vertices.push(Point::new(x, oy + h));
            x += w;
            vertices.push(Point::new(x, oy + h));
        }
        vertices.push(Point::new(x, oy));
    } else {
        let mut y = oy + heights.iter().sum::<i32>();
        vertices.push(Point::new(ox, y));
        for (w, h) in widths.iter().zip(&heights) {
            x += w;
            vertices.push(Point::new(x, y));
            y -= h;
            vertices.push(Point::new(x, y));
        }
    }
    polygon(vertices)
}

/// A pair of one of the shapes a row sweep of the MBR overlap must get
/// right, in either order and either orientation.
struct AdversarialPair;

impl Strategy for AdversarialPair {
    type Value = PolygonPair;

    fn generate(&self, rng: &mut TestRng) -> PolygonPair {
        let origin = (between(rng, -20, 20), between(rng, -20, 20));
        let p = if rng.below(2) == 0 {
            random_comb(rng, origin)
        } else {
            random_polygon(rng, origin)
        };
        let m = p.mbr();
        let q = match rng.below(8) {
            // Combs interleaved: one comb's teeth in the other's gaps, or
            // any other horizontal shift.
            0 => {
                let (tooth_w, gap_w) = (between(rng, 1, 4), between(rng, 1, 4));
                let teeth = 1 + rng.below(6) as i32;
                let p = comb(origin, teeth, (tooth_w, gap_w), (2, 4));
                let shift = if rng.below(2) == 0 {
                    tooth_w
                } else {
                    between(rng, -6, 7)
                };
                let q = comb(
                    (origin.0 + shift, origin.1 + between(rng, -1, 3)),
                    teeth,
                    (gap_w, tooth_w),
                    (2, 4),
                );
                return orient(rng, p, q);
            }
            // One-pixel slivers across the polygon: a column, a row, or a
            // single pixel.
            1 => {
                let (x, y) = (
                    between(rng, m.min_x, m.max_x),
                    between(rng, m.min_y, m.max_y),
                );
                match rng.below(3) {
                    0 => rect(x, m.min_y - 1, x + 1, m.max_y + 1),
                    1 => rect(m.min_x - 1, y, m.max_x + 1, y + 1),
                    _ => rect(x, y, x + 1, y + 1),
                }
            }
            // Edges shared along an MBR side: a neighbour across it, or a
            // strip inside it along the same line.
            2 => {
                let w = between(rng, 1, 6);
                match rng.below(4) {
                    0 => rect(m.max_x, m.min_y, m.max_x + w, m.max_y),
                    1 => rect(m.min_x - w, m.min_y, m.min_x, m.max_y),
                    2 => rect(m.min_x, m.min_y, (m.min_x + w).min(m.max_x), m.max_y),
                    _ => rect(m.min_x, m.min_y, m.max_x, (m.min_y + w).min(m.max_y)),
                }
            }
            // Nested: the same polygon, a rectangle around it, or a
            // polygon inside a rectangle.
            3 => match rng.below(3) {
                0 => p.clone(),
                1 => rect(m.min_x - 2, m.min_y - 2, m.max_x + 3, m.max_y + 1),
                _ => {
                    let inner = random_polygon(rng, (m.min_x + 1, m.min_y + 1));
                    let im = inner.mbr();
                    let outer = rect(im.min_x - 1, im.min_y - 2, im.max_x + 2, im.max_y + 1);
                    return orient(rng, outer, inner);
                }
            },
            // Disjoint, with MBRs apart.
            4 => translate(
                &p,
                m.width() as i32 + between(rng, 1, 10),
                between(rng, -5, 5),
            ),
            // MBRs that only touch, at a corner or along a side.
            5 => {
                let q = random_polygon(rng, (0, 0));
                let qm = q.mbr();
                let (dx, dy) = match rng.below(3) {
                    0 => (m.max_x - qm.min_x, m.max_y - qm.min_y),
                    1 => (m.min_x - qm.max_x, m.max_y - qm.min_y),
                    _ => (m.max_x - qm.min_x, between(rng, m.min_y - 3, m.max_y)),
                };
                translate(&q, dx, dy)
            }
            // A comb anywhere near the polygon.
            6 => {
                let near = (m.min_x + between(rng, -6, 6), m.min_y + between(rng, -6, 6));
                random_comb(rng, near)
            }
            // A random polygon anywhere near it.
            _ => {
                let near = (m.min_x + between(rng, -8, 8), m.min_y + between(rng, -8, 8));
                random_polygon(rng, near)
            }
        };
        orient(rng, p, q)
    }
}

/// The pair in a random order, transposed half the time.
fn orient(rng: &mut TestRng, p: RectilinearPolygon, q: RectilinearPolygon) -> PolygonPair {
    let (p, q) = if rng.below(2) == 0 { (p, q) } else { (q, p) };
    if rng.below(2) == 0 {
        PolygonPair::new(transpose(&p), transpose(&q))
    } else {
        PolygonPair::new(p, q)
    }
}

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
