//! The adversarial pair generator shared by the kernel differential suites
//! (`cpu_sweep.rs`, `trace_pair.rs`): random rectilinear polygons and the
//! shapes where a row sweep or a partition scan could slip — combs,
//! one-pixel slivers, shared edges, nested and disjoint polygons, and MBRs
//! that only touch.

use proptest::prelude::*;
use proptest::TestRng;
use sccg::pixelbox::PolygonPair;
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
pub struct AdversarialPair;

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
