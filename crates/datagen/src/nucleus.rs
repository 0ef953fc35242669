//! Generation of single nucleus-like rectilinear polygons.

use rand::Rng;
use sccg_geometry::{Point, RectilinearPolygon};

/// Parameters controlling the shape of a generated nucleus polygon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NucleusParams {
    /// Horizontal semi-axis of the underlying ellipse, in pixels.
    pub radius_x: u32,
    /// Vertical semi-axis of the underlying ellipse, in pixels.
    pub radius_y: u32,
    /// Maximum absolute per-row boundary jitter, in pixels. Jitter makes the
    /// boundary irregular the way real segmentation output is.
    pub boundary_jitter: u32,
}

impl Default for NucleusParams {
    fn default() -> Self {
        // Defaults produce areas around 150 pixels, matching the published
        // average polygon size of the brain-tumor data sets (§5.1).
        NucleusParams {
            radius_x: 7,
            radius_y: 7,
            boundary_jitter: 1,
        }
    }
}

/// Generates one nucleus-like rectilinear polygon centred at `(cx, cy)`.
///
/// Construction: a discrete ellipse is sampled row by row; each row's
/// horizontal extent is jittered; the resulting row intervals (which always
/// overlap between adjacent rows, keeping the polygon simple) are traced into
/// a closed rectilinear boundary.
pub fn generate_nucleus<R: Rng>(
    cx: i32,
    cy: i32,
    params: &NucleusParams,
    rng: &mut R,
) -> RectilinearPolygon {
    let rx = params.radius_x.max(2) as i64;
    let ry = params.radius_y.max(2) as i64;
    let rows = (2 * ry) as i32;

    // Per-row half widths of the discrete ellipse.
    let mut lefts: Vec<i32> = Vec::with_capacity(rows as usize);
    let mut rights: Vec<i32> = Vec::with_capacity(rows as usize);
    for row in 0..rows {
        // Row centre measured from the ellipse centre in [-ry+0.5, ry-0.5].
        let dy = row as f64 - ry as f64 + 0.5;
        let frac = 1.0 - (dy / ry as f64) * (dy / ry as f64);
        let half_w = (rx as f64 * frac.max(0.0).sqrt()).round().max(1.0) as i32;
        let jitter = if params.boundary_jitter > 0 {
            rng.gen_range(-(params.boundary_jitter as i32)..=(params.boundary_jitter as i32))
        } else {
            0
        };
        // Jitter the width but keep at least one pixel; jitter left and right
        // edges oppositely half of the time for asymmetry.
        let half_w = (half_w + jitter).max(1);
        let skew = if params.boundary_jitter > 0 {
            rng.gen_range(-(params.boundary_jitter as i32)..=(params.boundary_jitter as i32))
        } else {
            0
        };
        lefts.push(cx - half_w + skew);
        rights.push(cx + half_w + skew);
    }

    // Adjacent rows must overlap for the traced boundary to be simple; clamp
    // each row's interval so it intersects the previous one.
    for i in 1..rows as usize {
        if lefts[i] >= rights[i - 1] {
            lefts[i] = rights[i - 1] - 1;
        }
        if rights[i] <= lefts[i - 1] {
            rights[i] = lefts[i - 1] + 1;
        }
        if rights[i] <= lefts[i] {
            rights[i] = lefts[i] + 1;
        }
    }

    // Rows were generated from the bottom of the ellipse upward; anchor them
    // so the shape is vertically centred on `cy`.
    trace_row_spans(cy - ry as i32, &lefts, &rights)
}

/// Traces the boundary of a "row-convex" region described by one horizontal
/// interval `[lefts[r], rights[r])` per pixel row, starting at pixel row
/// `base_y`. Adjacent intervals must overlap.
fn trace_row_spans(base_y: i32, lefts: &[i32], rights: &[i32]) -> RectilinearPolygon {
    let rows = lefts.len();
    assert!(rows >= 1 && rights.len() == rows);
    let mut vertices: Vec<Point> = Vec::with_capacity(rows * 4 + 4);

    // Right side, walking upward in y.
    vertices.push(Point::new(rights[0], base_y));
    for r in 0..rows {
        let y_top = base_y + r as i32 + 1;
        vertices.push(Point::new(rights[r], y_top));
        if r + 1 < rows && rights[r + 1] != rights[r] {
            vertices.push(Point::new(rights[r + 1], y_top));
        }
    }
    // Top edge.
    vertices.push(Point::new(lefts[rows - 1], base_y + rows as i32));
    // Left side, walking downward in y.
    for r in (0..rows).rev() {
        let y_bottom = base_y + r as i32;
        vertices.push(Point::new(lefts[r], y_bottom));
        if r > 0 && lefts[r - 1] != lefts[r] {
            vertices.push(Point::new(lefts[r - 1], y_bottom));
        }
    }

    RectilinearPolygon::canonicalize(vertices)
        .expect("traced row intervals form a valid rectilinear polygon")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sccg_geometry::raster;

    #[test]
    fn default_nucleus_has_plausible_area() {
        let mut rng = StdRng::seed_from_u64(1);
        let poly = generate_nucleus(100, 100, &NucleusParams::default(), &mut rng);
        let area = poly.area();
        // A 7x7 semi-axis ellipse has area ~ pi*7*7 ~ 154.
        assert!(area > 80 && area < 260, "area {area}");
    }

    #[test]
    fn nucleus_area_matches_raster_oracle() {
        let mut rng = StdRng::seed_from_u64(7);
        for seed in 0..20 {
            let params = NucleusParams {
                radius_x: 3 + seed % 6,
                radius_y: 3 + (seed * 3) % 6,
                boundary_jitter: seed % 3,
            };
            let poly = generate_nucleus(50, 60, &params, &mut rng);
            assert_eq!(poly.area(), raster::polygon_area(&poly), "seed {seed}");
        }
    }

    #[test]
    fn nucleus_is_centred_near_requested_position() {
        let mut rng = StdRng::seed_from_u64(3);
        let poly = generate_nucleus(200, 300, &NucleusParams::default(), &mut rng);
        let mbr = poly.mbr();
        let (cx, cy) = mbr.center_pixel();
        assert!((cx - 200).abs() <= 4, "cx {cx}");
        assert!((cy - 300).abs() <= 4, "cy {cy}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate_nucleus(
            10,
            10,
            &NucleusParams::default(),
            &mut StdRng::seed_from_u64(42),
        );
        let b = generate_nucleus(
            10,
            10,
            &NucleusParams::default(),
            &mut StdRng::seed_from_u64(42),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn zero_jitter_produces_smooth_symmetric_ellipse() {
        let params = NucleusParams {
            radius_x: 6,
            radius_y: 9,
            boundary_jitter: 0,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let poly = generate_nucleus(0, 0, &params, &mut rng);
        let mbr = poly.mbr();
        assert_eq!(mbr.height(), 18);
        assert!(mbr.width() <= 14);
        // Mirror symmetry about the vertical axis when jitter is off.
        for (x, y) in mbr.pixels() {
            let mirrored_x = -1 - x; // reflect pixel column about x = -0.5
            assert_eq!(
                poly.contains_pixel(x, y),
                poly.contains_pixel(mirrored_x, y),
                "asymmetry at ({x},{y})"
            );
        }
    }

    #[test]
    fn tiny_radii_are_clamped() {
        let params = NucleusParams {
            radius_x: 0,
            radius_y: 0,
            boundary_jitter: 0,
        };
        let mut rng = StdRng::seed_from_u64(9);
        let poly = generate_nucleus(0, 0, &params, &mut rng);
        assert!(poly.area() >= 4);
    }
}
