//! Pixel rasterization oracles.
//!
//! These functions evaluate areas by classifying the pixels of a bounding
//! region with the even–odd rule. They are the ground truth that every other
//! area computation in the workspace (the sweepline overlay in `sccg-clip`,
//! PixelBox on the GPU simulator, and PixelBox-CPU) is validated against, and
//! they correspond directly to the "pixelized view" of intersection and union
//! described in §3.1 of the paper.
//!
//! Two implementations coexist:
//!
//! * The top-level functions run the window sweeps of
//!   [`edge_table`](crate::edge_table) over each polygon's cached scanline
//!   [`EdgeTable`](crate::EdgeTable):
//!   [`intersection_len_in`](crate::edge_table::intersection_len_in) for
//!   intersections and
//!   [`inside_len_in`](crate::edge_table::inside_len_in) for one polygon's
//!   pixels, with a union by inclusion–exclusion. Each run of rows sharing
//!   the crossing lists costs one pass of interval arithmetic, so a window
//!   costs O(runs × crossing edges) instead of O(pixels × edges). All
//!   quantities are exact integers, so the results are bit-identical to
//!   per-pixel classification.
//! * [`brute`] retains the original per-pixel loops
//!   ([`RectilinearPolygon::contains_pixel`] on every pixel). They are the
//!   independent oracle the interval fast path is verified against (unit
//!   tests here, property tests in `tests/proptests.rs`, and the PixelBox
//!   equivalence suite in `sccg`).

use crate::polygon::RectilinearPolygon;
use crate::rect::Rect;

/// Area of a single polygon obtained by counting interior pixels row by row.
pub fn polygon_area(poly: &RectilinearPolygon) -> i64 {
    pixels_inside(poly, &poly.mbr())
}

/// Areas of the intersection and the union of two polygons over the pair's
/// combined MBR (Figure 4(a)): the intersection is the overlap of the two
/// polygons' inside intervals, row run by row run, and the union follows by
/// inclusion–exclusion.
pub fn intersection_union_area(p: &RectilinearPolygon, q: &RectilinearPolygon) -> (i64, i64) {
    let joint = p.mbr().union(&q.mbr());
    let inter = crate::edge_table::intersection_len_in(p.edge_table(), q.edge_table(), &joint);
    (
        inter,
        pixels_inside(p, &joint) + pixels_inside(q, &joint) - inter,
    )
}

/// Area of the intersection only, scanning just the intersection of the two
/// MBRs (pixels outside it cannot lie in both polygons).
pub fn intersection_area(p: &RectilinearPolygon, q: &RectilinearPolygon) -> i64 {
    let window = p.mbr().intersection(&q.mbr());
    if window.is_empty() {
        return 0;
    }
    crate::edge_table::intersection_len_in(p.edge_table(), q.edge_table(), &window)
}

/// Number of pixels of `window` lying inside the polygon. Used to check the
/// sampling-box classification logic against an exhaustive scan.
pub fn pixels_inside(poly: &RectilinearPolygon, window: &Rect) -> i64 {
    crate::edge_table::inside_len_in(poly.edge_table(), window)
}

pub mod brute {
    //! The original brute-force per-pixel oracles: every pixel of the
    //! bounding region is tested with
    //! [`RectilinearPolygon::contains_pixel`]. O(pixels × edges), retained
    //! verbatim as the independent ground truth for the interval-scanline
    //! fast paths.

    use super::{Rect, RectilinearPolygon};

    /// Area of a single polygon obtained by testing every MBR pixel.
    pub fn polygon_area(poly: &RectilinearPolygon) -> i64 {
        let mbr = poly.mbr();
        mbr.pixels()
            .filter(|&(x, y)| poly.contains_pixel(x, y))
            .count() as i64
    }

    /// Areas of intersection and union by classifying every pixel of the
    /// joint MBR against both polygons.
    pub fn intersection_union_area(p: &RectilinearPolygon, q: &RectilinearPolygon) -> (i64, i64) {
        let joint = p.mbr().union(&q.mbr());
        let mut inter = 0i64;
        let mut union = 0i64;
        for (x, y) in joint.pixels() {
            let in_p = p.contains_pixel(x, y);
            let in_q = q.contains_pixel(x, y);
            if in_p && in_q {
                inter += 1;
            }
            if in_p || in_q {
                union += 1;
            }
        }
        (inter, union)
    }

    /// Area of the intersection only, testing every pixel of the MBR
    /// intersection window.
    pub fn intersection_area(p: &RectilinearPolygon, q: &RectilinearPolygon) -> i64 {
        let window = p.mbr().intersection(&q.mbr());
        if window.is_empty() {
            return 0;
        }
        window
            .pixels()
            .filter(|&(x, y)| p.contains_pixel(x, y) && q.contains_pixel(x, y))
            .count() as i64
    }

    /// Number of pixels of `window` inside the polygon, tested one by one.
    pub fn pixels_inside(poly: &RectilinearPolygon, window: &Rect) -> i64 {
        window
            .pixels()
            .filter(|&(x, y)| poly.contains_pixel(x, y))
            .count() as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn rect_poly(min_x: i32, min_y: i32, max_x: i32, max_y: i32) -> RectilinearPolygon {
        RectilinearPolygon::rectangle(Rect::new(min_x, min_y, max_x, max_y)).unwrap()
    }

    fn staircase() -> RectilinearPolygon {
        RectilinearPolygon::new(vec![
            Point::new(0, 0),
            Point::new(5, 0),
            Point::new(5, 1),
            Point::new(3, 1),
            Point::new(3, 3),
            Point::new(2, 3),
            Point::new(2, 5),
            Point::new(0, 5),
        ])
        .unwrap()
    }

    #[test]
    fn raster_area_matches_shoelace_for_rectangles() {
        let p = rect_poly(0, 0, 13, 7);
        assert_eq!(polygon_area(&p), p.area());
        assert_eq!(brute::polygon_area(&p), p.area());
    }

    #[test]
    fn raster_area_matches_shoelace_for_staircase() {
        let p = staircase();
        assert_eq!(polygon_area(&p), p.area());
        assert_eq!(brute::polygon_area(&p), p.area());
    }

    #[test]
    fn overlapping_rectangles() {
        let p = rect_poly(0, 0, 10, 10);
        let q = rect_poly(5, 5, 15, 15);
        let (inter, union) = intersection_union_area(&p, &q);
        assert_eq!(inter, 25);
        assert_eq!(union, 100 + 100 - 25);
        assert_eq!(intersection_area(&p, &q), 25);
    }

    #[test]
    fn disjoint_rectangles() {
        let p = rect_poly(0, 0, 4, 4);
        let q = rect_poly(10, 10, 14, 14);
        let (inter, union) = intersection_union_area(&p, &q);
        assert_eq!(inter, 0);
        assert_eq!(union, 32);
        assert_eq!(intersection_area(&p, &q), 0);
    }

    #[test]
    fn touching_rectangles_do_not_intersect() {
        let p = rect_poly(0, 0, 4, 4);
        let q = rect_poly(4, 0, 8, 4);
        assert_eq!(intersection_area(&p, &q), 0);
        let (_, union) = intersection_union_area(&p, &q);
        assert_eq!(union, 32);
    }

    #[test]
    fn nested_rectangles() {
        let outer = rect_poly(0, 0, 10, 10);
        let inner = rect_poly(2, 2, 5, 6);
        let (inter, union) = intersection_union_area(&outer, &inner);
        assert_eq!(inter, inner.area());
        assert_eq!(union, outer.area());
    }

    #[test]
    fn inclusion_exclusion_holds() {
        let p = rect_poly(0, 0, 8, 6);
        let q = RectilinearPolygon::new(vec![
            Point::new(4, 3),
            Point::new(12, 3),
            Point::new(12, 9),
            Point::new(6, 9),
            Point::new(6, 7),
            Point::new(4, 7),
        ])
        .unwrap();
        let (inter, union) = intersection_union_area(&p, &q);
        assert_eq!(union, p.area() + q.area() - inter);
    }

    #[test]
    fn pixels_inside_window_subset() {
        let p = rect_poly(0, 0, 10, 10);
        assert_eq!(pixels_inside(&p, &Rect::new(2, 2, 4, 4)), 4);
        assert_eq!(pixels_inside(&p, &Rect::new(8, 8, 12, 12)), 4);
        assert_eq!(pixels_inside(&p, &Rect::new(20, 20, 25, 25)), 0);
    }

    #[test]
    fn fast_path_matches_brute_oracle() {
        let shapes = [
            rect_poly(0, 0, 9, 7),
            staircase(),
            RectilinearPolygon::new(vec![
                Point::new(1, 0),
                Point::new(12, 0),
                Point::new(12, 6),
                Point::new(9, 6),
                Point::new(9, 2),
                Point::new(6, 2),
                Point::new(6, 6),
                Point::new(3, 6),
                Point::new(3, 2),
                Point::new(1, 2),
            ])
            .unwrap(),
        ];
        for p in &shapes {
            assert_eq!(polygon_area(p), brute::polygon_area(p));
            for q in &shapes {
                assert_eq!(
                    intersection_union_area(p, q),
                    brute::intersection_union_area(p, q),
                );
                assert_eq!(intersection_area(p, q), brute::intersection_area(p, q));
            }
            for window in [
                Rect::new(-2, -2, 4, 4),
                Rect::new(2, 1, 11, 5),
                Rect::new(5, 5, 5, 9),
            ] {
                assert_eq!(pixels_inside(p, &window), brute::pixels_inside(p, &window));
            }
        }
    }
}
