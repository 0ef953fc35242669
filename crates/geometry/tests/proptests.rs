//! Property-based tests for the geometry substrate.
//!
//! The central invariant of the whole reproduction is that the shoelace area
//! of a rectilinear polygon equals the number of pixels whose centres lie
//! inside it (paper §3.4, "Algorithm accuracy"). These tests exercise that
//! invariant, plus MBR/rect algebra, over randomly generated staircase
//! polygons.

use proptest::prelude::*;
use sccg_geometry::{raster, Point, Rect, RectilinearPolygon};

/// Generates a random rectilinear "staircase" polygon: a monotone staircase
/// descending from the top-left to the bottom-right, closed along the axes.
/// Every such polygon is simple, rectilinear and has positive area.
fn staircase_polygon() -> impl Strategy<Value = RectilinearPolygon> {
    // Random strictly increasing x and strictly decreasing y steps.
    (2usize..8).prop_flat_map(|steps| {
        (
            prop::collection::vec(1i32..6, steps),
            prop::collection::vec(1i32..6, steps),
            0i32..50,
            0i32..50,
        )
            .prop_map(|(dxs, dys, ox, oy)| {
                // Build the staircase: start at (0, total_height), step right
                // and down, then close along x = total_width and y = 0... in
                // fact easier: boundary from (0,0) up to (0,H), staircase to
                // (W,0), back to (0,0).
                let total_h: i32 = dys.iter().sum();
                let mut vertices = Vec::new();
                vertices.push(Point::new(ox, oy));
                vertices.push(Point::new(ox, oy + total_h));
                let mut x = ox;
                let mut y = oy + total_h;
                for (dx, dy) in dxs.iter().zip(dys.iter()) {
                    x += dx;
                    vertices.push(Point::new(x, y));
                    y -= dy;
                    vertices.push(Point::new(x, y));
                }
                // y is now back at oy; the final edge returns to the origin.
                RectilinearPolygon::new(vertices).expect("staircase is valid")
            })
    })
}

fn small_rect() -> impl Strategy<Value = Rect> {
    (0i32..40, 0i32..40, 1i32..20, 1i32..20).prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

/// Generates a random rectilinear "skyline" polygon: a flat base along
/// `y = oy` with columns of varying heights above it. Unlike the staircase,
/// rows of a skyline intersect the polygon in *many* x-intervals, which is
/// exactly what stresses the edge-table interval decomposition and the
/// interval-merge arithmetic of the raster fast path.
fn skyline_polygon() -> impl Strategy<Value = RectilinearPolygon> {
    (2usize..9).prop_flat_map(|columns| {
        (
            prop::collection::vec(1i32..5, columns),
            prop::collection::vec(1i32..9, columns),
            -20i32..20,
            -20i32..20,
        )
            .prop_map(|(widths, heights, ox, oy)| {
                let mut vertices = vec![Point::new(ox, oy)];
                let mut x = ox;
                for (w, h) in widths.iter().zip(heights.iter()) {
                    vertices.push(Point::new(x, oy + h));
                    x += w;
                    vertices.push(Point::new(x, oy + h));
                }
                vertices.push(Point::new(x, oy));
                // Equal adjacent heights leave collinear vertices behind;
                // canonicalize removes them.
                RectilinearPolygon::canonicalize(vertices).expect("skyline is valid")
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shoelace_area_equals_pixel_count(poly in staircase_polygon()) {
        prop_assert_eq!(poly.area(), raster::polygon_area(&poly));
    }

    #[test]
    fn scaling_scales_area_quadratically(poly in staircase_polygon(), k in 1i32..5) {
        let scaled = poly.scale(k).unwrap();
        prop_assert_eq!(scaled.area(), poly.area() * i64::from(k) * i64::from(k));
        prop_assert_eq!(scaled.vertex_count(), poly.vertex_count());
    }

    #[test]
    fn translation_preserves_area_and_shape(poly in staircase_polygon(), dx in -100i32..100, dy in -100i32..100) {
        let moved = poly.translate(dx, dy).unwrap();
        prop_assert_eq!(moved.area(), poly.area());
        prop_assert_eq!(moved.perimeter(), poly.perimeter());
    }

    #[test]
    fn mbr_contains_all_interior_pixels(poly in staircase_polygon()) {
        let mbr = poly.mbr();
        let grown = Rect::new(mbr.min_x - 2, mbr.min_y - 2, mbr.max_x + 2, mbr.max_y + 2);
        for (x, y) in grown.pixels() {
            if poly.contains_pixel(x, y) {
                prop_assert!(mbr.contains_pixel(x, y));
            }
        }
    }

    #[test]
    fn inclusion_exclusion_for_random_pairs(p in staircase_polygon(), q in staircase_polygon()) {
        let (inter, union) = raster::intersection_union_area(&p, &q);
        prop_assert_eq!(union, p.area() + q.area() - inter);
        prop_assert!(inter <= p.area().min(q.area()));
        prop_assert!(union >= p.area().max(q.area()));
    }

    #[test]
    fn rect_intersection_commutes_and_bounds(a in small_rect(), b in small_rect()) {
        prop_assert_eq!(a.intersection(&b).pixel_count(), b.intersection(&a).pixel_count());
        let i = a.intersection(&b);
        if !i.is_empty() {
            prop_assert!(a.contains_rect(&i));
            prop_assert!(b.contains_rect(&i));
            prop_assert!(a.intersects(&b));
        } else {
            prop_assert!(!a.intersects(&b));
        }
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
    }

    #[test]
    fn rect_subdivision_partitions_pixels(r in small_rect(), cols in 1u32..5, rows in 1u32..5) {
        let mut total = 0i64;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..cols * rows {
            let sub = r.subdivide(cols, rows, idx);
            prop_assert!(r.contains_rect(&sub));
            for p in sub.pixels() {
                prop_assert!(seen.insert(p));
            }
            total += sub.pixel_count();
        }
        prop_assert_eq!(total, r.pixel_count());
    }

    #[test]
    fn edge_table_rows_match_contains_pixel(poly in skyline_polygon()) {
        let table = poly.edge_table();
        let mbr = poly.mbr();
        for y in mbr.min_y - 1..mbr.max_y + 1 {
            let xs = table.row_crossings(y);
            prop_assert_eq!(xs.len() % 2, 0);
            for x in mbr.min_x - 1..mbr.max_x + 1 {
                let in_intervals = xs.chunks_exact(2).any(|pair| pair[0] <= x && x < pair[1]);
                prop_assert_eq!(in_intervals, poly.contains_pixel(x, y));
            }
        }
    }

    #[test]
    fn interval_raster_matches_brute_oracle(p in skyline_polygon(), q in skyline_polygon(), window in small_rect()) {
        prop_assert_eq!(raster::polygon_area(&p), raster::brute::polygon_area(&p));
        prop_assert_eq!(
            raster::intersection_union_area(&p, &q),
            raster::brute::intersection_union_area(&p, &q)
        );
        prop_assert_eq!(
            raster::intersection_area(&p, &q),
            raster::brute::intersection_area(&p, &q)
        );
        prop_assert_eq!(
            raster::pixels_inside(&p, &window),
            raster::brute::pixels_inside(&p, &window)
        );
    }

    #[test]
    fn interval_raster_matches_brute_on_staircases(p in staircase_polygon(), q in skyline_polygon()) {
        prop_assert_eq!(
            raster::intersection_union_area(&p, &q),
            raster::brute::intersection_union_area(&p, &q)
        );
    }

    #[test]
    fn clone_shares_the_edge_table_cache(poly in skyline_polygon()) {
        // A clone taken before the cache exists builds its own table...
        let before_clone = poly.clone();
        prop_assert!(before_clone.edge_table().slab_count() >= 1);
        prop_assert!(!std::ptr::eq(before_clone.edge_table(), poly.edge_table()));
        // ...while a clone taken after shares the very same allocation.
        let after_clone = poly.clone();
        prop_assert!(std::ptr::eq(poly.edge_table(), after_clone.edge_table()));
        prop_assert_eq!(raster::polygon_area(&after_clone), raster::polygon_area(&poly));
        prop_assert_eq!(&after_clone, &poly);
    }

    #[test]
    fn text_round_trip(poly in staircase_polygon(), id in 0u64..1_000_000) {
        use sccg_geometry::text::{parse_polygon_file, write_polygon_file, PolygonRecord};
        let rec = PolygonRecord { id, polygon: poly };
        let text = write_polygon_file(std::slice::from_ref(&rec));
        let parsed = parse_polygon_file(&text).unwrap();
        prop_assert_eq!(parsed, vec![rec]);
    }
}
