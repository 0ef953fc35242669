//! Exact, boundary-constructing polygon overlay — the GEOS/CGAL stand-in.
//!
//! PostGIS implements `ST_Intersection`, `ST_Union` and `ST_Area` on top of
//! GEOS, a general-purpose computational-geometry library whose sweepline
//! overlay constructs the *boundary* of the result before measuring its area
//! (paper §2.3). That boundary construction is exactly what the paper
//! identifies as the bottleneck of the SDBMS solution, and what PixelBox
//! avoids.
//!
//! This crate plays the role of GEOS in the reproduction: an exact,
//! general-purpose, branch-heavy CPU algorithm that *does* construct the
//! overlay geometry:
//!
//! * [`decompose`] — plane-sweep slab decomposition of a rectilinear polygon
//!   into disjoint rectangles (the constructed geometry).
//! * [`overlay`] — intersection geometry, intersection area, union area
//!   (both directly via rectangle-union sweep and indirectly via
//!   inclusion–exclusion).
//!
//! All exact routines are validated against the brute-force raster oracle of
//! `sccg-geometry`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decompose;
pub mod overlay;

pub use decompose::decompose_into_rects;
pub use overlay::{
    intersection_area, intersection_geometry, union_area_direct, union_area_indirect, PairAreas,
};

/// Computes the exact areas of intersection and union of a polygon pair the
/// way an SDBMS would: construct the intersection geometry, measure it, and
/// derive the union from the polygon areas. This is the "optimized query"
/// code path of Figure 1(b).
pub fn pair_areas(
    p: &sccg_geometry::RectilinearPolygon,
    q: &sccg_geometry::RectilinearPolygon,
) -> PairAreas {
    let inter = intersection_area(p, q);
    PairAreas {
        intersection: inter,
        union: st_area(p) + st_area(q) - inter,
    }
}

/// `ST_Area(p)` as GEOS computes it: the shoelace sum over the vertex
/// chain, walked again on every call. A [`RectilinearPolygon`] keeps its
/// shoelace sum, so [`RectilinearPolygon::area`] is a load; the baselines
/// walk the chain so that they pay what the systems they stand for pay.
///
/// [`RectilinearPolygon`]: sccg_geometry::RectilinearPolygon
/// [`RectilinearPolygon::area`]: sccg_geometry::RectilinearPolygon::area
pub fn st_area(poly: &sccg_geometry::RectilinearPolygon) -> i64 {
    let vertices = poly.vertices();
    let closing = vertices.last().zip(vertices.first());
    let area2: i64 = vertices
        .iter()
        .zip(&vertices[1..])
        .chain(closing)
        .map(|(a, b)| i64::from(a.x) * i64::from(b.y) - i64::from(b.x) * i64::from(a.y))
        .sum();
    area2.abs() / 2
}
