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
        union: p.area() + q.area() - inter,
    }
}
