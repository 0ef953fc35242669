//! Equivalence suite for the interval-scanline pixelization fast path.
//!
//! The fast path must be *observationally indistinguishable* from the seed
//! per-pixel loop it replaced: for random rectilinear polygon pairs, every
//! `Variant`, and pixelization thresholds across `1..=4096`, both the areas
//! and the full execution [`Trace`](sccg::pixelbox::algorithm::Trace) must
//! be bit-identical (the GPU simulator's cost model and the Figure 8 claims
//! are defined over the trace counts). The per-pixel oracle is retained as
//! [`compute_pair_reference`]; a second, independent check goes through the
//! brute-force raster oracle in `sccg_geometry::raster::brute`.

use proptest::prelude::*;
use sccg::pixelbox::algorithm::{compute_pair, compute_pair_reference};
use sccg::pixelbox::cpu::compute_batch_cpu;
use sccg::pixelbox::{PixelBoxConfig, PolygonPair, Variant};
use sccg_geometry::edge_table::{
    overlap_len_in, overlap_len_in_scalar, span_len_in, span_len_in_scalar, LANES,
};
use sccg_geometry::{raster, Point, RectilinearPolygon};

/// A random rectilinear polygon drawn from three families:
///
/// * **skyline** — a flat base with columns of varying heights: rows cross
///   many inside intervals, stressing the interval merge;
/// * **sideways skyline** — the same shape transposed, so *columns* vary and
///   rows exercise long single intervals at varying offsets;
/// * **staircase** — a monotone step boundary, the degenerate one-interval
///   case.
fn rectilinear_polygon() -> impl Strategy<Value = RectilinearPolygon> {
    (0u8..3, 2usize..8).prop_flat_map(|(family, segments)| {
        (
            prop::collection::vec(1i32..5, segments),
            prop::collection::vec(1i32..8, segments),
            -12i32..12,
            -12i32..12,
        )
            .prop_map(move |(widths, heights, ox, oy)| {
                let mut vertices = vec![Point::new(ox, oy)];
                let mut x = ox;
                match family {
                    // Skyline: columns of varying heights above y = oy.
                    0 => {
                        for (w, h) in widths.iter().zip(heights.iter()) {
                            vertices.push(Point::new(x, oy + h));
                            x += w;
                            vertices.push(Point::new(x, oy + h));
                        }
                        vertices.push(Point::new(x, oy));
                    }
                    // Sideways skyline: rows of varying widths right of
                    // x = ox (the transpose of the above).
                    1 => {
                        let mut y = oy;
                        for (w, h) in widths.iter().zip(heights.iter()) {
                            vertices.push(Point::new(ox + w, y));
                            y += h;
                            vertices.push(Point::new(ox + w, y));
                        }
                        vertices.push(Point::new(ox, y));
                        vertices.reverse(); // keep the chain closed cleanly
                    }
                    // Staircase descending from the top-left.
                    _ => {
                        let total_h: i32 = heights.iter().sum();
                        vertices.push(Point::new(ox, oy + total_h));
                        let mut y = oy + total_h;
                        for (w, h) in widths.iter().zip(heights.iter()) {
                            x += w;
                            vertices.push(Point::new(x, y));
                            y -= h;
                            vertices.push(Point::new(x, y));
                        }
                    }
                }
                RectilinearPolygon::canonicalize(vertices).expect("generated polygon is valid")
            })
    })
}

fn polygon_pair() -> impl Strategy<Value = PolygonPair> {
    (rectilinear_polygon(), rectilinear_polygon()).prop_map(|(p, q)| PolygonPair::new(p, q))
}

/// A raw sorted crossing list of length `0..=4·LANES+3` — lengths straddle
/// every chunk boundary of the lane-chunked kernels (including odd lengths,
/// whose trailing element both implementations ignore, and the empty list of
/// a row outside the polygon). Sorting makes consecutive pairs disjoint
/// (possibly touching or empty) intervals, the invariant real crossing lists
/// hold.
fn crossing_list() -> impl Strategy<Value = Vec<i32>> {
    prop::collection::vec(-40i32..=120, 0usize..(4 * LANES + 4)).prop_map(|mut xs| {
        xs.sort_unstable();
        xs
    })
}

/// A comb polygon with up to `2·LANES + 2` teeth: its tooth rows carry up to
/// `4·LANES + 4` crossings, so pixelizing a comb pair pushes the interval
/// kernels across multiple lane chunks within a single row. One tooth
/// degenerates to a single-column polygon (a single-column scan window).
fn wide_comb() -> impl Strategy<Value = RectilinearPolygon> {
    (
        1usize..=(2 * LANES + 2),
        1i32..4,
        1i32..4,
        -20i32..20,
        -20i32..20,
    )
        .prop_map(|(teeth, base_h, tooth_h, ox, oy)| {
            let w = 2 * teeth as i32 - 1;
            let base_top = oy + base_h;
            let top = base_top + tooth_h;
            let mut vertices = vec![
                Point::new(ox, oy),
                Point::new(ox + w, oy),
                Point::new(ox + w, top),
            ];
            // Walk the gaps between teeth right to left: down into the gap,
            // across, back up the next tooth.
            for k in (1..teeth).rev() {
                let gap = ox + 2 * k as i32 - 1;
                vertices.push(Point::new(gap + 1, top));
                vertices.push(Point::new(gap + 1, base_top));
                vertices.push(Point::new(gap, base_top));
                vertices.push(Point::new(gap, top));
            }
            vertices.push(Point::new(ox, top));
            RectilinearPolygon::canonicalize(vertices).expect("generated comb is valid")
        })
}

/// Two overlapping L-shapes with a `size × size` joint region, the dense
/// pixelization workload of the `substrates` bench.
fn dense_l_pair(size: i32) -> PolygonPair {
    let l_shape = |offset: i32| {
        RectilinearPolygon::new(vec![
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

// Dense pixelization: a threshold far above the joint region's pixel count
// sends the whole region to the pixelization kernel, which the proptests'
// thresholds (≤ 4096) never do for a region this size.
#[test]
fn dense_pixelization_matches_per_pixel_oracle() {
    let pair = dense_l_pair(128);
    for variant in [Variant::PixelOnly, Variant::NoSep, Variant::Full] {
        assert_eq!(
            compute_pair(&pair, 1 << 30, 64, variant),
            compute_pair_reference(&pair, 1 << 30, 64, variant),
            "{variant:?}: areas and trace must be bit-identical"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The acceptance property: fast path vs retained per-pixel oracle,
    // areas and traces bit-identical across all variants and the full
    // threshold range.
    #[test]
    fn scanline_matches_per_pixel_oracle(
        pair in polygon_pair(),
        threshold in 1u32..=4096,
        fanout in 2u32..32,
    ) {
        for variant in [Variant::PixelOnly, Variant::NoSep, Variant::Full] {
            let fast = compute_pair(&pair, threshold, fanout, variant);
            let brute = compute_pair_reference(&pair, threshold, fanout, variant);
            prop_assert_eq!(&fast.0, &brute.0);
            prop_assert_eq!(&fast.1, &brute.1);
        }
    }

    // Independent ground truth: the brute-force raster oracle (per-pixel
    // even–odd tests, untouched by the fast path) agrees with every
    // variant's areas.
    #[test]
    fn all_variants_match_the_brute_raster_oracle(
        pair in polygon_pair(),
        threshold in 1u32..=4096,
    ) {
        let (ri, ru) = raster::brute::intersection_union_area(&pair.p, &pair.q);
        for variant in [Variant::PixelOnly, Variant::NoSep, Variant::Full] {
            let (areas, _) = compute_pair(&pair, threshold, 16, variant);
            prop_assert_eq!((areas.intersection, areas.union), (ri, ru));
        }
    }

    // Lane-boundary property: the lane-chunked interval kernels are
    // bit-identical to their scalar references for crossing lists of every
    // length `0..=4·LANES+3` (odd and even, empty rows included) and for
    // windows of width `0..=1..` — including the degenerate empty and
    // single-column windows.
    #[test]
    fn lane_kernels_match_scalar_references_at_every_chunk_boundary(
        a in crossing_list(),
        b in crossing_list(),
        lo in -50i32..=130,
        width in 0i32..=64,
    ) {
        let hi = lo + width;
        prop_assert_eq!(span_len_in(&a, lo, hi), span_len_in_scalar(&a, lo, hi));
        prop_assert_eq!(span_len_in(&b, lo, hi), span_len_in_scalar(&b, lo, hi));
        prop_assert_eq!(
            overlap_len_in(&a, &b, lo, hi),
            overlap_len_in_scalar(&a, &b, lo, hi)
        );
        prop_assert_eq!(
            overlap_len_in(&b, &a, lo, hi),
            overlap_len_in_scalar(&b, &a, lo, hi)
        );
    }

    // Pair-level lane-boundary property: wide-comb pairs whose rows cross
    // several lane chunks stay bit-identical — areas AND traces — between
    // the chunked scanline kernel and the per-pixel oracle, across all three
    // variants.
    #[test]
    fn wide_comb_pairs_are_bit_identical_across_kernels(
        p in wide_comb(),
        q in wide_comb(),
        threshold in 1u32..=4096,
    ) {
        let pair = PolygonPair::new(p, q);
        for variant in [Variant::PixelOnly, Variant::NoSep, Variant::Full] {
            let fast = compute_pair(&pair, threshold, 16, variant);
            let brute = compute_pair_reference(&pair, threshold, 16, variant);
            prop_assert_eq!(&fast.0, &brute.0);
            prop_assert_eq!(&fast.1, &brute.1);
        }
    }

    // The persistent worker pool preserves batch results exactly for any
    // worker count (PixelBox-CPU over the pool vs strict sequential).
    #[test]
    fn pooled_batches_match_sequential(
        pairs in prop::collection::vec(polygon_pair(), 0usize..24),
        workers in 2usize..8,
        threshold in 1u32..=4096,
    ) {
        let config = PixelBoxConfig::paper_default().with_threshold(threshold);
        let sequential = compute_batch_cpu(&pairs, &config, 1);
        let pooled = compute_batch_cpu(&pairs, &config, workers);
        prop_assert_eq!(sequential, pooled);
    }
}
