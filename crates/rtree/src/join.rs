//! MBR-intersection join between two rectangle sets.
//!
//! This is the *filter* stage primitive (paper §4.1): given the MBRs of the
//! polygons produced by two segmentation runs over the same tile, produce
//! every index pair whose MBRs intersect. Only those candidate pairs are
//! handed to the aggregator (PixelBox) for exact area computation.

use crate::tree::HilbertRTree;
use sccg_geometry::Rect;

/// Computes all pairs `(i, j)` such that `left[i]` intersects `right[j]`,
/// by bulk-loading a Hilbert R-tree over the smaller side and probing it with
/// the other side. Pairs are returned in probe order (sorted by the outer
/// index), matching the deterministic order expected by the aggregator.
pub fn mbr_join(left: &[Rect], right: &[Rect]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    if left.is_empty() || right.is_empty() {
        return out;
    }
    // Index the smaller side to keep build cost low.
    if right.len() <= left.len() {
        let tree = HilbertRTree::bulk_load(
            right
                .iter()
                .enumerate()
                .map(|(j, r)| (*r, j as u32))
                .collect(),
        );
        for (i, l) in left.iter().enumerate() {
            tree.search(l, |_, &j| out.push((i as u32, j)));
        }
    } else {
        let tree = HilbertRTree::bulk_load(
            left.iter()
                .enumerate()
                .map(|(i, r)| (*r, i as u32))
                .collect(),
        );
        for (j, r) in right.iter().enumerate() {
            tree.search(r, |_, &i| out.push((i, j as u32)));
        }
        out.sort_unstable();
    }
    out
}

/// Quadratic reference join used to validate [`mbr_join`] in tests and to
/// quantify the benefit of indexing in benchmarks.
pub fn naive_mbr_join(left: &[Rect], right: &[Rect]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for (i, l) in left.iter().enumerate() {
        for (j, r) in right.iter().enumerate() {
            if l.intersects(r) {
                out.push((i as u32, j as u32));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::DEFAULT_FANOUT;
    use proptest::prelude::*;

    /// [`mbr_join`] over [`HilbertRTree::bulk_load_reference`]: the pair
    /// sequence the join produced before the cached-key bulk load.
    fn mbr_join_reference(left: &[Rect], right: &[Rect]) -> Vec<(u32, u32)> {
        let load = |rects: &[Rect]| {
            let items = rects.iter().enumerate().map(|(k, r)| (*r, k as u32));
            HilbertRTree::bulk_load_reference(items.collect(), DEFAULT_FANOUT)
        };
        let mut out = Vec::new();
        if left.is_empty() || right.is_empty() {
            return out;
        }
        if right.len() <= left.len() {
            let tree = load(right);
            for (i, l) in left.iter().enumerate() {
                tree.search(l, |_, &j| out.push((i as u32, j)));
            }
        } else {
            let tree = load(left);
            for (j, r) in right.iter().enumerate() {
                tree.search(r, |_, &i| out.push((i, j as u32)));
            }
            out.sort_unstable();
        }
        out
    }

    /// Rectangles centred on one of a few points, so many share a centre
    /// (and so a Hilbert key) while differing in extent.
    fn tied_rects(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Rect>> {
        prop::collection::vec((0i32..4, 0i32..4, 1i32..12, 1i32..12), len).prop_map(|specs| {
            specs
                .into_iter()
                .map(|(cx, cy, w, h)| {
                    let (cx, cy) = (cx * 9, cy * 9);
                    Rect::new(cx - w, cy - h, cx + w, cy + h)
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn join_sequence_equals_the_reference_bulk_load(
            left in tied_rects(1..70),
            right in tied_rects(1..70),
        ) {
            // Both branches of the join (either side indexed) and equal sizes.
            for (l, r) in [(&left, &right), (&right, &left), (&left, &left)] {
                prop_assert_eq!(mbr_join(l, r), mbr_join_reference(l, r));
            }
        }
    }

    #[test]
    fn join_indexes_a_rect_wider_than_i32_max() {
        let s = Rect::new(0, 0, 5, 5);
        let wide = Rect::new(i32::MIN, 0, i32::MAX, 1);
        let mut pairs = mbr_join(&[s, s], &[wide, s]);
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    fn shifted_grids() -> (Vec<Rect>, Vec<Rect>) {
        // Two overlapping grids of 3x3 squares; the second grid is shifted by
        // one pixel so each square overlaps up to four of the other grid.
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                a.push(Rect::new(i * 4, j * 4, i * 4 + 3, j * 4 + 3));
                b.push(Rect::new(i * 4 + 1, j * 4 + 1, i * 4 + 4, j * 4 + 4));
            }
        }
        (a, b)
    }

    #[test]
    fn join_matches_naive_on_shifted_grids() {
        let (a, b) = shifted_grids();
        let mut fast = mbr_join(&a, &b);
        let mut naive = naive_mbr_join(&a, &b);
        fast.sort_unstable();
        naive.sort_unstable();
        assert_eq!(fast, naive);
        assert!(!fast.is_empty());
    }

    #[test]
    fn join_handles_asymmetric_sizes() {
        let (a, b) = shifted_grids();
        let small = &b[..7];
        let mut fast = mbr_join(&a, small);
        let mut naive = naive_mbr_join(&a, small);
        fast.sort_unstable();
        naive.sort_unstable();
        assert_eq!(fast, naive);

        let mut fast_rev = mbr_join(small, &a);
        let mut naive_rev = naive_mbr_join(small, &a);
        fast_rev.sort_unstable();
        naive_rev.sort_unstable();
        assert_eq!(fast_rev, naive_rev);
    }

    #[test]
    fn empty_inputs_produce_empty_joins() {
        let (a, _) = shifted_grids();
        assert!(mbr_join(&a, &[]).is_empty());
        assert!(mbr_join(&[], &a).is_empty());
        assert!(mbr_join(&[], &[]).is_empty());
    }

    #[test]
    fn disjoint_sets_produce_empty_join() {
        let a = vec![Rect::new(0, 0, 5, 5)];
        let b = vec![Rect::new(100, 100, 105, 105)];
        assert!(mbr_join(&a, &b).is_empty());
    }

    #[test]
    fn identical_sets_self_join() {
        let (a, _) = shifted_grids();
        let pairs = mbr_join(&a, &a);
        // Squares are disjoint within one grid, so the self-join is exactly
        // the diagonal.
        assert_eq!(pairs.len(), a.len());
        for (i, j) in pairs {
            assert_eq!(i, j);
        }
    }
}
