//! Packed Hilbert R-tree with bulk loading.

use crate::hilbert::hilbert_value;
use sccg_geometry::Rect;

/// Default maximum number of entries per node. The paper's polygons are very
/// small and numerous, so a moderately wide fanout keeps the tree shallow
/// without bloating node scans.
pub const DEFAULT_FANOUT: usize = 16;

/// A bulk-loaded, immutable Hilbert R-tree mapping rectangles to payloads.
///
/// Construction sorts the entries by the Hilbert value of their MBR centre
/// and packs them left-to-right into leaves of `fanout` entries, then builds
/// internal levels the same way — the classic "Hilbert-packed" bulk load of
/// Kamel & Faloutsos. The sort computes each entry's key once and is
/// stable, so entries with equal keys keep their input order. Lookups
/// descend only into subtrees whose bounding rectangle intersects the query
/// window.
#[derive(Debug, Clone)]
pub struct HilbertRTree<T> {
    /// Leaf entries in Hilbert order.
    entries: Vec<(Rect, T)>,
    /// All internal nodes, level by level, root last. Each node stores its
    /// bounding rectangle and the index range of its children in the level
    /// below (or in `entries` for level 0).
    levels: Vec<Vec<Node>>,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    mbr: Rect,
    /// Start index of this node's children in the level below.
    child_start: usize,
    /// One-past-the-end index of this node's children.
    child_end: usize,
}

/// The bulk load's sort key: the Hilbert value of the rectangle's centre.
fn hilbert_key(rect: &Rect) -> u64 {
    let (cx, cy) = rect.center_pixel();
    hilbert_value(cx, cy)
}

/// Structural statistics of a built tree, exposed for benchmarks and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    /// Number of indexed entries.
    pub entries: usize,
    /// Number of levels above the leaves (0 for an empty tree).
    pub height: usize,
    /// Total number of internal nodes across all levels.
    pub nodes: usize,
}

impl<T> HilbertRTree<T> {
    /// Bulk loads a tree with the default fanout.
    pub fn bulk_load(items: Vec<(Rect, T)>) -> Self {
        Self::bulk_load_with_fanout(items, DEFAULT_FANOUT)
    }

    /// Bulk loads a tree with an explicit fanout (minimum 2).
    ///
    /// Entries are ordered by the Hilbert value of their MBR centre, computed
    /// once per entry (not once per comparison); entries with equal values
    /// keep their input order.
    pub fn bulk_load_with_fanout(mut items: Vec<(Rect, T)>, fanout: usize) -> Self {
        items.sort_by_cached_key(|(rect, _)| hilbert_key(rect));
        Self::pack(items, fanout)
    }

    /// The bulk load [`HilbertRTree::bulk_load_with_fanout`] replaced, kept
    /// as the differential reference for its entry order: a stable sort
    /// that recomputes the key on every comparison.
    #[cfg(test)]
    pub(crate) fn bulk_load_reference(mut items: Vec<(Rect, T)>, fanout: usize) -> Self {
        items.sort_by_key(|(rect, _)| hilbert_key(rect));
        Self::pack(items, fanout)
    }

    /// Packs entries, already in Hilbert order, into leaves of `fanout`
    /// (minimum 2) and builds the internal levels above them.
    fn pack(items: Vec<(Rect, T)>, fanout: usize) -> Self {
        let fanout = fanout.max(2);
        let mut levels: Vec<Vec<Node>> = Vec::new();
        if !items.is_empty() {
            // Level 0: group leaf entries.
            let mut level: Vec<Node> = items
                .chunks(fanout)
                .scan(0usize, |start, chunk| {
                    let child_start = *start;
                    *start += chunk.len();
                    let mbr = chunk.iter().fold(Rect::EMPTY, |acc, (r, _)| acc.union(r));
                    Some(Node {
                        mbr,
                        child_start,
                        child_end: *start,
                    })
                })
                .collect();
            levels.push(level.clone());
            // Higher levels until a single root remains.
            while level.len() > 1 {
                let next: Vec<Node> = level
                    .chunks(fanout)
                    .scan(0usize, |start, chunk| {
                        let child_start = *start;
                        *start += chunk.len();
                        let mbr = chunk.iter().fold(Rect::EMPTY, |acc, n| acc.union(&n.mbr));
                        Some(Node {
                            mbr,
                            child_start,
                            child_end: *start,
                        })
                    })
                    .collect();
                levels.push(next.clone());
                level = next;
            }
        }

        HilbertRTree {
            entries: items,
            levels,
        }
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the tree indexes no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bounding rectangle of the whole tree ([`Rect::EMPTY`] when empty).
    pub fn root_mbr(&self) -> Rect {
        self.levels
            .last()
            .and_then(|l| l.first())
            .map(|n| n.mbr)
            .unwrap_or(Rect::EMPTY)
    }

    /// Structural statistics.
    pub fn stats(&self) -> TreeStats {
        TreeStats {
            entries: self.entries.len(),
            height: self.levels.len(),
            nodes: self.levels.iter().map(|l| l.len()).sum(),
        }
    }

    /// Calls `visit` for every entry whose rectangle intersects `query`.
    ///
    /// The walk is depth-first and allocates nothing: it recurses once per
    /// level, so its depth is the tree's height. An internal node's children
    /// are entered last to first, and a leaf's entries are visited first to
    /// last. That is the order the pair lists of [`crate::mbr_join`] and
    /// every filter built on it are pinned to.
    pub fn search<'a, F: FnMut(&'a Rect, &'a T)>(&'a self, query: &Rect, mut visit: F) {
        if self.entries.is_empty() || query.is_empty() {
            return;
        }
        let top = self.levels.len() - 1;
        for node in self.levels[top].iter().rev() {
            if node.mbr.intersects(query) {
                self.descend(top, node, query, &mut visit);
            }
        }
    }

    /// Visits the entries under `node`, a node of `level` whose rectangle
    /// intersects `query`, in [`HilbertRTree::search`]'s order.
    fn descend<'a, F: FnMut(&'a Rect, &'a T)>(
        &'a self,
        level: usize,
        node: &Node,
        query: &Rect,
        visit: &mut F,
    ) {
        if level == 0 {
            for (rect, value) in &self.entries[node.child_start..node.child_end] {
                if rect.intersects(query) {
                    visit(rect, value);
                }
            }
        } else {
            for child in self.levels[level - 1][node.child_start..node.child_end]
                .iter()
                .rev()
            {
                if child.mbr.intersects(query) {
                    self.descend(level - 1, child, query, visit);
                }
            }
        }
    }

    /// Convenience wrapper collecting matching payload references.
    pub fn query(&self, query: &Rect) -> Vec<&T> {
        let mut out = Vec::new();
        self.search(query, |_, v| out.push(v));
        out
    }

    /// Iterates over all entries in Hilbert order.
    pub fn entries(&self) -> impl Iterator<Item = &(Rect, T)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid_rects(n: i32) -> Vec<(Rect, usize)> {
        // n x n unit squares spaced 2 apart so none intersect each other.
        let mut v = Vec::new();
        let mut id = 0usize;
        for i in 0..n {
            for j in 0..n {
                v.push((Rect::new(i * 2, j * 2, i * 2 + 1, j * 2 + 1), id));
                id += 1;
            }
        }
        v
    }

    /// Random rectangles over a small plane, so windows hit many of them.
    fn rects(max: usize) -> impl Strategy<Value = Vec<Rect>> {
        prop::collection::vec((0i32..200, 0i32..200, 1i32..30, 1i32..30), 0..max).prop_map(|v| {
            v.into_iter()
                .map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        // Trees up to nine levels deep (fanouts 2..5 over up to 300 entries)
        // visit every entry that meets the window exactly once, and no
        // other, for full, partial and empty windows.
        #[test]
        fn search_visits_exactly_the_intersecting_entries(
            items in rects(300),
            fanout in 2usize..6,
            windows in rects(12),
        ) {
            let tree = HilbertRTree::bulk_load_with_fanout(
                items.iter().copied().enumerate().map(|(k, r)| (r, k)).collect(),
                fanout,
            );
            for window in windows.iter().chain([&Rect::new(-10, -10, 300, 300), &Rect::EMPTY]) {
                let mut got = Vec::new();
                tree.search(window, |r, &k| got.push((k, *r)));
                got.sort_unstable_by_key(|&(k, _)| k);
                let want: Vec<(usize, Rect)> = items
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|(_, r)| r.intersects(window))
                    .collect();
                prop_assert_eq!(got, want);
            }
        }
    }

    /// The order `search` visits entries in is the order the MBR join emits
    /// candidate pairs, and the f64 `J'` fold depends on that order: pin it
    /// on fixed trees.
    #[test]
    fn search_visit_order_is_pinned_on_fixed_trees() {
        let visit_order = |items: Vec<(Rect, usize)>, fanout: usize, window: Rect| {
            let tree = HilbertRTree::bulk_load_with_fanout(items, fanout);
            let mut order = Vec::new();
            tree.search(&window, |_, &k| order.push(k));
            order
        };
        let overlapping: Vec<(Rect, usize)> = (0..20i32)
            .map(|i| {
                (
                    Rect::new(3 * i, (7 * i) % 11, 3 * i + 5, (7 * i) % 11 + 4),
                    i as usize,
                )
            })
            .collect();
        let everything = Rect::new(-1, -1, 100, 100);
        assert_eq!(
            visit_order(grid_rects(4), 2, everything),
            [2, 3, 7, 6, 15, 11, 10, 14, 13, 9, 8, 12, 5, 4, 0, 1]
        );
        assert_eq!(
            visit_order(grid_rects(4), 2, Rect::new(1, 1, 5, 5)),
            [6, 10, 9, 5]
        );
        assert_eq!(
            visit_order(overlapping.clone(), 3, everything),
            [18, 19, 13, 16, 17, 12, 10, 11, 6, 14, 15, 7, 8, 9, 4, 2, 5, 0, 1, 3]
        );
        assert_eq!(
            visit_order(overlapping, 3, Rect::new(10, 2, 30, 8)),
            [7, 8, 4, 2, 5]
        );
    }

    #[test]
    fn empty_tree_behaves() {
        let tree: HilbertRTree<u32> = HilbertRTree::bulk_load(vec![]);
        assert!(tree.is_empty());
        assert_eq!(tree.query(&Rect::new(0, 0, 10, 10)), Vec::<&u32>::new());
        assert_eq!(
            tree.stats(),
            TreeStats {
                entries: 0,
                height: 0,
                nodes: 0
            }
        );
        assert!(tree.root_mbr().is_empty());
    }

    #[test]
    fn single_entry() {
        let tree = HilbertRTree::bulk_load(vec![(Rect::new(5, 5, 8, 9), 42u32)]);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.query(&Rect::new(0, 0, 6, 6)), vec![&42]);
        assert!(tree.query(&Rect::new(0, 0, 5, 5)).is_empty());
        assert_eq!(tree.root_mbr(), Rect::new(5, 5, 8, 9));
    }

    #[test]
    fn point_queries_find_exactly_one_square() {
        let tree = HilbertRTree::bulk_load(grid_rects(20));
        for i in 0..20 {
            for j in 0..20 {
                let q = Rect::new(i * 2, j * 2, i * 2 + 1, j * 2 + 1);
                let found = tree.query(&q);
                assert_eq!(found.len(), 1);
            }
        }
    }

    #[test]
    fn window_query_matches_brute_force() {
        let items = grid_rects(30);
        let tree = HilbertRTree::bulk_load(items.clone());
        let windows = [
            Rect::new(0, 0, 10, 10),
            Rect::new(5, 7, 23, 31),
            Rect::new(-5, -5, 3, 3),
            Rect::new(100, 100, 200, 200),
            Rect::new(0, 0, 60, 60),
        ];
        for w in windows {
            let mut expected: Vec<usize> = items
                .iter()
                .filter(|(r, _)| r.intersects(&w))
                .map(|(_, id)| *id)
                .collect();
            let mut got: Vec<usize> = tree.query(&w).into_iter().copied().collect();
            expected.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expected, "window {w:?}");
        }
    }

    #[test]
    fn tree_height_grows_logarithmically() {
        let tree = HilbertRTree::bulk_load_with_fanout(grid_rects(32), 8);
        let stats = tree.stats();
        assert_eq!(stats.entries, 1024);
        // 1024 entries / fanout 8 = 128 leaves, 16, 2, 1 -> height 4.
        assert_eq!(stats.height, 4);
        assert!(stats.nodes >= 128);
    }

    #[test]
    fn root_mbr_covers_all_entries() {
        let items = grid_rects(10);
        let tree = HilbertRTree::bulk_load(items.clone());
        let root = tree.root_mbr();
        for (r, _) in &items {
            assert!(root.contains_rect(r));
        }
    }

    #[test]
    fn degenerate_fanout_is_clamped() {
        let tree = HilbertRTree::bulk_load_with_fanout(grid_rects(4), 0);
        assert_eq!(tree.len(), 16);
        assert_eq!(tree.query(&Rect::new(0, 0, 8, 8)).len(), 16);
    }

    #[test]
    fn overlapping_entries_are_all_reported() {
        let items: Vec<(Rect, usize)> = (0..50)
            .map(|i| (Rect::new(0, 0, 10 + i, 10 + i), i as usize))
            .collect();
        let tree = HilbertRTree::bulk_load(items);
        assert_eq!(tree.query(&Rect::new(5, 5, 6, 6)).len(), 50);
    }
}
