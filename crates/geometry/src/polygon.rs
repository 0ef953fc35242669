//! Rectilinear polygons with exact integer area and containment tests.

use crate::edge_table::EdgeTable;
use crate::error::GeometryError;
use crate::point::Point;
use crate::rect::Rect;
use crate::Result;
use std::sync::{Arc, OnceLock};

/// Orientation of a rectilinear edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// The edge runs parallel to the x axis.
    Horizontal,
    /// The edge runs parallel to the y axis.
    Vertical,
}

/// A single directed edge of a rectilinear polygon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Start vertex.
    pub a: Point,
    /// End vertex.
    pub b: Point,
}

impl Edge {
    /// Orientation of the edge. Zero-length edges are rejected at polygon
    /// construction time, so every edge is either horizontal or vertical.
    #[inline]
    pub fn kind(&self) -> EdgeKind {
        if self.a.y == self.b.y {
            EdgeKind::Horizontal
        } else {
            EdgeKind::Vertical
        }
    }

    /// Length of the edge in pixels.
    #[inline]
    pub fn length(&self) -> i64 {
        (i64::from(self.b.x) - i64::from(self.a.x)).abs()
            + (i64::from(self.b.y) - i64::from(self.a.y)).abs()
    }

    /// Lower coordinate bound along the edge's axis of variation.
    #[inline]
    fn lo(&self) -> i32 {
        match self.kind() {
            EdgeKind::Horizontal => self.a.x.min(self.b.x),
            EdgeKind::Vertical => self.a.y.min(self.b.y),
        }
    }

    /// Upper coordinate bound along the edge's axis of variation.
    #[inline]
    fn hi(&self) -> i32 {
        match self.kind() {
            EdgeKind::Horizontal => self.a.x.max(self.b.x),
            EdgeKind::Vertical => self.a.y.max(self.b.y),
        }
    }

    /// The fixed coordinate of the edge (y for horizontal edges, x for
    /// vertical edges).
    #[inline]
    fn fixed(&self) -> i32 {
        match self.kind() {
            EdgeKind::Horizontal => self.a.y,
            EdgeKind::Vertical => self.a.x,
        }
    }

    /// Tests whether two axis-aligned edges *properly cross*: their interiors
    /// intersect at exactly one point. Perpendicular edges cross when each
    /// edge's fixed coordinate lies strictly between the other's endpoints.
    /// Parallel (possibly overlapping) edges never properly cross — the paper
    /// treats boundary-overlapping sampling boxes as either inside or outside
    /// (§3.2), so an overlap must not force a `hover` classification here.
    pub fn properly_crosses(&self, other: &Edge) -> bool {
        match (self.kind(), other.kind()) {
            (EdgeKind::Horizontal, EdgeKind::Vertical)
            | (EdgeKind::Vertical, EdgeKind::Horizontal) => {
                let (h, v) = if self.kind() == EdgeKind::Horizontal {
                    (self, other)
                } else {
                    (other, self)
                };
                v.fixed() > h.lo() && v.fixed() < h.hi() && h.fixed() > v.lo() && h.fixed() < v.hi()
            }
            _ => false,
        }
    }
}

/// A closed rectilinear polygon on the pixel grid.
///
/// The boundary is the closed chain `v0 → v1 → … → v(n-1) → v0`. A valid
/// polygon has at least four vertices, axis-aligned non-degenerate edges,
/// alternating edge orientations (no collinear vertices) and non-zero area.
/// Self-intersection is not checked: segmentation outputs are simple by
/// construction, and the algorithms under study only rely on the even–odd
/// containment rule, which remains well defined.
///
/// The vertex chain is immutable and shared by reference count, so a clone
/// costs a counter increment, not a copy of the chain. The shoelace sum is
/// a property of the chain, so it is kept beside it: `PolyArea` (Algorithm 1)
/// is a load, not a walk of the chain.
#[derive(Debug)]
pub struct RectilinearPolygon {
    vertices: Arc<[Point]>,
    mbr: Rect,
    /// Twice the signed shoelace area, summed by the constructor's one pass
    /// over the chain.
    area2: i64,
    /// Lazily built scanline [`EdgeTable`] (see [`RectilinearPolygon::edge_table`]).
    /// Shared through an `Arc` so cloning a polygon keeps the cache warm
    /// without duplicating it.
    edge_table: OnceLock<Arc<EdgeTable>>,
}

impl Clone for RectilinearPolygon {
    /// Shares the vertex chain, and the edge table if one is built. A clone
    /// of a cold polygon gets its own empty cache: a table built through
    /// the clone dies with the clone and never fills the original's.
    fn clone(&self) -> Self {
        let edge_table = OnceLock::new();
        if let Some(table) = self.edge_table.get() {
            let _ = edge_table.set(Arc::clone(table));
        }
        RectilinearPolygon {
            vertices: Arc::clone(&self.vertices),
            mbr: self.mbr,
            area2: self.area2,
            edge_table,
        }
    }
}

/// The closed chain's edges `(v[i], v[i+1])` in boundary order, the last one
/// closing back to `v[0]`: (previous, current) vertex pairs with no index
/// arithmetic per vertex.
///
/// The open part is a zip of two slices, which the compiler turns into one
/// indexed loop when the caller consumes the iterator internally (`fold`,
/// `sum`, `for_each`, `try_for_each`): the chained closing edge then costs
/// one extra step after the loop instead of a branch per vertex.
pub(crate) fn closed_edges(vertices: &[Point]) -> impl Iterator<Item = (Point, Point)> + '_ {
    let rest = vertices.get(1..).unwrap_or_default();
    let closing = vertices.last().copied().zip(vertices.first().copied());
    vertices
        .iter()
        .copied()
        .zip(rest.iter().copied())
        .chain(closing)
}

/// The running state of [`RectilinearPolygon::from_slice`]'s one pass over
/// a chain's edges, held in one local struct so that the loop keeps it in
/// registers.
struct ChainScan {
    /// Whether any edge so far is degenerate or diagonal, or turns the way
    /// the edge before it ran.
    defect: bool,
    /// Whether the previous edge (the closing edge, before the first) is
    /// vertical.
    incoming_vertical: bool,
    mbr: Rect,
    /// The shoelace sum so far.
    area2: i64,
}

impl ChainScan {
    #[inline(always)]
    fn edge(&mut self, a: Point, b: Point) {
        let vertical = a.x == b.x;
        // An edge is valid when exactly one coordinate stays fixed, and its
        // start vertex is redundant when the edge runs the way the one
        // before it did.
        self.defect |= (vertical == (a.y == b.y)) | (vertical == self.incoming_vertical);
        self.incoming_vertical = vertical;
        self.mbr.min_x = self.mbr.min_x.min(a.x);
        self.mbr.min_y = self.mbr.min_y.min(a.y);
        self.mbr.max_x = self.mbr.max_x.max(a.x);
        self.mbr.max_y = self.mbr.max_y.max(a.y);
        self.area2 += i64::from(a.x) * i64::from(b.y) - i64::from(b.x) * i64::from(a.y);
    }
}

/// A chain's validity checks in their documented order: the vertex count,
/// then every edge for a zero-length or diagonal edge, then every vertex for
/// a collinear one. Each check reports the first defect it finds.
fn ordered_checks(vertices: &[Point]) -> Result<()> {
    if vertices.len() < 4 {
        return Err(GeometryError::TooFewVertices {
            got: vertices.len(),
        });
    }
    closed_edges(vertices)
        .enumerate()
        .try_for_each(|(index, (a, b))| {
            if a == b {
                return Err(GeometryError::ZeroLengthEdge { index });
            }
            if a.x != b.x && a.y != b.y {
                return Err(GeometryError::NonRectilinearEdge { index });
            }
            Ok(())
        })?;
    // Vertex i is collinear when its incoming edge (the previous one,
    // starting from the closing edge) and its outgoing edge run the same
    // way.
    let last = vertices[vertices.len() - 1];
    let mut incoming_vertical = last.x == vertices[0].x;
    closed_edges(vertices)
        .enumerate()
        .try_for_each(|(index, (cur, next))| {
            let outgoing_vertical = cur.x == next.x;
            if incoming_vertical == outgoing_vertical {
                return Err(GeometryError::CollinearVertex { index });
            }
            incoming_vertical = outgoing_vertical;
            Ok(())
        })
}

impl PartialEq for RectilinearPolygon {
    fn eq(&self, other: &Self) -> bool {
        // The MBR, area and edge table are derived from the vertex chain; identity
        // is the chain itself.
        self.vertices == other.vertices
    }
}

impl Eq for RectilinearPolygon {}

impl RectilinearPolygon {
    /// Builds a polygon from an owned vertex chain, validating
    /// rectilinearity: [`RectilinearPolygon::from_slice`] over the chain.
    ///
    /// # Errors
    ///
    /// The errors of [`RectilinearPolygon::from_slice`].
    pub fn new(vertices: Vec<Point>) -> Result<Self> {
        Self::from_slice(&vertices)
    }

    /// Builds a polygon from a borrowed vertex chain, validating
    /// rectilinearity, in one pass and one allocation.
    ///
    /// One loop over the closed chain checks that every edge is axis-aligned
    /// and non-degenerate and that edge orientations alternate, while it
    /// accumulates the MBR and the shoelace sum, which the polygon keeps for
    /// [`RectilinearPolygon::area`]. The only allocation is the
    /// shared `Arc<[Point]>` the chain is copied into, so a caller that
    /// builds many polygons can fill one reused scratch buffer and hand it
    /// here.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] when the chain has fewer than four
    /// vertices, contains a zero-length or diagonal edge, contains a
    /// collinear (redundant) vertex, or encloses zero area. When the fused
    /// pass finds a defect, the checks re-run in their documented order
    /// (every edge for [`ZeroLengthEdge`](GeometryError::ZeroLengthEdge) or
    /// [`NonRectilinearEdge`](GeometryError::NonRectilinearEdge), then every
    /// vertex for [`CollinearVertex`](GeometryError::CollinearVertex)), so
    /// the error names the first defect in that order and its index.
    pub fn from_slice(vertices: &[Point]) -> Result<Self> {
        if vertices.len() < 4 {
            return Err(GeometryError::TooFewVertices {
                got: vertices.len(),
            });
        }
        let first = vertices[0];
        let last = vertices[vertices.len() - 1];
        let mut scan = ChainScan {
            defect: false,
            incoming_vertical: last.x == first.x,
            mbr: Rect::EMPTY,
            area2: 0,
        };
        for (&a, &b) in vertices.iter().zip(&vertices[1..]) {
            scan.edge(a, b);
        }
        scan.edge(last, first);
        let ChainScan {
            defect, mbr, area2, ..
        } = scan;
        if defect {
            ordered_checks(vertices)?;
        }
        if area2.abs() / 2 == 0 {
            return Err(GeometryError::ZeroArea);
        }
        Ok(RectilinearPolygon {
            vertices: Arc::from(vertices),
            mbr,
            area2,
            edge_table: OnceLock::new(),
        })
    }

    /// Builds a polygon from a vertex chain after removing consecutive
    /// duplicate and collinear vertices. Useful when ingesting generated or
    /// hand-written vertex lists that are not in canonical form.
    pub fn canonicalize(vertices: Vec<Point>) -> Result<Self> {
        let mut cleaned: Vec<Point> = Vec::with_capacity(vertices.len());
        for v in vertices {
            if cleaned.last() == Some(&v) {
                continue;
            }
            cleaned.push(v);
        }
        // Drop a duplicated closing vertex if present.
        if cleaned.len() > 1 && cleaned.first() == cleaned.last() {
            cleaned.pop();
        }
        // Remove collinear vertices iteratively until stable.
        loop {
            let n = cleaned.len();
            if n < 4 {
                break;
            }
            let mut removed = false;
            let mut out: Vec<Point> = Vec::with_capacity(n);
            for i in 0..n {
                let prev = cleaned[(i + n - 1) % n];
                let cur = cleaned[i];
                let next = cleaned[(i + 1) % n];
                let collinear =
                    (prev.x == cur.x && cur.x == next.x) || (prev.y == cur.y && cur.y == next.y);
                if collinear {
                    removed = true;
                } else {
                    out.push(cur);
                }
            }
            cleaned = out;
            if !removed {
                break;
            }
        }
        Self::new(cleaned)
    }

    /// Convenience constructor for an axis-aligned rectangle polygon.
    pub fn rectangle(rect: Rect) -> Result<Self> {
        Self::new(vec![
            Point::new(rect.min_x, rect.min_y),
            Point::new(rect.max_x, rect.min_y),
            Point::new(rect.max_x, rect.max_y),
            Point::new(rect.min_x, rect.max_y),
        ])
    }

    /// The polygon's vertices in boundary order.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices (equals the number of edges).
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// The minimum bounding rectangle. Because vertices are grid points and
    /// the boundary follows grid lines, every interior pixel lies inside this
    /// rectangle.
    #[inline]
    pub fn mbr(&self) -> Rect {
        self.mbr
    }

    /// The polygon's scanline [`EdgeTable`], built on first use and cached
    /// (clones of the polygon share the cached table).
    ///
    /// The table decomposes every pixel row into its inside x-intervals in
    /// O(crossing edges) per row, which is what makes interval-arithmetic
    /// pixel counting ([`crate::raster`], PixelBox's pixelization fast path)
    /// output-sensitive instead of O(pixels × edges).
    ///
    /// # Concurrency
    ///
    /// The cache is a `OnceLock`, so under concurrent callers the table is
    /// built **at most once**: the first caller to win initialization builds
    /// it, every other concurrent caller blocks until that build finishes
    /// and then shares the same table (a racing thread's redundantly
    /// constructed value is dropped, never published). The flip side is
    /// *first-touch serialization*: each cold table is built by whichever
    /// thread touches its polygon first. A build is linear in the table it
    /// produces, so a kernel that spreads its pairs over worker threads (as
    /// every PixelBox backend does) builds its cold tables inline, spread
    /// the same way. A separate build pass
    /// (`sccg::pixelbox::build_edge_tables_batch`, which uses
    /// [`RectilinearPolygon::edge_table_if_built`] to skip resident tables)
    /// pays off where one polygon serves many pairs: the pipeline's builder
    /// stage runs it once per polygon of a tile, ahead of the kernel.
    pub fn edge_table(&self) -> &EdgeTable {
        self.edge_table
            .get_or_init(|| Arc::new(EdgeTable::from_vertices(&self.vertices)))
    }

    /// The cached [`EdgeTable`] if one has already been built (by a prior
    /// [`RectilinearPolygon::edge_table`] call on this polygon, or on the
    /// polygon this one was cloned from), without building it. Lets batch
    /// prewarm passes skip resident tables.
    pub fn edge_table_if_built(&self) -> Option<&EdgeTable> {
        self.edge_table.get().map(Arc::as_ref)
    }

    /// Iterator over the polygon's directed boundary edges.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        closed_edges(&self.vertices).map(|(a, b)| Edge { a, b })
    }

    /// Twice the signed shoelace area. Positive for counter-clockwise
    /// boundaries in a y-up coordinate system. The constructor sums it in
    /// its pass over the chain, so this is a load.
    #[inline]
    pub fn signed_area2(&self) -> i64 {
        self.area2
    }

    /// Exact area in pixels. For a simple rectilinear polygon with integer
    /// vertices this equals the number of pixels whose centres lie inside the
    /// boundary (paper §3.4). A load of the stored shoelace sum, not a walk
    /// of the chain.
    #[inline]
    pub fn area(&self) -> i64 {
        // The shoelace sum of a rectilinear polygon is always even.
        self.signed_area2().abs() / 2
    }

    /// Total boundary length in pixels.
    pub fn perimeter(&self) -> i64 {
        self.edges().map(|e| e.length()).sum()
    }

    /// Tests whether pixel `(x, y)` — i.e. the cell centre `(x+½, y+½)` —
    /// lies inside the polygon, using the even–odd ray-casting rule with a ray
    /// cast towards `+x` (paper §3.1, Figure 4(b)).
    ///
    /// Only vertical edges can be crossed by a horizontal ray. A vertical edge
    /// at `x = ex` spanning `[ylo, yhi]` is crossed when `ex > x` (the edge is
    /// strictly to the right of the pixel centre `x + ½`, which for integers
    /// means `ex >= x + 1`) and `ylo <= y < yhi` (the centre's `y + ½` lies in
    /// the half-open vertical span).
    pub fn contains_pixel(&self, x: i32, y: i32) -> bool {
        if !self.mbr.contains_pixel(x, y) {
            return false;
        }
        let crossings = closed_edges(&self.vertices)
            .filter(|&(a, b)| {
                // A horizontal edge is never crossed by a horizontal ray.
                let (ylo, yhi) = if a.y < b.y { (a.y, b.y) } else { (b.y, a.y) };
                a.x == b.x && a.x > x && ylo <= y && y < yhi
            })
            .count();
        crossings % 2 == 1
    }

    /// Returns a copy translated by `(dx, dy)`.
    pub fn translate(&self, dx: i32, dy: i32) -> Result<Self> {
        let vertices = self
            .vertices
            .iter()
            .map(|v| Some(Point::new(v.x.checked_add(dx)?, v.y.checked_add(dy)?)))
            .collect::<Option<Vec<_>>>()
            .ok_or(GeometryError::CoordinateOverflow)?;
        Self::new(vertices)
    }

    /// Returns a copy with every coordinate multiplied by `factor`. This is
    /// the transformation used by the paper's scale-factor stress test
    /// (§5.2): a factor of `k` multiplies the polygon's area by `k²`.
    pub fn scale(&self, factor: i32) -> Result<Self> {
        if factor == 0 {
            return Err(GeometryError::ZeroArea);
        }
        let vertices = self
            .vertices
            .iter()
            .map(|v| v.checked_scale(factor))
            .collect::<Option<Vec<_>>>()
            .ok_or(GeometryError::CoordinateOverflow)?;
        Self::new(vertices)
    }

    /// Number of vertices of this polygon lying strictly inside `rect`.
    /// Used by Lemma 1 condition (ii).
    pub fn vertices_strictly_inside(&self, rect: &Rect) -> usize {
        self.vertices
            .iter()
            .filter(|v| rect.strictly_contains_point(**v))
            .count()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// A vertex chain of one of the shapes a constructor or the parser must
    /// accept or reject: staircases (valid, some at the `i32` limits), small
    /// random chains (every defect, often several), and staircases with one
    /// diagonal, zero-length, collinear or zero-area defect put in.
    pub(crate) fn any_chain(rng: &mut TestRng) -> Vec<Point> {
        let staircase = |rng: &mut TestRng| {
            let steps = 2 + rng.below(5) as i32;
            let (ox, oy) = match rng.below(3) {
                0 => (i32::MAX - 100, i32::MAX - 100),
                1 => (i32::MIN, i32::MIN + 1),
                _ => (rng.below(2000) as i32 - 1000, rng.below(2000) as i32 - 1000),
            };
            let dys: Vec<i32> = (0..steps).map(|_| 1 + rng.below(5) as i32).collect();
            let mut x = ox;
            let mut y = oy + dys.iter().sum::<i32>();
            let mut chain = vec![Point::new(ox, oy), Point::new(x, y)];
            for dy in dys {
                x += 1 + rng.below(5) as i32;
                chain.push(Point::new(x, y));
                y -= dy;
                chain.push(Point::new(x, y));
            }
            chain
        };
        let mut chain = staircase(rng);
        let at = rng.below(chain.len() as u64) as usize;
        match rng.below(10) {
            0 => {
                return (0..rng.below(9))
                    .map(|_| Point::new(rng.below(3) as i32, rng.below(3) as i32))
                    .collect()
            }
            1 => chain[at].x = chain[at].x.wrapping_add(1),
            2 => chain.insert(at, chain[at]),
            3 => {
                let (a, b) = (chain[at], chain[(at + 1) % chain.len()]);
                let mid = Point::new(a.x / 2 + b.x / 2, a.y / 2 + b.y / 2);
                chain.insert(at + 1, mid);
            }
            // Every edge valid and alternating, but a figure eight whose
            // loops cancel: the shoelace sum is zero.
            4 => chain = shifted(rng, &[(0, 0), (2, 0), (2, 1), (1, 1), (1, -1), (0, -1)]),
            // A rectangle with a redundant vertex on its first edge.
            5 => chain = shifted(rng, &[(0, 0), (2, 0), (4, 0), (4, 2), (0, 2)]),
            6 => chain.truncate(rng.below(4) as usize),
            _ => {}
        }
        chain
    }

    fn shifted(rng: &mut TestRng, template: &[(i32, i32)]) -> Vec<Point> {
        let (dx, dy) = (rng.below(100) as i32 - 50, rng.below(100) as i32 - 50);
        template
            .iter()
            .map(|&(x, y)| Point::new(x + dx, y + dy))
            .collect()
    }

    /// Twice the signed shoelace area, walked along the chain: what
    /// [`RectilinearPolygon::signed_area2`] computed before the polygon kept
    /// the sum.
    pub(crate) fn walked_area2(vertices: &[Point]) -> i64 {
        closed_edges(vertices)
            .map(|(a, b)| i64::from(a.x) * i64::from(b.y) - i64::from(b.x) * i64::from(a.y))
            .sum()
    }

    /// Checks a polygon's stored area against the walk of its chain.
    fn assert_walked_area(
        poly: &RectilinearPolygon,
        how: &str,
    ) -> std::result::Result<(), proptest::TestCaseError> {
        let walked = walked_area2(poly.vertices());
        prop_assert_eq!((poly.signed_area2(), how), (walked, how));
        prop_assert_eq!((poly.area(), how), (walked.abs() / 2, how));
        Ok(())
    }

    /// Every chain [`any_chain`] draws that makes a polygon, in its drawn
    /// orientation and reversed.
    struct ValidChains;

    impl Strategy for ValidChains {
        type Value = [Vec<Point>; 2];

        fn generate(&self, rng: &mut TestRng) -> [Vec<Point>; 2] {
            loop {
                let chain = any_chain(rng);
                if RectilinearPolygon::from_slice(&chain).is_ok() {
                    let reversed = chain.iter().rev().copied().collect();
                    return [chain, reversed];
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        #[test]
        fn stored_area_equals_the_chain_walk_for_every_constructor(
            chains in ValidChains,
            rect in (-5000i32..5000, -5000i32..5000, 1i32..300, 1i32..300),
            k in 1i32..5,
            shift in (-1000i32..1000, -1000i32..1000),
        ) {
            for chain in &chains {
                let poly = RectilinearPolygon::from_slice(chain).unwrap();
                assert_walked_area(&poly, "from_slice")?;
                assert_walked_area(&RectilinearPolygon::new(chain.clone()).unwrap(), "new")?;
                assert_walked_area(&poly.clone(), "clone")?;
                // A redundant vertex on the first edge and a duplicated
                // closing vertex, both removed by canonicalize.
                let (a, b) = (chain[0], chain[1]);
                let mut noisy = chain.clone();
                if (a.x - b.x).abs() + (a.y - b.y).abs() > 1 {
                    let step = |from: i32, to: i32| from + (to - from).signum();
                    noisy.insert(1, Point::new(step(a.x, b.x), step(a.y, b.y)));
                }
                noisy.push(a);
                let canonical = RectilinearPolygon::canonicalize(noisy).unwrap();
                assert_walked_area(&canonical, "canonicalize")?;
                if let Ok(scaled) = poly.scale(k) {
                    assert_walked_area(&scaled, "scale")?;
                }
                if let Ok(moved) = poly.translate(shift.0, shift.1) {
                    assert_walked_area(&moved, "translate")?;
                }
                let record = crate::text::PolygonRecord { id: 7, polygon: poly };
                let text = crate::text::write_polygon_file(std::slice::from_ref(&record));
                for parsed in crate::text::parse_polygon_file(&text).unwrap() {
                    assert_walked_area(&parsed.polygon, "parse_polygon_file")?;
                }
            }
            let (x, y, w, h) = rect;
            let rectangle = RectilinearPolygon::rectangle(Rect::new(x, y, x + w, y + h)).unwrap();
            assert_walked_area(&rectangle, "rectangle")?;
        }
    }

    fn unit_square() -> RectilinearPolygon {
        RectilinearPolygon::rectangle(Rect::new(0, 0, 1, 1)).unwrap()
    }

    /// An L-shaped ("staircase") polygon:
    /// covers pixels of [0,4)x[0,2) plus [0,2)x[2,4).
    fn l_shape() -> RectilinearPolygon {
        RectilinearPolygon::new(vec![
            Point::new(0, 0),
            Point::new(4, 0),
            Point::new(4, 2),
            Point::new(2, 2),
            Point::new(2, 4),
            Point::new(0, 4),
        ])
        .unwrap()
    }

    #[test]
    fn validation_rejects_bad_chains() {
        assert!(matches!(
            RectilinearPolygon::new(vec![Point::new(0, 0), Point::new(1, 0), Point::new(1, 1)]),
            Err(GeometryError::TooFewVertices { got: 3 })
        ));
        assert!(matches!(
            RectilinearPolygon::new(vec![
                Point::new(0, 0),
                Point::new(0, 0),
                Point::new(1, 0),
                Point::new(1, 1),
            ]),
            Err(GeometryError::ZeroLengthEdge { .. })
        ));
        assert!(matches!(
            RectilinearPolygon::new(vec![
                Point::new(0, 0),
                Point::new(2, 1),
                Point::new(2, 2),
                Point::new(0, 2),
            ]),
            Err(GeometryError::NonRectilinearEdge { .. })
        ));
        assert!(matches!(
            RectilinearPolygon::new(vec![
                Point::new(0, 0),
                Point::new(1, 0),
                Point::new(2, 0),
                Point::new(2, 2),
                Point::new(0, 2),
            ]),
            Err(GeometryError::CollinearVertex { .. })
        ));
    }

    #[test]
    fn canonicalize_removes_redundant_vertices() {
        let poly = RectilinearPolygon::canonicalize(vec![
            Point::new(0, 0),
            Point::new(1, 0),
            Point::new(2, 0),
            Point::new(2, 0),
            Point::new(2, 2),
            Point::new(0, 2),
            Point::new(0, 0),
        ])
        .unwrap();
        assert_eq!(poly.vertex_count(), 4);
        assert_eq!(poly.area(), 4);
    }

    #[test]
    fn edge_table_builds_at_most_once_under_concurrent_callers() {
        use std::sync::{Arc, Barrier};
        let poly = Arc::new(RectilinearPolygon::rectangle(Rect::new(0, 0, 24, 18)).unwrap());
        assert!(
            poly.edge_table_if_built().is_none(),
            "cold before first use"
        );
        let threads = 8;
        let barrier = Arc::new(Barrier::new(threads));
        let addresses: Vec<usize> = (0..threads)
            .map(|_| {
                let poly = Arc::clone(&poly);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    poly.edge_table() as *const EdgeTable as usize
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|handle| handle.join().expect("edge-table thread"))
            .collect();
        // OnceLock publishes exactly one table: every concurrent caller must
        // have observed the same instance, never a per-thread rebuild.
        assert!(
            addresses.windows(2).all(|w| w[0] == w[1]),
            "concurrent callers saw different tables: {addresses:?}"
        );
        let resident = poly.edge_table_if_built().expect("warm after first use");
        assert_eq!(resident as *const EdgeTable as usize, addresses[0]);
    }

    #[test]
    fn clones_share_a_built_edge_table_but_not_a_cold_cache() {
        let poly = RectilinearPolygon::rectangle(Rect::new(0, 0, 9, 9)).unwrap();
        // Cloning a cold polygon leaves the clone cold too (nothing to
        // share yet) — each copy builds independently on first touch.
        let cold_clone = poly.clone();
        assert!(cold_clone.edge_table_if_built().is_none());
        // The vertex chain is shared, not copied.
        assert_eq!(cold_clone.vertices().as_ptr(), poly.vertices().as_ptr());
        // A table built through a cold clone stays with the clone: the
        // original's cache is not filled, so per-query clones never leave a
        // table behind on a stored polygon.
        cold_clone.edge_table();
        assert!(poly.edge_table_if_built().is_none());
        // Cloning after the build shares the same Arc'd table.
        let built = poly.edge_table() as *const EdgeTable;
        let warm_clone = poly.clone();
        let shared = warm_clone
            .edge_table_if_built()
            .expect("clone of a warm polygon is warm");
        assert_eq!(shared as *const EdgeTable, built);
    }

    #[test]
    fn rectangle_area_and_mbr() {
        let r = RectilinearPolygon::rectangle(Rect::new(2, 3, 7, 9)).unwrap();
        assert_eq!(r.area(), 5 * 6);
        assert_eq!(r.mbr(), Rect::new(2, 3, 7, 9));
        assert_eq!(r.perimeter(), 2 * (5 + 6));
    }

    #[test]
    fn l_shape_area_matches_pixel_count() {
        let poly = l_shape();
        assert_eq!(poly.area(), 4 * 2 + 2 * 2);
        let mut count = 0;
        for (x, y) in poly.mbr().pixels() {
            if poly.contains_pixel(x, y) {
                count += 1;
            }
        }
        assert_eq!(count, poly.area());
    }

    #[test]
    fn orientation_does_not_affect_area() {
        let ccw = l_shape();
        let cw_vertices: Vec<Point> = ccw.vertices().iter().rev().copied().collect();
        let cw = RectilinearPolygon::new(cw_vertices).unwrap();
        assert_eq!(ccw.area(), cw.area());
        assert_eq!(ccw.signed_area2(), -cw.signed_area2());
    }

    #[test]
    fn containment_unit_square() {
        let sq = unit_square();
        assert!(sq.contains_pixel(0, 0));
        assert!(!sq.contains_pixel(1, 0));
        assert!(!sq.contains_pixel(0, 1));
        assert!(!sq.contains_pixel(-1, 0));
    }

    #[test]
    fn containment_l_shape_notch() {
        let poly = l_shape();
        // Inside the notch (removed corner) must be outside.
        assert!(!poly.contains_pixel(3, 3));
        assert!(!poly.contains_pixel(2, 2));
        // Inside the arm.
        assert!(poly.contains_pixel(1, 3));
        assert!(poly.contains_pixel(3, 1));
    }

    #[test]
    fn translate_preserves_area() {
        let poly = l_shape();
        let moved = poly.translate(10, -5).unwrap();
        assert_eq!(moved.area(), poly.area());
        assert_eq!(moved.mbr(), Rect::new(10, -5, 14, -1));
        assert!(poly.translate(i32::MAX, 0).is_err());
    }

    #[test]
    fn scale_multiplies_area_quadratically() {
        let poly = l_shape();
        for k in 1..=5 {
            let scaled = poly.scale(k).unwrap();
            assert_eq!(scaled.area(), poly.area() * i64::from(k) * i64::from(k));
        }
        assert!(poly.scale(0).is_err());
        assert!(poly.scale(i32::MAX).is_err());
    }

    #[test]
    fn edges_alternate_orientation() {
        let poly = l_shape();
        let kinds: Vec<EdgeKind> = poly.edges().map(|e| e.kind()).collect();
        for w in kinds.windows(2) {
            assert_ne!(w[0], w[1]);
        }
        assert_eq!(kinds.len(), poly.vertex_count());
    }

    #[test]
    fn proper_crossing_of_perpendicular_edges() {
        let h = Edge {
            a: Point::new(0, 5),
            b: Point::new(10, 5),
        };
        let v_crossing = Edge {
            a: Point::new(4, 0),
            b: Point::new(4, 10),
        };
        let v_touching = Edge {
            a: Point::new(4, 5),
            b: Point::new(4, 10),
        };
        let v_outside = Edge {
            a: Point::new(12, 0),
            b: Point::new(12, 10),
        };
        let h_parallel = Edge {
            a: Point::new(0, 5),
            b: Point::new(6, 5),
        };
        assert!(h.properly_crosses(&v_crossing));
        assert!(v_crossing.properly_crosses(&h));
        assert!(!h.properly_crosses(&v_touching));
        assert!(!h.properly_crosses(&v_outside));
        assert!(!h.properly_crosses(&h_parallel));
    }

    #[test]
    fn vertices_strictly_inside_rect() {
        let poly = l_shape();
        assert_eq!(poly.vertices_strictly_inside(&Rect::new(-1, -1, 5, 5)), 6);
        assert_eq!(poly.vertices_strictly_inside(&Rect::new(0, 0, 4, 4)), 1); // only (2,2)
        assert_eq!(poly.vertices_strictly_inside(&Rect::new(10, 10, 20, 20)), 0);
    }
}
