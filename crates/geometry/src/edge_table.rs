//! Scanline edge tables: output-sensitive row-interval decomposition of
//! rectilinear polygons.
//!
//! The even–odd containment test of [`crate::RectilinearPolygon::contains_pixel`]
//! walks *every* edge for *every* pixel, so pixelizing a region costs
//! O(pixels × edges). But a rectilinear polygon's intersection with one pixel
//! row is fully determined by the vertical edges whose y-span crosses that
//! row: sorting their x coordinates yields the row's inside x-intervals
//! directly (consecutive pairs of crossings, by the even–odd rule). An
//! [`EdgeTable`] precomputes that decomposition once per polygon, after which
//! any row's intervals are available in O(crossing edges) — pixel counts over
//! a window become pure interval arithmetic that never touches individual
//! pixels.
//!
//! Construction buckets the vertical edges into *slabs*: maximal y-ranges
//! within which the set of crossing edges (and therefore the sorted crossing
//! list) is constant. The slab boundaries are the distinct edge endpoints, so
//! a polygon with `E` edges has at most `E` slabs and the table holds one
//! crossing per (edge, slab it spans) pair: O(E²) in the worst case (a comb),
//! about 2 per row for a segmentation boundary. The build is a counting sort
//! and costs O(E + table): endpoints are marked in a bitmap over the
//! polygon's y-extent (up to 512 rows; taller polygons sort and
//! binary-search their endpoints instead, O(E log E)), so the boundaries
//! come out in order, and the one walk over the set bits that lists them
//! also fills a row → slab map, so an endpoint's slab index is a table
//! lookup; crossings are counted per slab, the counts prefix-summed into
//! offsets, each edge's x dealt into the slabs it spans, and each slab's
//! handful of crossings sorted in place. No pass scans all edges per slab.
//! The build's working storage is per-thread and reused from build to
//! build, so the table's one heap block, sized exactly once the boundaries
//! are known, is a warm build's only allocation. A row query is a binary
//! search over slabs plus a borrowed slice, and repeated queries for
//! consecutive rows hit the same slab.
//!
//! The interval helpers ([`span_len_in`], [`overlap_len_in`]) are the
//! arithmetic core of the PixelBox pixelization fast path: per row, the
//! intersection of two polygons is the overlap of their crossing lists and
//! the union follows by inclusion–exclusion, both exactly (all integer), so
//! the fast path is bit-identical to per-pixel classification.
//!
//! # Chunked kernel contract
//!
//! The interval kernels come in two implementations each, and the pair must
//! stay *bit-identical* for every input:
//!
//! * [`span_len_in_scalar`] / [`overlap_len_in_scalar`] — the retained
//!   scalar loops (early-exit pair walk, two-pointer merge). These are the
//!   reference semantics.
//! * [`span_len_in`] / [`overlap_len_in`] — lane-chunked rewrites: the
//!   crossing list is consumed in fixed-width chunks of `2 ×` [`LANES`]
//!   `i32` crossings ([`LANES`] half-open intervals per chunk), each chunk
//!   evaluated branchlessly as `max(0, min(b, hi) − max(a, lo))` into a
//!   `[i64; LANES]` accumulator, followed by a scalar tail for the
//!   remainder. No `std::simd` is involved — the fixed-shape loops are
//!   written so LLVM's auto-vectorizer can lower them to whatever vector
//!   width the target offers.
//!
//! Equivalence is exact, not approximate: every pair the scalar loop skips
//! via its early exit contributes a clipped length of zero under the
//! branchless formula, and the chunked overlap kernel's banded
//! interval-pair sum equals the two-pointer merge because each list's
//! intervals are disjoint. The lane-boundary proptests in
//! `sccg/tests/scanline_equivalence.rs` pin this down across chunk
//! boundaries (list lengths `0..=4·LANES+3`), empty rows and degenerate
//! single-column windows.
//!
//! Window sweeps ([`intersection_union_in`], [`intersection_len_in`],
//! [`EdgeTable::row`]) additionally exploit that crossing lists are constant
//! within a slab: a [`RowRef`] resolves the slab once and reports the run of
//! rows sharing it, so a sweep multiplies one row's interval arithmetic by
//! the run length instead of re-deriving it row by row.
//! [`intersection_len_in`] — the sweep behind the CPU substrate's areas —
//! goes further: it searches each table's slabs once, at the window's first
//! row, and then steps a cursor forward from run to run.

use crate::point::Point;
use crate::polygon::closed_edges;
use std::cell::RefCell;

/// Words of the slab-boundary bitmap [`EdgeTable::from_vertices`] keeps on
/// its stack: one cache line.
const BITMAP_WORDS: usize = 8;

/// Widest y-extent (in rows, exclusive) whose boundaries fit the bitmap and
/// the row → slab map beside it; taller polygons sort their endpoints
/// instead.
const BITMAP_ROWS: usize = 64 * BITMAP_WORDS;

/// Precomputed scanline decomposition of one rectilinear polygon: for every
/// pixel row, the sorted x coordinates at which a `+x` ray from that row
/// crosses the polygon boundary.
///
/// Consecutive crossing pairs delimit the half-open x-intervals of pixels
/// inside the polygon on that row; the crossing count per row is always even
/// because the boundary is a closed chain.
///
/// The table is one heap block of `i32`s in three sections:
///
/// * `slab_ys` — the `boundaries` sorted distinct y endpoints of the vertical
///   edges; slab `i` covers the pixel rows `[slab_ys[i], slab_ys[i+1])`;
/// * `offsets` — `boundaries` entries: `offsets[i]..offsets[i+1]` indexes
///   slab `i`'s crossings in `xs`;
/// * `xs` — the concatenated sorted crossing x coordinates, slab by slab.
///
/// A chain without vertical edges has no boundaries and an empty block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeTable {
    /// Length of the `slab_ys` and `offsets` sections.
    boundaries: usize,
    /// `slab_ys`, then `offsets`, then `xs`.
    data: Box<[i32]>,
}

/// A build's working storage, kept per thread and reused by every build on
/// it, so that a warm thread's only allocation per table is the table's own
/// block.
#[derive(Default)]
struct Scratch {
    /// The chain's vertical edges as `(x, y_lo, y_hi)` spans.
    spans: Vec<(i32, i32, i32)>,
    /// The sorted distinct endpoints of a chain taller than the bitmap.
    ends: Vec<i32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

impl EdgeTable {
    /// Builds the table from a closed rectilinear vertex chain
    /// (`v0 → v1 → … → v(n-1) → v0`). Horizontal edges are ignored: a
    /// horizontal ray never crosses them (the same rule as
    /// [`crate::RectilinearPolygon::contains_pixel`]).
    ///
    /// The working storage is per-thread and reused, so on a thread that
    /// has built a table of this size before the table's one block is the
    /// build's only allocation.
    pub fn from_vertices(vertices: &[Point]) -> Self {
        SCRATCH.with_borrow_mut(|scratch| {
            let spans = &mut scratch.spans;
            spans.clear();
            spans.reserve(vertices.len() / 2 + 1);
            closed_edges(vertices).for_each(|(a, b)| {
                if a.x == b.x && a.y != b.y {
                    let (lo, hi) = if a.y < b.y { (a.y, b.y) } else { (b.y, a.y) };
                    spans.push((a.x, lo, hi));
                }
            });
            Self::from_spans(spans, &mut scratch.ends)
        })
    }

    /// [`EdgeTable::from_vertices`] over the chain's vertical spans; `ends`
    /// is scratch for a chain taller than the bitmap.
    fn from_spans(edges: &[(i32, i32, i32)], ends: &mut Vec<i32>) -> Self {
        let Some(min_y) = edges.iter().map(|e| e.1).min() else {
            return EdgeTable {
                boundaries: 0,
                data: Box::default(),
            };
        };
        let max_y = edges.iter().map(|e| e.2).max().expect("non-empty");

        // Slab boundaries are the distinct edge endpoints. Mark them in a
        // bitmap over the y-extent: the set bits in order are `slab_ys`, and
        // walking them once fills a row → slab map, so an endpoint's slab
        // index is one table lookup. The wrapping difference is exact
        // because the extent is below 2^32.
        let extent = max_y.wrapping_sub(min_y) as u32 as usize;
        let mut row_slab = [0u16; BITMAP_ROWS];
        let in_bitmap = extent < BITMAP_ROWS;
        let mut bitmap = [0u64; BITMAP_WORDS];
        let words = &mut bitmap[..if in_bitmap { extent / 64 + 1 } else { 0 }];
        let boundaries = if in_bitmap {
            for &(_, lo, hi) in edges {
                for y in [lo, hi] {
                    let bit = y.wrapping_sub(min_y) as u32 as usize;
                    words[bit / 64] |= 1 << (bit % 64);
                }
            }
            let mut boundaries = 0;
            for_each_set_bit(words, |bit| {
                // At most BITMAP_ROWS boundaries, so the index fits u16.
                row_slab[bit] = boundaries as u16;
                boundaries += 1;
            });
            boundaries
        } else {
            ends.clear();
            ends.extend(edges.iter().flat_map(|&(_, lo, hi)| [lo, hi]));
            ends.sort_unstable();
            ends.dedup();
            ends.len()
        };
        let slab_of = |y: i32| -> usize {
            if in_bitmap {
                usize::from(row_slab[y.wrapping_sub(min_y) as u32 as usize])
            } else {
                ends.binary_search(&y)
                    .expect("every endpoint is a boundary")
            }
        };

        // An edge spanning rows [lo, hi) crosses exactly the slabs between
        // its endpoints' indices: boundaries include every endpoint, so a
        // span cannot start or end strictly inside a slab. That sizes the
        // block exactly.
        let crossings: usize = edges
            .iter()
            .map(|&(_, lo, hi)| slab_of(hi) - slab_of(lo))
            .sum();
        let mut data = vec![0i32; 2 * boundaries + crossings].into_boxed_slice();
        let (slab_ys, rest) = data.split_at_mut(boundaries);
        let (offsets, xs) = rest.split_at_mut(boundaries);
        if in_bitmap {
            let mut slab = 0;
            for_each_set_bit(words, |bit| {
                slab_ys[slab] = min_y.wrapping_add(bit as i32);
                slab += 1;
            });
        } else {
            slab_ys.copy_from_slice(ends);
        }

        // Count the crossings per slab, prefix-sum the counts into
        // `offsets`, then deal each edge's x into the slabs it spans.
        let slabs = boundaries - 1;
        for &(_, lo, hi) in edges {
            for count in &mut offsets[slab_of(lo) + 1..=slab_of(hi)] {
                *count += 1;
            }
        }
        for slab in 0..slabs {
            offsets[slab + 1] += offsets[slab];
        }
        // Deal with `offsets[slab]` as the slab's cursor: it ends at the
        // slab's end, which is the next slab's start, so one shift restores
        // the offsets.
        for &(x, lo, hi) in edges {
            for next in &mut offsets[slab_of(lo)..slab_of(hi)] {
                xs[*next as usize] = x;
                *next += 1;
            }
        }
        offsets.copy_within(..slabs, 1);
        offsets[0] = 0;
        for slab in offsets.windows(2) {
            let slab_xs = &mut xs[slab[0] as usize..slab[1] as usize];
            debug_assert!(
                slab_xs.len().is_multiple_of(2),
                "closed chain must cross each row an even number of times"
            );
            slab_xs.sort_unstable();
        }
        EdgeTable { boundaries, data }
    }

    /// Assembles a table from its three sections (see [`EdgeTable`]).
    #[cfg(test)]
    fn from_sections(slab_ys: &[i32], offsets: &[u32], xs: &[i32]) -> Self {
        if slab_ys.is_empty() {
            return EdgeTable {
                boundaries: 0,
                data: Box::default(),
            };
        }
        assert_eq!(slab_ys.len(), offsets.len());
        let data: Vec<i32> = slab_ys
            .iter()
            .copied()
            .chain(offsets.iter().map(|&offset| offset as i32))
            .chain(xs.iter().copied())
            .collect();
        EdgeTable {
            boundaries: slab_ys.len(),
            data: data.into_boxed_slice(),
        }
    }

    /// The sorted distinct y endpoints of the vertical edges.
    #[inline]
    fn slab_ys(&self) -> &[i32] {
        &self.data[..self.boundaries]
    }

    /// The crossing list of slab `slab` (`slab + 1 < boundaries`).
    #[inline]
    fn slab_xs(&self, slab: usize) -> &[i32] {
        let offsets = &self.data[self.boundaries..2 * self.boundaries];
        let xs = &self.data[2 * self.boundaries..];
        &xs[offsets[slab] as usize..offsets[slab + 1] as usize]
    }

    /// The sorted x coordinates at which the boundary crosses pixel row `y`
    /// (even length; empty for rows outside the polygon's y-extent).
    ///
    /// Pixel `(x, y)` is inside the polygon exactly when `x` lies in one of
    /// the half-open intervals `[xs[0], xs[1]), [xs[2], xs[3]), …`.
    #[inline]
    pub fn row_crossings(&self, y: i32) -> &[i32] {
        let slab_ys = self.slab_ys();
        let Some((&first, &last)) = slab_ys.first().zip(slab_ys.last()) else {
            return &[];
        };
        if y < first || y >= last {
            return &[];
        }
        // Greatest slab whose first row is <= y.
        self.slab_xs(slab_ys.partition_point(|&b| b <= y) - 1)
    }

    /// The inside x-intervals of pixel row `y` as half-open `(start, end)`
    /// pairs, in increasing order.
    pub fn row_intervals(&self, y: i32) -> impl Iterator<Item = (i32, i32)> + '_ {
        self.row_crossings(y)
            .chunks_exact(2)
            .map(|pair| (pair[0], pair[1]))
    }

    /// Number of pixels of row `y` inside the polygon with x in `[lo, hi)`.
    #[inline]
    pub fn row_span_len(&self, y: i32, lo: i32, hi: i32) -> i64 {
        span_len_in(self.row_crossings(y), lo, hi)
    }

    /// Resolves row `y` to a [`RowRef`]: the slab lookup (binary search) is
    /// done **once**, and the handle carries both the crossing list and the
    /// end of the *run* of rows sharing it. Tight loops should call this
    /// once per run and reuse the handle for every span/overlap query,
    /// instead of paying the search per [`EdgeTable::row_span_len`] call.
    #[inline]
    pub fn row(&self, y: i32) -> RowRef<'_> {
        let slab_ys = self.slab_ys();
        let Some((&first, &last)) = slab_ys.first().zip(slab_ys.last()) else {
            return RowRef {
                xs: &[],
                run_end: i32::MAX,
            };
        };
        if y < first {
            return RowRef {
                xs: &[],
                run_end: first,
            };
        }
        if y >= last {
            return RowRef {
                xs: &[],
                run_end: i32::MAX,
            };
        }
        let slab = slab_ys.partition_point(|&b| b <= y) - 1;
        RowRef {
            xs: self.slab_xs(slab),
            run_end: slab_ys[slab + 1],
        }
    }

    /// Number of y-slabs in the table (rows within one slab share a crossing
    /// list).
    pub fn slab_count(&self) -> usize {
        self.boundaries.saturating_sub(1)
    }
}

/// Calls `f` with the index of every set bit of `words`, in increasing
/// order.
#[inline]
fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// One resolved pixel row of an [`EdgeTable`]: the row's crossing list plus
/// the first row *after* it with a different list (the end of the row's
/// *run*). Obtained from [`EdgeTable::row`]; the slab binary search happens
/// there, once, and every query through the handle is search-free — so a
/// window sweep resolves each run once and multiplies, instead of paying a
/// lookup per row.
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    xs: &'a [i32],
    run_end: i32,
}

impl<'a> RowRef<'a> {
    /// The row's sorted crossing list (see [`EdgeTable::row_crossings`]).
    #[inline]
    pub fn crossings(&self) -> &'a [i32] {
        self.xs
    }

    /// First row strictly after the resolved one whose crossing list may
    /// differ: every row in `[y, run_end)` shares [`RowRef::crossings`].
    /// `i32::MAX` when the list stays empty for all higher rows.
    #[inline]
    pub fn run_end(&self) -> i32 {
        self.run_end
    }

    /// Number of pixels of this row inside the polygon with x in `[lo, hi)`.
    #[inline]
    pub fn span_len(&self, lo: i32, hi: i32) -> i64 {
        span_len_in(self.xs, lo, hi)
    }

    /// Number of pixels of this row, clipped to `[lo, hi)`, inside both this
    /// row's polygon and `other`'s.
    #[inline]
    pub fn overlap_len(&self, other: &RowRef<'_>, lo: i32, hi: i32) -> i64 {
        overlap_len_in(self.xs, other.xs, lo, hi)
    }
}

/// Intersection and union pixel counts of two polygons over a window,
/// computed row by row from their edge tables: the intersection is the
/// overlap of the two crossing lists, the union follows by
/// inclusion–exclusion. This is the one row-merge loop shared by the raster
/// oracles and PixelBox's pixelization fast path, so the two can never
/// silently diverge.
pub fn intersection_union_in(
    p: &EdgeTable,
    q: &EdgeTable,
    window: &crate::rect::Rect,
) -> (i64, i64) {
    let mut inter = 0i64;
    let mut union = 0i64;
    let mut y = window.min_y;
    while y < window.max_y {
        let row_p = p.row(y);
        let row_q = q.row(y);
        // Both crossing lists are constant over [y, run_end): compute the
        // row's interval arithmetic once and multiply by the run length.
        let run_end = row_p.run_end().min(row_q.run_end()).min(window.max_y);
        let rows = i64::from(run_end) - i64::from(y);
        let row_inter = row_p.overlap_len(&row_q, window.min_x, window.max_x);
        let row_sum =
            row_p.span_len(window.min_x, window.max_x) + row_q.span_len(window.min_x, window.max_x);
        inter += rows * row_inter;
        union += rows * (row_sum - row_inter);
        y = run_end;
    }
    (inter, union)
}

/// Intersection pixel count only, over a window — one interval-overlap pass
/// per *run* of rows sharing both crossing lists. This is the sweep behind
/// every substrate's areas (`sccg::pixelbox::cpu::sweep_pair`) and
/// [`crate::raster::intersection_area`]: the union follows as
/// `‖p∪q‖ = ‖p‖ + ‖q‖ − ‖p∩q‖`, so it never needs the two extra span passes
/// of [`intersection_union_in`].
///
/// Each table is read through a slab cursor: one slab search per table
/// at the window's first row, then the sweep steps each cursor forward when
/// its run ends. The sweep stops early once either table has no rows left.
pub fn intersection_len_in(p: &EdgeTable, q: &EdgeTable, window: &crate::rect::Rect) -> i64 {
    let (lo, hi) = (window.min_x, window.max_x);
    let mut y = window.min_y;
    let mut cursor_p = SlabCursor::new(p, y);
    let mut cursor_q = SlabCursor::new(q, y);
    let mut inter = 0i64;
    while y < window.max_y && !cursor_p.exhausted() && !cursor_q.exhausted() {
        let run_end = cursor_p.run_end().min(cursor_q.run_end()).min(window.max_y);
        let (xs_p, xs_q) = (cursor_p.crossings(), cursor_q.crossings());
        if !xs_p.is_empty() && !xs_q.is_empty() {
            let rows = i64::from(run_end) - i64::from(y);
            inter += rows * overlap_len_in(xs_p, xs_q, lo, hi);
        }
        y = run_end;
        cursor_p.advance_to(y);
        cursor_q.advance_to(y);
    }
    inter
}

/// The binary-searching sweep [`intersection_len_in`] replaced: two slab
/// searches per run. Kept as the cursor sweep's differential reference.
#[cfg(test)]
fn intersection_len_in_reference(p: &EdgeTable, q: &EdgeTable, window: &crate::rect::Rect) -> i64 {
    let mut inter = 0i64;
    let mut y = window.min_y;
    while y < window.max_y {
        let row_p = p.row(y);
        let row_q = q.row(y);
        let run_end = row_p.run_end().min(row_q.run_end()).min(window.max_y);
        let rows = i64::from(run_end) - i64::from(y);
        inter += rows * row_p.overlap_len(&row_q, window.min_x, window.max_x);
        y = run_end;
    }
    inter
}

/// A forward-only position in an [`EdgeTable`]'s slabs: `next` is the index
/// of the first slab boundary above the current row, so the row lies below
/// the table (`next == 0`), in slab `next - 1`, or above the table
/// (`next == boundaries`). A sweep that moves to a later row steps `next`
/// past the boundaries it crossed instead of searching again.
struct SlabCursor<'a> {
    table: &'a EdgeTable,
    next: usize,
}

impl<'a> SlabCursor<'a> {
    /// The cursor at row `y`: one binary search over the slab boundaries.
    #[inline]
    fn new(table: &'a EdgeTable, y: i32) -> Self {
        SlabCursor {
            table,
            next: table.slab_ys().partition_point(|&b| b <= y),
        }
    }

    /// Whether the row lies above the table, where every later row's
    /// crossing list is empty too.
    #[inline]
    fn exhausted(&self) -> bool {
        self.next == self.table.boundaries
    }

    /// The current row's crossing list.
    #[inline]
    fn crossings(&self) -> &'a [i32] {
        if self.next == 0 || self.exhausted() {
            &[]
        } else {
            self.table.slab_xs(self.next - 1)
        }
    }

    /// The first row after the current one whose crossing list may differ
    /// (`i32::MAX` above the table).
    #[inline]
    fn run_end(&self) -> i32 {
        self.table
            .slab_ys()
            .get(self.next)
            .copied()
            .unwrap_or(i32::MAX)
    }

    /// Moves the cursor forward to row `y`, which is not below the current
    /// row.
    #[inline]
    fn advance_to(&mut self, y: i32) {
        let slab_ys = self.table.slab_ys();
        while self.next < slab_ys.len() && slab_ys[self.next] <= y {
            self.next += 1;
        }
    }
}

/// Interval count per fixed-width chunk of the lane-chunked kernels: each
/// chunk covers `2 × LANES` crossings evaluated branchlessly (see the
/// module docs' chunked kernel contract). The value is a lane width the
/// auto-vectorizer can map onto 256-bit registers, not a `std::simd` type.
pub const LANES: usize = 8;

/// Length of the half-open interval `[a, b)` clipped to `[lo, hi)`,
/// branchless: pairs outside the window come out at zero instead of being
/// skipped, which is what lets whole chunks evaluate without data-dependent
/// control flow.
#[inline]
fn clipped_len(a: i32, b: i32, lo: i32, hi: i32) -> i64 {
    (i64::from(b.min(hi)) - i64::from(a.max(lo))).max(0)
}

/// Total length of the half-open intervals encoded by the sorted crossing
/// list `xs` (consecutive pairs), clipped to the window `[lo, hi)`.
///
/// Lane-chunked: `LANES` intervals per fixed-width chunk, branchless, with
/// a scalar tail — bit-identical to [`span_len_in_scalar`].
#[inline]
pub fn span_len_in(xs: &[i32], lo: i32, hi: i32) -> i64 {
    let mut total = 0i64;
    let mut chunks = xs.chunks_exact(2 * LANES);
    for chunk in &mut chunks {
        let mut lane = [0i64; LANES];
        for (k, slot) in lane.iter_mut().enumerate() {
            *slot = clipped_len(chunk[2 * k], chunk[2 * k + 1], lo, hi);
        }
        total += lane.iter().sum::<i64>();
    }
    for pair in chunks.remainder().chunks_exact(2) {
        total += clipped_len(pair[0], pair[1], lo, hi);
    }
    total
}

/// The retained scalar reference for [`span_len_in`]: an early-exit pair
/// walk. The lane-boundary proptests assert the two are bit-identical.
#[inline]
pub fn span_len_in_scalar(xs: &[i32], lo: i32, hi: i32) -> i64 {
    let mut total = 0i64;
    for pair in xs.chunks_exact(2) {
        let (a, b) = (pair[0], pair[1]);
        if a >= hi {
            break;
        }
        let start = a.max(lo);
        let end = b.min(hi);
        if end > start {
            total += i64::from(end) - i64::from(start);
        }
    }
    total
}

/// Total overlap length of two sorted crossing lists (each encoding
/// half-open intervals as consecutive pairs), clipped to `[lo, hi)`: the
/// number of pixels in the window inside *both* polygons on this row.
///
/// Lane-chunked: for each interval of `a` (clipped to the window), `b`'s
/// intervals are evaluated in branchless `LANES`-wide chunks plus a scalar
/// tail. Because each list's intervals are disjoint, the banded
/// interval-pair sum `Σᵢⱼ |aᵢ ∩ bⱼ ∩ window|` equals the two-pointer merge
/// of [`overlap_len_in_scalar`] exactly.
#[inline]
pub fn overlap_len_in(a: &[i32], b: &[i32], lo: i32, hi: i32) -> i64 {
    let mut total = 0i64;
    for pair in a.chunks_exact(2) {
        if pair[0] >= hi {
            break;
        }
        // Clip this a-interval to the window once; b's intervals then clip
        // against the result.
        let a_lo = pair[0].max(lo);
        let a_hi = pair[1].min(hi);
        if a_hi <= a_lo {
            continue;
        }
        let mut chunks = b.chunks_exact(2 * LANES);
        for chunk in &mut chunks {
            let mut lane = [0i64; LANES];
            for (k, slot) in lane.iter_mut().enumerate() {
                *slot = clipped_len(chunk[2 * k], chunk[2 * k + 1], a_lo, a_hi);
            }
            total += lane.iter().sum::<i64>();
        }
        for pb in chunks.remainder().chunks_exact(2) {
            total += clipped_len(pb[0], pb[1], a_lo, a_hi);
        }
    }
    total
}

/// The retained scalar reference for [`overlap_len_in`]: the two-pointer
/// interval merge. The lane-boundary proptests assert the two are
/// bit-identical.
#[inline]
pub fn overlap_len_in_scalar(a: &[i32], b: &[i32], lo: i32, hi: i32) -> i64 {
    let mut total = 0i64;
    let mut i = 0;
    let mut j = 0;
    while i + 1 < a.len() && j + 1 < b.len() {
        if a[i] >= hi || b[j] >= hi {
            break;
        }
        let start = a[i].max(b[j]).max(lo);
        let end = a[i + 1].min(b[j + 1]).min(hi);
        if end > start {
            total += i64::from(end) - i64::from(start);
        }
        // Advance whichever interval ends first (ties advance both safely on
        // the next iterations; intervals are disjoint within each list).
        if a[i + 1] <= b[j + 1] {
            i += 2;
        } else {
            j += 2;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polygon::RectilinearPolygon;
    use crate::rect::Rect;
    use proptest::prelude::*;

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

    /// A comb with two teeth: rows near the top have two inside intervals.
    fn comb() -> RectilinearPolygon {
        RectilinearPolygon::new(vec![
            Point::new(0, 0),
            Point::new(5, 0),
            Point::new(5, 3),
            Point::new(4, 3),
            Point::new(4, 1),
            Point::new(3, 1),
            Point::new(3, 3),
            Point::new(2, 3),
            Point::new(2, 1),
            Point::new(1, 1),
            Point::new(1, 3),
            Point::new(0, 3),
        ])
        .unwrap()
    }

    fn table(poly: &RectilinearPolygon) -> EdgeTable {
        EdgeTable::from_vertices(poly.vertices())
    }

    /// The builder [`EdgeTable::from_vertices`] replaced, kept as the
    /// differential reference: scan every edge once per slab and
    /// comparison-sort the endpoints and every slab.
    fn from_vertices_reference(vertices: &[Point]) -> EdgeTable {
        let n = vertices.len();
        let mut edges: Vec<(i32, i32, i32)> = Vec::new();
        for i in 0..n {
            let a = vertices[i];
            let b = vertices[(i + 1) % n];
            if a.x == b.x && a.y != b.y {
                edges.push((a.x, a.y.min(b.y), a.y.max(b.y)));
            }
        }
        let mut slab_ys: Vec<i32> = edges.iter().flat_map(|&(_, lo, hi)| [lo, hi]).collect();
        slab_ys.sort_unstable();
        slab_ys.dedup();
        let mut offsets = vec![0u32];
        let mut xs: Vec<i32> = Vec::new();
        for &row in &slab_ys[..slab_ys.len().saturating_sub(1)] {
            let mut slab_xs: Vec<i32> = edges
                .iter()
                .filter(|&&(_, lo, hi)| lo <= row && row < hi)
                .map(|&(x, _, _)| x)
                .collect();
            slab_xs.sort_unstable();
            xs.extend_from_slice(&slab_xs);
            offsets.push(xs.len() as u32);
        }
        EdgeTable::from_sections(&slab_ys, &offsets, &xs)
    }

    /// A skyline: a flat base along `y = oy` with one column per
    /// `(width, height)` above it, so rows cross many edges and equal
    /// heights leave coincident endpoints behind.
    fn skyline(ox: i32, oy: i32, columns: &[(i32, i32)]) -> RectilinearPolygon {
        let mut vertices = vec![Point::new(ox, oy)];
        let mut x = ox;
        for &(w, h) in columns {
            vertices.push(Point::new(x, oy + h));
            x += w;
            vertices.push(Point::new(x, oy + h));
        }
        vertices.push(Point::new(x, oy));
        RectilinearPolygon::canonicalize(vertices).expect("skyline is valid")
    }

    /// Skylines whose heights reach `max_height`, anchored at `(ox, oy)`.
    fn skylines(
        origin: impl Strategy<Value = (i32, i32)>,
        max_height: i32,
    ) -> impl Strategy<Value = RectilinearPolygon> {
        (
            origin,
            prop::collection::vec((1i32..5, 1i32..=max_height), 2usize..40),
        )
            .prop_map(|((ox, oy), columns)| skyline(ox, oy, &columns))
    }

    const TALL: i32 = 3 * BITMAP_ROWS as i32;

    proptest! {
        #[test]
        fn counting_build_equals_reference_within_the_bitmap(
            poly in skylines((-40i32..40, -40i32..40), 70),
        ) {
            prop_assert!(poly.mbr().height() < BITMAP_ROWS as i64);
            prop_assert_eq!(table(&poly), from_vertices_reference(poly.vertices()));
        }

        #[test]
        fn counting_build_equals_reference_past_the_bitmap(
            poly in skylines((-40i32..40, -2 * TALL..40), TALL),
        ) {
            prop_assert_eq!(table(&poly), from_vertices_reference(poly.vertices()));
        }

        #[test]
        fn counting_build_equals_reference_at_the_coordinate_limits(
            low in skylines((i32::MIN..i32::MIN + 9, i32::MIN..i32::MIN + 9), TALL),
            high in skylines(
                (i32::MAX - 200..i32::MAX - 190, i32::MAX - TALL - 9..i32::MAX - TALL),
                TALL,
            ),
            short in skylines((i32::MAX - 200..i32::MAX - 190, i32::MAX - 80..i32::MAX - 70), 70),
        ) {
            for poly in [low, high, short] {
                prop_assert_eq!(table(&poly), from_vertices_reference(poly.vertices()));
            }
        }
    }

    #[test]
    fn counting_build_spans_the_whole_coordinate_range() {
        // y-extent 2^32 - 1: `hi - lo` overflows i32, the wrapping
        // difference does not.
        let poly = RectilinearPolygon::new(vec![
            Point::new(-3, i32::MIN),
            Point::new(5, i32::MIN),
            Point::new(5, 7),
            Point::new(2, 7),
            Point::new(2, i32::MAX),
            Point::new(-3, i32::MAX),
        ])
        .unwrap();
        let built = table(&poly);
        assert_eq!(built, from_vertices_reference(poly.vertices()));
        assert_eq!(built.row_crossings(i32::MIN), &[-3, 5]);
        assert_eq!(built.row_crossings(i32::MAX - 1), &[-3, 2]);
    }

    #[test]
    fn counting_build_keeps_coincident_vertical_edges() {
        // The chain runs up x = 4 over rows [0, 5) and again over rows
        // [1, 3): those rows cross x = 4 twice, and both crossings stay.
        let vertices = [
            Point::new(0, 0),
            Point::new(4, 0),
            Point::new(4, 5),
            Point::new(9, 5),
            Point::new(9, 1),
            Point::new(4, 1),
            Point::new(4, 3),
            Point::new(7, 3),
            Point::new(7, 8),
            Point::new(0, 8),
        ];
        let built = EdgeTable::from_vertices(&vertices);
        assert_eq!(built, from_vertices_reference(&vertices));
        assert_eq!(built.row_crossings(1), &[0, 4, 4, 9]);
        assert_eq!(EdgeTable::from_vertices(&[]), from_vertices_reference(&[]));
    }

    #[test]
    fn rows_match_contains_pixel() {
        for poly in [l_shape(), comb()] {
            let table = table(&poly);
            let mbr = poly.mbr();
            for y in mbr.min_y - 2..mbr.max_y + 2 {
                let xs = table.row_crossings(y);
                assert_eq!(xs.len() % 2, 0, "even crossings at row {y}");
                for x in mbr.min_x - 2..mbr.max_x + 2 {
                    let by_intervals = xs.chunks_exact(2).any(|p| p[0] <= x && x < p[1]);
                    assert_eq!(by_intervals, poly.contains_pixel(x, y), "pixel ({x}, {y})");
                }
            }
        }
    }

    #[test]
    fn comb_rows_have_multiple_intervals() {
        let table = table(&comb());
        let intervals: Vec<_> = table.row_intervals(2).collect();
        assert_eq!(intervals, vec![(0, 1), (2, 3), (4, 5)]);
        let base: Vec<_> = table.row_intervals(0).collect();
        assert_eq!(base, vec![(0, 5)]);
        assert!(table.row_intervals(3).next().is_none());
    }

    #[test]
    fn span_len_counts_window_pixels() {
        let xs = [0, 3, 5, 9];
        assert_eq!(span_len_in(&xs, i32::MIN, i32::MAX), 7);
        assert_eq!(span_len_in(&xs, 1, 6), 3); // [1,3) + [5,6)
        assert_eq!(span_len_in(&xs, 3, 5), 0);
        assert_eq!(span_len_in(&[], 0, 10), 0);
    }

    #[test]
    fn overlap_len_matches_brute_force() {
        let a = [0, 4, 6, 10, 12, 13];
        let b = [2, 7, 9, 12];
        let window = (1, 12);
        let brute: i64 = (window.0..window.1)
            .filter(|&x| {
                let in_a = a.chunks_exact(2).any(|p| p[0] <= x && x < p[1]);
                let in_b = b.chunks_exact(2).any(|p| p[0] <= x && x < p[1]);
                in_a && in_b
            })
            .count() as i64;
        assert_eq!(overlap_len_in(&a, &b, window.0, window.1), brute);
        assert_eq!(overlap_len_in(&a, &[], 0, 20), 0);
        assert_eq!(overlap_len_in(&a, &b, 5, 5), 0);
    }

    #[test]
    fn rows_outside_extent_are_empty() {
        let table = table(&l_shape());
        assert!(table.row_crossings(-1).is_empty());
        assert!(table.row_crossings(4).is_empty());
        assert_eq!(table.row_crossings(0), &[0, 4]);
        assert_eq!(table.row_crossings(3), &[0, 2]);
    }

    #[test]
    fn area_by_rows_matches_shoelace() {
        for poly in [l_shape(), comb()] {
            let table = table(&poly);
            let mbr: Rect = poly.mbr();
            let area: i64 = (mbr.min_y..mbr.max_y)
                .map(|y| table.row_span_len(y, mbr.min_x, mbr.max_x))
                .sum();
            assert_eq!(area, poly.area());
        }
    }

    #[test]
    fn slab_count_is_bounded_by_edge_endpoints() {
        let table = table(&comb());
        assert!(table.slab_count() >= 1);
        assert!(table.slab_count() < comb().vertex_count());
    }

    #[test]
    fn lane_kernels_match_scalar_references() {
        let lists: Vec<Vec<i32>> = vec![
            vec![],
            vec![0, 3],
            vec![0, 4, 6, 10, 12, 13],
            (0..(4 * LANES as i32 + 2)).map(|i| 3 * i).collect(),
            (0..(4 * LANES as i32)).map(|i| 5 * i + 1).collect(),
            vec![-20, -10, -5, 0, 0, 0, 2, 7], // empty [0, 0) interval
        ];
        let windows = [
            (i32::MIN, i32::MAX),
            (1, 12),
            (5, 5),
            (7, 8), // degenerate single-column window
            (-30, 4),
            (100, 90), // inverted window
        ];
        for a in &lists {
            for (lo, hi) in windows {
                assert_eq!(
                    span_len_in(a, lo, hi),
                    span_len_in_scalar(a, lo, hi),
                    "span {a:?} [{lo}, {hi})"
                );
                for b in &lists {
                    assert_eq!(
                        overlap_len_in(a, b, lo, hi),
                        overlap_len_in_scalar(a, b, lo, hi),
                        "overlap {a:?} ∩ {b:?} [{lo}, {hi})"
                    );
                }
            }
        }
    }

    #[test]
    fn row_ref_reports_runs_and_reuses_the_resolved_slab() {
        let table = table(&comb());
        // comb(): base slab rows [0, 1) with one interval, teeth slab
        // rows [1, 3) with three intervals.
        let base = table.row(0);
        assert_eq!(base.crossings(), &[0, 5]);
        assert_eq!(base.run_end(), 1);
        let teeth = table.row(1);
        assert_eq!(teeth.run_end(), 3);
        assert_eq!(table.row(2).crossings(), teeth.crossings());
        // Outside the y-extent: empty lists, with the run extending to the
        // table's first slab (below) or forever (above).
        assert_eq!(table.row(-7).crossings(), &[] as &[i32]);
        assert_eq!(table.row(-7).run_end(), 0);
        assert_eq!(table.row(3).run_end(), i32::MAX);
        assert_eq!(table.row(99).crossings(), &[] as &[i32]);
        // Queries through the handle match the per-row entry points.
        assert_eq!(base.span_len(1, 4), table.row_span_len(0, 1, 4));
        assert_eq!(
            base.overlap_len(&teeth, 0, 5),
            overlap_len_in(base.crossings(), teeth.crossings(), 0, 5)
        );
        // Empty table: everything is one infinite empty run.
        let empty = EdgeTable::from_vertices(&[]);
        assert_eq!(empty.row(0).run_end(), i32::MAX);
        assert!(empty.row(0).crossings().is_empty());
    }

    #[test]
    fn run_aggregated_sweeps_match_per_row_loops() {
        for (p, q) in [
            (l_shape(), comb()),
            (comb(), comb()),
            (l_shape(), l_shape()),
        ] {
            let (tp, tq) = (table(&p), table(&q));
            let window = p.mbr().union(&q.mbr());
            // Grow the window past both extents so out-of-extent runs are
            // exercised too.
            let window = Rect::new(
                window.min_x - 2,
                window.min_y - 3,
                window.max_x + 2,
                window.max_y + 3,
            );
            let mut inter = 0i64;
            let mut union = 0i64;
            for y in window.min_y..window.max_y {
                let xs_p = tp.row_crossings(y);
                let xs_q = tq.row_crossings(y);
                let row_inter = overlap_len_in_scalar(xs_p, xs_q, window.min_x, window.max_x);
                inter += row_inter;
                union += span_len_in_scalar(xs_p, window.min_x, window.max_x)
                    + span_len_in_scalar(xs_q, window.min_x, window.max_x)
                    - row_inter;
            }
            assert_eq!(intersection_union_in(&tp, &tq, &window), (inter, union));
            assert_eq!(intersection_len_in(&tp, &tq, &window), inter);
        }
    }

    /// The intersection over `window` row by row: every row's crossing
    /// lists searched afresh and merged by the scalar two-pointer loop.
    fn per_row_intersection(tp: &EdgeTable, tq: &EdgeTable, window: &Rect) -> i64 {
        (window.min_y..window.max_y)
            .map(|y| {
                overlap_len_in_scalar(
                    tp.row_crossings(y),
                    tq.row_crossings(y),
                    window.min_x,
                    window.max_x,
                )
            })
            .sum()
    }

    /// Windows over the pair `(p, q)`: the MBR overlap and union, single
    /// rows at each table's first and last row, windows wholly below,
    /// wholly above, or straddling either table's y-extent, empty and
    /// inverted ones, and `extra`'s rows `y0..y1` measured from the union's
    /// first row.
    fn windows(p: &RectilinearPolygon, q: &RectilinearPolygon, extra: &[(i32, i32)]) -> Vec<Rect> {
        let u = p.mbr().union(&q.mbr());
        let rows = |min_y: i32, max_y: i32| Rect::new(u.min_x - 2, min_y, u.max_x + 2, max_y);
        let mut windows = vec![p.mbr().intersection(&q.mbr()), u];
        for m in [p.mbr(), q.mbr()] {
            windows.extend([
                rows(m.min_y, m.min_y + 1),
                rows(m.max_y - 1, m.max_y),
                rows(m.min_y - 9, m.min_y),
                rows(m.max_y, m.max_y + 9),
                rows(m.min_y - 5, m.min_y + 3),
                rows(m.max_y - 3, m.max_y + 5),
                rows(m.min_y + 2, m.min_y + 2),
                rows(m.max_y, m.min_y),
                // A column window narrower than the polygon.
                Rect::new(m.min_x + 1, m.min_y - 1, m.min_x + 2, m.max_y + 1),
            ]);
        }
        windows.extend(
            extra
                .iter()
                .map(|&(y0, y1)| rows(u.min_y + y0, u.min_y + y1)),
        );
        windows
    }

    /// Checks the cursor sweep against its binary-searching reference and
    /// the per-row scalar loop, both ways round, on every window.
    fn check_cursor_sweep(
        p: &RectilinearPolygon,
        q: &RectilinearPolygon,
        extra: &[(i32, i32)],
    ) -> Result<(), proptest::TestCaseError> {
        let (tp, tq) = (table(p), table(q));
        for window in windows(p, q, extra) {
            let swept = intersection_len_in(&tp, &tq, &window);
            prop_assert_eq!(
                (swept, window),
                (per_row_intersection(&tp, &tq, &window), window)
            );
            prop_assert_eq!(swept, intersection_len_in_reference(&tp, &tq, &window));
            prop_assert_eq!(swept, intersection_len_in(&tq, &tp, &window));
        }
        Ok(())
    }

    /// Row offsets `(y0, y1)` from a pair's first row: any order, so some
    /// windows come out empty or inverted.
    fn extra_rows(span: i32) -> impl Strategy<Value = Vec<(i32, i32)>> {
        prop::collection::vec((-20i32..span, -20i32..span), 1usize..6)
    }

    proptest! {
        #[test]
        fn cursor_sweep_equals_references_within_the_bitmap(
            p in skylines((-40i32..40, -40i32..40), 70),
            q in skylines((-40i32..40, -40i32..40), 70),
            extra in extra_rows(130),
        ) {
            check_cursor_sweep(&p, &q, &extra)?;
        }

        #[test]
        fn cursor_sweep_equals_references_past_the_bitmap(
            p in skylines((-40i32..40, -TALL..40), TALL),
            q in skylines((-40i32..40, -TALL..40), TALL),
            extra in extra_rows(2 * TALL),
        ) {
            check_cursor_sweep(&p, &q, &extra)?;
        }

        #[test]
        fn cursor_sweep_equals_references_on_coincident_boundaries(
            origin in (-40i32..40, -40i32..40),
            columns in prop::collection::vec((1i32..5, 1i32..=6), 2usize..30),
            widths in prop::collection::vec(1i32..5, 30usize),
            shift in -12i32..12,
            scale in (0usize..3).prop_map(|i| [1i32, 37, 150][i]),
            extra in extra_rows(200),
        ) {
            // Both skylines stand on the same base with the same column
            // heights, so every slab boundary of one is a boundary of the
            // other; `scale` stretches them past the bitmap.
            let heights: Vec<(i32, i32)> = columns.iter().map(|&(w, h)| (w, h * scale)).collect();
            let p = skyline(origin.0, origin.1, &heights);
            let moved: Vec<(i32, i32)> =
                heights.iter().zip(&widths).map(|(&(_, h), &w)| (w, h)).collect();
            let q = skyline(origin.0 + shift, origin.1, &moved);
            check_cursor_sweep(&p, &q, &extra)?;
        }
    }
}
