//! Device-independent core of the PixelBox algorithm.
//!
//! Both the CPU port and the simulated-GPU kernel execute the same sampling
//! box / pixelization logic; they differ only in how the work is scheduled
//! and costed. This module implements that shared logic once and records an
//! execution [`Trace`] — counts of pixel tests, box-position tests,
//! partitionings, stack activity and shoelace work — which the GPU kernel
//! converts into simulated cycles and which tests use to verify algorithmic
//! claims (e.g. that sampling boxes reduce per-pixel work, Figure 8).
//!
//! [`compute_pair`] returns a pair's areas and trace. Its pixelized boxes
//! are counted by the same row sweep that gives every served area
//! ([`intersection_len_in`], and [`inside_len_in`] when the variant needs a
//! union): a box's pixel counts per row are §3.1's pixelized view.
//! [`trace_pair`] runs the same scan without the pixelized boxes' sweeps and
//! returns only the trace: the simulated GPU charges that trace and takes
//! its areas from the CPU's exact row sweep. [`compute_pair_reference`] is
//! the per-pixel oracle for both.
//!
//! The scan's host work is kept small, since the served GPU engines run it
//! for every pair:
//! - `PolyArea` is the area each polygon stores, a load;
//! - the sampling-box stack, the partition grid and the hover marks are
//!   per-thread scratch, so a warm scan allocates nothing, as the paper's
//!   kernel keeps its stack in fixed per-block shared memory (§3.3);
//! - a partition classifies each grid row's cells as bit masks, from each
//!   polygon's hover marks (one table-driven walk of its chain) and the
//!   row's centre-row crossings (one forward cursor per edge table);
//! - when every cell of a partition is below the threshold, its unresolved
//!   cells are pixelized (or, in the count-only scan, charged) at once
//!   rather than pushed and popped, with the same pushes and stack depth
//!   charged; each cell is charged as a pixelized box, and a grid row's
//!   adjacent cells are swept as one window, since areas add over disjoint
//!   windows.

use super::position::{below, box_position, grid_dims, Grid, HoverMarks, RowPositions};
use super::{PairAreas, PolygonPair, Variant};
use sccg_geometry::edge_table::{inside_len_in, intersection_len_in};
use sccg_geometry::{Rect, RectilinearPolygon};
use std::cell::RefCell;

/// Execution statistics of one pair (or a batch, traces are additive).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Trace {
    /// Number of pixel-in-polygon tests performed.
    pub pixel_tests: u64,
    /// Total polygon edges examined across all pixel tests.
    pub pixel_edge_ops: u64,
    /// Number of sampling-box position tests performed.
    pub box_tests: u64,
    /// Total polygon edges examined across all box-position tests.
    pub box_edge_ops: u64,
    /// Number of sampling boxes partitioned into sub-boxes.
    pub partitions: u64,
    /// Number of sub-boxes pushed onto the stack.
    pub stack_pushes: u64,
    /// Number of sampling boxes resolved without further partitioning.
    pub resolved_boxes: u64,
    /// Number of sampling boxes finished by pixelization.
    pub pixelized_boxes: u64,
    /// Number of SIMD pixelization rounds: for every pixelized region, the
    /// number of pixels rounded up to the partition fanout (= GPU thread
    /// block size). This is the lane-padded work a thread block actually
    /// issues, which is what makes very small pixelization thresholds
    /// inefficient (§3.4).
    pub pixel_rounds: u64,
    /// Deepest stack occupancy observed.
    pub max_stack_depth: u64,
    /// Polygon vertices visited by shoelace area computations.
    pub shoelace_vertices: u64,
}

impl Trace {
    /// Adds another trace into this one.
    pub fn merge(&mut self, other: &Trace) {
        self.pixel_tests += other.pixel_tests;
        self.pixel_edge_ops += other.pixel_edge_ops;
        self.box_tests += other.box_tests;
        self.box_edge_ops += other.box_edge_ops;
        self.partitions += other.partitions;
        self.stack_pushes += other.stack_pushes;
        self.resolved_boxes += other.resolved_boxes;
        self.pixelized_boxes += other.pixelized_boxes;
        self.pixel_rounds += other.pixel_rounds;
        self.max_stack_depth = self.max_stack_depth.max(other.max_stack_depth);
        self.shoelace_vertices += other.shoelace_vertices;
    }
}

/// Computes the areas of intersection and union for one polygon pair using
/// the requested variant, recording an execution trace. Pixelized regions
/// are finished by the row sweeps of the edge tables
/// ([`intersection_len_in`], and [`inside_len_in`] for a union).
///
/// The trace counts what the per-pixel semantics of §3.1 *would* do, which
/// the sweeps account for analytically: the GPU simulator's cost model and
/// the Figure 8 claims are defined over those per-pixel counts, however the
/// host computes the areas.
///
/// * `threshold` — pixelization threshold `T` (boxes with fewer pixels are
///   finished by pixelization).
/// * `fanout` — number of sub-boxes a partitioned sampling box is split into
///   (the GPU uses the thread-block size; the CPU port uses a small fanout).
pub fn compute_pair(
    pair: &PolygonPair,
    threshold: u32,
    fanout: u32,
    variant: Variant,
) -> (PairAreas, Trace) {
    scan_pair(pair, threshold, fanout, variant, Mode::Scanline)
}

/// [`compute_pair`] with per-cell edge walks and the per-pixel
/// pixelization loop — the pre-fast-path behaviour, kept as the independent
/// oracle: areas and traces must match [`compute_pair`] exactly.
pub fn compute_pair_reference(
    pair: &PolygonPair,
    threshold: u32,
    fanout: u32,
    variant: Variant,
) -> (PairAreas, Trace) {
    scan_pair(pair, threshold, fanout, variant, Mode::PerPixel)
}

/// The [`Trace`] of [`compute_pair`] without its areas: the count-only
/// partition scan. It marks, classifies, pushes and pops sampling boxes
/// exactly as [`compute_pair`] does, so the trace is identical, but it
/// charges each pixelized box's counts without the box's interval
/// arithmetic. The simulated GPU charges this trace and takes its areas
/// from the exact row sweep ([`sweep_pair`](super::cpu::sweep_pair)).
/// Once a thread has run one scan, a scan whose boxes partition at most
/// once allocates nothing.
pub fn trace_pair(pair: &PolygonPair, threshold: u32, fanout: u32, variant: Variant) -> Trace {
    scan_pair(pair, threshold, fanout, variant, Mode::Count).1
}

/// How a scan finishes pixelized boxes and classifies partition cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// [`compute_pair`]: cells from the grid's hover marks and the edge
    /// tables, pixelized boxes by the tables' row sweeps.
    Scanline,
    /// [`compute_pair_reference`]: cells by edge walks, pixelized boxes
    /// pixel by pixel.
    PerPixel,
    /// Cells as in `Scanline`; pixelized boxes are only counted, so the
    /// scan's areas are meaningless and only its trace is kept.
    Count,
}

/// The scan behind [`compute_pair`], [`compute_pair_reference`] and
/// [`trace_pair`].
fn scan_pair(
    pair: &PolygonPair,
    threshold: u32,
    fanout: u32,
    variant: Variant,
    mode: Mode,
) -> (PairAreas, Trace) {
    let mut trace = Trace::default();
    let joint = pair.joint_mbr();
    let threshold = i64::from(threshold.max(1));
    let fanout = fanout.max(2);
    // Hoisted per-pair edge counts: `vertex_count()` is loop-invariant across
    // the whole scan, so it is resolved once here instead of once per
    // pixelized region (and once per sub-box in the partition loop).
    let edges = PairEdges::of(pair);

    let areas = match variant {
        Variant::PixelOnly => {
            charge_pixelization(&mut trace, joint.pixel_count(), 1, fanout, &edges);
            pixel_areas(&joint, pair, mode, true)
        }
        Variant::Full => {
            let area_p = shoelace(&pair.p, &mut trace);
            let area_q = shoelace(&pair.q, &mut trace);
            let intersection = sampling_box_scan(
                pair, &edges, &joint, threshold, fanout, false, mode, &mut trace,
            )
            .intersection;
            PairAreas {
                intersection,
                union: area_p + area_q - intersection,
            }
        }
        Variant::NoSep => sampling_box_scan(
            pair, &edges, &joint, threshold, fanout, true, mode, &mut trace,
        ),
    };
    (areas, trace)
}

/// Per-pair edge counts, computed once per scan and threaded through the hot
/// loops (they feed every pixel-test and box-test trace charge).
#[derive(Debug, Clone, Copy)]
struct PairEdges {
    p: u64,
    q: u64,
}

impl PairEdges {
    fn of(pair: &PolygonPair) -> Self {
        PairEdges {
            p: pair.p.vertex_count() as u64,
            q: pair.q.vertex_count() as u64,
        }
    }

    #[inline]
    fn total(&self) -> u64 {
        self.p + self.q
    }
}

/// Shoelace area with trace accounting (`PolyArea` in Algorithm 1). The
/// trace charges the device's walk of the chain; the host reads the area
/// the polygon stores.
fn shoelace(poly: &RectilinearPolygon, trace: &mut Trace) -> i64 {
    trace.shoelace_vertices += poly.vertex_count() as u64;
    poly.area()
}

/// Charges `boxes` pixelized regions of `pixels` pixels each.
///
/// The charges are identical in every mode — they count the §3.1
/// per-pixel semantics (2 containment tests and one full edge walk per
/// pixel), which the row sweeps account for analytically: a region of
/// `n` pixels always contributes `2n` pixel tests, `n × (|p| + |q|)` edge
/// operations and `⌈n / lanes⌉` SIMD rounds, exactly what the per-pixel loop
/// accumulates one pixel at a time.
fn charge_pixelization(trace: &mut Trace, pixels: i64, boxes: u64, lanes: u32, edges: &PairEdges) {
    let pixels = pixels.max(0) as u64;
    let lanes = u64::from(lanes.max(1));
    // A power-of-two lane count, every GPU block size in use, rounds up by
    // a shift instead of a division.
    let rounds = if lanes.is_power_of_two() {
        (pixels >> lanes.trailing_zeros()) + u64::from(pixels & (lanes - 1) != 0)
    } else {
        pixels.div_ceil(lanes)
    };
    trace.pixel_rounds += boxes * rounds;
    trace.pixel_tests += boxes * 2 * pixels;
    trace.pixel_edge_ops += boxes * pixels * edges.total();
}

/// The intersection and union pixel counts of a window, §3.1's pixelized
/// view. The row sweeps compute the intersection, and the union only when
/// `need_union` is set (`NoSep` and `PixelOnly`): the full variant's tail
/// phase derives the union from the polygons' areas and discards this
/// function's. The per-pixel oracle is kept verbatim. The count-only scan
/// returns zero areas.
fn pixel_areas(region: &Rect, pair: &PolygonPair, mode: Mode, need_union: bool) -> PairAreas {
    let mut intersection = 0i64;
    let mut union = 0i64;
    match mode {
        Mode::Count => {}
        Mode::Scanline => {
            let (table_p, table_q) = (pair.p.edge_table(), pair.q.edge_table());
            intersection = intersection_len_in(table_p, table_q, region);
            if need_union {
                union =
                    inside_len_in(table_p, region) + inside_len_in(table_q, region) - intersection;
            }
        }
        Mode::PerPixel => {
            for (x, y) in region.pixels() {
                let in_p = pair.p.contains_pixel(x, y);
                let in_q = pair.q.contains_pixel(x, y);
                if in_p && in_q {
                    intersection += 1;
                }
                if in_p || in_q {
                    union += 1;
                }
            }
        }
    }
    PairAreas {
        intersection,
        union,
    }
}

/// The sampling-box scan's working storage: the box stack, the partition
/// grid and both polygons' hover marks. It is kept per thread and reused by
/// every scan on the thread, as the paper's kernel keeps its stack in fixed
/// per-block shared memory (§3.3), so a warm scan allocates nothing.
#[derive(Default)]
struct ScanScratch {
    stack: Vec<Rect>,
    grid: Grid,
    hover_p: HoverMarks,
    hover_q: HoverMarks,
}

thread_local! {
    static SCAN_SCRATCH: RefCell<ScanScratch> = RefCell::default();
}

/// The sampling-box phase: a depth-first scan over a stack of boxes,
/// partitioning hovering boxes and pixelizing boxes below the threshold.
///
/// When `track_union` is false (the full PixelBox variant) only the
/// intersection needs resolving; when true (`PixelBox-NoSep`) a box stays
/// unresolved until both its intersection and union contributions are known,
/// which requires more partitionings (§3.2).
#[allow(clippy::too_many_arguments)]
fn sampling_box_scan(
    pair: &PolygonPair,
    edges: &PairEdges,
    initial: &Rect,
    threshold: i64,
    fanout: u32,
    track_union: bool,
    mode: Mode,
    trace: &mut Trace,
) -> PairAreas {
    SCAN_SCRATCH.with_borrow_mut(|scratch| {
        let ScanScratch {
            stack,
            grid,
            hover_p,
            hover_q,
        } = scratch;
        stack.clear();
        stack.push(*initial);
        trace.stack_pushes += 1;
        let mut intersection = 0i64;
        let mut union = 0i64;

        let (cols, rows) = grid_dims(fanout);
        // The edge tables that classify partition cells; the per-pixel
        // oracle walks the edges instead.
        let tables = match mode {
            Mode::Scanline | Mode::Count => Some((pair.p.edge_table(), pair.q.edge_table())),
            Mode::PerPixel => None,
        };

        while let Some(sampling_box) = stack.pop() {
            trace.max_stack_depth = trace.max_stack_depth.max(stack.len() as u64 + 1);
            if sampling_box.is_empty() {
                continue;
            }
            if sampling_box.pixel_count() < threshold {
                // Pixelization phase (Algorithm 1, lines 22–28).
                charge_pixelization(trace, sampling_box.pixel_count(), 1, fanout, edges);
                let local = pixel_areas(&sampling_box, pair, mode, track_union);
                intersection += local.intersection;
                if track_union {
                    union += local.union;
                }
                trace.pixelized_boxes += 1;
                continue;
            }
            // Partition phase (Algorithm 1, lines 30–39). The scanline
            // kernel and the count-only scan rasterise each polygon's
            // boundary onto the grid once and read uniform cells off the
            // edge tables, one centre row per grid row; the per-pixel oracle
            // keeps the per-cell edge walks. The trace charges the per-cell
            // walks either way. A grid row's cells are classified up to 64
            // at a time, as bit masks, and pushed in `Rect::subdivide`'s
            // row-major order; a grid row past the box ends the loop.
            trace.partitions += 1;
            grid.reset(&sampling_box, cols, rows);
            // When even a full cell is below the threshold, every cell this
            // partition pushes would be popped and pixelized next, in turn:
            // the scan pixelizes them now, and charges the pushes and the
            // deepest stack the pops would have seen. Otherwise it makes
            // room for every cell, so a warm stack does not grow.
            let pixelize_now = grid.full_cell_pixels() < threshold;
            let mut pushed = 0;
            if !pixelize_now {
                stack.reserve(grid.cells());
            }
            if tables.is_some() {
                hover_p.mark(grid, &pair.p);
                hover_q.mark(grid, &pair.q);
            }
            let used_cols = grid.used_cols();
            // The grid rows' centre rows increase, so each table is read
            // through one forward cursor.
            let mut cursors = tables.map(|(table_p, table_q)| {
                let first = sampling_box.min_y;
                (table_p.cursor(first), table_q.cursor(first))
            });
            for row in 0..rows {
                let Some((min_y, max_y)) = grid.row(row) else {
                    break;
                };
                // Every cell of the grid row has the row's band's centre row.
                let band = Rect::new(sampling_box.min_x, min_y, sampling_box.max_x, max_y);
                let (_, cy) = band.center_pixel();
                let centres = cursors.as_mut().map(|(cursor_p, cursor_q)| {
                    cursor_p.seek(cy);
                    cursor_q.seek(cy);
                    (cursor_p.crossings(), cursor_q.crossings())
                });
                for word in 0..used_cols.div_ceil(64) {
                    let first = 64 * word;
                    let count = (used_cols - first).min(64);
                    let cell = |bit: u32| {
                        let (min_x, max_x) = grid.col(first + bit).expect("a non-empty column");
                        Rect::new(min_x, min_y, max_x, max_y)
                    };
                    let (p, q) = match centres {
                        Some((centre_p, centre_q)) => (
                            grid.row_positions(row, word, hover_p, centre_p),
                            grid.row_positions(row, word, hover_q, centre_q),
                        ),
                        None => {
                            let (mut p, mut q) = (RowPositions::default(), RowPositions::default());
                            for bit in 0..count {
                                p.set(bit, box_position(&cell(bit), &pair.p));
                                q.set(bit, box_position(&cell(bit), &pair.q));
                            }
                            (p, q)
                        }
                    };
                    trace.box_tests += 2 * u64::from(count);
                    trace.box_edge_ops += edges.total() * u64::from(count);

                    // Lemma 1's contributions, a bit per cell.
                    let valid = below(count);
                    let outside_p = valid & !(p.hover | p.inside);
                    let outside_q = valid & !(q.hover | q.inside);
                    let intersection_all = p.inside & q.inside;
                    let union_all = p.inside | q.inside;
                    let intersection_unknown = valid & !outside_p & !outside_q & !intersection_all;
                    let union_unknown = valid & !union_all & !(outside_p & outside_q);
                    let unresolved = if track_union {
                        intersection_unknown | union_unknown
                    } else {
                        intersection_unknown
                    };
                    let resolved = valid & !unresolved;
                    let height = i64::from(max_y) - i64::from(min_y);
                    let pixels = |cells: u64| -> i64 {
                        let widths = grid.widths(word, cells);
                        widths
                            .iter()
                            .map(|&(width, count)| width * i64::from(count) * height)
                            .sum()
                    };
                    intersection += pixels(resolved & intersection_all);
                    if track_union {
                        union += pixels(resolved & union_all);
                    }
                    trace.resolved_boxes += u64::from(resolved.count_ones());
                    trace.stack_pushes += u64::from(unresolved.count_ones());
                    if !pixelize_now {
                        stack.extend(set_bits(unresolved).map(cell));
                        continue;
                    }
                    pushed += u64::from(unresolved.count_ones());
                    trace.pixelized_boxes += u64::from(unresolved.count_ones());
                    // Each cell is charged as a pixelized box; the row's
                    // cells are alike but for the last column's width.
                    for (width, count) in grid.widths(word, unresolved) {
                        charge_pixelization(trace, width * height, count.into(), fanout, edges);
                    }
                    if mode == Mode::Count {
                        continue;
                    }
                    // Areas add over disjoint windows, so each run of
                    // adjacent cells is counted as one window.
                    for (start, end) in set_runs(unresolved) {
                        let window =
                            Rect::new(cell(start).min_x, min_y, cell(end - 1).max_x, max_y);
                        let local = pixel_areas(&window, pair, mode, track_union);
                        intersection += local.intersection;
                        if track_union {
                            union += local.union;
                        }
                    }
                }
            }
            if pushed > 0 {
                // The first of the pushed cells' pops.
                let deepest = stack.len() as u64 + pushed;
                trace.max_stack_depth = trace.max_stack_depth.max(deepest);
            }
        }

        PairAreas {
            intersection,
            union,
        }
    })
}

/// The set bits of `bits`, lowest first.
fn set_bits(mut bits: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        let bit = bits.trailing_zeros();
        bits &= bits.wrapping_sub(1);
        (bit < 64).then_some(bit)
    })
}

/// The runs of consecutive set bits of `bits` as half-open `(start, end)`
/// bit ranges, lowest first.
fn set_runs(mut bits: u64) -> impl Iterator<Item = (u32, u32)> {
    std::iter::from_fn(move || {
        let start = bits.trailing_zeros();
        if start == 64 {
            return None;
        }
        let end = start + (!(bits >> start)).trailing_zeros();
        bits &= u64::MAX.checked_shl(end).unwrap_or(0);
        Some((start, end))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixelbox::position::BoxPosition;
    use sccg_geometry::{raster, Point};

    /// The trace of Algorithm 1 as the paper states it, kept as the
    /// reference for the scan that classifies cells as bit masks and
    /// charges small cells without stacking them: every box is popped from
    /// a stack, partitioned into `Rect::subdivide`'s cells, and each cell
    /// is classified by `box_position` and pushed while its contribution is
    /// unknown.
    fn reference_trace(pair: &PolygonPair, threshold: u32, fanout: u32, variant: Variant) -> Trace {
        let mut trace = Trace::default();
        let edges = (pair.p.vertex_count() + pair.q.vertex_count()) as u64;
        let (threshold, fanout) = (i64::from(threshold.max(1)), fanout.max(2));
        let pixelize = |trace: &mut Trace, region: &Rect| {
            let pixels = region.pixel_count().max(0) as u64;
            trace.pixel_rounds += pixels.div_ceil(u64::from(fanout));
            trace.pixel_tests += 2 * pixels;
            trace.pixel_edge_ops += pixels * edges;
        };
        let joint = pair.joint_mbr();
        match variant {
            Variant::PixelOnly => {
                pixelize(&mut trace, &joint);
                return trace;
            }
            Variant::Full => trace.shoelace_vertices += edges,
            Variant::NoSep => {}
        }
        let (cols, rows) = grid_dims(fanout);
        let mut stack = vec![joint];
        trace.stack_pushes += 1;
        while let Some(sampling_box) = stack.pop() {
            trace.max_stack_depth = trace.max_stack_depth.max(stack.len() as u64 + 1);
            if sampling_box.is_empty() {
                continue;
            }
            if sampling_box.pixel_count() < threshold {
                pixelize(&mut trace, &sampling_box);
                trace.pixelized_boxes += 1;
                continue;
            }
            trace.partitions += 1;
            for idx in 0..cols * rows {
                let cell = sampling_box.subdivide(cols, rows, idx);
                if cell.is_empty() {
                    continue;
                }
                let (p, q) = (box_position(&cell, &pair.p), box_position(&cell, &pair.q));
                trace.box_tests += 2;
                trace.box_edge_ops += edges;
                use BoxPosition::{Inside, Outside};
                let intersection_known =
                    p == Outside || q == Outside || (p == Inside && q == Inside);
                let union_known = p == Inside || q == Inside || (p == Outside && q == Outside);
                if intersection_known && (variant == Variant::Full || union_known) {
                    trace.resolved_boxes += 1;
                } else {
                    stack.push(cell);
                    trace.stack_pushes += 1;
                }
            }
        }
        trace
    }

    #[test]
    fn every_scan_traces_as_algorithm_1() {
        let nuclei = |radius: u32, seed: u64| {
            let tile = sccg_datagen::generate_tile_pair(&sccg_datagen::TileSpec {
                width: 8 * radius,
                height: 8 * radius,
                target_polygons: 1,
                nucleus: sccg_datagen::NucleusParams {
                    radius_x: radius,
                    radius_y: radius,
                    boundary_jitter: 1,
                },
                dropout: 0.0,
                seed,
                ..sccg_datagen::TileSpec::default()
            });
            pair(
                tile.first[0].polygon.clone(),
                tile.second[0].polygon.clone(),
            )
        };
        let mut pairs = vec![
            pair(l_shape(0, 96), l_shape(10, 96)),
            pair(l_shape(0, 24), l_shape(6, 24)),
            pair(rect_poly(0, 0, 40, 40), l_shape(8, 16)),
            pair(rect_poly(0, 0, 8, 8), rect_poly(30, 30, 40, 40)),
            pair(
                l_shape(0, 20).scale(40).unwrap(),
                l_shape(5, 20).scale(40).unwrap(),
            ),
            // Wider than the hover-mark tables reach.
            pair(
                l_shape(0, 20).scale(120).unwrap(),
                l_shape(5, 20).scale(120).unwrap(),
            ),
        ];
        for seed in 0..3 {
            pairs.extend([nuclei(6, seed), nuclei(32, seed)]);
        }
        for pair in &pairs {
            for variant in [Variant::PixelOnly, Variant::NoSep, Variant::Full] {
                for fanout in [4u32, 6, 16, 64, 128] {
                    for threshold in [1u32, 7, 64, 2048] {
                        let setting = format!("{variant:?} T={threshold} fanout={fanout}");
                        let reference = reference_trace(pair, threshold, fanout, variant);
                        let traced = trace_pair(pair, threshold, fanout, variant);
                        let computed = compute_pair(pair, threshold, fanout, variant).1;
                        assert_eq!(traced, reference, "trace_pair, {setting}");
                        assert_eq!(computed, reference, "compute_pair, {setting}");
                    }
                }
            }
        }
    }

    fn pair(p: RectilinearPolygon, q: RectilinearPolygon) -> PolygonPair {
        PolygonPair::new(p, q)
    }

    fn rect_poly(x0: i32, y0: i32, x1: i32, y1: i32) -> RectilinearPolygon {
        RectilinearPolygon::rectangle(Rect::new(x0, y0, x1, y1)).unwrap()
    }

    fn l_shape(offset: i32, size: i32) -> RectilinearPolygon {
        RectilinearPolygon::new(vec![
            Point::new(offset, offset),
            Point::new(offset + size, offset),
            Point::new(offset + size, offset + size / 2),
            Point::new(offset + size / 2, offset + size / 2),
            Point::new(offset + size / 2, offset + size),
            Point::new(offset, offset + size),
        ])
        .unwrap()
    }

    fn assert_all_variants_exact(p: &RectilinearPolygon, q: &RectilinearPolygon) {
        let (ri, ru) = raster::intersection_union_area(p, q);
        for variant in [Variant::PixelOnly, Variant::NoSep, Variant::Full] {
            for threshold in [1u32, 16, 256, 100_000] {
                for fanout in [4u32, 16, 64] {
                    let (areas, _) =
                        compute_pair(&pair(p.clone(), q.clone()), threshold, fanout, variant);
                    assert_eq!(
                        (areas.intersection, areas.union),
                        (ri, ru),
                        "variant {variant:?} T={threshold} fanout={fanout}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_on_overlapping_rectangles() {
        assert_all_variants_exact(&rect_poly(0, 0, 20, 20), &rect_poly(10, 5, 32, 27));
    }

    #[test]
    fn exact_on_disjoint_rectangles() {
        assert_all_variants_exact(&rect_poly(0, 0, 8, 8), &rect_poly(30, 30, 40, 40));
    }

    #[test]
    fn exact_on_nested_polygons() {
        assert_all_variants_exact(&rect_poly(0, 0, 40, 40), &l_shape(8, 16));
    }

    #[test]
    fn exact_on_l_shapes() {
        assert_all_variants_exact(&l_shape(0, 24), &l_shape(6, 24));
    }

    #[test]
    fn exact_on_identical_polygons() {
        let p = l_shape(3, 20);
        assert_all_variants_exact(&p, &p.clone());
    }

    #[test]
    fn sampling_boxes_reduce_pixel_tests_for_large_pairs() {
        // The central claim behind Figure 8: with sampling boxes enabled the
        // number of per-pixel tests is far lower than exhaustive pixelization
        // once polygons are large.
        let p = l_shape(0, 96);
        let q = l_shape(10, 96);
        let (_, t_pixel) =
            compute_pair(&pair(p.clone(), q.clone()), 1 << 30, 64, Variant::PixelOnly);
        let (_, t_full) = compute_pair(&pair(p, q), 2048, 64, Variant::Full);
        assert!(
            t_full.pixel_tests * 2 < t_pixel.pixel_tests,
            "full {} vs pixel-only {}",
            t_full.pixel_tests,
            t_pixel.pixel_tests
        );
        assert!(t_full.partitions > 0);
        assert!(t_full.resolved_boxes > 0);
    }

    #[test]
    fn nosep_needs_at_least_as_many_partitions_as_full() {
        // Computing the union directly forces extra partitionings (§3.2).
        let p = l_shape(0, 96);
        let q = l_shape(30, 96);
        let (_, t_full) = compute_pair(&pair(p.clone(), q.clone()), 512, 64, Variant::Full);
        let (_, t_nosep) = compute_pair(&pair(p, q), 512, 64, Variant::NoSep);
        assert!(t_nosep.partitions >= t_full.partitions);
        assert!(t_nosep.pixel_tests >= t_full.pixel_tests);
    }

    #[test]
    fn pixel_only_never_partitions() {
        let p = l_shape(0, 32);
        let q = l_shape(4, 32);
        let (_, t) = compute_pair(&pair(p, q), 64, 16, Variant::PixelOnly);
        assert_eq!(t.partitions, 0);
        assert_eq!(t.box_tests, 0);
        assert!(t.pixel_tests > 0);
    }

    #[test]
    fn scanline_and_per_pixel_kernels_are_bit_identical() {
        // Areas AND traces: the scanline fast path must be observationally
        // indistinguishable from the retained per-pixel loop.
        let shapes = [
            (l_shape(0, 24), l_shape(6, 24)),
            (rect_poly(0, 0, 20, 20), rect_poly(10, 5, 32, 27)),
            (rect_poly(0, 0, 8, 8), rect_poly(30, 30, 40, 40)),
            (rect_poly(0, 0, 40, 40), l_shape(8, 16)),
        ];
        for (p, q) in shapes {
            for variant in [Variant::PixelOnly, Variant::NoSep, Variant::Full] {
                for threshold in [1u32, 7, 64, 4096] {
                    let pair = pair(p.clone(), q.clone());
                    let fast = compute_pair(&pair, threshold, 16, variant);
                    let brute = compute_pair_reference(&pair, threshold, 16, variant);
                    assert_eq!(fast, brute, "variant {variant:?} T={threshold}");
                }
            }
        }
        // The GPU fanout on pairs big enough to partition, where the two
        // kernels classify the sub-boxes differently (grid rasterisation
        // against per-cell edge walks): the serving workloads' big nuclei
        // and an L pair whose sub-boxes are partitioned again.
        let nuclei = sccg_datagen::generate_tile_pair(&sccg_datagen::TileSpec {
            width: 256,
            height: 256,
            target_polygons: 1,
            nucleus: sccg_datagen::NucleusParams {
                radius_x: 32,
                radius_y: 32,
                boundary_jitter: 1,
            },
            dropout: 0.0,
            seed: 5,
            ..sccg_datagen::TileSpec::default()
        });
        let big = [
            (l_shape(0, 96), l_shape(10, 96)),
            (
                nuclei.first[0].polygon.clone(),
                nuclei.second[0].polygon.clone(),
            ),
        ];
        for (p, q) in big {
            for variant in [Variant::NoSep, Variant::Full] {
                for (threshold, fanout) in [(64u32, 64u32), (2048, 64), (2048, 128), (512, 4)] {
                    let pair = pair(p.clone(), q.clone());
                    let fast = compute_pair(&pair, threshold, fanout, variant);
                    let brute = compute_pair_reference(&pair, threshold, fanout, variant);
                    assert_eq!(
                        fast, brute,
                        "variant {variant:?} T={threshold} fanout={fanout}"
                    );
                    assert!(fast.1.partitions > 0, "T={threshold} fanout={fanout}");
                }
            }
        }
    }

    #[test]
    fn set_runs_are_the_maximal_runs_of_set_bits() {
        let words = [
            0u64,
            1,
            0b1011_0110,
            u64::MAX,
            u64::MAX << 1,
            1 << 63,
            0x8000_0000_0000_0001,
            0xF0F0_0000_0000_0FFF,
        ];
        for bits in words {
            let mut rebuilt = 0u64;
            let mut previous_end = None;
            for (start, end) in set_runs(bits) {
                assert!(start < end && end <= 64, "{bits:#x}: ({start}, {end})");
                // A clear bit separates a run from the one before it.
                assert!(previous_end.is_none_or(|e| start > e), "{bits:#x}");
                rebuilt |= (u64::MAX >> (64 - (end - start))) << start;
                previous_end = Some(end);
            }
            assert_eq!(rebuilt, bits);
        }
    }

    #[test]
    fn trace_merge_accumulates() {
        let p = l_shape(0, 16);
        let q = l_shape(2, 16);
        let (_, t1) = compute_pair(&pair(p.clone(), q.clone()), 64, 4, Variant::Full);
        let (_, t2) = compute_pair(&pair(p, q), 64, 4, Variant::Full);
        let mut merged = t1;
        merged.merge(&t2);
        assert_eq!(merged.pixel_tests, t1.pixel_tests * 2);
        assert_eq!(merged.box_tests, t1.box_tests * 2);
        assert_eq!(merged.max_stack_depth, t1.max_stack_depth);
    }

    #[test]
    fn scaled_pairs_keep_exactness() {
        // Mirrors the Figure 8 stress test: scaling coordinates must not
        // break exactness of any variant.
        let p = l_shape(0, 20);
        let q = l_shape(5, 20);
        for scale in 1..=5 {
            let ps = p.scale(scale).unwrap();
            let qs = q.scale(scale).unwrap();
            let (ri, ru) = raster::intersection_union_area(&ps, &qs);
            let (areas, _) = compute_pair(&pair(ps, qs), 2048, 64, Variant::Full);
            assert_eq!((areas.intersection, areas.union), (ri, ru), "scale {scale}");
        }
    }
}
