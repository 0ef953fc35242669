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
//! [`compute_pair`] returns a pair's areas and trace. [`trace_pair`] runs the
//! same scan without the pixelized boxes' interval arithmetic and returns
//! only the trace: the simulated GPU charges that trace and takes its areas
//! from the CPU's exact row sweep.

use super::position::{box_position, cell_position, grid_dims, BoxPosition, Grid, HoverMarks};
use super::{PairAreas, PolygonPair, Variant};
use sccg_geometry::edge_table::{overlap_len_in, span_len_in};
use sccg_geometry::{EdgeTable, Rect, RectilinearPolygon};

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

/// Which kernel finishes sub-threshold sampling boxes (and the `PixelOnly`
/// variant's whole-region scan).
///
/// Both kernels produce bit-identical areas *and* bit-identical [`Trace`]s:
/// the trace counts what the per-pixel semantics of §3.1 *would* do, which
/// the scanline kernel accounts for analytically (the GPU simulator's cost
/// model and the Figure 8 claims are defined over those per-pixel counts,
/// regardless of how the host computes the areas).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PixelizeKernel {
    /// Interval-scanline fast path: per pixel row, intersect/merge the two
    /// polygons' inside x-intervals (from their cached
    /// [`EdgeTable`]s) with pure interval
    /// arithmetic — O(rows × crossing edges), never touching individual
    /// pixels.
    #[default]
    Scanline,
    /// The seed per-pixel loop: classify every pixel of the region against
    /// both polygons with the O(edges) even–odd ray cast. Retained as the
    /// brute-force oracle for the equivalence suite and the
    /// `pixelize_dense` benchmark baseline.
    PerPixel,
}

/// Computes the areas of intersection and union for one polygon pair using
/// the requested variant, recording an execution trace. Pixelized regions
/// are finished with the interval-scanline fast path
/// ([`PixelizeKernel::Scanline`]).
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
    compute_pair_with(pair, threshold, fanout, variant, PixelizeKernel::Scanline)
}

/// [`compute_pair`] with the retained per-pixel pixelization loop
/// ([`PixelizeKernel::PerPixel`]) — the pre-fast-path behaviour, kept as the
/// independent oracle: areas and traces must match [`compute_pair`] exactly.
pub fn compute_pair_reference(
    pair: &PolygonPair,
    threshold: u32,
    fanout: u32,
    variant: Variant,
) -> (PairAreas, Trace) {
    compute_pair_with(pair, threshold, fanout, variant, PixelizeKernel::PerPixel)
}

/// [`compute_pair`] with an explicit pixelization kernel.
pub fn compute_pair_with(
    pair: &PolygonPair,
    threshold: u32,
    fanout: u32,
    variant: Variant,
    kernel: PixelizeKernel,
) -> (PairAreas, Trace) {
    let mode = match kernel {
        PixelizeKernel::Scanline => Mode::Scanline,
        PixelizeKernel::PerPixel => Mode::PerPixel,
    };
    scan_pair(pair, threshold, fanout, variant, mode)
}

/// The [`Trace`] of [`compute_pair`] without its areas: the count-only
/// partition scan. It marks, classifies, pushes and pops sampling boxes
/// exactly as [`compute_pair`] does, so the trace is identical, but it
/// charges each pixelized box's counts without the box's interval
/// arithmetic. The simulated GPU charges this trace and takes its areas
/// from the exact row sweep ([`sweep_pair`](super::cpu::sweep_pair)).
pub fn trace_pair(pair: &PolygonPair, threshold: u32, fanout: u32, variant: Variant) -> Trace {
    scan_pair(pair, threshold, fanout, variant, Mode::Count).1
}

/// How a scan finishes pixelized boxes and classifies partition cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// [`PixelizeKernel::Scanline`]: cells from the grid's hover marks and
    /// the edge tables, pixelized boxes by interval arithmetic.
    Scanline,
    /// [`PixelizeKernel::PerPixel`]: cells by edge walks, pixelized boxes
    /// pixel by pixel.
    PerPixel,
    /// Cells as in `Scanline`; pixelized boxes are only counted, so the
    /// scan's areas are meaningless and only its trace is kept.
    Count,
}

/// The scan behind [`compute_pair_with`] and [`trace_pair`].
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
    // The scanline kernel's row-reuse cache lives for exactly one scan; the
    // per-pixel oracle and the count-only scan pixelize without it.
    let mut cache = match mode {
        Mode::Scanline => Some(RowCache::new(pair.p.edge_table(), pair.q.edge_table())),
        Mode::PerPixel | Mode::Count => None,
    };

    let areas = match variant {
        Variant::PixelOnly => pixelize_region(
            &joint, pair, &edges, fanout, mode, true, &mut cache, &mut trace,
        ),
        Variant::Full => {
            let area_p = shoelace(&pair.p, &mut trace);
            let area_q = shoelace(&pair.q, &mut trace);
            let intersection = sampling_box_scan(
                pair, &edges, &joint, threshold, fanout, false, mode, &mut cache, &mut trace,
            )
            .intersection;
            PairAreas {
                intersection,
                union: area_p + area_q - intersection,
            }
        }
        Variant::NoSep => sampling_box_scan(
            pair, &edges, &joint, threshold, fanout, true, mode, &mut cache, &mut trace,
        ),
    };
    (areas, trace)
}

/// Number of direct-mapped slots in a [`RowCache`]. Sixteen rows cover the
/// row overlap between the sub-boxes a partitioned sampling box produces
/// (fanout grids are at most a few boxes tall) while keeping the cache small
/// enough to initialise per pair without measurable cost.
const ROW_CACHE_SLOTS: usize = 16;

/// One cached pixel row of a pair: both polygons' resolved crossing lists
/// and the first row at which either list may change.
#[derive(Clone, Copy)]
struct RowSlot<'t> {
    y: i32,
    /// `min` of the two tables' run ends: every row in `[y, run_end)` shares
    /// both crossing lists.
    run_end: i32,
    p_xs: &'t [i32],
    q_xs: &'t [i32],
    valid: bool,
}

/// Per-scan row-interval reuse layer: a small direct-mapped cache keyed by
/// row `y`, holding both polygons' resolved crossing lists. Adjacent sampling
/// boxes of one scan share pixel rows (vertically-split siblings cover the
/// same y-range), so the second and later boxes touching a row hit the cache
/// and skip both slab binary searches instead of re-deriving the lists per
/// box. The cache borrows the pair's [`EdgeTable`]s and lives for exactly one
/// scan, so it can never serve rows from a previous pair.
struct RowCache<'t> {
    p: &'t EdgeTable,
    q: &'t EdgeTable,
    slots: [RowSlot<'t>; ROW_CACHE_SLOTS],
}

impl<'t> RowCache<'t> {
    fn new(p: &'t EdgeTable, q: &'t EdgeTable) -> Self {
        RowCache {
            p,
            q,
            slots: [RowSlot {
                y: 0,
                run_end: 0,
                p_xs: &[],
                q_xs: &[],
                valid: false,
            }; ROW_CACHE_SLOTS],
        }
    }

    /// The resolved crossing lists for row `y` (filled from the edge tables
    /// on a miss). `run_end` is always `> y`, so run sweeps through the
    /// cache advance.
    #[inline]
    fn row(&mut self, y: i32) -> RowSlot<'t> {
        let idx = (y as u32 as usize) % ROW_CACHE_SLOTS;
        let slot = self.slots[idx];
        if slot.valid && slot.y == y {
            return slot;
        }
        let rp = self.p.row(y);
        let rq = self.q.row(y);
        let fresh = RowSlot {
            y,
            run_end: rp.run_end().min(rq.run_end()),
            p_xs: rp.crossings(),
            q_xs: rq.crossings(),
            valid: true,
        };
        self.slots[idx] = fresh;
        fresh
    }
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

/// Shoelace area with trace accounting (`PolyArea` in Algorithm 1).
fn shoelace(poly: &RectilinearPolygon, trace: &mut Trace) -> i64 {
    trace.shoelace_vertices += poly.vertex_count() as u64;
    poly.area()
}

/// Pixelization of a region: resolves the region's intersection/union pixel
/// counts (the `PixelOnly` path, and the tail phase of the full algorithm).
///
/// The trace charges are identical for both kernels — they count the §3.1
/// per-pixel semantics (2 containment tests and one full edge walk per
/// pixel), which the scanline kernel accounts for analytically: a region of
/// `n` pixels always contributes `2n` pixel tests, `n × (|p| + |q|)` edge
/// operations and `⌈n / lanes⌉` SIMD rounds, exactly what the per-pixel loop
/// accumulates one pixel at a time.
///
/// When `need_union` is false (the full variant's tail phase, which derives
/// the union indirectly and discards this function's union) the scanline
/// kernel runs one overlap pass per row instead of three interval passes.
/// The per-pixel oracle is kept verbatim — its (unused) union costs nothing
/// extra to the comparison, since it is the baseline being measured. The
/// count-only scan stops after the charges and returns zero areas.
#[allow(clippy::too_many_arguments)]
fn pixelize_region(
    region: &Rect,
    pair: &PolygonPair,
    edges: &PairEdges,
    lanes: u32,
    mode: Mode,
    need_union: bool,
    cache: &mut Option<RowCache<'_>>,
    trace: &mut Trace,
) -> PairAreas {
    let pixels = region.pixel_count().max(0) as u64;
    trace.pixel_rounds += pixels.div_ceil(u64::from(lanes.max(1)));
    trace.pixel_tests += 2 * pixels;
    trace.pixel_edge_ops += pixels * edges.total();

    let mut intersection = 0i64;
    let mut union = 0i64;
    match mode {
        Mode::Count => {}
        Mode::Scanline => {
            // Run sweep through the pair's row cache: each run of rows
            // sharing both crossing lists is resolved once (or taken from
            // the cache when an earlier sampling box already touched it)
            // and its interval arithmetic multiplied by the run length.
            let cache = cache
                .as_mut()
                .expect("scanline kernel runs with a row cache");
            let mut y = region.min_y;
            while y < region.max_y {
                let row = cache.row(y);
                let run_end = row.run_end.min(region.max_y);
                let rows = i64::from(run_end) - i64::from(y);
                let row_inter = overlap_len_in(row.p_xs, row.q_xs, region.min_x, region.max_x);
                intersection += rows * row_inter;
                if need_union {
                    let row_sum = span_len_in(row.p_xs, region.min_x, region.max_x)
                        + span_len_in(row.q_xs, region.min_x, region.max_x);
                    union += rows * (row_sum - row_inter);
                }
                y = run_end;
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

/// Contribution state of one sampling box to one accumulated quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Contribution {
    /// The box contributes all of its pixels.
    All,
    /// The box contributes none of its pixels.
    None,
    /// Cannot be decided at this granularity.
    Unknown,
}

fn intersection_contribution(p1: BoxPosition, p2: BoxPosition) -> Contribution {
    use BoxPosition::*;
    match (p1, p2) {
        (Outside, _) | (_, Outside) => Contribution::None,
        (Inside, Inside) => Contribution::All,
        _ => Contribution::Unknown,
    }
}

fn union_contribution(p1: BoxPosition, p2: BoxPosition) -> Contribution {
    use BoxPosition::*;
    match (p1, p2) {
        (Inside, _) | (_, Inside) => Contribution::All,
        (Outside, Outside) => Contribution::None,
        _ => Contribution::Unknown,
    }
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
    cache: &mut Option<RowCache<'_>>,
    trace: &mut Trace,
) -> PairAreas {
    let mut intersection = 0i64;
    let mut union = 0i64;
    // The initial box rides in `next` so a scan that never partitions (the
    // common case for large thresholds) performs zero heap allocations; the
    // trace still charges it as a push like any other stacked box.
    let mut stack: Vec<Rect> = Vec::new();
    let mut next = Some(*initial);
    trace.stack_pushes += 1;

    let (cols, rows) = grid_dims(fanout);
    let (mut hover_p, mut hover_q) = (HoverMarks::default(), HoverMarks::default());
    // The edge tables that classify partition cells; the per-pixel oracle
    // walks the edges instead.
    let tables = match mode {
        Mode::Scanline | Mode::Count => Some((pair.p.edge_table(), pair.q.edge_table())),
        Mode::PerPixel => None,
    };

    while let Some(sampling_box) = next.take().or_else(|| stack.pop()) {
        trace.max_stack_depth = trace.max_stack_depth.max(stack.len() as u64 + 1);
        if sampling_box.is_empty() {
            continue;
        }
        if sampling_box.pixel_count() < threshold {
            // Pixelization phase (Algorithm 1, lines 22–28).
            let local = pixelize_region(
                &sampling_box,
                pair,
                edges,
                fanout,
                mode,
                track_union,
                cache,
                trace,
            );
            intersection += local.intersection;
            if track_union {
                union += local.union;
            }
            trace.pixelized_boxes += 1;
            continue;
        }
        // Partition phase (Algorithm 1, lines 30–39). The scanline kernel
        // and the count-only scan rasterise each polygon's boundary onto the
        // grid once and read uniform cells off the edge tables, one centre
        // row per grid row; the per-pixel oracle keeps the per-cell edge
        // walks. The trace charges the per-cell walks either way. Cells come
        // in `Rect::subdivide`'s row-major order, and a grid row or column
        // past the box ends its loop.
        trace.partitions += 1;
        let grid = Grid::new(&sampling_box, cols, rows);
        if tables.is_some() {
            hover_p.mark(&grid, &pair.p);
            hover_q.mark(&grid, &pair.q);
        }
        for row in 0..rows {
            let Some((min_y, max_y)) = grid.row(row) else {
                break;
            };
            // Every cell of the grid row has the row's band's centre row.
            let band = Rect::new(sampling_box.min_x, min_y, sampling_box.max_x, max_y);
            let centres = tables.map(|(table_p, table_q)| {
                let (_, cy) = band.center_pixel();
                (table_p.row_crossings(cy), table_q.row_crossings(cy))
            });
            for col in 0..cols {
                let Some((min_x, max_x)) = grid.col(col) else {
                    break;
                };
                let idx = row * cols + col;
                let sub = Rect::new(min_x, min_y, max_x, max_y);
                let (pos_p, pos_q) = match centres {
                    Some((centre_p, centre_q)) => (
                        cell_position(&sub, hover_p.get(idx), &pair.p.mbr(), centre_p),
                        cell_position(&sub, hover_q.get(idx), &pair.q.mbr(), centre_q),
                    ),
                    None => (box_position(&sub, &pair.p), box_position(&sub, &pair.q)),
                };
                trace.box_tests += 2;
                trace.box_edge_ops += edges.total();

                let inter_c = intersection_contribution(pos_p, pos_q);
                let union_c = union_contribution(pos_p, pos_q);
                let resolved = inter_c != Contribution::Unknown
                    && (!track_union || union_c != Contribution::Unknown);
                if resolved {
                    if inter_c == Contribution::All {
                        intersection += sub.pixel_count();
                    }
                    if track_union && union_c == Contribution::All {
                        union += sub.pixel_count();
                    }
                    trace.resolved_boxes += 1;
                } else {
                    stack.push(sub);
                    trace.stack_pushes += 1;
                }
            }
        }
    }

    PairAreas {
        intersection,
        union,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccg_geometry::{raster, Point};

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
