//! The sampling-box position predicate (Lemma 1 of the paper).

use sccg_geometry::{Rect, RectilinearPolygon};

/// Position of a sampling box relative to one polygon (§3.2, Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoxPosition {
    /// Every pixel of the box lies inside the polygon.
    Inside,
    /// Every pixel of the box lies outside the polygon.
    Outside,
    /// Some pixels may lie inside and some outside: the box must be
    /// partitioned further (or pixelized).
    Hover,
}

/// Computes a sampling box's position relative to a polygon.
///
/// Lemma 1 of the paper classifies a box by (i) edge-to-edge crossings,
/// (ii) polygon vertices inside the box and (iii) the box centre. Because all
/// coordinates here are integers, a polygon boundary chord can slice through
/// a box while meeting the box's edges exactly at polygon vertices, which the
/// literal three conditions would mis-classify. This implementation therefore
/// uses the equivalent — but safely conservative — form of the test: the box
/// is *uniform* exactly when no polygon edge passes through the box's open
/// interior, because only such an edge can separate two pixel centres inside
/// the box. Uniform boxes are resolved by their centre pixel (condition iii);
/// everything else hovers and is partitioned further, exactly as the paper
/// prescribes for the boundary-overlap case ("the next level of partition
/// will distinguish the contribution of each sub-sampling box").
pub fn box_position(sampling_box: &Rect, poly: &RectilinearPolygon) -> BoxPosition {
    debug_assert!(!sampling_box.is_empty());

    // Quick reject: a box disjoint from the polygon's MBR is outside.
    if !sampling_box.intersects(&poly.mbr()) {
        return BoxPosition::Outside;
    }

    if boundary_intersects_interior(sampling_box, poly) {
        return BoxPosition::Hover;
    }

    // No boundary inside the box: every pixel has the same status as the
    // centre pixel (condition (iii) of Lemma 1).
    let (cx, cy) = sampling_box.center_pixel();
    if poly.contains_pixel(cx, cy) {
        BoxPosition::Inside
    } else {
        BoxPosition::Outside
    }
}

/// Whether any edge of the polygon's boundary passes through the open
/// interior `(min_x, max_x) × (min_y, max_y)` of the box. Edges lying exactly
/// on the box border do not count: they cannot separate pixel centres that
/// are inside the box.
pub fn boundary_intersects_interior(sampling_box: &Rect, poly: &RectilinearPolygon) -> bool {
    for e in poly.edges() {
        let (a, b) = (e.a, e.b);
        if a.x == b.x {
            // Vertical edge at x = a.x spanning [ylo, yhi].
            let x = a.x;
            let (ylo, yhi) = if a.y < b.y { (a.y, b.y) } else { (b.y, a.y) };
            if x > sampling_box.min_x
                && x < sampling_box.max_x
                && ylo < sampling_box.max_y
                && yhi > sampling_box.min_y
            {
                return true;
            }
        } else {
            // Horizontal edge at y = a.y spanning [xlo, xhi].
            let y = a.y;
            let (xlo, xhi) = if a.x < b.x { (a.x, b.x) } else { (b.x, a.x) };
            if y > sampling_box.min_y
                && y < sampling_box.max_y
                && xlo < sampling_box.max_x
                && xhi > sampling_box.min_x
            {
                return true;
            }
        }
    }
    false
}

/// Columns and rows of the grid a sampling box is partitioned into: as square
/// as possible for the requested fanout, cells in row-major order (the
/// `cols`, `rows` of [`Rect::subdivide`]).
pub(super) fn grid_dims(fanout: u32) -> (u32, u32) {
    let cols = (fanout as f64).sqrt().ceil() as u32;
    (cols, fanout.div_ceil(cols))
}

/// The cells of a sampling box's `cols × rows` partition grid, exactly as
/// [`Rect::subdivide`] cuts them, with the cell size divided out once per
/// grid instead of once per cell. Cells are addressed by grid row and
/// column; a row or column that [`Rect::subdivide`] would leave empty (the
/// ceiling-sized cells ran past the box) is `None`, and so is every one
/// after it.
pub(super) struct Grid {
    sampling_box: Rect,
    cols: u32,
    rows: u32,
    cell_w: i64,
    cell_h: i64,
}

impl Grid {
    /// The grid of a non-empty `sampling_box`.
    pub(super) fn new(sampling_box: &Rect, cols: u32, rows: u32) -> Self {
        Grid {
            sampling_box: *sampling_box,
            cols,
            rows,
            cell_w: (sampling_box.width() + i64::from(cols) - 1) / i64::from(cols),
            cell_h: (sampling_box.height() + i64::from(rows) - 1) / i64::from(rows),
        }
    }

    /// The y-extent `[min_y, max_y)` of grid row `row`.
    #[inline]
    pub(super) fn row(&self, row: u32) -> Option<(i32, i32)> {
        let (min, max) = (self.sampling_box.min_y, self.sampling_box.max_y);
        span(min, max, self.cell_h, row)
    }

    /// The x-extent `[min_x, max_x)` of grid column `col`.
    #[inline]
    pub(super) fn col(&self, col: u32) -> Option<(i32, i32)> {
        let (min, max) = (self.sampling_box.min_x, self.sampling_box.max_x);
        span(min, max, self.cell_w, col)
    }
}

/// Cell `k` of `size` pixels along an axis `[min, max)`, clipped to `max`.
#[inline]
fn span(min: i32, max: i32, size: i64, k: u32) -> Option<(i32, i32)> {
    let start = i64::from(min) + i64::from(k) * size;
    (start < i64::from(max)).then(|| (start as i32, (start + size).min(i64::from(max)) as i32))
}

/// The hover marks of one partition grid for one polygon: bit `idx` is set
/// when an edge of the polygon passes through the open interior of the
/// row-major cell `idx`. Grids of up to 64 cells (every fanout up to the
/// default GPU block size) live in one inline word, so marking them never
/// allocates.
#[derive(Debug, Default)]
pub(super) struct HoverMarks {
    first: u64,
    rest: Vec<u64>,
}

impl HoverMarks {
    #[inline]
    fn set(&mut self, idx: u32) {
        match idx / 64 {
            0 => self.first |= 1 << idx,
            word => self.rest[word as usize - 1] |= 1 << (idx % 64),
        }
    }

    /// Whether cell `idx` was marked.
    #[inline]
    pub(super) fn get(&self, idx: u32) -> bool {
        let word = match idx / 64 {
            0 => self.first,
            word => self.rest[word as usize - 1],
        };
        word >> (idx % 64) & 1 == 1
    }

    /// Rasterises `poly`'s boundary onto the partition `grid`: one walk
    /// along the chain marks every cell for which
    /// [`boundary_intersects_interior`] holds, in O(edges + cells the
    /// boundary passes) instead of O(edges × cells).
    ///
    /// A vertical edge passes through the open interior of the cells of one
    /// grid column — the one its x lies strictly inside — on the grid rows
    /// its y-span overlaps; a horizontal edge likewise with the axes
    /// swapped. An edge on a grid line, or outside the box, marks nothing.
    pub(super) fn mark(&mut self, grid: &Grid, poly: &RectilinearPolygon) {
        let sampling_box = &grid.sampling_box;
        self.first = 0;
        self.rest.clear();
        self.rest
            .resize(((grid.cols * grid.rows) as usize).saturating_sub(1) / 64, 0);
        if !sampling_box.intersects(&poly.mbr()) {
            return;
        }
        // Every cell but the clipped trailing ones has the grid's cell size.
        let x_axis = GridAxis {
            min: i64::from(sampling_box.min_x),
            max: i64::from(sampling_box.max_x),
            size: grid.cell_w,
            stride: 1,
        };
        let y_axis = GridAxis {
            min: i64::from(sampling_box.min_y),
            max: i64::from(sampling_box.max_y),
            size: grid.cell_h,
            stride: grid.cols,
        };
        // Closed chain: each vertex ends the edge its predecessor starts, and
        // an edge moves along one axis only.
        let vertices = poly.vertices();
        let mut a = vertices[vertices.len() - 1];
        let mut x = x_axis.place(x_axis.origin(), a.x);
        let mut y = y_axis.place(y_axis.origin(), a.y);
        // Whether `a` lies strictly inside its cell on both axes *and* that
        // cell is marked. The edge that brought the chain there marked it,
        // so an edge that stays inside the cell has nothing to add: on big
        // cells that is nearly every edge. False before the first edge, whose
        // cell the chain only enters when it closes.
        let mut settled = false;
        for &b in vertices {
            if a.x == b.x {
                let to = i64::from(b.y);
                if settled && y.start < to && to < y.end {
                    y.at = to;
                } else {
                    settled = self.cross(&y_axis, &mut y, b.y, &x_axis, x);
                }
            } else {
                let to = i64::from(b.x);
                if settled && x.start < to && to < x.end {
                    x.at = to;
                } else {
                    settled = self.cross(&x_axis, &mut x, b.x, &y_axis, y);
                }
            }
            a = b;
        }
    }

    /// Moves `moving` to coordinate `to` along its axis and marks the cells
    /// the edge passes, on the grid line `fixed` of the other axis. Returns
    /// whether the edge's end lies strictly inside a cell it marked.
    #[inline]
    fn cross(
        &mut self,
        along: &GridAxis,
        moving: &mut AxisPlace,
        to: i32,
        across: &GridAxis,
        fixed: AxisPlace,
    ) -> bool {
        let from = *moving;
        *moving = along.place(from, to);
        if !fixed.strictly_inside() {
            return false;
        }
        for cell in GridAxis::cells_between(from, *moving) {
            self.set(cell * along.stride + fixed.cell * across.stride);
        }
        moving.strictly_inside()
    }
}

/// One axis of a partition grid: the box's extent `[min, max)` cut into
/// cells of `size` pixels, the last one clipped to `max`; stepping one cell
/// along the axis moves `stride` cells in row-major order.
struct GridAxis {
    min: i64,
    max: i64,
    size: i64,
    stride: u32,
}

/// Where a coordinate, clamped to the box, falls on a [`GridAxis`]: in the
/// cell `cell`, which extends over `[start, end)`. A chain's consecutive
/// vertices lie in the same or a nearby cell, so a place is carried from
/// vertex to vertex by stepping, without a division.
#[derive(Clone, Copy)]
struct AxisPlace {
    at: i64,
    cell: u32,
    start: i64,
    end: i64,
}

impl AxisPlace {
    /// Whether the grid line at this place runs through its cell's open
    /// extent: not along a cell border and not outside the box (a coordinate
    /// clamped to the box's upper border sits on `end`).
    #[inline]
    fn strictly_inside(&self) -> bool {
        self.start < self.at && self.at < self.end
    }
}

impl GridAxis {
    fn origin(&self) -> AxisPlace {
        AxisPlace {
            at: self.min,
            cell: 0,
            start: self.min,
            end: (self.min + self.size).min(self.max),
        }
    }

    /// The place of coordinate `to`, stepping cell by cell from `from`.
    #[inline]
    fn place(&self, from: AxisPlace, to: i32) -> AxisPlace {
        let mut place = AxisPlace {
            at: i64::from(to).clamp(self.min, self.max),
            ..from
        };
        while place.at >= place.start + self.size {
            place.cell += 1;
            place.start += self.size;
        }
        while place.at < place.start {
            place.cell -= 1;
            place.start -= self.size;
        }
        place.end = (place.start + self.size).min(self.max);
        place
    }

    /// The cells whose open extent overlaps the span between two places:
    /// none when clamping collapsed the span onto one border of the box.
    /// Which end is the upper one is as good as random along a jittered
    /// boundary, so it is taken by `min`/`max` and not by a branch: the span
    /// ends in its upper end's cell, or the cell before when that end lies
    /// on the cell's lower border, and the lower end's own count never
    /// exceeds that.
    #[inline]
    fn cells_between(a: AxisPlace, b: AxisPlace) -> std::ops::Range<u32> {
        let first = a.cell.min(b.cell);
        if a.at == b.at {
            return first..first;
        }
        let end = |place: AxisPlace| place.cell + u32::from(place.at > place.start);
        first..end(a).max(end(b))
    }
}

/// [`box_position`] of one partition-grid cell, from the grid's
/// [`HoverMarks`] and the polygon's edge table instead of two edge walks: a
/// marked cell hovers, and an unmarked cell that meets the MBR is uniform, so
/// its centre pixel's crossing parity — the number of the centre row's
/// crossings to the right of the centre — decides it. `crossings` is the
/// polygon's crossing list of the cell's centre row, which every cell of a
/// grid row shares.
#[inline]
pub(super) fn cell_position(
    cell: &Rect,
    hovers: bool,
    mbr: &Rect,
    crossings: &[i32],
) -> BoxPosition {
    if hovers {
        return BoxPosition::Hover;
    }
    if !cell.intersects(mbr) {
        return BoxPosition::Outside;
    }
    let (cx, _) = cell.center_pixel();
    let to_the_right = crossings.len() - crossings.partition_point(|&x| x <= cx);
    if to_the_right % 2 == 1 {
        BoxPosition::Inside
    } else {
        BoxPosition::Outside
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sccg_datagen::{generate_tile_pair, NucleusParams, TileSpec};
    use sccg_geometry::{raster, Point};

    fn l_shape() -> RectilinearPolygon {
        RectilinearPolygon::new(vec![
            Point::new(0, 0),
            Point::new(8, 0),
            Point::new(8, 4),
            Point::new(4, 4),
            Point::new(4, 8),
            Point::new(0, 8),
        ])
        .unwrap()
    }

    /// A datagen nucleus and its re-segmentation, as the serving workloads
    /// pair them.
    fn nuclei(radius: u32, seed: u64) -> [RectilinearPolygon; 2] {
        let tile = generate_tile_pair(&TileSpec {
            width: 8 * radius,
            height: 8 * radius,
            target_polygons: 1,
            nucleus: NucleusParams {
                radius_x: radius,
                radius_y: radius,
                boundary_jitter: 1,
            },
            dropout: 0.0,
            seed,
            ..TileSpec::default()
        });
        [
            tile.first[0].polygon.clone(),
            tile.second[0].polygon.clone(),
        ]
    }

    /// Classifies every non-empty cell of `parent`'s grid both ways and
    /// returns how many cells were compared.
    fn assert_grid_equals_per_cell(parent: &Rect, fanout: u32, poly: &RectilinearPolygon) -> u32 {
        let (cols, rows) = grid_dims(fanout);
        let mut marks = HoverMarks::default();
        marks.mark(&Grid::new(parent, cols, rows), poly);
        let mut compared = 0;
        for idx in 0..cols * rows {
            let cell = parent.subdivide(cols, rows, idx);
            if cell.is_empty() {
                continue;
            }
            let centre = poly.edge_table().row_crossings(cell.center_pixel().1);
            let by_grid = cell_position(&cell, marks.get(idx), &poly.mbr(), centre);
            let by_cell = box_position(&cell, poly);
            assert_eq!(
                by_grid, by_cell,
                "cell {idx} = {cell:?} of {parent:?} at fanout {fanout}"
            );
            compared += 1;
        }
        compared
    }

    proptest! {
        #[test]
        fn grid_cells_equal_subdivide(
            origin in (-3000i32..3000, -3000i32..3000),
            size in (1i32..300, 1i32..300),
            fanout in 2u32..200,
        ) {
            let sampling_box = Rect::new(origin.0, origin.1, origin.0 + size.0, origin.1 + size.1);
            let (cols, rows) = grid_dims(fanout);
            let grid = Grid::new(&sampling_box, cols, rows);
            for idx in 0..cols * rows {
                let (row, col) = (idx / cols, idx % cols);
                let cell = match (grid.row(row), grid.col(col)) {
                    (Some((min_y, max_y)), Some((min_x, max_x))) => {
                        Rect::new(min_x, min_y, max_x, max_y)
                    }
                    _ => Rect::EMPTY,
                };
                prop_assert_eq!(cell, sampling_box.subdivide(cols, rows, idx));
            }
        }

        #[test]
        fn grid_classification_equals_per_cell_box_position(
            seed in 0u64..1 << 40,
            picks in prop::collection::vec(0u32..1 << 16, 4),
            shift in (-9i32..10, -9i32..10),
        ) {
            let mut compared = 0;
            for radius in [6u32, 32] {
                let [p, q] = nuclei(radius, seed);
                let joint = p.mbr().union(&q.mbr());
                // The scan's own parents: the joint MBR, then sub-boxes of
                // sub-boxes, whose polygons stick out on every side; and a
                // box that only partly covers the pair.
                let mut parents = vec![joint];
                for (depth, fanout) in [(0, 16u32), (1, 4)] {
                    let (cols, rows) = grid_dims(fanout);
                    let sub = parents[depth].subdivide(cols, rows, picks[depth] % fanout);
                    if !sub.is_empty() {
                        parents.push(sub);
                    }
                }
                parents.push(Rect::new(
                    joint.min_x + shift.0,
                    joint.min_y + shift.1,
                    joint.max_x + shift.0 - (picks[2] % radius) as i32,
                    joint.max_y + shift.1 - (picks[3] % radius) as i32,
                ));
                for parent in &parents {
                    for fanout in [4u32, 16, 64, 128] {
                        for poly in [&p, &q] {
                            compared += assert_grid_equals_per_cell(parent, fanout, poly);
                        }
                    }
                }
            }
            prop_assert!(compared > 1500, "only {} cells compared", compared);
        }
    }

    #[test]
    fn box_far_outside_is_outside() {
        assert_eq!(
            box_position(&Rect::new(100, 100, 104, 104), &l_shape()),
            BoxPosition::Outside
        );
    }

    #[test]
    fn box_in_notch_is_outside() {
        // The notch of the L (x,y in [5..8)x[5..8)) is outside the polygon
        // even though it is inside the polygon's MBR.
        assert_eq!(
            box_position(&Rect::new(5, 5, 8, 8), &l_shape()),
            BoxPosition::Outside
        );
    }

    #[test]
    fn box_fully_inside_is_inside() {
        assert_eq!(
            box_position(&Rect::new(1, 1, 3, 3), &l_shape()),
            BoxPosition::Inside
        );
    }

    #[test]
    fn box_straddling_boundary_hovers() {
        assert_eq!(
            box_position(&Rect::new(2, 2, 6, 6), &l_shape()),
            BoxPosition::Hover
        );
    }

    #[test]
    fn box_containing_whole_polygon_hovers() {
        // Case (c) of Figure 5: the polygon lies entirely within the box.
        assert_eq!(
            box_position(&Rect::new(-5, -5, 20, 20), &l_shape()),
            BoxPosition::Hover
        );
    }

    #[test]
    fn chord_through_box_meeting_edges_at_vertices_hovers() {
        // Regression test for the boundary-overlap pitfall: the polygon's top
        // edge slices the box in half while its endpoints lie exactly on the
        // box border. The literal Lemma 1 conditions would call this box
        // uniform; the conservative test must report Hover (or the area would
        // be wrong by half the box).
        let poly = RectilinearPolygon::rectangle(Rect::new(0, 0, 4, 2)).unwrap();
        let b = Rect::new(0, 0, 4, 4);
        assert_eq!(box_position(&b, &poly), BoxPosition::Hover);
    }

    #[test]
    fn polygon_edge_on_box_border_does_not_force_hover() {
        // A polygon sharing only a border with the box must still resolve to
        // Outside (no interior pixels are affected).
        let poly = RectilinearPolygon::rectangle(Rect::new(4, 0, 8, 4)).unwrap();
        let b = Rect::new(0, 0, 4, 4);
        assert_eq!(box_position(&b, &poly), BoxPosition::Outside);
        // And the symmetric case where the box lies inside the polygon and
        // shares its left border.
        let poly = RectilinearPolygon::rectangle(Rect::new(0, 0, 8, 8)).unwrap();
        assert_eq!(box_position(&b, &poly), BoxPosition::Inside);
    }

    #[test]
    fn classification_is_consistent_with_pixel_counts() {
        // For a grid of small boxes over the L shape's neighbourhood, Inside
        // must mean "all pixels inside", Outside "no pixels inside".
        let poly = l_shape();
        for bx in -1..9 {
            for by in -1..9 {
                for (w, h) in [(2, 2), (3, 1), (1, 3), (4, 4)] {
                    let sampling_box = Rect::new(bx, by, bx + w, by + h);
                    let inside_pixels = raster::pixels_inside(&poly, &sampling_box);
                    match box_position(&sampling_box, &poly) {
                        BoxPosition::Inside => assert_eq!(
                            inside_pixels,
                            sampling_box.pixel_count(),
                            "{sampling_box:?}"
                        ),
                        BoxPosition::Outside => {
                            assert_eq!(inside_pixels, 0, "{sampling_box:?}")
                        }
                        BoxPosition::Hover => { /* will be partitioned further */ }
                    }
                }
            }
        }
    }

    #[test]
    fn single_pixel_boxes_are_exact() {
        let poly = l_shape();
        for x in -1..9 {
            for y in -1..9 {
                let b = Rect::new(x, y, x + 1, y + 1);
                let expected_inside = poly.contains_pixel(x, y);
                match box_position(&b, &poly) {
                    BoxPosition::Inside => assert!(expected_inside),
                    BoxPosition::Outside => assert!(!expected_inside),
                    BoxPosition::Hover => {
                        // Acceptable: pixelization of a hover box tests the
                        // single pixel directly and stays exact.
                    }
                }
            }
        }
    }
}
