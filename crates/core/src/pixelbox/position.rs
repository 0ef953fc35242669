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
///
/// A grid of up to 8 × 8 cells over a box less than [`TABLE`] pixels a side
/// also fills the lookup tables of [`HoverMarks::mark`]'s fast walk. A grid
/// is reset in place for each partition, so a warm one allocates nothing.
pub(super) struct Grid {
    sampling_box: Rect,
    cols: u32,
    rows: u32,
    x: GridAxis,
    y: GridAxis,
    /// The fast walk's tables, allocated by the first grid that uses them.
    tables: Option<Box<WalkTables>>,
    /// Whether `tables` hold this grid's entries.
    tabled: bool,
}

/// Entries of a [`WalkTables`] axis table: a power of two, so that an
/// offset masked to it is in bounds without a check.
const TABLE: usize = 2048;

/// The most cells a side of a grid with [`WalkTables`]: 64 cells in all, and
/// codes up to 16.
const TABLE_CELLS: u32 = 8;

/// Entries of a [`WalkTables`] span table: the span between codes `a` and
/// `b` sits at `a × 32 + b`, a power of two for the same reason.
const SPANS: usize = 1024;

/// The fast walk's lookup tables for one grid.
///
/// For each offset from the box's lower border, an axis keeps its
/// [`GridAxis::code`] and the cells a grid line through it marks along the
/// other axis: for the x axis, column `col`'s bit in grid row 0; for the y
/// axis, row `row`'s bit in grid column 0; or 0 when the line runs along a
/// cell border. The span tables hold, for every two codes of an
/// axis, the cells between them ([`cells_between`]) as a mask in grid
/// column 0 (`down`, for vertical edges) or grid row 0 (`across`), so an
/// edge's cells are its span times its line's cells.
///
/// `x_centres` serves [`Grid::row_positions`].
struct WalkTables {
    x_codes: [u8; TABLE],
    x_lines: [u64; TABLE],
    /// For each x offset, the number of grid columns whose centre pixel lies
    /// left of it: the columns a boundary crossing there leaves unflipped.
    x_centres: [u8; TABLE],
    y_codes: [u8; TABLE],
    y_lines: [u64; TABLE],
    down: [u64; SPANS],
    across: [u64; SPANS],
    /// The `(cols, rows)` the span tables were filled for.
    shape: (u32, u32),
}

impl Default for Grid {
    /// An empty grid, for [`Grid::reset`] to fill.
    fn default() -> Self {
        Grid {
            sampling_box: Rect::EMPTY,
            cols: 0,
            rows: 0,
            x: GridAxis::default(),
            y: GridAxis::default(),
            tables: None,
            tabled: false,
        }
    }
}

impl Grid {
    /// The grid of a non-empty `sampling_box`.
    #[cfg(test)]
    fn new(sampling_box: &Rect, cols: u32, rows: u32) -> Self {
        let mut grid = Grid::default();
        grid.reset(sampling_box, cols, rows);
        grid
    }

    /// Makes this the grid of a non-empty `sampling_box`, reusing the
    /// tables' storage.
    pub(super) fn reset(&mut self, sampling_box: &Rect, cols: u32, rows: u32) {
        let b = sampling_box;
        self.sampling_box = *b;
        self.cols = cols;
        self.rows = rows;
        self.x = GridAxis::new(b.min_x, b.max_x, cols);
        self.y = GridAxis::new(b.min_y, b.max_y, rows);
        let fits = |extent: i64| extent < TABLE as i64;
        self.tabled = cols.max(rows) <= TABLE_CELLS && fits(b.width()) && fits(b.height());
        if !self.tabled {
            return;
        }
        let tables = self.tables.get_or_insert_with(|| {
            Box::new(WalkTables {
                x_codes: [0; TABLE],
                x_lines: [0; TABLE],
                x_centres: [0; TABLE],
                y_codes: [0; TABLE],
                y_lines: [0; TABLE],
                down: [0; SPANS],
                across: [0; SPANS],
                shape: (0, 0),
            })
        });
        self.x.fill(&mut tables.x_codes, &mut tables.x_lines, 1);
        self.x.fill_centres(&mut tables.x_centres);
        self.y.fill(&mut tables.y_codes, &mut tables.y_lines, cols);
        if tables.shape != (cols, rows) {
            tables.shape = (cols, rows);
            fill_spans(&mut tables.down, rows, |cell| 1 << (cell * cols));
            fill_spans(&mut tables.across, cols, |cell| 1 << cell);
        }
    }

    /// The y-extent `[min_y, max_y)` of grid row `row`.
    #[inline]
    pub(super) fn row(&self, row: u32) -> Option<(i32, i32)> {
        self.y.span(row)
    }

    /// The x-extent `[min_x, max_x)` of grid column `col`.
    #[inline]
    pub(super) fn col(&self, col: u32) -> Option<(i32, i32)> {
        self.x.span(col)
    }

    /// The number of non-empty cells.
    pub(super) fn cells(&self) -> usize {
        self.x.used as usize * self.y.used as usize
    }

    /// The number of non-empty grid columns.
    pub(super) fn used_cols(&self) -> u32 {
        self.x.used
    }

    /// The pixels of a full-sized cell, the grid's largest.
    pub(super) fn full_cell_pixels(&self) -> i64 {
        (self.x.size * self.y.size) as i64
    }

    /// The columns `64 × word + bit`, for the set bits of `cells`, as
    /// `(width, count)` groups: the full-width columns, then the last one,
    /// which the box may clip.
    pub(super) fn widths(&self, word: u32, cells: u64) -> [(i64, u32); 2] {
        let last = self.x.used - 1;
        let last_bit = if last / 64 == word {
            1 << (last % 64)
        } else {
            0
        };
        let size = self.x.size as i64;
        let last_width = self.x.max - (self.x.min + i64::from(last) * size);
        [
            (size, (cells & !last_bit).count_ones()),
            (last_width, (cells & last_bit).count_ones()),
        ]
    }

    /// The positions relative to one polygon of grid row `row`'s cells in
    /// columns `64 × word..`, up to 64 of them (the row's non-empty ones):
    /// a cell hovers when `marks` marked it, and is otherwise uniform, so
    /// its centre pixel's crossing parity — the number of the centre row's
    /// `crossings` up to the centre — decides it (this is [`box_position`]
    /// from the marks and the edge table instead of two edge walks). Every
    /// cell of a grid row has the same centre row.
    ///
    /// With the walk's tables, each crossing flips the parity of every
    /// column whose centre lies at or right of it, all columns at once.
    pub(super) fn row_positions(
        &self,
        row: u32,
        word: u32,
        marks: &HoverMarks,
        crossings: &[i32],
    ) -> RowPositions {
        let first = 64 * word;
        let valid = below((self.x.used - first).min(64));
        let mut inside = 0;
        match self.tables.as_deref().filter(|_| self.tabled) {
            Some(tables) => {
                let extent = self.x.max - self.x.min;
                for &x in crossings {
                    let offset = (i64::from(x) - self.x.min).max(0).min(extent);
                    inside ^= !below(u32::from(tables.x_centres[offset as usize & (TABLE - 1)]));
                }
            }
            None => {
                for col in first..(first + 64).min(self.x.used) {
                    let (min_x, max_x) = self.col(col).expect("a non-empty column");
                    // The centre pixel's x, as `Rect::center_pixel` takes it.
                    let (min_x, max_x) = (i64::from(min_x), i64::from(max_x));
                    let cx = (min_x + (max_x - min_x) / 2) as i32;
                    let up_to_centre = crossings.partition_point(|&x| x <= cx);
                    inside |= ((up_to_centre % 2) as u64) << (col - first);
                }
            }
        }
        let hover = marks.word(row, word);
        RowPositions {
            hover,
            inside: inside & valid & !hover,
        }
    }
}

/// The positions of up to 64 cells of one grid row relative to one polygon,
/// a bit per cell: [`BoxPosition::Hover`] in `hover`, [`BoxPosition::Inside`]
/// in `inside`, and [`BoxPosition::Outside`] in neither.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct RowPositions {
    pub(super) hover: u64,
    pub(super) inside: u64,
}

impl RowPositions {
    /// Records `position` for the cell at bit `bit`.
    pub(super) fn set(&mut self, bit: u32, position: BoxPosition) {
        match position {
            BoxPosition::Hover => self.hover |= 1 << bit,
            BoxPosition::Inside => self.inside |= 1 << bit,
            BoxPosition::Outside => {}
        }
    }
}

/// Fills `spans` with the cells between every two codes `a` and `b` of an
/// axis of `cells` cells, at `a × 32 + b`, as the sum of `bit(cell)` over
/// those cells.
fn fill_spans(spans: &mut [u64; SPANS], cells: u32, bit: impl Fn(u32) -> u64) {
    let codes = 2 * cells + 1;
    for a in 0..codes {
        for b in 0..codes {
            let (first, end) = cells_between(a, b);
            spans[(a << 5 | b) as usize] = (first..end).map(&bit).sum();
        }
    }
}

/// One axis of a partition grid: the box's extent `[min, max)` cut into
/// `used` non-empty cells of `size` pixels, the last one clipped to `max`.
#[derive(Default)]
struct GridAxis {
    min: i64,
    max: i64,
    size: u64,
    used: u32,
}

impl GridAxis {
    /// The axis `[min, max)` cut into `cells` cells of the ceiling size.
    fn new(min: i32, max: i32, cells: u32) -> Self {
        let (min, max) = (i64::from(min), i64::from(max));
        // A box's extent fits a `u32`.
        let extent = (max - min) as u32;
        let size = extent.div_ceil(cells);
        GridAxis {
            min,
            max,
            size: u64::from(size),
            used: extent.div_ceil(size),
        }
    }

    /// Cell `k`'s extent, clipped to `max`; `None` past the last cell.
    #[inline]
    fn span(&self, k: u32) -> Option<(i32, i32)> {
        let start = self.min + i64::from(k) * self.size as i64;
        (start < self.max).then(|| {
            (
                start as i32,
                (start + self.size as i64).min(self.max) as i32,
            )
        })
    }

    /// Where coordinate `at`, clamped to the box, falls: `2k + 1` strictly
    /// inside cell `k`, and `2k` on grid line `k`, the lower border of cell
    /// `k`. The box's upper border is line `used`.
    #[inline]
    fn code(&self, at: i32) -> u32 {
        let offset = (i64::from(at).max(self.min).min(self.max) - self.min) as u64;
        if offset == (self.max - self.min) as u64 {
            return 2 * self.used;
        }
        2 * (offset / self.size) as u32 + u32::from(!offset.is_multiple_of(self.size))
    }

    /// Fills the table entries of the offsets `0..=max - min`: each cell's
    /// first offset lies on its lower grid line, the rest inside it, where a
    /// line marks the cell bit `1 << (k × stride)` of cell `k`, and the last
    /// offset on the box's upper border.
    fn fill(&self, codes: &mut [u8; TABLE], lines: &mut [u64; TABLE], stride: u32) {
        let (extent, size) = ((self.max - self.min) as usize, self.size as usize);
        for cell in 0..self.used {
            let start = cell as usize * size;
            let end = (start + size).min(extent);
            codes[start] = 2 * cell as u8;
            lines[start] = 0;
            codes[start + 1..end].fill(2 * cell as u8 + 1);
            lines[start + 1..end].fill(1 << (cell * stride));
        }
        codes[extent] = 2 * self.used as u8;
        lines[extent] = 0;
    }

    /// Fills `centres[offset]`, for the offsets `0..=max - min`, with the
    /// number of cells whose centre pixel lies below the offset.
    fn fill_centres(&self, centres: &mut [u8; TABLE]) {
        let (extent, size) = ((self.max - self.min) as usize, self.size as usize);
        let mut from = 0;
        for cell in 0..self.used as usize {
            let start = cell * size;
            let centre = start + (size.min(extent - start)) / 2;
            centres[from..=centre].fill(cell as u8);
            from = centre + 1;
        }
        centres[from..=extent].fill(self.used as u8);
    }
}

/// The low `bits` bits set, for `bits` up to 64, without a branch.
#[inline]
pub(super) fn below(bits: u32) -> u64 {
    ((1u64 << (bits & 63)) - 1) | u64::from(bits >> 6).wrapping_neg()
}

/// The cells `first..end` whose open extent overlaps the span between two
/// coded coordinates: from the lower end's cell (or the cell above its grid
/// line) up to the upper end's cell (or the cell below its grid line). Two
/// ends on one grid line span no cell.
#[inline]
fn cells_between(a: u32, b: u32) -> (u32, u32) {
    (a.min(b) >> 1, (a.max(b) + 1) >> 1)
}

/// The hover marks of one partition grid for one polygon: cell `(row, col)`
/// is marked when an edge of the polygon passes through its open interior.
/// The marks are kept as one line of `cols` bits per grid row, in as many
/// words as a row needs (one at every fanout up to 4096), and reused from
/// mark to mark, so a warm `HoverMarks` marks without allocating.
#[derive(Debug, Default)]
pub(super) struct HoverMarks {
    /// Row `row`'s line, words `row * words..`: bit `col` is set when cell
    /// `(row, col)` is marked.
    rows: Vec<u64>,
    words: usize,
    /// A grid of more than 64 cells marks its vertical edges here first,
    /// one line of `rows` bits per column.
    columns: Vec<u64>,
}

impl HoverMarks {
    /// The marks of grid row `row`'s columns `64 × word..`.
    #[inline]
    pub(super) fn word(&self, row: u32, word: u32) -> u64 {
        self.rows[row as usize * self.words + word as usize]
    }

    /// Rasterises `poly`'s boundary onto the partition `grid`: one walk
    /// along the chain marks every cell for which
    /// [`boundary_intersects_interior`] holds, in O(edges + cells) instead
    /// of O(edges × cells).
    ///
    /// A vertical edge passes through the open interior of the cells of one
    /// grid column — the one its x lies strictly inside — on the grid rows
    /// its y-span overlaps; a horizontal edge likewise with the axes
    /// swapped. An edge on a grid line, or outside the box, marks nothing.
    /// A grid with tables (every partition at the default block size) runs
    /// the table walk, [`packed_walk`]; any other grid codes each vertex by
    /// division.
    pub(super) fn mark(&mut self, grid: &Grid, poly: &RectilinearPolygon) {
        let (cols, rows) = (grid.cols as usize, grid.rows as usize);
        self.words = cols.div_ceil(64);
        self.rows.clear();
        self.rows.resize(rows * self.words, 0);
        if !grid.sampling_box.intersects(&poly.mbr()) {
            return;
        }
        let Some(tables) = grid.tables.as_deref().filter(|_| grid.tabled) else {
            self.mark_lines(grid, poly);
            return;
        };
        // The walk needs no clamping when the box holds the polygon, as
        // the first partition's box, the pair's joint MBR, holds both.
        let first_vertical = poly.vertices()[0].x == poly.vertices()[1].x;
        let bits = match (first_vertical, grid.sampling_box.contains_rect(&poly.mbr())) {
            (true, true) => packed_walk::<true, false>(grid, tables, poly),
            (true, false) => packed_walk::<true, true>(grid, tables, poly),
            (false, true) => packed_walk::<false, false>(grid, tables, poly),
            (false, false) => packed_walk::<false, true>(grid, tables, poly),
        };
        let row_bits = !(u64::MAX << cols);
        for (row, line) in self.rows.iter_mut().enumerate() {
            *line = bits >> (row * cols) & row_bits;
        }
    }

    /// [`HoverMarks::mark`] on a grid without tables: every vertex coded by
    /// division, and every edge's cells set bit by bit.
    fn mark_lines(&mut self, grid: &Grid, poly: &RectilinearPolygon) {
        let (cols, rows) = (grid.cols as usize, grid.rows as usize);
        let col_words = rows.div_ceil(64);
        self.columns.clear();
        self.columns.resize(cols * col_words, 0);
        // A coordinate on the box's upper border may name the line past the
        // last cell; it is never strictly inside, so it needs no line.
        let vertices = poly.vertices();
        let mut a = vertices[vertices.len() - 1];
        for &b in vertices {
            let (ax, ay) = (grid.x.code(a.x), grid.y.code(a.y));
            let (bx, by) = (grid.x.code(b.x), grid.y.code(b.y));
            let (line, words, (first, end), fixed) = if a.x == b.x {
                (&mut self.columns, col_words, cells_between(ay, by), ax)
            } else {
                (&mut self.rows, self.words, cells_between(ax, bx), ay)
            };
            if fixed & 1 == 1 {
                let start = (fixed >> 1) as usize * words;
                for bit in first as usize..end as usize {
                    line[start + bit / 64] |= 1 << (bit % 64);
                }
            }
            a = b;
        }
        for col in 0..cols {
            for row in 0..rows {
                if self.columns[col * col_words + row / 64] >> (row % 64) & 1 == 1 {
                    self.rows[row * self.words + col / 64] |= 1 << (col % 64);
                }
            }
        }
    }
}

/// The marks of a grid of up to 8 × 8 cells, row-major in one word, from the
/// grid's tables. Edges alternate between the two orientations, so the
/// walk takes them two at a time — the closing edge's kind, then
/// `FIRST_VERTICAL`'s — and each vertex moves along one axis only: a vertex
/// is looked up on that axis alone, and no edge takes a branch. `CLAMP`
/// clamps vertices to the box first; a box that holds the polygon needs
/// none.
fn packed_walk<const FIRST_VERTICAL: bool, const CLAMP: bool>(
    grid: &Grid,
    tables: &WalkTables,
    poly: &RectilinearPolygon,
) -> u64 {
    let offset = |at: i32, axis: &GridAxis| {
        let offset = i64::from(at) - axis.min;
        let offset = if CLAMP {
            offset.max(0).min(axis.max - axis.min)
        } else {
            offset
        };
        offset as usize & (TABLE - 1)
    };
    // A coordinate's table offset and code.
    let x_at = |x: i32| {
        let at = offset(x, &grid.x);
        (at, u32::from(tables.x_codes[at]))
    };
    let y_at = |y: i32| {
        let at = offset(y, &grid.y);
        (at, u32::from(tables.y_codes[at]))
    };
    // The cells of an edge running from code `a` to code `b` along one axis
    // on the grid line at `line`'s offset along the other.
    let down = |a: u32, b: u32, line: usize| {
        tables.down[(a << 5 | b) as usize & (SPANS - 1)] * tables.x_lines[line]
    };
    let across = |a: u32, b: u32, line: usize| {
        tables.across[(a << 5 | b) as usize & (SPANS - 1)] * tables.y_lines[line]
    };
    let vertices = poly.vertices();
    let last = vertices[vertices.len() - 1];
    let (mut x, mut y) = (x_at(last.x), y_at(last.y));
    let mut bits = 0u64;
    for chunk in vertices.chunks_exact(2) {
        if FIRST_VERTICAL {
            // Across to `chunk[0]`, then down to `chunk[1]`.
            let to_x = x_at(chunk[0].x);
            let to_y = y_at(chunk[1].y);
            bits |= across(x.1, to_x.1, y.0) | down(y.1, to_y.1, to_x.0);
            (x, y) = (to_x, to_y);
        } else {
            // Down to `chunk[0]`, then across to `chunk[1]`.
            let to_y = y_at(chunk[0].y);
            let to_x = x_at(chunk[1].x);
            bits |= down(y.1, to_y.1, x.0) | across(x.1, to_x.1, to_y.0);
            (x, y) = (to_x, to_y);
        }
    }
    bits
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

    const FANOUTS: [u32; 4] = [4, 16, 64, 128];

    /// A nucleus pair of `radius` and the scan's own parents over it: the
    /// joint MBR, then sub-boxes of sub-boxes, whose polygons stick out on
    /// every side; and a box that only partly covers the pair.
    fn scan_parents(
        radius: u32,
        seed: u64,
        picks: &[u32],
        shift: (i32, i32),
    ) -> ([RectilinearPolygon; 2], Vec<Rect>) {
        let [p, q] = nuclei(radius, seed);
        let joint = p.mbr().union(&q.mbr());
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
        ([p, q], parents)
    }

    /// Classifies every non-empty cell of `parent`'s grid both ways and
    /// returns how many cells were compared. `marks` is reused from grid to
    /// grid, as the scan's per-thread scratch is.
    fn assert_grid_equals_per_cell(
        parent: &Rect,
        fanout: u32,
        poly: &RectilinearPolygon,
        marks: &mut HoverMarks,
    ) -> u32 {
        let (cols, rows) = grid_dims(fanout);
        let grid = Grid::new(parent, cols, rows);
        marks.mark(&grid, poly);
        let mut compared = 0;
        for idx in 0..cols * rows {
            let cell = parent.subdivide(cols, rows, idx);
            if cell.is_empty() {
                continue;
            }
            let (row, col) = (idx / cols, idx % cols);
            let centre = poly.edge_table().row_crossings(cell.center_pixel().1);
            let mut by_cell = RowPositions::default();
            by_cell.set(col % 64, box_position(&cell, poly));
            let by_grid = grid.row_positions(row, col / 64, marks, centre);
            let bit = 1 << (col % 64);
            assert_eq!(
                (by_grid.hover & bit, by_grid.inside & bit),
                (by_cell.hover, by_cell.inside),
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
            let mut inputs = Vec::from([6u32, 32].map(|r| scan_parents(r, seed, &picks, shift)));
            // A pair scaled past the walk tables, so every fanout marks by
            // division.
            let scaled = nuclei(32, seed).map(|poly| poly.scale(40).expect("scaled nucleus"));
            let joint = scaled[0].mbr().union(&scaled[1].mbr());
            prop_assert!(joint.width().min(joint.height()) >= TABLE as i64);
            inputs.push((scaled, vec![joint]));
            let mut compared = 0;
            let mut marks = HoverMarks::default();
            let grids = inputs
                .iter()
                .flat_map(|(pair, parents)| parents.iter().map(move |parent| (pair, parent)));
            for ([p, q], parent) in grids {
                for fanout in FANOUTS {
                    for poly in [p, q] {
                        compared += assert_grid_equals_per_cell(parent, fanout, poly, &mut marks);
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
