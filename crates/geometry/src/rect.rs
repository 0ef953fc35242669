//! Axis-aligned rectangles on the pixel grid.
//!
//! A [`Rect`] covers the half-open pixel range `[min_x, max_x) × [min_y, max_y)`:
//! it contains `(max_x - min_x) * (max_y - min_y)` pixels. Rectangles serve two
//! roles in the system: minimum bounding rectangles (MBRs) of polygons, and the
//! *sampling boxes* recursively partitioned by the PixelBox algorithm (§3.2).

use crate::point::Point;

/// An axis-aligned rectangle covering the half-open pixel range
/// `[min_x, max_x) × [min_y, max_y)`.
///
/// An *empty* rectangle has `max_x <= min_x` or `max_y <= min_y` and contains
/// no pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Inclusive lower x bound.
    pub min_x: i32,
    /// Inclusive lower y bound.
    pub min_y: i32,
    /// Exclusive upper x bound.
    pub max_x: i32,
    /// Exclusive upper y bound.
    pub max_y: i32,
}

impl Rect {
    /// Creates a rectangle from bounds. Bounds are not reordered; callers that
    /// may pass unordered bounds should use [`Rect::from_corners`].
    #[inline]
    pub const fn new(min_x: i32, min_y: i32, max_x: i32, max_y: i32) -> Self {
        Rect {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// Creates a rectangle spanning two arbitrary corner points.
    #[inline]
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect {
            min_x: a.x.min(b.x),
            min_y: a.y.min(b.y),
            max_x: a.x.max(b.x),
            max_y: a.y.max(b.y),
        }
    }

    /// The empty rectangle positioned so that any union with it yields the
    /// other operand unchanged.
    pub const EMPTY: Rect = Rect {
        min_x: i32::MAX,
        min_y: i32::MAX,
        max_x: i32::MIN,
        max_y: i32::MIN,
    };

    /// Width in pixels (zero when empty).
    #[inline]
    pub fn width(&self) -> i64 {
        (i64::from(self.max_x) - i64::from(self.min_x)).max(0)
    }

    /// Height in pixels (zero when empty).
    #[inline]
    pub fn height(&self) -> i64 {
        (i64::from(self.max_y) - i64::from(self.min_y)).max(0)
    }

    /// Number of pixels contained in the rectangle (`BoxSize` in Algorithm 1).
    #[inline]
    pub fn pixel_count(&self) -> i64 {
        self.width() * self.height()
    }

    /// `true` when the rectangle contains no pixels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.max_x <= self.min_x || self.max_y <= self.min_y
    }

    /// Tests whether the interiors of two rectangles share at least one pixel.
    /// This is the `&&` MBR-overlap predicate used by the optimized
    /// cross-comparing query (Figure 1(b)).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min_x < other.max_x
            && other.min_x < self.max_x
            && self.min_y < other.max_y
            && other.min_y < self.max_y
    }

    /// The rectangle covering the pixels shared by both operands.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Rect {
        Rect {
            min_x: self.min_x.max(other.min_x),
            min_y: self.min_y.max(other.min_y),
            max_x: self.max_x.min(other.max_x),
            max_y: self.max_y.min(other.max_y),
        }
    }

    /// The smallest rectangle covering both operands.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// Whether `other` lies entirely within `self` (both treated as pixel sets).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.is_empty()
            || (self.min_x <= other.min_x
                && self.min_y <= other.min_y
                && self.max_x >= other.max_x
                && self.max_y >= other.max_y)
    }

    /// Whether the pixel with lower-left corner `(x, y)` lies inside the rectangle.
    #[inline]
    pub fn contains_pixel(&self, x: i32, y: i32) -> bool {
        x >= self.min_x && x < self.max_x && y >= self.min_y && y < self.max_y
    }

    /// Whether a grid point lies *strictly* inside the rectangle's interior
    /// (not on its boundary). Used by Lemma 1 condition (ii): a polygon vertex
    /// on the border of a sampling box does not force further partitioning.
    #[inline]
    pub fn strictly_contains_point(&self, p: Point) -> bool {
        p.x > self.min_x && p.x < self.max_x && p.y > self.min_y && p.y < self.max_y
    }

    /// The centre of the rectangle expressed as the pixel whose centre is
    /// closest to the geometric centre (used by Lemma 1 condition (iii)).
    ///
    /// The midpoint is taken in `i64`, so a rectangle wider or taller than
    /// `i32::MAX` cannot overflow; the result lies between the bounds.
    #[inline]
    pub fn center_pixel(&self) -> (i32, i32) {
        let mid = |lo: i32, hi: i32| (i64::from(lo) + (i64::from(hi) - i64::from(lo)) / 2) as i32;
        (mid(self.min_x, self.max_x), mid(self.min_y, self.max_y))
    }

    /// Enumerates the pixels of the rectangle in row-major order, returning the
    /// pixel with linear index `idx`, or `None` when out of range. This is the
    /// indexing scheme threads use during the pixelization phase
    /// (`PixelInPoly(box, j, p)` in Algorithm 1).
    #[inline]
    pub fn pixel_at(&self, idx: i64) -> Option<(i32, i32)> {
        if idx < 0 || idx >= self.pixel_count() {
            return None;
        }
        let w = self.width();
        let row = idx / w;
        let col = idx % w;
        Some((self.min_x + col as i32, self.min_y + row as i32))
    }

    /// Iterator over all pixels in row-major order.
    pub fn pixels(&self) -> impl Iterator<Item = (i32, i32)> + '_ {
        let r = *self;
        (0..r.pixel_count()).map(move |i| r.pixel_at(i).expect("index in range"))
    }

    /// Splits the rectangle into a `cols × rows` grid of sub-rectangles
    /// (`SubSampBox` in Algorithm 1). The sub-rectangle with linear index
    /// `idx` (row-major) is returned; indices past the grid return an empty
    /// rectangle so that surplus threads contribute nothing.
    pub fn subdivide(&self, cols: u32, rows: u32, idx: u32) -> Rect {
        if cols == 0 || rows == 0 || idx >= cols * rows || self.is_empty() {
            return Rect::EMPTY;
        }
        let col = idx % cols;
        let row = idx / cols;
        let w = self.width();
        let h = self.height();
        // Ceiling division so the grid always covers the whole rectangle even
        // when the dimensions do not divide evenly; trailing cells may be empty.
        let cell_w = (w + i64::from(cols) - 1) / i64::from(cols);
        let cell_h = (h + i64::from(rows) - 1) / i64::from(rows);
        let min_x = i64::from(self.min_x) + i64::from(col) * cell_w;
        let min_y = i64::from(self.min_y) + i64::from(row) * cell_h;
        let max_x = (min_x + cell_w).min(i64::from(self.max_x));
        let max_y = (min_y + cell_h).min(i64::from(self.max_y));
        if min_x >= i64::from(self.max_x) || min_y >= i64::from(self.max_y) {
            return Rect::EMPTY;
        }
        Rect {
            min_x: min_x as i32,
            min_y: min_y as i32,
            max_x: max_x as i32,
            max_y: max_y as i32,
        }
    }

    /// The four corner points of the rectangle in counter-clockwise order
    /// starting at `(min_x, min_y)`.
    #[inline]
    pub fn corners(&self) -> [Point; 4] {
        [
            Point::new(self.min_x, self.min_y),
            Point::new(self.max_x, self.min_y),
            Point::new(self.max_x, self.max_y),
            Point::new(self.min_x, self.max_y),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixel_count_and_emptiness() {
        let r = Rect::new(2, 3, 5, 7);
        assert_eq!(r.width(), 3);
        assert_eq!(r.height(), 4);
        assert_eq!(r.pixel_count(), 12);
        assert!(!r.is_empty());
        assert!(Rect::new(5, 3, 5, 7).is_empty());
        assert!(Rect::EMPTY.is_empty());
        assert_eq!(Rect::EMPTY.pixel_count(), 0);
    }

    #[test]
    fn from_corners_normalizes() {
        let r = Rect::from_corners(Point::new(5, 1), Point::new(2, 8));
        assert_eq!(r, Rect::new(2, 1, 5, 8));
    }

    #[test]
    fn intersection_and_union() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 15, 15);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), Rect::new(5, 5, 10, 10));
        assert_eq!(a.union(&b), Rect::new(0, 0, 15, 15));

        let c = Rect::new(10, 0, 20, 10);
        // Touching edges share no pixel: the MBR predicate must be exclusive.
        assert!(!a.intersects(&c));
        assert!(a.intersection(&c).is_empty());
    }

    #[test]
    fn union_with_empty_is_identity() {
        let a = Rect::new(1, 2, 3, 4);
        assert_eq!(a.union(&Rect::EMPTY), a);
        assert_eq!(Rect::EMPTY.union(&a), a);
    }

    #[test]
    fn containment() {
        let outer = Rect::new(0, 0, 10, 10);
        assert!(outer.contains_rect(&Rect::new(2, 2, 8, 8)));
        assert!(outer.contains_rect(&outer));
        assert!(!outer.contains_rect(&Rect::new(2, 2, 11, 8)));
        assert!(outer.contains_pixel(0, 0));
        assert!(outer.contains_pixel(9, 9));
        assert!(!outer.contains_pixel(10, 5));
        assert!(outer.strictly_contains_point(Point::new(5, 5)));
        assert!(!outer.strictly_contains_point(Point::new(0, 5)));
        assert!(!outer.strictly_contains_point(Point::new(10, 10)));
    }

    #[test]
    fn pixel_indexing_round_trips() {
        let r = Rect::new(3, 4, 6, 6); // 3 wide, 2 tall
        let pixels: Vec<_> = r.pixels().collect();
        assert_eq!(pixels, vec![(3, 4), (4, 4), (5, 4), (3, 5), (4, 5), (5, 5)]);
        assert_eq!(r.pixel_at(0), Some((3, 4)));
        assert_eq!(r.pixel_at(5), Some((5, 5)));
        assert_eq!(r.pixel_at(6), None);
        assert_eq!(r.pixel_at(-1), None);
    }

    #[test]
    fn subdivision_covers_all_pixels_exactly_once() {
        let r = Rect::new(0, 0, 7, 5);
        let mut seen = std::collections::HashSet::new();
        for idx in 0..16 {
            let sub = r.subdivide(4, 4, idx);
            for p in sub.pixels() {
                assert!(seen.insert(p), "pixel {p:?} covered twice");
                assert!(r.contains_pixel(p.0, p.1));
            }
        }
        assert_eq!(seen.len() as i64, r.pixel_count());
    }

    #[test]
    fn subdivision_out_of_range_is_empty() {
        let r = Rect::new(0, 0, 8, 8);
        assert!(r.subdivide(2, 2, 4).is_empty());
        assert!(r.subdivide(0, 2, 0).is_empty());
        assert!(Rect::EMPTY.subdivide(2, 2, 0).is_empty());
    }

    #[test]
    fn center_pixel_lies_inside_nonempty_rect() {
        let r = Rect::new(10, 20, 13, 27);
        let (cx, cy) = r.center_pixel();
        assert!(r.contains_pixel(cx, cy));
        // Wider and taller than i32::MAX: `max - min` overflows i32.
        let full = Rect::new(i32::MIN, i32::MIN, i32::MAX, i32::MAX);
        let (cx, cy) = full.center_pixel();
        assert!(full.contains_pixel(cx, cy));
        assert_eq!((cx, cy), (-1, -1));
    }

    #[test]
    fn corners_are_in_ccw_order() {
        let r = Rect::new(1, 2, 4, 6);
        let c = r.corners();
        assert_eq!(c[0], Point::new(1, 2));
        assert_eq!(c[2], Point::new(4, 6));
    }
}
