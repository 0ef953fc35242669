//! Line-oriented text format for segmented polygon files.
//!
//! Segmentation pipelines exchange results as plain-text polygon files, one
//! polygon per line (paper §2.1, §4.1: "The parser loads polygon files and
//! transforms the format of polygons from text to binaries"). The format used
//! here is:
//!
//! ```text
//! <id> <vertex-count> <x0> <y0> <x1> <y1> ... <x(n-1)> <y(n-1)>
//! ```
//!
//! with whitespace-separated decimal integers, `#`-prefixed comment lines and
//! blank lines ignored. The parser is deliberately written as a simple
//! character-level scanner (a small finite state machine), because that is
//! the workload the paper's parser stage and its GPU port execute (§4.2).

use crate::error::GeometryError;
use crate::point::Point;
use crate::polygon::RectilinearPolygon;
use crate::Result;
use std::fmt::Write as _;

/// A polygon record as stored in a polygon file: a stable identifier plus the
/// boundary geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolygonRecord {
    /// Identifier of the segmented object within its tile.
    pub id: u64,
    /// Boundary polygon.
    pub polygon: RectilinearPolygon,
}

/// Serializes a set of polygon records into the text format.
pub fn write_polygon_file(records: &[PolygonRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        let _ = write!(out, "{} {}", rec.id, rec.polygon.vertex_count());
        for v in rec.polygon.vertices() {
            let _ = write!(out, " {} {}", v.x, v.y);
        }
        out.push('\n');
    }
    out
}

/// Parses a polygon file, returning the records in file order.
///
/// # Errors
///
/// Returns [`GeometryError::Parse`] with a 1-based line number for malformed
/// records, and propagates polygon validation errors (wrapped as parse
/// errors) for geometrically invalid boundaries.
pub fn parse_polygon_file(input: &str) -> Result<Vec<PolygonRecord>> {
    let mut records = Vec::new();
    for (line_idx, line) in input.lines().enumerate() {
        let line_no = line_idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        records.push(parse_record(trimmed, line_no)?);
    }
    Ok(records)
}

/// Parses a single record line (without trailing newline).
pub fn parse_record(line: &str, line_no: usize) -> Result<PolygonRecord> {
    let mut tokens = Tokenizer::new(line);
    let id = tokens.next_u64().ok_or_else(|| GeometryError::Parse {
        line: line_no,
        message: "missing polygon id".into(),
    })?;
    let count = tokens.next_u64().ok_or_else(|| GeometryError::Parse {
        line: line_no,
        message: "missing vertex count".into(),
    })?;
    // The count is the line's own claim, never a size to reserve: a vertex
    // takes at least four bytes (" x y"), so what is left of the line bounds
    // how many can follow, and a count past that fails below on the first
    // coordinate the line does not have.
    let can_hold = tokens.rest.len() / 4;
    let mut vertices =
        Vec::with_capacity(can_hold.min(usize::try_from(count).unwrap_or(usize::MAX)));
    for i in 0..count {
        let x = tokens.next_i32().ok_or_else(|| GeometryError::Parse {
            line: line_no,
            message: format!("missing x coordinate of vertex {i}"),
        })?;
        let y = tokens.next_i32().ok_or_else(|| GeometryError::Parse {
            line: line_no,
            message: format!("missing y coordinate of vertex {i}"),
        })?;
        vertices.push(Point::new(x, y));
    }
    if tokens.next_token().is_some() {
        return Err(GeometryError::Parse {
            line: line_no,
            message: "trailing tokens after final vertex".into(),
        });
    }
    let polygon = RectilinearPolygon::new(vertices).map_err(|e| GeometryError::Parse {
        line: line_no,
        message: format!("invalid polygon: {e}"),
    })?;
    Ok(PolygonRecord { id, polygon })
}

/// A minimal whitespace tokenizer over a single record line, written as an
/// explicit scanner so the cost profile resembles the text parsing stage the
/// paper offloads between CPU and GPU.
struct Tokenizer<'a> {
    rest: &'a str,
}

impl<'a> Tokenizer<'a> {
    fn new(line: &'a str) -> Self {
        Tokenizer { rest: line }
    }

    fn next_token(&mut self) -> Option<&'a str> {
        let start = self.rest.find(|c: char| !c.is_ascii_whitespace())?;
        let rest = &self.rest[start..];
        let end = rest
            .find(|c: char| c.is_ascii_whitespace())
            .unwrap_or(rest.len());
        let (tok, remainder) = rest.split_at(end);
        self.rest = remainder;
        Some(tok)
    }

    fn next_u64(&mut self) -> Option<u64> {
        self.next_token()?.parse().ok()
    }

    fn next_i32(&mut self) -> Option<i32> {
        self.next_token()?.parse().ok()
    }
}

/// Summary statistics of a parsed polygon file, used for workload reporting
/// and for validating that generated data sets match the paper's published
/// characteristics (§5.1: average polygon size ≈ 150 pixels, σ ≈ 100).
#[derive(Debug, Clone, PartialEq)]
pub struct FileStats {
    /// Number of polygons in the file.
    pub polygon_count: usize,
    /// Total number of vertices across all polygons.
    pub vertex_count: usize,
    /// Mean polygon area in pixels.
    pub mean_area: f64,
    /// Standard deviation of polygon area in pixels.
    pub stddev_area: f64,
}

/// Computes summary statistics over a slice of polygon records.
pub fn file_stats(records: &[PolygonRecord]) -> FileStats {
    let n = records.len();
    let vertex_count = records.iter().map(|r| r.polygon.vertex_count()).sum();
    if n == 0 {
        return FileStats {
            polygon_count: 0,
            vertex_count,
            mean_area: 0.0,
            stddev_area: 0.0,
        };
    }
    let areas: Vec<f64> = records.iter().map(|r| r.polygon.area() as f64).collect();
    let mean = areas.iter().sum::<f64>() / n as f64;
    let var = areas.iter().map(|a| (a - mean) * (a - mean)).sum::<f64>() / n as f64;
    FileStats {
        polygon_count: n,
        vertex_count,
        mean_area: mean,
        stddev_area: var.sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::Rect;

    fn sample_records() -> Vec<PolygonRecord> {
        vec![
            PolygonRecord {
                id: 1,
                polygon: RectilinearPolygon::rectangle(Rect::new(0, 0, 4, 3)).unwrap(),
            },
            PolygonRecord {
                id: 2,
                polygon: RectilinearPolygon::new(vec![
                    Point::new(10, 10),
                    Point::new(14, 10),
                    Point::new(14, 12),
                    Point::new(12, 12),
                    Point::new(12, 14),
                    Point::new(10, 14),
                ])
                .unwrap(),
            },
        ]
    }

    #[test]
    fn round_trip() {
        let records = sample_records();
        let text = write_polygon_file(&records);
        let parsed = parse_polygon_file(&text).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# header\n\n1 4 0 0 2 0 2 2 0 2\n   \n# trailing comment\n";
        let parsed = parse_polygon_file(text).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].id, 1);
        assert_eq!(parsed[0].polygon.area(), 4);
    }

    #[test]
    fn negative_coordinates_round_trip() {
        let rec = PolygonRecord {
            id: 9,
            polygon: RectilinearPolygon::rectangle(Rect::new(-5, -7, -1, -2)).unwrap(),
        };
        let text = write_polygon_file(std::slice::from_ref(&rec));
        let parsed = parse_polygon_file(&text).unwrap();
        assert_eq!(parsed, vec![rec]);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_polygon_file("1 4 0 0 2 0 2 2 0 2\n2 4 0 0 2 0\n").unwrap_err();
        match err {
            GeometryError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn trailing_tokens_rejected() {
        let err = parse_polygon_file("1 4 0 0 2 0 2 2 0 2 99\n").unwrap_err();
        assert!(matches!(err, GeometryError::Parse { line: 1, .. }));
    }

    #[test]
    fn invalid_geometry_is_a_parse_error() {
        // Diagonal edge.
        let err = parse_polygon_file("1 4 0 0 2 1 2 2 0 2\n").unwrap_err();
        assert!(matches!(err, GeometryError::Parse { line: 1, .. }));
    }

    #[test]
    fn declared_vertex_counts_are_never_allocated() {
        // A count the line cannot hold is a typed error on the first missing
        // coordinate, not a capacity-overflow panic or a 24 GB reservation.
        for line in ["7 18446744073709551615 0 0", "7 3000000000 0 0 1 0"] {
            match parse_polygon_file(line) {
                Err(GeometryError::Parse { line: 1, message }) => {
                    assert!(message.contains("missing x coordinate"), "{message}")
                }
                other => panic!("{line:?}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn missing_id_or_count() {
        assert!(parse_polygon_file("\n#\nx 4 0 0 2 0 2 2 0 2\n").is_err());
        assert!(parse_polygon_file("1\n").is_err());
    }

    #[test]
    fn stats_are_computed() {
        let records = sample_records();
        let stats = file_stats(&records);
        assert_eq!(stats.polygon_count, 2);
        assert_eq!(stats.vertex_count, 10);
        let a0 = records[0].polygon.area() as f64;
        let a1 = records[1].polygon.area() as f64;
        let mean = (a0 + a1) / 2.0;
        assert!((stats.mean_area - mean).abs() < 1e-9);
        // Both sample polygons happen to cover 12 pixels, so the spread is 0.
        assert_eq!(a0, a1);
        assert_eq!(stats.stddev_area, 0.0);
        let empty = file_stats(&[]);
        assert_eq!(empty.polygon_count, 0);
        assert_eq!(empty.mean_area, 0.0);
    }
}
