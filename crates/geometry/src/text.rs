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
//! # Grammar
//!
//! * Lines end at `\n` (a `\r` before it is whitespace, so `\r\n` files
//!   parse alike). Line numbers in errors count every line from 1.
//! * Each line is trimmed of leading and trailing Unicode whitespace, as
//!   [`str::trim`] does. A trimmed line that is empty or starts with `#` is
//!   skipped.
//! * Inside a line, tokens are separated by runs of ASCII whitespace (space,
//!   `\t`, `\n`, `\x0C`, `\r`); any other byte, a Unicode space included,
//!   belongs to a token.
//! * The id is a `u64` and the count a `u64`; each coordinate is an `i32`.
//!   A number is an optional sign (`+` for any, `-` for coordinates) then
//!   one or more decimal digits, leading zeros allowed, in range: exactly
//!   what `str::parse` accepts for the type.
//! * A record has exactly `count` vertices; a missing or malformed token,
//!   a token after the last vertex, or a chain that
//!   [`RectilinearPolygon::from_slice`] rejects fails the whole file with
//!   [`GeometryError::Parse`] naming the line.
//!
//! # One pass
//!
//! [`parse_polygon_file`] scans each line's bytes once: a token's digits are
//! accumulated as they are read, so no token is sliced out, UTF-8 decoded or
//! handed to `str::parse`. The steps wrap, which is exact for up to 19
//! digits; a longer run (leading zeros, or an overflow) is re-read with
//! checked steps. Vertices go into one scratch buffer reused for every
//! record of the file, and each polygon is built from it by the fused
//! one-pass, one-allocation [`RectilinearPolygon::from_slice`]. A record
//! therefore costs one allocation, its shared vertex chain.

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
    let mut vertices = Vec::new();
    for (line_idx, line) in input.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let line_no = line_idx + 1;
        let parse_error = |message: String| GeometryError::Parse {
            line: line_no,
            message,
        };
        let mut fields = Fields {
            bytes: trimmed.as_bytes(),
            pos: 0,
        };
        let id = fields
            .next_u64()
            .ok_or_else(|| parse_error("missing polygon id".into()))?;
        let count = fields
            .next_u64()
            .ok_or_else(|| parse_error("missing vertex count".into()))?;
        // The count is the line's own claim, never a size to reserve: a vertex
        // takes at least four bytes (" x y"), so what is left of the line bounds
        // how many can follow, and a count past that fails below on the first
        // coordinate the line does not have.
        let can_hold = (fields.bytes.len() - fields.pos) / 4;
        vertices.clear();
        vertices.reserve_exact(can_hold.min(usize::try_from(count).unwrap_or(usize::MAX)));
        for i in 0..count {
            let x = fields
                .next_i32()
                .ok_or_else(|| parse_error(format!("missing x coordinate of vertex {i}")))?;
            let y = fields
                .next_i32()
                .ok_or_else(|| parse_error(format!("missing y coordinate of vertex {i}")))?;
            vertices.push(Point::new(x, y));
        }
        if !fields.at_end() {
            return Err(parse_error("trailing tokens after final vertex".into()));
        }
        let polygon = RectilinearPolygon::from_slice(&vertices)
            .map_err(|e| parse_error(format!("invalid polygon: {e}")))?;
        records.push(PolygonRecord { id, polygon });
    }
    Ok(records)
}

/// Byte cursor over one trimmed record line that reads its
/// whitespace-separated numbers in place.
struct Fields<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Fields<'_> {
    /// Skips separators; `true` when no token is left.
    #[inline(always)]
    fn at_end(&mut self) -> bool {
        let mut pos = self.pos;
        while self.bytes.get(pos).is_some_and(u8::is_ascii_whitespace) {
            pos += 1;
        }
        self.pos = pos;
        pos == self.bytes.len()
    }

    /// Reads the next token as an optional sign and a run of decimal
    /// digits, returning whether it was negative and its magnitude. `None`
    /// when no token is left, the token holds any other byte, has no digits
    /// or its magnitude overflows `u64`; the cursor is then left mid-token,
    /// which is fine because every caller fails the record on `None`.
    #[inline(always)]
    fn next_magnitude(&mut self) -> Option<(bool, u64)> {
        if self.at_end() {
            return None;
        }
        let bytes = self.bytes;
        let mut pos = self.pos;
        let negative = bytes[pos] == b'-';
        if negative || bytes[pos] == b'+' {
            pos += 1;
        }
        let digits_start = pos;
        // Wrapping steps are exact for up to 19 digits (10^19 - 1 < 2^64);
        // a longer run, such as one with many leading zeros, is re-read
        // with checked steps below.
        let mut magnitude = 0u64;
        while let Some(&byte) = bytes.get(pos) {
            let digit = byte.wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            magnitude = magnitude.wrapping_mul(10).wrapping_add(u64::from(digit));
            pos += 1;
        }
        let digits = &bytes[digits_start..pos];
        if digits.is_empty() || bytes.get(pos).is_some_and(|b| !b.is_ascii_whitespace()) {
            return None;
        }
        if digits.len() > 19 {
            magnitude = digits.iter().try_fold(0u64, |m, &digit| {
                m.checked_mul(10)?.checked_add(u64::from(digit - b'0'))
            })?;
        }
        self.pos = pos;
        Some((negative, magnitude))
    }

    /// The next token as a `u64`, as `str::parse` would read it.
    fn next_u64(&mut self) -> Option<u64> {
        match self.next_magnitude()? {
            (false, magnitude) => Some(magnitude),
            (true, _) => None,
        }
    }

    /// The next token as an `i32`, as `str::parse` would read it.
    fn next_i32(&mut self) -> Option<i32> {
        let (negative, magnitude) = self.next_magnitude()?;
        let magnitude = i64::try_from(magnitude).ok()?;
        i32::try_from(if negative { -magnitude } else { magnitude }).ok()
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
    use crate::polygon::tests::any_chain;
    use crate::rect::Rect;
    use proptest::prelude::*;
    use proptest::TestRng;

    fn pick<'a>(rng: &mut TestRng, options: &[&'a str]) -> &'a str {
        options[rng.below(options.len() as u64) as usize]
    }

    /// A number token: usually the value as written, sometimes signed,
    /// zero-padded, swapped for a boundary value of its type or for junk.
    fn number(rng: &mut TestRng, value: i128, signed: bool, odd: bool) -> String {
        match if odd { rng.below(60) } else { 60 } {
            0 => format!("+{value}"),
            1 => format!("000{value}"),
            2 if value >= 0 => format!("+00{value}"),
            3 if signed => pick(
                rng,
                &[
                    "2147483647",
                    "-2147483648",
                    "2147483648",
                    "-2147483649",
                    "+2147483647",
                ],
            )
            .into(),
            3 => pick(
                rng,
                &[
                    "18446744073709551615",
                    "18446744073709551616",
                    "-0",
                    "-1",
                    "+0",
                ],
            )
            .into(),
            4 => pick(
                rng,
                &[
                    "",
                    "+",
                    "-",
                    "x",
                    "1x",
                    "0x1",
                    "1e2",
                    "--1",
                    "+-1",
                    "\u{661}",
                    "99999999999999999999999",
                ],
            )
            .into(),
            _ => value.to_string(),
        }
    }

    /// A polygon file of up to six records and filler lines with the
    /// grammar's corners mixed in: separators and line-edge whitespace of
    /// every kind (tabs, `\r\n`, `\x0B`, `\x0C`, Unicode spaces), signs and
    /// leading zeros, boundary values, wrong counts, missing and extra
    /// tokens, comments, blank lines and invalid chains.
    pub(crate) struct MutatedFile;

    impl Strategy for MutatedFile {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            const SEPARATORS: &[&str] = &[
                " ", " ", " ", " ", " ", " ", " ", " ", " ", " ", " ", " ", " ", " ", "\t", "  ",
                "\x0C", "\r", " \t ", "\x0B", "\u{A0}", "\u{3000}",
            ];
            const EDGES: &[&str] = &[
                "",
                "",
                "",
                "",
                " ",
                "\t",
                "\r",
                "\x0C",
                "\x0B",
                "\u{A0}",
                "\u{2003}",
                "\u{3000} ",
            ];
            const FILLERS: &[&str] = &[
                "",
                "# comment 1 2 3",
                " \t# indented",
                "  \t",
                "\u{A0}",
                "#",
                "\r",
            ];
            let mut text = String::new();
            for _ in 0..rng.below(7) {
                if rng.below(4) == 0 {
                    text.push_str(pick(rng, FILLERS));
                } else {
                    let chain = any_chain(rng);
                    let mut count = chain.len() as i128;
                    if rng.below(12) == 0 {
                        count += if rng.below(2) == 0 { 1 } else { -1 };
                    }
                    // Most records are written plainly, so that later lines
                    // are reached too; the rest get odd tokens and separators.
                    let odd = rng.below(3) == 0;
                    let separators = if odd { SEPARATORS } else { &[" "] };
                    let id = rng.below(1 << 40);
                    let mut tokens = vec![
                        number(rng, i128::from(id), false, odd),
                        number(rng, count, false, odd),
                    ];
                    for v in &chain {
                        tokens.push(number(rng, i128::from(v.x), true, odd));
                        tokens.push(number(rng, i128::from(v.y), true, odd));
                    }
                    match rng.below(16) {
                        0 => drop(tokens.pop()),
                        1 => tokens.push("7".into()),
                        _ => {}
                    }
                    text.push_str(pick(rng, EDGES));
                    for (i, token) in tokens.iter().enumerate() {
                        if i > 0 {
                            text.push_str(pick(rng, separators));
                        }
                        text.push_str(token);
                    }
                    text.push_str(pick(rng, EDGES));
                }
                text.push_str(pick(rng, &["\n", "\n", "\r\n"]));
            }
            if rng.below(2) == 0 {
                text.pop();
            }
            text
        }
    }

    /// Files of up to six valid records: every chain [`any_chain`] draws
    /// that makes a polygon (staircases out to the `i32` limits among
    /// them), each under an id anywhere in `u64`.
    struct ValidRecords;

    impl Strategy for ValidRecords {
        type Value = Vec<PolygonRecord>;

        fn generate(&self, rng: &mut TestRng) -> Vec<PolygonRecord> {
            (0..rng.below(7))
                .filter_map(|_| {
                    let polygon = RectilinearPolygon::from_slice(&any_chain(rng)).ok()?;
                    Some(PolygonRecord {
                        id: rng.next_u64(),
                        polygon,
                    })
                })
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn valid_records_round_trip_through_the_text_format(records in ValidRecords) {
            let text = write_polygon_file(&records);
            let parsed = parse_polygon_file(&text).unwrap();
            // Records compare by id and vertex chain; the derived MBR and
            // area must come back too.
            prop_assert_eq!(&parsed, &records);
            for (got, want) in parsed.iter().zip(&records) {
                prop_assert_eq!(got.polygon.mbr(), want.polygon.mbr());
                prop_assert_eq!(got.polygon.area(), want.polygon.area());
            }
        }
    }

    #[test]
    fn mutated_files_reach_every_outcome() {
        // Every outcome of the grammar turns up among the mutated files, and
        // each failure is a typed parse error.
        let mut rng = TestRng::from_seed(5);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..4000 {
            let outcome = match parse_polygon_file(&MutatedFile.generate(&mut rng)) {
                Ok(records) if records.len() > 2 => "several records".to_string(),
                Ok(_) => "ok".to_string(),
                Err(GeometryError::Parse { message, .. }) => message
                    .split(['0', '1', '2', '3', '4', '5', '6', '7', '8', '9'])
                    .next()
                    .unwrap()
                    .to_string(),
                Err(other) => panic!("untyped {other:?}"),
            };
            seen.insert(outcome);
        }
        for expected in [
            "several records",
            "ok",
            "missing polygon id",
            "missing vertex count",
            "missing x coordinate of vertex ",
            "missing y coordinate of vertex ",
            "trailing tokens after final vertex",
            "invalid polygon: polygon requires at least ",
            "invalid polygon: zero-length edge starting at vertex ",
            "invalid polygon: edge starting at vertex ",
            "invalid polygon: vertex ",
            "invalid polygon: polygon encloses zero area",
        ] {
            assert!(
                seen.contains(expected),
                "never saw {expected:?} in {seen:?}"
            );
        }
    }

    #[test]
    fn numbers_parse_as_str_parse_reads_them() {
        let read = |text: &str| {
            let mut fields = Fields {
                bytes: text.as_bytes(),
                pos: 0,
            };
            (fields.next_u64(), {
                fields.pos = 0;
                fields.next_i32()
            })
        };
        for token in [
            "0",
            "+0",
            "-0",
            "007",
            "+007",
            "-007",
            "+",
            "-",
            "",
            "+-1",
            "-+1",
            "1-",
            "x1",
            "2147483647",
            "2147483648",
            "-2147483648",
            "-2147483649",
            "4294967296",
            "18446744073709551615",
            "18446744073709551616",
            "184467440737095516150",
            "99999999999999999999999999",
            "-99999999999999999999999999",
            "000000000000000000000000000000042",
            "\u{661}",
            "1\u{A0}",
            "1\x0B",
        ] {
            assert_eq!(
                read(token),
                (token.parse::<u64>().ok(), token.parse::<i32>().ok()),
                "{token:?}"
            );
        }
    }

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
