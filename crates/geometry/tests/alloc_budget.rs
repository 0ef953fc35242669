//! Allocation budget and byte-flip robustness of the polygon text parser.
//!
//! Parsing builds each record with one allocation, its shared vertex chain,
//! so a 400-record file must parse in at most one allocation per record plus
//! a small constant (the record list and the reused vertex buffer growing).
//! And whatever bytes a corrupt file holds, `parse_polygon_file` returns
//! records or a typed parse error, never panics, and never makes an
//! allocation larger than twice the file, whatever vertex count a line
//! claims.
//!
//! A global allocator counts the current thread's allocations and notes its
//! largest one, so this file is its own test binary.

use proptest::prelude::*;
use proptest::TestRng;
use sccg_geometry::text::{parse_polygon_file, write_polygon_file, PolygonRecord};
use sccg_geometry::{GeometryError, Point, RectilinearPolygon};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting each thread's allocations
/// (`alloc` and `realloc` calls) and noting its largest request.
struct CountingAllocator;

thread_local! {
    static COUNT: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the slots are gone while the thread tears down.
    let _ = COUNT.try_with(|count| count.set(count.get() + 1));
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Parses `text`, returning the result, the number of allocations and the
/// largest allocation made while parsing.
fn parse_measured(text: &str) -> (Result<Vec<PolygonRecord>, GeometryError>, usize, usize) {
    COUNT.with(|count| count.set(0));
    LARGEST.with(|largest| largest.set(0));
    let parsed = parse_polygon_file(text);
    (parsed, COUNT.with(Cell::get), LARGEST.with(Cell::get))
}

/// A file of `records` staircase polygons of 4 to 14 vertices each, spread
/// over a slide-sized plane.
fn staircase_file(records: usize, rng: &mut TestRng) -> String {
    let records: Vec<PolygonRecord> = (0..records as u64)
        .map(|id| {
            let steps = 1 + rng.below(6) as i32;
            let (ox, oy) = (rng.below(100_000) as i32, rng.below(100_000) as i32);
            let dys: Vec<i32> = (0..steps).map(|_| 1 + rng.below(9) as i32).collect();
            let mut x = ox;
            let mut y = oy + dys.iter().sum::<i32>();
            let mut chain = vec![Point::new(ox, oy), Point::new(x, y)];
            for dy in dys {
                x += 1 + rng.below(9) as i32;
                chain.push(Point::new(x, y));
                y -= dy;
                chain.push(Point::new(x, y));
            }
            PolygonRecord {
                id,
                polygon: RectilinearPolygon::new(chain).expect("staircase is valid"),
            }
        })
        .collect();
    write_polygon_file(&records)
}

#[test]
fn a_400_record_file_parses_in_one_allocation_per_record() {
    let text = staircase_file(400, &mut TestRng::from_seed(1));
    let (parsed, allocations, _) = parse_measured(&text);
    let records = parsed.expect("generated file parses").len();
    assert_eq!(records, 400);
    assert!(
        allocations <= records + 32,
        "{records} records took {allocations} allocations"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn flipped_bytes_parse_or_fail_typed_within_twice_the_input(
        seed in 0u64..u64::MAX,
        records in 1usize..24,
        flips in prop::collection::vec((0usize..usize::MAX, 1u8..=127), 1..6),
    ) {
        // The file is ASCII and every mask keeps the high bit clear, so the
        // flipped bytes are still a `str`.
        let mut bytes = staircase_file(records, &mut TestRng::from_seed(seed)).into_bytes();
        let len = bytes.len();
        for (at, mask) in flips {
            bytes[at % len] ^= mask;
        }
        let text = String::from_utf8(bytes).expect("ASCII stays UTF-8");
        let lines = text.split('\n').count();
        // A panic inside the parser fails the test on its own.
        let (parsed, _, largest) = parse_measured(&text);
        if let Err(err) = parsed {
            let typed = matches!(&err, GeometryError::Parse { line, .. } if (1..=lines).contains(line));
            prop_assert!(typed, "{:?} is not a parse error naming one of {} lines", err, lines);
        }
        prop_assert!(
            largest <= 2 * len,
            "a file of {} bytes made a {} byte allocation",
            len,
            largest
        );
    }
}
