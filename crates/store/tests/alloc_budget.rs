//! Allocation budget of the tile decoder.
//!
//! `decode_tile` reads a block's columns in place and builds each record with
//! one allocation, its shared vertex chain, so a 400-record tile must decode
//! in at most one allocation per record plus a small constant (the record
//! list and one scratch vertex buffer).
//!
//! A global allocator counts the current thread's allocations, so this file
//! is its own test binary.

use sccg_datagen::{generate_dataset, DatasetSpec};
use sccg_geometry::text::parse_polygon_file;
use sccg_store::{decode_tile, encode_tile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting each thread's allocations
/// (`alloc` and `realloc` calls).
struct CountingAllocator;

thread_local! {
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the slot is gone while the thread tears down.
        let _ = COUNT.try_with(|count| count.set(count.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = COUNT.try_with(|count| count.set(count.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn a_400_record_tile_decodes_in_one_allocation_per_record() {
    let dataset = generate_dataset(&DatasetSpec {
        name: "alloc-budget".into(),
        tiles: 1,
        polygons_per_tile: 400,
        tile_size: 1024,
        seed: 3,
        nucleus_radius: 6,
    });
    let text = dataset.tiles[0].first_as_text();
    let records = parse_polygon_file(&text).expect("generated tile parses");
    assert!(records.len() >= 350, "{} records", records.len());
    let block = encode_tile(&records);

    COUNT.with(|count| count.set(0));
    let decoded = decode_tile(&block).expect("encoded tile decodes");
    let allocations = COUNT.with(Cell::get);

    assert_eq!(decoded, records);
    assert!(
        allocations <= records.len() + 8,
        "{} records took {allocations} allocations",
        records.len()
    );
}
