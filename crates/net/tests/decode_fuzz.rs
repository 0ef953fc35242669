//! Byte-level robustness of the wire codec: random messages of every kind
//! with random bytes of their body flipped. `Message::of_frame` must return
//! a message or a typed error, never panic, and never make an allocation
//! larger than twice the body it was handed, whatever count a corrupt length
//! field claims.
//!
//! A global allocator records the largest single allocation of the current
//! thread, so this file is its own test binary.

use proptest::prelude::*;
use proptest::strategy::Strategy;
use proptest::TestRng;
use sccg::pixelbox::{AggregationDevice, Variant};
use sccg::SccgError;
use sccg_net::frame::Frame;
use sccg_net::wire::{Message, WireDecodeError, WireFailure, WireRequestSpec, WireStats};
use sccg_net::{WireResponse, WireSummary, WireTile};
use sccg_serve::QueryPriority;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, noting the largest request per thread.
struct LargestAllocation;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

unsafe impl GlobalAlloc for LargestAllocation {
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
static ALLOCATOR: LargestAllocation = LargestAllocation;

/// Decodes `frame`, returning the result and the largest allocation made
/// while decoding.
fn decode_measured(frame: &Frame) -> (Result<Message, WireDecodeError>, usize) {
    LARGEST.with(|largest| largest.set(0));
    let decoded = Message::of_frame(frame);
    (decoded, LARGEST.with(Cell::get))
}

/// A random message of a uniformly drawn kind (each `Summary` mode counts as
/// a kind), with random field values, list lengths and UTF-8 strings.
struct AnyMessage;

fn text(rng: &mut TestRng) -> String {
    let alphabet = ['a', 'z', '-', 'é', '✓', '𝄞'];
    (0..rng.below(12))
        .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
        .collect()
}

fn summary(rng: &mut TestRng) -> WireSummary {
    WireSummary {
        similarity_bits: rng.next_u64(),
        intersecting_pairs: rng.next_u64(),
        candidate_pairs: rng.next_u64(),
        total_intersection_area: rng.next_u64() as i64,
        total_union_area: rng.next_u64() as i64,
    }
}

fn tile(rng: &mut TestRng) -> WireTile {
    WireTile {
        tile: rng.below(64),
        engine: rng.below(4),
        backend: text(rng),
        candidate_pairs: rng.next_u64(),
        summary: summary(rng),
    }
}

fn pick<T: Copy>(rng: &mut TestRng, options: &[T]) -> T {
    options[rng.below(options.len() as u64) as usize]
}

fn response(rng: &mut TestRng, tiles_included: bool) -> WireResponse {
    let tiles = if tiles_included {
        (0..rng.below(5)).map(|_| tile(rng)).collect()
    } else {
        Vec::new()
    };
    WireResponse {
        first: rng.next_u64(),
        second: rng.next_u64(),
        shards: tiles.len() as u64,
        tiles,
        summary: summary(rng),
        cache_hit: rng.below(2) == 1,
        priority: pick(
            rng,
            &[
                QueryPriority::High,
                QueryPriority::Normal,
                QueryPriority::Low,
            ],
        ),
        device: pick(
            rng,
            &[
                None,
                Some(AggregationDevice::Cpu),
                Some(AggregationDevice::Gpu),
                Some(AggregationDevice::Hybrid),
            ],
        ),
    }
}

impl Strategy for AnyMessage {
    type Value = Message;

    fn generate(&self, rng: &mut TestRng) -> Message {
        let request_id = rng.next_u64();
        match rng.below(9) {
            0 => Message::Hello,
            1 => Message::HelloAck {
                client_id: rng.next_u64(),
            },
            2 => Message::Query {
                request_id,
                streaming: rng.below(2) == 1,
                spec: WireRequestSpec {
                    first: rng.next_u64(),
                    second: rng.next_u64(),
                    tiles: (rng.below(2) == 1).then(|| (0..rng.below(6)).map(|t| t * 3).collect()),
                    device: pick(rng, &[None, Some(AggregationDevice::Gpu)]),
                    variant: pick(rng, &[None, Some(Variant::PixelOnly), Some(Variant::Full)]),
                    priority: pick(rng, &[QueryPriority::High, QueryPriority::Low]),
                    deadline_ms: (rng.below(2) == 1).then(|| rng.below(10_000)),
                },
            },
            3 => Message::Tile {
                request_id,
                position: rng.below(64),
                tile: tile(rng),
            },
            kind @ (4 | 5) => Message::Summary {
                request_id,
                tiles_included: kind == 4,
                response: response(rng, kind == 4),
            },
            6 => {
                let error = match rng.below(3) {
                    0 => SccgError::Internal { detail: text(rng) },
                    1 => SccgError::UnknownTile {
                        slide: rng.next_u64(),
                        tile: rng.below(100) as usize,
                        tiles: rng.below(100) as usize,
                    },
                    _ => SccgError::DeadlineExceeded {
                        deadline_ms: rng.below(10_000),
                    },
                };
                Message::Error {
                    request_id,
                    failure: WireFailure::of_error(&error),
                }
            }
            7 => Message::StatsRequest,
            _ => Message::Stats {
                stats: WireStats {
                    submitted: rng.next_u64(),
                    completed: rng.next_u64(),
                    cache_hits: rng.next_u64(),
                    backend_batches: rng.next_u64(),
                    in_flight: rng.below(8),
                    peak_in_flight: rng.below(8),
                    cache_entries: rng.below(128),
                    shards_per_engine: (0..rng.below(5)).map(|_| rng.below(1000)).collect(),
                    resident_tiles: rng.below(64),
                    pager_hit_rate_bits: rng.next_u64(),
                    bytes_on_disk: rng.next_u64(),
                    coalesced_faults: rng.below(100),
                },
            },
        }
    }
}

#[test]
fn intact_random_messages_roundtrip() {
    let mut rng = TestRng::from_seed(3);
    for _ in 0..500 {
        let message = AnyMessage.generate(&mut rng);
        assert_eq!(
            Message::of_frame(&message.to_frame()).as_ref(),
            Ok(&message)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn flipped_bytes_decode_or_fail_typed_within_the_body_size(
        message in AnyMessage,
        flips in prop::collection::vec((0usize..usize::MAX, 1u8..=255), 1..6),
    ) {
        let mut frame = message.to_frame();
        let len = frame.body.len();
        if len > 0 {
            for (at, mask) in flips {
                frame.body[at % len] ^= mask;
            }
        }
        // A panic inside `of_frame` fails the test on its own.
        let (_decoded, largest) = decode_measured(&frame);
        prop_assert!(
            largest <= 2 * len,
            "{:?} body of {} bytes made a {} byte allocation",
            frame.kind,
            len,
            largest
        );
    }
}
