//! Byte-level robustness of the wire codec: random messages of every kind
//! with random bytes of their body flipped. `Message::of_frame` must return
//! a message or a typed error, never panic, and never make an allocation
//! larger than twice the body it was handed, whatever count a corrupt length
//! field claims.
//!
//! One layer down, a `FrameDecoder` fed a random frame stream in random
//! chunks (one byte at a time included), sometimes followed by garbage,
//! must decode the same frames whatever the split, fail a bad length
//! prefix or kind byte with a typed `FrameError`, and never allocate more
//! than the bytes it was fed, whatever length a prefix announces.
//!
//! A global allocator records the largest single allocation of the current
//! thread, so this file is its own test binary.

use proptest::prelude::*;
use proptest::strategy::Strategy;
use proptest::TestRng;
use sccg::pixelbox::{AggregationDevice, Variant};
use sccg::SccgError;
use sccg_net::frame::{
    encode_frame, Frame, FrameDecoder, FrameError, FrameKind, FRAME_HEADER_LEN, MAX_FRAME_LEN,
};
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

/// Every kind a valid frame may carry.
const KINDS: [FrameKind; 8] = [
    FrameKind::Hello,
    FrameKind::HelloAck,
    FrameKind::Query,
    FrameKind::Tile,
    FrameKind::Summary,
    FrameKind::Error,
    FrameKind::StatsRequest,
    FrameKind::Stats,
];

/// What a decoder made of a byte stream: the frames it returned, the error
/// that ended the stream (if any), the bytes it still holds undecoded, the
/// bytes it was fed and its largest single allocation.
struct Decoded {
    frames: Vec<Frame>,
    error: Option<FrameError>,
    pending: usize,
    fed: usize,
    largest: usize,
}

/// Feeds `bytes` to a fresh decoder in chunks of the given sizes (cycled),
/// draining every complete frame after each chunk and stopping at the first
/// error, as a connection would.
fn decode_in_chunks(bytes: &[u8], chunk_sizes: &[usize]) -> Decoded {
    // Every frame takes at least a header, so this never grows.
    let mut frames = Vec::with_capacity(bytes.len() / FRAME_HEADER_LEN + 1);
    let mut decoder = FrameDecoder::new();
    let mut sizes = chunk_sizes.iter().cycle();
    let mut fed = 0;
    let mut error = None;
    LARGEST.with(|largest| largest.set(0));
    'feed: while fed < bytes.len() {
        let size = (*sizes.next().expect("chunk sizes")).min(bytes.len() - fed);
        decoder.feed(&bytes[fed..fed + size]);
        fed += size;
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(e) => {
                    error = Some(e);
                    break 'feed;
                }
            }
        }
    }
    Decoded {
        largest: LARGEST.with(Cell::get),
        frames,
        error,
        pending: decoder.pending(),
        fed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn any_split_of_a_frame_stream_decodes_the_same_frames(
        sent in prop::collection::vec(
            (0usize..KINDS.len(), prop::collection::vec(0u8..=255, 0..48)),
            0..6,
        ),
        tail in 0u8..6,
        tail_bytes in prop::collection::vec(0u8..=255, 0..24),
        prefix in 0u32..=u32::MAX,
        chunk_sizes in prop::collection::vec(1usize..=32, 1..8),
        byte_at_a_time in 0u8..4,
    ) {
        let sent: Vec<Frame> = sent
            .into_iter()
            .map(|(kind, body)| Frame { kind: KINDS[kind], body })
            .collect();
        let mut bytes = Vec::new();
        for frame in &sent {
            encode_frame(frame.kind, &frame.body, &mut bytes);
        }
        // What follows the valid frames, and the error it must end in.
        let expected_error = match tail {
            // A length prefix above the cap.
            1 => {
                let cap = MAX_FRAME_LEN as u32;
                let len = cap + 1 + prefix % (u32::MAX - cap);
                bytes.extend_from_slice(&len.to_be_bytes());
                bytes.extend_from_slice(&tail_bytes);
                Some(FrameError::Oversized { len: len as usize })
            }
            // A length prefix without room for the kind byte.
            2 => {
                bytes.extend_from_slice(&0u32.to_be_bytes());
                bytes.extend_from_slice(&tail_bytes);
                Some(FrameError::Truncated)
            }
            // A complete frame of an unknown kind.
            3 => {
                let kind = prefix as u8;
                let kind = if FrameKind::from_u8(kind).is_ok() { 0 } else { kind };
                let start = bytes.len();
                encode_frame(FrameKind::Hello, &tail_bytes, &mut bytes);
                bytes[start + 4] = kind;
                Some(FrameError::UnknownKind(kind))
            }
            // A plausible prefix announcing more bytes than ever arrive.
            4 => {
                let least = tail_bytes.len() as u32 + 1;
                let len = least + prefix % (MAX_FRAME_LEN as u32 - least + 1);
                bytes.extend_from_slice(&len.to_be_bytes());
                bytes.extend_from_slice(&tail_bytes);
                None
            }
            // Arbitrary bytes: anything typed goes.
            5 => {
                bytes.extend_from_slice(&tail_bytes);
                None
            }
            _ => None,
        };

        let whole = decode_in_chunks(&bytes, &[bytes.len().max(1)]);
        let chunks: &[usize] = if byte_at_a_time == 0 { &[1] } else { &chunk_sizes };
        let split = decode_in_chunks(&bytes, chunks);
        for decoded in [&whole, &split] {
            prop_assert!(decoded.frames.len() >= sent.len());
            prop_assert_eq!(&decoded.frames[..sent.len()], &sent[..]);
            if tail != 5 {
                prop_assert_eq!(decoded.frames.len(), sent.len());
                prop_assert_eq!(&decoded.error, &expected_error);
            }
            if decoded.error.is_none() {
                // Exactly the fed bytes no frame consumed stay buffered.
                let consumed: usize = decoded
                    .frames
                    .iter()
                    .map(|f| FRAME_HEADER_LEN + f.body.len())
                    .sum();
                prop_assert_eq!(decoded.pending, decoded.fed - consumed);
            }
            // The buffer only ever grows to hold fed bytes (amortized
            // doubling, 8 bytes at least): no allocation is sized by a
            // length prefix.
            prop_assert!(
                decoded.largest <= 2 * decoded.fed + 8,
                "{} fed bytes made a {} byte allocation",
                decoded.fed,
                decoded.largest
            );
        }
        // The split changes nothing: same frames, same ending.
        prop_assert_eq!(&split.frames, &whole.frames);
        prop_assert_eq!(&split.error, &whole.error);
    }
}
