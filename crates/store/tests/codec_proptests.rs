//! Property-based tests for the columnar tile codec.
//!
//! Two properties carry the storage subsystem's correctness story:
//!
//! 1. **Round trip** — any tile of valid rectilinear polygon records
//!    encodes and decodes back bit-identically (ids, vertex chains, record
//!    order). This is what makes the on-disk query path's results
//!    interchangeable with the in-memory path's.
//! 2. **Corruption detection** — flipping any single byte of an encoded
//!    block changes its FNV-1a checksum, so every such corruption is caught
//!    at read time and surfaces as a typed [`SccgError::Storage`], never as
//!    silently wrong polygons.
//!
//! Decoded polygons also keep the area their chain's shoelace walk gives.
//!
//! A third property covers the file around the blocks: a slide file
//! truncated anywhere, or with random bytes overwritten in its header,
//! footer index or trailer, opens to a working file or a typed
//! [`SccgError::Storage`], and every tile of a file that opens reads back
//! as written or fails typed — never a panic.

// The vendored proptest shim's `proptest!` macro expands bodies token by
// token; these test bodies are long enough to overflow the default limit.
#![recursion_limit = "1024"]

use proptest::prelude::*;
use sccg::SccgError;
use sccg_geometry::text::PolygonRecord;
use sccg_geometry::{Point, RectilinearPolygon};
use sccg_store::{decode_tile, encode_tile, fnv1a_64, SlideFile, SlideFileWriter};
use std::path::PathBuf;

/// A random rectilinear "staircase" polygon (always simple and valid),
/// offset anywhere in the i32-safe window.
fn staircase_polygon() -> impl Strategy<Value = RectilinearPolygon> {
    (2usize..8).prop_flat_map(|steps| {
        (
            prop::collection::vec(1i32..6, steps),
            prop::collection::vec(1i32..6, steps),
            -1000i32..1000,
            -1000i32..1000,
        )
            .prop_map(|(dxs, dys, ox, oy)| {
                let total_h: i32 = dys.iter().sum();
                let mut vertices = vec![Point::new(ox, oy), Point::new(ox, oy + total_h)];
                let mut x = ox;
                let mut y = oy + total_h;
                for (dx, dy) in dxs.iter().zip(dys.iter()) {
                    x += dx;
                    vertices.push(Point::new(x, y));
                    y -= dy;
                    vertices.push(Point::new(x, y));
                }
                RectilinearPolygon::new(vertices).expect("staircase is valid")
            })
    })
}

/// A random tile: up to a dozen records with arbitrary ids.
fn tile() -> impl Strategy<Value = Vec<PolygonRecord>> {
    prop::collection::vec(((0u64..u64::MAX), staircase_polygon()), 0..12).prop_map(|entries| {
        entries
            .into_iter()
            .map(|(id, polygon)| PolygonRecord { id, polygon })
            .collect()
    })
}

fn temp_path(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join("sccg-store-proptests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}-{seed}.sccgt", std::process::id()))
}

proptest! {
    // encode → decode is the identity on arbitrary tiles.
    #[test]
    fn encode_decode_round_trips(records in tile()) {
        let block = encode_tile(&records);
        let decoded = decode_tile(&block).expect("encoded block decodes");
        prop_assert_eq!(decoded, records);
    }

    // A decoded polygon's stored area is its chain's shoelace sum, in
    // either orientation.
    #[test]
    fn decoded_polygons_keep_the_walked_area(records in tile()) {
        let reversed = records.iter().map(|record| PolygonRecord {
            id: record.id,
            polygon: RectilinearPolygon::new(record.polygon.vertices().iter().rev().copied().collect())
                .expect("a reversed staircase is valid"),
        });
        let both: Vec<PolygonRecord> = records.iter().cloned().chain(reversed).collect();
        for record in decode_tile(&encode_tile(&both)).expect("encoded block decodes") {
            let vertices = record.polygon.vertices();
            let walked: i64 = vertices
                .iter()
                .zip(vertices.iter().cycle().skip(1))
                .map(|(a, b)| i64::from(a.x) * i64::from(b.y) - i64::from(b.x) * i64::from(a.y))
                .sum();
            prop_assert_eq!(record.polygon.signed_area2(), walked);
            prop_assert_eq!(record.polygon.area(), walked.abs() / 2);
        }
    }

    // Flipping any one byte of a block changes its FNV-1a digest: the
    // write-time checksum always catches a single-byte corruption.
    #[test]
    fn every_single_byte_flip_changes_the_checksum(
        records in tile(),
        flip in (0u8..255),
    ) {
        let block = encode_tile(&records);
        let clean = fnv1a_64(&block);
        let flip = if flip == 0 { 1 } else { flip };
        let mut corrupt = block;
        for i in 0..corrupt.len() {
            corrupt[i] ^= flip;
            prop_assert_ne!(fnv1a_64(&corrupt), clean);
            corrupt[i] ^= flip;
        }
    }

    // End to end through the file layer: write a slide, flip one byte
    // inside a tile block on disk, and the read of that tile (and only
    // that tile) fails with the typed storage error.
    #[test]
    fn on_disk_bit_flips_surface_as_typed_storage_errors(
        tiles in prop::collection::vec(tile(), 1..4),
        seed in (0u64..u64::MAX),
        byte in (0u8..255),
    ) {
        let path = temp_path("bitflip", seed);
        let mut writer = SlideFileWriter::create(&path).unwrap();
        for records in &tiles {
            writer.append_tile(records).unwrap();
        }
        let file = writer.finish().unwrap();

        // Pick a victim tile with a non-empty block and a byte inside it.
        let victim = (seed as usize) % tiles.len();
        let entry = file.index()[victim];
        drop(file);
        let mut bytes = std::fs::read(&path).unwrap();
        let within = (byte as u64) % entry.len;
        let pos = (entry.offset + within) as usize;
        let flip = if byte == 0 { 0xA5 } else { byte };
        bytes[pos] ^= flip;
        std::fs::write(&path, &bytes).unwrap();

        let file = SlideFile::open(&path).unwrap();
        let err = file.read_tile(victim).unwrap_err();
        prop_assert!(
            matches!(&err, SccgError::Storage { detail } if detail.contains("checksum")),
            "expected a checksum failure, got {:?}", err
        );
        // Containment: every other tile still reads back bit-identically.
        for (i, expected) in tiles.iter().enumerate() {
            if i != victim {
                prop_assert_eq!(&file.read_tile(i).unwrap(), expected);
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    // The full file layer round trip: stream tiles out, read them back.
    #[test]
    fn slide_files_round_trip_through_disk(
        tiles in prop::collection::vec(tile(), 0..5),
        seed in (0u64..u64::MAX),
    ) {
        let path = temp_path("roundtrip", seed);
        let mut writer = SlideFileWriter::create(&path).unwrap();
        for records in &tiles {
            writer.append_tile(records).unwrap();
        }
        let file = writer.finish().unwrap();
        prop_assert_eq!(file.tile_count(), tiles.len());
        for (i, expected) in tiles.iter().enumerate() {
            prop_assert_eq!(&file.read_tile(i).unwrap(), expected);
        }
        std::fs::remove_file(&path).unwrap();
    }
}

/// Writes each `(position, value)` into `region` of `bytes`, positions
/// taken modulo the region's length.
fn overwrite(bytes: &mut [u8], region: std::ops::Range<usize>, overwrites: &[(usize, u8)]) {
    for &(pos, value) in overwrites {
        bytes[region.start + pos % region.len()] = value;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // Damage around the blocks: truncate the file at a random length, or
    // overwrite random bytes of its header, footer index or trailer —
    // resealing the footer checksum after some footer overwrites, so the
    // index's own layout checks and the per-tile reads see the damage too.
    // `open` either works or fails typed, and so does every tile read of a
    // file that opens; a tile that reads is the tile that was written.
    #[test]
    fn damaged_slide_files_open_or_fail_typed(
        tiles in prop::collection::vec(tile(), 1..4),
        seed in (0u64..u64::MAX),
        damage in (0u8..5),
        at in (0usize..usize::MAX),
        overwrites in prop::collection::vec((0usize..usize::MAX, 0u8..=255), 1..5),
    ) {
        let path = temp_path("damaged", seed);
        let mut writer = SlideFileWriter::create(&path).unwrap();
        for records in &tiles {
            writer.append_tile(records).unwrap();
        }
        drop(writer.finish().unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        let len = bytes.len();
        let footer_offset =
            u64::from_le_bytes(bytes[len - 24..len - 16].try_into().unwrap()) as usize;
        let footer = footer_offset..len - 24;
        match damage {
            0 => bytes.truncate(at % len),
            1 => overwrite(&mut bytes, 0..16, &overwrites),
            2 => overwrite(&mut bytes, len - 24..len, &overwrites),
            3 => overwrite(&mut bytes, footer, &overwrites),
            _ => {
                overwrite(&mut bytes, footer, &overwrites);
                let checksum = fnv1a_64(&bytes[footer_offset..len - 24]);
                bytes[len - 16..len - 8].copy_from_slice(&checksum.to_le_bytes());
            }
        }
        std::fs::write(&path, &bytes).unwrap();

        match SlideFile::open(&path) {
            Err(err) => prop_assert!(
                matches!(err, SccgError::Storage { .. }),
                "open failed untyped: {:?}", err
            ),
            Ok(file) => {
                for tile in 0..file.tile_count() {
                    match file.read_tile(tile) {
                        Ok(records) => prop_assert_eq!(Some(&records), tiles.get(tile)),
                        Err(err) => prop_assert!(
                            matches!(err, SccgError::Storage { .. }),
                            "tile {} failed untyped: {:?}", tile, err
                        ),
                    }
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}
