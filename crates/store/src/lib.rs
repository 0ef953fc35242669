//! Out-of-core slide storage: an on-disk columnar tile format with demand
//! paging.
//!
//! Whole-slide images are on the order of 100,000 × 100,000 pixels and carry
//! hundreds of thousands of segmented nuclei per slide (paper §1); holding
//! every registered slide's decoded polygons in memory caps how many slides
//! a comparison service can serve. This crate moves registered slides to
//! disk and pages tiles back in on demand:
//!
//! * [`mod@format`] — the columnar file format: FNV-1a–checksummed per-tile
//!   blocks of offset-indexed polygon records, a footer index mapping each
//!   tile to `(offset, len, polygon_count, checksum)`, and a trailer that
//!   locates and checksums the footer. [`SlideFileWriter`] streams tiles to
//!   disk one at a time (O(largest tile) memory); [`SlideFile`] validates
//!   the index at open and serves verified single-tile reads.
//! * [`pager`] — [`TileStorage`], a bounded LRU of resident decoded tiles
//!   over a [`SlideFile`]. Peak memory is O(residency bound × tile),
//!   independent of slide size; [`PagerStats`] reports hits, misses,
//!   coalesced (single-flight) faults, hit rate and peak residency.
//!
//! Failure semantics: a corrupt or truncated tile block fails *that tile's*
//! reads with [`sccg::SccgError::Storage`] — queries over other tiles, and
//! the process, are unaffected. A per-tile circuit breaker
//! ([`pager::QUARANTINE_THRESHOLD`]) quarantines tiles that fail reads
//! repeatedly instead of re-reading a known-bad block on every query.
//! Writers are crash-safe: [`SlideFileWriter`] streams into a
//! `.partial` temp file and publishes the final path with one atomic
//! rename, so an interrupted registration never leaves a half-written
//! slide where a reader could open it — [`recover_dir`] sweeps orphaned
//! partials at startup. An optional [`sccg::FaultInjector`] can be armed
//! on both reads ([`SlideFile::set_faults`]) and writes
//! ([`SlideFileWriter::create_with_faults`]) for deterministic failure
//! testing; when absent, the hooks are a no-op.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod pager;

pub use format::{
    decode_tile, encode_tile, fnv1a_64, partial_path, recover_dir, SlideFile, SlideFileWriter,
    TileIndexEntry, FORMAT_VERSION, HEADER_MAGIC, PARTIAL_SUFFIX, TRAILER_MAGIC,
};
pub use pager::{PagerStats, TileStorage, QUARANTINE_THRESHOLD};
