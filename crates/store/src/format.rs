//! The on-disk columnar tile format.
//!
//! One slide is one file of *blocks* — one block per tile — followed by a
//! footer index that maps each tile to its block. All integers are
//! little-endian; every block and the footer carry an FNV-1a 64 checksum
//! (the same process-stable fingerprint idiom the serving layer uses for
//! cache keys), so a bit flip anywhere in a block is caught at read time and
//! fails *that tile's* reads with [`SccgError::Storage`] instead of
//! corrupting query results or crashing the process.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────────┐
//! │ header   magic "SCCGTILE" (8) · version u32 · reserved u32       │ 16 B
//! ├──────────────────────────────────────────────────────────────────┤
//! │ block 0  ┐ columnar tile payload (see below)                     │
//! │ block 1  │ one block per tile, byte-addressed by the footer      │
//! │   …      ┘                                                       │
//! ├──────────────────────────────────────────────────────────────────┤
//! │ footer   tile_count u32                                          │
//! │          per tile: offset u64 · len u64 · polygons u32 ·         │
//! │                    checksum u64                    (28 B each)   │
//! ├──────────────────────────────────────────────────────────────────┤
//! │ trailer  footer_offset u64 · footer_checksum u64 ·               │ 24 B
//! │          magic "SCCGINDX" (8)                                    │
//! └──────────────────────────────────────────────────────────────────┘
//! ```
//!
//! A block stores its polygon records in *columns*, not row-by-row:
//!
//! ```text
//! polygon_count u32
//! ids            u64 × n      (record identifiers)
//! vertex_counts  u32 × n      (per-polygon chain lengths)
//! xs             i32 × Σ counts   (all x coordinates, chain-concatenated)
//! ys             i32 × Σ counts   (all y coordinates, chain-concatenated)
//! ```
//!
//! Columnar layout keeps the vertex data contiguous (the decode hot loop is
//! two straight `i32` scans) and makes the record codec trivially
//! round-trippable: decode rebuilds each vertex chain in order, so the
//! decoded records are bit-identical to what was encoded — id, vertex order,
//! tile and polygon counts. The footer is read once at open; a tile read is
//! one positioned read of its block, which is what the demand pager
//! ([`crate::TileStorage`]) amortizes behind its LRU.

use sccg::{FaultInjector, SccgError};
use sccg_geometry::text::PolygonRecord;
use sccg_geometry::{Point, RectilinearPolygon};
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic bytes opening every slide file.
pub const HEADER_MAGIC: &[u8; 8] = b"SCCGTILE";
/// Magic bytes closing every slide file (the trailer).
pub const TRAILER_MAGIC: &[u8; 8] = b"SCCGINDX";
/// Format version stamped into (and required from) the header.
pub const FORMAT_VERSION: u32 = 1;
/// Suffix of the temporary file a [`SlideFileWriter`] streams into before
/// the atomic rename in [`finish`](SlideFileWriter::finish). A file with
/// this suffix is by definition an incomplete slide: a crash mid-write
/// leaves one behind, and [`recover_dir`] removes it at startup.
pub const PARTIAL_SUFFIX: &str = ".partial";

const HEADER_BYTES: u64 = 16;
const TRAILER_BYTES: u64 = 24;
const INDEX_ENTRY_BYTES: usize = 28;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over a byte slice. Any single-byte change changes the digest
/// (xor-then-multiply-by-odd-prime is injective in the running state), which
/// is exactly the containment the per-block checksums need.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// One tile's entry in the footer index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileIndexEntry {
    /// Byte offset of the tile's block from the start of the file.
    pub offset: u64,
    /// Length of the block in bytes.
    pub len: u64,
    /// Number of polygon records in the block.
    pub polygon_count: u32,
    /// FNV-1a 64 of the block's bytes.
    pub checksum: u64,
}

fn storage_error(detail: impl Into<String>) -> SccgError {
    SccgError::Storage {
        detail: detail.into(),
    }
}

fn io_error(context: &str, path: &Path, err: std::io::Error) -> SccgError {
    storage_error(format!("{context} {}: {err}", path.display()))
}

/// The temporary path a writer streams into before the atomic rename to
/// `path`: the final name with [`PARTIAL_SUFFIX`] appended.
pub fn partial_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(PARTIAL_SUFFIX);
    PathBuf::from(name)
}

/// Startup recovery scan: removes every orphaned `*.partial` file under
/// `dir` (incomplete slides left behind by a crash mid-registration) and
/// returns the paths it removed. A missing directory is an empty scan, not
/// an error, so recovery can run before the first registration ever
/// happens.
pub fn recover_dir(dir: &Path) -> Result<Vec<PathBuf>, SccgError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(err) => return Err(io_error("scan", dir, err)),
    };
    let mut removed = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| io_error("scan", dir, e))?.path();
        let is_partial = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(PARTIAL_SUFFIX));
        if is_partial {
            std::fs::remove_file(&path).map_err(|e| io_error("remove partial", &path, e))?;
            removed.push(path);
        }
    }
    Ok(removed)
}

/// Encodes one tile's records as a columnar block (see the module docs).
pub fn encode_tile(records: &[PolygonRecord]) -> Vec<u8> {
    let total_vertices: usize = records.iter().map(|r| r.polygon.vertex_count()).sum();
    let mut out = Vec::with_capacity(4 + records.len() * 12 + total_vertices * 8);
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for record in records {
        out.extend_from_slice(&record.id.to_le_bytes());
    }
    for record in records {
        out.extend_from_slice(&(record.polygon.vertex_count() as u32).to_le_bytes());
    }
    for record in records {
        for v in record.polygon.vertices() {
            out.extend_from_slice(&v.x.to_le_bytes());
        }
    }
    for record in records {
        for v in record.polygon.vertices() {
            out.extend_from_slice(&v.y.to_le_bytes());
        }
    }
    out
}

/// Cursor over a block's bytes; every read is bounds-checked so a truncated
/// or miscounted block decodes to a typed error, never a panic.
struct BlockReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BlockReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SccgError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| self.truncated(n))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn truncated(&self, n: usize) -> SccgError {
        storage_error(format!(
            "block truncated: wanted {n} bytes at offset {}, block is {} bytes",
            self.pos,
            self.bytes.len()
        ))
    }

    /// `count` values of `width` bytes each, as one slice. A short block
    /// fails at the first value that does not fit, with the error reading
    /// the values one by one would give.
    fn column(&mut self, count: usize, width: usize) -> Result<&'a [u8], SccgError> {
        let fits = (self.bytes.len() - self.pos) / width;
        if fits < count {
            self.pos += fits * width;
            return Err(self.truncated(width));
        }
        self.take(count * width)
    }

    fn u32(&mut self) -> Result<u32, SccgError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SccgError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().unwrap())
}

fn le_i32(bytes: &[u8]) -> i32 {
    i32::from_le_bytes(bytes.try_into().unwrap())
}

/// Decodes a columnar block back into its polygon records. The decoded
/// records are bit-identical to what [`encode_tile`] consumed: same ids,
/// same vertex chains in the same order.
///
/// The whole layout is checked before any polygon is built. Then each
/// chain is read straight from the `xs` and `ys` columns into one scratch
/// buffer sized for the longest chain, and
/// [`RectilinearPolygon::from_slice`] validates it and copies it into its
/// shared vertex chain: one allocation per record, plus the record list
/// and the scratch buffer.
pub fn decode_tile(bytes: &[u8]) -> Result<Vec<PolygonRecord>, SccgError> {
    let mut reader = BlockReader { bytes, pos: 0 };
    let polygon_count = reader.u32()? as usize;
    let ids = reader.column(polygon_count, 8)?;
    let counts = reader.column(polygon_count, 4)?;
    // A sum past `usize` cannot fit in the block, so it fails as truncated.
    let (total, longest) = counts
        .chunks_exact(4)
        .map(|count| le_u32(count) as usize)
        .try_fold((0usize, 0usize), |(total, longest), count| {
            Some((total.checked_add(count)?, longest.max(count)))
        })
        .unwrap_or((usize::MAX, 0));
    let mut xs = reader.column(total, 4)?;
    let mut ys = reader.column(total, 4)?;
    if reader.pos != bytes.len() {
        return Err(storage_error(format!(
            "block has {} trailing bytes after the last column",
            bytes.len() - reader.pos
        )));
    }
    let mut records = Vec::with_capacity(polygon_count);
    let mut vertices = Vec::with_capacity(longest);
    for (id, count) in ids.chunks_exact(8).zip(counts.chunks_exact(4)) {
        let id = u64::from_le_bytes(id.try_into().unwrap());
        let (chain_xs, rest_xs) = xs.split_at(le_u32(count) as usize * 4);
        let (chain_ys, rest_ys) = ys.split_at(chain_xs.len());
        (xs, ys) = (rest_xs, rest_ys);
        vertices.clear();
        vertices.extend(
            chain_xs
                .chunks_exact(4)
                .zip(chain_ys.chunks_exact(4))
                .map(|(x, y)| Point::new(le_i32(x), le_i32(y))),
        );
        let polygon = RectilinearPolygon::from_slice(&vertices).map_err(|e| {
            storage_error(format!("record {id} decodes to an invalid polygon: {e}"))
        })?;
        records.push(PolygonRecord { id, polygon });
    }
    Ok(records)
}

/// Streaming writer of one slide file: append tiles one at a time, then
/// [`finish`](SlideFileWriter::finish). Nothing but the footer index (28
/// bytes per tile) is retained in memory, so registration of an
/// arbitrarily large slide runs in O(largest tile), not O(slide).
///
/// **Crash safety.** The writer never touches the final path until the
/// slide is complete: all writes stream into `<path>.partial`, and
/// `finish` flushes, then atomically renames the partial onto `path`. A
/// crash, a write error, or dropping the writer without finishing leaves
/// *no* file at the final path — only a `.partial` that the drop removes
/// (or, after a hard crash, [`recover_dir`] removes at startup). Readers
/// therefore only ever see complete, validated slides.
#[derive(Debug)]
pub struct SlideFileWriter {
    file: Option<BufWriter<File>>,
    path: PathBuf,
    partial: PathBuf,
    index: Vec<TileIndexEntry>,
    offset: u64,
    faults: Option<Arc<FaultInjector>>,
    completed: bool,
}

impl SlideFileWriter {
    /// Creates the slide writer for `path`, streaming into `<path>.partial`
    /// until [`finish`](SlideFileWriter::finish) renames it into place.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, SccgError> {
        Self::create_with_faults(path, None)
    }

    /// [`create`](SlideFileWriter::create) with an optional fault injector:
    /// every write operation (header, each tile append, the footer/trailer
    /// flush, the final rename) consults the injector first, so a scheduled
    /// write error can strike at any point of a streaming registration.
    pub fn create_with_faults(
        path: impl Into<PathBuf>,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<Self, SccgError> {
        let path = path.into();
        let partial = partial_path(&path);
        let mut writer = SlideFileWriter {
            file: None,
            path,
            partial,
            index: Vec::new(),
            offset: HEADER_BYTES,
            faults,
            completed: false,
        };
        writer.write_op()?;
        let file =
            File::create(&writer.partial).map_err(|e| io_error("create", &writer.partial, e))?;
        let mut file = BufWriter::new(file);
        let mut header = Vec::with_capacity(HEADER_BYTES as usize);
        header.extend_from_slice(HEADER_MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        file.write_all(&header)
            .map_err(|e| io_error("write header of", &writer.partial, e))?;
        writer.file = Some(file);
        Ok(writer)
    }

    fn write_op(&self) -> Result<(), SccgError> {
        match &self.faults {
            Some(injector) => injector.on_write(),
            None => Ok(()),
        }
    }

    fn file_mut(&mut self) -> &mut BufWriter<File> {
        self.file.as_mut().expect("writer file open until finish")
    }

    /// Encodes `records` as the next tile's block, appends it and indexes
    /// it. Returns the tile's index within the slide.
    pub fn append_tile(&mut self, records: &[PolygonRecord]) -> Result<usize, SccgError> {
        self.write_op()?;
        let block = encode_tile(records);
        let partial = self.partial.clone();
        self.file_mut()
            .write_all(&block)
            .map_err(|e| io_error("append tile block to", &partial, e))?;
        let entry = TileIndexEntry {
            offset: self.offset,
            len: block.len() as u64,
            polygon_count: records.len() as u32,
            checksum: fnv1a_64(&block),
        };
        self.offset += entry.len;
        self.index.push(entry);
        Ok(self.index.len() - 1)
    }

    /// Number of tiles appended so far.
    pub fn tile_count(&self) -> usize {
        self.index.len()
    }

    /// Writes the footer index and trailer, flushes, atomically renames the
    /// partial file onto the final path, and reopens it for reading as a
    /// [`SlideFile`]. On any error the final path is left untouched (it
    /// does not exist) and the partial is removed when the writer drops.
    pub fn finish(mut self) -> Result<SlideFile, SccgError> {
        self.write_op()?;
        let footer_offset = self.offset;
        let mut footer = Vec::with_capacity(4 + self.index.len() * INDEX_ENTRY_BYTES);
        footer.extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        for entry in &self.index {
            footer.extend_from_slice(&entry.offset.to_le_bytes());
            footer.extend_from_slice(&entry.len.to_le_bytes());
            footer.extend_from_slice(&entry.polygon_count.to_le_bytes());
            footer.extend_from_slice(&entry.checksum.to_le_bytes());
        }
        let footer_checksum = fnv1a_64(&footer);
        let partial = self.partial.clone();
        self.file_mut()
            .write_all(&footer)
            .map_err(|e| io_error("write footer of", &partial, e))?;
        let mut trailer = Vec::with_capacity(TRAILER_BYTES as usize);
        trailer.extend_from_slice(&footer_offset.to_le_bytes());
        trailer.extend_from_slice(&footer_checksum.to_le_bytes());
        trailer.extend_from_slice(TRAILER_MAGIC);
        self.file_mut()
            .write_all(&trailer)
            .map_err(|e| io_error("write trailer of", &partial, e))?;
        self.file_mut()
            .flush()
            .map_err(|e| io_error("flush", &partial, e))?;
        drop(self.file.take());
        // The atomic commit point: before the rename a reader sees no file
        // at the final path, after it a complete validated slide.
        self.write_op()?;
        std::fs::rename(&self.partial, &self.path)
            .map_err(|e| io_error("rename partial onto", &self.path, e))?;
        self.completed = true;
        let mut file = SlideFile::open(&self.path)?;
        file.faults = self.faults.clone();
        Ok(file)
    }
}

impl Drop for SlideFileWriter {
    fn drop(&mut self) {
        if !self.completed {
            // Close the handle first so the remove succeeds everywhere.
            drop(self.file.take());
            let _ = std::fs::remove_file(&self.partial);
        }
    }
}

/// A finished slide file, opened for demand reads. The footer index is
/// validated (magic, version, footer checksum) once at open; each
/// [`read_tile`](SlideFile::read_tile) is one positioned read (`pread`, so
/// concurrent reads of different tiles share the handle without a lock),
/// verified against the tile's block checksum before decoding.
#[derive(Debug)]
pub struct SlideFile {
    file: File,
    path: PathBuf,
    index: Vec<TileIndexEntry>,
    file_bytes: u64,
    faults: Option<Arc<FaultInjector>>,
}

impl SlideFile {
    /// Opens and validates a slide file written by [`SlideFileWriter`].
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, SccgError> {
        let path = path.into();
        let mut file = File::open(&path).map_err(|e| io_error("open", &path, e))?;
        let file_bytes = file
            .metadata()
            .map_err(|e| io_error("stat", &path, e))?
            .len();
        if file_bytes < HEADER_BYTES + 4 + TRAILER_BYTES {
            return Err(storage_error(format!(
                "{}: {file_bytes} bytes is too short to be a slide file",
                path.display()
            )));
        }

        let mut header = [0u8; HEADER_BYTES as usize];
        file.read_exact(&mut header)
            .map_err(|e| io_error("read header of", &path, e))?;
        if &header[..8] != HEADER_MAGIC {
            return Err(storage_error(format!(
                "{}: bad header magic (not a slide file)",
                path.display()
            )));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(storage_error(format!(
                "{}: format version {version} is not {FORMAT_VERSION}",
                path.display()
            )));
        }

        let mut trailer = [0u8; TRAILER_BYTES as usize];
        file.seek(SeekFrom::End(-(TRAILER_BYTES as i64)))
            .map_err(|e| io_error("seek trailer of", &path, e))?;
        file.read_exact(&mut trailer)
            .map_err(|e| io_error("read trailer of", &path, e))?;
        if &trailer[16..24] != TRAILER_MAGIC {
            return Err(storage_error(format!(
                "{}: bad trailer magic (truncated or not a slide file)",
                path.display()
            )));
        }
        let footer_offset = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
        let footer_checksum = u64::from_le_bytes(trailer[8..16].try_into().unwrap());
        let footer_end = file_bytes - TRAILER_BYTES;
        if footer_offset < HEADER_BYTES || footer_offset > footer_end {
            return Err(storage_error(format!(
                "{}: footer offset {footer_offset} is outside the file",
                path.display()
            )));
        }

        let mut footer = vec![0u8; (footer_end - footer_offset) as usize];
        file.seek(SeekFrom::Start(footer_offset))
            .map_err(|e| io_error("seek footer of", &path, e))?;
        file.read_exact(&mut footer)
            .map_err(|e| io_error("read footer of", &path, e))?;
        if fnv1a_64(&footer) != footer_checksum {
            return Err(storage_error(format!(
                "{}: footer checksum mismatch (index is corrupt)",
                path.display()
            )));
        }
        let index = Self::parse_footer(&footer, footer_offset, &path)?;

        Ok(SlideFile {
            file,
            path,
            index,
            file_bytes,
            faults: None,
        })
    }

    /// Attaches a fault injector: subsequent [`SlideFile::read_tile`]
    /// calls consult it for scheduled read errors, virtual slow reads,
    /// and block corruption. A `None`-free production file pays one
    /// pointer test per read.
    pub fn set_faults(&mut self, faults: Option<Arc<FaultInjector>>) {
        self.faults = faults;
    }

    fn parse_footer(
        footer: &[u8],
        footer_offset: u64,
        path: &Path,
    ) -> Result<Vec<TileIndexEntry>, SccgError> {
        let mut reader = BlockReader {
            bytes: footer,
            pos: 0,
        };
        let count = reader.u32()? as usize;
        if footer.len() != 4 + count * INDEX_ENTRY_BYTES {
            return Err(storage_error(format!(
                "{}: footer declares {count} tiles but is {} bytes",
                path.display(),
                footer.len()
            )));
        }
        let mut index = Vec::with_capacity(count);
        let mut expected_offset = HEADER_BYTES;
        for i in 0..count {
            let entry = TileIndexEntry {
                offset: reader.u64()?,
                len: reader.u64()?,
                polygon_count: reader.u32()?,
                checksum: reader.u64()?,
            };
            // Blocks are written back to back: a gap or overlap means the
            // index (or the file) is corrupt even if its checksum holds.
            if entry.offset != expected_offset
                || entry.offset.checked_add(entry.len).is_none()
                || entry.offset + entry.len > footer_offset
            {
                return Err(storage_error(format!(
                    "{}: tile {i} block [{}, +{}) is inconsistent with the file layout",
                    path.display(),
                    entry.offset,
                    entry.len
                )));
            }
            expected_offset = entry.offset + entry.len;
            index.push(entry);
        }
        Ok(index)
    }

    /// Number of tiles the slide holds.
    pub fn tile_count(&self) -> usize {
        self.index.len()
    }

    /// Total polygon records across all tiles (from the index; no block
    /// reads).
    pub fn total_polygons(&self) -> usize {
        self.index.iter().map(|e| e.polygon_count as usize).sum()
    }

    /// The footer index, one entry per tile.
    pub fn index(&self) -> &[TileIndexEntry] {
        &self.index
    }

    /// Total size of the file on disk in bytes.
    pub fn bytes_on_disk(&self) -> u64 {
        self.file_bytes
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads, verifies and decodes one tile's block.
    ///
    /// A corrupt block (checksum mismatch), a truncated read or an undecodable
    /// payload fails with [`SccgError::Storage`] naming the tile — the error
    /// is contained to reads of this tile; every other tile stays readable.
    pub fn read_tile(&self, tile: usize) -> Result<Vec<PolygonRecord>, SccgError> {
        let entry = *self.index.get(tile).ok_or_else(|| {
            storage_error(format!(
                "tile {tile} is out of range ({} tiles on disk)",
                self.index.len()
            ))
        })?;
        if let Some(injector) = &self.faults {
            injector.on_tile_read(tile as u64)?;
        }
        let mut block = vec![0u8; entry.len as usize];
        self.file
            .read_exact_at(&mut block, entry.offset)
            .map_err(|e| io_error("read block of", &self.path, e))?;
        if let Some(injector) = &self.faults {
            injector.corrupt_tile_bytes(tile as u64, &mut block);
        }
        if fnv1a_64(&block) != entry.checksum {
            return Err(storage_error(format!(
                "tile {tile}: block checksum mismatch ({} bytes at offset {})",
                entry.len, entry.offset
            )));
        }
        let records =
            decode_tile(&block).map_err(|e| storage_error(format!("tile {tile}: {e}")))?;
        if records.len() != entry.polygon_count as usize {
            return Err(storage_error(format!(
                "tile {tile}: decoded {} records, index says {}",
                records.len(),
                entry.polygon_count
            )));
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use sccg_geometry::text::parse_polygon_file;

    /// An encoded tile of up to six staircase records, then damaged in one
    /// of the ways a block can be: truncated anywhere, padded, a chain made
    /// diagonal, zero-length or collinear by rewriting one coordinate, or
    /// one record's vertex count or the polygon count moved by one (which
    /// shifts every column after it).
    struct DamagedBlock;

    impl Strategy for DamagedBlock {
        type Value = Vec<u8>;

        fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
            let records: Vec<PolygonRecord> = (0..rng.below(7))
                .map(|id| {
                    let (w, h) = (1 + rng.below(9) as i32, 1 + rng.below(9) as i32);
                    let rect = sccg_geometry::Rect::new(0, 0, w, h);
                    PolygonRecord {
                        id,
                        polygon: RectilinearPolygon::rectangle(rect).unwrap(),
                    }
                })
                .collect();
            let mut block = encode_tile(&records);
            let n = records.len();
            let vertices_at = 4 + 12 * n;
            let len = block.len();
            match rng.below(6) {
                0 => block.truncate(rng.below(len as u64) as usize),
                1 => block.extend((0..1 + rng.below(9)).map(|b| b as u8)),
                2 if len > vertices_at => {
                    // Any coordinate: `xs` or `ys`, of any vertex.
                    let at = vertices_at + 4 * rng.below(((len - vertices_at) / 4) as u64) as usize;
                    let value = rng.below(12) as i32 - 1;
                    block[at..at + 4].copy_from_slice(&value.to_le_bytes());
                }
                3 if n > 0 => {
                    let at = 4 + 8 * n + 4 * rng.below(n as u64) as usize;
                    let count = le_u32(&block[at..at + 4]);
                    let moved = if rng.below(2) == 0 {
                        count + 1
                    } else {
                        count - 1
                    };
                    block[at..at + 4].copy_from_slice(&moved.to_le_bytes());
                }
                4 => {
                    let moved = if rng.below(2) == 0 {
                        n + 1
                    } else {
                        n.saturating_sub(1)
                    };
                    block[..4].copy_from_slice(&(moved as u32).to_le_bytes());
                }
                _ => {}
            }
            block
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        // A block decodes only when it is exactly the encoding of what it
        // decodes to; any other damage is a typed storage error.
        #[test]
        fn damaged_blocks_decode_to_their_own_encoding_or_a_storage_error(block in DamagedBlock) {
            match decode_tile(&block) {
                Ok(records) => prop_assert_eq!(encode_tile(&records), block),
                Err(err) => prop_assert!(matches!(err, SccgError::Storage { .. }), "{:?}", err),
            }
        }
    }

    #[test]
    fn a_block_holding_an_invalid_chain_names_the_record_and_defect() {
        let mut block = 1u32.to_le_bytes().to_vec();
        block.extend_from_slice(&7u64.to_le_bytes());
        block.extend_from_slice(&4u32.to_le_bytes());
        for x in [0i32, 2, 2, 0] {
            block.extend_from_slice(&x.to_le_bytes());
        }
        for y in [0i32, 1, 2, 2] {
            block.extend_from_slice(&y.to_le_bytes());
        }
        let err = decode_tile(&block).unwrap_err();
        assert!(
            matches!(&err, SccgError::Storage { detail }
                if detail == "record 7 decodes to an invalid polygon: \
                              edge starting at vertex 0 is not axis-aligned"),
            "{err:?}"
        );
    }

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sccg-store-format-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}-{}.sccgt", std::process::id()))
    }

    fn sample_tiles() -> Vec<Vec<PolygonRecord>> {
        vec![
            parse_polygon_file("0 4 0 0 10 0 10 10 0 10\n1 4 5 5 9 5 9 9 5 9\n").unwrap(),
            Vec::new(), // an empty tile is legal
            parse_polygon_file("7 6 0 0 4 0 4 2 2 2 2 4 0 4\n").unwrap(),
        ]
    }

    fn write_sample(tag: &str) -> (PathBuf, Vec<Vec<PolygonRecord>>) {
        let path = temp_path(tag);
        let tiles = sample_tiles();
        let mut writer = SlideFileWriter::create(&path).unwrap();
        for tile in &tiles {
            writer.append_tile(tile).unwrap();
        }
        let file = writer.finish().unwrap();
        assert_eq!(file.tile_count(), tiles.len());
        (path, tiles)
    }

    #[test]
    fn round_trips_every_tile_bit_identically() {
        let (path, tiles) = write_sample("round-trip");
        let file = SlideFile::open(&path).unwrap();
        assert_eq!(file.tile_count(), 3);
        assert_eq!(file.total_polygons(), 3);
        assert!(file.bytes_on_disk() > 0);
        for (i, expected) in tiles.iter().enumerate() {
            assert_eq!(&file.read_tile(i).unwrap(), expected, "tile {i}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_range_tiles_and_codec_defects_are_typed_errors() {
        let (path, _) = write_sample("bounds");
        let file = SlideFile::open(&path).unwrap();
        assert!(matches!(file.read_tile(3), Err(SccgError::Storage { .. })));
        // A declared count larger than the payload must not panic.
        let mut bogus = (3u32).to_le_bytes().to_vec();
        bogus.extend_from_slice(&7u64.to_le_bytes());
        assert!(matches!(
            decode_tile(&bogus),
            Err(SccgError::Storage { .. })
        ));
        // Trailing bytes after the last column are rejected too.
        let mut padded = encode_tile(&[]);
        padded.push(0);
        assert!(matches!(
            decode_tile(&padded),
            Err(SccgError::Storage { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupting_a_block_fails_only_that_tile() {
        let (path, tiles) = write_sample("contained");
        let file = SlideFile::open(&path).unwrap();
        let target = file.index()[0];
        drop(file);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[target.offset as usize + 4] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let file = SlideFile::open(&path).unwrap();
        let err = file.read_tile(0).unwrap_err();
        assert!(
            matches!(&err, SccgError::Storage { detail } if detail.contains("checksum")),
            "{err:?}"
        );
        // The other tiles are untouched and still read back exactly.
        assert_eq!(&file.read_tile(1).unwrap(), &tiles[1]);
        assert_eq!(&file.read_tile(2).unwrap(), &tiles[2]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_bad_magic_and_footer_corruption_fail_open() {
        let (path, _) = write_sample("open-failures");
        let original = std::fs::read(&path).unwrap();

        // Truncated behind the trailer.
        std::fs::write(&path, &original[..original.len() - 9]).unwrap();
        assert!(matches!(
            SlideFile::open(&path),
            Err(SccgError::Storage { .. })
        ));

        // Wrong header magic.
        let mut bad = original.clone();
        bad[0] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            SlideFile::open(&path),
            Err(SccgError::Storage { .. })
        ));

        // Unsupported version.
        let mut bad = original.clone();
        bad[8] = 99;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            SlideFile::open(&path),
            Err(SccgError::Storage { .. })
        ));

        // A flipped footer byte breaks the footer checksum.
        let mut bad = original.clone();
        let footer_offset = u64::from_le_bytes(
            original[original.len() - 24..original.len() - 16]
                .try_into()
                .unwrap(),
        );
        bad[footer_offset as usize + 1] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        let err = SlideFile::open(&path).unwrap_err();
        assert!(
            matches!(&err, SccgError::Storage { detail } if detail.contains("footer")),
            "{err:?}"
        );

        // A missing file is an error, not a panic.
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            SlideFile::open(&path),
            Err(SccgError::Storage { .. })
        ));
    }

    #[test]
    fn writer_streams_into_a_partial_and_renames_atomically() {
        let path = temp_path("atomic-rename");
        let partial = partial_path(&path);
        let _ = std::fs::remove_file(&path);
        let mut writer = SlideFileWriter::create(&path).unwrap();
        writer.append_tile(&sample_tiles()[0]).unwrap();
        assert!(partial.exists(), "writes stream into the partial");
        assert!(!path.exists(), "the final path appears only at finish");
        let file = writer.finish().unwrap();
        assert!(path.exists());
        assert!(!partial.exists(), "the partial was renamed away");
        assert_eq!(file.tile_count(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dropping_an_unfinished_writer_removes_the_partial() {
        let path = temp_path("abandoned");
        let partial = partial_path(&path);
        let _ = std::fs::remove_file(&path);
        let mut writer = SlideFileWriter::create(&path).unwrap();
        writer.append_tile(&sample_tiles()[0]).unwrap();
        assert!(partial.exists());
        drop(writer);
        assert!(!partial.exists(), "drop cleans up the partial");
        assert!(!path.exists(), "the final path was never created");
    }

    #[test]
    fn recover_dir_removes_orphaned_partials_only() {
        let dir = std::env::temp_dir().join(format!("sccg-recover-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let orphan = dir.join("slide-000003.sccgt.partial");
        let keep = dir.join("slide-000001.sccgt");
        std::fs::write(&orphan, b"half a slide").unwrap();
        std::fs::write(&keep, b"not actually scanned for validity").unwrap();
        let removed = recover_dir(&dir).unwrap();
        assert_eq!(removed, vec![orphan.clone()]);
        assert!(!orphan.exists());
        assert!(keep.exists(), "complete slides are untouched");
        assert_eq!(recover_dir(&dir).unwrap(), Vec::<PathBuf>::new());
        std::fs::remove_dir_all(&dir).unwrap();
        // A directory that does not exist yet is an empty scan.
        assert_eq!(recover_dir(&dir).unwrap(), Vec::<PathBuf>::new());
    }

    #[test]
    fn injected_write_errors_fail_the_writer_and_leave_nothing_behind() {
        use sccg::FaultPlan;
        // Op 0 is the header write, ops 1..=3 the tile appends, op 4 the
        // footer/trailer flush, op 5 the rename — fail each in turn.
        for op in 0..=5u64 {
            let path = temp_path(&format!("write-fault-{op}"));
            let partial = partial_path(&path);
            let _ = std::fs::remove_file(&path);
            let injector = Arc::new(FaultInjector::new(FaultPlan::new(1).fail_write_op(op)));
            let result = (|| -> Result<SlideFile, SccgError> {
                let mut writer = SlideFileWriter::create_with_faults(&path, Some(injector))?;
                for tile in sample_tiles() {
                    writer.append_tile(&tile)?;
                }
                writer.finish()
            })();
            let err = result.expect_err("the scheduled write fault must surface");
            assert!(matches!(err, SccgError::Storage { .. }), "{err:?}");
            assert!(!path.exists(), "op {op}: final path must not exist");
            assert!(!partial.exists(), "op {op}: partial must be cleaned up");
        }
    }

    #[test]
    fn injected_read_faults_and_corruption_surface_as_typed_errors() {
        use sccg::{FaultInjector, FaultPlan};
        let (path, tiles) = write_sample("injected-reads");
        let plan = FaultPlan::new(42)
            .fail_read(0, 1)
            .slow_read(2, 1_000)
            .corrupt_tile(2);
        let injector = Arc::new(FaultInjector::new(plan));
        let mut file = SlideFile::open(&path).unwrap();
        file.set_faults(Some(Arc::clone(&injector)));
        // Tile 0: one scheduled read error, then reads recover.
        let err = file.read_tile(0).unwrap_err();
        assert!(
            matches!(&err, SccgError::Storage { detail } if detail.contains("injected")),
            "{err:?}"
        );
        assert_eq!(&file.read_tile(0).unwrap(), &tiles[0]);
        // Tile 2: corruption flips a block byte, so the checksum fails and
        // the slow-read latency is charged virtually (no wall clock).
        let err = file.read_tile(2).unwrap_err();
        assert!(
            matches!(&err, SccgError::Storage { detail } if detail.contains("checksum")),
            "{err:?}"
        );
        assert!(injector.virtual_delay_nanos() >= 1_000);
        // Tile 1 is untouched by the whole schedule.
        assert_eq!(&file.read_tile(1).unwrap(), &tiles[1]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fnv1a_matches_the_reference_vector() {
        // Classic FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }
}
