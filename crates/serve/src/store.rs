//! The slide registry: parse once, query many times.
//!
//! The paper's workflow (Figure 1) registers each segmentation result as a
//! table of polygon records before any cross-comparison query runs. The
//! [`SlideStore`] is that registry: callers hand in parsed (or raw-text)
//! per-tile polygon records once and get back [`SlideId`]/[`TileId`] handles;
//! every later [`crate::QueryRequest`] references the handles, so the parse
//! and validation cost is paid exactly once per slide rather than once per
//! query.
//!
//! # Out-of-core backing
//!
//! A store created with [`SlideStore::with_spill`] keeps registered slides
//! *on disk* in the `sccg-store` columnar tile format instead of in memory:
//!
//! * [`SlideStore::register_slide_streaming`] parses tile texts one at a
//!   time and streams the parse output through a bounded executor channel
//!   (the pipeline's [`sccg::pipeline::exec`] seam) to a writer task that
//!   appends each tile to the slide file — the whole slide is never
//!   materialized in memory, so registration runs in O(channel × tile).
//! * [`SlideStore::tile`] faults disk-backed tiles in through a per-slide
//!   demand pager ([`sccg_store::TileStorage`]) holding at most the
//!   configured residency bound of decoded tiles; query sharding touches
//!   tiles through exactly this path, so peak memory during a whole-slide
//!   query is bounded regardless of slide size.
//! * A corrupt or truncated tile fails *its own* reads with
//!   [`SccgError::Storage`]; other tiles, other slides and the process stay
//!   healthy. A tile that keeps failing is quarantined by the pager's
//!   circuit breaker ([`sccg_store::QUARANTINE_THRESHOLD`]) so queries fail
//!   fast instead of re-reading a sick block forever.
//!
//! # Crash safety
//!
//! Streaming registration writes through a temp file and publishes the
//! final slide file with one atomic rename ([`SlideFileWriter`]), so a
//! crash — or an injected write error — at *any* point leaves either the
//! complete file or nothing. Orphaned `*.partial` temp files from a
//! previous crashed process are swept at startup by the spilling
//! constructors (and on demand by [`SlideStore::recover`]).
//!
//! A store without a spill directory behaves exactly as before: everything
//! in memory, and the streaming registration degrades to an in-memory
//! accumulation with identical results.

use sccg::pipeline::exec::{channel, Executor};
use sccg::sync::lock;
use sccg::{FaultInjector, SccgError, WorkerPool};
use sccg_geometry::text::{parse_polygon_file, PolygonRecord};
use sccg_store::{recover_dir, PagerStats, SlideFileWriter, TileStorage};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// Handle of a registered slide (one segmentation result: a sequence of
/// tiles of polygon records).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlideId(pub(crate) u64);

impl SlideId {
    /// The raw id value (stable for the lifetime of the store).
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Reconstructs a handle from a raw id value (for example one read back
    /// from exported telemetry). Only meaningful for the store that
    /// originally issued it; an unknown id fails lookups with
    /// [`SccgError::UnknownSlide`] rather than panicking.
    pub fn from_raw(value: u64) -> Self {
        SlideId(value)
    }
}

/// Handle of one tile within a registered slide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileId {
    /// The slide the tile belongs to.
    pub slide: SlideId,
    /// Zero-based tile index within the slide.
    pub index: usize,
}

/// Where a slide's tiles live.
enum TileBacking {
    /// Fully decoded in memory (the classic path).
    Memory(Vec<Arc<Vec<PolygonRecord>>>),
    /// On disk in the columnar tile format, paged in on demand.
    Disk(Arc<TileStorage>),
}

impl TileBacking {
    fn tile_count(&self) -> usize {
        match self {
            TileBacking::Memory(tiles) => tiles.len(),
            TileBacking::Disk(storage) => storage.tile_count(),
        }
    }

    fn polygons(&self) -> usize {
        match self {
            TileBacking::Memory(tiles) => tiles.iter().map(|t| t.len()).sum(),
            TileBacking::Disk(storage) => storage.total_polygons(),
        }
    }
}

/// Immutable per-slide registry entry.
struct SlideEntry {
    name: String,
    backing: TileBacking,
}

/// Summary of one registered slide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlideInfo {
    /// The slide's handle.
    pub id: SlideId,
    /// The name it was registered under.
    pub name: String,
    /// Number of registered tiles.
    pub tiles: usize,
    /// Total polygon records across all tiles.
    pub polygons: usize,
    /// Whether the slide's tiles live on disk (paged in on demand) rather
    /// than in memory.
    pub on_disk: bool,
}

/// Aggregate out-of-core telemetry across every disk-backed slide of a
/// store. A store with no disk-backed slides reports all zeros.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub struct StorageStats {
    /// Number of disk-backed slides.
    pub disk_slides: usize,
    /// Decoded tiles currently resident across all pagers.
    pub resident_tiles: usize,
    /// Sum of each pager's peak resident-tile count.
    pub peak_resident_tiles: usize,
    /// Tile fetches served from the resident sets.
    pub pager_hits: u64,
    /// Tile fetches that read and decoded a block from disk.
    pub pager_misses: u64,
    /// Tile fetches that joined another caller's in-flight disk read
    /// (single-flight coalescing) instead of decoding the block again.
    pub coalesced_faults: u64,
    /// `hits / (hits + misses)` across all pagers, or 0.0 before any fetch.
    pub pager_hit_rate: f64,
    /// Total bytes of slide files on disk.
    pub bytes_on_disk: u64,
    /// Tiles currently quarantined by their pager's circuit breaker after
    /// repeated failed reads.
    pub quarantined_tiles: usize,
}

impl StorageStats {
    fn absorb(&mut self, stats: &PagerStats) {
        self.disk_slides += 1;
        self.resident_tiles += stats.resident;
        self.peak_resident_tiles += stats.peak_resident;
        self.pager_hits += stats.hits;
        self.pager_misses += stats.misses;
        self.coalesced_faults += stats.coalesced_faults;
        self.bytes_on_disk += stats.bytes_on_disk;
        self.quarantined_tiles += stats.quarantined_tiles;
    }
}

/// Out-of-core configuration of a spilling store.
struct SpillState {
    dir: PathBuf,
    residency_bound: usize,
    next_file: AtomicU64,
    /// Fault-injection hook threaded into every slide file this store
    /// writes or reads; `None` in production (zero-cost no-op).
    faults: Option<Arc<FaultInjector>>,
}

/// Registry of parsed slide data, shared between callers and a
/// [`crate::ComparisonService`].
///
/// Cheap to clone: clones share the same underlying registry. Tiles are
/// immutable once registered (appending new tiles to an in-memory slide is
/// allowed and simply extends the slide), so queries can snapshot `Arc`s to
/// tile data without copying polygons.
#[derive(Clone, Default)]
pub struct SlideStore {
    inner: Arc<Mutex<Vec<SlideEntry>>>,
    spill: Option<Arc<SpillState>>,
}

impl std::fmt::Debug for SlideStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let slides = lock(&self.inner);
        f.debug_struct("SlideStore")
            .field("slides", &slides.len())
            .field("spilling", &self.spill.is_some())
            .finish()
    }
}

impl SlideStore {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        SlideStore::default()
    }

    /// Creates an empty store that keeps registered slides on disk under
    /// `dir` (created if missing), paging at most `residency_bound` decoded
    /// tiles per slide back into memory on demand (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// [`SccgError::Storage`] if the spill directory cannot be created.
    pub fn with_spill(dir: impl Into<PathBuf>, residency_bound: usize) -> Result<Self, SccgError> {
        SlideStore::with_spill_and_faults(dir, residency_bound, None)
    }

    /// Like [`SlideStore::with_spill`], additionally threading a
    /// [`FaultInjector`] into every slide file the store writes or reads —
    /// the fault-injection seam the chaos harness drives. Production code
    /// passes `None` (via [`SlideStore::with_spill`]) and pays nothing.
    ///
    /// Both spilling constructors sweep orphaned partial files left under
    /// `dir` by a previous crashed process (see [`SlideStore::recover`]).
    ///
    /// # Errors
    ///
    /// [`SccgError::Storage`] if the spill directory cannot be created or
    /// the recovery sweep cannot read it.
    pub fn with_spill_and_faults(
        dir: impl Into<PathBuf>,
        residency_bound: usize,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<Self, SccgError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| SccgError::Storage {
            detail: format!("create spill directory {}: {e}", dir.display()),
        })?;
        SlideStore::recover(&dir)?;
        Ok(SlideStore {
            inner: Arc::new(Mutex::new(Vec::new())),
            spill: Some(Arc::new(SpillState {
                dir,
                residency_bound: residency_bound.max(1),
                next_file: AtomicU64::new(0),
                faults,
            })),
        })
    }

    /// Removes orphaned partial slide files (`*.sccgt.partial`) left under
    /// `dir` by a crashed writer, returning the removed paths. Completed
    /// slide files are never touched; a missing directory is an empty
    /// sweep, not an error.
    ///
    /// # Errors
    ///
    /// [`SccgError::Storage`] if the directory cannot be read or an orphan
    /// cannot be removed.
    pub fn recover(dir: impl AsRef<Path>) -> Result<Vec<PathBuf>, SccgError> {
        recover_dir(dir.as_ref())
    }

    /// The per-slide residency bound, when the store spills to disk.
    pub fn residency_bound(&self) -> Option<usize> {
        self.spill.as_ref().map(|s| s.residency_bound)
    }

    /// Registers a slide from already-parsed per-tile polygon records and
    /// returns its handle. Always lands in memory — out-of-core
    /// registration goes through [`SlideStore::register_slide_streaming`].
    pub fn register_slide(
        &self,
        name: impl Into<String>,
        tiles: Vec<Vec<PolygonRecord>>,
    ) -> SlideId {
        self.push_entry(SlideEntry {
            name: name.into(),
            backing: TileBacking::Memory(tiles.into_iter().map(Arc::new).collect()),
        })
    }

    /// Registers a slide from raw polygon-file texts (one text per tile),
    /// parsing each tile up front into memory. Unlike the batch pipeline —
    /// which skips malformed tiles so one bad file cannot abort a
    /// whole-slide run — the serving route fails registration with
    /// [`SccgError::Parse`]: a service must not silently serve queries over
    /// partially-loaded slides.
    pub fn register_slide_text(
        &self,
        name: impl Into<String>,
        tile_texts: &[String],
    ) -> Result<SlideId, SccgError> {
        let mut tiles = Vec::with_capacity(tile_texts.len());
        for (index, text) in tile_texts.iter().enumerate() {
            tiles.push(parse_tile(index, text)?);
        }
        Ok(self.register_slide(name, tiles))
    }

    /// Registers a slide by *streaming*: tile texts are parsed one at a
    /// time and, on a spilling store, the parse output flows tile-by-tile
    /// through a bounded executor channel to a writer task appending the
    /// on-disk slide file — the whole slide is never materialized in
    /// memory. Queries then page tiles back in on demand. On a store
    /// without a spill directory this degrades to an in-memory
    /// registration with identical query results.
    ///
    /// A parse or write failure aborts the registration, removes the
    /// partial file, and leaves no slide entry behind.
    ///
    /// # Errors
    ///
    /// [`SccgError::Parse`] for a malformed tile text;
    /// [`SccgError::Storage`] for an I/O failure on the slide file.
    pub fn register_slide_streaming<I>(
        &self,
        name: impl Into<String>,
        tile_texts: I,
    ) -> Result<SlideId, SccgError>
    where
        I: IntoIterator<Item = String>,
    {
        let Some(spill) = &self.spill else {
            let mut tiles = Vec::new();
            for (index, text) in tile_texts.into_iter().enumerate() {
                tiles.push(parse_tile(index, &text)?);
            }
            return Ok(self.register_slide(name, tiles));
        };

        let file_id = spill.next_file.fetch_add(1, Ordering::Relaxed);
        let path = spill.dir.join(format!("slide-{file_id:06}.sccgt"));
        let writer = SlideFileWriter::create_with_faults(&path, spill.faults.clone())?;
        // The streaming seam: a bounded channel keeps at most a couple of
        // parsed tiles in flight between this thread and the writer task.
        let (tile_tx, tile_rx) = channel::<Vec<PolygonRecord>>(2);
        let (done_tx, done_rx) = mpsc::channel();
        // The writer is a task on the shared worker pool, not a thread of
        // its own: between tiles it is suspended on the channel.
        Executor::new(WorkerPool::global()).spawn(async move {
            // The writer lives in this block only: a failed write drops it,
            // and with it the partial file, *before* the result is sent, so
            // the caller never returns an error while the partial exists.
            let result = {
                let mut writer = writer;
                loop {
                    match tile_rx.recv().await {
                        Some(records) => {
                            if let Err(error) = writer.append_tile(&records) {
                                break Err(error);
                            }
                        }
                        None => break writer.finish(),
                    }
                }
            };
            let _ = done_tx.send(result);
        });

        let mut parse_error = None;
        for (index, text) in tile_texts.into_iter().enumerate() {
            match parse_tile(index, &text) {
                // A send fails only when the writer task already died on a
                // write error; stop feeding and surface that error below.
                Ok(records) => {
                    if tile_tx.send_blocking(records).is_err() {
                        break;
                    }
                }
                Err(error) => {
                    parse_error = Some(error);
                    break;
                }
            }
        }
        drop(tile_tx);
        let written = done_rx.recv().map_err(|_| SccgError::Storage {
            detail: "slide writer task vanished before finishing".to_string(),
        })?;

        let failure = parse_error.or(written.as_ref().err().cloned());
        if let Some(error) = failure {
            // A write failure never published the final file (the writer
            // cleans its own partial on drop); a parse failure after a
            // clean finish leaves a renamed-but-unwanted file to delete.
            let _ = std::fs::remove_file(&path);
            return Err(error);
        }
        let file = written.expect("checked above");
        Ok(self.push_entry(SlideEntry {
            name: name.into(),
            backing: TileBacking::Disk(Arc::new(TileStorage::new(file, spill.residency_bound))),
        }))
    }

    fn push_entry(&self, entry: SlideEntry) -> SlideId {
        let mut slides = lock(&self.inner);
        let id = SlideId(slides.len() as u64);
        slides.push(entry);
        id
    }

    /// Appends one tile's records to an existing in-memory slide, returning
    /// the new tile's handle. Disk-backed slides are immutable once
    /// registered (their footer index is final) and fail with
    /// [`SccgError::Storage`].
    pub fn append_tile(
        &self,
        slide: SlideId,
        records: Vec<PolygonRecord>,
    ) -> Result<TileId, SccgError> {
        let mut slides = lock(&self.inner);
        let entry = slides
            .get_mut(slide.0 as usize)
            .ok_or(SccgError::UnknownSlide { slide: slide.0 })?;
        match &mut entry.backing {
            TileBacking::Memory(tiles) => {
                tiles.push(Arc::new(records));
                Ok(TileId {
                    slide,
                    index: tiles.len() - 1,
                })
            }
            TileBacking::Disk(_) => Err(SccgError::Storage {
                detail: format!(
                    "slide {} is disk-backed and immutable; register a new slide instead",
                    slide.0
                ),
            }),
        }
    }

    /// Number of registered slides.
    pub fn len(&self) -> usize {
        lock(&self.inner).len()
    }

    /// Whether the store has no slides.
    pub fn is_empty(&self) -> bool {
        lock(&self.inner).is_empty()
    }

    /// Summary of a registered slide.
    pub fn slide(&self, slide: SlideId) -> Result<SlideInfo, SccgError> {
        let slides = lock(&self.inner);
        let entry = slides
            .get(slide.0 as usize)
            .ok_or(SccgError::UnknownSlide { slide: slide.0 })?;
        Ok(SlideInfo {
            id: slide,
            name: entry.name.clone(),
            tiles: entry.backing.tile_count(),
            polygons: entry.backing.polygons(),
            on_disk: matches!(entry.backing, TileBacking::Disk(_)),
        })
    }

    /// Number of tiles a slide currently has.
    pub fn tile_count(&self, slide: SlideId) -> Result<usize, SccgError> {
        Ok(self.slide(slide)?.tiles)
    }

    /// The records of one tile: a shared snapshot for in-memory slides, a
    /// demand-paged fetch for disk-backed ones (at most the residency bound
    /// of decoded tiles stays resident per slide).
    ///
    /// # Errors
    ///
    /// [`SccgError::UnknownSlide`]/[`SccgError::UnknownTile`] for bad
    /// handles; [`SccgError::Storage`] when a disk-backed tile's block is
    /// corrupt, truncated or unreadable — contained to this tile.
    pub fn tile(&self, tile: TileId) -> Result<Arc<Vec<PolygonRecord>>, SccgError> {
        // Clone the pager handle out of the registry lock before the
        // (possibly I/O-bound) fetch: a disk read must not block lookups.
        let storage = {
            let slides = lock(&self.inner);
            let entry = slides
                .get(tile.slide.0 as usize)
                .ok_or(SccgError::UnknownSlide {
                    slide: tile.slide.0,
                })?;
            match &entry.backing {
                TileBacking::Memory(tiles) => {
                    return tiles
                        .get(tile.index)
                        .cloned()
                        .ok_or(SccgError::UnknownTile {
                            slide: tile.slide.0,
                            tile: tile.index,
                            tiles: tiles.len(),
                        });
                }
                TileBacking::Disk(storage) => {
                    if tile.index >= storage.tile_count() {
                        return Err(SccgError::UnknownTile {
                            slide: tile.slide.0,
                            tile: tile.index,
                            tiles: storage.tile_count(),
                        });
                    }
                    Arc::clone(storage)
                }
            }
        };
        storage.fetch(tile.index)
    }

    /// Aggregate out-of-core telemetry across every disk-backed slide.
    pub fn storage_stats(&self) -> StorageStats {
        let pagers: Vec<Arc<TileStorage>> = {
            let slides = lock(&self.inner);
            slides
                .iter()
                .filter_map(|entry| match &entry.backing {
                    TileBacking::Disk(storage) => Some(Arc::clone(storage)),
                    TileBacking::Memory(_) => None,
                })
                .collect()
        };
        let mut stats = StorageStats::default();
        for pager in pagers {
            stats.absorb(&pager.stats());
        }
        let fetches = stats.pager_hits + stats.pager_misses;
        if fetches > 0 {
            stats.pager_hit_rate = stats.pager_hits as f64 / fetches as f64;
        }
        stats
    }
}

fn parse_tile(index: usize, text: &str) -> Result<Vec<PolygonRecord>, SccgError> {
    parse_polygon_file(text).map_err(|e| SccgError::Parse {
        detail: format!("tile {index}: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccg_geometry::text::write_polygon_file;

    /// Tile texts registration must refuse with a typed error: not a record
    /// at all, and records declaring vertex counts (2^64 - 1, 3e9) that
    /// must never be allocated.
    const MALFORMED_TILES: [&str; 3] = [
        "not a polygon",
        "7 18446744073709551615 0 0",
        "7 3000000000 0 0 1 0",
    ];

    fn record() -> PolygonRecord {
        parse_polygon_file("0 4 0 0 10 0 10 10 0 10")
            .unwrap()
            .remove(0)
    }

    fn spill_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("sccg-serve-store-tests")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn register_and_inspect_slides() {
        let store = SlideStore::new();
        assert!(store.is_empty());
        let id = store.register_slide("algo-a", vec![vec![record()], vec![]]);
        assert_eq!(store.len(), 1);
        let info = store.slide(id).unwrap();
        assert_eq!(info.name, "algo-a");
        assert_eq!(info.tiles, 2);
        assert_eq!(info.polygons, 1);
        assert!(!info.on_disk);
        assert_eq!(store.tile_count(id).unwrap(), 2);
    }

    #[test]
    fn append_tile_extends_a_slide() {
        let store = SlideStore::new();
        let id = store.register_slide("s", vec![]);
        let tile = store.append_tile(id, vec![record()]).unwrap();
        assert_eq!(tile.index, 0);
        assert_eq!(store.tile(tile).unwrap().len(), 1);
        assert_eq!(store.tile_count(id).unwrap(), 1);
    }

    #[test]
    fn unknown_handles_are_errors_not_panics() {
        let store = SlideStore::new();
        let missing = SlideId(42);
        assert_eq!(
            store.slide(missing),
            Err(SccgError::UnknownSlide { slide: 42 })
        );
        let id = store.register_slide("s", vec![vec![record()]]);
        let bad_tile = TileId {
            slide: id,
            index: 5,
        };
        assert_eq!(
            store.tile(bad_tile),
            Err(SccgError::UnknownTile {
                slide: id.0,
                tile: 5,
                tiles: 1
            })
        );
        assert!(store.append_tile(missing, Vec::new()).is_err());
    }

    #[test]
    fn text_registration_fails_on_malformed_tiles() {
        let store = SlideStore::new();
        let good = "0 4 0 0 10 0 10 10 0 10".to_string();
        let id = store
            .register_slide_text("parsed", std::slice::from_ref(&good))
            .unwrap();
        assert_eq!(store.tile_count(id).unwrap(), 1);
        for bad in MALFORMED_TILES {
            let err = store
                .register_slide_text("broken", &[good.clone(), bad.to_string()])
                .unwrap_err();
            assert!(matches!(err, SccgError::Parse { .. }), "{bad:?}: {err:?}");
            // The failed registration left no partial slide behind.
            assert_eq!(store.len(), 1);
        }
    }

    #[test]
    fn streaming_registration_spills_to_disk_and_pages_back() {
        let dir = spill_dir("spill");
        let store = SlideStore::with_spill(&dir, 2).unwrap();
        assert_eq!(store.residency_bound(), Some(2));
        let texts: Vec<String> = (0..6)
            .map(|i| {
                let mut rec = record();
                rec.id = i;
                write_polygon_file(&[rec])
            })
            .collect();
        let id = store
            .register_slide_streaming("disk", texts.clone())
            .unwrap();
        let info = store.slide(id).unwrap();
        assert!(info.on_disk);
        assert_eq!(info.tiles, 6);
        assert_eq!(info.polygons, 6);
        // Every tile pages back bit-identical to its source text.
        for (index, text) in texts.iter().enumerate() {
            let fetched = store.tile(TileId { slide: id, index }).unwrap();
            assert_eq!(&write_polygon_file(&fetched), text);
        }
        let stats = store.storage_stats();
        assert_eq!(stats.disk_slides, 1);
        assert!(stats.resident_tiles <= 2);
        assert!(stats.peak_resident_tiles <= 2);
        assert_eq!(stats.pager_hits + stats.pager_misses, 6);
        assert!(stats.bytes_on_disk > 0);
        // Disk-backed slides are immutable.
        assert!(matches!(
            store.append_tile(id, vec![record()]),
            Err(SccgError::Storage { .. })
        ));
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_registration_without_spill_lands_in_memory() {
        let store = SlideStore::new();
        let id = store
            .register_slide_streaming("mem", vec![write_polygon_file(&[record()])])
            .unwrap();
        let info = store.slide(id).unwrap();
        assert!(!info.on_disk);
        assert_eq!(info.tiles, 1);
        assert_eq!(store.storage_stats(), StorageStats::default());
    }

    #[test]
    fn failed_streaming_registration_leaves_nothing_behind() {
        let dir = spill_dir("abort");
        let store = SlideStore::with_spill(&dir, 4).unwrap();
        for bad in MALFORMED_TILES {
            let err = store
                .register_slide_streaming(
                    "broken",
                    vec![write_polygon_file(&[record()]), bad.to_string()],
                )
                .unwrap_err();
            assert!(matches!(err, SccgError::Parse { .. }), "{bad:?}: {err:?}");
            assert_eq!(store.len(), 0);
            // The partial slide file was deleted.
            let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
            assert!(leftovers.is_empty(), "{bad:?}: {leftovers:?}");
        }
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupting_a_disk_tile_fails_only_that_tile() {
        let dir = spill_dir("corrupt");
        let store = SlideStore::with_spill(&dir, 1).unwrap();
        let texts: Vec<String> = (0..3)
            .map(|i| {
                let mut rec = record();
                rec.id = i;
                write_polygon_file(&[rec])
            })
            .collect();
        let id = store.register_slide_streaming("c", texts.clone()).unwrap();
        // Flip one byte inside tile 1's block, behind the pager's back.
        let file = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap();
        let mut bytes = std::fs::read(file.path()).unwrap();
        // Header is 16 bytes; tile blocks are identical in size, so tile 1
        // starts at 16 + len and we flip a byte a little inside it.
        let block_len = (bytes.len() - 16 - 24 - 4 - 3 * 28) / 3;
        bytes[16 + block_len + 6] ^= 0xFF;
        std::fs::write(file.path(), &bytes).unwrap();
        let err = store
            .tile(TileId {
                slide: id,
                index: 1,
            })
            .unwrap_err();
        assert!(matches!(err, SccgError::Storage { .. }), "{err:?}");
        // The other tiles still page in fine.
        for index in [0usize, 2] {
            let fetched = store.tile(TileId { slide: id, index }).unwrap();
            assert_eq!(&write_polygon_file(&fetched), &texts[index]);
        }
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
