//! Demand paging over a [`SlideFile`]: a bounded LRU of resident decoded
//! tiles.
//!
//! The serving layer shards a whole-slide query into per-tile jobs; with the
//! slide on disk, each job *faults its tile in* through [`TileStorage`]
//! instead of holding the whole slide in memory. The pager keeps at most
//! `residency_bound` decoded tiles resident (the generic
//! [`sccg::collections::LruCache`] shared with the serving layer's response
//! cache), so peak memory is O(bound × tile), independent of slide size —
//! the out-of-core discipline the paper's pipeline applies to its buffers
//! (§4.1), applied to storage.
//!
//! Faults are **single-flight**: concurrent misses of one tile coalesce —
//! the first miss reads and decodes the block, every other caller waits on
//! the in-flight fault and shares the result (counted in
//! [`PagerStats::coalesced_faults`]). One tile is never decoded twice
//! concurrently. The owner writes the outcome into the fault's slot under
//! the slot lock before it notifies, and a waiter checks the slot under that
//! lock before it sleeps, so no waiter can miss the wake-up.
//!
//! Failure containment is inherited from the format layer: a corrupt or
//! truncated tile fails *its own* fetch with [`sccg::SccgError::Storage`]
//! and is never cached, so other tiles keep paging normally and a later
//! fetch of a repaired tile retries the disk read. A per-tile **circuit
//! breaker** bounds how often that retry happens: after
//! [`QUARANTINE_THRESHOLD`] *consecutive* failed reads, the tile is
//! quarantined and further fetches fail fast with a typed error instead of
//! re-reading a block known to be bad on every query that touches it. One
//! successful read (a repaired tile) closes the breaker again.

use crate::format::SlideFile;
use sccg::collections::LruCache;
use sccg::sync::lock;
use sccg::SccgError;
use sccg_geometry::text::PolygonRecord;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Consecutive failed disk reads of one tile after which its circuit
/// breaker opens: further fetches fail fast without touching the disk until
/// a successful read resets the count. Three strikes distinguishes a
/// persistently bad block from a transient I/O hiccup.
pub const QUARANTINE_THRESHOLD: u32 = 3;

/// Counters describing a pager's behaviour since creation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PagerStats {
    /// Fetches served from the resident set.
    pub hits: u64,
    /// Fetches that had to read and decode a block from disk.
    pub misses: u64,
    /// Fetches that joined another caller's in-flight disk read instead of
    /// issuing their own (single-flight coalescing). Not counted as hits or
    /// misses: the read they shared is the one miss.
    pub coalesced_faults: u64,
    /// `hits / (hits + misses)`, or 0.0 before the first fetch.
    pub hit_rate: f64,
    /// Decoded tiles currently resident.
    pub resident: usize,
    /// Maximum number of tiles ever resident at once.
    pub peak_resident: usize,
    /// The configured residency bound.
    pub residency_bound: usize,
    /// Size of the backing slide file in bytes.
    pub bytes_on_disk: u64,
    /// Tiles whose circuit breaker is currently open (at least
    /// [`QUARANTINE_THRESHOLD`] consecutive failed reads, no success since).
    pub quarantined_tiles: usize,
}

/// One in-flight disk fault: the owner publishes the read's outcome here
/// and every coalesced waiter blocks on `ready` until it lands.
#[derive(Debug, Default)]
struct FaultSlot {
    result: Mutex<Option<Result<Arc<Vec<PolygonRecord>>, SccgError>>>,
    ready: Condvar,
}

/// A paged view of one on-disk slide: fetches fault tiles in on demand and
/// keep at most `residency_bound` of them decoded in memory.
#[derive(Debug)]
pub struct TileStorage {
    file: SlideFile,
    resident: Mutex<LruCache<usize, Arc<Vec<PolygonRecord>>>>,
    /// Tiles with a disk read in flight, for single-flight coalescing.
    in_flight: Mutex<HashMap<usize, Arc<FaultSlot>>>,
    /// Consecutive failed disk reads per tile; at `QUARANTINE_THRESHOLD`
    /// the tile's circuit breaker is open and fetches fail fast.
    failures: Vec<AtomicU32>,
    residency_bound: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    peak_resident: AtomicU64,
}

impl TileStorage {
    /// Wraps an opened slide file in a pager holding at most
    /// `residency_bound` decoded tiles (clamped to at least 1 — a pager that
    /// can hold nothing can serve nothing).
    pub fn new(file: SlideFile, residency_bound: usize) -> Self {
        let residency_bound = residency_bound.max(1);
        let failures = (0..file.tile_count()).map(|_| AtomicU32::new(0)).collect();
        TileStorage {
            file,
            resident: Mutex::new(LruCache::new(residency_bound)),
            in_flight: Mutex::new(HashMap::new()),
            failures,
            residency_bound,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            peak_resident: AtomicU64::new(0),
        }
    }

    /// Number of tiles in the backing slide.
    pub fn tile_count(&self) -> usize {
        self.file.tile_count()
    }

    /// Total polygon records across all tiles (from the footer index).
    pub fn total_polygons(&self) -> usize {
        self.file.total_polygons()
    }

    /// Size of the backing slide file on disk in bytes.
    pub fn bytes_on_disk(&self) -> u64 {
        self.file.bytes_on_disk()
    }

    /// The configured residency bound.
    pub fn residency_bound(&self) -> usize {
        self.residency_bound
    }

    /// The backing slide file.
    pub fn file(&self) -> &SlideFile {
        &self.file
    }

    /// Whether `tile`'s circuit breaker is open: at least
    /// [`QUARANTINE_THRESHOLD`] consecutive disk reads of it failed and
    /// none has succeeded since. Fetches of a quarantined tile fail fast
    /// without disk I/O; out-of-range indices are never quarantined (they
    /// fail typed on their own).
    pub fn is_quarantined(&self, tile: usize) -> bool {
        self.failures
            .get(tile)
            .is_some_and(|count| count.load(Ordering::Relaxed) >= QUARANTINE_THRESHOLD)
    }

    /// Records the outcome of a disk read of `tile` against its circuit
    /// breaker: success closes it, failure moves it one strike closer to
    /// quarantine.
    fn record_read_outcome(&self, tile: usize, ok: bool) {
        if let Some(count) = self.failures.get(tile) {
            if ok {
                count.store(0, Ordering::Relaxed);
            } else {
                count.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The fail-fast error a quarantined tile's fetch returns.
    fn quarantine_error(tile: usize) -> SccgError {
        SccgError::Storage {
            detail: format!(
                "tile {tile}: quarantined after {QUARANTINE_THRESHOLD} consecutive failed reads"
            ),
        }
    }

    /// Returns the tile's decoded records, faulting them in from disk on a
    /// miss. Shared `Arc`s mean an eviction never invalidates records a
    /// query still holds, and concurrent misses of one tile are
    /// *single-flight*: one caller reads and decodes, the rest wait on the
    /// in-flight fault and share the result.
    ///
    /// # Errors
    ///
    /// [`SccgError::Storage`] for an out-of-range index or a corrupt,
    /// truncated or unreadable block. Failed fetches are not cached, and
    /// coalesced waiters of a failed fault receive the owner's error.
    pub fn fetch(&self, tile: usize) -> Result<Arc<Vec<PolygonRecord>>, SccgError> {
        if let Some(records) = lock(&self.resident).get(&tile) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(records);
        }
        if self.is_quarantined(tile) {
            // Circuit breaker open: a block known to be bad is not re-read
            // on every query that touches it.
            return Err(Self::quarantine_error(tile));
        }
        let (slot, owner) = self.join_or_own(tile);
        if !owner {
            // Another caller's disk read is in flight: wait for it to
            // publish instead of decoding the same block twice.
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            return Self::await_fault(&slot);
        }
        // This call owns the fault. The resident set may have gained the
        // tile between the miss above and slot insertion (a prior fault
        // published and retired); re-checking here makes "one concurrent
        // miss, one disk read" exact rather than probabilistic.
        if let Some(records) = lock(&self.resident).get(&tile) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.publish(tile, &slot, Ok(Arc::clone(&records)));
            return Ok(records);
        }
        // Read outside every lock: a slow or failing disk read must not
        // stall hits on other tiles or faults of other tiles.
        let outcome = self.file.read_tile(tile).map(Arc::new);
        self.record_read_outcome(tile, outcome.is_ok());
        if let Ok(records) = &outcome {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let resident_now = {
                let mut resident = lock(&self.resident);
                resident.insert(tile, Arc::clone(records));
                resident.len() as u64
            };
            self.peak_resident
                .fetch_max(resident_now, Ordering::Relaxed);
        }
        self.publish(tile, &slot, outcome.clone());
        outcome
    }

    /// Takes or creates the fault slot for `tile`. Returns the slot and
    /// whether this caller owns the read.
    fn join_or_own(&self, tile: usize) -> (Arc<FaultSlot>, bool) {
        let mut in_flight = lock(&self.in_flight);
        match in_flight.get(&tile) {
            Some(slot) => (Arc::clone(slot), false),
            None => {
                let slot = Arc::new(FaultSlot::default());
                in_flight.insert(tile, Arc::clone(&slot));
                (slot, true)
            }
        }
    }

    /// Owner side of a fault: publish the outcome, wake every waiter, and
    /// retire the slot. Residency was already updated (if at all) before
    /// this point, so a fetch racing the retirement finds the tile
    /// resident.
    fn publish(
        &self,
        tile: usize,
        slot: &Arc<FaultSlot>,
        outcome: Result<Arc<Vec<PolygonRecord>>, SccgError>,
    ) {
        *lock(&slot.result) = Some(outcome);
        slot.ready.notify_all();
        lock(&self.in_flight).remove(&tile);
    }

    /// Waiter side of a fault: block until the owner publishes.
    fn await_fault(slot: &Arc<FaultSlot>) -> Result<Arc<Vec<PolygonRecord>>, SccgError> {
        let mut result = lock(&slot.result);
        loop {
            if let Some(outcome) = result.as_ref() {
                return outcome.clone();
            }
            result = slot
                .ready
                .wait(result)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Current pager counters.
    pub fn stats(&self) -> PagerStats {
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        let total = hits + misses;
        PagerStats {
            hits,
            misses,
            coalesced_faults: self.coalesced.load(Ordering::Relaxed),
            hit_rate: if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            },
            resident: lock(&self.resident).len(),
            peak_resident: self.peak_resident.load(Ordering::Relaxed) as usize,
            residency_bound: self.residency_bound,
            bytes_on_disk: self.file.bytes_on_disk(),
            quarantined_tiles: self
                .failures
                .iter()
                .filter(|count| count.load(Ordering::Relaxed) >= QUARANTINE_THRESHOLD)
                .count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::SlideFileWriter;
    use sccg_geometry::text::parse_polygon_file;
    use std::path::PathBuf;
    use std::sync::Barrier;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sccg-store-pager-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}-{}.sccgt", std::process::id()))
    }

    fn tile(id: u64) -> Vec<PolygonRecord> {
        let base = (id as i32) * 100;
        parse_polygon_file(&format!(
            "{id} 4 {x0} {y0} {x1} {y0} {x1} {y1} {x0} {y1}\n",
            x0 = base,
            y0 = base,
            x1 = base + 10,
            y1 = base + 10,
        ))
        .unwrap()
    }

    fn build(tag: &str, tiles: usize, bound: usize) -> (TileStorage, PathBuf) {
        let path = temp_path(tag);
        let mut writer = SlideFileWriter::create(&path).unwrap();
        for i in 0..tiles {
            writer.append_tile(&tile(i as u64)).unwrap();
        }
        (TileStorage::new(writer.finish().unwrap(), bound), path)
    }

    fn build_with_faults(
        tag: &str,
        tiles: usize,
        bound: usize,
        plan: sccg::FaultPlan,
    ) -> (TileStorage, PathBuf, Arc<sccg::FaultInjector>) {
        let path = temp_path(tag);
        let mut writer = SlideFileWriter::create(&path).unwrap();
        for i in 0..tiles {
            writer.append_tile(&tile(i as u64)).unwrap();
        }
        let injector = Arc::new(sccg::FaultInjector::new(plan));
        let mut file = writer.finish().unwrap();
        file.set_faults(Some(Arc::clone(&injector)));
        (TileStorage::new(file, bound), path, injector)
    }

    #[test]
    fn residency_never_exceeds_the_bound() {
        let (pager, path) = build("bound", 8, 3);
        for round in 0..2 {
            for i in 0..8 {
                let records = pager.fetch(i).unwrap();
                assert_eq!(records.as_ref(), &tile(i as u64), "round {round} tile {i}");
                assert!(pager.stats().resident <= 3);
            }
        }
        let stats = pager.stats();
        assert!(stats.peak_resident <= 3);
        assert_eq!(stats.hits + stats.misses, 16);
        // Sequential scans over a working set larger than the bound are the
        // LRU's worst case: every fetch misses.
        assert_eq!(stats.misses, 16);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn refetches_within_the_bound_hit() {
        let (pager, path) = build("hits", 2, 4);
        for _ in 0..3 {
            pager.fetch(0).unwrap();
            pager.fetch(1).unwrap();
        }
        let stats = pager.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.coalesced_faults, 0);
        assert!((stats.hit_rate - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(stats.resident, 2);
        assert_eq!(stats.peak_resident, 2);
        assert!(stats.bytes_on_disk > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn zero_bound_is_clamped_and_out_of_range_is_typed() {
        let (pager, path) = build("clamp", 1, 0);
        assert_eq!(pager.residency_bound(), 1);
        assert_eq!(pager.fetch(0).unwrap().as_ref(), &tile(0));
        assert!(matches!(pager.fetch(1), Err(SccgError::Storage { .. })));
        // The failed fetch was not cached and did not disturb residency.
        assert_eq!(pager.stats().resident, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn evicted_tiles_stay_valid_for_holders() {
        let (pager, path) = build("arc", 4, 1);
        let held = pager.fetch(0).unwrap();
        for i in 1..4 {
            pager.fetch(i).unwrap();
        }
        // Tile 0 has long been evicted; the held Arc still reads correctly.
        assert_eq!(held.as_ref(), &tile(0));
        std::fs::remove_file(&path).unwrap();
    }

    /// The single-flight satellite: many threads missing the same tile at
    /// once must produce exactly one disk read — every other caller either
    /// joined the in-flight fault (coalesced) or arrived after it published
    /// (a resident hit). Before coalescing, each racing thread decoded the
    /// block independently.
    #[test]
    fn concurrent_misses_of_one_tile_read_disk_once() {
        const THREADS: usize = 8;
        let (pager, path) = build("single-flight", 1, 2);
        let pager = Arc::new(pager);
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let pager = Arc::clone(&pager);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    assert_eq!(pager.fetch(0).unwrap().as_ref(), &tile(0));
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("fetch thread");
        }
        let stats = pager.stats();
        assert_eq!(
            stats.misses, 1,
            "exactly one disk read for {THREADS} racers"
        );
        assert_eq!(
            stats.hits + stats.coalesced_faults,
            (THREADS - 1) as u64,
            "every other caller shared it: {stats:?}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// The circuit breaker: `QUARANTINE_THRESHOLD` consecutive failed reads
    /// open it — further fetches fail fast *without touching the disk*.
    #[test]
    fn repeated_read_failures_quarantine_the_tile() {
        let plan = sccg::FaultPlan::new(7).fail_read(0, 100);
        let (pager, path, injector) = build_with_faults("quarantine", 2, 2, plan);
        for strike in 0..QUARANTINE_THRESHOLD {
            assert!(!pager.is_quarantined(0), "strike {strike}");
            let err = pager.fetch(0).unwrap_err();
            assert!(
                matches!(&err, SccgError::Storage { detail } if detail.contains("injected")),
                "strike {strike}: {err:?}"
            );
        }
        assert!(pager.is_quarantined(0));
        assert_eq!(pager.stats().quarantined_tiles, 1);
        // The breaker is open: the fetch fails fast and the disk (here the
        // injector standing in front of it) is not consulted again.
        let reads_before = injector.stats().read_errors;
        let err = pager.fetch(0).unwrap_err();
        assert!(
            matches!(&err, SccgError::Storage { detail } if detail.contains("quarantined")),
            "{err:?}"
        );
        assert_eq!(injector.stats().read_errors, reads_before);
        // Healthy tiles keep paging normally.
        assert_eq!(pager.fetch(1).unwrap().as_ref(), &tile(1));
        std::fs::remove_file(&path).unwrap();
    }

    /// One successful read closes the breaker: failures below the threshold
    /// never quarantine, and the consecutive count resets on success.
    #[test]
    fn a_successful_read_resets_the_breaker() {
        let strikes = QUARANTINE_THRESHOLD as u64 - 1;
        let plan = sccg::FaultPlan::new(7).fail_read(0, strikes);
        let (pager, path, _injector) = build_with_faults("breaker-reset", 1, 1, plan);
        for _ in 0..strikes {
            pager.fetch(0).unwrap_err();
        }
        assert!(!pager.is_quarantined(0), "one strike short of quarantine");
        assert_eq!(pager.fetch(0).unwrap().as_ref(), &tile(0));
        assert_eq!(pager.stats().quarantined_tiles, 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// The fault-injection satellite for single-flight: a failing fetch
    /// must not poison the slot. Racing threads each get either the typed
    /// error (owner or coalesced waiter of a failed fault) or the decoded
    /// tile, nobody hangs, and once the scheduled faults are consumed a
    /// later fetch retries cleanly.
    #[test]
    fn failing_fetch_does_not_poison_the_single_flight_slot() {
        const THREADS: usize = 8;
        let strikes = QUARANTINE_THRESHOLD as u64 - 1;
        let plan = sccg::FaultPlan::new(11).fail_read(0, strikes);
        let (pager, path, injector) = build_with_faults("fault-flight", 1, 2, plan);
        let pager = Arc::new(pager);
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let pager = Arc::clone(&pager);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    match pager.fetch(0) {
                        Ok(records) => assert_eq!(records.as_ref(), &tile(0)),
                        Err(SccgError::Storage { detail }) => {
                            assert!(detail.contains("injected"), "{detail}")
                        }
                        Err(other) => panic!("unexpected error: {other:?}"),
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("fetch thread must not hang or panic");
        }
        // Whatever subset of the schedule the race consumed, the slot was
        // retired on every failure, so retries make progress and succeed
        // once the schedule drains — within `strikes` further attempts.
        let mut retries = 0;
        let records = loop {
            match pager.fetch(0) {
                Ok(records) => break records,
                Err(SccgError::Storage { detail }) => {
                    assert!(detail.contains("injected"), "{detail}");
                    retries += 1;
                    assert!(
                        retries <= strikes,
                        "slot poisoned: retries stopped draining"
                    );
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        };
        assert_eq!(records.as_ref(), &tile(0));
        assert_eq!(pager.stats().resident, 1, "the successful read is cached");
        assert!(!pager.is_quarantined(0));
        assert_eq!(injector.stats().read_errors, strikes);
        std::fs::remove_file(&path).unwrap();
    }
}
