//! The persistent comparison service: pooled engines, sharding, caching and
//! admission control.
//!
//! A [`ComparisonService`] owns a pool of [`CrossComparison`] engines (a
//! CPU/GPU/hybrid mix, one *worker task* each) bound to a single simulated
//! GPU device. A submitted [`QueryRequest`] is resolved against the
//! [`SlideStore`], split into per-tile *shards*, and dispatched over a
//! priority job queue from which every eligible engine pulls work in FIFO
//! order — so a whole-slide query is computed by however many engines are
//! free, and concurrent queries interleave at shard granularity. A worker
//! faults its shard's two tiles in through [`SlideStore::tile`] when it
//! computes the shard.
//!
//! Worker tasks run on the pipeline's event-driven executor
//! ([`sccg::pipeline::exec`]) rather than one dedicated OS thread per
//! engine: an engine waiting for an eligible shard is a suspended future
//! woken by the job queue, occupying no thread. The tasks are polled on the
//! process-wide [`WorkerPool`], the same threads the CPU engines' kernels
//! fan out to, so any number of engines share one thread per core and a
//! blocked engine never pins an OS thread.
//!
//! Three properties make this a serving layer rather than a batch loop:
//!
//! * **Determinism** — every shard runs under the query's effective PixelBox
//!   configuration, backends agree bit-for-bit, and per-tile accumulators
//!   are merged in tile order; the response is bit-identical to a
//!   sequential single-engine run no matter how shards were scheduled.
//! * **Caching** — responses are memoized keyed by slide pair, resolved tile
//!   list, configuration fingerprint and device preference; a repeat query
//!   answers from memory without touching any backend.
//! * **Admission control** — at most `max_in_flight` queries execute at
//!   once; [`ComparisonService::submit`] blocks for a slot,
//!   [`ComparisonService::try_submit`] fails fast with
//!   [`SccgError::Overloaded`].
//!
//! All hybrid engines in the pool share one [`SplitController`], pooling
//! timing observations across engines (the PR-2 seam): a freshly scheduled
//! shard starts from the fleet's learned CPU/GPU split instead of warming up
//! from the seed fraction.

use crate::cache::{config_fingerprint, CacheKey, LruCache};
use crate::request::{QueryPriority, QueryRequest, TileSelection};
use crate::scheduler::{JobQueue, ShardJob, Worker};
use crate::store::{SlideId, SlideStore, TileId};
use crate::supervisor::{EngineHealth, Supervisor};
use sccg::pipeline::exec::Executor;
use sccg::pixelbox::{AggregationDevice, PixelBoxConfig, SplitConfig, SplitController, SplitTrace};
use sccg::sync::lock;
use sccg::{
    CrossComparison, EngineConfig, FaultInjector, JaccardAccumulator, JaccardSummary, SccgError,
    WorkerPool,
};
use sccg_gpu_sim::{Device, DeviceConfig};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Configuration of a [`ComparisonService`].
///
/// Marked `#[non_exhaustive]` so future fields are not breaking changes:
/// construct it with [`ServiceConfig::default`] rather than a struct
/// literal, then use the `with_*` methods or set a (public) field directly.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// Engine pool: one [`CrossComparison`] engine and worker task per
    /// entry. Only each entry's `device` and `cpu_workers` are read. Its
    /// `gpu` and `pixelbox` are ignored in favour of the service-level
    /// [`ServiceConfig::gpu`] and [`ServiceConfig::pixelbox`] (one physical
    /// device, one effective algorithm configuration — the determinism
    /// invariant). Its `hybrid_gpu_fraction` and `split_policy` are ignored
    /// in favour of [`ServiceConfig::split`]: every hybrid engine is built
    /// with [`CrossComparison::with_device`] on the one *pooled* controller,
    /// since a per-engine split would defeat the fleet-level pooling.
    pub engines: Vec<EngineConfig>,
    /// PixelBox parameters every query runs under (per-query
    /// [`QueryRequest::variant`] overrides the variant only).
    pub pixelbox: PixelBoxConfig,
    /// The simulated GPU shared by every GPU-touching engine of the pool.
    pub gpu: DeviceConfig,
    /// Split configuration of the *pooled* hybrid [`SplitController`] shared
    /// by every hybrid engine.
    pub split: SplitConfig,
    /// Admission bound: maximum queries executing concurrently (at least 1).
    pub max_in_flight: usize,
    /// Response cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
    /// Consecutive failures (worker panics or injected kills) after which
    /// the supervisor marks an engine dead (at least 1; see
    /// [`crate::supervisor`]).
    pub failure_threshold: u32,
    /// How long a dead engine stays out of the pool before the supervisor
    /// revives it (checked lazily on queue activity — the executor has no
    /// timers).
    pub revival_cooldown: Duration,
    /// Optional deterministic fault injector threaded through the engine
    /// workers (and, by the caller, usually through the store and the wire
    /// layer too). `None` — the default — injects nothing and costs
    /// nothing.
    pub faults: Option<Arc<FaultInjector>>,
}

impl Default for ServiceConfig {
    /// A mixed pool — one GPU engine, one CPU engine, two hybrid engines
    /// sharing the pooled split controller — with admission bound 4 and a
    /// 64-entry response cache.
    fn default() -> Self {
        ServiceConfig {
            engines: vec![
                EngineConfig::default(),
                EngineConfig::default().with_device(AggregationDevice::Cpu),
                EngineConfig::default().with_device(AggregationDevice::Hybrid),
                EngineConfig::default().with_device(AggregationDevice::Hybrid),
            ],
            pixelbox: PixelBoxConfig::paper_default(),
            gpu: DeviceConfig::gtx580(),
            split: SplitConfig::default(),
            max_in_flight: 4,
            cache_capacity: 64,
            failure_threshold: 3,
            revival_cooldown: Duration::from_secs(5),
            faults: None,
        }
    }
}

impl ServiceConfig {
    /// Returns a copy with a different engine pool.
    pub fn with_engines(mut self, engines: Vec<EngineConfig>) -> Self {
        self.engines = engines;
        self
    }

    /// Returns a copy with a different simulated GPU configuration.
    pub fn with_gpu(mut self, gpu: DeviceConfig) -> Self {
        self.gpu = gpu;
        self
    }

    /// Returns a copy with a different pooled split configuration.
    pub fn with_split(mut self, split: SplitConfig) -> Self {
        self.split = split;
        self
    }

    /// Returns a copy with a different admission bound.
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }

    /// Returns a copy with a different response cache capacity.
    pub fn with_cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.cache_capacity = cache_capacity;
        self
    }

    /// Returns a copy with a different engine-death threshold (consecutive
    /// failures; clamped to at least 1 at service construction).
    pub fn with_failure_threshold(mut self, failure_threshold: u32) -> Self {
        self.failure_threshold = failure_threshold;
        self
    }

    /// Returns a copy with a different revival cooldown for dead engines.
    pub fn with_revival_cooldown(mut self, revival_cooldown: Duration) -> Self {
        self.revival_cooldown = revival_cooldown;
        self
    }

    /// Returns a copy armed with a deterministic fault injector (see
    /// [`sccg::FaultPlan`]): engine workers consult it for injected kills.
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// One tile's share of a query response.
#[derive(Debug, Clone, PartialEq)]
pub struct TileReport {
    /// Tile index within both slides.
    pub tile: usize,
    /// Pool index of the engine that computed this tile.
    pub engine: usize,
    /// Backend name of that engine (e.g. `pixelbox-hybrid`).
    pub backend: String,
    /// Candidate pairs the MBR join produced for this tile.
    pub candidate_pairs: usize,
    /// This tile's Jaccard aggregation summary.
    pub summary: JaccardSummary,
}

/// Resolved result of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// First slide of the compared pair.
    pub first: SlideId,
    /// Second slide of the compared pair.
    pub second: SlideId,
    /// Per-tile reports, in merge (tile) order.
    pub tiles: Vec<TileReport>,
    /// Whole-query Jaccard summary: per-tile accumulators merged in tile
    /// order.
    pub summary: JaccardSummary,
    /// Number of shards the query was split into.
    pub shards: usize,
    /// Whether this response was answered from the cache.
    pub cache_hit: bool,
    /// Priority the query ran at.
    pub priority: QueryPriority,
    /// The request's device preference.
    pub device: Option<AggregationDevice>,
}

impl QueryResponse {
    /// The `J'` similarity, guarded against degenerate summaries
    /// ([`JaccardSummary::similarity_or_zero`]): an empty query reports
    /// `0.0`, never `NaN`.
    pub fn similarity(&self) -> f64 {
        self.summary.similarity_or_zero()
    }

    /// Distinct backend names that served this query's shards.
    pub fn backends_used(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tiles.iter().map(|t| t.backend.clone()).collect();
        names.sort();
        names.dedup();
        names
    }
}

/// Snapshot of the service's lifetime counters.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ServiceStats {
    /// Requests accepted by `submit`/`try_submit` (including cache hits and
    /// empty queries; excluding requests that failed validation).
    pub submitted: u64,
    /// Sharded queries that ran to completion on the engine pool.
    pub completed: u64,
    /// Requests answered from the response cache.
    pub cache_hits: u64,
    /// Shards computed by any backend (one engine batch each).
    pub backend_batches: u64,
    /// Queries currently executing.
    pub in_flight: usize,
    /// High-water mark of concurrently executing queries.
    pub peak_in_flight: usize,
    /// Shards computed per engine, by pool index.
    pub shards_per_engine: Vec<u64>,
    /// Responses currently held by the cache.
    pub cache_entries: usize,
    /// Decoded tiles currently resident across the store's disk-backed
    /// slides (zero for a fully in-memory store).
    pub resident_tiles: usize,
    /// Fraction of tile faults served from the resident sets, 0.0 before
    /// any disk-backed fetch.
    pub pager_hit_rate: f64,
    /// Total bytes of slide files the store keeps on disk.
    pub bytes_on_disk: u64,
    /// Disk faults the single-flight pager coalesced into another engine's
    /// in-progress read of the same tile (zero for an in-memory store).
    pub coalesced_faults: u64,
    /// Compatibility counters of the retired placement layer; always zero.
    pub scheduler: SchedulerStats,
    /// Shards abandoned by a dying engine and re-dispatched to survivors.
    pub redispatches: u64,
    /// Per-engine supervision health, by pool index (see
    /// [`crate::supervisor`]).
    pub engines: Vec<EngineHealth>,
}

/// Counters of the residency-aware placement layer, which was retired for
/// FIFO dispatch. Every field is always 0. They remain only because the
/// repository benchmark's trace reads them; a change to the benchmark
/// retires them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct SchedulerStats {
    /// Always 0.
    pub affinity_hits: u64,
    /// Always 0.
    pub affinity_misses: u64,
    /// Always 0.
    pub prefetch_used: u64,
    /// Always 0.
    pub prefetch_wasted: u64,
}

/// One progressive event of a query (see [`QueryHandle`]).
#[derive(Debug, Clone)]
pub enum QueryEvent {
    /// One tile's report, delivered as soon as its shard completed. Events
    /// arrive in *completion* order, which may differ from tile order;
    /// `position` is the tile's slot in the final response's merge-ordered
    /// tile list.
    Tile {
        /// Index into the final response's `tiles` list (merge order).
        position: usize,
        /// The tile's report, bit-identical to the corresponding entry of
        /// the final response.
        report: TileReport,
    },
    /// Terminal event: the merged response, or the query's failure. No
    /// event follows it.
    Finished(Result<QueryResponse, SccgError>),
}

/// Handle to a submitted query: a sequence of [`QueryEvent::Tile`] events,
/// one per tile as its shard completes, terminated by one
/// [`QueryEvent::Finished`] carrying the merged response.
///
/// Every tile event's report is bit-identical to the corresponding entry of
/// the final response. Cache hits and empty queries replay as the same
/// shape (every tile event, then the finish), so consumers need no special
/// cases; a blocking caller ([`QueryHandle::wait`]) is simply one that
/// ignores tile events. The events are buffered without bound, so an engine
/// never waits for a slow consumer, and dropping the handle cancels
/// nothing: the query still completes and is cached.
#[derive(Debug)]
pub struct QueryHandle {
    events: Receiver<QueryEvent>,
}

impl QueryHandle {
    /// Synthesizes the event stream of an already-resolved response (cache
    /// hit, empty query): every tile as an event, then the finish.
    fn replay(response: QueryResponse) -> Self {
        let (tx, events) = mpsc::channel();
        for (position, report) in response.tiles.iter().enumerate() {
            let _ = tx.send(QueryEvent::Tile {
                position,
                report: report.clone(),
            });
        }
        let _ = tx.send(QueryEvent::Finished(Ok(response)));
        QueryHandle { events }
    }

    /// Blocks for the next event. Returns `None` once the terminal
    /// [`QueryEvent::Finished`] has been consumed (or if the service was
    /// dropped before the query resolved).
    pub fn next_event(&self) -> Option<QueryEvent> {
        self.events.recv().ok()
    }

    /// Drains the stream, invoking `on_tile` for every tile event, and
    /// returns the merged response. Returns [`SccgError::ShutDown`] if the
    /// service was dropped before the query finished.
    pub fn wait_with(
        self,
        mut on_tile: impl FnMut(usize, &TileReport),
    ) -> Result<QueryResponse, SccgError> {
        while let Some(event) = self.next_event() {
            match event {
                QueryEvent::Tile { position, report } => on_tile(position, &report),
                QueryEvent::Finished(result) => return result,
            }
        }
        Err(SccgError::ShutDown)
    }

    /// Blocks until the query resolves, ignoring tile events, and returns
    /// the merged response.
    pub fn wait(self) -> Result<QueryResponse, SccgError> {
        self.wait_with(|_, _| {})
    }
}

/// One tile's computed partial: the public report plus the exact accumulator
/// needed for bit-identical merging.
pub(crate) struct TilePartial {
    pub(crate) report: TileReport,
    pub(crate) accumulator: JaccardAccumulator,
}

/// Echoed request metadata carried through to the response.
pub(crate) struct QueryMeta {
    pub(crate) first: SlideId,
    pub(crate) second: SlideId,
    pub(crate) priority: QueryPriority,
    pub(crate) device: Option<AggregationDevice>,
}

/// Shared state of one in-flight query. `pub(crate)` because queued shards
/// hold it — the fields' invariants are still maintained exclusively here.
pub(crate) struct QueryState {
    pub(crate) key: CacheKey,
    pub(crate) meta: QueryMeta,
    /// The registry shards fault their tiles from at compute time — never
    /// snapshotted up front, so a disk-backed slide's memory footprint
    /// during a query is its pager's residency bound, not the slide.
    pub(crate) store: SlideStore,
    pub(crate) pixelbox: PixelBoxConfig,
    pub(crate) partials: Mutex<Vec<Option<TilePartial>>>,
    pub(crate) remaining: AtomicUsize,
    /// First shard failure, if any: a typed storage error from faulting a
    /// tile in, or [`SccgError::Internal`] for a panic in a backend. The
    /// query fails with it instead of wedging the service.
    pub(crate) failure: Mutex<Option<SccgError>>,
    /// The query's [`QueryHandle`] end: one tile event per completed shard,
    /// then the finish. Unbounded, so a worker never blocks on a slow
    /// consumer; a send to a dropped handle is ignored.
    pub(crate) events: Sender<QueryEvent>,
    /// The absolute deadline computed at submission from
    /// [`QueryRequest::with_deadline`], paired with the requested duration
    /// in milliseconds (echoed in the typed error). Workers check it when
    /// they pop a shard of this query; `None` never expires.
    pub(crate) deadline: Option<(Instant, u64)>,
}

/// Counting semaphore bounding in-flight queries, tracking the high-water
/// mark for observability.
struct Admission {
    state: Mutex<AdmissionState>,
    released: Condvar,
}

struct AdmissionState {
    available: usize,
    in_flight: usize,
    peak: usize,
}

impl Admission {
    fn new(bound: usize) -> Self {
        Admission {
            state: Mutex::new(AdmissionState {
                available: bound,
                in_flight: 0,
                peak: 0,
            }),
            released: Condvar::new(),
        }
    }

    fn admit(state: &mut AdmissionState) {
        state.available -= 1;
        state.in_flight += 1;
        state.peak = state.peak.max(state.in_flight);
    }

    /// Blocks until a slot is free, then takes it.
    fn acquire(&self) {
        let mut state = lock(&self.state);
        while state.available == 0 {
            state = self
                .released
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        Self::admit(&mut state);
    }

    /// Takes a slot if one is free; otherwise reports the current load.
    fn try_acquire(&self) -> Result<(), usize> {
        let mut state = lock(&self.state);
        if state.available == 0 {
            return Err(state.in_flight);
        }
        Self::admit(&mut state);
        Ok(())
    }

    fn release(&self) {
        let mut state = lock(&self.state);
        state.available += 1;
        state.in_flight -= 1;
        drop(state);
        self.released.notify_one();
    }

    fn snapshot(&self) -> (usize, usize) {
        let state = lock(&self.state);
        (state.in_flight, state.peak)
    }
}

/// Lifetime counters, lock-free.
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    cache_hits: AtomicU64,
    backend_batches: AtomicU64,
    shards_per_engine: Vec<AtomicU64>,
}

/// State shared between the service handle and its worker tasks.
struct ServiceInner {
    queue: JobQueue,
    admission: Admission,
    cache: Mutex<LruCache<CacheKey, QueryResponse>>,
    counters: Counters,
    supervisor: Arc<Supervisor>,
    faults: Option<Arc<FaultInjector>>,
}

impl ServiceInner {
    /// Settles one shard as finished (computed, failed, or abandoned):
    /// decrements the merge barrier and finalizes the query on its last
    /// shard. Every path a popped shard can take must end here exactly once
    /// — or be re-queued — or the barrier hangs.
    fn settle_shard(&self, query: &Arc<QueryState>) {
        if query.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.finalize(query);
        }
    }

    /// Disposes of a shard a dying engine abandoned: re-queued to the
    /// surviving eligible engines when any exist (the merge slot is
    /// position-pinned, so the response stays bit-identical), failed typed
    /// otherwise — never silently dropped, which would hang the barrier.
    fn redispatch_or_fail(&self, engine: usize, job: ShardJob) {
        if self.supervisor.live_eligible_exists(job.device) {
            self.supervisor.note_redispatch(engine);
            let lane = job.query.meta.priority.lane();
            self.queue.push(job, lane);
            return;
        }
        let error = match job.device {
            Some(device) => SccgError::NoEligibleEngine { device },
            None => SccgError::Internal {
                detail: format!(
                    "tile {}: no live engine left to re-dispatch the shard to",
                    job.tile_index
                ),
            },
        };
        lock(&job.query.failure).get_or_insert(error);
        self.settle_shard(&job.query);
    }

    /// After an engine death: queued shards no surviving engine is eligible
    /// for would wait in the lanes forever. Fail each typed so their
    /// queries resolve instead of hanging.
    fn sweep_orphaned_shards(&self) {
        for job in self.queue.drain_ineligible() {
            let error = match job.device {
                Some(device) => SccgError::NoEligibleEngine { device },
                None => SccgError::Internal {
                    detail: format!("tile {}: no live engine left in the pool", job.tile_index),
                },
            };
            lock(&job.query.failure).get_or_insert(error);
            self.settle_shard(&job.query);
        }
    }
    fn finalize(&self, query: &QueryState) {
        // A query with a failed shard resolves to an error; the admission
        // slot is still returned so the service stays serviceable.
        let result = match lock(&query.failure).take() {
            Some(error) => Err(error),
            None => {
                // The last shard is in: the partials move into the response.
                let partials = std::mem::take(&mut *lock(&query.partials));
                let mut total = JaccardAccumulator::new();
                let tiles: Vec<TileReport> = partials
                    .into_iter()
                    .map(|slot| {
                        let partial = slot.expect("query finalized with all shards done");
                        total.merge(&partial.accumulator);
                        partial.report
                    })
                    .collect();
                let response = QueryResponse {
                    first: query.meta.first,
                    second: query.meta.second,
                    shards: tiles.len(),
                    tiles,
                    summary: total.summary(),
                    cache_hit: false,
                    priority: query.meta.priority,
                    device: query.meta.device,
                };
                // A disabled cache keeps nothing: skip the copy.
                let mut cache = lock(&self.cache);
                if cache.capacity() > 0 {
                    cache.insert(query.key.clone(), response.clone());
                }
                drop(cache);
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                Ok(response)
            }
        };
        self.admission.release();
        // The caller may have dropped its handle; that is not an error.
        let _ = query.events.send(QueryEvent::Finished(result));
    }
}

/// A query's validated inputs, ready to shard. Holds tile *indices* only:
/// validation proves every index exists in both slides, and the records are
/// faulted in per shard at compute time (out-of-core slides never
/// materialize).
struct Prepared {
    indices: Vec<usize>,
    pixelbox: PixelBoxConfig,
    key: CacheKey,
}

/// The persistent slide-comparison service. See the [module docs](self).
pub struct ComparisonService {
    store: SlideStore,
    config: ServiceConfig,
    inner: Arc<ServiceInner>,
    device: Arc<Device>,
    controller: Option<Arc<SplitController>>,
    engine_devices: Vec<AggregationDevice>,
    /// The engine worker tasks, polled on the global worker pool.
    executor: Executor,
}

impl std::fmt::Debug for ComparisonService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComparisonService")
            .field("engines", &self.engine_devices)
            .field("max_in_flight", &self.config.max_in_flight)
            .finish()
    }
}

impl ComparisonService {
    /// Starts a service over `store` with the given configuration, spawning
    /// one worker task per engine on a shared executor.
    pub fn new(store: SlideStore, config: ServiceConfig) -> Result<Self, SccgError> {
        if config.engines.is_empty() {
            return Err(SccgError::EmptyEnginePool);
        }
        let config = ServiceConfig {
            max_in_flight: config.max_in_flight.max(1),
            ..config
        };
        let device = Arc::new(Device::new(config.gpu.clone()));
        let controller = config
            .engines
            .iter()
            .any(|e| e.device == AggregationDevice::Hybrid)
            .then(|| Arc::new(SplitController::new(config.split)));
        let devices: Vec<AggregationDevice> = config.engines.iter().map(|e| e.device).collect();
        let supervisor = Arc::new(Supervisor::new(
            &devices,
            config.failure_threshold,
            config.revival_cooldown,
        ));
        let inner = Arc::new(ServiceInner {
            queue: JobQueue::new(Arc::clone(&supervisor)),
            admission: Admission::new(config.max_in_flight),
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            counters: Counters {
                submitted: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                cache_hits: AtomicU64::new(0),
                backend_batches: AtomicU64::new(0),
                shards_per_engine: (0..config.engines.len())
                    .map(|_| AtomicU64::new(0))
                    .collect(),
            },
            supervisor,
            faults: config.faults.clone(),
        });

        let executor = Executor::new(WorkerPool::global());
        let mut engine_devices = Vec::with_capacity(config.engines.len());
        for (index, engine_config) in config.engines.iter().cloned().enumerate() {
            engine_devices.push(engine_config.device);
            let engine = CrossComparison::with_device(
                engine_config,
                Arc::clone(&device),
                controller.clone(),
            );
            executor.spawn(worker_task(index, engine, Arc::clone(&inner)));
        }

        Ok(ComparisonService {
            store,
            config,
            inner,
            device,
            controller,
            engine_devices,
            executor,
        })
    }

    /// The slide registry this service answers queries over.
    pub fn store(&self) -> &SlideStore {
        &self.store
    }

    /// The service configuration (with `max_in_flight` normalized).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The simulated GPU shared by the pool's GPU-touching engines.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// The pooled hybrid split controller, when the pool has hybrid engines.
    pub fn split_controller(&self) -> Option<&Arc<SplitController>> {
        self.controller.as_ref()
    }

    /// Snapshot of the pooled controller's split telemetry, when the pool
    /// has hybrid engines.
    pub fn split_trace(&self) -> Option<SplitTrace> {
        self.controller.as_ref().map(|c| c.trace())
    }

    /// The pool's engine devices, by pool index.
    pub fn engine_devices(&self) -> &[AggregationDevice] {
        &self.engine_devices
    }

    /// Snapshot of the service's lifetime counters, including the slide
    /// store's out-of-core paging telemetry.
    pub fn stats(&self) -> ServiceStats {
        let (in_flight, peak_in_flight) = self.inner.admission.snapshot();
        let storage = self.store.storage_stats();
        let counters = &self.inner.counters;
        ServiceStats {
            submitted: counters.submitted.load(Ordering::Relaxed),
            completed: counters.completed.load(Ordering::Relaxed),
            cache_hits: counters.cache_hits.load(Ordering::Relaxed),
            backend_batches: counters.backend_batches.load(Ordering::Relaxed),
            in_flight,
            peak_in_flight,
            shards_per_engine: counters
                .shards_per_engine
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            cache_entries: lock(&self.inner.cache).len(),
            resident_tiles: storage.resident_tiles,
            pager_hit_rate: storage.pager_hit_rate,
            bytes_on_disk: storage.bytes_on_disk,
            coalesced_faults: storage.coalesced_faults,
            scheduler: SchedulerStats::default(),
            redispatches: self.inner.supervisor.redispatches(),
            engines: self.inner.supervisor.health(),
        }
    }

    /// Submits a query, blocking while the admission bound is reached.
    /// The handle streams one [`QueryEvent::Tile`] per tile as its shard
    /// completes, then [`QueryEvent::Finished`] with the merged response;
    /// [`QueryHandle::wait`] skips to the response. Cache hits and empty
    /// queries replay the same event shape without taking an execution
    /// slot.
    pub fn submit(&self, request: QueryRequest) -> Result<QueryHandle, SccgError> {
        self.enqueue(request, true)
    }

    /// Like [`ComparisonService::submit`] but never blocks: fails with
    /// [`SccgError::Overloaded`] when the admission bound is reached.
    pub fn try_submit(&self, request: QueryRequest) -> Result<QueryHandle, SccgError> {
        self.enqueue(request, false)
    }

    /// Alias of [`ComparisonService::submit`], whose handle streams every
    /// query. Kept only because the repository benchmark calls it by this
    /// name; it goes when the benchmark is next changed.
    pub fn submit_streaming(&self, request: QueryRequest) -> Result<QueryHandle, SccgError> {
        self.submit(request)
    }

    fn enqueue(&self, request: QueryRequest, blocking: bool) -> Result<QueryHandle, SccgError> {
        let prepared = self.prepare(&request)?;
        self.inner
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);

        if let Some(resolved) = self.fast_path(&request, &prepared) {
            return Ok(QueryHandle::replay(resolved));
        }

        if blocking {
            self.inner.admission.acquire();
        } else if let Err(in_flight) = self.inner.admission.try_acquire() {
            return Err(SccgError::Overloaded {
                in_flight,
                bound: self.config.max_in_flight,
            });
        }

        Ok(self.launch(request, prepared))
    }

    /// Resolves a prepared query without an execution slot when possible:
    /// from the response cache, or immediately for an empty tile selection.
    fn fast_path(&self, request: &QueryRequest, prepared: &Prepared) -> Option<QueryResponse> {
        if let Some(mut cached) = lock(&self.inner.cache).get(&prepared.key) {
            cached.cache_hit = true;
            // Echo *this* request's priority (it is not part of the cache
            // key, and the response reports the request it answered).
            cached.priority = request.priority;
            self.inner
                .counters
                .cache_hits
                .fetch_add(1, Ordering::Relaxed);
            return Some(cached);
        }
        if prepared.indices.is_empty() {
            // Nothing to shard: resolve immediately, without an execution
            // slot. The guarded similarity of the empty summary is 0.0.
            return Some(QueryResponse {
                first: request.first,
                second: request.second,
                tiles: Vec::new(),
                summary: JaccardAccumulator::new().summary(),
                shards: 0,
                cache_hit: false,
                priority: request.priority,
                device: request.device,
            });
        }
        None
    }

    /// Shards an admitted query across the engine pool. The caller has
    /// already taken an admission slot; the returned handle finishes when
    /// the last shard completes.
    fn launch(&self, request: QueryRequest, prepared: Prepared) -> QueryHandle {
        let shard_count = prepared.indices.len();
        let (events, rx) = mpsc::channel();
        // The deadline clock starts at launch: shards popped after it
        // expired are abandoned without computing.
        let deadline = request
            .deadline
            .map(|d| (Instant::now() + d, d.as_millis() as u64));
        let query = Arc::new(QueryState {
            key: prepared.key,
            meta: QueryMeta {
                first: request.first,
                second: request.second,
                priority: request.priority,
                device: request.device,
            },
            store: self.store.clone(),
            pixelbox: prepared.pixelbox,
            partials: Mutex::new((0..shard_count).map(|_| None).collect()),
            remaining: AtomicUsize::new(shard_count),
            failure: Mutex::new(None),
            events,
            deadline,
        });
        let lane = request.priority.lane();
        for (position, tile_index) in prepared.indices.into_iter().enumerate() {
            self.inner.queue.push(
                ShardJob {
                    query: Arc::clone(&query),
                    position,
                    tile_index,
                    device: request.device,
                },
                lane,
            );
        }
        // A query launched while every eligible engine is dead must not
        // wait on a barrier nobody will serve. The pushes above already
        // woke parked workers (which is where an elapsed revival cooldown
        // takes effect); anything still ineligible now is failed typed.
        if !self.inner.supervisor.live_eligible_exists(request.device) {
            self.inner.sweep_orphaned_shards();
        }
        QueryHandle { events: rx }
    }

    /// Validates a request: devices, slide handles and every tile index —
    /// by *count*, never by loading records, so preparation touches no
    /// polygon data and pages nothing in.
    fn prepare(&self, request: &QueryRequest) -> Result<Prepared, SccgError> {
        if let Some(device) = request.device {
            if !self.engine_devices.contains(&device) {
                return Err(SccgError::NoEligibleEngine { device });
            }
        }
        let first_count = self.store.tile_count(request.first)?;
        let second_count = self.store.tile_count(request.second)?;
        let indices: Vec<usize> = match &request.tiles {
            TileSelection::WholeSlide => {
                if first_count != second_count {
                    return Err(SccgError::TileCountMismatch {
                        first: first_count,
                        second: second_count,
                    });
                }
                (0..first_count).collect()
            }
            TileSelection::Tiles(list) => {
                let mut seen = std::collections::HashSet::new();
                for &index in list {
                    if !seen.insert(index) {
                        return Err(SccgError::InvalidRequest {
                            detail: format!("tile index {index} selected twice"),
                        });
                    }
                }
                for &index in list {
                    if index >= first_count {
                        return Err(SccgError::UnknownTile {
                            slide: request.first.value(),
                            tile: index,
                            tiles: first_count,
                        });
                    }
                    if index >= second_count {
                        return Err(SccgError::UnknownTile {
                            slide: request.second.value(),
                            tile: index,
                            tiles: second_count,
                        });
                    }
                }
                list.clone()
            }
        };
        let pixelbox = match request.variant {
            Some(variant) => self.config.pixelbox.with_variant(variant),
            None => self.config.pixelbox,
        };
        let key = CacheKey {
            first: request.first,
            second: request.second,
            tiles: indices.clone(),
            config: config_fingerprint(&pixelbox),
            device: request.device,
        };
        Ok(Prepared {
            indices,
            pixelbox,
            key,
        })
    }
}

impl Drop for ComparisonService {
    /// Drains pending shards (admitted queries complete), then waits for
    /// every worker task to stop.
    fn drop(&mut self) {
        self.inner.queue.close();
        self.executor.wait_idle();
    }
}

/// One engine's worker task: pull eligible shards, fault the shard's tiles
/// in through the store (the demand pager, for disk-backed slides),
/// compute, merge, finalize the query on its last shard. While no eligible
/// shard exists the task is suspended on the job queue's waker list — it
/// occupies no pool thread.
///
/// Failures are contained per shard: a storage fault (corrupt or truncated
/// tile) fails the query with its typed [`SccgError::Storage`], a panic
/// inside a backend with [`SccgError::Internal`]; either way the admission
/// slot is returned and the worker task survives to serve the next shard —
/// one poisoned input must not wedge the whole service.
async fn worker_task(index: usize, engine: CrossComparison, inner: Arc<ServiceInner>) {
    let worker = Worker {
        device: engine.config().device,
        index,
    };
    let backend_name = engine.backend().name();
    while let Some(job) = inner.queue.pop(worker).await {
        // Deadline first: a shard popped after its query's deadline expired
        // is abandoned without computing — the query fails typed instead of
        // occupying engines it can no longer benefit from.
        if let Some((at, deadline_ms)) = job.query.deadline {
            if Instant::now() >= at {
                lock(&job.query.failure).get_or_insert(SccgError::DeadlineExceeded { deadline_ms });
                inner.settle_shard(&job.query);
                continue;
            }
        }
        // An injected kill simulates this worker dying mid-shard: the
        // supervisor is told, and the shard in hand is re-dispatched to
        // survivors (or failed typed) rather than dropped — dropping it
        // would leave the query's merge barrier counting down forever.
        if let Some(injector) = &inner.faults {
            if injector.kill_engine_now(index as u64) {
                if inner.supervisor.record_failure(index) {
                    inner.sweep_orphaned_shards();
                }
                inner.redispatch_or_fail(index, job);
                continue;
            }
        }
        let query = &job.query;
        let tile = |slide| {
            query.store.tile(TileId {
                slide,
                index: job.tile_index,
            })
        };
        let faulted = tile(query.meta.first)
            .and_then(|first| tile(query.meta.second).map(|second| (first, second)));
        let computed = faulted.map(|(first, second)| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.compare_records_with(&first, &second, &query.pixelbox)
            }))
        });

        match computed {
            Ok(Ok(report)) => {
                inner.supervisor.record_success(index);
                // Only successfully computed shards count as backend work
                // (the cache tests diff these counters).
                inner
                    .counters
                    .backend_batches
                    .fetch_add(1, Ordering::Relaxed);
                inner.counters.shards_per_engine[index].fetch_add(1, Ordering::Relaxed);
                // Rebuild the exact accumulator from the per-pair areas so
                // merging across shards is bit-identical to a sequential
                // fold.
                let mut accumulator = JaccardAccumulator::new();
                for areas in &report.pair_areas {
                    accumulator.add_pair(*areas);
                }
                let partial = TilePartial {
                    report: TileReport {
                        tile: job.tile_index,
                        engine: index,
                        backend: backend_name.to_string(),
                        candidate_pairs: report.candidate_pairs,
                        summary: report.summary,
                    },
                    accumulator,
                };
                // Push the tile to the handle the moment it is done —
                // before the query's own completion — so progressive
                // consumers render results as shards land.
                let _ = job.query.events.send(QueryEvent::Tile {
                    position: job.position,
                    report: partial.report.clone(),
                });
                lock(&job.query.partials)[job.position] = Some(partial);
            }
            Ok(Err(payload)) => {
                // A panic is charged to this engine: repeated panics kill
                // it (and orphan-sweep the queue), but the panicking query
                // still fails typed — the input provoked the panic, so
                // re-running the shard elsewhere would only spread it.
                if inner.supervisor.record_failure(index) {
                    inner.sweep_orphaned_shards();
                }
                let detail = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "shard computation panicked".to_string());
                lock(&job.query.failure).get_or_insert(SccgError::Internal {
                    detail: format!("tile {}: {detail}", job.tile_index),
                });
            }
            Err(error) => {
                // The tile could not be faulted in (typically a storage
                // fault); the query fails with the typed error itself. Not
                // charged to the engine — the tile is sick, not the worker.
                lock(&job.query.failure).get_or_insert(error);
            }
        }
        inner.settle_shard(&job.query);
        // Engines outnumber the pool's threads: take turns, so every engine
        // keeps taking shards under sustained load.
        sccg::pipeline::exec::yield_now().await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    /// More blocked `acquire` waiters than slots: every waiter must
    /// eventually be admitted through the `Condvar::notify_one` release
    /// path, and the semaphore must end exactly where it started.
    #[test]
    fn admission_wakes_every_waiter_with_more_waiters_than_slots() {
        const BOUND: usize = 2;
        const WAITERS: usize = 7;
        let admission = Arc::new(Admission::new(BOUND));
        let admitted = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..WAITERS)
            .map(|_| {
                let admission = Arc::clone(&admission);
                let admitted = Arc::clone(&admitted);
                std::thread::spawn(move || {
                    admission.acquire();
                    admitted.fetch_add(1, Ordering::SeqCst);
                    // Hold the slot briefly so waiters genuinely queue up
                    // behind a full semaphore before releases begin.
                    std::thread::sleep(Duration::from_millis(5));
                    admission.release();
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("waiter thread");
        }
        assert_eq!(admitted.load(Ordering::SeqCst), WAITERS);
        let (in_flight, peak) = admission.snapshot();
        assert_eq!(in_flight, 0, "every slot returned");
        assert!(peak <= BOUND, "peak {peak} exceeded the bound {BOUND}");
        assert!(peak >= 1, "at least one admission was observed");
        // All slots are usable again: the releases leaked nothing.
        for _ in 0..BOUND {
            admission.try_acquire().expect("slot available");
        }
        assert_eq!(admission.try_acquire(), Err(BOUND));
    }

    /// A failed `try_acquire` must not consume a slot: after the rejection
    /// the same number of slots is still available.
    #[test]
    fn failed_try_acquire_leaks_no_permit() {
        let admission = Admission::new(1);
        admission.try_acquire().expect("first slot");
        for _ in 0..10 {
            assert_eq!(admission.try_acquire(), Err(1), "full semaphore rejects");
        }
        admission.release();
        let (in_flight, _) = admission.snapshot();
        assert_eq!(in_flight, 0);
        admission
            .try_acquire()
            .expect("slot came back after release");
    }
}
