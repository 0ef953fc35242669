//! The shard job queue: which engine runs which shard, and when.
//!
//! Dispatch is FIFO per priority lane: a worker takes the first shard in the
//! most urgent non-empty lane that its device may execute (a shard pinned to
//! another device is skipped, not waited behind). The paper's pipeline (§4)
//! likewise hands each tile to whichever device is free. Idle workers are
//! suspended futures on the queue's waker list, so they hold no OS thread,
//! and an engine the [`Supervisor`] has marked dead parks the same way until
//! its revival cooldown elapses.
//!
//! Dispatch order decides only *where and when* a shard runs, never its
//! position in the response's merge order, so responses are bit-identical
//! whatever engine computes which shard.

use crate::service::QueryState;
use crate::supervisor::Supervisor;
use sccg::pipeline::exec::register_waker;
use sccg::pixelbox::AggregationDevice;
use sccg::sync::lock;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

/// The worker identity a pop runs as: its device (eligibility) and its pool
/// index (liveness).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Worker {
    pub(crate) device: AggregationDevice,
    pub(crate) index: usize,
}

/// One unit of engine work: a single tile of a query. Carries only the tile
/// *index* — the worker faults both slides' records in through the store
/// (the pager, for disk-backed slides) when the shard actually runs.
pub(crate) struct ShardJob {
    pub(crate) query: Arc<QueryState>,
    /// Index into the query's merge-ordered tile list.
    pub(crate) position: usize,
    /// Original tile index (reported to the caller).
    pub(crate) tile_index: usize,
    /// Device restriction copied from the request.
    pub(crate) device: Option<AggregationDevice>,
}

impl ShardJob {
    pub(crate) fn eligible(&self, worker_device: AggregationDevice) -> bool {
        self.device.is_none_or(|d| d == worker_device)
    }
}

/// Priority-laned job queue shared by every worker task. Workers await
/// [`JobQueue::pop`]: an idle worker is a suspended future on the waker list
/// — it holds no OS thread and is re-polled when a shard arrives or the queue
/// closes.
///
/// Wakers are registered under the state lock, and `push`/`close` take them
/// under that same lock, so a push or close between a worker's scan and its
/// registration cannot be lost.
pub(crate) struct JobQueue {
    state: Mutex<QueueState>,
    /// Engine liveness: a dead engine's pop parks instead of taking work
    /// (and is lazily revived there once its cooldown elapses).
    supervisor: Arc<Supervisor>,
}

struct QueueState {
    /// One FIFO lane per [`crate::QueryPriority`], most urgent first.
    lanes: [VecDeque<ShardJob>; 3],
    closed: bool,
    /// Worker tasks waiting for an eligible shard. Eligibility differs per
    /// worker, so every push wakes all of them to re-scan.
    wakers: Vec<Waker>,
}

impl JobQueue {
    pub(crate) fn new(supervisor: Arc<Supervisor>) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                closed: false,
                wakers: Vec::new(),
            }),
            supervisor,
        }
    }

    /// Removes and returns every queued shard no live engine is eligible
    /// for. Called after an engine death: shards pinned to a device the
    /// surviving pool cannot serve would otherwise sit in the lanes forever,
    /// leaving their queries' merge barriers waiting — the caller fails each
    /// drained shard with a typed error instead.
    pub(crate) fn drain_ineligible(&self) -> Vec<ShardJob> {
        let mut state = lock(&self.state);
        let mut orphaned = Vec::new();
        for lane in state.lanes.iter_mut() {
            let mut kept = VecDeque::with_capacity(lane.len());
            while let Some(job) = lane.pop_front() {
                if self.supervisor.live_eligible_exists(job.device) {
                    kept.push_back(job);
                } else {
                    orphaned.push(job);
                }
            }
            *lane = kept;
        }
        orphaned
    }

    pub(crate) fn push(&self, job: ShardJob, lane: usize) {
        let wakers = {
            let mut state = lock(&self.state);
            state.lanes[lane].push_back(job);
            std::mem::take(&mut state.wakers)
        };
        for waker in wakers {
            waker.wake();
        }
    }

    /// Resolves to the first shard `worker` may run in the most urgent lane,
    /// suspending while none is eligible. Resolves to `None` once the queue
    /// is closed and no eligible work remains (pending work is drained
    /// before shutdown).
    pub(crate) fn pop(&self, worker: Worker) -> PopJob<'_> {
        PopJob {
            queue: self,
            worker,
        }
    }

    pub(crate) fn close(&self) {
        let wakers = {
            let mut state = lock(&self.state);
            state.closed = true;
            std::mem::take(&mut state.wakers)
        };
        for waker in wakers {
            waker.wake();
        }
    }
}

/// Future returned by [`JobQueue::pop`].
pub(crate) struct PopJob<'a> {
    queue: &'a JobQueue,
    worker: Worker,
}

impl Future for PopJob<'_> {
    type Output = Option<ShardJob>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // A dead engine parks instead of popping: the shards it would have
        // taken go to survivors. Each poll (the queue wakes all parked
        // workers on every push) re-checks liveness, which is where a
        // cooled-down engine revives.
        if !self.queue.supervisor.may_pop(self.worker.index) {
            let mut state = lock(&self.queue.state);
            if state.closed {
                // Shutdown must terminate dead workers too, or the
                // executor's drain would wait on them forever.
                return Poll::Ready(None);
            }
            register_waker(&mut state.wakers, cx.waker());
            return Poll::Pending;
        }
        let mut state = lock(&self.queue.state);
        for lane in state.lanes.iter_mut() {
            if let Some(pos) = lane.iter().position(|job| job.eligible(self.worker.device)) {
                return Poll::Ready(lane.remove(pos));
            }
        }
        if state.closed {
            return Poll::Ready(None);
        }
        register_waker(&mut state.wakers, cx.waker());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheKey;
    use crate::request::QueryPriority;
    use crate::service::{QueryMeta, QueryState};
    use crate::store::{SlideId, SlideStore};
    use sccg::pipeline::exec::block_on;
    use sccg::pixelbox::PixelBoxConfig;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::task::Wake;
    use std::time::Duration;

    /// A waker that records whether it was woken.
    struct Flag(AtomicBool);

    impl Wake for Flag {
        fn wake(self: Arc<Self>) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    /// A queue whose supervisor kills an engine on its first failure and
    /// never revives it within a test — supervision of real workers is
    /// exercised in the service-level fault tests, not here.
    fn open_queue() -> (JobQueue, Arc<Supervisor>) {
        let devices = [AggregationDevice::Gpu, AggregationDevice::Cpu];
        let supervisor = Arc::new(Supervisor::new(&devices, 1, Duration::from_secs(3600)));
        (JobQueue::new(Arc::clone(&supervisor)), supervisor)
    }

    fn test_query(
        store: SlideStore,
        first: SlideId,
        second: SlideId,
        shards: usize,
    ) -> Arc<QueryState> {
        let (events, _keepalive) = std::sync::mpsc::channel();
        Arc::new(QueryState {
            key: CacheKey {
                first,
                second,
                tiles: Vec::new(),
                config: 0,
                device: None,
            },
            meta: QueryMeta {
                first,
                second,
                priority: QueryPriority::Normal,
                device: None,
            },
            store,
            pixelbox: PixelBoxConfig::paper_default(),
            partials: Mutex::new(Vec::new()),
            remaining: AtomicUsize::new(shards),
            failure: Mutex::new(None),
            events,
            deadline: None,
        })
    }

    fn job(query: &Arc<QueryState>, tile: usize, device: Option<AggregationDevice>) -> ShardJob {
        ShardJob {
            query: Arc::clone(query),
            position: tile,
            tile_index: tile,
            device,
        }
    }

    fn poll_pop(queue: &JobQueue, worker: Worker, flag: &Arc<Flag>) -> Poll<Option<ShardJob>> {
        let waker = Waker::from(Arc::clone(flag));
        let mut cx = Context::from_waker(&waker);
        let mut pop = queue.pop(worker);
        Pin::new(&mut pop).poll(&mut cx)
    }

    const GPU_WORKER: Worker = Worker {
        device: AggregationDevice::Gpu,
        index: 0,
    };
    const CPU_WORKER: Worker = Worker {
        device: AggregationDevice::Cpu,
        index: 1,
    };

    /// A CPU-only shard queued *behind* GPU-pinned shards must be handed to
    /// a CPU worker immediately — the eligibility scan skips over ineligible
    /// work rather than head-of-line blocking — and a GPU worker parked
    /// before the pushes must have been woken by them.
    #[test]
    fn cpu_job_behind_gpu_jobs_is_not_starved() {
        let (queue, _supervisor) = open_queue();
        // Park a GPU worker on the empty queue.
        let parked = Arc::new(Flag(AtomicBool::new(false)));
        assert!(poll_pop(&queue, GPU_WORKER, &parked).is_pending());

        let store = SlideStore::new();
        let first = store.register_slide("a", vec![vec![]; 4]);
        let second = store.register_slide("b", vec![vec![]; 4]);
        let query = test_query(store, first, second, 4);
        for tile in 0..3 {
            queue.push(job(&query, tile, Some(AggregationDevice::Gpu)), 1);
        }
        queue.push(job(&query, 3, Some(AggregationDevice::Cpu)), 1);
        assert!(
            parked.0.load(Ordering::SeqCst),
            "the parked GPU worker was woken by the pushes"
        );

        // The CPU worker gets its shard on the first poll, despite the three
        // GPU-pinned shards ahead of it in the lane.
        let idle = Arc::new(Flag(AtomicBool::new(false)));
        match poll_pop(&queue, CPU_WORKER, &idle) {
            Poll::Ready(Some(job)) => assert_eq!(job.tile_index, 3),
            other => panic!("CPU worker starved: pending = {}", other.is_pending()),
        }
    }

    /// Closing the queue wakes parked workers and drains pending work
    /// before reporting `None`.
    #[test]
    fn close_drains_then_resolves_none() {
        let (queue, _supervisor) = open_queue();
        let store = SlideStore::new();
        let first = store.register_slide("a", vec![vec![]]);
        let second = store.register_slide("b", vec![vec![]]);
        let query = test_query(store, first, second, 1);
        queue.push(job(&query, 0, None), 2);
        queue.close();
        assert!(block_on(queue.pop(CPU_WORKER)).is_some(), "drained");
        assert!(block_on(queue.pop(CPU_WORKER)).is_none(), "closed");
    }

    /// `close` takes the wakers under the lock a parked pop registered
    /// under, so a worker parked on an empty queue — live, or marked dead
    /// by the supervisor (the `may_pop` branch) — is woken and then
    /// resolves `None`.
    #[test]
    fn close_wakes_a_parked_worker() {
        for dead in [false, true] {
            let (queue, supervisor) = open_queue();
            if dead {
                assert!(supervisor.record_failure(CPU_WORKER.index), "killed");
            }
            let flag = Arc::new(Flag(AtomicBool::new(false)));
            assert!(
                poll_pop(&queue, CPU_WORKER, &flag).is_pending(),
                "dead = {dead}: parks on the empty queue"
            );
            queue.close();
            assert!(flag.0.load(Ordering::SeqCst), "dead = {dead}: woken");
            assert!(
                matches!(poll_pop(&queue, CPU_WORKER, &flag), Poll::Ready(None)),
                "dead = {dead}: the next poll resolves None"
            );
        }
    }
}
