//! A persistent work-stealing thread pool.
//!
//! The paper parallelizes text parsing and PixelBox-CPU with Intel Threading
//! Building Blocks (§5). This module is the TBB stand-in: a process-wide
//! [`WorkerPool`] whose threads are spawned **once** and then serve every
//! batch, stealing fixed-size chunks of the input through an atomic chunk
//! cursor and writing results straight into pre-split disjoint slots of the
//! output vector.
//!
//! The pool's threads are the process's only compute threads. Like TBB's
//! single task scheduler, one queue carries two kinds of job: help
//! tickets of a `map` or `join` call, and the polls of woken
//! [`Executor`](crate::pipeline::exec::Executor) tasks — so the streaming
//! pipeline's stages, the service's engine tasks and the kernels they fan
//! out to all share the same threads, and a task's nested `map` is helped
//! by whichever worker is free.
//!
//! The original implementation re-spawned `workers` OS threads per call and
//! round-tripped every chunk's results through an unbounded channel into a
//! `vec![R::default(); len]` pre-fill — three allocations and a thread-spawn
//! per batch on the hottest CPU path in the system (every
//! [`compute_batch_cpu`](crate::pixelbox::cpu::compute_batch_cpu) call, the
//! hybrid backend's CPU share, every `ComparisonService` engine). The pool
//! removes all of it: no per-batch spawn, no channel, no `R: Default +
//! Clone` bound — just one output allocation written exactly once per
//! element.
//!
//! # Safety
//!
//! Handing borrowed slices to persistent (non-scoped) threads requires
//! erasing lifetimes, so this module contains the workspace's only `unsafe`
//! code (the same technique rayon uses). Soundness rests on one invariant,
//! enforced by [`WorkerPool::map`]: **the submitting call does not return
//! until every chunk of its job has been fully processed**, so the erased
//! borrows strictly outlive every access. See the `SAFETY` comments inline.

#![allow(unsafe_code)]

use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Number of worker threads to use by default: one per available core.
/// Counted once per process: asking the OS reads its CPU quota files.
pub fn default_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// One unit of work on the pool's queue: a help ticket of a `map` or `join`
/// call, or one poll of a woken executor task. A worker pops a job, runs it
/// and drops its handle; a job never unwinds into the worker (chunks, join
/// tasks and polls each catch their own panics).
pub(crate) trait Job: Send + Sync {
    fn run(self: Arc<Self>);
}

/// A `map` or `join` help ticket. Stale tickets (popped after their call
/// returned) fail their claim and return without touching borrowed data.
impl<F: Fn() + Send + Sync> Job for F {
    fn run(self: Arc<Self>) {
        (*self)()
    }
}

struct PoolQueue {
    jobs: VecDeque<Arc<dyn Job>>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    work_available: Condvar,
}

/// Completion state of one `map` job, owned (`Arc`) so it outlives stale
/// tickets.
struct JobState {
    /// Next chunk index to claim; `fetch_add` makes claims disjoint.
    cursor: AtomicUsize,
    /// Chunks fully processed (results written, or abandoned on panic).
    chunks_done: AtomicUsize,
    chunk_count: usize,
    /// Set when a worker's closure panicked; the submitter re-raises with
    /// the first caught payload (stored in `panic_payload`).
    panicked: AtomicBool,
    /// The first panic payload caught by any chunk, re-raised by the
    /// submitter so assertion messages survive the pool boundary.
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Latch the submitter waits on once it runs out of chunks to claim.
    done: Mutex<bool>,
    finished: Condvar,
}

/// Raw-pointer bundle carrying one job's borrowed inputs/outputs into the
/// pool threads. Only dereferenced between a successful chunk claim and the
/// matching `chunks_done` increment, which `map` awaits before returning.
struct RawJob<T, R, F> {
    items: *const T,
    len: usize,
    out: *mut MaybeUninit<R>,
    f: *const F,
    chunk_size: usize,
}

impl<T, R, F> Clone for RawJob<T, R, F> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T, R, F> Copy for RawJob<T, R, F> {}

// SAFETY: the pointers are only dereferenced while the originating `map`
// call is still blocked (see JobState), under which `&[T]` is shared
// (`T: Sync`), `F` is invoked concurrently by reference (`F: Sync`), and
// each `out` slot is written by exactly one thread then read only by the
// submitter after the completion latch (`R: Send`).
unsafe impl<T: Sync, R: Send, F: Sync> Send for RawJob<T, R, F> {}
unsafe impl<T: Sync, R: Send, F: Sync> Sync for RawJob<T, R, F> {}

/// A persistent pool of worker threads executing `map` and `join` jobs and
/// executor task polls.
///
/// Threads are spawned at construction and live until the pool is dropped;
/// each [`WorkerPool::map`] call enqueues lightweight help tickets, and the
/// calling thread itself always participates, so a job completes even when
/// every pool thread is busy elsewhere (no nested-job deadlock) — including
/// when the caller is itself a pool thread polling an executor task.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: usize,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `threads` persistent worker threads (at least
    /// one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_available: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sccg-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            threads,
            handles,
        }
    }

    /// The process-wide pool shared by `PixelBox-CPU` batches, the hybrid
    /// backend's CPU share and every `ComparisonService` engine — sized to
    /// the available cores, spawned on first use, never torn down.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(default_workers()))
    }

    /// Number of persistent worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Queues one job for the next free worker.
    pub(crate) fn push(&self, job: Arc<dyn Job>) {
        let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
        queue.jobs.push_back(job);
        drop(queue);
        self.shared.work_available.notify_one();
    }

    /// Applies `f` to every element of `items`, producing a vector of
    /// results in input order. At most `max_workers` threads cooperate on
    /// the job (the calling thread plus up to `max_workers - 1` pool
    /// threads), stealing `chunk_size`-element chunks through an atomic
    /// cursor; uneven item costs balance dynamically, which matters for
    /// PixelBox-CPU where pair costs vary with polygon size. With
    /// `max_workers == 1` the call is exactly sequential (the
    /// `PixelBox-CPU-S` configuration).
    pub fn map<T, R, F>(&self, items: &[T], max_workers: usize, chunk_size: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let max_workers = max_workers.max(1);
        let chunk_size = chunk_size.max(1);
        let len = items.len();
        if max_workers == 1 || len <= chunk_size {
            return items.iter().map(&f).collect();
        }

        let chunk_count = len.div_ceil(chunk_size);
        let mut out: Vec<R> = Vec::with_capacity(len);
        let job = Arc::new(JobState {
            cursor: AtomicUsize::new(0),
            chunks_done: AtomicUsize::new(0),
            chunk_count,
            panicked: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
            done: Mutex::new(false),
            finished: Condvar::new(),
        });
        let raw = RawJob {
            items: items.as_ptr(),
            len,
            out: out.spare_capacity_mut().as_mut_ptr(),
            f: &f,
            chunk_size,
        };

        let run_job = Arc::clone(&job);
        let run = move || run_chunks(&run_job, raw);
        // SAFETY: lifetime erasure of the borrows captured in `run` (items,
        // f, and the output's spare capacity). The erased closure is only
        // ever *executed* against that borrowed data while a chunk claim
        // succeeds, and every claim is accounted for in `chunks_done`,
        // which this call waits to reach `chunk_count` before returning —
        // so no access outlives the borrow. Tickets that outlive the job
        // fail their first claim and return without touching `raw`.
        let ticket = unsafe { erase(Arc::new(run)) };

        // Invite helpers: never more than the pool has threads, never more
        // than there are chunks beyond the submitter's first claim.
        let helpers = (max_workers - 1).min(self.threads).min(chunk_count - 1);
        if helpers > 0 {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            for _ in 0..helpers {
                queue.jobs.push_back(Arc::clone(&ticket));
            }
            drop(queue);
            if helpers == 1 {
                self.shared.work_available.notify_one();
            } else {
                self.shared.work_available.notify_all();
            }
        }

        // The submitter works too, then waits for the stragglers.
        ticket.run();
        let mut done = job.done.lock().expect("job latch poisoned");
        while !*done {
            done = job.finished.wait(done).expect("job latch poisoned");
        }
        drop(done);

        if job.panicked.load(Ordering::Acquire) {
            // `out` still has length 0, so dropping it cannot touch the
            // partially initialized spare capacity; the chunk results
            // written so far leak, which is sound (and `PairAreas` et al.
            // are trivial anyway).
            drop(out);
            let payload = job
                .panic_payload
                .lock()
                .expect("panic payload poisoned")
                .take();
            match payload {
                Some(payload) => std::panic::resume_unwind(payload),
                None => panic!("worker pool job panicked"),
            }
        }
        // SAFETY: chunks_done == chunk_count, so every index in 0..len was
        // written exactly once (disjoint chunk claims) and those writes
        // happen-before this point via the completion latch.
        unsafe { out.set_len(len) };
        out
    }

    /// Runs `a` on a pool thread while the calling thread runs `b`,
    /// returning both results. This replaces per-call `std::thread::scope`
    /// spawns on hot paths — the hybrid backend overlaps its CPU share with
    /// driving the simulated GPU on *every* batch, and an OS thread spawn
    /// per sub-millisecond batch dwarfs the work itself.
    ///
    /// If no pool thread has picked the task up by the time `b` finishes,
    /// the calling thread claims and runs `a` itself, so the call never
    /// deadlocks (and degrades to plain sequential execution on a saturated
    /// pool). A panic in either closure propagates to the caller with its
    /// original payload.
    pub fn join<RA, RB, A, B>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        RA: Send,
        B: FnOnce() -> RB,
    {
        struct JoinState<A, RA> {
            /// The task, taken exactly once — by the first of the pool
            /// ticket and the submitter to claim it.
            task: Mutex<Option<A>>,
            /// The ticket's outcome, taken by the submitter before
            /// returning (so a stale ticket never holds borrowed data).
            result: Mutex<Option<std::thread::Result<RA>>>,
            done: Mutex<bool>,
            finished: Condvar,
        }
        let state = Arc::new(JoinState {
            task: Mutex::new(Some(a)),
            result: Mutex::new(None),
            done: Mutex::new(false),
            finished: Condvar::new(),
        });

        let run_state = Arc::clone(&state);
        let run = move || {
            let task = run_state.task.lock().expect("join task poisoned").take();
            if let Some(task) = task {
                let outcome = catch_unwind(AssertUnwindSafe(task));
                *run_state.result.lock().expect("join result poisoned") = Some(outcome);
                let mut done = run_state.done.lock().expect("join latch poisoned");
                *done = true;
                run_state.finished.notify_all();
            }
        };
        // SAFETY: same lifetime-erasure argument as `map`. The erased
        // closure only touches `a`'s borrows after winning the `task` claim,
        // and this call does not return until that claim's completion latch
        // fires (or until the submitter won the claim itself and ran `a`
        // inline) — so no access outlives the borrows. By return time both
        // `task` and `result` have been taken, so a stale ticket's eventual
        // drop frees an empty state and never runs borrowed destructors.
        self.push(unsafe { erase(Arc::new(run)) });

        // `b` runs under `catch_unwind` so that a panic in it cannot unwind
        // out of this frame before the pooled task is settled below — the
        // ticket must never touch `a`'s borrows after this call returns.
        let rb = catch_unwind(AssertUnwindSafe(b));
        let claimed = state.task.lock().expect("join task poisoned").take();
        let ra = if let Some(task) = claimed {
            // No pool thread got there first: run the task inline.
            catch_unwind(AssertUnwindSafe(task))
        } else {
            let mut done = state.done.lock().expect("join latch poisoned");
            while !*done {
                done = state.finished.wait(done).expect("join latch poisoned");
            }
            drop(done);
            state
                .result
                .lock()
                .expect("join result poisoned")
                .take()
                .expect("claimed join task must leave a result")
        };
        match (ra, rb) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            (Err(payload), _) | (_, Err(payload)) => std::panic::resume_unwind(payload),
        }
    }
}

/// Erases the lifetime of a help ticket's borrows so it can sit on the
/// pool's `'static` queue.
///
/// # Safety
///
/// The caller must not return (nor let the borrows end) until every access
/// the ticket can make to borrowed data has finished; a ticket run after
/// that point must find nothing to claim.
unsafe fn erase<'a>(ticket: Arc<dyn Job + 'a>) -> Arc<dyn Job> {
    // SAFETY: only the trait object's lifetime bound changes (same layout);
    // the caller upholds the contract above.
    unsafe { std::mem::transmute::<Arc<dyn Job + 'a>, Arc<dyn Job>>(ticket) }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Raised under the queue lock: a worker checks the flag and starts
        // waiting without releasing that lock in between, so it either sees
        // the flag or is already waiting when the notification goes out.
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            queue.shutdown = true;
        }
        self.shared.work_available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Claims and processes chunks of one job until the cursor is exhausted.
/// Generic over the job's types; monomorphized per `map` call and reached
/// through the erased ticket closure.
fn run_chunks<T, R, F>(job: &JobState, raw: RawJob<T, R, F>)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    loop {
        let chunk = job.cursor.fetch_add(1, Ordering::Relaxed);
        if chunk >= job.chunk_count {
            break;
        }
        // Once any chunk has panicked the job's result can never be used, so
        // remaining chunks are claimed and counted (the completion latch
        // still needs them) but not executed — the doomed batch fails fast
        // instead of churning through the rest of the input.
        if job.panicked.load(Ordering::Acquire) {
            finish_chunk(job);
            continue;
        }
        let lo = chunk * raw.chunk_size;
        let hi = (lo + raw.chunk_size).min(raw.len);
        let wrote = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: `chunk` was claimed exclusively by this thread, so
            // indices lo..hi of both `items` and `out` are accessed by no
            // one else; the submitter keeps the borrows alive until this
            // chunk is counted in `chunks_done` below.
            unsafe {
                let f = &*raw.f;
                for i in lo..hi {
                    let value = f(&*raw.items.add(i));
                    (*raw.out.add(i)).write(value);
                }
            }
        }));
        if let Err(payload) = wrote {
            let mut slot = job.panic_payload.lock().expect("panic payload poisoned");
            slot.get_or_insert(payload);
            drop(slot);
            job.panicked.store(true, Ordering::Release);
        }
        finish_chunk(job);
    }
}

/// Counts one claimed chunk as done, firing the completion latch on the
/// last one.
fn finish_chunk(job: &JobState) {
    let done_before = job.chunks_done.fetch_add(1, Ordering::AcqRel);
    if done_before + 1 == job.chunk_count {
        let mut done = job.done.lock().expect("job latch poisoned");
        *done = true;
        job.finished.notify_all();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .work_available
                    .wait(queue)
                    .expect("pool queue poisoned");
            }
        };
        job.run();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropping_a_pool_always_stops_its_idle_workers() {
        // A worker that has just found the queue empty and the shutdown flag
        // clear is about to wait; the flag and the wake-up must not slip in
        // between, or the drop joins a thread that sleeps forever. Each round
        // drops a pool right as its worker goes idle.
        for _ in 0..20_000 {
            let pool = WorkerPool::new(1);
            let (tx, rx) = std::sync::mpsc::channel();
            pool.push(Arc::new(move || {
                let _ = tx.send(());
            }));
            rx.recv().unwrap();
            drop(pool);
        }
    }

    #[test]
    fn maps_in_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = WorkerPool::global().map(&items, 4, 16, |x| x * 2);
        let expected: Vec<u64> = items.iter().map(|x| x * 2).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn single_worker_matches_sequential() {
        let items: Vec<u64> = (0..100).collect();
        let pool = WorkerPool::global();
        assert_eq!(
            pool.map(&items, 1, 8, |x| x + 1),
            pool.map(&items, 8, 8, |x| x + 1)
        );
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u32> = Vec::new();
        let out: Vec<u32> = WorkerPool::global().map(&items, 4, 8, |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_chunks_cover_all_items() {
        let items: Vec<usize> = (0..37).collect();
        let out = WorkerPool::global().map(&items, 3, 5, |x| *x);
        assert_eq!(out, items);
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn results_need_no_default_or_clone() {
        // A result type that is neither Default nor Clone: the old
        // `vec![R::default(); len]` pre-fill could not even compile this.
        struct Opaque(u64);
        let items: Vec<u64> = (0..256).collect();
        let out: Vec<Opaque> = WorkerPool::global().map(&items, 4, 8, |x| Opaque(x * x));
        assert_eq!(out.len(), items.len());
        assert!(out.iter().enumerate().all(|(i, o)| o.0 == (i * i) as u64));
    }

    #[test]
    fn dedicated_pool_maps_correctly() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads(), 3);
        let items: Vec<i64> = (0..4096).collect();
        let out = pool.map(&items, 3, 32, |x| x - 7);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as i64 - 7));
        // The pool survives many batches without re-spawning.
        for round in 0..50 {
            let small: Vec<i64> = (0..97).collect();
            let mapped = pool.map(&small, 2, 4, |x| x * round);
            assert!(mapped
                .iter()
                .enumerate()
                .all(|(i, &v)| v == i as i64 * round));
        }
    }

    #[test]
    fn concurrent_jobs_share_the_pool() {
        let pool = Arc::new(WorkerPool::new(2));
        let handles: Vec<_> = (0..6)
            .map(|offset: i64| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let items: Vec<i64> = (0..512).collect();
                    let out = pool.map(&items, 4, 16, |x| x + offset);
                    out.iter().enumerate().all(|(i, &v)| v == i as i64 + offset)
                })
            })
            .collect();
        for handle in handles {
            assert!(handle.join().expect("job thread"));
        }
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let items: Vec<u32> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&items, 4, 4, |x| {
                assert!(*x != 13, "boom");
                *x
            })
        }));
        let payload = result.expect_err("panic must reach the submitter");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(
            message.contains("boom"),
            "original panic payload must survive the pool boundary, got {message:?}"
        );
        // The pool still works afterwards.
        let out = pool.map(&items, 4, 4, |x| x + 1);
        assert_eq!(out.len(), items.len());
    }

    #[test]
    fn join_overlaps_two_closures_over_borrowed_data() {
        let pool = WorkerPool::new(2);
        let left: Vec<u64> = (0..512).collect();
        let right: Vec<u64> = (0..512).collect();
        for _ in 0..50 {
            let (a, b) = pool.join(
                || left.iter().sum::<u64>(),
                || right.iter().map(|x| x * 2).sum::<u64>(),
            );
            assert_eq!(a, 512 * 511 / 2);
            assert_eq!(b, 512 * 511);
        }
    }

    #[test]
    fn join_runs_inline_on_a_saturated_pool() {
        // Park the only pool thread in a long map job, then join: the
        // submitter must claim the task itself instead of deadlocking.
        let pool = Arc::new(WorkerPool::new(1));
        let blocker = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let items: Vec<u64> = (0..64).collect();
                pool.map(&items, 2, 1, |x| {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    *x
                })
            })
        };
        let (a, b) = pool.join(|| 21 + 21, || "main");
        assert_eq!((a, b), (42, "main"));
        assert_eq!(blocker.join().expect("blocker").len(), 64);
    }

    #[test]
    fn join_propagates_panics_from_both_sides() {
        let pool = WorkerPool::new(2);
        let pooled = catch_unwind(AssertUnwindSafe(|| {
            pool.join(|| panic!("pooled side"), || 1)
        }));
        assert!(pooled.is_err());
        let submitter = catch_unwind(AssertUnwindSafe(|| {
            pool.join(|| 1, || panic!("submitter side"))
        }));
        assert!(submitter.is_err());
        // The pool still works afterwards.
        assert_eq!(pool.join(|| 1, || 2), (1, 2));
    }

    #[test]
    fn global_pool_is_shared_and_sized_to_the_host() {
        let a = WorkerPool::global() as *const WorkerPool;
        let b = WorkerPool::global() as *const WorkerPool;
        assert_eq!(a, b);
        assert_eq!(WorkerPool::global().threads(), default_workers());
    }
}
