//! A minimal futures-style task executor and bounded async channels — the
//! event-driven substrate under the streaming pipeline.
//!
//! The build environment is offline (no tokio, no `futures` crate), so this
//! module hand-rolls the three primitives the pipeline needs, over `std`
//! only:
//!
//! * [`Executor`] — a fixed pool of worker threads polling tasks from a
//!   shared ready queue. Tasks are plain `Future<Output = ()>`s; wakers are
//!   built with [`std::task::Wake`] (no unsafe vtables). A task that is not
//!   ready occupies **no thread** — it is re-queued only when one of its
//!   registered wakers fires, which is what lets thousands of tiles stream
//!   through a handful of threads, and lets a blocked stage or engine wait
//!   without pinning an OS thread.
//! * [`channel`] — a *bounded* multi-producer multi-consumer async channel.
//!   [`Sender::send`] resolves only when buffer space exists, so
//!   backpressure propagates task-by-task all the way back to the input
//!   iterator; peak buffered data is O(capacity), never O(dataset).
//!   Receivers additionally expose [`Receiver::register_watch`], a
//!   queue-depth event subscription: a custom future can be woken on *any*
//!   depth change of a channel it does not itself receive from — this is how
//!   the migration heuristics react to congestion/idleness events instead of
//!   sleep-polling.
//! * [`block_on`] — drives one future on the calling thread with a
//!   park/unpark waker, bridging the synchronous world (the input iterator,
//!   tests) into the async one.
//!
//! Everything here is deliberately small and allocation-light: wakers are
//! deduplicated by [`Waker::will_wake`], wake-ups are wake-all (a woken task
//! that finds nothing to do re-registers and suspends again — spurious
//! wake-ups are cheap, lost wake-ups are deadlocks).

use crate::sync::lock;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::JoinHandle;

/// Registers `waker` in `wakers` unless an equivalent waker (same task) is
/// already registered — the building block for hand-written futures (the
/// channels here, the service's job queue) that park tasks on a wake list.
pub fn register_waker(wakers: &mut Vec<Waker>, waker: &Waker) {
    if !wakers.iter().any(|existing| existing.will_wake(waker)) {
        wakers.push(waker.clone());
    }
}

/// Wakes and clears a waker list. Callers drop the owning lock first.
fn wake_all(wakers: &mut Vec<Waker>) -> Vec<Waker> {
    std::mem::take(wakers)
}

// ---------------------------------------------------------------------------
// Task + executor
// ---------------------------------------------------------------------------

/// Task scheduling states. A task is in exactly one state; the transitions
/// guarantee it is never queued twice and never misses a wake.
const IDLE: u8 = 0; // suspended, waiting for a waker to fire
const SCHEDULED: u8 = 1; // in the ready queue
const RUNNING: u8 = 2; // currently being polled by a worker
const NOTIFIED: u8 = 3; // woken *while* being polled; re-queue after the poll
const DONE: u8 = 4; // completed (or its poll panicked)

struct Task {
    state: AtomicU8,
    /// The task's future. `None` once completed.
    future: Mutex<Option<Pin<Box<dyn Future<Output = ()> + Send>>>>,
    exec: Arc<ExecShared>,
}

impl Task {
    /// Moves the task toward the ready queue; called by its wakers.
    fn schedule(self: &Arc<Self>) {
        loop {
            let state = self.state.load(Ordering::Acquire);
            let (target, enqueue) = match state {
                IDLE => (SCHEDULED, true),
                RUNNING => (NOTIFIED, false),
                // Already queued, already re-queue-pending, or finished:
                // nothing to do.
                SCHEDULED | NOTIFIED | DONE => return,
                _ => unreachable!("invalid task state {state}"),
            };
            if self
                .state
                .compare_exchange(state, target, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                if enqueue {
                    self.exec.push_ready(Arc::clone(self));
                }
                return;
            }
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.schedule();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.schedule();
    }
}

struct ExecShared {
    ready: Mutex<VecDeque<Arc<Task>>>,
    work_available: Condvar,
    shutdown: AtomicBool,
    /// Number of spawned-but-not-completed tasks, with a condvar for
    /// [`Executor::wait_idle`].
    live: Mutex<usize>,
    idle: Condvar,
}

impl ExecShared {
    fn push_ready(&self, task: Arc<Task>) {
        lock(&self.ready).push_back(task);
        self.work_available.notify_one();
    }

    fn task_finished(&self) {
        let mut live = lock(&self.live);
        *live -= 1;
        if *live == 0 {
            self.idle.notify_all();
        }
    }
}

/// A fixed-size thread pool polling spawned futures to completion. See the
/// [module docs](self).
pub struct Executor {
    shared: Arc<ExecShared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.threads.len())
            .field("live_tasks", &*lock(&self.shared.live))
            .finish()
    }
}

impl Executor {
    /// Starts an executor with `threads` worker threads (at least one).
    ///
    /// The thread count bounds *compute* parallelism only: any number of
    /// tasks may be live, and tasks waiting on a channel occupy no thread.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(ExecShared {
            ready: Mutex::new(VecDeque::new()),
            work_available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            live: Mutex::new(0),
            idle: Condvar::new(),
        });
        let threads = (0..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Executor { shared, threads }
    }

    /// Submits a future for execution. The future starts running as soon as
    /// a worker thread is free and is dropped after completing (or if its
    /// poll panics — a panicking task never takes a worker thread down).
    pub fn spawn(&self, future: impl Future<Output = ()> + Send + 'static) {
        *lock(&self.shared.live) += 1;
        let task = Arc::new(Task {
            state: AtomicU8::new(SCHEDULED),
            future: Mutex::new(Some(Box::pin(future))),
            exec: Arc::clone(&self.shared),
        });
        self.shared.push_ready(task);
    }

    /// Blocks until every spawned task has completed. New tasks may be
    /// spawned afterwards; the executor stays usable.
    pub fn wait_idle(&self) {
        let mut live = lock(&self.shared.live);
        while *live > 0 {
            live = self
                .shared
                .idle
                .wait(live)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads.len()
    }
}

impl Drop for Executor {
    /// Stops the worker threads. Tasks still suspended at this point are
    /// dropped without completing — callers that need completion call
    /// [`Executor::wait_idle`] first.
    fn drop(&mut self) {
        // Raised under the queue lock: a worker checks the flag and starts
        // waiting without releasing that lock in between, so it either sees
        // the flag or is already waiting when the notification goes out.
        // Raised outside it, both could land between the worker's check and
        // its wait, and the join below would never return.
        {
            let _ready = lock(&self.shared.ready);
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.work_available.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        lock(&self.shared.ready).clear();
    }
}

fn worker_loop(shared: &Arc<ExecShared>) {
    loop {
        let task = {
            let mut ready = lock(&shared.ready);
            loop {
                if let Some(task) = ready.pop_front() {
                    break task;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                ready = shared
                    .work_available
                    .wait(ready)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };

        task.state.store(RUNNING, Ordering::Release);
        let waker = Waker::from(Arc::clone(&task));
        let mut cx = Context::from_waker(&waker);
        let mut slot = lock(&task.future);
        let Some(future) = slot.as_mut() else {
            continue; // completed task woken spuriously
        };
        let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            future.as_mut().poll(&mut cx)
        }));
        match polled {
            Ok(Poll::Pending) => {
                drop(slot);
                // Suspend — unless a waker fired during the poll, in which
                // case the task goes straight back to the queue.
                if task
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    task.state.store(SCHEDULED, Ordering::Release);
                    shared.push_ready(Arc::clone(&task));
                }
            }
            Ok(Poll::Ready(())) | Err(_) => {
                *slot = None;
                drop(slot);
                task.state.store(DONE, Ordering::Release);
                shared.task_finished();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// block_on
// ---------------------------------------------------------------------------

struct ThreadParker {
    thread: std::thread::Thread,
    notified: AtomicBool,
}

impl Wake for ThreadParker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.notified.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

/// Drives `future` to completion on the calling thread, parking between
/// polls. This is the sync→async bridge: the pipeline's input feeder uses it
/// to await buffer space in the bounded input channel, which is exactly how
/// backpressure reaches the input iterator.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = Box::pin(future);
    let parker = Arc::new(ThreadParker {
        thread: std::thread::current(),
        notified: AtomicBool::new(false),
    });
    let waker = Waker::from(Arc::clone(&parker));
    let mut cx = Context::from_waker(&waker);
    loop {
        if let Poll::Ready(output) = future.as_mut().poll(&mut cx) {
            return output;
        }
        while !parker.notified.swap(false, Ordering::AcqRel) {
            std::thread::park();
        }
    }
}

// ---------------------------------------------------------------------------
// Bounded async MPMC channel with depth-watch subscriptions
// ---------------------------------------------------------------------------

/// Error returned by [`Sender::send`] when every receiver has disconnected;
/// gives the unsent message back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty but senders remain connected.
    Empty,
    /// The channel is empty and every sender has disconnected.
    Disconnected,
}

struct ChanState<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// Tasks waiting for buffer space.
    send_wakers: Vec<Waker>,
    /// Tasks waiting for a message.
    recv_wakers: Vec<Waker>,
    /// Depth-event subscribers: woken on *every* state change (push, pop,
    /// disconnect), whether or not they receive from this channel.
    watch_wakers: Vec<Waker>,
}

struct Chan<T> {
    state: Mutex<ChanState<T>>,
    capacity: usize,
}

impl<T> Chan<T> {
    /// Collects the wakers to fire after a push: receivers and watchers.
    fn on_push(state: &mut ChanState<T>) -> Vec<Waker> {
        let mut wakers = wake_all(&mut state.recv_wakers);
        wakers.append(&mut wake_all(&mut state.watch_wakers));
        wakers
    }

    /// Collects the wakers to fire after a pop: senders and watchers.
    fn on_pop(state: &mut ChanState<T>) -> Vec<Waker> {
        let mut wakers = wake_all(&mut state.send_wakers);
        wakers.append(&mut wake_all(&mut state.watch_wakers));
        wakers
    }

    /// Collects every waker: fired when a side disconnects.
    fn on_disconnect(state: &mut ChanState<T>) -> Vec<Waker> {
        let mut wakers = wake_all(&mut state.send_wakers);
        wakers.append(&mut wake_all(&mut state.recv_wakers));
        wakers.append(&mut wake_all(&mut state.watch_wakers));
        wakers
    }
}

/// Creates a bounded async channel. `send` resolves only while fewer than
/// `capacity` messages are buffered (capacity is clamped to at least 1 —
/// rendezvous channels are not implemented).
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(ChanState {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
            send_wakers: Vec::new(),
            recv_wakers: Vec::new(),
            watch_wakers: Vec::new(),
        }),
        capacity: capacity.max(1),
    });
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

/// The sending half of a bounded channel. Clonable (multi-producer); the
/// channel disconnects for receivers when the last sender drops.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender").finish_non_exhaustive()
    }
}

impl<T> Sender<T> {
    /// Sends `value` once buffer space exists. Resolves to an error only
    /// when every receiver has disconnected.
    pub fn send(&self, value: T) -> SendFuture<'_, T> {
        SendFuture {
            sender: self,
            value: Some(value),
        }
    }

    /// Synchronous convenience: [`block_on`] around [`Sender::send`]. Blocks
    /// the calling OS thread while the buffer is full.
    pub fn send_blocking(&self, value: T) -> Result<(), SendError<T>> {
        block_on(self.send(value))
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        lock(&self.chan.state).senders += 1;
        Sender {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let wakers = {
            let mut state = lock(&self.chan.state);
            state.senders -= 1;
            if state.senders == 0 {
                Chan::on_disconnect(&mut state)
            } else {
                Vec::new()
            }
        };
        for waker in wakers {
            waker.wake();
        }
    }
}

/// Future returned by [`Sender::send`].
pub struct SendFuture<'a, T> {
    sender: &'a Sender<T>,
    value: Option<T>,
}

impl<T> std::fmt::Debug for SendFuture<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SendFuture").finish_non_exhaustive()
    }
}

impl<T> Unpin for SendFuture<'_, T> {}

impl<T> Future for SendFuture<'_, T> {
    type Output = Result<(), SendError<T>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let value = this
            .value
            .take()
            .expect("SendFuture polled after completion");
        let wakers = {
            let mut state = lock(&this.sender.chan.state);
            if state.receivers == 0 {
                return Poll::Ready(Err(SendError(value)));
            }
            if state.queue.len() < this.sender.chan.capacity {
                state.queue.push_back(value);
                Chan::on_push(&mut state)
            } else {
                this.value = Some(value);
                register_waker(&mut state.send_wakers, cx.waker());
                return Poll::Pending;
            }
        };
        for waker in wakers {
            waker.wake();
        }
        Poll::Ready(Ok(()))
    }
}

/// The receiving half of a bounded channel. Clonable (multi-consumer); the
/// channel fails for senders when the last receiver drops.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver")
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl<T> Receiver<T> {
    /// Receives the next message. Resolves to `None` once the channel is
    /// empty and every sender has disconnected.
    pub fn recv(&self) -> RecvFuture<'_, T> {
        RecvFuture { receiver: self }
    }

    /// Receives a message if one is immediately available.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let (popped, wakers) = {
            let mut state = lock(&self.chan.state);
            match state.queue.pop_front() {
                Some(value) => {
                    let wakers = Chan::on_pop(&mut state);
                    (Ok(value), wakers)
                }
                None if state.senders == 0 => (Err(TryRecvError::Disconnected), Vec::new()),
                None => (Err(TryRecvError::Empty), Vec::new()),
            }
        };
        for waker in wakers {
            waker.wake();
        }
        popped
    }

    /// Number of messages currently buffered.
    pub fn len(&self) -> usize {
        lock(&self.chan.state).queue.len()
    }

    /// Whether the buffer is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The channel's buffer capacity.
    pub fn capacity(&self) -> usize {
        self.chan.capacity
    }

    /// Whether the channel is drained *and* every sender has disconnected —
    /// no message will ever arrive again.
    pub fn is_finished(&self) -> bool {
        let state = lock(&self.chan.state);
        state.queue.is_empty() && state.senders == 0
    }

    /// Subscribes `waker` to the channel's next state change (push, pop or
    /// disconnect). One-shot: fired subscriptions are cleared, so a pending
    /// future re-registers on every poll. This is the queue-depth event hook
    /// the migration heuristics build on — registering interest *before*
    /// re-checking depth makes the check race-free (any change after
    /// registration re-polls the subscriber).
    pub fn register_watch(&self, waker: &Waker) {
        register_waker(&mut lock(&self.chan.state).watch_wakers, waker);
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        lock(&self.chan.state).receivers += 1;
        Receiver {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let wakers = {
            let mut state = lock(&self.chan.state);
            state.receivers -= 1;
            if state.receivers == 0 {
                Chan::on_disconnect(&mut state)
            } else {
                Vec::new()
            }
        };
        for waker in wakers {
            waker.wake();
        }
    }
}

/// Future returned by [`Receiver::recv`].
#[derive(Debug)]
pub struct RecvFuture<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Unpin for RecvFuture<'_, T> {}

impl<T> Future for RecvFuture<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let (result, wakers) = {
            let mut state = lock(&self.receiver.chan.state);
            match state.queue.pop_front() {
                Some(value) => {
                    let wakers = Chan::on_pop(&mut state);
                    (Poll::Ready(Some(value)), wakers)
                }
                None if state.senders == 0 => (Poll::Ready(None), Vec::new()),
                None => {
                    register_waker(&mut state.recv_wakers, cx.waker());
                    (Poll::Pending, Vec::new())
                }
            }
        };
        for waker in wakers {
            waker.wake();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn dropping_an_executor_always_stops_its_idle_workers() {
        // A worker that has just found the queue empty and the shutdown flag
        // clear is about to wait; the flag and the wake-up must not slip in
        // between, or the drop joins a thread that sleeps forever. Each round
        // drops an executor right as its worker goes idle.
        for _ in 0..20_000 {
            let executor = Executor::new(1);
            let (tx, rx) = std::sync::mpsc::channel();
            executor.spawn(async move {
                let _ = tx.send(());
            });
            rx.recv().unwrap();
            drop(executor);
        }
    }

    #[test]
    fn block_on_returns_the_output() {
        assert_eq!(block_on(async { 6 * 7 }), 42);
    }

    #[test]
    fn executor_runs_spawned_tasks_to_completion() {
        let executor = Executor::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            executor.spawn(async move {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        executor.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn channel_round_trips_in_fifo_order() {
        let (tx, rx) = channel(4);
        let executor = Executor::new(1);
        executor.spawn(async move {
            for i in 0..10 {
                tx.send(i).await.unwrap();
            }
        });
        let got: Vec<i32> = block_on(async {
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            got
        });
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        executor.wait_idle();
    }

    #[test]
    fn bounded_send_applies_backpressure() {
        // A capacity-2 channel with a slow consumer: the producer cannot run
        // ahead — the buffer never exceeds capacity.
        let (tx, rx) = channel(2);
        let executor = Executor::new(2);
        let peak = Arc::new(AtomicUsize::new(0));
        let peak_producer = Arc::clone(&peak);
        let rx_probe = rx.clone();
        executor.spawn(async move {
            for i in 0..50u32 {
                tx.send(i).await.unwrap();
                peak_producer.fetch_max(rx_probe.len(), Ordering::Relaxed);
            }
        });
        let received = block_on(async {
            let mut count = 0;
            while let Some(_v) = rx.recv().await {
                count += 1;
            }
            count
        });
        executor.wait_idle();
        assert_eq!(received, 50);
        assert!(
            peak.load(Ordering::Relaxed) <= 2,
            "buffer exceeded its capacity"
        );
    }

    #[test]
    fn send_fails_once_all_receivers_drop() {
        let (tx, rx) = channel::<u8>(1);
        drop(rx);
        assert_eq!(block_on(tx.send(7)), Err(SendError(7)));
    }

    #[test]
    fn recv_drains_then_reports_disconnect() {
        let (tx, rx) = channel(4);
        tx.send_blocking(1).unwrap();
        tx.send_blocking(2).unwrap();
        drop(tx);
        assert_eq!(block_on(rx.recv()), Some(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(block_on(rx.recv()), None);
        assert!(rx.is_finished());
    }

    #[test]
    fn multi_consumer_receives_every_message_once() {
        let (tx, rx) = channel(4);
        let executor = Executor::new(3);
        let seen = Arc::new(AtomicUsize::new(0));
        for _ in 0..2 {
            let rx = rx.clone();
            let seen = Arc::clone(&seen);
            executor.spawn(async move {
                while let Some(_v) = rx.recv().await {
                    seen.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        drop(rx);
        for i in 0..200 {
            tx.send_blocking(i).unwrap();
        }
        drop(tx);
        executor.wait_idle();
        assert_eq!(seen.load(Ordering::Relaxed), 200);
    }

    /// A future that resolves once another channel's depth crosses a
    /// threshold — the watch-subscription pattern the migration tasks use.
    struct DepthAtLeast<'a> {
        rx: &'a Receiver<u32>,
        threshold: usize,
    }

    impl Future for DepthAtLeast<'_> {
        type Output = usize;
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<usize> {
            self.rx.register_watch(cx.waker());
            let len = self.rx.len();
            if len >= self.threshold {
                Poll::Ready(len)
            } else {
                Poll::Pending
            }
        }
    }

    #[test]
    fn watch_subscribers_observe_depth_changes_without_polling() {
        let (tx, rx) = channel(8);
        let executor = Executor::new(2);
        let woke_at = Arc::new(AtomicUsize::new(0));
        let woke = Arc::clone(&woke_at);
        let watcher_rx = rx.clone();
        executor.spawn(async move {
            let depth = DepthAtLeast {
                rx: &watcher_rx,
                threshold: 3,
            }
            .await;
            woke.store(depth, Ordering::Relaxed);
        });
        for i in 0..5 {
            tx.send_blocking(i).unwrap();
        }
        executor.wait_idle();
        assert!(woke_at.load(Ordering::Relaxed) >= 3);
        drop(tx);
        assert_eq!(rx.len(), 5);
    }

    #[test]
    fn panicking_task_does_not_kill_the_executor() {
        let executor = Executor::new(1);
        executor.spawn(async {
            panic!("task panic must be contained");
        });
        let done = Arc::new(AtomicUsize::new(0));
        let flag = Arc::clone(&done);
        executor.spawn(async move {
            flag.store(1, Ordering::Relaxed);
        });
        executor.wait_idle();
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }
}
