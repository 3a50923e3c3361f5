//! A minimal multi-threaded task executor, for work that may block a
//! thread: the serving layer's dispatcher, which waits on push acks,
//! runs here. Tasks that only ever await — connection and client I/O —
//! run on the reactor's loop instead ([`Reactor::spawn`](crate::Reactor::spawn)).
//!
//! Tasks are `Arc`-wrapped futures; the task *is* its own waker
//! (`std::task::Wake`), and waking re-enqueues the task on the pool's
//! injector queue. The pool keeps a registry of every live task so
//! [`ThreadPool::shutdown`] can cancel parked tasks by dropping their
//! futures — without the registry, a task parked on a channel would keep
//! itself alive through the waker the channel holds (task → future →
//! receiver → registered waker → task) and the pool could never free it.

use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread;

use crate::channel::oneshot;

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

struct PoolInner {
    queue: Mutex<VecDeque<Arc<Task>>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Every live task, so shutdown can cancel the parked ones.
    tasks: Mutex<HashMap<u64, Arc<Task>>>,
    next_id: AtomicU64,
}

impl PoolInner {
    fn push(&self, task: Arc<Task>) {
        if self.shutdown.load(Ordering::Acquire) {
            // The workers are gone (or going); enqueueing would strand the
            // task. Dropping it here lets its cancellation propagate.
            return;
        }
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).push_back(task);
        self.available.notify_one();
    }
}

struct Task {
    id: u64,
    /// `None` once the future completed (or was canceled).
    future: Mutex<Option<BoxFuture>>,
    pool: Arc<PoolInner>,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        let pool = Arc::clone(&self.pool);
        pool.push(self);
    }
}

/// A handle to a spawned task's eventual output.
///
/// Resolves to `None` if the task was canceled before completing (the
/// pool shut down while it was still pending) or, on the reactor's
/// loop, panicked. `join` blocks the calling thread; the handle is also
/// a [`Future`] for use inside other tasks.
pub struct JoinHandle<T> {
    receiver: oneshot::Receiver<T>,
}

impl<T> JoinHandle<T> {
    pub(crate) fn new(receiver: oneshot::Receiver<T>) -> Self {
        JoinHandle { receiver }
    }

    /// Blocks until the task completes (or is canceled).
    pub fn join(self) -> Option<T> {
        crate::block_on(self.receiver).ok()
    }

    /// Whether the task has completed or been canceled — i.e.
    /// [`join`](Self::join) would return without blocking.
    pub fn is_finished(&self) -> bool {
        self.receiver.is_ready()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = Option<T>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        Pin::new(&mut self.receiver).poll(cx).map(|r| r.ok())
    }
}

/// A fixed-size pool of worker threads polling spawned tasks.
pub struct ThreadPool {
    inner: Arc<PoolInner>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl ThreadPool {
    /// Starts a pool with `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            tasks: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                thread::spawn(move || worker(inner))
            })
            .collect();
        ThreadPool { inner, workers: Mutex::new(workers) }
    }

    /// Spawns a future onto the pool, returning a handle to its output.
    ///
    /// After [`shutdown`](Self::shutdown) the future is dropped
    /// immediately and the handle resolves to `None`.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let (tx, rx) = oneshot::channel();
        let wrapped = async move {
            let _ = tx.send(future.await);
        };
        let task = Arc::new(Task {
            id: self.inner.next_id.fetch_add(1, Ordering::Relaxed),
            future: Mutex::new(Some(Box::pin(wrapped))),
            pool: Arc::clone(&self.inner),
        });
        if !self.inner.shutdown.load(Ordering::Acquire) {
            self.inner
                .tasks
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(task.id, Arc::clone(&task));
        }
        self.inner.push(task);
        JoinHandle::new(rx)
    }

    /// Graceful shutdown: lets queued tasks finish their current poll,
    /// joins the workers, then cancels (drops) any task still pending —
    /// their [`JoinHandle`]s resolve to `None`.
    pub fn shutdown(&self) {
        // Set the flag under the queue lock: a worker checks it under
        // that lock before it waits, so storing it unlocked could land
        // between the check and the wait and lose the wakeup, leaving
        // the join below waiting forever.
        {
            let _queue = self.inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.available.notify_all();
        let workers: Vec<_> =
            self.workers.lock().unwrap_or_else(|e| e.into_inner()).drain(..).collect();
        for worker in workers {
            let _ = worker.join();
        }
        // Cancel everything that never completed. Taking the future out
        // of the task breaks the task → future → waker → task cycle a
        // parked task otherwise forms through the channel it waits on.
        let stranded: Vec<Arc<Task>> = self
            .inner
            .tasks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain()
            .map(|(_, t)| t)
            .collect();
        self.inner.queue.lock().unwrap_or_else(|e| e.into_inner()).clear();
        for task in stranded {
            let future = task.future.lock().unwrap_or_else(|e| e.into_inner()).take();
            drop(future);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker(inner: Arc<PoolInner>) {
    loop {
        let task = {
            let mut queue = inner.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(task) = queue.pop_front() {
                    break task;
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = inner.available.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        // Another worker may be mid-poll on this task (a wake raced the
        // poll): re-enqueue and move on rather than blocking on its lock.
        let mut slot = match task.future.try_lock() {
            Ok(slot) => slot,
            Err(_) => {
                thread::yield_now();
                inner.push(Arc::clone(&task));
                continue;
            }
        };
        let Some(future) = slot.as_mut() else { continue };
        let waker = Waker::from(Arc::clone(&task));
        let mut cx = Context::from_waker(&waker);
        if future.as_mut().poll(&mut cx).is_ready() {
            *slot = None;
            drop(slot);
            inner.tasks.lock().unwrap_or_else(|e| e.into_inner()).remove(&task.id);
        }
    }
}
