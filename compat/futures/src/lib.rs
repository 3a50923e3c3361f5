//! Offline stand-in for the `futures` crate.
//!
//! The serving layer (`conseca-serve`) needs a small set of async
//! building blocks, and the build environment has no registry access, so
//! this crate provides them over `std` alone:
//!
//! - [`block_on`] — drive a future to completion on the current thread
//!   (thread-park waker, like `futures::executor::block_on`);
//! - [`executor::ThreadPool`] — a multi-threaded task executor for work
//!   that may block, whose [`spawn`](executor::ThreadPool::spawn)
//!   returns a [`JoinHandle`] (the shape of
//!   `SpawnExt::spawn_with_handle`) and which shuts down gracefully;
//! - [`channel::mpsc`] — an unbounded multi-producer channel with an
//!   async `recv` and a non-blocking `try_recv`;
//! - [`channel::oneshot`] — a single-value channel whose receiver is a
//!   future and which resolves to `Canceled` when the sender is dropped;
//! - [`reactor::Reactor`] — a global epoll-driven readiness reactor
//!   (edge-triggered registrations, manual "virtual" registrations for
//!   in-process transports, and deadline timers), so futures await I/O
//!   readiness instead of parking OS threads; its thread is also an
//!   event loop that runs the tasks [`Reactor::spawn`] hands it, on the
//!   thread that sees their readiness edges.
//!
//! Deviations from the real crate are deliberate and documented inline:
//! no `Stream` trait (the receivers expose inherent methods instead), no
//! `select!` (a task that waits on several sources polls each itself),
//! and `JoinHandle` resolves to `None` — rather than panicking — when its
//! task was dropped by a pool shutdown or panicked on the loop.

use std::future::Future;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::{self, Thread};

pub mod channel;
pub mod executor;
pub mod reactor;

pub use executor::{JoinHandle, ThreadPool};
pub use reactor::{Counters, Reactor, Registration};

/// Wakes a parked thread; the waker behind [`block_on`].
struct ThreadWaker(Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Runs a future to completion on the calling thread, parking between
/// polls. Spurious unparks are tolerated (the loop simply re-polls).
///
/// # Panics
///
/// When called on the reactor's loop thread: parking it would park every
/// loop task in the process, the one that would wake it included.
pub fn block_on<F: Future>(future: F) -> F::Output {
    assert!(
        !reactor::on_loop(),
        "block_on called on the reactor's loop thread, where nothing may block"
    );
    let waker = Waker::from(Arc::new(ThreadWaker(thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut future = std::pin::pin!(future);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(value) => return value,
            Poll::Pending => thread::park(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn block_on_ready_future() {
        assert_eq!(block_on(async { 40 + 2 }), 42);
    }

    #[test]
    fn block_on_crosses_threads() {
        let (tx, rx) = channel::oneshot::channel();
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            tx.send(7u32).unwrap();
        });
        assert_eq!(block_on(rx), Ok(7));
    }

    #[test]
    fn pool_runs_tasks_and_joins() {
        let pool = ThreadPool::new(2);
        let handles: Vec<_> = (0..8).map(|i| pool.spawn(async move { i * i })).collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(results, vec![0, 1, 4, 9, 16, 25, 36, 49]);
        pool.shutdown();
    }

    #[test]
    fn pool_tasks_communicate_over_channels() {
        let pool = ThreadPool::new(2);
        let (tx, mut rx) = channel::mpsc::unbounded();
        let consumer = pool.spawn(async move {
            let mut total = 0u64;
            while let Some(v) = rx.recv().await {
                total += v;
            }
            total
        });
        let producer = pool.spawn(async move {
            for v in 1..=10u64 {
                tx.send(v).unwrap();
            }
            // tx drops here, closing the channel.
        });
        assert_eq!(producer.join(), Some(()));
        assert_eq!(consumer.join(), Some(55));
        pool.shutdown();
    }

    #[test]
    fn shutdown_cancels_parked_tasks() {
        let pool = ThreadPool::new(1);
        // A task that waits on a channel nobody ever sends to: it parks
        // forever, and shutdown must not hang on it.
        let (_tx, rx) = channel::oneshot::channel::<u8>();
        let handle = pool.spawn(async move { rx.await.ok() });
        pool.shutdown();
        // The task never completed; its handle resolves to None (dropped)
        // or Some(None) (polled once, then canceled when the state drops).
        match handle.join() {
            None | Some(None) => {}
            Some(Some(v)) => panic!("value {v} appeared from nowhere"),
        }
    }

    #[test]
    fn shutdown_right_after_start_never_loses_the_wakeup() {
        // Shutting down while the workers are still on their way into
        // their first wait: a flag store racing a worker's check-then-
        // wait would lose the notify and hang the join.
        let (done, finished) = std::sync::mpsc::channel();
        thread::spawn(move || {
            for _ in 0..5_000 {
                ThreadPool::new(2).shutdown();
            }
            done.send(()).unwrap();
        });
        finished.recv_timeout(Duration::from_secs(60)).expect("a pool shutdown hung");
    }
}
