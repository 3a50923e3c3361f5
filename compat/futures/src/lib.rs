//! Offline stand-in for the `futures` crate.
//!
//! The serving layer (`conseca-serve`) needs a small set of async
//! building blocks, and the build environment has no registry access, so
//! this crate provides them over `std` alone:
//!
//! - [`block_on`] — drive a future to completion on the current thread
//!   (thread-park waker, like `futures::executor::block_on`);
//! - [`channel::mpsc`] — an unbounded multi-producer channel with an
//!   async `recv`;
//! - [`channel::oneshot`] — a single-value channel whose receiver is a
//!   future and which resolves to `Canceled` when the sender is dropped;
//! - [`reactor::Reactor`] — a global epoll-driven readiness reactor
//!   (edge-triggered registrations, manual "virtual" registrations for
//!   in-process transports, and deadline timers), so futures await I/O
//!   readiness instead of parking OS threads; its thread is also an
//!   event loop that runs the tasks [`Reactor::spawn`] hands it, on the
//!   thread that sees their readiness edges, and whose [`JoinHandle`]
//!   has the shape of `SpawnExt::spawn_with_handle`;
//! - [`spin_budget`] — how long a thread about to park polls first, the
//!   loop's and an in-process duplex reader's one budget (zero on a
//!   one-CPU host).
//!
//! Deviations from the real crate are deliberate and documented inline:
//! no `Stream` trait (the receivers expose inherent methods instead), no
//! `select!` (a task that waits on several sources polls each itself),
//! no thread-pool executor (work that blocks gets a `std::thread` of its
//! own), and `JoinHandle` resolves to `None` — rather than panicking —
//! when its task panicked on the loop.

use std::future::Future;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::{self, Thread};

pub mod channel;
pub mod reactor;

pub use reactor::{spin_budget, Counters, JoinHandle, Reactor, Registration};

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
}
