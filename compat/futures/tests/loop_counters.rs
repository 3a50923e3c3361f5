//! Pins the reactor loop's thread handoffs with its counters.
//!
//! One test function on purpose: the counters are process-wide, so a
//! second test running on another thread would move them.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread;
use std::time::Duration;

use futures::channel::oneshot;
use futures::{Counters, Reactor};

struct Noop;

impl Wake for Noop {
    fn wake(self: Arc<Self>) {}
}

/// Yields to the loop once: wakes itself, then finishes on the next poll.
struct YieldNow(bool);

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            return Poll::Ready(());
        }
        self.0 = true;
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

fn since(before: Counters) -> Counters {
    let now = Reactor::global().counters();
    Counters {
        remote_wakes: now.remote_wakes - before.remote_wakes,
        epoll_returns: now.epoll_returns - before.epoll_returns,
        interrupts: now.interrupts - before.interrupts,
        polls: now.polls - before.polls,
    }
}

#[test]
fn loop_handoffs_stay_within_their_counts() {
    let reactor = Reactor::global();
    // Let the loop park once before measuring anything.
    reactor.spawn(async {}).join().expect("a trivial task completes");

    // A timer re-polled off the loop interrupts the wait at most once,
    // when it is armed as the earliest deadline, not on every poll.
    let before = reactor.counters();
    let waker = Waker::from(Arc::new(Noop));
    let mut cx = Context::from_waker(&waker);
    let mut sleep = Box::pin(reactor.sleep(Duration::from_secs(3600)));
    for _ in 0..100 {
        assert!(sleep.as_mut().poll(&mut cx).is_pending());
    }
    drop(sleep);
    let armed = since(before);
    assert!(armed.interrupts <= 1, "re-polling an armed timer interrupted the loop: {armed:?}");

    // Timers armed on the loop never interrupt it: the loop recomputes
    // its timeout every turn. Only the spawn from this thread may
    // interrupt a parked wait.
    let before = reactor.counters();
    let sleeper = reactor.spawn(async {
        for _ in 0..20 {
            Reactor::global().sleep(Duration::from_millis(1)).await;
        }
    });
    sleeper.join().expect("the sleeper completes");
    let timers = since(before);
    assert!(timers.interrupts <= 1, "timers on the loop interrupted it: {timers:?}");
    assert_eq!(timers.remote_wakes, 0, "{timers:?}");

    // A task that wakes itself on the loop stays on the local queue.
    let before = reactor.counters();
    let yielder = reactor.spawn(async {
        for _ in 0..1000 {
            YieldNow(false).await;
        }
    });
    yielder.join().expect("the yielder completes");
    let local = since(before);
    assert_eq!(local.remote_wakes, 0, "{local:?}");
    assert!(local.interrupts <= 1, "{local:?}");

    // A wake from another thread is counted, and interrupts the parked
    // loop once.
    let (tx, rx) = oneshot::channel::<u8>();
    let waiter = reactor.spawn(rx);
    thread::sleep(Duration::from_millis(50));
    let before = reactor.counters();
    tx.send(7).unwrap();
    assert_eq!(waiter.join(), Some(Ok(7)));
    let remote = since(before);
    assert_eq!(remote.remote_wakes, 1, "{remote:?}");
    assert_eq!(remote.interrupts, 1, "{remote:?}");
}
