//! A readiness-driven I/O reactor and the event loop that runs on it:
//! the piece that lets futures await "this file descriptor has bytes"
//! instead of parking an OS thread in a blocking `read`.
//!
//! # Architecture
//!
//! One process-wide loop thread sits in `epoll_wait` over every
//! registered descriptor (edge-triggered, read + write interest) plus
//! an `eventfd` that other threads write to interrupt the wait.
//! Registering a descriptor yields a [`Registration`]: a token-mapped
//! readiness record holding one *ready bit* and one parked [`Waker`]
//! per direction. When the kernel reports an edge, the loop sets the
//! bit and wakes the parked task.
//!
//! The loop also runs tasks of its own, spawned with
//! [`Reactor::spawn`]. A loop task woken by an edge is polled on the
//! same thread, in the same turn, so the task that owns a socket reads
//! it, acts and writes without handing the work to another thread:
//!
//! - a wake on the loop thread pushes the task onto a thread-local run
//!   queue — no lock, no syscall;
//! - a wake from another thread pushes it onto an injector queue, and
//!   writes the `eventfd` only when the loop is in, or about to enter,
//!   `epoll_wait`;
//! - each turn takes the injector, polls every task ready at the start
//!   of the turn, then waits — with a zero timeout while any task is
//!   still ready;
//! - a turn that took a task from the injector does not park at once:
//!   the loop first polls for up to [`spin_budget`] — each poll a look
//!   at the injector, one zero-timeout `epoll_wait` and a yield of the
//!   CPU to any thread waiting for it — so the next
//!   wake from a busy peer thread (an in-process client's next request,
//!   say) lands in the injector with no `eventfd` write and no thread
//!   wake. A turn fed only by its own edges and wakes parks as before,
//!   so socket-only traffic never polls;
//! - each poll runs under `catch_unwind`: a task that panics is dropped
//!   and its [`JoinHandle`] resolves to `None`, and the loop goes on.
//!
//! The rule that keeps one thread enough: **nothing that blocks runs on
//! the loop.** A loop task does bounded work per poll and awaits the
//! rest; [`block_on`](crate::block_on) panics when called on the loop
//! thread, because parking it would park every task in the process.
//!
//! # The readiness protocol
//!
//! Edge-triggered notification loses events unless consumers follow one
//! rule: **attempt the non-blocking operation first, and only await
//! readiness after it returns `WouldBlock`.**
//!
//! ```text
//! loop {
//!     match stream.read(buf) {            // non-blocking attempt
//!         Ok(n) => consume(n),
//!         Err(WouldBlock) => registration.readable().await,
//!     }
//! }
//! ```
//!
//! [`Registration::readable`] *consumes* the ready bit: it resolves
//! immediately if an edge arrived since the last consumption (even one
//! that raced the `WouldBlock` — that is the lost-wakeup case the bit
//! exists for), and otherwise parks the task's waker for the next edge.
//! Wakeups may be spurious (a new edge can land between the failed
//! attempt and the await); the retry loop above absorbs them. Each
//! direction supports **one** waiting task at a time: a server
//! connection's one task may wait on both, and an async client's demux
//! task waits to read while its callers write.
//!
//! Two registration flavours share the protocol:
//!
//! - [`Reactor::register_fd`] — kernel-backed, for sockets and pipes
//!   (the descriptor must already be non-blocking);
//! - [`Reactor::register_virtual`] — no descriptor; a producer calls
//!   [`Registration::notify_readable`] by hand. This is how in-process
//!   duplex transports plug into the same machinery as TCP.
//!
//! # Timers
//!
//! [`Reactor::sleep`] / [`Reactor::sleep_until`] resolve at a deadline,
//! driven by the same `epoll_wait` (its timeout is the earliest armed
//! deadline). Dropping the future disarms the timer.
//!
//! # Counters
//!
//! [`Reactor::counters`] reads four relaxed totals — loop-task wakes
//! from other threads, `epoll_wait` returns, interrupts of the loop's
//! wait and turns that polled before parking — so tests can pin how
//! many thread handoffs a request costs.
//!
//! # The spin budget
//!
//! [`spin_budget`] is how long a thread about to park polls first: the
//! loop here, and a blocking in-process duplex reader in
//! `conseca-serve`. It is 30 µs, or zero on a host with one CPU, where
//! a thread that spins only holds off the thread it waits for. Both
//! pollers yield the CPU between polls, so two threads that the
//! scheduler put on one CPU of a larger host hand it back and forth
//! instead of each spinning out the budget. It is computed once, at
//! first use, and is not configurable.
//!
//! Linux-only by construction (`epoll`, `eventfd` via direct syscall
//! bindings — the build has no libc crate); the rest of the crate is
//! portable.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::future::Future;
use std::io;
use std::os::raw::{c_int, c_void};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::task::{Context, Poll, Wake, Waker};
use std::thread;
use std::time::{Duration, Instant};

use crate::channel::oneshot;

// ------------------------------------------------------------ epoll ABI

// The kernel ABI for `struct epoll_event` is packed on x86-64 (and only
// there); everywhere else it uses natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLLIN: u32 = 0x001;
const EPOLLPRI: u32 = 0x002;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: c_int = 1;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

/// Token the reactor's own wake `eventfd` is registered under.
const WAKE_TOKEN: u64 = u64::MAX;

// ------------------------------------------------------- readiness state

/// Per-registration readiness record: one ready bit and one parked
/// waker per direction.
struct Source {
    state: Mutex<SourceState>,
}

#[derive(Default)]
struct SourceState {
    read_ready: bool,
    write_ready: bool,
    read_waker: Option<Waker>,
    write_waker: Option<Waker>,
}

impl Source {
    fn new() -> Arc<Self> {
        Arc::new(Source { state: Mutex::new(SourceState::default()) })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SourceState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Applies a kernel event mask. Errors and hangups wake both
    /// directions: the reader observes EOF, the writer observes the
    /// failed write.
    fn set_from_events(&self, events: u32) {
        let readable = events & (EPOLLIN | EPOLLPRI | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0;
        let writable = events & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0;
        let (rw, ww) = {
            let mut s = self.lock();
            if readable {
                s.read_ready = true;
            }
            if writable {
                s.write_ready = true;
            }
            (
                if readable { s.read_waker.take() } else { None },
                if writable { s.write_waker.take() } else { None },
            )
        };
        if let Some(w) = rw {
            w.wake();
        }
        if let Some(w) = ww {
            w.wake();
        }
    }
}

// ------------------------------------------------------------ loop tasks

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

thread_local! {
    /// The loop's run queue: `Some` on the loop thread only, which is
    /// how a wake tells where it runs.
    static RUN_QUEUE: RefCell<Option<VecDeque<Arc<Task>>>> = const { RefCell::new(None) };
}

/// Whether the calling thread is the reactor's loop thread.
pub(crate) fn on_loop() -> bool {
    RUN_QUEUE.try_with(|queue| queue.borrow().is_some()).unwrap_or(false)
}

/// A task spawned on the loop; the task is its own waker.
struct Task {
    /// `None` once the task completed or panicked. Only the loop thread
    /// polls it; the lock only makes the task shareable with wakers.
    future: Mutex<Option<BoxFuture>>,
    /// Set from a wake until the loop takes the task off its queue, so
    /// a task is queued at most once at a time.
    queued: AtomicBool,
    shared: Arc<Shared>,
}

impl Task {
    fn schedule(self: &Arc<Self>) {
        if !self.queued.swap(true, Ordering::AcqRel) {
            self.shared.schedule(Arc::clone(self), true);
        }
    }

    /// Polls the task once, on the loop thread.
    fn run(self: Arc<Self>) {
        self.queued.store(false, Ordering::Release);
        let waker = Waker::from(Arc::clone(&self));
        let mut cx = Context::from_waker(&waker);
        let mut slot = self.future.lock().unwrap_or_else(|e| e.into_inner());
        let Some(future) = slot.as_mut() else { return };
        // A panic ends this task and nothing else: the unwind stops
        // here, and dropping the future drops the sender its
        // `JoinHandle` waits on.
        let done = !matches!(
            catch_unwind(AssertUnwindSafe(|| future.as_mut().poll(&mut cx))),
            Ok(Poll::Pending)
        );
        if done {
            let future = slot.take();
            drop(slot);
            let _ = catch_unwind(AssertUnwindSafe(move || drop(future)));
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

/// A handle to a loop task's eventual output.
///
/// Resolves to `None` if the task panicked. `join` blocks the calling
/// thread; the handle is also a [`Future`] for use inside other tasks.
pub struct JoinHandle<T> {
    receiver: oneshot::Receiver<T>,
}

impl<T> JoinHandle<T> {
    /// Blocks until the task completes (or panics).
    pub fn join(self) -> Option<T> {
        crate::block_on(self.receiver).ok()
    }

    /// Whether the task has completed or panicked — i.e.
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

/// How long a thread about to park polls first for work that a busy
/// peer thread is about to hand it: 30 µs, or zero when the process may
/// run on one CPU only, where the spin would hold off the very thread
/// it waits for. Computed once, at first use; see the module docs.
pub fn spin_budget() -> Duration {
    static BUDGET: OnceLock<Duration> = OnceLock::new();
    *BUDGET.get_or_init(|| match thread::available_parallelism() {
        Ok(cpus) if cpus.get() > 1 => Duration::from_micros(30),
        _ => Duration::ZERO,
    })
}

/// Point-in-time totals of the loop's thread handoffs (see
/// [`Reactor::counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Loop tasks woken from a thread other than the loop's.
    pub remote_wakes: u64,
    /// Returns from `epoll_wait`, zero-timeout polls included (those
    /// made while polling before parking among them).
    pub epoll_returns: u64,
    /// Interruptions of the loop's wait by another thread: writes to
    /// its wake `eventfd`.
    pub interrupts: u64,
    /// Turns that polled for up to [`spin_budget`] before parking,
    /// because they took a task from the injector.
    pub polls: u64,
}

struct Shared {
    epfd: c_int,
    wake_fd: c_int,
    /// Kernel-backed registrations by token, so the loop can route
    /// events. Virtual registrations never enter the map.
    sources: Mutex<HashMap<u64, Arc<Source>>>,
    /// Armed timers, ordered by deadline (the id breaks ties).
    timers: Mutex<BTreeMap<(Instant, u64), Waker>>,
    next_token: AtomicU64,
    /// Loop tasks scheduled from other threads, taken every turn.
    injector: Mutex<VecDeque<Arc<Task>>>,
    /// Set while the loop is in, or about to enter, a blocking
    /// `epoll_wait`. The first injection after it is set interrupts the
    /// wait.
    parked: AtomicBool,
    remote_wakes: AtomicU64,
    epoll_returns: AtomicU64,
    interrupts: AtomicU64,
    polls: AtomicU64,
}

impl Shared {
    fn sources(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<Source>>> {
        self.sources.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn timers(&self) -> std::sync::MutexGuard<'_, BTreeMap<(Instant, u64), Waker>> {
        self.timers.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn injector(&self) -> std::sync::MutexGuard<'_, VecDeque<Arc<Task>>> {
        self.injector.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Interrupts the loop's `epoll_wait` with a write to its `eventfd`.
    fn interrupt(&self) {
        let one: u64 = 1;
        unsafe {
            let _ = write(self.wake_fd, (&one as *const u64).cast(), 8);
        }
        self.interrupts.fetch_add(1, Ordering::Relaxed);
    }

    /// Queues a task for the loop: locally when called on the loop
    /// thread, otherwise through the injector. `woken` counts an
    /// injection as a cross-thread wake (a spawn is not one).
    fn schedule(&self, task: Arc<Task>, woken: bool) {
        let mut task = Some(task);
        let _ = RUN_QUEUE.try_with(|queue| {
            if let Some(queue) = queue.borrow_mut().as_mut() {
                queue.extend(task.take());
            }
        });
        let Some(task) = task else { return };
        if woken {
            self.remote_wakes.fetch_add(1, Ordering::Relaxed);
        }
        self.injector().push_back(task);
        // The loop sets `parked` before its last look at the injector,
        // so either it sees this task or this sees the flag.
        if self.parked.swap(false, Ordering::SeqCst) {
            self.interrupt();
        }
    }

    /// One `epoll_wait` into `events`, counted.
    fn wait(&self, events: &mut [EpollEvent], timeout_ms: c_int) -> c_int {
        // SAFETY: the kernel writes at most `events.len()` entries into
        // the exclusively borrowed buffer, and `epfd` stays open for as
        // long as the reactor (and so `self`) lives.
        let n = unsafe {
            epoll_wait(self.epfd, events.as_mut_ptr(), events.len() as c_int, timeout_ms)
        };
        self.epoll_returns.fetch_add(1, Ordering::Relaxed);
        n
    }

    /// Polls for up to [`spin_budget`], stopping early at the earliest
    /// armed timer, instead of parking at once. Each poll looks at the
    /// injector, makes one zero-timeout `epoll_wait`, then yields the
    /// CPU. `parked`
    /// stays clear throughout, so a wake from another thread lands in
    /// the injector without an `eventfd` write. The last wait's result
    /// once a poll finds work; `None` when the budget ran out and the
    /// loop should park.
    fn poll_before_park(&self, events: &mut [EpollEvent]) -> Option<c_int> {
        let budget = spin_budget();
        if budget.is_zero() {
            return None;
        }
        self.polls.fetch_add(1, Ordering::Relaxed);
        let mut until = Instant::now() + budget;
        if let Some((deadline, _)) = self.timers().keys().next() {
            until = until.min(*deadline);
        }
        loop {
            if !self.injector().is_empty() {
                return Some(0);
            }
            let n = self.wait(events, 0);
            if n != 0 {
                return Some(n);
            }
            if Instant::now() >= until {
                return None;
            }
            // Should the peer thread share this CPU, let it run now.
            thread::yield_now();
        }
    }

    /// The `epoll_wait` timeout for this turn: zero while a task is
    /// ready, else the earliest armed timer (or forever). `parked` is set
    /// before the last look at the injector, so an injection is either
    /// seen here or finds the flag and interrupts the wait.
    fn timeout(&self, ready: bool) -> c_int {
        if ready {
            return 0;
        }
        self.parked.store(true, Ordering::SeqCst);
        if !self.injector().is_empty() {
            self.parked.store(false, Ordering::Relaxed);
            return 0;
        }
        match self.timers().keys().next() {
            Some((deadline, _)) => {
                // Rounded up: a wait that ends just short of the deadline
                // would only spin back into a zero-timeout poll.
                let until = deadline.saturating_duration_since(Instant::now());
                until.as_micros().div_ceil(1000).min(i32::MAX as u128) as c_int
            }
            None => -1,
        }
    }
}

// ----------------------------------------------------------- the reactor

/// The readiness reactor and its event loop. One global instance drives
/// every registered descriptor and every loop task; see the module docs
/// for the protocol.
pub struct Reactor {
    shared: Arc<Shared>,
}

impl Reactor {
    /// The process-wide reactor, started on first use. One thread total,
    /// however many servers, clients, and connections share it.
    pub fn global() -> &'static Reactor {
        static GLOBAL: OnceLock<Reactor> = OnceLock::new();
        GLOBAL.get_or_init(|| Reactor::start().expect("the global reactor must start"))
    }

    fn start() -> io::Result<Reactor> {
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        let wake_fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if wake_fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let mut ev = EpollEvent { events: EPOLLIN | EPOLLET, data: WAKE_TOKEN };
        if unsafe { epoll_ctl(epfd, EPOLL_CTL_ADD, wake_fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        let shared = Arc::new(Shared {
            epfd,
            wake_fd,
            sources: Mutex::new(HashMap::new()),
            timers: Mutex::new(BTreeMap::new()),
            next_token: AtomicU64::new(0),
            injector: Mutex::new(VecDeque::new()),
            parked: AtomicBool::new(false),
            remote_wakes: AtomicU64::new(0),
            epoll_returns: AtomicU64::new(0),
            interrupts: AtomicU64::new(0),
            polls: AtomicU64::new(0),
        });
        let looped = Arc::clone(&shared);
        thread::Builder::new().name("futures-reactor".into()).spawn(move || event_loop(&looped))?;
        Ok(Reactor { shared })
    }

    /// Spawns a task on the loop thread, returning a handle to its
    /// output. The task is only ever polled there, so it must never
    /// block (see the module docs). A task that panics is dropped and
    /// its handle resolves to `None`.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let (tx, rx) = oneshot::channel();
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(async move {
                let _ = tx.send(future.await);
            }))),
            queued: AtomicBool::new(true),
            shared: Arc::clone(&self.shared),
        });
        self.shared.schedule(task, false);
        JoinHandle { receiver: rx }
    }

    /// The loop's handoff totals so far (relaxed reads; see
    /// [`Counters`]).
    pub fn counters(&self) -> Counters {
        Counters {
            remote_wakes: self.shared.remote_wakes.load(Ordering::Relaxed),
            epoll_returns: self.shared.epoll_returns.load(Ordering::Relaxed),
            interrupts: self.shared.interrupts.load(Ordering::Relaxed),
            polls: self.shared.polls.load(Ordering::Relaxed),
        }
    }

    /// Registers a descriptor (edge-triggered, read + write interest).
    /// The descriptor **must already be non-blocking**; consumers must
    /// follow the attempt-then-await protocol in the module docs.
    ///
    /// The registration does not own the descriptor, so it never touches
    /// it again: readiness routing stops when the last [`Registration`]
    /// clone drops, and the kernel drops its side of the registration
    /// when the last descriptor for the open file closes. (Deregistering
    /// by descriptor number at drop would race the number's reuse.)
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl` failure (bad descriptor, exhausted
    /// watch limit).
    pub fn register_fd(&self, fd: i32) -> io::Result<Registration> {
        let token = self.shared.next_token.fetch_add(1, Ordering::Relaxed);
        let source = Source::new();
        self.shared.sources().insert(token, Arc::clone(&source));
        let mut ev = EpollEvent { events: EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET, data: token };
        if unsafe { epoll_ctl(self.shared.epfd, EPOLL_CTL_ADD, fd, &mut ev) } < 0 {
            let err = io::Error::last_os_error();
            self.shared.sources().remove(&token);
            return Err(err);
        }
        Ok(Registration {
            token,
            fd,
            source,
            shared: Arc::clone(&self.shared),
            handles: Arc::new(AtomicUsize::new(1)),
        })
    }

    /// A registration with no descriptor behind it: readiness is
    /// asserted by hand via [`Registration::notify_readable`] /
    /// [`notify_writable`](Registration::notify_writable). In-process
    /// transports use this to speak the exact protocol sockets do.
    pub fn register_virtual(&self) -> Registration {
        Registration {
            token: self.shared.next_token.fetch_add(1, Ordering::Relaxed),
            fd: -1,
            source: Source::new(),
            shared: Arc::clone(&self.shared),
            handles: Arc::new(AtomicUsize::new(1)),
        }
    }

    /// Resolves once `deadline` passes. Dropping the future disarms it.
    pub fn sleep_until(&self, deadline: Instant) -> Sleep {
        Sleep { shared: Arc::clone(&self.shared), deadline, key: None }
    }

    /// Resolves after `duration`. Dropping the future disarms it.
    pub fn sleep(&self, duration: Duration) -> Sleep {
        self.sleep_until(Instant::now() + duration)
    }
}

fn event_loop(shared: &Shared) {
    RUN_QUEUE.with(|queue| *queue.borrow_mut() = Some(VecDeque::new()));
    let pop = || RUN_QUEUE.with(|queue| queue.borrow_mut().as_mut().and_then(VecDeque::pop_front));
    let mut events = [EpollEvent { events: 0, data: 0 }; 64];
    // Whether the wake `eventfd` fired and still needs its counter read.
    let mut woken = false;
    // Set by a turn that took a task from the injector; the loop polls
    // before it next parks.
    let mut poll_due = false;
    loop {
        // Take what other threads scheduled, then poll every task ready
        // at the start of the turn; one woken during the turn runs next
        // turn, after the loop has looked for I/O again.
        let ready = RUN_QUEUE.with(|queue| {
            let mut queue = queue.borrow_mut();
            let queue = queue.as_mut().expect("the loop thread owns a run queue");
            let mut injector = shared.injector();
            poll_due |= !injector.is_empty();
            queue.extend(injector.drain(..));
            queue.len()
        });
        for _ in 0..ready {
            match pop() {
                Some(task) => task.run(),
                None => break,
            }
        }
        // Reset the wake counter only after the woken tasks ran: every
        // write is a fresh edge, so reading it late loses no wake and
        // keeps the syscall off the woken task's path.
        if std::mem::take(&mut woken) {
            let mut buf = 0u64;
            unsafe {
                let _ = read(shared.wake_fd, (&mut buf as *mut u64).cast(), 8);
            }
        }
        let still_ready =
            RUN_QUEUE.with(|queue| queue.borrow().as_ref().is_some_and(|q| !q.is_empty()));
        // A peer thread that just handed the loop work is likely to hand
        // it more within the budget: poll for it before parking. A turn
        // that leaves a task ready does not park, so the poll waits for
        // the first turn that would.
        let polled = if !still_ready && std::mem::take(&mut poll_due) {
            shared.poll_before_park(&mut events)
        } else {
            None
        };
        let n = polled.unwrap_or_else(|| {
            let n = shared.wait(&mut events, shared.timeout(still_ready));
            shared.parked.store(false, Ordering::Relaxed);
            n
        });
        if n < 0 {
            if io::Error::last_os_error().kind() == io::ErrorKind::Interrupted {
                continue;
            }
            // The epoll descriptor itself failed; readiness can no longer
            // be driven. Parked tasks stay parked (their owners hold
            // close handles), and there is nobody to report to.
            return;
        }
        for ev in &events[..n as usize] {
            let (mask, token) = (ev.events, ev.data);
            if token == WAKE_TOKEN {
                woken = true;
                continue;
            }
            let source = shared.sources().get(&token).cloned();
            if let Some(source) = source {
                source.set_from_events(mask);
            }
        }
        // Fire every due timer.
        let now = Instant::now();
        let due: Vec<Waker> = {
            let mut timers = shared.timers();
            if timers.keys().next().is_some_and(|(deadline, _)| *deadline <= now) {
                let later = timers.split_off(&(now, u64::MAX));
                std::mem::replace(&mut *timers, later).into_values().collect()
            } else {
                Vec::new()
            }
        };
        for waker in due {
            waker.wake();
        }
    }
}

// --------------------------------------------------------- registrations

/// A registered readiness source. Clones share the same readiness
/// record (one clone per handle that reads or writes the stream).
pub struct Registration {
    token: u64,
    fd: c_int,
    source: Arc<Source>,
    shared: Arc<Shared>,
    /// Live clones, for deregistering the token on last drop.
    handles: Arc<AtomicUsize>,
}

impl Registration {
    /// Resolves when the source has signalled readable since the last
    /// time this resolved (consuming the signal). May resolve
    /// spuriously; retry the non-blocking operation.
    pub fn readable(&self) -> Readiness<'_> {
        Readiness { registration: self, write: false }
    }

    /// The write-direction twin of [`readable`](Self::readable).
    pub fn writable(&self) -> Readiness<'_> {
        Readiness { registration: self, write: true }
    }

    /// Asserts read readiness by hand, waking a parked reader. Producers
    /// feeding virtual registrations call this after publishing data (or
    /// closing); it is also the out-of-band nudge that unparks a task
    /// waiting on a descriptor the kernel will not signal again (e.g. an
    /// accept loop being told to shut down).
    pub fn notify_readable(&self) {
        let waker = {
            let mut s = self.source.lock();
            s.read_ready = true;
            s.read_waker.take()
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// Asserts write readiness by hand, waking a parked writer.
    pub fn notify_writable(&self) {
        let waker = {
            let mut s = self.source.lock();
            s.write_ready = true;
            s.write_waker.take()
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// Wakes both directions (shutdown path).
    pub fn notify_all(&self) {
        self.notify_readable();
        self.notify_writable();
    }
}

impl Clone for Registration {
    fn clone(&self) -> Self {
        self.handles.fetch_add(1, Ordering::Relaxed);
        Registration {
            token: self.token,
            fd: self.fd,
            source: Arc::clone(&self.source),
            shared: Arc::clone(&self.shared),
            handles: Arc::clone(&self.handles),
        }
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        if self.handles.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        // Only the routing entry goes. No `EPOLL_CTL_DEL`: the
        // registration does not own the descriptor, so by now its number
        // may already be closed and reused by a newer registration, and
        // a DEL would silently remove *that* one. The kernel drops the
        // epoll entry itself when the file's last descriptor closes, and
        // tokens are never reused, so a late event for this one is
        // routed nowhere.
        if self.fd >= 0 {
            self.shared.sources().remove(&self.token);
        }
    }
}

impl std::fmt::Debug for Registration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registration").field("token", &self.token).field("fd", &self.fd).finish()
    }
}

/// Future returned by [`Registration::readable`] / [`writable`](Registration::writable).
pub struct Readiness<'r> {
    registration: &'r Registration,
    write: bool,
}

impl Future for Readiness<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut guard = self.registration.source.lock();
        let s = &mut *guard;
        let (ready, waker) = if self.write {
            (&mut s.write_ready, &mut s.write_waker)
        } else {
            (&mut s.read_ready, &mut s.read_waker)
        };
        if *ready {
            *ready = false;
            Poll::Ready(())
        } else {
            *waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

// ----------------------------------------------------------------- timers

/// Future returned by [`Reactor::sleep`] / [`Reactor::sleep_until`].
pub struct Sleep {
    shared: Arc<Shared>,
    deadline: Instant,
    /// The armed timer entry, once polled.
    key: Option<(Instant, u64)>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if Instant::now() >= self.deadline {
            if let Some(key) = self.key.take() {
                self.shared.timers().remove(&key);
            }
            return Poll::Ready(());
        }
        if let Some(key) = self.key {
            // Already armed: the deadline stands, only the waker may
            // have changed.
            if let Some(waker) = self.shared.timers().get_mut(&key) {
                if !waker.will_wake(cx.waker()) {
                    *waker = cx.waker().clone();
                }
            }
            return Poll::Pending;
        }
        let key = (self.deadline, self.shared.next_token.fetch_add(1, Ordering::Relaxed));
        self.key = Some(key);
        let earliest = {
            let mut timers = self.shared.timers();
            timers.insert(key, cx.waker().clone());
            timers.keys().next() == Some(&key)
        };
        // The loop recomputes its timeout every turn, so only a deadline
        // armed elsewhere that moves a wait already entered earlier must
        // interrupt it.
        if earliest && !on_loop() && self.shared.parked.load(Ordering::SeqCst) {
            self.shared.interrupt();
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.shared.timers().remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_on;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::panic::catch_unwind;

    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    /// Joins `handle` from a helper thread, failing the test instead of
    /// hanging it if the task never resolves.
    fn join_within<T: Send + 'static>(handle: JoinHandle<T>, limit: Duration) -> Option<T> {
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(handle.join());
        });
        rx.recv_timeout(limit).expect("the loop task never resolved: the loop is stuck")
    }

    #[test]
    fn a_panicking_loop_task_resolves_to_none_and_the_loop_keeps_serving() {
        let crashed = Reactor::global().spawn(async {
            panic!("a loop task fails");
        });
        assert_eq!(join_within(crashed, Duration::from_secs(10)), None::<()>);

        // A second task on the same loop still parks on a socket and
        // completes when its bytes arrive.
        let (mut a, mut b) = socket_pair();
        b.set_nonblocking(true).unwrap();
        let reg = Reactor::global().register_fd(b.as_raw_fd()).unwrap();
        let reader = Reactor::global().spawn(async move {
            let mut buf = [0u8; 5];
            let mut got = 0;
            while got < buf.len() {
                match b.read(&mut buf[got..]) {
                    Ok(0) => break,
                    Ok(n) => got += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => reg.readable().await,
                    Err(e) => panic!("{e}"),
                }
            }
            buf
        });
        thread::sleep(Duration::from_millis(20));
        a.write_all(b"alive").unwrap();
        assert_eq!(join_within(reader, Duration::from_secs(10)), Some(*b"alive"));
    }

    #[test]
    fn block_on_inside_a_loop_task_panics_instead_of_hanging() {
        // Were `block_on` to park the loop thread, this pending future
        // would never be polled again and every loop task would hang.
        let probe = Reactor::global()
            .spawn(async { catch_unwind(|| block_on(std::future::pending::<()>())).is_err() });
        assert_eq!(join_within(probe, Duration::from_secs(10)), Some(true));
        // A task that does not catch the panic is dropped like any other
        // panicking task.
        let uncaught = Reactor::global().spawn(async { block_on(async { 1 }) });
        assert_eq!(join_within(uncaught, Duration::from_secs(10)), None);
    }

    #[test]
    fn loop_tasks_wake_each_other_and_are_woken_from_other_threads() {
        let (tx, rx) = crate::channel::oneshot::channel::<u32>();
        let (done_tx, done_rx) = crate::channel::oneshot::channel::<u32>();
        // One loop task waits on another thread; a second waits on the
        // first, so its wake happens on the loop.
        let waiter = Reactor::global().spawn(async move {
            let v = rx.await.unwrap();
            done_tx.send(v + 1).unwrap();
        });
        let chained = Reactor::global().spawn(async move { done_rx.await.unwrap() * 2 });
        thread::sleep(Duration::from_millis(10));
        tx.send(20).unwrap();
        assert_eq!(join_within(chained, Duration::from_secs(10)), Some(42));
        assert_eq!(join_within(waiter, Duration::from_secs(10)), Some(()));
    }

    #[test]
    fn readable_resolves_when_bytes_arrive() {
        let (mut a, mut b) = socket_pair();
        b.set_nonblocking(true).unwrap();
        let reg = Reactor::global().register_fd(b.as_raw_fd()).unwrap();
        let writer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            a.write_all(b"hi").unwrap();
            a
        });
        let mut buf = [0u8; 2];
        block_on(async {
            loop {
                match b.read(&mut buf) {
                    Ok(2) => break,
                    Ok(n) => panic!("short read {n}"),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => reg.readable().await,
                    Err(e) => panic!("{e}"),
                }
            }
        });
        assert_eq!(&buf, b"hi");
        drop(writer.join().unwrap());
    }

    #[test]
    fn readable_sees_an_edge_that_raced_the_await() {
        let (mut a, mut b) = socket_pair();
        b.set_nonblocking(true).unwrap();
        let reg = Reactor::global().register_fd(b.as_raw_fd()).unwrap();
        // The edge lands *before* anyone awaits: the ready bit must hold
        // it so the await cannot deadlock.
        a.write_all(b"x").unwrap();
        thread::sleep(Duration::from_millis(50));
        block_on(reg.readable());
        let mut buf = [0u8; 1];
        assert_eq!(b.read(&mut buf).unwrap(), 1);
    }

    #[test]
    fn peer_close_wakes_the_reader_with_eof() {
        let (a, mut b) = socket_pair();
        b.set_nonblocking(true).unwrap();
        let reg = Reactor::global().register_fd(b.as_raw_fd()).unwrap();
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            drop(a);
        });
        let n = block_on(async {
            let mut buf = [0u8; 1];
            loop {
                match b.read(&mut buf) {
                    Ok(n) => break n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => reg.readable().await,
                    Err(e) => panic!("{e}"),
                }
            }
        });
        assert_eq!(n, 0, "EOF must surface as a zero-byte read");
    }

    #[test]
    fn writable_resolves_when_the_peer_drains() {
        let (mut a, mut b) = socket_pair();
        a.set_nonblocking(true).unwrap();
        let reg = Reactor::global().register_fd(a.as_raw_fd()).unwrap();
        // Fill the send buffer until the kernel pushes back.
        let chunk = [0u8; 64 * 1024];
        let mut written = 0u64;
        loop {
            match a.write(&chunk) {
                Ok(n) => written += n as u64,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("{e}"),
            }
        }
        let drainer = thread::spawn(move || {
            let mut sink = vec![0u8; 64 * 1024];
            let mut drained = 0u64;
            while drained < written {
                drained += b.read(&mut sink).unwrap() as u64;
            }
            b
        });
        block_on(async {
            loop {
                match a.write(&chunk[..1]) {
                    Ok(_) => break,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => reg.writable().await,
                    Err(e) => panic!("{e}"),
                }
            }
        });
        drop(drainer.join().unwrap());
    }

    #[test]
    fn virtual_registrations_deliver_manual_notifies() {
        let reg = Reactor::global().register_virtual();
        let nudger = reg.clone();
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            nudger.notify_readable();
        });
        block_on(reg.readable());
        // The signal was consumed: a second await parks until notified
        // again.
        let nudger = reg.clone();
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            nudger.notify_readable();
        });
        block_on(reg.readable());
    }

    #[test]
    fn sleep_fires_at_the_deadline_and_not_much_later() {
        let start = Instant::now();
        block_on(Reactor::global().sleep(Duration::from_millis(30)));
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(30), "woke early: {elapsed:?}");
        assert!(elapsed < Duration::from_secs(5), "woke far too late: {elapsed:?}");
    }

    #[test]
    fn sleeps_interleave_with_io_on_the_same_reactor() {
        // A timer armed while a reader is parked: both must fire.
        let (mut a, mut b) = socket_pair();
        b.set_nonblocking(true).unwrap();
        let reg = Reactor::global().register_fd(b.as_raw_fd()).unwrap();
        let writer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(40));
            a.write_all(b"z").unwrap();
            a
        });
        block_on(Reactor::global().sleep(Duration::from_millis(5)));
        let mut buf = [0u8; 1];
        block_on(async {
            loop {
                match b.read(&mut buf) {
                    Ok(1) => break,
                    Ok(n) => panic!("read {n}"),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => reg.readable().await,
                    Err(e) => panic!("{e}"),
                }
            }
        });
        drop(writer.join().unwrap());
    }
}
