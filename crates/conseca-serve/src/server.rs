//! The policy-decision server: an event-driven task layer over
//! [`Engine`], multiplexing every connection onto a small worker pool.
//!
//! # Architecture
//!
//! ```text
//!   epoll reactor (1 thread, process-wide)
//!        │ readiness edges
//!        ▼
//!   accept task ──────────► per-connection READ task
//!   (non-blocking listener,     │ buffered frame reads → decode;
//!    woken by the reactor,      │ ANSWERS CHECKS ITSELF (each plus the
//!    shutdown = one notify)     │ same-key checks buffered behind it, as
//!                               │ one group), and handshake, envelope,
//!                               │ framing and subscription traffic
//!                               │
//!                               │ mutations, admin requests, and checks
//!                               ▼ queued behind an unanswered one
//!                      mpsc job queue  ◄─── all connections share it
//!                               │
//!                               ▼
//!                     dispatcher task (futures::ThreadPool)
//!                        takes one job at a time and answers it
//!                        through its oneshot: a mutation or admin
//!                        request runs, a queued check is a group of one
//!                               │
//!                               ▼
//!                      per-connection WRITE task
//!                        two lanes, biased select: the ordered lane
//!                        (responses in request order) and the
//!                        out-of-band push lane (invalidation frames,
//!                        which must never queue behind a response
//!                        that is itself waiting on a push ack); all
//!                        that is already answerable goes in one write
//! ```
//!
//! A connection is a *state machine driven by two cooperative tasks*,
//! not a pair of OS threads: the read task awaits frame bytes, the
//! write task awaits things to send, and both park on the reactor
//! between edges. Thread count is O(worker pool), not O(connections) —
//! a thousand idle connections cost two parked tasks each and zero
//! threads.
//!
//! Checks — the per-action hot path — skip the dispatcher whenever the
//! connection has nothing queued there: the read task evaluates them on
//! the spot, with no queue hop, no oneshot and no extra task wake, and a
//! mutation wedged on the dispatcher cannot stall them. A connection
//! counts its unanswered dispatcher jobs; while any are out, its checks
//! queue behind them, so effects keep arrival order. Only the read task
//! coalesces: it answers a check together with the same-key checks
//! buffered behind it, as one group with one store lookup and one
//! tenant-stats resolution (visible in
//! [`ServeMetrics::coalesced_checks`]). The dispatcher answers a queued
//! check through the same function, as a group of one. The engine
//! itself is untouched — every verdict is produced by the same session
//! check the in-process path uses ([`Resolved::check`](conseca_engine::Resolved::check)),
//! which is what keeps served decisions byte-identical.
//!
//! # Pipelining (wire v7)
//!
//! A client may wrap requests in the v7 correlation envelope
//! ([`crate::wire::wrap_tagged`]); the read task splits the id off
//! before decoding and the write task wraps the answer in the same id.
//! Enveloped and bare requests share one connection freely — responses
//! are produced and written in arrival order either way, so bare
//! clients lose nothing and enveloped clients get out-of-order-safe
//! correlation for dozens of in-flight requests per socket.
//!
//! # Key slots (wire v9)
//!
//! A client binds a policy key to a connection-local slot once
//! ([`Request::BindKey`]) and then names the key by slot
//! ([`Request::CheckKeyed`]), so a check carries no context. The read
//! task owns the slot table: it answers a bind on the spot, fingerprinting
//! the bind's task and context once, and resolves a keyed check to its
//! (tenant, key) as it decodes the frame — a later rebind never reaches
//! a check already read. Full-key checks get their key at decode too, so
//! past decoding a check is a key and its calls, whatever frame carried
//! it.
//!
//! # One record per connection
//!
//! Everything a connection owns lives in one record, `Conn`: its
//! trajectory sessions (one [`SessionState`] per policy key), its count
//! of unanswered dispatcher jobs, its push lane and close hook, and its
//! subscription. Checks advance the sessions, so a policy's temporal
//! constraints bind across the connection's whole conversation; two
//! connections under one policy spend their own budgets, which is why
//! checks coalesce by *(connection, key)*. The record dies with the
//! connection, so a new one always starts empty. A re-Subscribe changes
//! only the watched tenant: the push `seq` and the acks owed carry over.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

use conseca_core::TrustedContext;
use conseca_engine::{
    Billing, Engine, EngineKey, Invalidation, JournalError, SessionState, SnapshotError,
};
use conseca_shell::ApiCall;
use futures::channel::mpsc::{self, TryRecvError};
use futures::channel::oneshot;
use futures::reactor::{Reactor, Registration};
use futures::{select2, Either, JoinHandle, ThreadPool};

use crate::client::{Client, ClientError};
use crate::daemon::{DaemonConfig, LifecycleDaemon};
use crate::transport::{duplex, DuplexStream, NbReader, NbWriter, Stream};
use crate::wire::{
    code, unwrap_tagged, wrap_tagged, Frame, FrameReadError, Request, Response, WireError,
    WireErrorCode, MAX_KEY_SLOTS, PROTOCOL_VERSION, TAG_TAGGED,
};

/// Most bytes the write task gathers into one write.
const WRITE_BATCH: usize = 64 * 1024;

/// Most checks a connection coalesces into one group.
const MAX_BATCH: usize = 256;

/// Server limits. The worker pool is not configured here: it runs one
/// thread per detected core, and never fewer than two (see
/// [`ServeMetrics::workers`]).
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Largest frame (tag + payload) this server accepts *and emits*.
    /// Oversized incoming frames are answered with
    /// [`code::FRAME_TOO_LARGE`] and the connection closes; a response
    /// that would exceed the cap at encode time (a large `SnapshotOk`,
    /// say) is replaced by a [`code::FRAME_TOO_LARGE`] error on a
    /// connection that stays open. Raise it — together with the
    /// client's `with_max_frame_len` — as the sanctioned path for
    /// oversized-but-legitimate payloads such as policy snapshots.
    pub max_frame_len: u32,
    /// How long a push fan-out waits for subscribers'
    /// [`Request::PushAck`]s before force-closing the stragglers. The
    /// deadline is shared by **all** subscribers of one event — N slow
    /// subscribers stall a mutating request by at most this long in
    /// total, not N times it. Generous by default: a healthy subscriber
    /// acks in microseconds; only a wedged client reader hits this, and
    /// a wedged cache must be disconnected (fail-closed) rather than
    /// left serving stale decisions.
    pub push_ack_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_frame_len: crate::wire::DEFAULT_MAX_FRAME_LEN,
            push_ack_timeout: Duration::from_secs(5),
        }
    }
}

/// Worker threads in the executor driving the dispatcher and the
/// connection tasks: the detected core count, floored at two, because
/// the dispatcher may *block* a worker inside a push-ack wait and the
/// subscriber's connection tasks need a worker left to produce that
/// very ack.
fn detected_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).max(2)
}

/// Point-in-time serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Engine requests processed (Hello, key binds and framing errors
    /// excluded), whether a connection answered them itself or the
    /// dispatcher did.
    pub requests: u64,
    /// Evaluation rounds run: each dispatcher job (the dispatcher takes
    /// one at a time) and each check group a connection answered itself.
    pub batches: u64,
    /// Calls that shared a store lookup with another request because a
    /// connection coalesced the checks it had buffered into one group.
    /// The dispatcher never coalesces: a check queued there is a group
    /// of one.
    pub coalesced_checks: u64,
    /// Worker threads the server is running (the detected core count,
    /// floored at two) — not a counter, surfaced here and in the wire
    /// `StatsOk` so operators can see the pool size a measurement ran
    /// against.
    pub workers: u64,
    /// Key slots bound on the connections open now (wire v9) — a gauge,
    /// at most [`MAX_KEY_SLOTS`] per connection.
    pub key_slots: u64,
}

#[derive(Default)]
struct Metrics {
    requests: AtomicU64,
    batches: AtomicU64,
    coalesced_checks: AtomicU64,
    key_slots: AtomicU64,
}

/// A request handed to the dispatcher: the work, the connection that
/// sent it, and the slot its answer goes into.
struct Job {
    work: Work,
    conn: Arc<Conn>,
    reply: oneshot::Sender<Response>,
}

/// What a decoded request asks for: checks, which a connection may
/// answer itself, or anything else.
// Unboxed: a `Work` moves once, from the decoder to whoever answers it,
// and boxing would cost every non-check request an allocation.
#[allow(clippy::large_enum_variant)]
enum Work {
    Check(CheckRequest),
    Other(Request),
}

/// A `Check`, `CheckBatch` or `CheckKeyed`, resolved to its policy key
/// when it was read, and its calls.
struct CheckRequest {
    tenant: Arc<str>,
    key: EngineKey,
    calls: Vec<ApiCall>,
    /// A single `Check`, answered with `Verdict` (not `VerdictBatch`).
    single: bool,
}

impl CheckRequest {
    /// A full-key check: the key is derived here, once.
    fn full(tenant: String, task: &str, context: &TrustedContext, calls: Vec<ApiCall>) -> Self {
        let key = EngineKey::new(&tenant, task, context);
        CheckRequest { tenant: tenant.into(), key, calls, single: false }
    }
}

/// A connection's key slots (wire v9): the tenant and policy key each
/// `BindKey` bound, by slot. A slot only names a key — the connection's
/// trajectory sessions stay keyed by the key itself. Only the
/// connection's read task touches the table, and it resolves a keyed
/// check when it reads it, so a later rebind never changes a check
/// already queued.
#[derive(Default)]
struct KeySlots {
    bound: Vec<Option<(Arc<str>, EngineKey)>>,
}

impl KeySlots {
    /// Binds `slot`, deriving the key from the bind's parts. `Ok(true)`
    /// when the slot was empty before.
    fn bind(
        &mut self,
        slot: u32,
        tenant: String,
        task: &str,
        context: &TrustedContext,
    ) -> Result<bool, Refusal> {
        if slot >= MAX_KEY_SLOTS {
            return Err(bad_slot(slot, "is out of range"));
        }
        let slot = slot as usize;
        if self.bound.len() <= slot {
            self.bound.resize(slot + 1, None);
        }
        let key = EngineKey::new(&tenant, task, context);
        Ok(self.bound[slot].replace((tenant.into(), key)).is_none())
    }

    /// A `CheckKeyed`'s calls under the key its slot names now.
    fn resolve(&self, slot: u32, calls: Vec<ApiCall>) -> Result<CheckRequest, Refusal> {
        match self.bound.get(slot as usize) {
            Some(Some((tenant, key))) => {
                Ok(CheckRequest { tenant: Arc::clone(tenant), key: *key, calls, single: false })
            }
            _ if slot >= MAX_KEY_SLOTS => Err(bad_slot(slot, "is out of range")),
            _ => Err(bad_slot(slot, "has no key bound on this connection")),
        }
    }

    fn len(&self) -> usize {
        self.bound.iter().filter(|slot| slot.is_some()).count()
    }
}

/// A request answered with a typed error instead of being served.
struct Refusal {
    code: u16,
    message: String,
}

impl Refusal {
    fn response(self) -> Response {
        Response::Error { code: self.code, message: self.message }
    }
}

impl From<WireError> for Refusal {
    fn from(e: WireError) -> Self {
        Refusal { code: e.error_code(), message: e.to_string() }
    }
}

fn bad_slot(slot: u32, why: &str) -> Refusal {
    Refusal {
        code: code::BAD_SLOT,
        message: format!("key slot {slot} {why} (slots are 0..{MAX_KEY_SLOTS})"),
    }
}

/// One connection's state, in one record shared by its read and write
/// tasks, its dispatcher jobs and push fan-out. It dies with the last
/// of them.
struct Conn {
    /// Trajectory sessions by policy key. Checks against a
    /// trajectory-carrying policy advance the same [`SessionState`] the
    /// engine's in-process callers thread through `Resolved::check`.
    sessions: Mutex<HashMap<EngineKey, SessionState>>,
    /// Jobs handed to the dispatcher and not yet answered. While any are
    /// out, the connection's checks queue behind them too, so effects
    /// keep arrival order.
    in_flight: AtomicUsize,
    /// Out-of-band lane into the write task: pre-encoded push frames
    /// travel here, bypassing the ordered response lane (a push must
    /// never queue behind a response that is itself blocked on this
    /// push's ack). The write task holds the record, so the lane stays
    /// open for as long as that task runs.
    push_tx: mpsc::UnboundedSender<Frame>,
    /// Closes the transport under both tasks.
    close: Box<dyn Fn() + Send + Sync>,
    watch: Mutex<Watch>,
    /// Signalled on every ack and on close.
    ack_cv: Condvar,
}

/// A connection's push subscription, fed by its read task and by
/// fan-out.
#[derive(Default)]
struct Watch {
    /// The tenant whose invalidations are pushed here, once subscribed.
    tenant: Option<String>,
    /// The last push sequence number handed out. It belongs to the
    /// connection, so it keeps counting across re-Subscribes.
    seq: u64,
    /// Highest sequence the client has acknowledged.
    acked: u64,
    /// Set when the read task exits or fan-out force-closes the
    /// connection: no more pushes, and an ack wait fails at once.
    closed: bool,
}

impl Conn {
    fn watch(&self) -> MutexGuard<'_, Watch> {
        self.watch.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn record_ack(&self, seq: u64) {
        let mut watch = self.watch();
        watch.acked = watch.acked.max(seq);
        self.ack_cv.notify_all();
    }

    /// Marks the connection gone and wakes any ack waiter (which then
    /// fails fast — a closed connection can never ack).
    fn mark_closed(&self) {
        self.watch().closed = true;
        self.ack_cv.notify_all();
    }

    /// Fail-closed end of a subscriber that cannot confirm an
    /// invalidation: no more pushes, and its transport closes, so its
    /// client sees EOF and flushes its local cache.
    fn force_close(&self) {
        self.mark_closed();
        (self.close)();
    }

    /// Blocks until the client has acknowledged push `seq` (or
    /// `deadline` passes / the connection closes — `false`, the
    /// subscriber must be disconnected). The deadline is
    /// caller-supplied so one fan-out can hold every subscriber to the
    /// same wall-clock cutoff.
    fn wait_acked_until(&self, seq: u64, deadline: Instant) -> bool {
        let mut watch = self.watch();
        while watch.acked < seq {
            if watch.closed {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) =
                self.ack_cv.wait_timeout(watch, deadline - now).unwrap_or_else(|e| e.into_inner());
            watch = guard;
        }
        true
    }
}

/// What the write task sends next on the ordered lane, in request
/// order. `id` is the v7 correlation id when the request arrived
/// enveloped (`None` for bare requests — the answer goes out bare too).
enum Outgoing {
    /// An answer the read task produced itself (checks, handshake,
    /// framing and envelope errors, subscriptions).
    Ready { id: Option<u64>, response: Response },
    /// An answer the dispatcher will produce.
    Pending { id: Option<u64>, reply: oneshot::Receiver<Response> },
    /// Close the connection after everything queued so far is written.
    Close,
}

/// A request split off its frame: the correlation id and the work, or
/// why it is refused (with the id to answer under, if any).
type Inbound = Result<(Option<u64>, Work), (Option<u64>, Refusal)>;

/// Splits the v7 envelope off a frame and decodes the request inside; a
/// keyed check resolves its slot in `slots` here. Before the handshake
/// there are no `slots`, and a keyed check stays a plain request for the
/// handshake rule to refuse.
fn decode_inbound(frame: Frame, slots: Option<&KeySlots>) -> Inbound {
    // The envelope goes first, so inner failures are answered inside
    // the sender's envelope and a pipelining client can attribute them.
    let (id, frame) = if frame.tag == TAG_TAGGED {
        match unwrap_tagged(&frame) {
            Ok((id, inner)) => (Some(id), inner),
            // The envelope itself is unusable (no trustworthy id to
            // echo): answer bare.
            Err(e) => return Err((None, e.into())),
        }
    } else {
        (None, frame)
    };
    let work = match Request::decode(&frame) {
        Ok(Request::CheckKeyed { slot, calls }) if let Some(slots) = slots => {
            Work::Check(slots.resolve(slot, calls).map_err(|e| (id, e))?)
        }
        Ok(Request::Check { tenant, task, context, call }) => Work::Check(CheckRequest {
            single: true,
            ..CheckRequest::full(tenant, &task, &context, vec![call])
        }),
        Ok(Request::CheckBatch { tenant, task, context, calls }) => {
            Work::Check(CheckRequest::full(tenant, &task, &context, calls))
        }
        Ok(request) => Work::Other(request),
        Err(e) => return Err((id, e.into())),
    };
    Ok((id, work))
}

struct ServerState {
    engine: Arc<Engine>,
    config: ServeConfig,
    jobs: mpsc::UnboundedSender<Job>,
    shutting_down: AtomicBool,
    /// Where the TCP listener ended up (None for in-process-only servers).
    tcp_addr: Option<SocketAddr>,
    /// The accept task's reactor registration; shutdown nudges it so an
    /// idle listener wakes immediately instead of waiting for the next
    /// connection to re-check the stop flag.
    accept_reg: Option<Registration>,
    /// Every spawned connection: its record (for push fan-out and
    /// shutdown) and its task handles.
    conns: Mutex<Vec<ConnEntry>>,
    metrics: Metrics,
    /// The lifecycle daemon, when this server was started with one.
    daemon: Option<Arc<LifecycleDaemon>>,
    /// Threads in the worker pool (see [`detected_workers`]).
    workers: usize,
}

struct ConnEntry {
    /// Weak, so a closed connection's sessions go with its tasks rather
    /// than waiting for the entry to be reaped.
    conn: Weak<Conn>,
    read: JoinHandle<()>,
    write: JoinHandle<()>,
}

impl ServerState {
    fn conns(&self) -> MutexGuard<'_, Vec<ConnEntry>> {
        self.conns.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Stops accepting new connections. Existing connections keep being
    /// served until their clients disconnect (or the handle force-closes
    /// them in [`ServerHandle::shutdown`]).
    fn initiate_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the accept task through the reactor: it re-checks the
        // stop flag on every wakeup, so an *idle* listener shuts down
        // immediately — no self-connect, no waiting for a straggler
        // connection to arrive.
        if let Some(reg) = &self.accept_reg {
            reg.notify_readable();
        }
    }
}

/// Entry points for starting a server. See [`ServerHandle`] for the
/// running server's API.
pub struct Server;

impl Server {
    /// Starts an in-process server (no TCP listener); connect with
    /// [`ServerHandle::connect`]. No daemon: the engine's revocation
    /// journal stays in memory and lifecycle stays client-driven.
    pub fn start(engine: Arc<Engine>, config: ServeConfig) -> ServerHandle {
        Self::build(engine, config, None, None).expect("in-process start cannot fail")
    }

    /// Starts an in-process server with a [`LifecycleDaemon`]: crash
    /// recovery runs first (the engine is warm-started from the data
    /// directory, revoked fingerprints staying dead), the daemon's
    /// durable journal becomes the engine's revocation journal, and any
    /// configured sweep/snapshot ticks start.
    ///
    /// # Errors
    ///
    /// [`conseca_engine::JournalError`] if the durable ledger cannot be
    /// opened or verified — a server must not serve restores against
    /// revocation state it cannot trust.
    pub fn start_with_daemon(
        engine: Arc<Engine>,
        config: ServeConfig,
        daemon: DaemonConfig,
    ) -> Result<ServerHandle, conseca_engine::JournalError> {
        let daemon = LifecycleDaemon::start(Arc::clone(&engine), daemon)?;
        Ok(Self::build(engine, config, None, Some(daemon)).expect("in-process start cannot fail"))
    }

    /// Starts a server listening on `addr` (e.g. `"127.0.0.1:0"`), *and*
    /// accepting in-process connections.
    ///
    /// # Errors
    ///
    /// Propagates listener bind failures.
    pub fn bind(
        engine: Arc<Engine>,
        addr: &str,
        config: ServeConfig,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        Self::build(engine, config, Some(listener), None)
    }

    /// [`bind`](Self::bind) plus a [`LifecycleDaemon`] (see
    /// [`start_with_daemon`](Self::start_with_daemon)).
    ///
    /// # Errors
    ///
    /// Listener bind failures as `Io`; ledger verification failures as
    /// the journal error.
    pub fn bind_with_daemon(
        engine: Arc<Engine>,
        addr: &str,
        config: ServeConfig,
        daemon: DaemonConfig,
    ) -> Result<ServerHandle, conseca_engine::JournalError> {
        let listener = TcpListener::bind(addr)?;
        let daemon = LifecycleDaemon::start(Arc::clone(&engine), daemon)?;
        Ok(Self::build(engine, config, Some(listener), Some(daemon))?)
    }

    fn build(
        engine: Arc<Engine>,
        config: ServeConfig,
        listener: Option<TcpListener>,
        daemon: Option<Arc<LifecycleDaemon>>,
    ) -> std::io::Result<ServerHandle> {
        let listener = match listener {
            Some(listener) => {
                listener.set_nonblocking(true)?;
                let addr = listener.local_addr()?;
                let reg = Reactor::global().register_fd(listener.as_raw_fd())?;
                Some((listener, addr, reg))
            }
            None => None,
        };
        let (jobs_tx, jobs_rx) = mpsc::unbounded();
        let state = Arc::new(ServerState {
            engine,
            config,
            jobs: jobs_tx,
            shutting_down: AtomicBool::new(false),
            tcp_addr: listener.as_ref().map(|(_, addr, _)| *addr),
            accept_reg: listener.as_ref().map(|(_, _, reg)| reg.clone()),
            conns: Mutex::new(Vec::new()),
            metrics: Metrics::default(),
            daemon,
            workers: detected_workers(),
        });
        // Fan invalidations out to subscribed connections. The listener
        // holds the state weakly (the engine outlives the server and is
        // shareable between servers; a strong reference would leak the
        // state through the engine after shutdown) and runs on whatever
        // thread mutated the engine — the dispatcher for wire mutations,
        // the caller's thread for direct `Engine` calls and
        // `ReloadCoordinator` sweeps, all of which reach the store
        // through the engine methods that fire these events.
        let push_state: Weak<ServerState> = Arc::downgrade(&state);
        state.engine.add_invalidation_listener(Box::new(move |event| {
            if let Some(state) = push_state.upgrade() {
                fan_out_push(&state, event);
            }
        }));
        let pool = Arc::new(ThreadPool::new(state.workers));
        let dispatcher = Arc::clone(&state);
        pool.spawn(async move { dispatch(dispatcher, jobs_rx).await });
        let accept = listener.map(|(listener, _, reg)| {
            let state = Arc::clone(&state);
            let conn_pool = Arc::clone(&pool);
            pool.spawn(accept_task(state, conn_pool, listener, reg))
        });
        Ok(ServerHandle { state, pool, accept })
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    state: Arc<ServerState>,
    pool: Arc<ThreadPool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The TCP address the server listens on, if it has a listener.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.state.tcp_addr
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.state.engine
    }

    /// Dispatcher counters (request/batch/coalescing totals so far),
    /// plus the effective worker-pool size.
    pub fn metrics(&self) -> ServeMetrics {
        ServeMetrics {
            requests: self.state.metrics.requests.load(Ordering::Relaxed),
            batches: self.state.metrics.batches.load(Ordering::Relaxed),
            coalesced_checks: self.state.metrics.coalesced_checks.load(Ordering::Relaxed),
            workers: self.state.workers as u64,
            key_slots: self.state.metrics.key_slots.load(Ordering::Relaxed),
        }
    }

    /// Whether [`shutdown`](Self::shutdown) or a client's
    /// [`Request::Shutdown`] has been seen.
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutting_down.load(Ordering::Acquire)
    }

    /// Opens an in-process connection and completes the handshake.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`code::SHUTTING_DOWN`] if the server
    /// no longer accepts connections; otherwise handshake failures.
    pub fn connect(&self) -> Result<Client, ClientError> {
        Client::over(self.connect_stream()?)
    }

    /// Opens an in-process **cached** client subscribed for `tenant`:
    /// checks resolve in its local L1 after a one-time policy fetch,
    /// kept sound by this server's push invalidation channel.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`code::SHUTTING_DOWN`] if the
    /// server no longer accepts connections; handshake failures.
    pub fn connect_cached(&self, tenant: &str) -> Result<crate::cache::CachedClient, ClientError> {
        crate::cache::CachedClient::over(self.connect_stream()?, tenant)
    }

    /// Opens a raw in-process connection **without** sending `Hello` —
    /// the hook protocol tests use to speak the wire format directly.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`code::SHUTTING_DOWN`] if the server
    /// no longer accepts connections.
    pub fn connect_stream(&self) -> Result<DuplexStream, ClientError> {
        if self.is_shutting_down() {
            return Err(ClientError::Server {
                code: code::SHUTTING_DOWN,
                message: "server is shutting down".into(),
            });
        }
        let (client_end, server_end) = duplex();
        spawn_connection(&self.state, &self.pool, server_end);
        Ok(client_end)
    }

    /// The lifecycle daemon, when the server was started with one (see
    /// [`Server::start_with_daemon`]).
    pub fn daemon(&self) -> Option<&Arc<LifecycleDaemon>> {
        self.state.daemon.as_ref()
    }

    /// Graceful shutdown: stop accepting, close every connection, join
    /// all connection tasks, finish queued dispatcher work, stop the
    /// executor.
    pub fn shutdown(self) {
        // Dropping runs the same sequence; this method exists so call
        // sites read as what they are.
        drop(self);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.state.initiate_shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Close every connection before draining the list: fan-out picks
        // its targets there, and must keep seeing a subscribed connection
        // until its read task marks it closed.
        let conns = {
            let mut conns = self.state.conns();
            for conn in conns.iter().filter_map(|entry| entry.conn.upgrade()) {
                (conn.close)();
            }
            std::mem::take(&mut *conns)
        };
        // The pool is still running here, so the connection tasks
        // observe their close edges, drain, and complete.
        for conn in conns {
            let _ = conn.read.join();
            let _ = conn.write.join();
        }
        // All read tasks are gone, so no new jobs can arrive; the pool
        // lets the dispatcher finish anything already queued, then parks
        // it, and shutdown cancels the parked task.
        self.pool.shutdown();
        // Stop the daemon last: the dispatcher may have been feeding it
        // install notifications until the pool drained. The
        // journal stays valid on disk — stop only halts the ticks.
        if let Some(daemon) = &self.state.daemon {
            daemon.stop();
        }
    }
}

/// Accepts TCP connections until shutdown. Parks on the reactor while
/// the listener is idle; [`ServerState::initiate_shutdown`] wakes it
/// with a manual readiness notify, so shutdown latency is bounded by a
/// scheduler hop, not by the next incoming connection.
async fn accept_task(
    state: Arc<ServerState>,
    pool: Arc<ThreadPool>,
    listener: TcpListener,
    reg: Registration,
) {
    loop {
        if state.shutting_down.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                spawn_connection(&state, &pool, stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => reg.readable().await,
            // Transient per-connection accept failures (e.g. the peer
            // aborted before we got to it): keep accepting.
            Err(_) => {}
        }
    }
}

fn spawn_connection<S: Stream>(state: &Arc<ServerState>, pool: &ThreadPool, stream: S) {
    let Ok(reg) = stream.register() else {
        stream.close();
        return;
    };
    let Ok(write_half) = stream.try_split() else {
        stream.close();
        return;
    };
    let Ok(close_handle) = stream.try_split() else {
        stream.close();
        return;
    };
    // The record's close hook is shared across threads; `Stream` does
    // not require `Sync`, so the handle travels in a mutex.
    let close_handle = Mutex::new(close_handle);
    let (ordered_tx, ordered_rx) = mpsc::unbounded();
    let (push_tx, push_rx) = mpsc::unbounded();
    let conn = Arc::new(Conn {
        sessions: Mutex::default(),
        in_flight: AtomicUsize::new(0),
        push_tx,
        close: Box::new(move || close_handle.lock().unwrap_or_else(|e| e.into_inner()).close()),
        watch: Mutex::default(),
        ack_cv: Condvar::new(),
    });
    // The list stays locked until the entry is in, so fan-out sees the
    // connection before its read task can answer a Subscribe.
    let mut conns = state.conns();
    // Reap connections whose tasks have already finished — without this
    // a long-running server accepting many short-lived connections would
    // accumulate one entry apiece.
    conns.retain(|conn| !(conn.read.is_finished() && conn.write.is_finished()));
    let read = pool.spawn(read_task(
        Arc::clone(state),
        Arc::clone(&conn),
        NbReader::new(stream, reg.clone()),
        ordered_tx,
    ));
    let max_frame_len = state.config.max_frame_len;
    let write = pool.spawn(write_task(
        NbWriter::new(write_half, reg),
        ordered_rx,
        push_rx,
        max_frame_len,
        Arc::clone(&conn),
    ));
    conns.push(ConnEntry { conn: Arc::downgrade(&conn), read, write });
}

async fn read_task<S: Stream>(
    state: Arc<ServerState>,
    conn: Arc<Conn>,
    mut reader: NbReader<S>,
    out: mpsc::UnboundedSender<Outgoing>,
) {
    let max = state.config.max_frame_len;
    let mut greeted = false;
    let mut slots = KeySlots::default();
    // A request read ahead while coalescing checks; handled next.
    let mut carried: Option<Inbound> = None;
    loop {
        let next = match carried.take() {
            Some(inbound) => Ok(Some(inbound)),
            None => {
                let slots = greeted.then_some(&slots);
                reader.read_frame(max).await.map(|frame| frame.map(|f| decode_inbound(f, slots)))
            }
        };
        let inbound = match next {
            Ok(Some(inbound)) => inbound,
            // Clean EOF, or a truncated frame / transport error: either
            // way the conversation is over and there is nobody to answer.
            Ok(None) | Err(FrameReadError::Io(_)) => break,
            Err(e @ FrameReadError::Oversized { .. }) => {
                refuse(&out, None, code::FRAME_TOO_LARGE, e.to_string());
                break;
            }
            Err(e @ FrameReadError::Empty) => {
                refuse(&out, None, code::MALFORMED, e.to_string());
                break;
            }
        };
        let (id, work) = match inbound {
            Ok(request) => request,
            Err((id, refusal)) => {
                // Unusable envelopes, unknown tags, undecodable payloads
                // and bad key slots are answered and the conversation
                // continues — the frame boundary is intact, so the
                // stream is in sync.
                let _ = out.send(Outgoing::Ready { id, response: refusal.response() });
                continue;
            }
        };
        match work {
            Work::Other(Request::Hello { version }) if version == PROTOCOL_VERSION => {
                greeted = true;
                let _ = out.send(Outgoing::Ready { id, response: Response::HelloOk { version } });
            }
            Work::Other(Request::Hello { version }) => {
                let message =
                    format!("client speaks version {version}, server speaks {PROTOCOL_VERSION}");
                refuse(&out, id, code::UNSUPPORTED_VERSION, message);
                break;
            }
            _ if !greeted => {
                refuse(&out, id, code::HANDSHAKE_REQUIRED, "first frame must be Hello".into());
                break;
            }
            // Subscription traffic is handled here, never queued: the
            // dispatcher can be *blocked inside a mutation* waiting for
            // this very connection's ack, so an ack routed through the
            // job queue would deadlock behind the mutation it completes.
            // Only the watched tenant changes: the connection's `seq` and
            // the acks it still owes carry over.
            Work::Other(Request::Subscribe { tenant }) => {
                conn.watch().tenant = Some(tenant);
                let _ = out.send(Outgoing::Ready { id, response: Response::Subscribed });
            }
            // Acks answer pushes; they get no response of their own.
            Work::Other(Request::PushAck { seq }) => conn.record_ack(seq),
            // A bind touches only this task's slot table, so it is
            // answered here and never queued: the checks read after it
            // resolve under the new key, those read before it already
            // hold the old one.
            Work::Other(Request::BindKey { slot, tenant, task, context }) => {
                let response = match slots.bind(slot, tenant, &task, &context) {
                    Ok(fresh) => {
                        if fresh {
                            state.metrics.key_slots.fetch_add(1, Ordering::Relaxed);
                        }
                        Response::KeyBound { slot }
                    }
                    Err(refusal) => refusal.response(),
                };
                let _ = out.send(Outgoing::Ready { id, response });
            }
            // Nothing of this connection's is waiting on the dispatcher,
            // so the check cannot overtake an effect: answer it here.
            Work::Check(check) if conn.in_flight.load(Ordering::Acquire) == 0 => {
                carried = answer_checks(&state, &conn, &mut reader, &slots, &out, id, check);
            }
            work => {
                // Never awaited: the read task keeps reading (PushAcks
                // above all) while the dispatcher works on this.
                let (reply, answer) = oneshot::channel();
                conn.in_flight.fetch_add(1, Ordering::Relaxed);
                if state.jobs.send(Job { work, conn: Arc::clone(&conn), reply }).is_err() {
                    // The dispatcher is gone: the server is shutting down.
                    refuse(&out, id, code::SHUTTING_DOWN, "server is shutting down".into());
                    break;
                }
                if out.send(Outgoing::Pending { id, reply: answer }).is_err() {
                    break;
                }
            }
        }
    }
    // The conversation is over, however it ended: no more pushes, and
    // any fan-out still waiting on this connection's ack fails now. The
    // record, sessions included, goes with its last holder.
    conn.mark_closed();
    state.metrics.key_slots.fetch_sub(slots.len() as u64, Ordering::Relaxed);
}

/// Answers with a typed error, then closes the connection once
/// everything queued before it is written: how the read task ends a
/// conversation it cannot continue.
fn refuse(out: &mpsc::UnboundedSender<Outgoing>, id: Option<u64>, code: u16, message: String) {
    let _ = out.send(Outgoing::Ready { id, response: Response::Error { code, message } });
    let _ = out.send(Outgoing::Close);
}

/// The connection's write half: drains two lanes with a **biased**
/// select — the out-of-band push lane always wins ties over the ordered
/// response lane, and keeps being serviced even while a dispatcher
/// answer is pending (the dispatcher may be blocked on this very
/// connection's push ack). Whatever is already sendable when it wakes
/// goes out in one write.
async fn write_task<S: Stream>(
    mut writer: NbWriter<S>,
    mut ordered: mpsc::UnboundedReceiver<Outgoing>,
    mut pushes: mpsc::UnboundedReceiver<Frame>,
    max_len: u32,
    // Holds the record's push-lane sender, so the lane never reads as
    // "closed" mid-connection.
    conn: Arc<Conn>,
) {
    let _ = write_loop(&mut writer, &mut ordered, &mut pushes, max_len).await;
    // Whatever was queued before the loop stopped still goes out.
    let _ = writer.flush().await;
    (conn.close)();
}

/// The ordered lane's head while the dispatcher is still producing its
/// answer: the correlation id and the answer's oneshot.
type Waiting = (Option<u64>, oneshot::Receiver<Response>);

/// Writes until the ordered lane closes (`Ok`) or the connection fails
/// (`Err`).
async fn write_loop<S: Write>(
    writer: &mut NbWriter<S>,
    ordered: &mut mpsc::UnboundedReceiver<Outgoing>,
    pushes: &mut mpsc::UnboundedReceiver<Frame>,
    max_len: u32,
) -> Result<(), ()> {
    const KEEPALIVE: &str = "the write task's record holds a push-lane sender";
    let mut head: Option<Waiting> = None;
    loop {
        // Park until something is sendable: a push, or the ordered
        // lane's next answer.
        let open = match head.take() {
            None => match select2(pushes.recv(), ordered.recv()).await {
                Either::Left(push) => {
                    writer.queue_frame(&push.expect(KEEPALIVE), max_len).map_err(drop)?;
                    true
                }
                Either::Right(item) => take_item(writer, &mut head, item, max_len)?,
            },
            Some((id, mut reply)) => {
                let next = select2(pushes.recv(), &mut reply).await;
                match next {
                    Either::Left(push) => {
                        head = Some((id, reply));
                        writer.queue_frame(&push.expect(KEEPALIVE), max_len).map_err(drop)?;
                    }
                    Either::Right(Ok(response)) => emit(writer, &response, id, max_len)?,
                    // The dispatcher dropped the job (shutdown
                    // mid-flight); nothing left to say here.
                    Either::Right(Err(_)) => return Err(()),
                }
                true
            }
        };
        if !open {
            return Ok(());
        }
        // Then gather everything else already sendable, without waiting,
        // and write it all at once.
        let open = gather(writer, ordered, pushes, &mut head, max_len).await?;
        writer.flush().await.map_err(drop)?;
        if !open {
            return Ok(());
        }
    }
}

/// Queues every push, then every ordered answer up to the first one
/// still being produced (which becomes `head`), up to [`WRITE_BATCH`]
/// bytes. `Ok(false)` once the ordered lane says to close.
async fn gather<S: Write>(
    writer: &mut NbWriter<S>,
    ordered: &mut mpsc::UnboundedReceiver<Outgoing>,
    pushes: &mut mpsc::UnboundedReceiver<Frame>,
    head: &mut Option<Waiting>,
    max_len: u32,
) -> Result<bool, ()> {
    while writer.queued() < WRITE_BATCH {
        while let Ok(push) = pushes.try_recv() {
            writer.queue_frame(&push, max_len).map_err(drop)?;
        }
        match head.take() {
            Some((id, reply)) if reply.is_ready() => match reply.await {
                Ok(response) => emit(writer, &response, id, max_len)?,
                Err(_) => return Err(()),
            },
            Some(waiting) => {
                *head = Some(waiting);
                break;
            }
            None => match ordered.try_recv() {
                Ok(item) => {
                    if !take_item(writer, head, Some(item), max_len)? {
                        return Ok(false);
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return Ok(false),
            },
        }
    }
    Ok(true)
}

/// Takes one ordered-lane item: a ready answer is queued, a pending one
/// becomes `head`. `Ok(false)` when the lane says to close.
fn take_item<S: Write>(
    writer: &mut NbWriter<S>,
    head: &mut Option<Waiting>,
    item: Option<Outgoing>,
    max_len: u32,
) -> Result<bool, ()> {
    match item {
        Some(Outgoing::Ready { id, response }) => emit(writer, &response, id, max_len)?,
        Some(Outgoing::Pending { id, reply }) => *head = Some((id, reply)),
        Some(Outgoing::Close) | None => return Ok(false),
    }
    Ok(true)
}

/// Encodes and queues one correlated response. Encoding happens against
/// the server's own frame cap — minus the 9-byte envelope header when
/// the answer must be wrapped — and a response too big to send is
/// downgraded to a (small) typed error in the same response slot, so
/// ordering holds and the client learns *why* instead of watching the
/// connection die. Under a pathologically tiny cap even the error may
/// not fit — then the only honest move left is closing the connection
/// (`Err`; never a panic, never a silent skip that would desynchronise
/// response ordering).
fn emit<S: Write>(
    writer: &mut NbWriter<S>,
    response: &Response,
    id: Option<u64>,
    max_len: u32,
) -> Result<(), ()> {
    let cap = if id.is_some() { max_len.saturating_sub(9) } else { max_len };
    let frame = match response.encode_limited(cap) {
        Ok(frame) => frame,
        Err(e) => {
            let fallback = Response::Error { code: e.error_code(), message: e.to_string() };
            match fallback.encode_limited(cap) {
                Ok(frame) => frame,
                Err(_) => return Err(()),
            }
        }
    };
    let frame = match id {
        Some(id) => wrap_tagged(id, &frame),
        None => frame,
    };
    writer.queue_frame(&frame, max_len).map_err(drop)
}

/// Forwards one engine invalidation to every subscriber of its tenant
/// and waits for each ack. Runs on the mutating thread (the dispatcher
/// for wire mutations), so the mutation's own reply is not sent until
/// every healthy subscriber has applied the invalidation — that is what
/// extends "once the revocation returns, no new check sees the stale
/// snapshot" across subscribed caches. A subscriber that cannot take
/// the push (dead write lane, encode failure, ack timeout) is
/// force-closed: its client observes the disconnect and flushes its
/// whole cache, which is the fail-closed end of the same guarantee.
///
/// Push frames are never enveloped (they answer no request) and travel
/// the out-of-band lane into each connection's write task, which
/// services that lane even while a correlated response is pending.
fn fan_out_push(state: &ServerState, event: &Invalidation) {
    let conns: Vec<Arc<Conn>> =
        state.conns().iter().filter_map(|entry| entry.conn.upgrade()).collect();
    // Queue every push first, then await the acks: the subscribers
    // apply the invalidation concurrently instead of one ack round-trip
    // at a time.
    let mut awaiting = Vec::new();
    for conn in conns {
        let mut watch = conn.watch();
        if watch.closed || watch.tenant.as_deref() != Some(event.tenant()) {
            continue;
        }
        watch.seq += 1;
        let seq = watch.seq;
        let push = match event {
            Invalidation::Revoked { tenant, fingerprint } => {
                Response::PushRevoke { seq, tenant: tenant.clone(), fingerprint: *fingerprint }
            }
            Invalidation::Reloaded { tenant, task_fp, context_fp, fingerprint } => {
                Response::PushReload {
                    seq,
                    tenant: tenant.clone(),
                    task_fp: *task_fp,
                    context_fp: *context_fp,
                    fingerprint: *fingerprint,
                }
            }
            Invalidation::Flushed { tenant } => Response::PushFlush { seq, tenant: tenant.clone() },
        };
        // Queued under the lock that numbered it, so concurrent fan-outs
        // put their pushes on the lane in `seq` order and an ack never
        // covers a push that is not yet sent.
        let queued = push
            .encode_limited(state.config.max_frame_len)
            .is_ok_and(|frame| conn.push_tx.send(frame).is_ok());
        drop(watch);
        if queued {
            awaiting.push((conn, seq));
        } else {
            conn.force_close();
        }
    }
    // One deadline shared by every subscriber of this event: the pushes
    // were all queued before the first wait, so the subscribers apply
    // concurrently and the worst-case stall for the mutating caller is
    // one `push_ack_timeout`, not one per slow subscriber.
    let deadline = Instant::now() + state.config.push_ack_timeout;
    for (conn, seq) in awaiting {
        if !conn.wait_acked_until(seq, deadline) {
            conn.force_close();
        }
    }
}

/// One coalesced check: the correlation id its answer goes out under,
/// how many of the group's calls are its own, and whether it was a
/// single `Check`.
struct PendingCheck {
    id: Option<u64>,
    len: usize,
    single: bool,
}

/// Checks sharing one policy key *and one connection*, answered by one
/// evaluation. Grouping is per-connection because each connection owns
/// its trajectory session: two connections checking the same policy
/// must spend their own budgets, not each other's. The key was resolved
/// when each check was read, and serves both the connection's session
/// map and the store lookup.
struct CheckGroup {
    key: EngineKey,
    tenant: Arc<str>,
    /// Every member's calls, in arrival order.
    calls: Vec<ApiCall>,
    pending: Vec<PendingCheck>,
}

impl CheckGroup {
    /// Opens a group under `first`'s policy key with `first` as its
    /// only member.
    fn open(id: Option<u64>, first: CheckRequest) -> Self {
        let CheckRequest { tenant, key, calls, single } = first;
        let mut group = CheckGroup { key, tenant, calls: Vec::new(), pending: Vec::new() };
        group.push(id, calls, single);
        group
    }

    /// Whether `check` names this group's policy key.
    fn admits(&self, check: &CheckRequest) -> bool {
        check.key == self.key && check.tenant == self.tenant
    }

    fn push(&mut self, id: Option<u64>, calls: Vec<ApiCall>, single: bool) {
        self.pending.push(PendingCheck { id, len: calls.len(), single });
        self.calls.extend(calls);
    }
}

/// Evaluates one check group from `conn` and pairs each member's
/// correlation id with its response — the one check implementation
/// behind both the read task and the dispatcher. The connection's
/// trajectory session for the key is advanced through the group's calls
/// in order, under the connection's own session lock, which nothing else
/// contends for.
fn answer_group(
    state: &ServerState,
    conn: &Conn,
    group: CheckGroup,
) -> Vec<(Option<u64>, Response)> {
    if group.pending.len() > 1 {
        state.metrics.coalesced_checks.fetch_add(group.calls.len() as u64, Ordering::Relaxed);
    }
    let mut decisions = {
        let mut sessions = conn.sessions.lock().unwrap_or_else(|e| e.into_inner());
        let session = sessions.entry(group.key).or_default();
        let resolved = state.engine.resolve(&group.tenant, &group.key, Billing::Authoritative);
        resolved.map(|resolved| resolved.check_all(Some(session), &group.calls).into_iter())
    };
    group
        .pending
        .into_iter()
        .map(|pending| {
            let response = match (decisions.as_mut(), pending.single) {
                (None, true) => Response::Verdict { decision: None },
                (None, false) => Response::VerdictBatch { decisions: None },
                (Some(all), true) => Response::Verdict { decision: all.next() },
                (Some(all), false) => {
                    Response::VerdictBatch { decisions: Some(all.take(pending.len).collect()) }
                }
            };
            (pending.id, response)
        })
        .collect()
}

/// Answers a check on the connection's own read task, together with the
/// checks under the same policy key already buffered behind it (no I/O
/// is awaited), as one group. Returns the first buffered request that
/// did not join, for the read task to handle next.
fn answer_checks<S: Read>(
    state: &ServerState,
    conn: &Conn,
    reader: &mut NbReader<S>,
    slots: &KeySlots,
    out: &mpsc::UnboundedSender<Outgoing>,
    id: Option<u64>,
    first: CheckRequest,
) -> Option<Inbound> {
    let mut group = CheckGroup::open(id, first);
    let mut carried = None;
    while group.pending.len() < MAX_BATCH {
        // A framing error stays in the reader for the read task to meet.
        let Some(Ok(frame)) = reader.buffered_frame(state.config.max_frame_len) else { break };
        // A bind ends the group before the next frame is decoded, so
        // every keyed check resolves against the binds read before it.
        match decode_inbound(frame, Some(slots)) {
            Ok((id, Work::Check(next))) if group.admits(&next) => {
                group.push(id, next.calls, next.single)
            }
            other => {
                carried = Some(other);
                break;
            }
        }
    }
    state.metrics.batches.fetch_add(1, Ordering::Relaxed);
    state.metrics.requests.fetch_add(group.pending.len() as u64, Ordering::Relaxed);
    for (id, response) in answer_group(state, conn, group) {
        let _ = out.send(Outgoing::Ready { id, response });
    }
    carried
}

/// Takes the queued jobs one at a time, in arrival order, and answers
/// each through its oneshot before it takes the next.
async fn dispatch(state: Arc<ServerState>, mut jobs: mpsc::UnboundedReceiver<Job>) {
    while let Some(Job { work, conn, reply }) = jobs.recv().await {
        state.metrics.batches.fetch_add(1, Ordering::Relaxed);
        state.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let response = match work {
            // A check queued behind its connection's unanswered job: a
            // group of one, whose answer rides the oneshot, not an id.
            Work::Check(check) => {
                let group = CheckGroup::open(None, check);
                answer_group(&state, &conn, group).pop().expect("a group of one has one answer").1
            }
            Work::Other(request) => execute(&state, request),
        };
        let _ = reply.send(response);
        // Release pairs with the read task's Acquire load: once it reads
        // zero, the effects of every answered job (store, sessions) are
        // visible to the checks it then answers itself.
        conn.in_flight.fetch_sub(1, Ordering::Release);
    }
}

fn persistence_error(what: &str, e: JournalError) -> Response {
    Response::Error { code: code::PERSISTENCE, message: format!("{what}: {e}") }
}

/// Executes one mutating or admin request on the dispatcher.
fn execute(state: &ServerState, request: Request) -> Response {
    let engine = &state.engine;
    match request {
        Request::Install { tenant, task, context, policy } => {
            let fingerprint = policy.fingerprint();
            let entries = policy.len() as u64;
            // The engine journals the reinstatement: a deliberately
            // reinstalled fingerprint is live (and restorable) again.
            if let Err(e) = engine.install(&tenant, &task, &context, &policy) {
                return persistence_error("install refused", e);
            }
            if let Some(daemon) = &state.daemon {
                daemon.on_installed(&tenant, &task, &context, fingerprint);
            }
            Response::Installed { fingerprint, entries }
        }
        Request::FetchPolicy { tenant, task, context } => {
            let policy = engine
                .lookup(&tenant, &task, &context)
                .map(|compiled| (*compiled.source_handle()).clone());
            Response::PolicyOk { policy }
        }
        Request::Flush { tenant } => {
            Response::Flushed { removed: engine.flush_tenant(&tenant) as u64 }
        }
        // The engine journals the revoke before it sweeps. A revoke it
        // cannot journal is still applied in memory (fail closed), but
        // the client is told the durability guarantee does not hold.
        Request::Revoke { tenant, fingerprint } => {
            match engine.revoke_fingerprint(&tenant, fingerprint) {
                Ok(removed) => Response::Revoked { removed: removed as u64 },
                Err(e) => persistence_error("revocation applied in memory but not journaled", e),
            }
        }
        Request::Reload { tenant, task, context, policy } => {
            let fingerprint = policy.fingerprint();
            let entries = policy.len() as u64;
            let receipt = match engine.reload(&tenant, &task, &context, &policy) {
                Ok(receipt) => receipt,
                Err(e) => return persistence_error("reload refused", e),
            };
            if let Some(daemon) = &state.daemon {
                daemon.on_installed(&tenant, &task, &context, fingerprint);
            }
            Response::Reloaded { old_fingerprint: receipt.old_fingerprint, fingerprint, entries }
        }
        Request::Snapshot { tenant } => match engine.store().export_snapshot(&tenant) {
            Ok(snapshot) => {
                Response::SnapshotOk { entries: snapshot.entries as u64, snapshot: snapshot.bytes }
            }
            Err(e) => Response::Error { code: code::BAD_SNAPSHOT, message: e.to_string() },
        },
        // The engine gates the import on its own revocation journal and
        // refuses it outright when the journal cannot be read.
        Request::Restore { tenant, snapshot } => match engine.import_snapshot(&tenant, &snapshot) {
            Ok(report) => {
                if let Some(daemon) = &state.daemon {
                    daemon.register_tenant(&tenant);
                }
                Response::Restored {
                    installed: report.installed as u64,
                    skipped_revoked: report.skipped_revoked as u64,
                    skipped_live: report.skipped_live as u64,
                }
            }
            Err(SnapshotError::Journal(e)) => persistence_error("restore refused", e),
            Err(e) => Response::Error { code: code::BAD_SNAPSHOT, message: e.to_string() },
        },
        Request::Stats { tenant } => Response::StatsOk {
            counters: engine.tenant_counters(&tenant),
            daemon: state.daemon.as_ref().map(|d| d.counters()),
            workers: state.workers as u64,
        },
        Request::Shutdown => {
            state.initiate_shutdown();
            Response::ShuttingDown
        }
        // Handshakes and subscription traffic are answered by the read
        // task, and checks never arrive as `Work::Other`; one reaching
        // here is a server bug, not a client error.
        Request::Hello { .. } => Response::Error {
            code: code::MALFORMED,
            message: "Hello is handled during the handshake".into(),
        },
        Request::Subscribe { .. } | Request::PushAck { .. } | Request::BindKey { .. } => {
            Response::Error {
                code: code::MALFORMED,
                message: "subscription and key-slot frames are handled by the connection reader"
                    .into(),
            }
        }
        Request::Check { .. } | Request::CheckBatch { .. } | Request::CheckKeyed { .. } => {
            unreachable!("checks are decoded as Work::Check")
        }
    }
}
