//! The policy-decision server: an event-driven task layer over
//! [`Engine`], running every connection on the reactor's event loop.
//!
//! # Architecture
//!
//! ```text
//!   reactor event loop (1 thread, process-wide): epoll_wait, then poll
//!   every task an edge woke, on the same thread
//!   ┌──────────────────────────────────────────────────────────────────┐
//!   │ accept task ──────────► per-connection task (owns the socket     │
//!   │ (non-blocking listener,   both ways); each turn: one buffered    │
//!   │  shutdown = one notify)   read → decode; ANSWERS CHECKS AND      │
//!   │                           READS ITSELF (a same-key check run as  │
//!   │                           one group; FetchPolicy, Stats), and    │
//!   │                           handshake, envelope, framing and       │
//!   │                           subscription traffic; writes every     │
//!   │                           answer it can, in request order, in    │
//!   │                           one write; polls, then parks           │
//!   └──────────────────────────────│──────────────────────────▲────────┘
//!                                  │ mutations, Snapshot,     │ oneshot replies;
//!                                  ▼ Shutdown; checks and     │ pushes, written
//!                                    reads queued behind one  │ ahead of answers
//!                         mpsc job queue (shared)             │ still owed
//!                                  │                          │
//!                                  ▼                          │
//!              dispatcher, a thread of its own:               │
//!              one job at a time; may block on push acks ─────┘
//! ```
//!
//! A connection is a *state machine driven by one cooperative task*,
//! not an OS thread: a thousand idle connections cost one parked task
//! each and zero threads. A check's bytes are read, judged and answered
//! on the loop thread that saw them arrive, with no handoff to another
//! thread. Nothing on the loop blocks; the dispatcher, which can wait
//! on a subscriber's push ack, runs on a thread of its own. An
//! in-process duplex request does cross from the client's thread, but
//! the loop polls before it parks after such a turn, and a blocking
//! duplex reader polls its pipe before it parks (see
//! [`futures::spin_budget`]), so while both threads are busy a round
//! trip costs no thread wake.
//!
//! Checks — the per-action hot path — skip the dispatcher whenever the
//! connection has nothing queued there: its task evaluates them on the
//! spot and writes the answer itself, with no queue hop, no oneshot and
//! no task wake, and a mutation wedged on the dispatcher cannot stall
//! them. The reads `FetchPolicy` (a store lookup and a clone of the
//! source policy) and `Stats` (atomics under the tenants read lock)
//! follow the same rule. A connection keeps the answers it owes in
//! request order; while a dispatcher reply heads them, its checks and
//! reads queue behind it, so effects keep arrival order and a read
//! never overtakes its own connection's mutation. The dispatcher takes
//! only mutations, `Snapshot`, `Shutdown` and such queued work. Only
//! the connection task coalesces: it answers a check together with the
//! same-key checks buffered behind it, as one group with one store
//! lookup and one tenant-stats resolution (visible in
//! [`ServeMetrics::coalesced_checks`]). The dispatcher answers a queued
//! check through the same function, as a group of one. The engine
//! itself is untouched — every verdict is produced by the same session
//! check the in-process path uses ([`Resolved::check`](conseca_engine::Resolved::check)),
//! which is what keeps served decisions byte-identical.
//!
//! # Pipelining (wire v7)
//!
//! A client may wrap requests in the v7 correlation envelope
//! ([`crate::wire::wrap_tagged`]); the connection splits the id off
//! before decoding and wraps the answer in the same id. Enveloped and
//! bare requests share one connection freely — responses are produced
//! and written in arrival order either way, so bare clients lose nothing
//! and enveloped clients get out-of-order-safe correlation for dozens of
//! in-flight requests per socket.
//!
//! # Key slots (wire v9)
//!
//! A client binds a policy key to a connection-local slot once
//! ([`Request::BindKey`]) and then names the key by slot
//! ([`Request::CheckKeyed`]), so a check carries no context. The
//! connection task owns the slot table: it answers a bind on the spot,
//! fingerprinting the bind's task and context once, and resolves a keyed
//! check to its (tenant, key) as it decodes the frame — a later rebind
//! never reaches a check already read. Full-key checks get their key at
//! decode too, so past decoding a check is a key and its calls, whatever
//! frame carried it.
//!
//! # One record per connection
//!
//! What a connection shares with the dispatcher and push fan-out lives
//! in one record, `Conn`: its trajectory sessions (one [`SessionState`]
//! per policy key), its push lane and close hook, and its subscription.
//! Checks advance the sessions, so a policy's temporal constraints bind
//! across the connection's whole conversation; two connections under one
//! policy spend their own budgets, which is why checks coalesce by
//! *(connection, key)*. The record dies with the connection, so a new one
//! always starts empty. A re-Subscribe changes only the watched tenant:
//! the push `seq` and the acks owed carry over.

use std::collections::{HashMap, VecDeque};
use std::future::{poll_fn, Future};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::task::{Context, Poll};
use std::thread;
use std::time::{Duration, Instant};

use conseca_core::TrustedContext;
use conseca_engine::{
    Billing, Engine, EngineKey, Invalidation, JournalError, SessionState, SnapshotError,
};
use conseca_shell::ApiCall;
use futures::channel::mpsc;
use futures::channel::oneshot;
use futures::reactor::{Reactor, Registration};
use futures::JoinHandle;

use crate::client::{Client, ClientError};
use crate::daemon::{DaemonConfig, LifecycleDaemon};
use crate::transport::{duplex, DuplexStream, NbReader, NbWriter, Stream};
use crate::wire::{
    code, unwrap_tagged, wrap_tagged, Frame, FrameError, Request, Response, WireError,
    WireErrorCode, MAX_KEY_SLOTS, PROTOCOL_VERSION, TAG_TAGGED,
};

/// Most checks a connection coalesces into one group.
const MAX_BATCH: usize = 256;

/// Server limits. Threads are not configured here: connections run on
/// the reactor's one event loop, and the dispatcher on one thread of its
/// own (see [`ServeMetrics::workers`]).
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Largest frame (tag + payload) this server accepts *and emits*.
    /// Oversized incoming frames are answered with
    /// [`code::FRAME_TOO_LARGE`] and the connection closes; a response
    /// that would exceed the cap at encode time (a large `SnapshotOk`,
    /// say) is replaced by a [`code::FRAME_TOO_LARGE`] error on a
    /// connection that stays open. Raise it — together with the
    /// client's cap, set by [`Client::over_with`](crate::Client::over_with),
    /// [`AsyncClient::over_with`](crate::AsyncClient::over_with) or
    /// [`CachedClient::over_with`](crate::CachedClient::over_with) — as the
    /// sanctioned path for oversized-but-legitimate payloads such as
    /// policy snapshots.
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
    /// Threads the server runs of its own: one, the dispatcher's.
    /// Connection tasks share the process-wide reactor loop thread,
    /// which is not counted. Not a counter; surfaced here and in the
    /// wire `StatsOk` so operators can see what a measurement ran
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
    reply: oneshot::Sender<Reply>,
}

/// The dispatcher's answer, and the request it answered handed back so
/// the connection frees it on the loop thread that decoded it. A decoded
/// `Install` is hundreds of small allocations, and freeing them on the
/// dispatcher — the one serial stage of a policy load — costs it remote
/// frees into the loop's allocator arena.
type Reply = (Response, Option<Request>);

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
/// connection's task touches the table, and it resolves a keyed
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

/// One connection's state, in one record shared by its task, its
/// dispatcher jobs and push fan-out. It dies with the last of them.
struct Conn {
    /// Trajectory sessions by policy key. Checks against a
    /// trajectory-carrying policy advance the same [`SessionState`] the
    /// engine's in-process callers thread through `Resolved::check`.
    sessions: Mutex<HashMap<EngineKey, SessionState>>,
    /// Out-of-band lane into the connection task: pre-encoded push
    /// frames travel here and are written ahead of every answer still
    /// waiting behind a dispatcher reply (a push must never queue behind
    /// a reply that is itself blocked on this push's ack). The task
    /// holds the record, so the lane stays open for as long as it runs.
    push_tx: mpsc::UnboundedSender<Frame>,
    /// Closes the transport under the connection task.
    close: Box<dyn Fn() + Send + Sync>,
    watch: Mutex<Watch>,
    /// Signalled on every ack and on close.
    ack_cv: Condvar,
}

/// A connection's push subscription, fed by its task and by fan-out.
#[derive(Default)]
struct Watch {
    /// The tenant whose invalidations are pushed here, once subscribed.
    tenant: Option<String>,
    /// The last push sequence number handed out. It belongs to the
    /// connection, so it keeps counting across re-Subscribes.
    seq: u64,
    /// Highest sequence the client has acknowledged.
    acked: u64,
    /// Set when the connection stops reading or fan-out force-closes it:
    /// no more pushes, and an ack wait fails at once.
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

/// An answer a connection owes, queued behind a dispatcher reply not
/// yet produced.
enum Owed {
    /// An answer the connection produced itself (handshake, framing and
    /// envelope errors, subscriptions, key binds).
    Ready(Response),
    /// An answer the dispatcher will produce.
    Pending(oneshot::Receiver<Reply>),
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
    /// The dispatcher's queue. `None` tells it to stop once it has
    /// answered every job queued before it.
    jobs: std::sync::mpsc::Sender<Option<Job>>,
    shutting_down: AtomicBool,
    /// Where the TCP listener ended up (None for in-process-only servers).
    tcp_addr: Option<SocketAddr>,
    /// The accept task's reactor registration; shutdown nudges it so an
    /// idle listener wakes immediately instead of waiting for the next
    /// connection to re-check the stop flag.
    accept_reg: Option<Registration>,
    /// Every spawned connection: its record (for push fan-out and
    /// shutdown) and its task handle.
    conns: Mutex<Vec<ConnEntry>>,
    metrics: Metrics,
    /// The lifecycle daemon, when this server was started with one.
    daemon: Option<Arc<LifecycleDaemon>>,
}

struct ConnEntry {
    /// Weak, so a closed connection's sessions go with its task rather
    /// than waiting for the entry to be reaped.
    conn: Weak<Conn>,
    task: JoinHandle<()>,
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
        let (jobs_tx, jobs_rx) = std::sync::mpsc::channel();
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
        let dispatched = Arc::clone(&state);
        let dispatcher = thread::Builder::new()
            .name("conseca-dispatch".into())
            .spawn(move || dispatch(&dispatched, &jobs_rx))?;
        let accept = listener.map(|(listener, _, reg)| {
            Reactor::global().spawn(accept_task(Arc::clone(&state), listener, reg))
        });
        Ok(ServerHandle { state, dispatcher: Some(dispatcher), accept })
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    state: Arc<ServerState>,
    dispatcher: Option<thread::JoinHandle<()>>,
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
    /// plus the server's own thread count.
    pub fn metrics(&self) -> ServeMetrics {
        ServeMetrics {
            requests: self.state.metrics.requests.load(Ordering::Relaxed),
            batches: self.state.metrics.batches.load(Ordering::Relaxed),
            coalesced_checks: self.state.metrics.coalesced_checks.load(Ordering::Relaxed),
            workers: 1,
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
        spawn_connection(&self.state, server_end);
        Ok(client_end)
    }

    /// The lifecycle daemon, when the server was started with one (see
    /// [`Server::start_with_daemon`]).
    pub fn daemon(&self) -> Option<&Arc<LifecycleDaemon>> {
        self.state.daemon.as_ref()
    }

    /// Graceful shutdown: stop accepting, close every connection, join
    /// all connection tasks, finish queued dispatcher work, join the
    /// dispatcher thread.
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
        // until its task marks it closed.
        let conns = {
            let mut conns = self.state.conns();
            for conn in conns.iter().filter_map(|entry| entry.conn.upgrade()) {
                (conn.close)();
            }
            std::mem::take(&mut *conns)
        };
        // The loop runs the connection tasks, and the dispatcher still
        // answers the jobs they wait on, so they observe their close
        // edges, drain, and complete.
        for conn in conns {
            let _ = conn.task.join();
        }
        // All connection tasks are gone, so no new jobs can arrive; the
        // dispatcher answers anything already queued, then stops.
        let _ = self.state.jobs.send(None);
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
        // Stop the daemon last: the dispatcher may have been feeding it
        // install notifications until it stopped. The journal stays
        // valid on disk — stop only halts the ticks.
        if let Some(daemon) = &self.state.daemon {
            daemon.stop();
        }
    }
}

/// Accepts TCP connections until shutdown, on the reactor's loop. Parks
/// while the listener is idle; [`ServerState::initiate_shutdown`] wakes
/// it with a manual readiness notify, so shutdown latency is bounded by
/// a scheduler hop, not by the next incoming connection.
async fn accept_task(state: Arc<ServerState>, listener: TcpListener, reg: Registration) {
    loop {
        if state.shutting_down.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                spawn_connection(&state, stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => reg.readable().await,
            // Transient per-connection accept failures (e.g. the peer
            // aborted before we got to it): keep accepting.
            Err(_) => {}
        }
    }
}

fn spawn_connection<S: Stream>(state: &Arc<ServerState>, stream: S) {
    let (Ok(reg), Ok(write_half), Ok(close_handle)) =
        (stream.register(), stream.try_split(), stream.try_split())
    else {
        stream.close();
        return;
    };
    // The record's close hook is shared across threads; `Stream` does
    // not require `Sync`, so the handle travels in a mutex.
    let close_handle = Mutex::new(close_handle);
    let (push_tx, pushes) = mpsc::unbounded();
    let conn = Arc::new(Conn {
        sessions: Mutex::default(),
        push_tx,
        close: Box::new(move || close_handle.lock().unwrap_or_else(|e| e.into_inner()).close()),
        watch: Mutex::default(),
        ack_cv: Condvar::new(),
    });
    // The list stays locked until the entry is in, so fan-out sees the
    // connection before its task can answer a Subscribe.
    let mut conns = state.conns();
    // Reap connections whose tasks have already finished — without this
    // a long-running server accepting many short-lived connections would
    // accumulate one entry apiece.
    conns.retain(|conn| !conn.task.is_finished());
    let connection = Connection {
        state: Arc::clone(state),
        conn: Arc::clone(&conn),
        reader: NbReader::new(stream, reg.clone()),
        writer: NbWriter::new(write_half, reg.clone()),
        reg,
        pushes,
        slots: KeySlots::default(),
        greeted: false,
        reading: true,
        owed: VecDeque::new(),
    };
    let task = Reactor::global().spawn(connection.serve());
    conns.push(ConnEntry { conn: Arc::downgrade(&conn), task });
}

/// One connection's task, which owns the socket in both directions and
/// runs on the reactor's loop.
struct Connection<S> {
    state: Arc<ServerState>,
    conn: Arc<Conn>,
    reader: NbReader<S>,
    writer: NbWriter<S>,
    /// The stream's reactor registration, shared with `reader` and
    /// `writer`.
    reg: Registration,
    pushes: mpsc::UnboundedReceiver<Frame>,
    slots: KeySlots,
    greeted: bool,
    /// Cleared by EOF, a transport error or a refusal; the answers still
    /// owed are written after it.
    reading: bool,
    /// Answers owed in request order, headed by a dispatcher reply not
    /// yet produced. While any are owed, checks queue behind them, so
    /// effects keep arrival order (a job's oneshot orders its effects
    /// before its reply).
    owed: VecDeque<(Option<u64>, Owed)>,
}

impl<S: Stream> Connection<S> {
    async fn serve(mut self) {
        let _ = poll_fn(|cx| self.poll_turns(cx)).await;
        // The conversation is over, however it ended: no more pushes, and
        // any fan-out still waiting on this connection's ack fails now.
        // Whatever was queued still goes out; the record, sessions
        // included, goes with its last holder.
        self.conn.mark_closed();
        self.state.metrics.key_slots.fetch_sub(self.slots.len() as u64, Ordering::Relaxed);
        let _ = self.writer.flush().await;
        (self.conn.close)();
    }

    /// Runs turns until nothing is left to read or write (`Ok`) or the
    /// connection fails (`Err`). Each turn reads once and handles every
    /// frame that read completed, then queues the pushes that arrived and
    /// every answer owed up to the first reply not yet produced, and
    /// writes them all at once. It parks when no read found bytes and no
    /// readiness edge is left to act on: the wakers then wait on the push
    /// lane, the head reply, a readable edge and, while a write is
    /// unfinished, a writable edge. The dispatcher may be blocked on this
    /// connection's push ack, so pushes and reads are always waited on.
    fn poll_turns(&mut self, cx: &mut Context<'_>) -> Poll<Result<(), ()>> {
        let max = self.state.config.max_frame_len;
        loop {
            let mut again = self.reading && self.read(cx)?;
            while let Poll::Ready(push) = Pin::new(&mut self.pushes.recv()).poll(cx) {
                let push = push.expect("the connection's record holds a push-lane sender");
                self.writer.queue_frame(&push, max).map_err(drop)?;
            }
            self.settle(cx)?;
            if self.writer.queued() > 0 && !self.writer.try_flush().map_err(drop)? {
                again |= Pin::new(&mut self.reg.writable()).poll(cx).is_ready();
            }
            if !self.reading && self.owed.is_empty() && self.writer.queued() == 0 {
                return Poll::Ready(Ok(()));
            }
            if !again {
                return Poll::Pending;
            }
        }
    }

    /// One read once the stream is readable, then every whole frame
    /// buffered. `Ok(true)` when the read found bytes, so the next
    /// attempt must not wait.
    fn read(&mut self, cx: &mut Context<'_>) -> Result<bool, ()> {
        let max = self.state.config.max_frame_len;
        match self.reader.poll_fill(cx, max) {
            Poll::Pending => return Ok(false),
            // Clean EOF, or a truncated frame / transport error: either
            // way the conversation is over and there is nobody to answer.
            Poll::Ready(Ok(0) | Err(_)) => {
                self.stop_reading();
                return Ok(false);
            }
            Poll::Ready(Ok(_)) => {}
        }
        // A request read ahead while coalescing checks; handled next.
        let mut carried = None;
        while self.reading {
            let inbound = match carried.take() {
                Some(inbound) => inbound,
                None => match self.reader.frames.next_frame(max) {
                    None => break,
                    Some(Ok(frame)) => decode_inbound(frame, self.greeted.then_some(&self.slots)),
                    Some(Err(e)) => {
                        let code = match e {
                            FrameError::Oversized { .. } => code::FRAME_TOO_LARGE,
                            _ => code::MALFORMED,
                        };
                        self.refuse(None, code, e.to_string())?;
                        break;
                    }
                },
            };
            carried = self.handle(inbound, cx)?;
        }
        Ok(true)
    }

    /// Answers one request here, or queues it to the dispatcher. Returns
    /// a request read ahead while coalescing checks.
    fn handle(&mut self, inbound: Inbound, cx: &mut Context<'_>) -> Result<Option<Inbound>, ()> {
        let (id, work) = match inbound {
            Ok(request) => request,
            // Unusable envelopes, unknown tags, undecodable payloads and
            // bad key slots are answered and the conversation continues —
            // the frame boundary is intact, so the stream is in sync.
            Err((id, refusal)) => return self.answer(id, refusal.response()).map(|()| None),
        };
        match work {
            Work::Other(Request::Hello { version }) if version == PROTOCOL_VERSION => {
                self.greeted = true;
                self.answer(id, Response::HelloOk { version })?;
            }
            Work::Other(Request::Hello { version }) => {
                let message =
                    format!("client speaks version {version}, server speaks {PROTOCOL_VERSION}");
                self.refuse(id, code::UNSUPPORTED_VERSION, message)?;
            }
            _ if !self.greeted => {
                self.refuse(id, code::HANDSHAKE_REQUIRED, "first frame must be Hello".into())?;
            }
            // Subscription traffic is handled here, never queued: the
            // dispatcher can be *blocked inside a mutation* waiting for
            // this very connection's ack, so an ack routed through the
            // job queue would deadlock behind the mutation it completes.
            // Only the watched tenant changes: the connection's `seq` and
            // the acks it still owes carry over.
            Work::Other(Request::Subscribe { tenant }) => {
                self.conn.watch().tenant = Some(tenant);
                self.answer(id, Response::Subscribed)?;
            }
            // Acks answer pushes; they get no response of their own.
            Work::Other(Request::PushAck { seq }) => self.conn.record_ack(seq),
            // A bind touches only this connection's slot table, so it is
            // answered here and never queued: the checks read after it
            // resolve under the new key, those read before it already
            // hold the old one.
            Work::Other(Request::BindKey { slot, tenant, task, context }) => {
                let response = match self.slots.bind(slot, tenant, &task, &context) {
                    Ok(fresh) => {
                        if fresh {
                            self.state.metrics.key_slots.fetch_add(1, Ordering::Relaxed);
                        }
                        Response::KeyBound { slot }
                    }
                    Err(refusal) => refusal.response(),
                };
                self.answer(id, response)?;
            }
            Work::Check(check) => {
                // With every reply already produced taken, nothing owed
                // means nothing of this connection's is waiting on the
                // dispatcher, so the check cannot overtake an effect.
                self.settle(cx)?;
                if self.owed.is_empty() {
                    return self.answer_checks(id, check);
                }
                self.dispatch(id, Work::Check(check))?;
            }
            // Reads are answered here under the rule checks follow: a
            // lookup and a clone, or atomics under the tenants read lock.
            Work::Other(request @ (Request::FetchPolicy { .. } | Request::Stats { .. })) => {
                self.settle(cx)?;
                if !self.owed.is_empty() {
                    return self.dispatch(id, Work::Other(request)).map(|()| None);
                }
                self.state.metrics.requests.fetch_add(1, Ordering::Relaxed);
                let response = execute(&self.state, &request);
                self.answer(id, response)?;
            }
            work => self.dispatch(id, work)?,
        }
        Ok(None)
    }

    /// Queues `work` to the dispatcher, never awaiting it: the connection
    /// keeps reading (PushAcks above all) while the dispatcher works.
    fn dispatch(&mut self, id: Option<u64>, work: Work) -> Result<(), ()> {
        let (reply, answer) = oneshot::channel();
        if self.state.jobs.send(Some(Job { work, conn: Arc::clone(&self.conn), reply })).is_err() {
            // The dispatcher is gone: the server is shutting down.
            return self.refuse(id, code::SHUTTING_DOWN, "server is shutting down".into());
        }
        self.owed.push_back((id, Owed::Pending(answer)));
        Ok(())
    }

    /// Queues an answer this task produced, behind every answer owed.
    fn answer(&mut self, id: Option<u64>, response: Response) -> Result<(), ()> {
        if !self.owed.is_empty() {
            self.owed.push_back((id, Owed::Ready(response)));
            return Ok(());
        }
        emit(&mut self.writer, &response, id, self.state.config.max_frame_len)
    }

    /// Answers with a typed error and stops reading: how a connection
    /// ends a conversation it cannot continue. The answers still owed
    /// are written, this one last, and then the connection closes.
    fn refuse(&mut self, id: Option<u64>, code: u16, message: String) -> Result<(), ()> {
        self.stop_reading();
        self.answer(id, Response::Error { code, message })
    }

    /// A connection that reads no more can never ack a push, so fan-out
    /// stops waiting on it now.
    fn stop_reading(&mut self) {
        self.reading = false;
        self.conn.mark_closed();
    }

    /// Queues the owed answers, in order, up to the first reply the
    /// dispatcher has not produced yet.
    fn settle(&mut self, cx: &mut Context<'_>) -> Result<(), ()> {
        while let Some((id, owed)) = self.owed.pop_front() {
            let response = match owed {
                Owed::Ready(response) => response,
                Owed::Pending(mut reply) => match Pin::new(&mut reply).poll(cx) {
                    // `Err`: the dispatcher dropped the job (shutdown
                    // mid-flight); nothing is left to say.
                    Poll::Ready(answer) => answer.map_err(drop)?.0,
                    Poll::Pending => {
                        self.owed.push_front((id, Owed::Pending(reply)));
                        break;
                    }
                },
            };
            emit(&mut self.writer, &response, id, self.state.config.max_frame_len)?;
        }
        Ok(())
    }

    /// Answers a check here, together with the checks under the same
    /// policy key already buffered behind it (no I/O is awaited), as one
    /// group. Returns the first buffered request that did not join.
    fn answer_checks(
        &mut self,
        id: Option<u64>,
        first: CheckRequest,
    ) -> Result<Option<Inbound>, ()> {
        let max = self.state.config.max_frame_len;
        let mut group = CheckGroup::open(id, first);
        let mut carried = None;
        while group.pending.len() < MAX_BATCH {
            // A framing error stays in the reader for `read` to meet.
            let Some(Ok(frame)) = self.reader.frames.next_frame(max) else { break };
            // A bind ends the group before the next frame is decoded, so
            // every keyed check resolves against the binds read before it.
            match decode_inbound(frame, Some(&self.slots)) {
                Ok((id, Work::Check(next))) if group.admits(&next) => {
                    group.push(id, next.calls, next.single)
                }
                other => {
                    carried = Some(other);
                    break;
                }
            }
        }
        self.state.metrics.batches.fetch_add(1, Ordering::Relaxed);
        self.state.metrics.requests.fetch_add(group.pending.len() as u64, Ordering::Relaxed);
        for (id, response) in answer_group(&self.state, &self.conn, group) {
            emit(&mut self.writer, &response, id, max)?;
        }
        Ok(carried)
    }
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
/// the push (closed push lane, encode failure, ack timeout) is
/// force-closed: its client observes the disconnect and flushes its
/// whole cache, which is the fail-closed end of the same guarantee.
///
/// Push frames are never enveloped (they answer no request) and travel
/// the out-of-band lane into each connection's task, which services
/// that lane even while a correlated response is pending.
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
/// behind both the connection task and the dispatcher. The connection's
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

/// The dispatcher thread: takes the queued jobs one at a time, in
/// arrival order, and answers each through its oneshot before it takes
/// the next, until told to stop.
fn dispatch(state: &ServerState, jobs: &std::sync::mpsc::Receiver<Option<Job>>) {
    while let Ok(Some(Job { work, conn, reply })) = jobs.recv() {
        state.metrics.batches.fetch_add(1, Ordering::Relaxed);
        state.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let answer = match work {
            // A check queued behind its connection's unanswered job: a
            // group of one, whose answer rides the oneshot, not an id.
            Work::Check(check) => {
                let group = CheckGroup::open(None, check);
                let answers = answer_group(state, &conn, group);
                (answers.into_iter().next().expect("a group of one has one answer").1, None)
            }
            Work::Other(request) => (execute(state, &request), Some(request)),
        };
        let _ = reply.send(answer);
    }
}

fn persistence_error(what: &str, e: JournalError) -> Response {
    Response::Error { code: code::PERSISTENCE, message: format!("{what}: {e}") }
}

/// Executes one mutating or admin request on the dispatcher, or a read
/// (`FetchPolicy`, `Stats`) on whichever side answers it.
fn execute(state: &ServerState, request: &Request) -> Response {
    let engine = &state.engine;
    match request {
        Request::Install { tenant, task, context, policy } => {
            let fingerprint = policy.fingerprint();
            let entries = policy.len() as u64;
            // The engine journals the reinstatement: a deliberately
            // reinstalled fingerprint is live (and restorable) again.
            if let Err(e) = engine.install(tenant, task, context, policy) {
                return persistence_error("install refused", e);
            }
            if let Some(daemon) = &state.daemon {
                daemon.on_installed(tenant, task, context, fingerprint);
            }
            Response::Installed { fingerprint, entries }
        }
        Request::FetchPolicy { tenant, task, context } => {
            let policy = engine
                .lookup(tenant, task, context)
                .map(|compiled| (*compiled.source_handle()).clone());
            Response::PolicyOk { policy }
        }
        Request::Flush { tenant } => {
            Response::Flushed { removed: engine.flush_tenant(tenant) as u64 }
        }
        // The engine journals the revoke before it sweeps. A revoke it
        // cannot journal is still applied in memory (fail closed), but
        // the client is told the durability guarantee does not hold.
        Request::Revoke { tenant, fingerprint } => {
            match engine.revoke_fingerprint(tenant, *fingerprint) {
                Ok(removed) => Response::Revoked { removed: removed as u64 },
                Err(e) => persistence_error("revocation applied in memory but not journaled", e),
            }
        }
        Request::Reload { tenant, task, context, policy } => {
            let fingerprint = policy.fingerprint();
            let entries = policy.len() as u64;
            let receipt = match engine.reload(tenant, task, context, policy) {
                Ok(receipt) => receipt,
                Err(e) => return persistence_error("reload refused", e),
            };
            if let Some(daemon) = &state.daemon {
                daemon.on_installed(tenant, task, context, fingerprint);
            }
            Response::Reloaded { old_fingerprint: receipt.old_fingerprint, fingerprint, entries }
        }
        Request::Snapshot { tenant } => match engine.store().export_snapshot(tenant) {
            Ok(snapshot) => {
                Response::SnapshotOk { entries: snapshot.entries as u64, snapshot: snapshot.bytes }
            }
            Err(e) => Response::Error { code: code::BAD_SNAPSHOT, message: e.to_string() },
        },
        // The engine gates the import on its own revocation journal and
        // refuses it outright when the journal cannot be read.
        Request::Restore { tenant, snapshot } => match engine.import_snapshot(tenant, snapshot) {
            Ok(report) => {
                if let Some(daemon) = &state.daemon {
                    daemon.register_tenant(tenant);
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
            counters: engine.tenant_counters(tenant),
            daemon: state.daemon.as_ref().map(|d| d.counters()),
            workers: 1,
        },
        Request::Shutdown => {
            state.initiate_shutdown();
            Response::ShuttingDown
        }
        // The connection task answers handshakes, subscription traffic
        // and key binds itself, and checks never arrive as `Work::Other`;
        // one reaching here is a server bug, not a client error.
        Request::Hello { .. } => Response::Error {
            code: code::MALFORMED,
            message: "Hello is handled during the handshake".into(),
        },
        Request::Subscribe { .. } | Request::PushAck { .. } | Request::BindKey { .. } => {
            Response::Error {
                code: code::MALFORMED,
                message: "subscription and key-slot frames are handled by the connection task"
                    .into(),
            }
        }
        Request::Check { .. } | Request::CheckBatch { .. } | Request::CheckKeyed { .. } => {
            unreachable!("checks are decoded as Work::Check")
        }
    }
}
