//! The pipelined asynchronous policy-decision client.
//!
//! The sync [`Client`](crate::Client) is strict request/response: one
//! frame out, one frame back, the calling thread parked in between. That
//! is the right shape for an agent loop screening one call at a time,
//! but it turns a busy multi-threaded caller into a convoy — every
//! request pays a full round trip of exclusive connection time.
//!
//! [`AsyncClient`] keeps **many requests in flight on one socket**. Each
//! request is wrapped in the wire v7 correlation envelope
//! ([`crate::wire::wrap_tagged`]) with a connection-unique id; a
//! background *demux task* (one per client, run on the reactor's event
//! loop, zero dedicated threads) reads response envelopes on the thread
//! that sees them arrive and completes the matching [`Pending`] by id.
//! Submitting is cheap — encode, stamp, write — so a caller can queue
//! dozens of checks and collect the verdicts afterwards, overlapping its
//! own work with the server's:
//!
//! ```
//! use std::sync::Arc;
//!
//! use conseca_core::{Policy, PolicyEntry, TrustedContext};
//! use conseca_engine::Engine;
//! use conseca_serve::{AsyncClient, ServeConfig, Server};
//! use conseca_shell::ApiCall;
//!
//! let server = Server::start(Arc::new(Engine::default()), ServeConfig::default());
//! let client = AsyncClient::over(server.connect_stream().expect("connect")).expect("handshake");
//!
//! let mut policy = Policy::new("t");
//! policy.set("ls", PolicyEntry::allow_any("listing is fine"));
//! let ctx = TrustedContext::for_user("alice");
//! client.install("acme", "t", &ctx, &policy).expect("submit").wait().expect("install");
//!
//! // Pipeline: all submitted before the first wait.
//! let pending: Vec<_> = (0..32)
//!     .map(|i| {
//!         let call = ApiCall::new("fs", "ls", vec![format!("/tmp/{i}")]);
//!         client.check("acme", "t", &ctx, &call).expect("submit")
//!     })
//!     .collect();
//! for p in pending {
//!     assert!(p.wait().expect("verdict").expect("policy installed").allowed);
//! }
//! server.shutdown();
//! ```
//!
//! A [`Pending`] is both a blocking handle (`wait`) and a [`Future`], so
//! the same client serves sync callers and async tasks.
//!
//! Checks name their policy key by a slot (wire v9): the client interns
//! each (tenant, task, context) it checks, binds it to a slot with a
//! `BindKey` in the same write as the key's first check, and from then
//! on sends only the slot. Interning and writing share one lock, so no
//! frame can name a slot before its bind is on the wire. The `KeyBound`
//! answers are not waited for: the client's own encoder produces every
//! bind, so a server can refuse one only for exceeding a frame cap below
//! the client's — and then it closes the connection, so no check is
//! ever judged behind a refused bind.
//!
//! The server binds trajectory session state to *(connection, policy
//! key)*, so a caller that spreads one key's checks across several
//! connections splits its budgets and ordering constraints into
//! independent pots. Keep each key on one client.
//!
//! # Ordering
//!
//! Responses complete in whatever order the server finishes them;
//! correlation ids — not arrival order — pair answers with requests.
//! Requests submitted from one thread are still *processed* in
//! submission order (the connection preserves frame order, and the
//! server never lets a check overtake an earlier request from the same
//! connection), so an `install` followed by pipelined `check`s behaves
//! exactly as the sync client would.
//!
//! # Push frames
//!
//! The demux task is also the connection core of
//! [`CachedClient`](crate::CachedClient), which hands it the client's
//! [`LocalPolicyCache`]. On a push frame the task applies the push to
//! that cache and only then acknowledges it; on exit it flushes the
//! cache before any request can observe [`ClientError::Closed`]. A plain
//! `AsyncClient` holds no cache, so if the connection is subscribed to a
//! tenant's invalidation channel (via a raw
//! [`request`](AsyncClient::request) with [`Request::Subscribe`]) the
//! demux task acknowledges pushes immediately: with nothing cached there
//! is nothing to invalidate, and a prompt ack keeps the server's
//! fan-out from stalling on us.
//!
//! The demux task runs on the loop, so it never waits for the socket's
//! writer: a submitter may hold it while parked on a full socket buffer,
//! and only the loop can deliver the edge that unparks it. The task
//! writes an ack itself when the writer is free, and otherwise leaves it
//! owed; whoever holds the writer writes every owed ack before letting
//! go. Acks are cumulative, so one ack covers every push before it.

use std::collections::{HashMap, VecDeque};
use std::future::{poll_fn, Future};
use std::net::TcpStream;
use std::pin::Pin;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::task::{Context, Poll};

use conseca_core::{Decision, Policy, TrustedContext};
use conseca_engine::EngineKey;
use conseca_shell::ApiCall;
use futures::channel::oneshot;
use futures::Reactor;

use crate::cache::LocalPolicyCache;
use crate::client::{
    flushed, hello_ok, installed, stats_ok, verdict_batch, verdict_one, ClientError,
    InstallReceipt, ResponseMap, ServerStats,
};
use crate::intern::{KeyInterner, KeyParts};
use crate::transport::{NbReader, NbWriter, Stream};
use crate::wire::{
    check_keyed_frame, install_frame, read_frame, unwrap_tagged, wrap_tagged, write_frame, Frame,
    Request, Response, WireError, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION, TAG_TAGGED_OK,
};

/// In-flight requests awaiting their correlated responses.
struct PendingState {
    slots: HashMap<u64, oneshot::Sender<Response>>,
    /// Submission order, for attributing a *bare* (un-enveloped) server
    /// error to the oldest in-flight request. Lazily compacted: ids
    /// whose slot already completed are skipped on pop.
    order: VecDeque<u64>,
    /// Set once the demux task exits; new submissions fail fast.
    closed: bool,
}

struct PendingMap {
    state: Mutex<PendingState>,
}

impl PendingMap {
    fn new() -> Arc<Self> {
        Arc::new(PendingMap {
            state: Mutex::new(PendingState {
                slots: HashMap::new(),
                order: VecDeque::new(),
                closed: false,
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PendingState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn insert(&self, id: u64, tx: oneshot::Sender<Response>) -> Result<(), ClientError> {
        let mut state = self.lock();
        if state.closed {
            return Err(ClientError::Closed);
        }
        state.slots.insert(id, tx);
        state.order.push_back(id);
        // The order queue is cleaned lazily; keep it proportional to the
        // genuinely in-flight set.
        if state.order.len() > state.slots.len() * 2 + 64 {
            let live: std::collections::HashSet<u64> = state.slots.keys().copied().collect();
            state.order.retain(|id| live.contains(id));
        }
        Ok(())
    }

    /// Routes a correlated response to its request.
    fn complete(&self, id: u64, response: Response) {
        if let Some(tx) = self.lock().slots.remove(&id) {
            let _ = tx.send(response);
        }
    }

    /// Routes a bare server error to the oldest in-flight request —
    /// correct because the server processes one connection's frames in
    /// order, so an answer it could not attribute belongs to the
    /// earliest question. Returns `false` if nothing was in flight.
    fn complete_oldest(&self, response: Response) -> bool {
        let mut state = self.lock();
        while let Some(id) = state.order.pop_front() {
            if let Some(tx) = state.slots.remove(&id) {
                let _ = tx.send(response);
                return true;
            }
        }
        false
    }

    /// Fails every in-flight request (their receivers observe
    /// [`ClientError::Closed`]) and refuses new ones.
    fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        state.slots.clear();
        state.order.clear();
    }
}

/// The connection's sending side: the socket's write half and the key
/// slots bound on it, under one lock, so a slot is interned and its
/// bind written in one step.
struct Outbound {
    writer: NbWriter<Box<dyn Stream>>,
    keys: KeyInterner,
}

/// What submitters and the demux task share to write to the socket.
struct Link {
    out: Mutex<Outbound>,
    /// The highest push `seq` applied and not yet queued for an ack; 0
    /// when none is owed.
    ack_owed: AtomicU64,
    max_frame_len: u32,
}

impl Link {
    /// Runs `queue` on the writer, then writes everything queued — owed
    /// acks included — before letting the writer go. Parks the calling
    /// thread while the socket buffer is full, so only submitters call
    /// it, never the demux task. A failed write leaves the stream
    /// unusable; the caller closes it.
    fn send<R>(&self, queue: impl FnOnce(&mut Outbound) -> R) -> (R, Result<(), ClientError>) {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let queued = queue(&mut out);
        loop {
            let written = self.queue_owed_ack(&mut out).and_then(|()| {
                // Parking (and `block_on`'s waker) only when the socket
                // pushes back.
                match out.writer.try_flush()? {
                    true => Ok(()),
                    false => Ok(futures::block_on(out.writer.flush())?),
                }
            });
            drop(out);
            // An ack owed while the writer was held was left to us (the
            // demux task's `try_lock` failed): look once more after
            // letting go.
            fence(Ordering::SeqCst);
            if written.is_err() || self.ack_owed.load(Ordering::Relaxed) == 0 {
                return (queued, written);
            }
            out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        }
    }

    fn queue_owed_ack(&self, out: &mut Outbound) -> Result<(), ClientError> {
        let seq = self.ack_owed.swap(0, Ordering::AcqRel);
        if seq == 0 {
            return Ok(());
        }
        let ack = Request::PushAck { seq }.encode_limited(self.max_frame_len)?;
        Ok(out.writer.queue_frame(&ack, self.max_frame_len)?)
    }

    /// The demux task's ack write, which never waits for the writer:
    /// `Ready(Ok)` once nothing owed is left to this task — written, or
    /// left to the submitter holding the writer. `Pending` parks on the
    /// writable edge, which no submitter can be parked on: parking there
    /// takes the writer, and this holds it.
    fn poll_acks(&self, cx: &mut Context<'_>) -> Poll<Result<(), ClientError>> {
        // Between recording the ack and trying the writer; pairs with the
        // fence in `send`, so a failed `try_lock` means the holder sees
        // the ack once it lets go.
        fence(Ordering::SeqCst);
        let mut out = match self.out.try_lock() {
            Ok(out) => out,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return Poll::Ready(Ok(())),
        };
        self.queue_owed_ack(&mut out)?;
        out.writer.poll_flush(cx).map_err(ClientError::from)
    }
}

/// A pipelined, correlation-id multiplexed policy-decision client. See
/// the [module docs](self) for the model; one instance is `Sync` — many
/// threads can submit on it concurrently, sharing the socket.
pub struct AsyncClient {
    link: Arc<Link>,
    pending: Arc<PendingMap>,
    next_id: AtomicU64,
    /// Closes the underlying stream out-of-band (wakes the demux task
    /// with EOF).
    closer: Box<dyn Fn() + Send + Sync>,
    demux: Mutex<Option<futures::JoinHandle<()>>>,
}

impl std::fmt::Debug for AsyncClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncClient").finish_non_exhaustive()
    }
}

impl AsyncClient {
    /// Connects over TCP and completes the handshake.
    ///
    /// # Errors
    ///
    /// Connection or handshake failures.
    pub fn connect(addr: &str) -> Result<AsyncClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        AsyncClient::over(stream)
    }

    /// Wraps an already-established stream (TCP or
    /// [`DuplexStream`](crate::transport::DuplexStream)) and completes
    /// the handshake.
    ///
    /// # Errors
    ///
    /// Handshake failures.
    pub fn over<S: Stream>(stream: S) -> Result<AsyncClient, ClientError> {
        AsyncClient::over_with(stream, DEFAULT_MAX_FRAME_LEN)
    }

    /// [`over`](Self::over) with a non-default frame cap; keep it in
    /// lockstep with the server's `ServeConfig::max_frame_len`.
    ///
    /// # Errors
    ///
    /// Handshake failures.
    pub fn over_with<S: Stream>(stream: S, max_frame_len: u32) -> Result<AsyncClient, ClientError> {
        AsyncClient::start(stream, max_frame_len, None)
    }

    /// Handshakes and spawns the demux task. With a `cache`, the task
    /// applies every push to it before acking, and flushes it before the
    /// connection reports [`ClientError::Closed`]: the core of
    /// [`CachedClient`](crate::CachedClient).
    pub(crate) fn start<S: Stream>(
        stream: S,
        max_frame_len: u32,
        cache: Option<Arc<LocalPolicyCache>>,
    ) -> Result<AsyncClient, ClientError> {
        // Handshake bare and blocking, before the stream is registered:
        // the very first response frame on a connection is the HelloOk
        // (or a typed refusal), and `read_frame` reads no further.
        let mut stream = stream;
        let hello = Request::Hello { version: PROTOCOL_VERSION }.encode_limited(max_frame_len)?;
        write_frame(&mut stream, &hello, max_frame_len)?;
        let frame = read_frame(&mut stream, max_frame_len)?.ok_or(ClientError::Closed)?;
        hello_ok(Response::decode(&frame)?)?;

        let reg = stream.register()?;
        let write_half: Box<dyn Stream> = Box::new(stream.try_split()?);
        let close_half = stream.try_split()?;
        let reader = NbReader::new(Box::new(stream) as Box<dyn Stream>, reg.clone());
        let link = Arc::new(Link {
            out: Mutex::new(Outbound {
                writer: NbWriter::new(write_half, reg),
                keys: KeyInterner::default(),
            }),
            ack_owed: AtomicU64::new(0),
            max_frame_len,
        });

        let pending = PendingMap::new();
        let demux = Reactor::global().spawn(demux_task(
            reader,
            Arc::clone(&link),
            Arc::clone(&pending),
            cache,
        ));
        let closer: Box<dyn Fn() + Send + Sync> = {
            let close_half = Mutex::new(close_half);
            Box::new(move || close_half.lock().unwrap_or_else(|e| e.into_inner()).close())
        };
        Ok(AsyncClient {
            link,
            pending,
            next_id: AtomicU64::new(1),
            closer,
            demux: Mutex::new(Some(demux)),
        })
    }

    /// Submits one raw request, returning a handle to its eventual
    /// response. The request goes out enveloped; the handle resolves
    /// when the correlated response arrives, however many other requests
    /// are in flight.
    ///
    /// # Errors
    ///
    /// Encoding failures (e.g. the request exceeds the frame cap) and a
    /// closed connection. A write that fails closes the connection, and
    /// the handle then resolves to [`ClientError::Closed`].
    pub fn request(&self, request: &Request) -> Result<Pending<Response>, ClientError> {
        self.submit(request, Ok)
    }

    pub(crate) fn submit<T>(
        &self,
        request: &Request,
        map: ResponseMap<T>,
    ) -> Result<Pending<T>, ClientError> {
        self.submit_with(None, |_, cap| request.encode_limited(cap), map)
    }

    /// Submits the request `build(slot, cap)` encodes under the frame
    /// cap, for the slot of `key` when the request names a policy key.
    /// A key new to the connection is bound in the same write, its
    /// `BindKey` ahead of the request.
    pub(crate) fn submit_with<T>(
        &self,
        key: Option<KeyParts<'_>>,
        build: impl FnOnce(u32, u32) -> Result<Frame, WireError>,
        map: ResponseMap<T>,
    ) -> Result<Pending<T>, ClientError> {
        let max = self.link.max_frame_len;
        // The inner frames must leave room for the 9-byte envelope
        // header, so the wrapped frames respect the shared cap.
        let cap = max.saturating_sub(9);
        let (tx, rx) = oneshot::channel();
        let (queued, written) = self.link.send(|out| {
            let (slot, bind) = out.keys.bind(key, cap)?;
            let request = build(slot, cap)?;
            // The bind gets an id but no slot in the pending map: its
            // `KeyBound` is dropped on arrival, and a bare error can only
            // ever be pinned on the request.
            let bind =
                bind.map(|bind| wrap_tagged(self.next_id.fetch_add(1, Ordering::Relaxed), &bind));
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            // Registered before the bytes leave: a response can never
            // race an absent slot.
            self.pending.insert(id, tx)?;
            let queued = bind
                .iter()
                .chain([&wrap_tagged(id, &request)])
                .try_for_each(|frame| out.writer.queue_frame(frame, max));
            if bind.is_some() {
                out.keys.set_bound(slot, true);
            }
            Ok::<_, ClientError>(queued.is_ok())
        });
        if !queued? || written.is_err() {
            // A failed write can leave part of a frame on the wire, so
            // the stream is unusable: close it. The demux task exits on
            // the close (flushing a cache first) and this request
            // resolves as `Closed`.
            (self.closer)();
        }
        Ok(Pending { rx, map })
    }

    /// Pipelined [`Client::check`](crate::Client::check): one policy
    /// decision for one call; `Ok(None)` when no policy is installed for
    /// the key.
    ///
    /// # Errors
    ///
    /// Submission failures now; transport, protocol, or server errors at
    /// the [`Pending`].
    pub fn check(
        &self,
        tenant: &str,
        task: &str,
        context: &TrustedContext,
        call: &ApiCall,
    ) -> Result<Pending<Option<Decision>>, ClientError> {
        let (key, calls) = (Some((tenant, task, context)), std::slice::from_ref(call));
        self.submit_with(key, |slot, cap| check_keyed_frame(slot, calls, cap), verdict_one)
    }

    /// Pipelined [`Client::check_all`](crate::Client::check_all):
    /// decisions for a batch of calls against one policy key.
    ///
    /// # Errors
    ///
    /// Submission failures now; transport, protocol, or server errors at
    /// the [`Pending`].
    pub fn check_all(
        &self,
        tenant: &str,
        task: &str,
        context: &TrustedContext,
        calls: &[ApiCall],
    ) -> Result<Pending<Option<Vec<Decision>>>, ClientError> {
        let key = Some((tenant, task, context));
        self.submit_with(key, |slot, cap| check_keyed_frame(slot, calls, cap), verdict_batch)
    }

    /// The engine key for (tenant, task, context), through this
    /// connection's interner: no fingerprint once the key is known.
    pub(crate) fn key(&self, tenant: &str, task: &str, context: &TrustedContext) -> EngineKey {
        self.link.send(|out| out.keys.key(tenant, task, context)).0
    }

    /// Pipelined [`Client::install`](crate::Client::install).
    ///
    /// # Errors
    ///
    /// Submission failures now; transport, protocol, or server errors at
    /// the [`Pending`].
    pub fn install(
        &self,
        tenant: &str,
        task: &str,
        context: &TrustedContext,
        policy: &Policy,
    ) -> Result<Pending<InstallReceipt>, ClientError> {
        let build = |_, cap| install_frame(tenant, task, context, policy, cap);
        self.submit_with(None, build, installed)
    }

    /// Pipelined [`Client::flush`](crate::Client::flush): drops all of
    /// `tenant`'s policies, resolving to how many were removed.
    ///
    /// # Errors
    ///
    /// Submission failures now; transport, protocol, or server errors at
    /// the [`Pending`].
    pub fn flush(&self, tenant: &str) -> Result<Pending<u64>, ClientError> {
        self.submit(&Request::Flush { tenant: tenant.into() }, flushed)
    }

    /// Pipelined [`Client::stats_full`](crate::Client::stats_full):
    /// tenant counters, daemon counters, and the server's worker count.
    ///
    /// # Errors
    ///
    /// Submission failures now; transport, protocol, or server errors at
    /// the [`Pending`].
    pub fn stats_full(&self, tenant: &str) -> Result<Pending<ServerStats>, ClientError> {
        self.submit(&Request::Stats { tenant: tenant.into() }, stats_ok)
    }

    /// Closes the connection. Every unresolved [`Pending`] fails with
    /// [`ClientError::Closed`].
    pub fn close(self) {
        drop(self);
    }
}

impl Drop for AsyncClient {
    fn drop(&mut self) {
        (self.closer)();
        if let Some(demux) = self.demux.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = demux.join();
        }
    }
}

/// The demultiplexer: reads every frame the server sends and routes it —
/// correlated envelopes by id, pushes to the cache (if any) and then an
/// ack, bare errors to the oldest in-flight request. Exits on EOF,
/// transport error, or a protocol violation; exit flushes the cache and
/// then fails all in-flight requests (fail closed: an unattributable
/// stream is a dead stream, not a guessing game).
async fn demux_task(
    mut reader: NbReader<Box<dyn Stream>>,
    link: Arc<Link>,
    pending: Arc<PendingMap>,
    cache: Option<Arc<LocalPolicyCache>>,
) {
    let max_frame_len = link.max_frame_len;
    // Set while an ack may still be the task's to write.
    let mut acking = false;
    loop {
        let next = poll_fn(|cx| {
            if acking {
                match link.poll_acks(cx) {
                    Poll::Ready(Ok(())) => acking = false,
                    Poll::Ready(Err(e)) => return Poll::Ready(Err(e)),
                    Poll::Pending => {}
                }
            }
            reader.poll_frame(cx, max_frame_len).map_err(ClientError::from)
        });
        let frame = match next.await {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => break,
        };
        if frame.tag == TAG_TAGGED_OK {
            let Ok((id, inner)) = unwrap_tagged(&frame) else { break };
            let Ok(response) = Response::decode(&inner) else { break };
            pending.complete(id, response);
            continue;
        }
        match Response::decode(&frame) {
            Ok(
                push @ (Response::PushRevoke { seq, .. }
                | Response::PushReload { seq, .. }
                | Response::PushFlush { seq, .. }),
            ) => {
                // Applied before acked: once the server hears the ack
                // (and lets the mutation return), the stale snapshot is
                // gone from the cache. Acks are always bare, and go out
                // on the next poll above.
                if let Some(cache) = &cache {
                    cache.apply_push(&push);
                }
                link.ack_owed.fetch_max(seq, Ordering::SeqCst);
                acking = true;
            }
            Ok(response @ Response::Error { .. }) => {
                // A bare error answers a frame the server could not
                // attribute (it was followed by a close server-side for
                // framing errors; either way in-order processing pins it
                // on the oldest in-flight request).
                if !pending.complete_oldest(response) {
                    break;
                }
            }
            // Any other bare response frame is a protocol violation on a
            // connection that only ever sends enveloped requests.
            _ => break,
        }
    }
    // With the push channel gone nothing the cache holds can be proven
    // current: flush it before any request can observe `Closed`.
    if let Some(cache) = &cache {
        cache.flush_all();
    }
    pending.close();
}

/// A response that has been requested but may not have arrived: the
/// async client's half of one pipelined round trip. Block on it with
/// [`wait`](Self::wait) or `.await` it inside a task; drop it to ignore
/// the response (the request still executes server-side).
pub struct Pending<T> {
    rx: oneshot::Receiver<Response>,
    map: ResponseMap<T>,
}

impl<T> Pending<T> {
    /// Blocks the calling thread until the response arrives.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for typed server errors,
    /// [`ClientError::Closed`] if the connection died first, and
    /// [`ClientError::Unexpected`] for a response of the wrong type.
    pub fn wait(self) -> Result<T, ClientError> {
        let map = self.map;
        finish(map, futures::block_on(self.rx))
    }
}

fn finish<T>(
    map: ResponseMap<T>,
    raw: Result<Response, oneshot::Canceled>,
) -> Result<T, ClientError> {
    match raw {
        // Checked here too, so a raw `request` also surfaces typed errors.
        Ok(Response::Error { code, message }) => Err(ClientError::Server { code, message }),
        Ok(response) => map(response),
        Err(_) => Err(ClientError::Closed),
    }
}

impl<T> Future for Pending<T> {
    type Output = Result<T, ClientError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let map = this.map;
        Pin::new(&mut this.rx).poll(cx).map(|raw| finish(map, raw))
    }
}
