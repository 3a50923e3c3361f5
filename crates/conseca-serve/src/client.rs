//! The synchronous policy-decision client.
//!
//! One [`Client`] owns one connection and speaks strict
//! request/response: every method writes one request and reads its
//! response. (The protocol itself permits pipelining — responses come
//! back in request order — but the agent integration has no use for it,
//! and a sequential client keeps error attribution exact.) The one
//! exception is a check on a policy key new to the connection: the
//! key's `BindKey` (wire v9) goes out in the same write as the check,
//! and its `KeyBound` is read before the verdict. Answers are read
//! through one [`FrameDecoder`] kept across calls. An error that may
//! leave the stream out of step closes it, so every later call is
//! [`ClientError::Closed`], never an answer meant for another request.

use core::fmt;
use std::io;
use std::net::TcpStream;

use conseca_core::{Decision, Policy, TrustedContext};
use conseca_engine::TenantCounters;
use conseca_shell::ApiCall;

use crate::intern::{KeyInterner, KeyParts};
use crate::transport::Stream;
use crate::wire::{
    append_frame, check_keyed_frame, fetch_policy_frame, install_frame, reload_frame, Frame,
    FrameDecoder, FrameError, Request, Response, WireError, DEFAULT_MAX_FRAME_LEN, KEEP_BUF,
    PROTOCOL_VERSION,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (including mid-frame EOF: a truncated
    /// response).
    Io(io::Error),
    /// A response frame did not decode.
    Wire(WireError),
    /// The server answered with [`Response::Error`]; see
    /// [`code`](crate::wire::code).
    Server {
        /// Machine-readable error code.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// The server answered with a response of the wrong type for the
    /// request (a protocol bug on one side).
    Unexpected {
        /// What the client was waiting for.
        expected: &'static str,
    },
    /// The connection closed before a response arrived.
    Closed,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ClientError::Unexpected { expected } => {
                write!(f, "unexpected response (wanted {expected})")
            }
            ClientError::Closed => write!(f, "connection closed before the response"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            other => ClientError::Io(io::Error::new(io::ErrorKind::InvalidData, other.to_string())),
        }
    }
}

/// Receipt for an installed policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstallReceipt {
    /// [`Policy::fingerprint`] of what the server compiled.
    pub fingerprint: u64,
    /// Number of API entries the policy lists.
    pub entries: u64,
}

/// Receipt for a reloaded policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReloadReceipt {
    /// Fingerprint of the snapshot the reload displaced, if the key was
    /// live server-side.
    pub old_fingerprint: Option<u64>,
    /// [`Policy::fingerprint`] of the reloaded policy.
    pub fingerprint: u64,
    /// Number of API entries the reloaded policy lists.
    pub entries: u64,
}

/// A tenant snapshot exported by the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotReceipt {
    /// How many policy entries the snapshot records.
    pub entries: u64,
    /// The snapshot bytes — checksummed and self-describing; persist
    /// them as-is and hand them back to [`Client::restore`] (or load
    /// them into an engine with `Engine::import_snapshot`).
    pub snapshot: Vec<u8>,
}

/// What a server-side warm start did; counters partition the snapshot's
/// entries exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreReceipt {
    /// Entries re-compiled and installed.
    pub installed: u64,
    /// Entries skipped because their fingerprint was revoked after the
    /// snapshot was taken.
    pub skipped_revoked: u64,
    /// Entries skipped because the key was already live server-side.
    pub skipped_live: u64,
}

/// Everything a `StatsOk` frame reports, in one place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// The requested tenant's decision counters.
    pub counters: TenantCounters,
    /// Lifecycle-daemon counters, when the server runs one.
    pub daemon: Option<crate::daemon::DaemonCounters>,
    /// Threads the server runs of its own (its dispatcher's one; the
    /// process-wide event loop is not counted) — context for
    /// interpreting throughput numbers measured against this server.
    pub workers: u64,
}

/// How a client turns the response to one request kind into its typed
/// answer. Every client shares the table below, one mapper per kind.
pub(crate) type ResponseMap<T> = fn(Response) -> Result<T, ClientError>;

/// Defines one [`ResponseMap`]: the expected variant's value, the
/// server's typed error, or [`ClientError::Unexpected`].
macro_rules! response_map {
    ($name:ident: $variant:ident { $($fields:tt)* } -> $t:ty = $value:expr) => {
        pub(crate) fn $name(response: Response) -> Result<$t, ClientError> {
            match response {
                Response::$variant { $($fields)* } => Ok($value),
                Response::Error { code, message } => Err(ClientError::Server { code, message }),
                _ => Err(ClientError::Unexpected { expected: stringify!($variant) }),
            }
        }
    };
}

response_map!(hello_ok: HelloOk { .. } -> () = ());
response_map!(subscribed: Subscribed {} -> () = ());
response_map!(verdict_batch: VerdictBatch { decisions } -> Option<Vec<Decision>> = decisions);

/// The one decision a single-call `CheckKeyed` is answered with.
pub(crate) fn verdict_one(response: Response) -> Result<Option<Decision>, ClientError> {
    match verdict_batch(response)? {
        None => Ok(None),
        Some(decisions) => match <[Decision; 1]>::try_from(decisions) {
            Ok([decision]) => Ok(Some(decision)),
            Err(_) => Err(ClientError::Unexpected { expected: "VerdictBatch of one decision" }),
        },
    }
}
response_map!(installed: Installed { fingerprint, entries } -> InstallReceipt =
    InstallReceipt { fingerprint, entries });
response_map!(policy_ok: PolicyOk { policy } -> Option<Policy> = policy);
response_map!(revoked: Revoked { removed } -> u64 = removed);
response_map!(reloaded: Reloaded { old_fingerprint, fingerprint, entries } -> ReloadReceipt =
    ReloadReceipt { old_fingerprint, fingerprint, entries });
response_map!(snapshot_ok: SnapshotOk { entries, snapshot } -> SnapshotReceipt =
    SnapshotReceipt { entries, snapshot });
response_map!(restored: Restored { installed, skipped_revoked, skipped_live } -> RestoreReceipt =
    RestoreReceipt { installed, skipped_revoked, skipped_live });
response_map!(flushed: Flushed { removed } -> u64 = removed);
response_map!(stats_ok: StatsOk { counters, daemon, workers } -> ServerStats =
    ServerStats { counters, daemon, workers });
response_map!(shutting_down: ShuttingDown {} -> () = ());

/// A connected, handshaken policy-decision client.
pub struct Client {
    conn: Box<dyn Stream>,
    max_frame_len: u32,
    /// The key slots this connection has bound.
    keys: KeyInterner,
    /// The request's frames, written at once; kept across calls.
    out: Vec<u8>,
    answers: FrameDecoder,
    /// Cleared, and the stream closed, once it may be out of step.
    open: bool,
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client").finish_non_exhaustive()
    }
}

impl Client {
    /// Connects over TCP and completes the handshake.
    ///
    /// # Errors
    ///
    /// Connection or handshake failures.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Client::over(stream)
    }

    /// Wraps an already-established stream (TCP or
    /// [`DuplexStream`](crate::transport::DuplexStream)) and completes
    /// the handshake.
    ///
    /// # Errors
    ///
    /// Handshake failures ([`code::UNSUPPORTED_VERSION`](crate::wire::code::UNSUPPORTED_VERSION) among them).
    pub fn over<S: Stream>(stream: S) -> Result<Client, ClientError> {
        Client::over_with(stream, DEFAULT_MAX_FRAME_LEN)
    }

    /// [`over`](Self::over) with a non-default frame cap — raise it in
    /// lockstep with the server's `ServeConfig::max_frame_len` when
    /// legitimate payloads (large policies, snapshots) exceed the 1 MiB
    /// default.
    ///
    /// # Errors
    ///
    /// Handshake failures.
    pub fn over_with<S: Stream>(stream: S, max_frame_len: u32) -> Result<Client, ClientError> {
        let mut client = Client {
            conn: Box::new(stream),
            max_frame_len,
            keys: KeyInterner::default(),
            out: Vec::new(),
            answers: FrameDecoder::default(),
            open: true,
        };
        let hello = Request::Hello { version: PROTOCOL_VERSION };
        client.exchange(None, |_, cap| hello.encode_limited(cap), hello_ok)?;
        Ok(client)
    }

    /// The one wire loop: one request, answered on the caller's thread,
    /// so a one-at-a-time caller pays only the wire.
    ///
    /// `build(slot, cap)` encodes the request under the frame cap, for
    /// the slot of `key` when the request names a policy key, so an
    /// oversized request is a typed local error and nothing is written. A key new
    /// to the connection is bound in the same write, its `BindKey` ahead
    /// of the request. A refused bind is returned as the error (and the
    /// key binds again next time) once the request's own answer has been
    /// read, so the stream stays in step.
    ///
    /// A failed write, or an answer that cannot be read, framed or
    /// decoded, may leave the stream out of step: the client closes it,
    /// returns that error, and answers every later call `Closed`.
    fn exchange<T>(
        &mut self,
        key: Option<KeyParts<'_>>,
        build: impl FnOnce(u32, u32) -> Result<Frame, WireError>,
        map: ResponseMap<T>,
    ) -> Result<T, ClientError> {
        if !self.open {
            return Err(ClientError::Closed);
        }
        let max = self.max_frame_len;
        let (slot, bind) = self.keys.bind(key, max)?;
        let request = build(slot, max)?;
        for frame in bind.iter().chain([&request]) {
            append_frame(&mut self.out, frame, max)?;
        }
        let written = self.conn.write_all(&self.out).and_then(|()| self.conn.flush());
        self.out.clear();
        self.out.shrink_to(KEEP_BUF);
        if let Err(e) = written {
            return Err(self.fail(e.into()));
        }
        let mut bound = Ok(());
        if bind.is_some() {
            bound = match self.answer()? {
                Response::KeyBound { slot: bound } if bound == slot => Ok(()),
                Response::Error { code, message } => Err(ClientError::Server { code, message }),
                _ => Err(ClientError::Unexpected { expected: "KeyBound" }),
            };
            self.keys.set_bound(slot, bound.is_ok());
        }
        let answer = self.answer()?;
        bound?;
        map(answer)
    }

    /// The next answer off the stream, failing closed.
    fn answer(&mut self) -> Result<Response, ClientError> {
        let answer = match self.answers.read_frame(&mut self.conn, self.max_frame_len) {
            Ok(Some(frame)) => Response::decode(&frame).map_err(ClientError::Wire),
            Ok(None) => Err(ClientError::Closed),
            Err(e) => Err(e.into()),
        };
        answer.map_err(|e| self.fail(e))
    }

    /// Closes a stream that may be out of step, and passes `e` on.
    fn fail(&mut self, e: ClientError) -> ClientError {
        self.open = false;
        self.conn.close();
        e
    }

    /// One policy decision for one call. `Ok(None)` means no policy is
    /// installed for the key — generate one and [`install`](Self::install).
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn check(
        &mut self,
        tenant: &str,
        task: &str,
        context: &TrustedContext,
        call: &ApiCall,
    ) -> Result<Option<Decision>, ClientError> {
        let (key, calls) = (Some((tenant, task, context)), std::slice::from_ref(call));
        self.exchange(key, |slot, cap| check_keyed_frame(slot, calls, cap), verdict_one)
    }

    /// Decisions for a batch of calls against one policy key (one store
    /// lookup server-side, one [`Engine::resolve`]).
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    ///
    /// [`Engine::resolve`]: conseca_engine::Engine::resolve
    pub fn check_all(
        &mut self,
        tenant: &str,
        task: &str,
        context: &TrustedContext,
        calls: &[ApiCall],
    ) -> Result<Option<Vec<Decision>>, ClientError> {
        let key = Some((tenant, task, context));
        self.exchange(key, |slot, cap| check_keyed_frame(slot, calls, cap), verdict_batch)
    }

    /// Compiles and installs `policy` for (tenant, task, context) on the
    /// server, replacing any previous snapshot for the key.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors ([`code::BAD_POLICY`](crate::wire::code::BAD_POLICY) if a
    /// regex constraint fails to compile server-side).
    pub fn install(
        &mut self,
        tenant: &str,
        task: &str,
        context: &TrustedContext,
        policy: &Policy,
    ) -> Result<InstallReceipt, ClientError> {
        self.exchange(None, |_, cap| install_frame(tenant, task, context, policy, cap), installed)
    }

    /// Retrieves the source policy installed for (tenant, task, context),
    /// if any. Counts as a store lookup (hit or miss) against the tenant.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn fetch_policy(
        &mut self,
        tenant: &str,
        task: &str,
        context: &TrustedContext,
    ) -> Result<Option<Policy>, ClientError> {
        self.exchange(None, |_, cap| fetch_policy_frame(tenant, task, context, cap), policy_ok)
    }

    /// Revokes every snapshot `tenant` has installed whose source policy
    /// carries `fingerprint` (hot-reload: the trusted context the policy
    /// was generated against no longer holds). Once the response
    /// arrives, no check through this server can resolve the revoked
    /// snapshot; the swept keys fail closed until a
    /// [`reload`](Self::reload) or [`install`](Self::install) replaces
    /// them. Returns how many snapshots were removed.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn revoke(&mut self, tenant: &str, fingerprint: u64) -> Result<u64, ClientError> {
        let request = Request::Revoke { tenant: tenant.into(), fingerprint };
        self.exchange(None, |_, cap| request.encode_limited(cap), revoked)
    }

    /// Revoke-and-replace in one round-trip: atomically swaps `policy` in
    /// for (tenant, task, context) server-side and reports the
    /// fingerprint of whatever was displaced.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors ([`code::BAD_POLICY`](crate::wire::code::BAD_POLICY) if a
    /// regex constraint fails to compile server-side).
    pub fn reload(
        &mut self,
        tenant: &str,
        task: &str,
        context: &TrustedContext,
        policy: &Policy,
    ) -> Result<ReloadReceipt, ClientError> {
        self.exchange(None, |_, cap| reload_frame(tenant, task, context, policy, cap), reloaded)
    }

    /// Asks the server to export everything `tenant` has installed as a
    /// snapshot blob (the engine's checksummed persistence format).
    /// Persist the bytes as-is; a later [`restore`](Self::restore)
    /// warm-starts a server from them without resending every install.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors — including
    /// [`code::FRAME_TOO_LARGE`](crate::wire::code::FRAME_TOO_LARGE) if
    /// the snapshot exceeds the frame cap (raise it on both sides; see
    /// [`over_with`](Self::over_with)).
    pub fn snapshot(&mut self, tenant: &str) -> Result<SnapshotReceipt, ClientError> {
        let request = Request::Snapshot { tenant: tenant.into() };
        self.exchange(None, |_, cap| request.encode_limited(cap), snapshot_ok)
    }

    /// Warm-starts `tenant` on the server from snapshot bytes. The
    /// server verifies the blob fail-closed (checksum, versions, tenant,
    /// per-entry fingerprint binding), skips every fingerprint its
    /// engine's journal holds as revoked — a restore must not resurrect
    /// a policy revoked after the snapshot was taken — and leaves
    /// already-live keys to the newer install that got there first.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors
    /// ([`code::BAD_SNAPSHOT`](crate::wire::code::BAD_SNAPSHOT) for a
    /// blob that fails verification,
    /// [`code::PERSISTENCE`](crate::wire::code::PERSISTENCE) for an
    /// unreadable journal; either way nothing was installed).
    pub fn restore(
        &mut self,
        tenant: &str,
        snapshot: Vec<u8>,
    ) -> Result<RestoreReceipt, ClientError> {
        let request = Request::Restore { tenant: tenant.into(), snapshot };
        self.exchange(None, |_, cap| request.encode_limited(cap), restored)
    }

    /// Drops every policy installed for `tenant`, returning how many
    /// entries were removed.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn flush(&mut self, tenant: &str) -> Result<u64, ClientError> {
        let request = Request::Flush { tenant: tenant.into() };
        self.exchange(None, |_, cap| request.encode_limited(cap), flushed)
    }

    /// Reads `tenant`'s counters.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn stats(&mut self, tenant: &str) -> Result<TenantCounters, ClientError> {
        self.stats_full(tenant).map(|stats| stats.counters)
    }

    /// Reads everything the server's `StatsOk` carries: `tenant`'s
    /// counters, the lifecycle-daemon counters (`None` without a
    /// daemon), and the server's own thread count.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn stats_full(&mut self, tenant: &str) -> Result<ServerStats, ClientError> {
        let request = Request::Stats { tenant: tenant.into() };
        self.exchange(None, |_, cap| request.encode_limited(cap), stats_ok)
    }

    /// Asks the server to stop accepting new connections. This
    /// connection stays usable until closed.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        let request = Request::Shutdown;
        self.exchange(None, |_, cap| request.encode_limited(cap), shutting_down)
    }

    /// Closes the connection.
    pub fn close(self) {
        self.conn.close();
    }
}
