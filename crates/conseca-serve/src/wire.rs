//! The policy-decision wire protocol: frames, messages, and the binary
//! codec.
//!
//! The full specification lives in `docs/serving.md`; this module is its
//! reference implementation, and every frame type, field, and error code
//! here appears there. The short version:
//!
//! - Every message is one **frame**: a 4-byte big-endian length, a 1-byte
//!   tag, then `length - 1` bytes of payload. The length counts the tag.
//! - All integers are big-endian; strings are a `u32` byte length plus
//!   UTF-8 bytes; lists are a `u32` count plus elements; options are a
//!   presence byte (0/1) plus the value.
//! - A connection opens with a [`Request::Hello`] carrying
//!   [`PROTOCOL_VERSION`]; the server answers [`Response::HelloOk`] or an
//!   [`Response::Error`] with [`code::UNSUPPORTED_VERSION`] and closes.
//! - Decode failures are structured [`WireError`]s so the server can
//!   answer with the precise [`code`] instead of dropping the connection.
//! - Encode failures are structured too: [`Request::encode_limited`]
//!   enforces the peer's frame cap *while encoding*, and
//!   [`write_frame`] refuses to emit a frame over the cap — oversized
//!   messages surface as typed errors on the sending side, never as a
//!   silently wrapped length prefix the receiver chokes on.
//! - Every frame reader drives the one [`FrameDecoder`], blocking or
//!   not, and a framing failure either way is a [`FrameError`].
//!
//! The serialisation of the core types ([`conseca_core::Policy`],
//! [`conseca_core::TrustedContext`], [`conseca_shell::ApiCall`],
//! [`conseca_core::Decision`]) lives in [`conseca_core::codec`] — the
//! same codec the engine's policy snapshots persist, so there is exactly
//! one encoder and one fail-closed decoder at the trust boundary. The
//! codec round-trips every type exactly (property tests in
//! `tests/differential.rs` pin this down), which is what makes served
//! verdicts byte-identical to in-process ones.

use core::fmt;
use std::io::{self, Read, Write};

use conseca_core::codec::{self, Reader, Writer};
use conseca_core::{Decision, Policy, TrustedContext};
use conseca_engine::TenantCounters;
use conseca_shell::ApiCall;

pub use conseca_core::codec::{WireError, MAX_PREDICATE_DEPTH};

/// Protocol version spoken by this implementation. Bumped only for
/// incompatible frame-layout changes; new message tags within a version
/// are additive (receivers answer unknown tags with
/// [`code::UNKNOWN_TAG`]).
///
/// Version history: **9** added policy-key slots: a connection binds a
/// policy key once to a small client-chosen slot with
/// [`Request::BindKey`] (answered [`Response::KeyBound`]), and each later
/// [`Request::CheckKeyed`] names only the slot, so a check no longer
/// carries, and the server no longer decodes and fingerprints, a whole
/// trusted context; slots at or above [`MAX_KEY_SLOTS`] and slots with
/// nothing bound are answered [`code::BAD_SLOT`] (bumped so a v9 client
/// that binds keys fails fast at the handshake against a v8 server).
/// **8** dropped the `revoked` list from `Restore`:
/// the server's engine gates every restore on its own revocation
/// journal, so the request carries only `tenant` and `snapshot`. **7**
/// added the pipelining envelope: a client may
/// wrap any request in a `TAG_TAGGED`-framed envelope (an 8-byte
/// big-endian correlation id followed by the complete inner frame —
/// inner tag byte, then inner payload) and the server answers with the
/// same id in a `TAG_TAGGED_OK` envelope, enabling many in-flight
/// requests per connection with out-of-order-safe correlation (see
/// [`wrap_tagged`] / [`unwrap_tagged`]; envelopes never nest, and
/// server-initiated push frames are never enveloped — they answer no
/// request). v7 also extended `StatsOk` with the server's worker-thread
/// count (a payload change to an existing message, hence the bump).
/// Bare unenveloped requests remain fully supported — the handshake
/// itself and one-at-a-time sync clients stay untagged. **6** extended `StatsOk` with the optional
/// lifecycle-daemon counter block (sweep/snapshot-tick/journal totals —
/// a payload change to an existing message, hence the bump, exactly as
/// v2's counters extension was) and added the [`code::PERSISTENCE`]
/// error for operations refused because the durable revocation ledger
/// could not be written or replayed. **5** added the subscription/push invalidation
/// channel — the protocol's first **server-initiated** traffic: a client
/// sends [`Request::Subscribe`] once and thereafter the server may emit
/// unsolicited [`Response::PushRevoke`] / [`Response::PushReload`] /
/// [`Response::PushFlush`] frames (tag range `0x90..`) whenever the
/// engine invalidates policies, each acknowledged with
/// [`Request::PushAck`] (bumped because a subscribed client's reader
/// must demultiplex unsolicited push frames from correlated responses —
/// a v4 client would misattribute a push as the answer to its pending
/// request). **4** extended the policy payload with the
/// trajectory block (call budgets, per-API rate limits, sliding-window
/// limits, ordering rules, sequence rules — codec version 2) and the
/// decision payload with the `WindowRateLimited`/`OrderForbidden`
/// violations; servers also began holding per-connection trajectory
/// sessions, so a connection's checks advance its own budgets (bumped
/// because both `Install`/`Reload`/`PolicyOk` and `Verdict` payloads
/// changed layout). **3** added the `Snapshot`/`Restore` persistence
/// messages and encode-side frame-cap enforcement with the
/// [`code::FRAME_TOO_LARGE`]-overridable limit (bumped so a client that
/// depends on snapshot support fails fast against older servers). **2**
/// extended the `counters` encoding with the `reloads`/`revoked` totals
/// (a payload change to `StatsOk`, hence the bump) and added the
/// `Revoke`/`Reload` hot-reload messages. **1** was the initial
/// protocol.
pub const PROTOCOL_VERSION: u16 = 9;

/// Default cap on `length` (tag + payload) a peer will accept. Frames
/// above the cap are answered with [`code::FRAME_TOO_LARGE`] and the
/// connection is closed (the oversized payload is never read). Both
/// sides can raise the cap, which is the sanctioned path for
/// oversized-but-legitimate payloads such as large policy snapshots
/// (see `docs/serving.md` §2): the server through
/// [`ServeConfig::max_frame_len`](crate::ServeConfig::max_frame_len), a
/// client through [`Client::over_with`](crate::Client::over_with),
/// [`AsyncClient::over_with`](crate::AsyncClient::over_with) or
/// [`CachedClient::over_with`](crate::CachedClient::over_with).
pub const DEFAULT_MAX_FRAME_LEN: u32 = 1 << 20;

/// Key slots one connection may bind (v9): a [`Request::BindKey`] or
/// [`Request::CheckKeyed`] naming a slot at or above this is answered
/// [`code::BAD_SLOT`]. A client that needs more keys rebinds slots.
pub const MAX_KEY_SLOTS: u32 = 1024;

/// Error codes carried by [`Response::Error`].
pub mod code {
    /// The `Hello` version is not spoken by this server; connection closes.
    pub const UNSUPPORTED_VERSION: u16 = 1;
    /// A request arrived before `Hello`; connection closes.
    pub const HANDSHAKE_REQUIRED: u16 = 2;
    /// The payload did not decode (truncated fields, trailing bytes, bad
    /// UTF-8, unknown enum discriminant, over-deep predicate). Connection
    /// stays open.
    pub const MALFORMED: u16 = 3;
    /// The frame tag names no request this version knows. Connection
    /// stays open.
    pub const UNKNOWN_TAG: u16 = 4;
    /// The frame length exceeds the receiver's cap (or a response would
    /// exceed it at encode time). Connection closes on receive;
    /// oversized *responses* are reported on a connection that stays
    /// open.
    pub const FRAME_TOO_LARGE: u16 = 5;
    /// An installed policy failed compilation (a regex constraint did not
    /// compile). Connection stays open.
    pub const BAD_POLICY: u16 = 6;
    /// The server is shutting down and no longer accepts work.
    pub const SHUTTING_DOWN: u16 = 7;
    /// A `Restore` payload failed snapshot verification (corruption,
    /// checksum or version mismatch, tenant mismatch, fingerprint
    /// binding). Nothing was installed; connection stays open.
    pub const BAD_SNAPSHOT: u16 = 8;
    /// The durable revocation ledger could not be written or replayed,
    /// so the operation's durability (or its revocation gating) cannot
    /// be guaranteed. For a `Revoke` this means the in-memory
    /// revocation *was* applied but did not persist; for an `Install`,
    /// `Reload` or `Restore` nothing was installed (a restore must never
    /// run against a partial revocation set). Connection stays open.
    pub const PERSISTENCE: u16 = 9;
    /// A `CheckKeyed` named a slot this connection has bound no key to,
    /// or a `BindKey` or `CheckKeyed` named a slot at or above
    /// [`MAX_KEY_SLOTS`](super::MAX_KEY_SLOTS). Nothing was bound or
    /// checked; connection stays open.
    pub const BAD_SLOT: u16 = 10;
}

// Request tags.
pub(crate) const TAG_HELLO: u8 = 0x01;
pub(crate) const TAG_CHECK: u8 = 0x02;
pub(crate) const TAG_CHECK_BATCH: u8 = 0x03;
pub(crate) const TAG_INSTALL: u8 = 0x04;
pub(crate) const TAG_FETCH_POLICY: u8 = 0x05;
pub(crate) const TAG_FLUSH: u8 = 0x06;
pub(crate) const TAG_STATS: u8 = 0x07;
pub(crate) const TAG_SHUTDOWN: u8 = 0x08;
pub(crate) const TAG_REVOKE: u8 = 0x09;
pub(crate) const TAG_RELOAD: u8 = 0x0A;
pub(crate) const TAG_SNAPSHOT: u8 = 0x0B;
pub(crate) const TAG_RESTORE: u8 = 0x0C;
pub(crate) const TAG_SUBSCRIBE: u8 = 0x0D;
pub(crate) const TAG_PUSH_ACK: u8 = 0x0E;
/// v7 pipelining envelope (request direction): 8-byte big-endian
/// correlation id, then the complete inner frame (tag byte + payload).
/// Handled at the *frame* level — see [`wrap_tagged`] / [`unwrap_tagged`]
/// — so every enveloped request decodes with the ordinary
/// [`Request::decode`].
pub(crate) const TAG_TAGGED: u8 = 0x0F;
pub(crate) const TAG_BIND_KEY: u8 = 0x10;
pub(crate) const TAG_CHECK_KEYED: u8 = 0x11;

// Response tags.
pub(crate) const TAG_HELLO_OK: u8 = 0x81;
pub(crate) const TAG_VERDICT: u8 = 0x82;
pub(crate) const TAG_VERDICT_BATCH: u8 = 0x83;
pub(crate) const TAG_INSTALLED: u8 = 0x84;
pub(crate) const TAG_POLICY: u8 = 0x85;
pub(crate) const TAG_FLUSHED: u8 = 0x86;
pub(crate) const TAG_STATS_OK: u8 = 0x87;
pub(crate) const TAG_SHUTTING_DOWN: u8 = 0x88;
pub(crate) const TAG_REVOKED: u8 = 0x89;
pub(crate) const TAG_RELOADED: u8 = 0x8A;
pub(crate) const TAG_SNAPSHOT_OK: u8 = 0x8B;
pub(crate) const TAG_RESTORED: u8 = 0x8C;
pub(crate) const TAG_SUBSCRIBED: u8 = 0x8D;
pub(crate) const TAG_KEY_BOUND: u8 = 0x8E;
/// v7 pipelining envelope (response direction); the answer to a
/// [`TAG_TAGGED`] request, carrying the same correlation id.
pub(crate) const TAG_TAGGED_OK: u8 = 0x8F;
// Push tags (0x90 range): the only server-*initiated* frames in the
// protocol. They share the response direction (and decoder) with the
// correlated replies above, but a subscribed client's reader must
// demultiplex them by tag — they answer no outstanding request.
pub(crate) const TAG_PUSH_REVOKE: u8 = 0x90;
pub(crate) const TAG_PUSH_RELOAD: u8 = 0x91;
pub(crate) const TAG_PUSH_FLUSH: u8 = 0x92;
pub(crate) const TAG_ERROR: u8 = 0xFF;

/// One length-prefixed message as it travels the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message tag (request `0x01..=0x7F`, response `0x80..=0xFF`).
    pub tag: u8,
    /// Tag-specific payload bytes.
    pub payload: Vec<u8>,
}

/// The [`code`] a server reports for a decode failure.
pub trait WireErrorCode {
    /// Maps the failure to its wire error code.
    fn error_code(&self) -> u16;
}

impl WireErrorCode for WireError {
    fn error_code(&self) -> u16 {
        match self {
            WireError::UnknownTag(_) => code::UNKNOWN_TAG,
            WireError::BadRegex { .. } => code::BAD_POLICY,
            WireError::Oversized { .. } => code::FRAME_TOO_LARGE,
            _ => code::MALFORMED,
        }
    }
}

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum FrameError {
    /// Transport failure: on read, `UnexpectedEof` for a peer that closed
    /// mid-frame, and a non-blocking stream's `WouldBlock`.
    Io(io::Error),
    /// The frame's length (tag + payload) exceeds the cap. A frame read
    /// is refused before its payload is, and its connection must close;
    /// a frame written is refused before any byte goes out.
    Oversized {
        /// The frame's length, which on write may exceed `u32`.
        len: u64,
        /// The cap it exceeds.
        max: u32,
    },
    /// The announced length was zero — a frame must at least carry a tag.
    Empty,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O failed: {e}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Empty => write!(f, "zero-length frame (no tag byte)"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame: `u32` length (tag + payload), tag byte, payload.
///
/// The length is bound-checked against `max_len` *before* anything is
/// written (in widened arithmetic, so a payload near `u32::MAX` cannot
/// wrap into a corrupt prefix), and a frame the peer's cap would reject
/// is refused here with a typed [`FrameError::Oversized`] instead of
/// being encoded only to die on the other side.
///
/// # Errors
///
/// [`FrameError::Oversized`] or transport failures.
pub fn write_frame(w: &mut impl Write, frame: &Frame, max_len: u32) -> Result<(), FrameError> {
    // One contiguous write: one syscall (one TCP segment, one wake of a
    // duplex peer) per frame, not one per field.
    let mut buf = Vec::new();
    append_frame(&mut buf, frame, max_len)?;
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Appends one frame's wire bytes (length prefix, tag, payload) to
/// `buf`, bound-checking the length first; on error `buf` is untouched.
/// The one encoder behind every frame writer.
pub(crate) fn append_frame(
    buf: &mut Vec<u8>,
    frame: &Frame,
    max_len: u32,
) -> Result<(), FrameError> {
    let len = 1u64 + frame.payload.len() as u64;
    if len > max_len as u64 {
        return Err(FrameError::Oversized { len, max: max_len });
    }
    buf.reserve(4 + len as usize);
    buf.extend_from_slice(&(len as u32).to_be_bytes());
    buf.push(frame.tag);
    buf.extend_from_slice(&frame.payload);
    Ok(())
}

/// Reads one frame and no byte past it, so repeated calls read a raw
/// stream frame by frame: a [`FrameDecoder`] that lives for one frame.
///
/// # Errors
///
/// See [`FrameDecoder`].
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Option<Frame>, FrameError> {
    FrameDecoder { exact: true, ..FrameDecoder::default() }.read_frame(r, max_len)
}

/// Size a decoder's buffer starts at: a few typical frames.
const READ_BUF: usize = 4 * 1024;

/// Largest buffer an idle decoder or writer keeps; one grown past this
/// for a large frame is released once that frame is done.
pub(crate) const KEEP_BUF: usize = 64 * 1024;

/// The one frame decoder, behind every frame reader, so the framing
/// rules of `docs/serving.md` §2 are written once:
///
/// - a close at a frame boundary is `Ok(None)`;
/// - a close mid-length or mid-frame is [`FrameError::Io`] with
///   `UnexpectedEof`;
/// - a zero length is [`FrameError::Empty`];
/// - a length over the cap is [`FrameError::Oversized`], before any
///   payload is read.
///
/// A read takes in as many bytes as the buffer holds, which starts at
/// 4 KiB and grows only to fit the frame in progress, and every whole
/// frame buffered is handed out with no read at all. Over a blocking
/// stream [`read_frame`](Self::read_frame) blocks until a frame is
/// whole; a non-blocking stream's `WouldBlock` comes back as
/// [`FrameError::Io`], and the decoder keeps what it read for the next
/// call.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Bytes read but not yet handed out live in `buf[start..end]`.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Set when no read may take a byte past the frame in progress.
    exact: bool,
}

impl FrameDecoder {
    /// The next frame: one already whole in the buffer, else what reads
    /// from `r` complete.
    ///
    /// # Errors
    ///
    /// See the type docs.
    pub fn read_frame(
        &mut self,
        r: &mut impl Read,
        max_len: u32,
    ) -> Result<Option<Frame>, FrameError> {
        loop {
            if let Some(frame) = self.next_frame(max_len) {
                return frame.map(Some);
            }
            if self.fill(r, max_len)? == 0 {
                let what = match self.end - self.start {
                    0 => return Ok(None),
                    1..=3 => "connection closed mid-length",
                    _ => "connection closed mid-frame",
                };
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, what).into());
            }
        }
    }

    /// The next frame, if it is already whole in the buffer — no I/O.
    /// `None` means more bytes are needed. A bad length is reported (and
    /// left in place) as soon as its four bytes are in.
    pub(crate) fn next_frame(&mut self, max_len: u32) -> Option<Result<Frame, FrameError>> {
        let len = match self.announced_len(max_len)? {
            Ok(len) => len,
            Err(e) => return Some(Err(e)),
        };
        let body = self.buf[self.start..self.end].get(4..4 + len)?;
        let frame = Frame { tag: body[0], payload: body[1..].to_vec() };
        self.start += 4 + len;
        Some(Ok(frame))
    }

    /// The one length check, once the frame in progress has its four
    /// length bytes in.
    fn announced_len(&self, max_len: u32) -> Option<Result<usize, FrameError>> {
        let prefix = self.buf[self.start..self.end].get(..4)?;
        Some(match u32::from_be_bytes(prefix.try_into().expect("four bytes")) {
            0 => Err(FrameError::Empty),
            len if len > max_len => Err(FrameError::Oversized { len: len.into(), max: max_len }),
            len => Ok(len as usize),
        })
    }

    /// One read from `r` behind the buffered bytes, first making room
    /// for the whole frame in progress: `Ok(0)` is EOF. Call it only
    /// when [`next_frame`](Self::next_frame) has nothing to hand out.
    pub(crate) fn fill(&mut self, r: &mut impl Read, max_len: u32) -> io::Result<usize> {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        let frame = match self.announced_len(max_len) {
            Some(Ok(len)) => 4 + len,
            _ => 4,
        };
        let want = if self.exact { frame } else { frame.max(READ_BUF) };
        if self.buf.len() > want.max(KEEP_BUF) {
            self.buf.truncate(want);
            self.buf.shrink_to_fit();
        }
        if self.buf.len() < want {
            self.buf.resize(want, 0);
        }
        // Room is guaranteed: `want` bytes would have held a whole
        // frame, and `next_frame` would have taken it. An exact decoder
        // lives for one frame, so its buffer never outgrows that frame.
        debug_assert!(self.end < self.buf.len());
        loop {
            match r.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The buffer's size, read or not.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buf.len()
    }
}

// ------------------------------------------------- v7 pipelining envelope

/// Wraps a frame in a v7 pipelining envelope carrying correlation `id`.
///
/// The envelope direction follows the inner frame: requests (`0x01..`)
/// wrap as `TAG_TAGGED`, responses (`0x81..`) as `TAG_TAGGED_OK`. The
/// inner frame travels byte-identically (tag byte, then payload) after
/// the 8-byte big-endian id, so enveloping adds exactly 9 bytes and the
/// inner message decodes with the ordinary [`Request::decode`] /
/// [`Response::decode`].
pub fn wrap_tagged(id: u64, inner: &Frame) -> Frame {
    let mut payload = Vec::with_capacity(9 + inner.payload.len());
    payload.extend_from_slice(&id.to_be_bytes());
    payload.push(inner.tag);
    payload.extend_from_slice(&inner.payload);
    let tag = if inner.tag & 0x80 != 0 { TAG_TAGGED_OK } else { TAG_TAGGED };
    Frame { tag, payload }
}

/// Splits a v7 pipelining envelope into its correlation id and inner
/// frame. The caller has already matched the outer tag
/// (`TAG_TAGGED` / `TAG_TAGGED_OK`).
///
/// # Errors
///
/// [`WireError::Truncated`] when the payload is shorter than the 9-byte
/// envelope header (id + inner tag), and [`WireError::UnknownEnumTag`]
/// when the inner tag is itself an envelope — envelopes never nest.
pub fn unwrap_tagged(frame: &Frame) -> Result<(u64, Frame), WireError> {
    if frame.payload.len() < 9 {
        return Err(WireError::Truncated { what: "tagged.envelope" });
    }
    let mut id_bytes = [0u8; 8];
    id_bytes.copy_from_slice(&frame.payload[..8]);
    let inner_tag = frame.payload[8];
    if inner_tag == TAG_TAGGED || inner_tag == TAG_TAGGED_OK {
        return Err(WireError::UnknownEnumTag { what: "tagged.inner_tag", tag: inner_tag });
    }
    Ok((
        u64::from_be_bytes(id_bytes),
        Frame { tag: inner_tag, payload: frame.payload[9..].to_vec() },
    ))
}

// ---------------------------------------------------- shared field codecs

fn put_counters(w: &mut Writer, c: &TenantCounters) -> Result<(), WireError> {
    w.u64(c.hits, "counters.hits")?;
    w.u64(c.misses, "counters.misses")?;
    w.u64(c.checks, "counters.checks")?;
    w.u64(c.allowed, "counters.allowed")?;
    w.u64(c.denied, "counters.denied")?;
    w.u64(c.reloads, "counters.reloads")?;
    w.u64(c.revoked, "counters.revoked")
}

fn read_counters(r: &mut Reader<'_>) -> Result<TenantCounters, WireError> {
    Ok(TenantCounters {
        hits: r.u64("counters.hits")?,
        misses: r.u64("counters.misses")?,
        checks: r.u64("counters.checks")?,
        allowed: r.u64("counters.allowed")?,
        denied: r.u64("counters.denied")?,
        reloads: r.u64("counters.reloads")?,
        revoked: r.u64("counters.revoked")?,
    })
}

fn put_daemon_counters(
    w: &mut Writer,
    d: &Option<crate::daemon::DaemonCounters>,
) -> Result<(), WireError> {
    match d {
        None => w.u8(0, "daemon.present"),
        Some(d) => {
            w.u8(1, "daemon.present")?;
            w.u64(d.sweeps, "daemon.sweeps")?;
            w.u64(d.swept_reloaded, "daemon.swept_reloaded")?;
            w.u64(d.swept_orphaned, "daemon.swept_orphaned")?;
            w.u64(d.snapshot_ticks, "daemon.snapshot_ticks")?;
            w.u64(d.segments_written, "daemon.segments_written")?;
            w.u64(d.snapshot_skips, "daemon.snapshot_skips")?;
            w.u64(d.flush_markers, "daemon.flush_markers")?;
            w.u64(d.journal_records, "daemon.journal_records")?;
            w.u64(d.journal_compactions, "daemon.journal_compactions")?;
            w.u64(d.recovered_installed, "daemon.recovered_installed")?;
            w.u64(d.recovered_skipped_revoked, "daemon.recovered_skipped_revoked")?;
            w.u64(d.io_errors, "daemon.io_errors")
        }
    }
}

fn read_daemon_counters(
    r: &mut Reader<'_>,
) -> Result<Option<crate::daemon::DaemonCounters>, WireError> {
    match r.u8("daemon.present")? {
        0 => Ok(None),
        1 => Ok(Some(crate::daemon::DaemonCounters {
            sweeps: r.u64("daemon.sweeps")?,
            swept_reloaded: r.u64("daemon.swept_reloaded")?,
            swept_orphaned: r.u64("daemon.swept_orphaned")?,
            snapshot_ticks: r.u64("daemon.snapshot_ticks")?,
            segments_written: r.u64("daemon.segments_written")?,
            snapshot_skips: r.u64("daemon.snapshot_skips")?,
            flush_markers: r.u64("daemon.flush_markers")?,
            journal_records: r.u64("daemon.journal_records")?,
            journal_compactions: r.u64("daemon.journal_compactions")?,
            recovered_installed: r.u64("daemon.recovered_installed")?,
            recovered_skipped_revoked: r.u64("daemon.recovered_skipped_revoked")?,
            io_errors: r.u64("daemon.io_errors")?,
        })),
        other => Err(WireError::UnknownEnumTag { what: "daemon.present", tag: other }),
    }
}

/// Encodes a decision exactly as [`Response::Verdict`] carries it — the
/// byte string the differential tests compare served and in-process
/// verdicts with.
pub fn encode_decision(d: &Decision) -> Vec<u8> {
    let mut w = Writer::unbounded();
    codec::put_decision(&mut w, d).expect("decision exceeds the u32 representation limit");
    w.finish()
}

fn put_bind_key(
    w: &mut Writer,
    slot: u32,
    tenant: &str,
    task: &str,
    context: &TrustedContext,
) -> Result<(), WireError> {
    w.u32(slot, "bind_key.slot")?;
    w.str_(tenant, "bind_key.tenant")?;
    w.str_(task, "bind_key.task")?;
    codec::put_context(w, context)
}

fn put_check_keyed(w: &mut Writer, slot: u32, calls: &[ApiCall]) -> Result<(), WireError> {
    w.u32(slot, "check_keyed.slot")?;
    w.count(calls.len(), "check_keyed.calls")?;
    for call in calls {
        codec::put_call(w, call)?;
    }
    Ok(())
}

fn put_fetch_policy(
    w: &mut Writer,
    tenant: &str,
    task: &str,
    context: &TrustedContext,
) -> Result<(), WireError> {
    w.str_(tenant, "fetch.tenant")?;
    w.str_(task, "fetch.task")?;
    codec::put_context(w, context)
}

/// An `Install` or `Reload` body; `what` names the fields in errors.
fn put_policy_load(
    w: &mut Writer,
    what: [&'static str; 2],
    tenant: &str,
    task: &str,
    context: &TrustedContext,
    policy: &Policy,
) -> Result<(), WireError> {
    w.str_(tenant, what[0])?;
    w.str_(task, what[1])?;
    codec::put_context(w, context)?;
    codec::put_policy(w, policy)
}

const INSTALL_FIELDS: [&str; 2] = ["install.tenant", "install.task"];
const RELOAD_FIELDS: [&str; 2] = ["reload.tenant", "reload.task"];

/// A request frame whose payload `put` writes under the frame cap
/// `max_frame_len` (tag byte included).
fn request_frame(
    tag: u8,
    max_frame_len: u32,
    put: impl FnOnce(&mut Writer) -> Result<(), WireError>,
) -> Result<Frame, WireError> {
    let mut w = Writer::with_limit((max_frame_len as u64).saturating_sub(1));
    put(&mut w)?;
    Ok(Frame { tag, payload: w.finish() })
}

// The borrowed builders below produce exactly the frame the matching
// `Request` encodes to, so a client sends a key, context or policy it
// only borrows without first cloning it into a request.

/// The frame [`Request::BindKey`] encodes to.
pub(crate) fn bind_key_frame(
    slot: u32,
    tenant: &str,
    task: &str,
    context: &TrustedContext,
    max_frame_len: u32,
) -> Result<Frame, WireError> {
    request_frame(TAG_BIND_KEY, max_frame_len, |w| put_bind_key(w, slot, tenant, task, context))
}

/// The frame [`Request::CheckKeyed`] encodes to.
pub(crate) fn check_keyed_frame(
    slot: u32,
    calls: &[ApiCall],
    max_frame_len: u32,
) -> Result<Frame, WireError> {
    request_frame(TAG_CHECK_KEYED, max_frame_len, |w| put_check_keyed(w, slot, calls))
}

/// The frame [`Request::FetchPolicy`] encodes to.
pub(crate) fn fetch_policy_frame(
    tenant: &str,
    task: &str,
    context: &TrustedContext,
    max_frame_len: u32,
) -> Result<Frame, WireError> {
    request_frame(TAG_FETCH_POLICY, max_frame_len, |w| put_fetch_policy(w, tenant, task, context))
}

/// The frame [`Request::Install`] encodes to.
pub(crate) fn install_frame(
    tenant: &str,
    task: &str,
    context: &TrustedContext,
    policy: &Policy,
    max_frame_len: u32,
) -> Result<Frame, WireError> {
    request_frame(TAG_INSTALL, max_frame_len, |w| {
        put_policy_load(w, INSTALL_FIELDS, tenant, task, context, policy)
    })
}

/// The frame [`Request::Reload`] encodes to.
pub(crate) fn reload_frame(
    tenant: &str,
    task: &str,
    context: &TrustedContext,
    policy: &Policy,
    max_frame_len: u32,
) -> Result<Frame, WireError> {
    request_frame(TAG_RELOAD, max_frame_len, |w| {
        put_policy_load(w, RELOAD_FIELDS, tenant, task, context, policy)
    })
}

// --------------------------------------------------------------- messages

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens the conversation; must be the first frame on a connection.
    Hello {
        /// The protocol version the client speaks.
        version: u16,
    },
    /// One policy decision for one proposed call.
    Check {
        /// Tenant the check is billed to.
        tenant: String,
        /// Task text the policy is keyed by.
        task: String,
        /// Trusted context the policy is keyed by.
        context: TrustedContext,
        /// The proposed action.
        call: ApiCall,
    },
    /// Decisions for a batch of calls against one policy key.
    CheckBatch {
        /// Tenant the checks are billed to.
        tenant: String,
        /// Task text the policy is keyed by.
        task: String,
        /// Trusted context the policy is keyed by.
        context: TrustedContext,
        /// The proposed actions, judged in order.
        calls: Vec<ApiCall>,
    },
    /// Compiles and installs a policy for (tenant, task, context).
    Install {
        /// Owning tenant.
        tenant: String,
        /// Task text the policy is keyed by.
        task: String,
        /// Trusted context the policy is keyed by.
        context: TrustedContext,
        /// The policy to compile.
        policy: Policy,
    },
    /// Retrieves the source policy installed for (tenant, task, context).
    FetchPolicy {
        /// Owning tenant.
        tenant: String,
        /// Task text the policy is keyed by.
        task: String,
        /// Trusted context the policy is keyed by.
        context: TrustedContext,
    },
    /// Drops every policy installed for a tenant.
    Flush {
        /// The tenant to flush.
        tenant: String,
    },
    /// Reads a tenant's counters.
    Stats {
        /// The tenant to report on.
        tenant: String,
    },
    /// Asks the server to stop accepting connections (admin operation).
    Shutdown,
    /// Revokes every snapshot the tenant has installed whose source
    /// policy carries the fingerprint (hot-reload: the policy's trusted
    /// context no longer holds). Checks against swept keys fail closed
    /// until a `Reload`/`Install` replaces them.
    Revoke {
        /// The tenant whose snapshots are swept.
        tenant: String,
        /// Semantic fingerprint ([`Policy::fingerprint`]) to revoke.
        fingerprint: u64,
    },
    /// Revoke-and-replace in one step: atomically swaps the policy in
    /// for (tenant, task, context) and reports what was displaced.
    Reload {
        /// Owning tenant.
        tenant: String,
        /// Task text the policy is keyed by.
        task: String,
        /// The *current* trusted context the policy is keyed by.
        context: TrustedContext,
        /// The regenerated policy.
        policy: Policy,
    },
    /// Asks the server to serialise everything the tenant has installed
    /// into a snapshot blob (the engine's persistence format,
    /// `docs/persistence.md`) so the client can persist it and later
    /// warm-start a server without resending every install.
    Snapshot {
        /// The tenant to export.
        tenant: String,
    },
    /// Warm-starts the tenant from a snapshot blob: the server verifies,
    /// re-keys, and re-compiles every entry, skipping fingerprints its
    /// engine's journal holds as revoked (a restore must not resurrect a
    /// policy revoked after the snapshot was taken) and keys that are
    /// already live (a concurrent install wins).
    Restore {
        /// The tenant to warm-start; must match the snapshot's tenant.
        tenant: String,
        /// The snapshot bytes, exactly as `Snapshot` handed them out.
        snapshot: Vec<u8>,
    },
    /// Registers this connection for the tenant's invalidation pushes:
    /// from the [`Response::Subscribed`] ack onward the server emits a
    /// [`Response::PushRevoke`]/[`Response::PushReload`]/
    /// [`Response::PushFlush`] frame on this connection for every
    /// engine invalidation touching the tenant, and the mutating
    /// operation does not complete until the push is acknowledged.
    Subscribe {
        /// The tenant whose invalidations this connection wants.
        tenant: String,
    },
    /// Acknowledges one push frame by its sequence number: the client
    /// has applied the invalidation to its local cache, so no check it
    /// starts after this ack can use the invalidated snapshot.
    PushAck {
        /// The `seq` carried by the push frame being acknowledged.
        seq: u64,
    },
    /// Binds `slot` on this connection to the policy key of (tenant,
    /// task, context), replacing whatever the slot named before (v9).
    /// The server derives the key itself, exactly as for a `Check`.
    BindKey {
        /// The slot, below [`MAX_KEY_SLOTS`].
        slot: u32,
        /// Tenant the slot's checks are billed to.
        tenant: String,
        /// Task text the policy is keyed by.
        task: String,
        /// Trusted context the policy is keyed by.
        context: TrustedContext,
    },
    /// Decisions for a batch of calls against the policy key bound to
    /// `slot` (v9); answered [`Response::VerdictBatch`].
    CheckKeyed {
        /// A slot bound by an earlier `BindKey` on this connection.
        slot: u32,
        /// The proposed actions, judged in order.
        calls: Vec<ApiCall>,
    },
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The handshake succeeded; the server speaks `version`.
    HelloOk {
        /// The protocol version the server speaks.
        version: u16,
    },
    /// Answer to [`Request::Check`]. `None` means no policy is installed
    /// for the key (the caller should generate and install one).
    Verdict {
        /// The decision, when a policy was installed.
        decision: Option<Decision>,
    },
    /// Answer to [`Request::CheckBatch`] and [`Request::CheckKeyed`];
    /// `None` as in [`Response::Verdict`].
    VerdictBatch {
        /// Decisions in call order, when a policy was installed.
        decisions: Option<Vec<Decision>>,
    },
    /// Answer to [`Request::Install`].
    Installed {
        /// [`Policy::fingerprint`] of the installed policy.
        fingerprint: u64,
        /// Number of API entries the policy lists.
        entries: u64,
    },
    /// Answer to [`Request::FetchPolicy`].
    PolicyOk {
        /// The installed source policy, if any.
        policy: Option<Policy>,
    },
    /// Answer to [`Request::Flush`].
    Flushed {
        /// How many store entries were dropped.
        removed: u64,
    },
    /// Answer to [`Request::Stats`].
    StatsOk {
        /// The tenant's counters at the time of the request.
        counters: TenantCounters,
        /// Lifecycle-daemon counters, present when the server runs a
        /// [`LifecycleDaemon`](crate::daemon::LifecycleDaemon) (v6).
        daemon: Option<crate::daemon::DaemonCounters>,
        /// Dispatcher worker threads the server runs (v7) — the
        /// detected core count, floored at two.
        workers: u64,
    },
    /// Answer to [`Request::Shutdown`]; the server stops accepting new
    /// connections but serves existing ones until they close.
    ShuttingDown,
    /// Answer to [`Request::Revoke`].
    Revoked {
        /// How many store snapshots the sweep removed.
        removed: u64,
    },
    /// Answer to [`Request::Reload`].
    Reloaded {
        /// Fingerprint of the snapshot the reload displaced, if the key
        /// was live.
        old_fingerprint: Option<u64>,
        /// [`Policy::fingerprint`] of the reloaded policy.
        fingerprint: u64,
        /// Number of API entries the reloaded policy lists.
        entries: u64,
    },
    /// Answer to [`Request::Snapshot`].
    SnapshotOk {
        /// How many policy entries the snapshot records.
        entries: u64,
        /// The snapshot bytes (checksummed; opaque to the protocol).
        snapshot: Vec<u8>,
    },
    /// Answer to [`Request::Restore`]. The three counters partition the
    /// snapshot's entries exactly.
    Restored {
        /// Entries re-compiled and installed.
        installed: u64,
        /// Entries skipped because their fingerprint was in the
        /// request's revocation set.
        skipped_revoked: u64,
        /// Entries skipped because the key was already live.
        skipped_live: u64,
    },
    /// Answer to [`Request::Subscribe`]; invalidation pushes for the
    /// tenant flow on this connection from this frame onward.
    Subscribed,
    /// Answer to [`Request::BindKey`]: checks naming `slot` now judge
    /// against the bound key.
    KeyBound {
        /// The slot just bound.
        slot: u32,
    },
    /// **Server-initiated.** A fingerprint sweep
    /// (`Engine::revoke_fingerprint`) fired: the client must drop every
    /// cached snapshot whose source policy carries `fingerprint`, then
    /// answer [`Request::PushAck`] with `seq`.
    PushRevoke {
        /// Per-connection push sequence number to acknowledge.
        seq: u64,
        /// The tenant whose snapshots were swept.
        tenant: String,
        /// The revoked semantic fingerprint ([`Policy::fingerprint`]).
        fingerprint: u64,
    },
    /// **Server-initiated.** A policy was replaced
    /// (`Engine::reload`, or an `Install` that displaced a live
    /// snapshot): the client must drop its cached snapshot for the
    /// pushed (task, context) key unless it already holds the new
    /// policy, then answer [`Request::PushAck`] with `seq`. The key
    /// travels as fingerprints so the client can evict **by key** even
    /// when the server's own entry was already LRU-evicted.
    PushReload {
        /// Per-connection push sequence number to acknowledge.
        seq: u64,
        /// The tenant whose key was reloaded.
        tenant: String,
        /// Task-half of the store key (`CacheKey::task_fp`).
        task_fp: u64,
        /// Context-half of the store key (`CacheKey::context_fp`).
        context_fp: u64,
        /// [`Policy::fingerprint`] of the *replacement* policy.
        fingerprint: u64,
    },
    /// **Server-initiated.** The tenant was flushed
    /// (`Engine::flush_tenant`): the client must drop every cached
    /// snapshot for the tenant, then answer [`Request::PushAck`] with
    /// `seq`.
    PushFlush {
        /// Per-connection push sequence number to acknowledge.
        seq: u64,
        /// The flushed tenant.
        tenant: String,
    },
    /// The request failed; see [`code`] for the catalogue.
    Error {
        /// Machine-readable error code.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
}

impl Request {
    /// Encodes the request into a frame, enforcing `max_frame_len` (the
    /// peer's cap, tag byte included) while encoding: the first field
    /// that would push the frame over the cap aborts with
    /// [`WireError::Oversized`], so an oversized `Install` or `Restore`
    /// is a typed client-side error instead of a peer-side rejection
    /// after megabytes hit the wire.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`].
    pub fn encode_limited(&self, max_frame_len: u32) -> Result<Frame, WireError> {
        // The frame length counts the tag byte; the payload gets the rest.
        let mut w = Writer::with_limit((max_frame_len as u64).saturating_sub(1));
        let tag = match self {
            Request::Hello { version } => {
                w.u16(*version, "hello.version")?;
                TAG_HELLO
            }
            Request::Check { tenant, task, context, call } => {
                w.str_(tenant, "check.tenant")?;
                w.str_(task, "check.task")?;
                codec::put_context(&mut w, context)?;
                codec::put_call(&mut w, call)?;
                TAG_CHECK
            }
            Request::CheckBatch { tenant, task, context, calls } => {
                w.str_(tenant, "check_batch.tenant")?;
                w.str_(task, "check_batch.task")?;
                codec::put_context(&mut w, context)?;
                w.count(calls.len(), "check_batch.calls")?;
                for call in calls {
                    codec::put_call(&mut w, call)?;
                }
                TAG_CHECK_BATCH
            }
            Request::Install { tenant, task, context, policy } => {
                put_policy_load(&mut w, INSTALL_FIELDS, tenant, task, context, policy)?;
                TAG_INSTALL
            }
            Request::FetchPolicy { tenant, task, context } => {
                put_fetch_policy(&mut w, tenant, task, context)?;
                TAG_FETCH_POLICY
            }
            Request::Flush { tenant } => {
                w.str_(tenant, "flush.tenant")?;
                TAG_FLUSH
            }
            Request::Stats { tenant } => {
                w.str_(tenant, "stats.tenant")?;
                TAG_STATS
            }
            Request::Shutdown => TAG_SHUTDOWN,
            Request::Revoke { tenant, fingerprint } => {
                w.str_(tenant, "revoke.tenant")?;
                w.u64(*fingerprint, "revoke.fingerprint")?;
                TAG_REVOKE
            }
            Request::Reload { tenant, task, context, policy } => {
                put_policy_load(&mut w, RELOAD_FIELDS, tenant, task, context, policy)?;
                TAG_RELOAD
            }
            Request::Snapshot { tenant } => {
                w.str_(tenant, "snapshot.tenant")?;
                TAG_SNAPSHOT
            }
            Request::Restore { tenant, snapshot } => {
                w.str_(tenant, "restore.tenant")?;
                w.bytes(snapshot, "restore.snapshot")?;
                TAG_RESTORE
            }
            Request::Subscribe { tenant } => {
                w.str_(tenant, "subscribe.tenant")?;
                TAG_SUBSCRIBE
            }
            Request::PushAck { seq } => {
                w.u64(*seq, "push_ack.seq")?;
                TAG_PUSH_ACK
            }
            Request::BindKey { slot, tenant, task, context } => {
                put_bind_key(&mut w, *slot, tenant, task, context)?;
                TAG_BIND_KEY
            }
            Request::CheckKeyed { slot, calls } => {
                put_check_keyed(&mut w, *slot, calls)?;
                TAG_CHECK_KEYED
            }
        };
        Ok(Frame { tag, payload: w.finish() })
    }

    /// Encodes the request with only the `u32` representation limit —
    /// the convenience for tests and tools that construct frames
    /// directly. Production senders use
    /// [`encode_limited`](Self::encode_limited), which turns cap
    /// breaches into typed errors.
    ///
    /// # Panics
    ///
    /// Panics if the message cannot be represented in a frame at all
    /// (over `u32::MAX` bytes).
    pub fn encode(&self) -> Frame {
        self.encode_limited(u32::MAX).expect("message exceeds the u32 frame representation limit")
    }

    /// Decodes a request frame.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]; the server maps it to an error [`code`] via
    /// [`WireErrorCode::error_code`].
    pub fn decode(frame: &Frame) -> Result<Request, WireError> {
        let mut r = Reader::new(&frame.payload);
        let request = match frame.tag {
            TAG_HELLO => Request::Hello { version: r.u16("hello.version")? },
            TAG_CHECK => Request::Check {
                tenant: r.str_("check.tenant")?,
                task: r.str_("check.task")?,
                context: r.context()?,
                call: r.call()?,
            },
            TAG_CHECK_BATCH => {
                let tenant = r.str_("check_batch.tenant")?;
                let task = r.str_("check_batch.task")?;
                let context = r.context()?;
                let count = r.u32("check_batch.calls")? as usize;
                let mut calls = Vec::new();
                for _ in 0..count {
                    calls.push(r.call()?);
                }
                Request::CheckBatch { tenant, task, context, calls }
            }
            TAG_INSTALL => Request::Install {
                tenant: r.str_("install.tenant")?,
                task: r.str_("install.task")?,
                context: r.context()?,
                policy: r.policy()?,
            },
            TAG_FETCH_POLICY => Request::FetchPolicy {
                tenant: r.str_("fetch.tenant")?,
                task: r.str_("fetch.task")?,
                context: r.context()?,
            },
            TAG_FLUSH => Request::Flush { tenant: r.str_("flush.tenant")? },
            TAG_STATS => Request::Stats { tenant: r.str_("stats.tenant")? },
            TAG_SHUTDOWN => Request::Shutdown,
            TAG_REVOKE => Request::Revoke {
                tenant: r.str_("revoke.tenant")?,
                fingerprint: r.u64("revoke.fingerprint")?,
            },
            TAG_RELOAD => Request::Reload {
                tenant: r.str_("reload.tenant")?,
                task: r.str_("reload.task")?,
                context: r.context()?,
                policy: r.policy()?,
            },
            TAG_SNAPSHOT => Request::Snapshot { tenant: r.str_("snapshot.tenant")? },
            TAG_RESTORE => Request::Restore {
                tenant: r.str_("restore.tenant")?,
                snapshot: r.bytes("restore.snapshot")?.to_vec(),
            },
            TAG_SUBSCRIBE => Request::Subscribe { tenant: r.str_("subscribe.tenant")? },
            TAG_PUSH_ACK => Request::PushAck { seq: r.u64("push_ack.seq")? },
            TAG_BIND_KEY => Request::BindKey {
                slot: r.u32("bind_key.slot")?,
                tenant: r.str_("bind_key.tenant")?,
                task: r.str_("bind_key.task")?,
                context: r.context()?,
            },
            TAG_CHECK_KEYED => {
                let slot = r.u32("check_keyed.slot")?;
                let count = r.u32("check_keyed.calls")? as usize;
                let mut calls = Vec::new();
                for _ in 0..count {
                    calls.push(r.call()?);
                }
                Request::CheckKeyed { slot, calls }
            }
            tag => return Err(WireError::UnknownTag(tag)),
        };
        r.finish()?;
        Ok(request)
    }
}

impl Response {
    /// Encodes the response into a frame, enforcing `max_frame_len`
    /// exactly as [`Request::encode_limited`] does.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`].
    pub fn encode_limited(&self, max_frame_len: u32) -> Result<Frame, WireError> {
        let mut w = Writer::with_limit((max_frame_len as u64).saturating_sub(1));
        let tag = match self {
            Response::HelloOk { version } => {
                w.u16(*version, "hello_ok.version")?;
                TAG_HELLO_OK
            }
            Response::Verdict { decision } => {
                match decision {
                    None => w.bool_(false, "verdict.present")?,
                    Some(d) => {
                        w.bool_(true, "verdict.present")?;
                        codec::put_decision(&mut w, d)?;
                    }
                }
                TAG_VERDICT
            }
            Response::VerdictBatch { decisions } => {
                match decisions {
                    None => w.bool_(false, "verdict_batch.present")?,
                    Some(ds) => {
                        w.bool_(true, "verdict_batch.present")?;
                        w.count(ds.len(), "verdict_batch.count")?;
                        for d in ds {
                            codec::put_decision(&mut w, d)?;
                        }
                    }
                }
                TAG_VERDICT_BATCH
            }
            Response::Installed { fingerprint, entries } => {
                w.u64(*fingerprint, "installed.fingerprint")?;
                w.u64(*entries, "installed.entries")?;
                TAG_INSTALLED
            }
            Response::PolicyOk { policy } => {
                match policy {
                    None => w.bool_(false, "policy.present")?,
                    Some(p) => {
                        w.bool_(true, "policy.present")?;
                        codec::put_policy(&mut w, p)?;
                    }
                }
                TAG_POLICY
            }
            Response::Flushed { removed } => {
                w.u64(*removed, "flushed.removed")?;
                TAG_FLUSHED
            }
            Response::StatsOk { counters, daemon, workers } => {
                put_counters(&mut w, counters)?;
                put_daemon_counters(&mut w, daemon)?;
                w.u64(*workers, "stats_ok.workers")?;
                TAG_STATS_OK
            }
            Response::ShuttingDown => TAG_SHUTTING_DOWN,
            Response::Revoked { removed } => {
                w.u64(*removed, "revoked.removed")?;
                TAG_REVOKED
            }
            Response::Reloaded { old_fingerprint, fingerprint, entries } => {
                match old_fingerprint {
                    None => w.bool_(false, "reloaded.old_present")?,
                    Some(fp) => {
                        w.bool_(true, "reloaded.old_present")?;
                        w.u64(*fp, "reloaded.old_fingerprint")?;
                    }
                }
                w.u64(*fingerprint, "reloaded.fingerprint")?;
                w.u64(*entries, "reloaded.entries")?;
                TAG_RELOADED
            }
            Response::SnapshotOk { entries, snapshot } => {
                w.u64(*entries, "snapshot_ok.entries")?;
                w.bytes(snapshot, "snapshot_ok.snapshot")?;
                TAG_SNAPSHOT_OK
            }
            Response::Restored { installed, skipped_revoked, skipped_live } => {
                w.u64(*installed, "restored.installed")?;
                w.u64(*skipped_revoked, "restored.skipped_revoked")?;
                w.u64(*skipped_live, "restored.skipped_live")?;
                TAG_RESTORED
            }
            Response::Subscribed => TAG_SUBSCRIBED,
            Response::KeyBound { slot } => {
                w.u32(*slot, "key_bound.slot")?;
                TAG_KEY_BOUND
            }
            Response::PushRevoke { seq, tenant, fingerprint } => {
                w.u64(*seq, "push_revoke.seq")?;
                w.str_(tenant, "push_revoke.tenant")?;
                w.u64(*fingerprint, "push_revoke.fingerprint")?;
                TAG_PUSH_REVOKE
            }
            Response::PushReload { seq, tenant, task_fp, context_fp, fingerprint } => {
                w.u64(*seq, "push_reload.seq")?;
                w.str_(tenant, "push_reload.tenant")?;
                w.u64(*task_fp, "push_reload.task_fp")?;
                w.u64(*context_fp, "push_reload.context_fp")?;
                w.u64(*fingerprint, "push_reload.fingerprint")?;
                TAG_PUSH_RELOAD
            }
            Response::PushFlush { seq, tenant } => {
                w.u64(*seq, "push_flush.seq")?;
                w.str_(tenant, "push_flush.tenant")?;
                TAG_PUSH_FLUSH
            }
            Response::Error { code, message } => {
                w.u16(*code, "error.code")?;
                w.str_(message, "error.message")?;
                TAG_ERROR
            }
        };
        Ok(Frame { tag, payload: w.finish() })
    }

    /// Encodes the response with only the `u32` representation limit
    /// (see [`Request::encode`]).
    ///
    /// # Panics
    ///
    /// Panics if the message cannot be represented in a frame at all.
    pub fn encode(&self) -> Frame {
        self.encode_limited(u32::MAX).expect("message exceeds the u32 frame representation limit")
    }

    /// Decodes a response frame.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]; clients treat it as a protocol failure.
    pub fn decode(frame: &Frame) -> Result<Response, WireError> {
        let mut r = Reader::new(&frame.payload);
        let response = match frame.tag {
            TAG_HELLO_OK => Response::HelloOk { version: r.u16("hello_ok.version")? },
            TAG_VERDICT => Response::Verdict {
                decision: if r.bool_("verdict.present")? { Some(r.decision()?) } else { None },
            },
            TAG_VERDICT_BATCH => Response::VerdictBatch {
                decisions: if r.bool_("verdict_batch.present")? {
                    let count = r.u32("verdict_batch.count")? as usize;
                    let mut ds = Vec::new();
                    for _ in 0..count {
                        ds.push(r.decision()?);
                    }
                    Some(ds)
                } else {
                    None
                },
            },
            TAG_INSTALLED => Response::Installed {
                fingerprint: r.u64("installed.fingerprint")?,
                entries: r.u64("installed.entries")?,
            },
            TAG_POLICY => Response::PolicyOk {
                policy: if r.bool_("policy.present")? { Some(r.policy()?) } else { None },
            },
            TAG_FLUSHED => Response::Flushed { removed: r.u64("flushed.removed")? },
            TAG_STATS_OK => Response::StatsOk {
                counters: read_counters(&mut r)?,
                daemon: read_daemon_counters(&mut r)?,
                workers: r.u64("stats_ok.workers")?,
            },
            TAG_SHUTTING_DOWN => Response::ShuttingDown,
            TAG_REVOKED => Response::Revoked { removed: r.u64("revoked.removed")? },
            TAG_RELOADED => Response::Reloaded {
                old_fingerprint: if r.bool_("reloaded.old_present")? {
                    Some(r.u64("reloaded.old_fingerprint")?)
                } else {
                    None
                },
                fingerprint: r.u64("reloaded.fingerprint")?,
                entries: r.u64("reloaded.entries")?,
            },
            TAG_SNAPSHOT_OK => Response::SnapshotOk {
                entries: r.u64("snapshot_ok.entries")?,
                snapshot: r.bytes("snapshot_ok.snapshot")?.to_vec(),
            },
            TAG_RESTORED => Response::Restored {
                installed: r.u64("restored.installed")?,
                skipped_revoked: r.u64("restored.skipped_revoked")?,
                skipped_live: r.u64("restored.skipped_live")?,
            },
            TAG_SUBSCRIBED => Response::Subscribed,
            TAG_KEY_BOUND => Response::KeyBound { slot: r.u32("key_bound.slot")? },
            TAG_PUSH_REVOKE => Response::PushRevoke {
                seq: r.u64("push_revoke.seq")?,
                tenant: r.str_("push_revoke.tenant")?,
                fingerprint: r.u64("push_revoke.fingerprint")?,
            },
            TAG_PUSH_RELOAD => Response::PushReload {
                seq: r.u64("push_reload.seq")?,
                tenant: r.str_("push_reload.tenant")?,
                task_fp: r.u64("push_reload.task_fp")?,
                context_fp: r.u64("push_reload.context_fp")?,
                fingerprint: r.u64("push_reload.fingerprint")?,
            },
            TAG_PUSH_FLUSH => Response::PushFlush {
                seq: r.u64("push_flush.seq")?,
                tenant: r.str_("push_flush.tenant")?,
            },
            TAG_ERROR => {
                Response::Error { code: r.u16("error.code")?, message: r.str_("error.message")? }
            }
            tag => return Err(WireError::UnknownTag(tag)),
        };
        r.finish()?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conseca_core::{is_allowed, ArgConstraint, PolicyEntry, Predicate, Violation};

    fn sample_policy() -> Policy {
        let mut policy = Policy::new("respond to urgent work emails");
        policy.set(
            "send_email",
            PolicyEntry::allow(
                vec![
                    ArgConstraint::regex("alice").unwrap(),
                    ArgConstraint::Dsl(Predicate::All(vec![
                        Predicate::Suffix("@work.com".into()),
                        Predicate::Not(Box::new(Predicate::Contains("..".into()))),
                    ])),
                    ArgConstraint::Any,
                ],
                "urgent responses come from alice",
            ),
        );
        policy.set("delete_email", PolicyEntry::deny("no deletions in this task"));
        policy
    }

    fn sample_context() -> TrustedContext {
        let mut ctx = TrustedContext::for_user("alice");
        ctx.date = "2025-05-14".into();
        ctx.time = 42;
        ctx.usernames = vec!["alice".into(), "bob".into()];
        ctx.email_addresses = vec!["alice@work.com".into()];
        ctx.email_categories = vec!["Inbox".into()];
        ctx.fs_tree = "/home/alice\n/home/alice/notes.txt".into();
        ctx.extra.insert("region".into(), "eu".into());
        ctx
    }

    fn roundtrip_request(request: Request) -> Request {
        let frame = request.encode();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &frame, DEFAULT_MAX_FRAME_LEN).unwrap();
        let read = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN).unwrap().unwrap();
        assert_eq!(read, frame);
        Request::decode(&read).unwrap()
    }

    fn roundtrip_response(response: Response) -> Response {
        let frame = response.encode();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &frame, DEFAULT_MAX_FRAME_LEN).unwrap();
        let read = read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN).unwrap().unwrap();
        Response::decode(&read).unwrap()
    }

    #[test]
    fn requests_roundtrip() {
        let ctx = sample_context();
        let call = ApiCall::new("email", "send_email", vec!["alice".into(), "b@work.com".into()]);
        let requests = vec![
            Request::Hello { version: PROTOCOL_VERSION },
            Request::Check {
                tenant: "acme".into(),
                task: "t".into(),
                context: ctx.clone(),
                call: call.clone(),
            },
            Request::CheckBatch {
                tenant: "acme".into(),
                task: "t".into(),
                context: ctx.clone(),
                calls: vec![call.clone(), ApiCall::new("fs", "ls", vec![])],
            },
            Request::Install {
                tenant: "acme".into(),
                task: "t".into(),
                context: ctx.clone(),
                policy: sample_policy(),
            },
            Request::FetchPolicy { tenant: "acme".into(), task: "t".into(), context: ctx },
            Request::Flush { tenant: "acme".into() },
            Request::Stats { tenant: "acme".into() },
            Request::Shutdown,
            Request::Revoke { tenant: "acme".into(), fingerprint: 0xfeed_f00d },
            Request::Reload {
                tenant: "acme".into(),
                task: "t".into(),
                context: sample_context(),
                policy: sample_policy(),
            },
            Request::Snapshot { tenant: "acme".into() },
            Request::Restore { tenant: "acme".into(), snapshot: vec![0xC5, 0x00, 0x01, 0x7F] },
            Request::Subscribe { tenant: "acme".into() },
            Request::PushAck { seq: u64::MAX },
            Request::BindKey {
                slot: MAX_KEY_SLOTS - 1,
                tenant: "acme".into(),
                task: "t".into(),
                context: sample_context(),
            },
            Request::CheckKeyed {
                slot: 3,
                calls: vec![call.clone(), ApiCall::new("fs", "ls", vec![])],
            },
        ];
        for request in requests {
            assert_eq!(roundtrip_request(request.clone()), request);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let policy = sample_policy();
        let allow = is_allowed(
            &ApiCall::new(
                "email",
                "send_email",
                vec!["alice".into(), "b@work.com".into(), "s".into()],
            ),
            &policy,
        );
        let deny = is_allowed(&ApiCall::new("email", "delete_email", vec!["1".into()]), &policy);
        let unlisted = is_allowed(&ApiCall::new("fs", "rm", vec!["/x".into()]), &policy);
        let responses = vec![
            Response::HelloOk { version: PROTOCOL_VERSION },
            Response::Verdict { decision: None },
            Response::Verdict { decision: Some(allow.clone()) },
            Response::VerdictBatch { decisions: None },
            Response::VerdictBatch { decisions: Some(vec![allow, deny, unlisted]) },
            Response::Installed { fingerprint: policy.fingerprint(), entries: 2 },
            Response::PolicyOk { policy: None },
            Response::PolicyOk { policy: Some(policy) },
            Response::Flushed { removed: 3 },
            Response::StatsOk {
                counters: TenantCounters {
                    hits: 1,
                    misses: 2,
                    checks: 3,
                    allowed: 2,
                    denied: 1,
                    reloads: 4,
                    revoked: 5,
                },
                daemon: None,
                workers: 2,
            },
            Response::StatsOk {
                counters: TenantCounters::default(),
                daemon: Some(crate::daemon::DaemonCounters {
                    sweeps: 1,
                    swept_reloaded: 2,
                    swept_orphaned: 3,
                    snapshot_ticks: 4,
                    segments_written: 5,
                    snapshot_skips: 6,
                    flush_markers: 7,
                    journal_records: 8,
                    journal_compactions: 9,
                    recovered_installed: 10,
                    recovered_skipped_revoked: 11,
                    io_errors: 12,
                }),
                workers: 8,
            },
            Response::ShuttingDown,
            Response::Revoked { removed: 2 },
            Response::Reloaded { old_fingerprint: None, fingerprint: 7, entries: 2 },
            Response::Reloaded { old_fingerprint: Some(0xabc), fingerprint: 7, entries: 2 },
            Response::SnapshotOk { entries: 4, snapshot: vec![1, 2, 3, 4, 5] },
            Response::Restored { installed: 2, skipped_revoked: 1, skipped_live: 1 },
            Response::Subscribed,
            Response::KeyBound { slot: 7 },
            Response::PushRevoke { seq: 1, tenant: "acme".into(), fingerprint: 0xfeed_f00d },
            Response::PushReload {
                seq: 2,
                tenant: "acme".into(),
                task_fp: 0xaaaa_bbbb,
                context_fp: 0xcccc_dddd,
                fingerprint: 0xfeed_f00d,
            },
            Response::PushFlush { seq: u64::MAX, tenant: "acme".into() },
            Response::Error { code: code::MALFORMED, message: "truncated".into() },
        ];
        for response in responses {
            assert_eq!(roundtrip_response(response.clone()), response);
        }
    }

    #[test]
    fn borrowed_key_frames_equal_the_request_encodings() {
        let context = sample_context();
        let calls = vec![ApiCall::new("fs", "ls", vec!["/home".into()])];
        let bind = bind_key_frame(5, "acme", "t", &context, DEFAULT_MAX_FRAME_LEN).unwrap();
        let request =
            Request::BindKey { slot: 5, tenant: "acme".into(), task: "t".into(), context };
        assert_eq!(bind, request.encode());
        let check = check_keyed_frame(5, &calls, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(check, Request::CheckKeyed { slot: 5, calls }.encode());
        assert!(check_keyed_frame(5, &[], 4).is_err(), "the cap holds while encoding");
    }

    #[test]
    fn borrowed_fetch_and_load_frames_equal_the_request_encodings() {
        let (context, policy) = (sample_context(), sample_policy());
        let (tenant, task) = (String::from("acme"), String::from("t"));
        let fetch = Request::FetchPolicy {
            tenant: tenant.clone(),
            task: task.clone(),
            context: context.clone(),
        };
        let install = Request::Install {
            tenant: tenant.clone(),
            task: task.clone(),
            context: context.clone(),
            policy: policy.clone(),
        };
        let reload =
            Request::Reload { tenant, task, context: context.clone(), policy: policy.clone() };
        // Byte-identical under the default cap, and refused with the
        // same typed error (naming the same field) under small ones.
        let agree = |request: Request, build: &dyn Fn(u32) -> Result<Frame, WireError>| {
            for cap in [DEFAULT_MAX_FRAME_LEN, 40, 8, 1] {
                assert_eq!(build(cap), request.encode_limited(cap), "{request:?} at cap {cap}");
            }
        };
        agree(fetch, &|cap| fetch_policy_frame("acme", "t", &context, cap));
        agree(install, &|cap| install_frame("acme", "t", &context, &policy, cap));
        agree(reload, &|cap| reload_frame("acme", "t", &context, &policy, cap));
    }

    #[test]
    fn violations_roundtrip_through_decisions() {
        let violations = vec![
            Violation::UnlistedApi,
            Violation::CannotExecute,
            Violation::ArgMismatch { index: 2, constraint: "~ /a/".into(), value: "b\nc".into() },
            Violation::RateLimited { api: "send_email".into(), limit: 2, used: 2 },
            Violation::WindowRateLimited { api: "send_email".into(), limit: 1, used: 1, window: 5 },
            Violation::OrderForbidden { api: "send_email".into(), after: "read_secret".into() },
            Violation::SequenceUnmet { api: "rm".into(), requirement: "list first".into() },
            Violation::BudgetExhausted { max: 100 },
            Violation::OverrideDeclined { underlying: None },
            Violation::OverrideDeclined {
                underlying: Some(Box::new(Violation::OverrideDeclined {
                    underlying: Some(Box::new(Violation::UnlistedApi)),
                })),
            },
        ];
        for violation in violations {
            let decision = Decision {
                allowed: false,
                rationale: "why".into(),
                violation: Some(violation.clone()),
            };
            let out = roundtrip_response(Response::Verdict { decision: Some(decision.clone()) });
            assert_eq!(out, Response::Verdict { decision: Some(decision) });
        }
    }

    #[test]
    fn truncated_payload_is_a_structured_error() {
        let frame = Request::Stats { tenant: "acme".into() }.encode();
        let cut = Frame { tag: frame.tag, payload: frame.payload[..2].to_vec() };
        assert!(matches!(Request::decode(&cut), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = Request::Shutdown.encode();
        frame.payload.push(0);
        assert_eq!(Request::decode(&frame), Err(WireError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn tagged_envelope_roundtrips_both_directions() {
        let request = Request::Stats { tenant: "acme".into() };
        let wrapped = wrap_tagged(0xDEAD_BEEF_0042, &request.encode());
        assert_eq!(wrapped.tag, TAG_TAGGED, "request envelopes use the request-direction tag");
        let (id, inner) = unwrap_tagged(&wrapped).unwrap();
        assert_eq!(id, 0xDEAD_BEEF_0042);
        assert_eq!(Request::decode(&inner).unwrap(), request);

        let response = Response::Flushed { removed: 3 };
        let wrapped = wrap_tagged(7, &response.encode());
        assert_eq!(wrapped.tag, TAG_TAGGED_OK, "response envelopes use the response-direction tag");
        let (id, inner) = unwrap_tagged(&wrapped).unwrap();
        assert_eq!(id, 7);
        assert_eq!(Response::decode(&inner).unwrap(), response);
    }

    #[test]
    fn tagged_envelope_adds_exactly_nine_bytes() {
        let inner = Request::Subscribe { tenant: "t".into() }.encode();
        let wrapped = wrap_tagged(1, &inner);
        assert_eq!(wrapped.payload.len(), inner.payload.len() + 9);
    }

    #[test]
    fn short_tagged_envelopes_are_structured_errors() {
        // Anything under id (8) + inner tag (1) cannot carry a message.
        for len in 0..9 {
            let frame = Frame { tag: TAG_TAGGED, payload: vec![0u8; len] };
            assert!(
                matches!(unwrap_tagged(&frame), Err(WireError::Truncated { .. })),
                "len {len} must be rejected"
            );
        }
    }

    #[test]
    fn nested_tagged_envelopes_are_rejected() {
        let once = wrap_tagged(1, &Request::Shutdown.encode());
        let twice = wrap_tagged(2, &once);
        assert!(matches!(unwrap_tagged(&twice), Err(WireError::UnknownEnumTag { .. })));
        // Response direction nests are rejected the same way.
        let once = wrap_tagged(1, &Response::ShuttingDown.encode());
        let mut payload = 3u64.to_be_bytes().to_vec();
        payload.push(once.tag);
        payload.extend_from_slice(&once.payload);
        let twice = Frame { tag: TAG_TAGGED_OK, payload };
        assert!(matches!(unwrap_tagged(&twice), Err(WireError::UnknownEnumTag { .. })));
    }

    #[test]
    fn truncated_push_frames_are_structured_errors() {
        // A push frame cut anywhere inside its payload must decode to a
        // typed error, never a shorter valid push — a subscribed client
        // applying a half-read invalidation would be unsound.
        let pushes = vec![
            Response::PushRevoke { seq: 9, tenant: "acme".into(), fingerprint: 7 },
            Response::PushReload {
                seq: 9,
                tenant: "acme".into(),
                task_fp: 1,
                context_fp: 2,
                fingerprint: 3,
            },
            Response::PushFlush { seq: 9, tenant: "acme".into() },
        ];
        for push in pushes {
            let frame = push.encode();
            for cut in 0..frame.payload.len() {
                let cut_frame = Frame { tag: frame.tag, payload: frame.payload[..cut].to_vec() };
                assert!(
                    matches!(Response::decode(&cut_frame), Err(WireError::Truncated { .. })),
                    "{push:?} cut at {cut}"
                );
            }
            let mut trailing = frame.clone();
            trailing.payload.push(0);
            assert_eq!(Response::decode(&trailing), Err(WireError::TrailingBytes { extra: 1 }));
        }
    }

    #[test]
    fn unknown_tags_are_rejected_with_their_tag() {
        let frame = Frame { tag: 0x7E, payload: Vec::new() };
        assert_eq!(Request::decode(&frame), Err(WireError::UnknownTag(0x7E)));
        assert_eq!(Request::decode(&frame).unwrap_err().error_code(), code::UNKNOWN_TAG);
    }

    #[test]
    fn oversized_frames_are_refused_before_reading_the_payload() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(64u32).to_be_bytes());
        bytes.push(TAG_STATS);
        match read_frame(&mut bytes.as_slice(), 16) {
            Err(FrameError::Oversized { len: 64, max: 16 }) => {}
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn write_frame_refuses_frames_over_the_cap() {
        // The sender-side twin of the read cap: the frame is refused
        // with a typed error and nothing reaches the transport — the
        // regression for "encode happily, peer rejects".
        let frame = Frame { tag: TAG_INSTALL, payload: vec![0u8; 64] };
        let mut out = Vec::new();
        match write_frame(&mut out, &frame, 16) {
            Err(FrameError::Oversized { len: 65, max: 16 }) => {}
            other => panic!("expected Oversized, got {other:?}"),
        }
        assert!(out.is_empty(), "no partial frame may be written");
        // At exactly the cap it goes through.
        write_frame(&mut out, &frame, 65).unwrap();
        assert_eq!(out.len(), 4 + 65);
    }

    #[test]
    fn write_frame_length_arithmetic_cannot_wrap() {
        // `1 + payload.len()` is computed in u64, so even a payload at
        // the u32 boundary is compared, not wrapped. (A real 4 GiB
        // allocation is out of reach for a unit test; the cap comparison
        // below exercises the same widened-arithmetic path.)
        let frame = Frame { tag: TAG_STATS, payload: vec![0u8; 4096] };
        let mut out = Vec::new();
        match write_frame(&mut out, &frame, 4096) {
            Err(FrameError::Oversized { len: 4097, .. }) => {}
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn encode_limited_rejects_an_oversized_install_with_a_typed_error() {
        // The realistic trigger: a large Install policy. The encoder
        // must stop at the cap with WireError::Oversized — the caller
        // sees which field overflowed instead of a wrapped length.
        let mut policy = Policy::new("wide");
        for i in 0..64 {
            policy.set(
                &format!("api_{i:03}"),
                PolicyEntry::allow_any("a rationale that takes up some room"),
            );
        }
        let request = Request::Install {
            tenant: "acme".into(),
            task: "t".into(),
            context: sample_context(),
            policy,
        };
        let err = request.encode_limited(256).unwrap_err();
        assert!(matches!(err, WireError::Oversized { .. }), "got {err:?}");
        assert_eq!(err.error_code(), code::FRAME_TOO_LARGE);
        // The same message encodes fine under the default cap, and the
        // encode-side cap agrees with what read_frame would accept.
        let frame = request.encode_limited(DEFAULT_MAX_FRAME_LEN).unwrap();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &frame, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert!(read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN).unwrap().is_some());
    }

    #[test]
    fn encode_limited_and_read_frame_agree_at_the_boundary() {
        // Whatever encode_limited accepts, the peer's read_frame at the
        // same cap accepts too — no asymmetric window where a frame
        // encodes but cannot be received.
        let request = Request::Stats { tenant: "tenant-with-a-name".into() };
        let exact = 1 + request.encode().payload.len() as u32;
        assert!(request.encode_limited(exact - 1).is_err(), "one under the need must fail");
        let frame = request.encode_limited(exact).unwrap();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &frame, exact).unwrap();
        let read = read_frame(&mut bytes.as_slice(), exact).unwrap().unwrap();
        assert_eq!(Request::decode(&read).unwrap(), request);
    }

    #[test]
    fn zero_length_frames_are_refused() {
        let bytes = 0u32.to_be_bytes();
        assert!(matches!(read_frame(&mut bytes.as_slice(), 16), Err(FrameError::Empty)));
    }

    #[test]
    fn clean_eof_is_none_but_mid_frame_eof_is_truncation() {
        assert!(read_frame(&mut [].as_slice(), 16).unwrap().is_none());
        let mut full = Vec::new();
        write_frame(&mut full, &Request::Shutdown.encode(), 16).unwrap();
        for cut in 1..full.len() {
            match read_frame(&mut &full[..cut], 16) {
                Err(FrameError::Io(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}")
                }
                other => panic!("cut at {cut}: expected truncation, got {other:?}"),
            }
        }
    }

    /// Two frames then junk, as one byte string.
    fn two_frames_and_junk() -> (Vec<Frame>, Vec<u8>) {
        let frames = vec![
            Frame { tag: TAG_STATS, payload: vec![1, 2, 3] },
            Frame { tag: TAG_FLUSH, payload: vec![9; 40] },
        ];
        let mut bytes = Vec::new();
        for frame in &frames {
            append_frame(&mut bytes, frame, 64).unwrap();
        }
        bytes.extend_from_slice(&[0xAB; 7]);
        (frames, bytes)
    }

    #[test]
    fn read_frame_leaves_the_bytes_after_its_frame_unread() {
        let (frames, bytes) = two_frames_and_junk();
        let mut rest = bytes.as_slice();
        assert_eq!(read_frame(&mut rest, 64).unwrap().unwrap(), frames[0]);
        assert_eq!(rest, &bytes[8..], "only the first frame's 8 bytes were taken");
        assert_eq!(read_frame(&mut rest, 64).unwrap().unwrap(), frames[1]);
        assert_eq!(rest, &[0xAB; 7], "only the second frame's bytes were taken");
    }

    #[test]
    fn one_fill_takes_in_every_buffered_frame() {
        let (frames, bytes) = two_frames_and_junk();
        let mut decoder = FrameDecoder::default();
        let mut stream = bytes.as_slice();
        assert_eq!(decoder.read_frame(&mut stream, 64).unwrap().unwrap(), frames[0]);
        assert!(stream.is_empty(), "one read took everything");
        assert_eq!(decoder.next_frame(64).unwrap().unwrap(), frames[1]);
        let junk = decoder.next_frame(64);
        assert!(matches!(junk, Some(Err(FrameError::Oversized { .. }))), "got {junk:?}");
    }

    #[test]
    fn over_deep_predicates_are_rejected() {
        let mut p = Predicate::True;
        for _ in 0..(MAX_PREDICATE_DEPTH + 1) {
            p = Predicate::Not(Box::new(p));
        }
        let mut policy = Policy::new("deep");
        policy.set("ls", PolicyEntry::allow(vec![ArgConstraint::Dsl(p)], "r"));
        let frame = Request::Install {
            tenant: "t".into(),
            task: "t".into(),
            context: TrustedContext::for_user("a"),
            policy,
        }
        .encode();
        assert_eq!(Request::decode(&frame), Err(WireError::TooDeep));
    }

    #[test]
    fn bad_regex_surfaces_as_bad_policy() {
        // Encode a policy frame whose regex pattern is unbalanced by
        // hand-crafting the constraint bytes (the typed API cannot build
        // one, which is the point of checking at the trust boundary).
        let mut w = Writer::unbounded();
        w.str_("tenant", "t").unwrap();
        w.str_("task", "t").unwrap();
        codec::put_context(&mut w, &TrustedContext::for_user("a")).unwrap();
        w.str_("task", "t").unwrap();
        w.str_("default", "t").unwrap();
        w.u32(1, "t").unwrap();
        w.str_("ls", "t").unwrap();
        w.bool_(true, "t").unwrap();
        w.u32(1, "t").unwrap();
        w.u8(1, "t").unwrap(); // constraint kind: regex
        w.str_("(unclosed", "t").unwrap();
        w.str_("rationale", "t").unwrap();
        let frame = Frame { tag: TAG_INSTALL, payload: w.finish() };
        match Request::decode(&frame) {
            Err(e @ WireError::BadRegex { .. }) => {
                assert_eq!(e.error_code(), code::BAD_POLICY);
            }
            other => panic!("expected BadRegex, got {other:?}"),
        }
    }

    #[test]
    fn bad_utf8_is_rejected() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&2u32.to_be_bytes());
        payload.extend_from_slice(&[0xFF, 0xFE]);
        let frame = Frame { tag: TAG_STATS, payload };
        assert_eq!(Request::decode(&frame), Err(WireError::BadUtf8));
    }
}
