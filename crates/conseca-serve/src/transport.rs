//! Byte transports the protocol runs over.
//!
//! The server drives every connection as one cooperative task on the
//! reactor's event loop, reading and writing through separate handles, so a
//! transport must hand out a second handle to the same stream
//! ([`Stream::try_split`]),
//! support an out-of-band close that unblocks a parked reader
//! ([`Stream::close`]), and plug into the readiness reactor
//! ([`Stream::register`]) so those tasks can await I/O instead of
//! parking threads. Two transports are provided:
//!
//! - [`std::net::TcpStream`] — the deployment transport; registration
//!   flips the socket non-blocking and hands it to the epoll reactor;
//! - [`DuplexStream`] — an in-process pipe pair for tests, benches, and
//!   single-process deployments, with the same `Read`/`Write` semantics
//!   as a socket (EOF after close, `BrokenPipe` on writes to a closed
//!   peer). Registration attaches a *virtual* reactor registration: the
//!   pipe notifies it on every write and close, so duplex connections
//!   speak the exact readiness protocol sockets do.
//!
//! Unregistered streams keep their blocking behaviour — the sync client
//! path still does plain blocking reads.
//!
//! `NbReader` / `NbWriter` adapt a registered stream to *buffered*
//! async frame I/O. The reader is the non-blocking drive of the one
//! [`FrameDecoder`]: it pulls in whatever the transport has with one
//! syscall and hands out every complete frame from the decoder's
//! buffer, so a pipelined burst of frames costs one read, not three or
//! four per frame, and its framing rules and errors are those of
//! [`wire::read_frame`](crate::wire::read_frame), the decoder's
//! blocking drive. The writer queues frames and flushes them with one
//! write, through the same encoder as
//! [`wire::write_frame`](crate::wire::write_frame); the sync client
//! queues and writes its frames the same way.

use std::collections::VecDeque;
use std::future::{poll_fn, Future};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::task::{ready, Context, Poll};
use std::time::Instant;

use futures::reactor::{Reactor, Registration};

use crate::wire::{append_frame, Frame, FrameDecoder, FrameError, KEEP_BUF};

/// A connection transport: a byte stream that can be split into
/// independently owned reader/writer handles, closed out-of-band, and
/// registered with the readiness reactor.
pub trait Stream: Read + Write + Send + 'static {
    /// A second handle to the same underlying stream (reader/writer
    /// split).
    ///
    /// # Errors
    ///
    /// Transport-specific (e.g. `TcpStream::try_clone` failure).
    fn try_split(&self) -> io::Result<Self>
    where
        Self: Sized;

    /// Closes both directions: parked readers unblock with EOF, writers
    /// fail with `BrokenPipe`. A registered stream's reactor
    /// registration observes the close as a readiness edge.
    fn close(&self);

    /// Registers the stream with the global reactor and switches it to
    /// non-blocking mode. After this, reads and writes on **any handle
    /// to the same underlying stream** may return `WouldBlock`; callers
    /// must follow the reactor's attempt-then-await protocol (see
    /// [`futures::reactor`]). Call once per connection and clone the
    /// registration into its reader and writer.
    ///
    /// # Errors
    ///
    /// Transport-specific registration failure.
    fn register(&self) -> io::Result<Registration>;
}

impl Stream for TcpStream {
    fn try_split(&self) -> io::Result<Self> {
        self.try_clone()
    }

    fn close(&self) {
        let _ = self.shutdown(std::net::Shutdown::Both);
    }

    fn register(&self) -> io::Result<Registration> {
        // Clones made by `try_split` share the file description, so the
        // non-blocking flag and the epoll registration cover them all.
        self.set_nonblocking(true)?;
        Reactor::global().register_fd(self.as_raw_fd())
    }
}

/// One direction of a duplex pipe.
struct Pipe {
    state: Mutex<PipeState>,
    readable: Condvar,
    /// When set, reads return `WouldBlock` instead of parking on the
    /// condvar. Flipped by [`DuplexStream::register`] on the reading
    /// end's inbound pipe only, so the peer keeps blocking semantics.
    nonblocking: AtomicBool,
    /// Set while a read would not park: bytes are buffered or the pipe
    /// is closed. Written under the state lock; a blocking reader polls
    /// it without the lock before it parks, then takes the lock, which
    /// decides. It publishes nothing, so a stale read costs at most one
    /// budget of spinning.
    ready: AtomicBool,
}

struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
    /// Readers parked on `readable`: a write or close notifies the
    /// condvar only when there is one, sparing the futex call.
    parked: usize,
    /// Reactor registration of the end that reads this pipe; notified
    /// on every write and close so a parked async reader wakes.
    watcher: Option<Registration>,
}

impl Pipe {
    fn new() -> Arc<Self> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState {
                buf: VecDeque::new(),
                closed: false,
                parked: 0,
                watcher: None,
            }),
            readable: Condvar::new(),
            nonblocking: AtomicBool::new(false),
            ready: AtomicBool::new(false),
        })
    }

    fn lock(&self) -> MutexGuard<'_, PipeState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        self.wake_readers(state);
    }

    fn write(&self, data: &[u8]) -> io::Result<usize> {
        let mut state = self.lock();
        if state.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "duplex peer closed"));
        }
        state.buf.extend(data);
        self.wake_readers(state);
        Ok(data.len())
    }

    /// After a write or close: marks the pipe ready, then, with the lock
    /// released, wakes the readers parked on the condvar, if any, and
    /// the async reader's registration.
    fn wake_readers(&self, state: MutexGuard<'_, PipeState>) {
        self.ready.store(true, Ordering::Relaxed);
        let parked = state.parked > 0;
        let watcher = state.watcher.clone();
        drop(state);
        if parked {
            self.readable.notify_all();
        }
        if let Some(watcher) = watcher {
            watcher.notify_readable();
        }
    }

    fn read(&self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut state = self.lock();
        let mut polled = false;
        loop {
            if !state.buf.is_empty() {
                // Bulk copy from both halves of the ring: one read takes
                // everything buffered, up to `out`'s length.
                let (front, back) = state.buf.as_slices();
                let n = out.len().min(front.len() + back.len());
                let from_front = n.min(front.len());
                out[..from_front].copy_from_slice(&front[..from_front]);
                out[from_front..n].copy_from_slice(&back[..n - from_front]);
                state.buf.drain(..n);
                if state.buf.is_empty() && !state.closed {
                    self.ready.store(false, Ordering::Relaxed);
                }
                return Ok(n);
            }
            if state.closed {
                return Ok(0); // EOF
            }
            if self.nonblocking.load(Ordering::Relaxed) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            // Poll before parking, once per read: a peer that is busy
            // answering usually writes within the budget, and a reader
            // that catches it spinning costs the writer no thread wake.
            if !std::mem::replace(&mut polled, true) {
                drop(state);
                self.poll_ready();
                state = self.lock();
                continue;
            }
            state.parked += 1;
            state = self.readable.wait(state).unwrap_or_else(|e| e.into_inner());
            state.parked -= 1;
        }
    }

    /// Polls, without the lock, for up to the spin budget or until the
    /// pipe turns ready. Each poll yields the CPU, so a writer that the
    /// scheduler put on this reader's CPU runs instead of waiting out
    /// the budget.
    fn poll_ready(&self) {
        let budget = futures::spin_budget();
        if budget.is_zero() {
            return;
        }
        let until = Instant::now() + budget;
        while !self.ready.load(Ordering::Relaxed) && Instant::now() < until {
            std::thread::yield_now();
        }
    }
}

/// One end of an in-process, bidirectional byte stream.
///
/// Clones share the same underlying pipes (like a `TcpStream` clone), so
/// one clone can read while another writes. Dropping every clone of an
/// end closes the stream for the peer. Reads block until data arrives
/// unless the end has been [`register`](Stream::register)ed.
pub struct DuplexStream {
    read: Arc<Pipe>,
    write: Arc<Pipe>,
    /// Live handles to this *end*, for close-on-last-drop. An explicit
    /// counter (not `Arc::strong_count`) so two handles dropping
    /// concurrently cannot both observe "someone else is still alive".
    end_refs: Arc<AtomicUsize>,
}

/// Creates a connected pair of in-process streams.
pub fn duplex() -> (DuplexStream, DuplexStream) {
    let a_to_b = Pipe::new();
    let b_to_a = Pipe::new();
    let a = DuplexStream {
        read: Arc::clone(&b_to_a),
        write: Arc::clone(&a_to_b),
        end_refs: Arc::new(AtomicUsize::new(1)),
    };
    let b = DuplexStream { read: a_to_b, write: b_to_a, end_refs: Arc::new(AtomicUsize::new(1)) };
    (a, b)
}

impl Clone for DuplexStream {
    fn clone(&self) -> Self {
        self.end_refs.fetch_add(1, Ordering::Relaxed);
        DuplexStream {
            read: Arc::clone(&self.read),
            write: Arc::clone(&self.write),
            end_refs: Arc::clone(&self.end_refs),
        }
    }
}

impl Drop for DuplexStream {
    fn drop(&mut self) {
        // Last handle of this end gone: the peer sees EOF, and writes to
        // this end fail — socket semantics.
        if self.end_refs.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.write.close();
            self.read.close();
        }
    }
}

impl Read for DuplexStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.read.read(buf)
    }
}

impl Write for DuplexStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Stream for DuplexStream {
    fn try_split(&self) -> io::Result<Self> {
        Ok(self.clone())
    }

    fn close(&self) {
        self.write.close();
        self.read.close();
    }

    fn register(&self) -> io::Result<Registration> {
        let reg = Reactor::global().register_virtual();
        self.read.lock().watcher = Some(reg.clone());
        self.read.nonblocking.store(true, Ordering::Relaxed);
        // Match epoll's ADD behaviour: report the current state as an
        // initial edge, so data buffered (or a close) before
        // registration is not lost, and the writer starts writable
        // (duplex writes never block, but the protocol awaits
        // writability only after `WouldBlock`, which duplex never
        // returns — the initial edge keeps the bit trivially true).
        reg.notify_all();
        Ok(reg)
    }
}

// ------------------------------------------------------ async frame I/O

/// Buffered async frame reader over a [`register`](Stream::register)ed
/// stream: the non-blocking drive of the one [`FrameDecoder`], whose
/// whole buffered frames callers also take directly (`frames`).
///
/// Reads follow the reactor's attempt-then-await protocol: the reader
/// awaits readiness only after a read returned `WouldBlock`, never
/// after a merely short one. One edge can carry both the peer's last
/// bytes and its close, and no further edge follows the close, so only
/// a read that finds nothing proves the next edge is still to come.
pub(crate) struct NbReader<S> {
    stream: S,
    reg: Registration,
    pub(crate) frames: FrameDecoder,
    /// Set when a read found nothing: the next poll first waits for the
    /// readable edge, which also takes the ready bit of the edge that
    /// woke it, so a wake costs one read attempt, not two.
    awaiting_edge: bool,
}

impl<S: Read> NbReader<S> {
    pub(crate) fn new(stream: S, reg: Registration) -> Self {
        NbReader { stream, reg, frames: FrameDecoder::default(), awaiting_edge: false }
    }

    /// The next frame, as a poll: `Pending` parks the task's waker on
    /// the next readable edge.
    pub(crate) fn poll_frame(
        &mut self,
        cx: &mut Context<'_>,
        max_len: u32,
    ) -> Poll<Result<Option<Frame>, FrameError>> {
        self.poll_readable(cx, |frames, stream| frames.read_frame(stream, max_len))
    }

    /// One read behind the buffered partial frame, once the stream is
    /// readable: `Ready(Ok(0))` is EOF, and `Pending` parks the task's
    /// waker on the next readable edge. Call it only once every whole
    /// frame buffered has been taken.
    pub(crate) fn poll_fill(
        &mut self,
        cx: &mut Context<'_>,
        max_len: u32,
    ) -> Poll<Result<usize, FrameError>> {
        self.poll_readable(cx, |frames, stream| Ok(frames.fill(stream, max_len)?))
    }

    /// Runs `attempt` on the decoder, awaiting the next readable edge
    /// each time it would block.
    fn poll_readable<T>(
        &mut self,
        cx: &mut Context<'_>,
        mut attempt: impl FnMut(&mut FrameDecoder, &mut S) -> Result<T, FrameError>,
    ) -> Poll<Result<T, FrameError>> {
        loop {
            if self.awaiting_edge {
                ready!(Pin::new(&mut self.reg.readable()).poll(cx));
                self.awaiting_edge = false;
            }
            match attempt(&mut self.frames, &mut self.stream) {
                Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.awaiting_edge = true
                }
                done => return Poll::Ready(done),
            }
        }
    }
}

/// Buffered async frame writer over a [`register`](Stream::register)ed
/// stream: [`queue_frame`](Self::queue_frame) appends a frame (with the
/// [`wire::write_frame`](crate::wire::write_frame) encode-time length
/// cap) and [`flush`](Self::flush) writes everything queued, so a batch
/// of frames costs one syscall. [`try_flush`](Self::try_flush) writes
/// what the stream takes without waiting, and frames queued behind a
/// partial write go out after it.
pub(crate) struct NbWriter<S> {
    stream: S,
    reg: Registration,
    /// Queued frame bytes not yet written.
    buf: Vec<u8>,
}

impl<S: Write> NbWriter<S> {
    pub(crate) fn new(stream: S, reg: Registration) -> Self {
        NbWriter { stream, reg, buf: Vec::new() }
    }

    /// Queues one frame, bound-checking its length against `max_len`
    /// first; a refused frame queues nothing.
    pub(crate) fn queue_frame(&mut self, frame: &Frame, max_len: u32) -> Result<(), FrameError> {
        append_frame(&mut self.buf, frame, max_len)
    }

    /// Bytes queued and not yet written.
    pub(crate) fn queued(&self) -> usize {
        self.buf.len()
    }

    /// Writes everything queued. The queue is emptied either way: after
    /// a failed write the stream is dead.
    pub(crate) async fn flush(&mut self) -> io::Result<()> {
        poll_fn(|cx| self.poll_flush(cx)).await
    }

    /// [`flush`](Self::flush) as a poll: `Pending` parks the task's
    /// waker on the next writable edge.
    pub(crate) fn poll_flush(&mut self, cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        while !self.try_flush()? {
            ready!(Pin::new(&mut self.reg.writable()).poll(cx));
        }
        Poll::Ready(Ok(()))
    }

    /// Writes as much of the queue as the stream takes now. `Ok(true)`
    /// once it is all written; `Ok(false)` when the stream would block,
    /// and the rest waits for the next call. After a failed write the
    /// queue is emptied: the stream is dead.
    pub(crate) fn try_flush(&mut self) -> io::Result<bool> {
        let mut written = 0;
        let result = loop {
            if written == self.buf.len() {
                break self.stream.flush();
            }
            match self.stream.write(&self.buf[written..]) {
                Ok(0) => {
                    break Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "stream accepted zero bytes",
                    ))
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.buf.drain(..written);
                    return Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        self.buf.clear();
        if self.buf.capacity() > KEEP_BUF {
            self.buf = Vec::new();
        }
        result.map(|()| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use futures::block_on;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::future::poll_fn;
    use std::thread;

    impl<S: Read> NbReader<S> {
        async fn read_frame(&mut self, max_len: u32) -> Result<Option<Frame>, FrameError> {
            poll_fn(|cx| self.poll_frame(cx, max_len)).await
        }
    }

    #[test]
    fn duplex_carries_bytes_both_ways() {
        let (mut a, mut b) = duplex();
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn duplex_read_blocks_until_data_arrives() {
        let (mut a, mut b) = duplex();
        let reader = thread::spawn(move || {
            let mut buf = [0u8; 3];
            b.read_exact(&mut buf).unwrap();
            buf
        });
        thread::sleep(std::time::Duration::from_millis(10));
        a.write_all(b"abc").unwrap();
        assert_eq!(&reader.join().unwrap(), b"abc");
    }

    #[test]
    fn dropping_an_end_gives_the_peer_eof() {
        let (a, mut b) = duplex();
        drop(a);
        let mut buf = [0u8; 1];
        assert_eq!(b.read(&mut buf).unwrap(), 0);
        assert!(b.write_all(b"x").is_err());
    }

    #[test]
    fn close_unblocks_a_parked_reader() {
        let (a, mut b) = duplex();
        let closer = a.try_split().unwrap();
        let reader = thread::spawn(move || {
            let mut buf = [0u8; 1];
            b.read(&mut buf).unwrap()
        });
        thread::sleep(std::time::Duration::from_millis(10));
        closer.close();
        assert_eq!(reader.join().unwrap(), 0, "reader must see EOF");
        drop(a);
    }

    #[test]
    fn clones_share_the_stream() {
        let (a, mut b) = duplex();
        let mut a2 = a.try_split().unwrap();
        a2.write_all(b"via clone").unwrap();
        let mut buf = [0u8; 9];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"via clone");
        // Dropping one clone keeps the end open...
        drop(a2);
        let mut a = a;
        a.write_all(b"x").unwrap();
        let mut one = [0u8; 1];
        b.read_exact(&mut one).unwrap();
        // ...dropping the last closes it.
        drop(a);
        assert_eq!(b.read(&mut one).unwrap(), 0);
    }

    #[test]
    fn registered_duplex_reads_would_block_instead_of_parking() {
        let (a, mut b) = duplex();
        let _reg = b.register().unwrap();
        let mut buf = [0u8; 1];
        let err = b.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        // The peer keeps blocking semantics: its read pipe is untouched.
        drop(a);
        assert_eq!(b.read(&mut buf).unwrap(), 0, "EOF still beats WouldBlock");
    }

    #[test]
    fn duplex_writes_wake_a_parked_async_reader() {
        let (mut a, mut b) = duplex();
        let reg = b.register().unwrap();
        // Drain the initial registration edge first.
        block_on(reg.readable());
        let writer = thread::spawn(move || {
            thread::sleep(std::time::Duration::from_millis(15));
            a.write_all(b"zz").unwrap();
            a
        });
        let mut buf = [0u8; 2];
        block_on(async {
            let mut filled = 0;
            while filled < 2 {
                match b.read(&mut buf[filled..]) {
                    Ok(0) => panic!("unexpected EOF"),
                    Ok(n) => filled += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => reg.readable().await,
                    Err(e) => panic!("{e}"),
                }
            }
        });
        assert_eq!(&buf, b"zz");
        drop(writer.join().unwrap());
    }

    #[test]
    fn nb_frame_io_roundtrips_over_duplex() {
        let (a, b) = duplex();
        let reg_a = a.register().unwrap();
        let reg_b = b.register().unwrap();
        let mut writer = NbWriter::new(a, reg_a);
        let mut reader = NbReader::new(b, reg_b);
        let frame = Frame { tag: 0x42, payload: vec![1, 2, 3, 4, 5] };
        block_on(async {
            writer.queue_frame(&frame, 1024).unwrap();
            writer.flush().await.unwrap();
            let got = reader.read_frame(1024).await.unwrap().unwrap();
            assert_eq!(got, frame);
        });
    }

    #[test]
    fn nb_reader_sees_clean_close_as_none_and_oversize_before_payload() {
        let (a, b) = duplex();
        let reg_b = b.register().unwrap();
        let mut reader = NbReader::new(b, reg_b);
        // An announced length over the cap errors without the payload.
        let mut a2 = a.try_split().unwrap();
        a2.write_all(&100u32.to_be_bytes()).unwrap();
        block_on(async {
            match reader.read_frame(10).await {
                Err(FrameError::Oversized { len: 100, max: 10 }) => {}
                other => panic!("expected Oversized, got {other:?}"),
            }
        });
        // A clean close at a frame boundary is None.
        let (a, b) = duplex();
        let reg_b = b.register().unwrap();
        let mut reader = NbReader::new(b, reg_b);
        drop(a);
        block_on(async {
            assert!(reader.read_frame(10).await.unwrap().is_none());
        });
    }

    #[test]
    fn duplex_reads_take_the_whole_ring_at_once() {
        // Wrap the ring buffer: one read must still return every
        // buffered byte, not just the front half.
        let (mut a, mut b) = duplex();
        a.write_all(&[1u8; 6]).unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        a.write_all(&[2u8; 64]).unwrap();
        let mut all = [0u8; 128];
        assert_eq!(b.read(&mut all).unwrap(), 66);
        assert_eq!(&all[..2], &[1, 1]);
        assert!(all[2..66].iter().all(|&byte| byte == 2));
    }

    #[test]
    fn nb_reader_hands_out_buffered_frames_without_io() {
        let (a, b) = duplex();
        let reg_a = a.register().unwrap();
        let reg_b = b.register().unwrap();
        let mut writer = NbWriter::new(a, reg_a);
        let mut reader = NbReader::new(b, reg_b);
        let frames: Vec<Frame> =
            (0..3u8).map(|i| Frame { tag: 0x10 + i, payload: vec![i; 3 + i as usize] }).collect();
        // Queued frames leave in one write...
        for frame in &frames {
            writer.queue_frame(frame, 1024).unwrap();
        }
        block_on(writer.flush()).unwrap();
        assert_eq!(writer.queued(), 0);
        // ...and one read takes them all in: the rest come from the buffer.
        assert!(reader.frames.next_frame(1024).is_none(), "nothing read yet");
        let first = block_on(reader.read_frame(1024)).unwrap().unwrap();
        assert_eq!(first, frames[0]);
        assert_eq!(reader.frames.next_frame(1024).unwrap().unwrap(), frames[1]);
        assert_eq!(reader.frames.next_frame(1024).unwrap().unwrap(), frames[2]);
        assert!(reader.frames.next_frame(1024).is_none());
    }

    #[test]
    fn nb_reader_reassembles_frames_arriving_byte_by_byte() {
        let (mut a, b) = duplex();
        let reg_b = b.register().unwrap();
        let mut reader = NbReader::new(b, reg_b);
        let frames = [
            Frame { tag: 0x01, payload: b"first".to_vec() },
            Frame { tag: 0x02, payload: vec![7u8; 40] },
        ];
        let mut bytes = Vec::new();
        for frame in &frames {
            append_frame(&mut bytes, frame, 1024).unwrap();
        }
        let writer = thread::spawn(move || {
            for byte in bytes {
                a.write_all(&[byte]).unwrap();
                thread::sleep(std::time::Duration::from_micros(200));
            }
            a
        });
        for frame in &frames {
            assert_eq!(&block_on(reader.read_frame(1024)).unwrap().unwrap(), frame);
        }
        drop(writer.join().unwrap());
        assert!(block_on(reader.read_frame(1024)).unwrap().is_none(), "clean close");
    }

    #[test]
    fn nb_reader_grows_for_a_large_frame_and_lets_the_buffer_go_after() {
        let (a, b) = duplex();
        let reg_a = a.register().unwrap();
        let reg_b = b.register().unwrap();
        let mut writer = NbWriter::new(a, reg_a);
        let mut reader = NbReader::new(b, reg_b);
        let big = Frame { tag: 0x05, payload: vec![3u8; 4 * KEEP_BUF] };
        let small = Frame { tag: 0x06, payload: vec![1, 2] };
        block_on(async {
            writer.queue_frame(&big, 1 << 20).unwrap();
            writer.flush().await.unwrap();
            assert_eq!(reader.read_frame(1 << 20).await.unwrap().unwrap(), big);
            writer.queue_frame(&small, 1 << 20).unwrap();
            writer.flush().await.unwrap();
            assert_eq!(reader.read_frame(1 << 20).await.unwrap().unwrap(), small);
        });
        assert!(reader.frames.capacity() <= KEEP_BUF, "an idle reader keeps a small buffer");
    }

    #[test]
    fn nb_reader_reports_eof_mid_length() {
        let (a, b) = duplex();
        let reg_b = b.register().unwrap();
        let mut reader = NbReader::new(b, reg_b);
        let mut a2 = a.try_split().unwrap();
        a2.write_all(&[0, 0]).unwrap(); // two of four prefix bytes
        drop(a2);
        drop(a);
        match block_on(reader.read_frame(1024)) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
    }

    #[test]
    fn nb_reader_reports_truncated_frames() {
        let (a, b) = duplex();
        let reg_b = b.register().unwrap();
        let mut reader = NbReader::new(b, reg_b);
        let mut a2 = a.try_split().unwrap();
        a2.write_all(&5u32.to_be_bytes()).unwrap();
        a2.write_all(&[0x01, 0xAA]).unwrap(); // tag + 1 of 4 payload bytes
        drop(a2);
        drop(a);
        block_on(async {
            match reader.read_frame(1024).await {
                Err(FrameError::Io(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
                }
                other => panic!("expected UnexpectedEof, got {other:?}"),
            }
        });
    }

    /// Parks `reader` in `read_frame`, then has `peer` write one frame and
    /// close before the reader runs again, so a single readiness edge
    /// carries both. The reader must hand out the frame and then see the
    /// clean close, within a deadline.
    fn last_frame_then_close<S, P>(reader: S, peer: P)
    where
        S: Stream,
        P: Write + Send + 'static,
    {
        use std::future::Future;
        use std::task::{Context, Waker};

        let reg = reader.register().unwrap();
        let mut reader = NbReader::new(reader, reg);
        let frame = Frame { tag: 0x09, payload: vec![4, 2] };
        let sent = frame.clone();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let mut peer = peer;
            let got = {
                let mut first = std::pin::pin!(reader.read_frame(1024));
                let mut cx = Context::from_waker(Waker::noop());
                assert!(first.as_mut().poll(&mut cx).is_pending(), "nothing sent yet");
                let mut bytes = Vec::new();
                append_frame(&mut bytes, &sent, 1024).unwrap();
                peer.write_all(&bytes).unwrap();
                drop(peer);
                // Let a socket's data and FIN edges both land first.
                thread::sleep(std::time::Duration::from_millis(20));
                block_on(first).unwrap().unwrap()
            };
            let after = block_on(reader.read_frame(1024)).unwrap();
            let _ = done_tx.send((got, after));
        });
        let (got, after) = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the reader must not wait for an edge after the peer closed");
        assert_eq!(got, frame);
        assert!(after.is_none(), "clean close after the last frame");
    }

    #[test]
    fn nb_reader_sees_the_close_behind_a_last_duplex_frame() {
        let (a, b) = duplex();
        last_frame_then_close(b, a);
    }

    #[test]
    fn nb_reader_sees_the_close_behind_a_last_tcp_frame() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        last_frame_then_close(server, client);
    }

    #[test]
    fn nb_frame_io_roundtrips_over_tcp() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let reg_c = client.register().unwrap();
        let reg_s = server.register().unwrap();
        let mut writer = NbWriter::new(client, reg_c);
        let mut reader = NbReader::new(server, reg_s);
        let frame = Frame { tag: 0x07, payload: vec![9u8; 100_000] };
        let send = frame.clone();
        let writer_thread = thread::spawn(move || {
            block_on(async move {
                writer.queue_frame(&send, 1 << 20).unwrap();
                writer.flush().await.unwrap();
            });
        });
        block_on(async {
            let got = reader.read_frame(1 << 20).await.unwrap().unwrap();
            assert_eq!(got.tag, frame.tag);
            assert_eq!(got.payload.len(), frame.payload.len());
        });
        writer_thread.join().unwrap();
    }

    // ------------------------------- the decoder's two drives, side by side

    /// Frame cap for the fuzzed streams: small, so over-cap lengths and
    /// frames near the cap are both common.
    const FUZZ_CAP: u32 = 64;

    /// A `Read` over fixed bytes that hands them out in the given chunk
    /// sizes, cycling; a zero chunk answers `WouldBlock` instead, after
    /// asserting readiness so the reader's await resolves at once.
    struct Chunked {
        bytes: Vec<u8>,
        at: usize,
        chunks: Vec<usize>,
        next: usize,
        reg: Registration,
    }

    impl Read for Chunked {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let chunk = self.chunks[self.next % self.chunks.len()];
            self.next += 1;
            if chunk == 0 {
                self.reg.notify_readable();
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "fuzzed would-block"));
            }
            let n = chunk.min(out.len()).min(self.bytes.len() - self.at);
            out[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// One piece of a fuzzed stream: mostly a valid frame, else a zero
    /// length, a length over the cap, or up to 11 junk bytes.
    fn stream_piece() -> impl Strategy<Value = Vec<u8>> {
        (0u8..8, FUZZ_CAP + 1..u32::MAX, vec(any::<u8>(), 1..64)).prop_map(|(kind, over, bytes)| {
            match kind {
                0 => 0u32.to_be_bytes().to_vec(),
                1 => over.to_be_bytes().to_vec(),
                2 => bytes[..bytes.len().min(11)].to_vec(),
                _ => {
                    let frame = Frame { tag: bytes[0], payload: bytes[1..].to_vec() };
                    let mut framed = Vec::new();
                    append_frame(&mut framed, &frame, FUZZ_CAP).unwrap();
                    framed
                }
            }
        })
    }

    /// How a reader stopped: a clean `None`, or the error (I/O errors
    /// by kind).
    fn end_of(result: Result<Option<Frame>, FrameError>) -> Result<(), String> {
        match result {
            Ok(_) => Ok(()),
            Err(FrameError::Io(e)) => Err(format!("io {:?}", e.kind())),
            Err(e) => Err(e.to_string()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The non-blocking drive of the one frame decoder (the reader
        /// the server runs) agrees with its blocking drive
        /// (`wire::read_frame`) on the unsplit bytes, however the
        /// transport splits them and whenever it would block, and whether
        /// frames come from `read_frame` or are drained with
        /// `next_frame`.
        #[test]
        fn blocking_and_nonblocking_drives_agree_on_any_split(
            input in (
                vec(stream_piece(), 0..6),
                any::<u64>(),
                vec(0usize..17, 1..8),
                vec(any::<bool>(), 1..8),
            )
        ) {
            let (pieces, cut, mut chunks, drains) = input;
            let mut bytes = pieces.concat();
            // Half the streams stop at an arbitrary byte, cutting a prefix
            // or a frame short.
            if cut & 1 == 1 {
                bytes.truncate((cut >> 1) as usize % (bytes.len() + 1));
            }
            if chunks.iter().all(|&chunk| chunk == 0) {
                chunks.push(1);
            }

            let mut sync = bytes.as_slice();
            let mut expected = Vec::new();
            let expected_end = loop {
                match wire::read_frame(&mut sync, FUZZ_CAP) {
                    Ok(Some(frame)) => expected.push(frame),
                    other => break end_of(other),
                }
            };

            let reg = Reactor::global().register_virtual();
            let stream = Chunked { bytes, at: 0, chunks, next: 0, reg: reg.clone() };
            let mut reader = NbReader::new(stream, reg);
            let mut got = Vec::new();
            let got_end = block_on(async {
                let mut round = 0;
                loop {
                    round += 1;
                    if drains[round % drains.len()] {
                        if let Some(Ok(frame)) = reader.frames.next_frame(FUZZ_CAP) {
                            got.push(frame);
                            continue;
                        }
                    }
                    match reader.read_frame(FUZZ_CAP).await {
                        Ok(Some(frame)) => got.push(frame),
                        other => break end_of(other),
                    }
                }
            });
            prop_assert_eq!(got, expected);
            prop_assert_eq!(got_end, expected_end);
        }
    }
}
