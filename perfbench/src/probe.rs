//! A transport wrapper that gives every blocking client call a deadline
//! and, when tracing, times each request/response round trip as the
//! client sees it.
//!
//! The sync clients (`Client`, `CachedClient`) block without a timeout.
//! Wrapping their stream in a [`ProbeStream`] lets a [`Watchdog`] close
//! the connection out-of-band when an armed deadline passes, which turns
//! a stuck call into a transport error the workload counts as failed.

use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use conseca_serve::Stream;
use futures::reactor::Registration;

use crate::hist::Hist;

/// Round trips observed on one connection: a round trip starts at the
/// first write after the previous response was read, and ends at the
/// last read before the next write (or at [`RoundTrips::finish`]).
#[derive(Debug, Default)]
pub struct RoundTrips {
    start: Option<Instant>,
    last_read: Option<Instant>,
    /// Round-trip times, nanoseconds.
    pub hist: Hist,
}

impl RoundTrips {
    fn on_write(&mut self, now: Instant) {
        if self.last_read.is_some() {
            self.finish();
        }
        if self.start.is_none() {
            self.start = Some(now);
        }
    }

    fn on_read(&mut self, now: Instant) {
        if self.start.is_some() {
            self.last_read = Some(now);
        }
    }

    /// Closes the round trip in progress, if a response was read.
    pub fn finish(&mut self) {
        if let (Some(start), Some(end)) = (self.start.take(), self.last_read.take()) {
            self.hist.record_dur(end - start);
        }
    }
}

/// A [`Stream`] wrapper: forwards everything to `inner`, optionally
/// recording round trips. Split handles share the recorder.
pub struct ProbeStream<S> {
    inner: S,
    trips: Option<Arc<Mutex<RoundTrips>>>,
}

impl<S: Stream> ProbeStream<S> {
    /// Wraps `inner`; `trips` enables round-trip timing.
    pub fn new(inner: S, trips: Option<Arc<Mutex<RoundTrips>>>) -> Self {
        ProbeStream { inner, trips }
    }

    /// A closure that closes the underlying connection out-of-band.
    ///
    /// # Errors
    ///
    /// When the transport cannot hand out another handle.
    pub fn closer(&self) -> io::Result<Closer> {
        let handle = Mutex::new(self.inner.try_split()?);
        Ok(Arc::new(move || handle.lock().unwrap_or_else(|e| e.into_inner()).close()))
    }
}

impl<S: Read> Read for ProbeStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n > 0 {
            if let Some(trips) = &self.trips {
                trips.lock().expect("round-trip recorder poisoned").on_read(Instant::now());
            }
        }
        Ok(n)
    }
}

impl<S: Write> Write for ProbeStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(trips) = &self.trips {
            trips.lock().expect("round-trip recorder poisoned").on_write(Instant::now());
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<S: Stream> Stream for ProbeStream<S> {
    fn try_split(&self) -> io::Result<Self> {
        Ok(ProbeStream { inner: self.inner.try_split()?, trips: self.trips.clone() })
    }

    fn close(&self) {
        self.inner.close();
    }

    fn register(&self) -> io::Result<Registration> {
        self.inner.register()
    }
}

/// Closes one connection.
pub type Closer = Arc<dyn Fn() + Send + Sync>;

struct Armed {
    deadline: Instant,
    closer: Closer,
    fired: bool,
}

#[derive(Default)]
struct State {
    armed: Option<Armed>,
    stop: bool,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    wake: Condvar,
}

/// Closes a connection whose armed deadline passed, from a thread of its
/// own; dropping the watchdog stops and joins that thread.
pub struct Watchdog {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Starts the watchdog thread.
    pub fn start() -> Self {
        let shared = Arc::new(Shared::default());
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || watch(&shared))
        };
        Watchdog { shared, thread: Some(thread) }
    }

    /// Arms the deadline: if still armed after `budget`, `closer` runs.
    pub fn arm(&self, budget: Duration, closer: &Closer) {
        let mut state = self.shared.state.lock().expect("watchdog poisoned");
        state.armed = Some(Armed {
            deadline: Instant::now() + budget,
            closer: Arc::clone(closer),
            fired: false,
        });
        self.shared.wake.notify_all();
    }

    /// Disarms the deadline, reporting whether it had fired.
    pub fn disarm(&self) -> bool {
        let mut state = self.shared.state.lock().expect("watchdog poisoned");
        state.armed.take().is_some_and(|a| a.fired)
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shared.state.lock().unwrap_or_else(|e| e.into_inner()).stop = true;
        self.shared.wake.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn watch(shared: &Shared) {
    let mut state = shared.state.lock().expect("watchdog poisoned");
    while !state.stop {
        let now = Instant::now();
        let mut wait = Duration::from_millis(100);
        if let Some(armed) = state.armed.as_mut().filter(|a| !a.fired) {
            if armed.deadline <= now {
                armed.fired = true;
                (armed.closer)();
            } else {
                wait = armed.deadline - now;
            }
        }
        state = shared.wake.wait_timeout(state, wait).expect("watchdog poisoned").0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conseca_serve::duplex;

    #[test]
    fn round_trips_span_first_write_to_last_read() {
        let trips = Arc::new(Mutex::new(RoundTrips::default()));
        let (a, mut b) = duplex();
        let mut a = ProbeStream::new(a, Some(Arc::clone(&trips)));
        for _ in 0..3 {
            a.write_all(b"req").unwrap();
            let mut buf = [0u8; 3];
            b.read_exact(&mut buf).unwrap();
            b.write_all(b"resp").unwrap();
            let mut got = [0u8; 4];
            a.read_exact(&mut got).unwrap();
        }
        trips.lock().unwrap().finish();
        assert_eq!(trips.lock().unwrap().hist.count(), 3);
    }

    #[test]
    fn an_expired_deadline_closes_the_connection() {
        let dog = Watchdog::start();
        let (a, _b) = duplex();
        let mut a = ProbeStream::new(a, None);
        let closer = a.closer().unwrap();
        dog.arm(Duration::from_millis(10), &closer);
        // The peer never answers: the read blocks until the watchdog
        // closes the stream, then reports EOF.
        let mut buf = [0u8; 1];
        assert_eq!(a.read(&mut buf).unwrap(), 0);
        assert!(dog.disarm(), "the deadline fired");
        dog.arm(Duration::from_secs(60), &closer);
        assert!(!dog.disarm(), "a disarmed deadline never fires");
    }
}
