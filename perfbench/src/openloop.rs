//! The load generator for served checks: pipelined `AsyncClient`
//! connections driven from one thread, open loop (sent on a fixed
//! schedule, each check timed from its due time) or closed loop (a fixed
//! number in flight per connection).
//!
//! Completions are stamped by the client's own demultiplexer: each
//! pending response is polled once with a [`Stamp`] waker, which records
//! the instant the response is delivered. The generator reaps stamped
//! responses between sends and checks each one against the oracle's
//! expectation.

use std::collections::VecDeque;
use std::task::Poll;
use std::time::{Duration, Instant};

use conseca_core::Decision;
use conseca_serve::{AsyncClient, ClientError, Pending};

use crate::hist::Hist;
use crate::inputs::{Expect, Key, Pick};
use crate::util::{better_half_median, poll_stamped, sleep_until, Stamp};

/// How long after a phase ends its last responses may still arrive
/// before they count as failed.
const DRAIN: Duration = Duration::from_secs(5);

/// Length of the windows a phase's latency is also split into, ns.
const WINDOW_NS: u64 = 250_000_000;

/// What one phase measured.
#[derive(Debug, Default)]
pub struct PhaseRec {
    /// When the phase started, ns since the generator's base instant.
    start: u64,
    /// Latency per `WINDOW_NS` window of due times, ns.
    windows: Vec<Hist>,
    /// Latency from each check's due time to its delivered response, ns.
    pub latency: Hist,
    /// Round trip from the start of submission to delivery, ns.
    pub round_trip: Hist,
    /// How late the generator sent each check, ns.
    pub lateness: Hist,
    /// Time spent inside `AsyncClient::check` (traced runs only), ns.
    pub submit: Hist,
    /// Checks sent (or attempted).
    pub attempted: u64,
    /// Responses delivered and checked.
    pub done: u64,
    /// Checks that errored or never answered.
    pub failed: u64,
    /// Responses that disagreed with the oracle.
    pub mismatched: u64,
    /// Denied verdicts among the delivered responses.
    pub denied: u64,
}

impl PhaseRec {
    /// Each window's `q`-quantile latency, summarised over the phase's
    /// windows as the median of the better half, in ns: contention from
    /// other tenants only adds latency, so it moves the worse windows and
    /// leaves this alone, while a slower code path moves every window.
    pub fn windowed(&self, q: f64) -> f64 {
        let per: Vec<f64> =
            self.windows.iter().filter(|h| h.count() > 0).map(|h| h.quantile(q)).collect();
        better_half_median(per, false)
    }
}

struct InFlight {
    phase: usize,
    due: u64,
    submitted: u64,
    pending: Pending<Option<Decision>>,
    stamp: std::sync::Arc<Stamp>,
    expect: Expect,
}

/// One connection and the checks scheduled for it, each with the
/// oracle's expected decision.
pub struct Conn {
    client: AsyncClient,
    picks: Vec<(Pick, Expect)>,
    pos: usize,
    inflight: VecDeque<InFlight>,
}

impl Conn {
    /// A connection that will send `picks`, in order.
    pub fn new(client: AsyncClient, picks: Vec<(Pick, Expect)>) -> Self {
        Conn { client, picks, pos: 0, inflight: VecDeque::new() }
    }

    /// Checks sent so far.
    pub fn sent(&self) -> usize {
        self.pos
    }
}

/// Drives a set of connections from the calling thread.
pub struct LoadGen<'a> {
    base: Instant,
    keys: &'a [Key],
    /// The connections, in the order the open loop round-robins them.
    pub conns: Vec<Conn>,
    trace: bool,
}

impl<'a> LoadGen<'a> {
    /// A generator over `conns`, checking `keys`, run from the calling
    /// thread.
    pub fn new(keys: &'a [Key], conns: Vec<Conn>, trace: bool) -> Self {
        crate::util::tighten_timer_slack();
        LoadGen { base: Instant::now(), keys, conns, trace }
    }

    fn since_base(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Sends connection `c`'s next check, due at `due`. Returns `false`
    /// when the connection's schedule is exhausted.
    fn submit(&mut self, c: usize, phase: usize, due: Instant, recs: &mut [PhaseRec]) -> bool {
        let (due_ns, submit_start) = (self.since_base(due), Instant::now());
        let submitted = self.since_base(submit_start);
        let conn = &mut self.conns[c];
        let Some(&(pick, expect)) = conn.picks.get(conn.pos) else {
            return false;
        };
        conn.pos += 1;
        let key = &self.keys[pick.key as usize];
        let call = &key.calls[pick.call as usize];
        let rec = &mut recs[phase];
        rec.attempted += 1;
        rec.lateness.record_dur(submit_start.saturating_duration_since(due));
        let sent = conn.client.check(&key.tenant, &key.task, &key.context, call);
        if self.trace {
            rec.submit.record_dur(submit_start.elapsed());
        }
        let mut pending = match sent {
            Ok(pending) => pending,
            Err(_) => {
                rec.failed += 1;
                return true;
            }
        };
        let stamp = Stamp::new(self.base);
        match poll_stamped(&mut pending, &stamp) {
            Poll::Ready(result) => {
                let at = stamp.get().unwrap_or(submitted);
                finish(rec, due_ns, submitted, at, expect, result);
            }
            Poll::Pending => conn.inflight.push_back(InFlight {
                phase,
                due: due_ns,
                submitted,
                pending,
                stamp,
                expect,
            }),
        }
        true
    }

    /// Collects every delivered response; returns how many each
    /// connection completed.
    fn reap(&mut self, recs: &mut [PhaseRec]) -> Vec<usize> {
        let mut counts = vec![0; self.conns.len()];
        for (c, conn) in self.conns.iter_mut().enumerate() {
            // Responses on one connection arrive in order, but check the
            // whole queue: a stamped entry behind an unstamped one is
            // still done.
            let mut i = 0;
            while i < conn.inflight.len() {
                let Some(at) = conn.inflight[i].stamp.get() else {
                    i += 1;
                    continue;
                };
                let entry = &mut conn.inflight[i];
                match poll_stamped(&mut entry.pending, &entry.stamp) {
                    Poll::Ready(result) => {
                        let entry = conn.inflight.remove(i).expect("index in range");
                        let rec = &mut recs[entry.phase];
                        finish(rec, entry.due, entry.submitted, at, entry.expect, result);
                        counts[c] += 1;
                    }
                    Poll::Pending => i += 1,
                }
            }
        }
        counts
    }

    /// Waits for every in-flight check until `deadline`; what is still
    /// unanswered then counts as failed.
    pub fn drain(&mut self, recs: &mut [PhaseRec], deadline: Instant) {
        loop {
            self.reap(recs);
            if self.conns.iter().all(|c| c.inflight.is_empty()) {
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                for conn in &mut self.conns {
                    for entry in conn.inflight.drain(..) {
                        recs[entry.phase].failed += 1;
                    }
                }
                return;
            }
            std::thread::park_timeout((deadline - now).min(Duration::from_millis(1)));
        }
    }

    /// Open loop: `rate` checks per second for `dur`, round-robin over
    /// the connections, each timed from its due time. Ends early if a
    /// schedule runs out.
    pub fn open_phase(&mut self, rate: f64, dur: Duration, phase: usize, recs: &mut [PhaseRec]) {
        let start = Instant::now();
        recs[phase].start = self.since_base(start);
        let n = (rate * dur.as_secs_f64()) as u64;
        let interval = 1e9 / rate;
        let conns = self.conns.len();
        for i in 0..n {
            let due = start + Duration::from_nanos((i as f64 * interval) as u64);
            self.reap(recs);
            sleep_until(due);
            if !self.submit(i as usize % conns, phase, due, recs) {
                break;
            }
        }
        self.drain(recs, Instant::now() + DRAIN);
    }

    /// Closed loop: `depth` checks in flight per connection for `dur`.
    /// Returns checks completed per second.
    pub fn closed_phase(
        &mut self,
        depth: usize,
        dur: Duration,
        phase: usize,
        recs: &mut [PhaseRec],
    ) -> f64 {
        let start = Instant::now();
        recs[phase].start = self.since_base(start);
        let end = start + dur;
        let done_before = recs[phase].done;
        for c in 0..self.conns.len() {
            for _ in 0..depth {
                self.submit(c, phase, Instant::now(), recs);
            }
        }
        let mut now = Instant::now();
        while now < end {
            let counts = self.reap(recs);
            let mut any = false;
            for (c, &k) in counts.iter().enumerate() {
                for _ in 0..k {
                    any = true;
                    self.submit(c, phase, Instant::now(), recs);
                }
            }
            if !any {
                if self.conns.iter().all(|c| c.inflight.is_empty()) {
                    break; // every schedule ran out
                }
                std::thread::park_timeout(Duration::from_micros(200));
            }
            now = Instant::now();
        }
        let elapsed = start.elapsed().as_secs_f64();
        let done = recs[phase].done - done_before;
        self.drain(recs, Instant::now() + DRAIN);
        done as f64 / elapsed
    }
}

fn finish(
    rec: &mut PhaseRec,
    due: u64,
    submitted: u64,
    at: u64,
    expect: Expect,
    result: Result<Option<Decision>, ClientError>,
) {
    match result {
        Ok(Some(decision)) => {
            rec.done += 1;
            let latency = at.saturating_sub(due);
            rec.latency.record(latency);
            let w = (due.saturating_sub(rec.start) / WINDOW_NS) as usize;
            if w >= rec.windows.len() {
                rec.windows.resize_with(w + 1, Hist::new);
            }
            rec.windows[w].record(latency);
            rec.round_trip.record(at.saturating_sub(submitted));
            if !decision.allowed {
                rec.denied += 1;
            }
            if !expect.matches(&decision) {
                rec.mismatched += 1;
            }
        }
        // A missing policy is a wrong answer: every key was installed.
        Ok(None) => {
            rec.done += 1;
            rec.mismatched += 1;
        }
        Err(_) => rec.failed += 1,
    }
}
