//! `revoke_churn`: policy mutations beside reads, against a
//! daemon-backed durable server (`Server::bind_with_daemon`) on loopback
//! TCP.
//!
//! Set-up recovers a data directory built from the seed: installed
//! policies, snapshot logs, and a journal of revocations. Then, for the
//! run's length:
//!
//! - connection A sends open-loop `AsyncClient` checks at `LOW_RATE`
//!   against reader tenants that are never mutated (bystander latency);
//! - connection B is a subscribed `CachedClient` running cached checks
//!   over the writer tenant's keys, paced, and every `CYCLE_EVERY`
//!   checks an install → reload → revoke → reinstall cycle on the key it
//!   just checked (so its L1 holds it). Each revoke is journaled with
//!   fsync, pushed, acknowledged, and the key refetched on its next
//!   check. The last quarter of the run issues cycles back to back to
//!   measure mutation capacity.

use std::collections::HashSet;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use conseca_core::{is_allowed, Policy, PolicyEntry};
use conseca_engine::{Engine, JournalOptions, RevocationJournal};
use conseca_serve::{
    AsyncClient, CachedClient, DaemonConfig, LifecycleDaemon, ServeConfig, Server,
};

use crate::check_stream::LOW_RATE;
use crate::hist::Hist;
use crate::inputs::{
    build_keys, digest_picks, recorded_calls, schedule, Expect, Key, Oracle, Pick,
};
use crate::openloop::{Conn, LoadGen, PhaseRec};
use crate::probe::{Closer, ProbeStream, Watchdog};
use crate::report::{num, Cfg, Generator, Outcome};
use crate::util::{sleep_until, Digest};

/// Paced cached checks on connection B, per second.
const CACHED_RATE: f64 = 2_000.0;
/// Cached checks between two mutation cycles in the paced phase.
const CYCLE_EVERY: u64 = 100;
/// Share of the run spent in the paced phase; the rest runs cycles back
/// to back.
const PACED_SHARE: f64 = 0.75;
/// Fixed snapshot tick of the daemon.
const SNAPSHOT_TICK: Duration = Duration::from_millis(250);
/// Recovery repetitions for the median set-up time.
const RECOVERIES: usize = 5;
/// Deadline for one operation on connection B.
const OP_BUDGET: Duration = Duration::from_secs(10);
/// Share of reader checks drawn from mutated calls.
const MUTATED: f64 = 0.45;
const WRITER: &str = "writer";
/// Users whose keys live in the reader tenants (one tenant each).
const READERS: [&str; 4] = ["alice", "bob", "carol", "dave"];
/// Users whose keys the writer tenant holds.
const WRITER_USERS: [&str; 2] = ["erin", "frank"];
/// Retired policies in the pre-built directory, revoked after their
/// snapshot was logged.
const DECOYS: usize = 20;

/// A writer key with its two churn variants.
struct Churn {
    key: Key,
    v1: Policy,
    v2: Policy,
}

fn variant(base: &Policy, k: usize, tag: &str) -> Policy {
    let mut p = base.clone();
    p.set(&format!("audit_{k}_{tag}"), PolicyEntry::allow_any("churn variant"));
    p
}

/// Builds the data directory recovery starts from: every reader and
/// writer key installed, a snapshot logged, and `DECOYS` retired
/// policies logged and then revoked. Returns the decoy fingerprints.
fn prebuild(dir: &std::path::Path, readers: &[Key], writers: &[Churn]) -> HashSet<u64> {
    let _ = std::fs::remove_dir_all(dir);
    let server = Server::start_with_daemon(
        Arc::new(Engine::default()),
        ServeConfig::default(),
        DaemonConfig::at(dir),
    )
    .expect("open a fresh data directory");
    let mut client = server.connect().expect("in-process connect");
    for key in readers.iter().chain(writers.iter().map(|w| &w.key)) {
        client.install(&key.tenant, &key.task, &key.context, &key.policy).expect("install");
    }
    let mut decoys = HashSet::new();
    for (i, w) in writers.iter().take(DECOYS).enumerate() {
        let decoy = variant(&w.key.policy, i, "retired");
        let task = format!("retired {i}");
        client.install(WRITER, &task, &w.key.context, &decoy).expect("install decoy");
        decoys.insert(decoy.fingerprint());
    }
    server.daemon().expect("daemon attached").snapshot_now();
    for &fp in &decoys {
        client.revoke(WRITER, fp).expect("revoke decoy");
    }
    client.close();
    server.shutdown();
    decoys
}

/// Connection B's counters and timings.
#[derive(Default)]
struct Writer {
    cached: Hist,
    refetch: Hist,
    mutation: Hist,
    revoke: Hist,
    plain_rt: Hist,
    checks: u64,
    l1_hits: u64,
    mutations: u64,
    closed_mutations: u64,
    closed_secs: f64,
    attempted: u64,
    failed: u64,
    mismatched: u64,
}

/// Connection B: a subscribed cached client with a watchdog deadline on
/// every operation.
struct Churner<'a> {
    client: CachedClient,
    closer: Closer,
    dog: &'a Watchdog,
    writers: &'a [Churn],
    /// Fingerprints revoked and not reinstated, as the benchmark did them.
    revoked: HashSet<u64>,
    /// Keys whose next check must refetch (invalidated since cached).
    stale: Vec<bool>,
    trace: bool,
    dead: bool,
    w: Writer,
}

impl Churner<'_> {
    /// Runs `op` under the deadline; `None` (and a failure) if it
    /// errored or the deadline closed the connection.
    fn guarded<T, E>(&mut self, op: impl FnOnce(&mut CachedClient) -> Result<T, E>) -> Option<T> {
        if self.dead {
            return None;
        }
        self.w.attempted += 1;
        self.dog.arm(OP_BUDGET, &self.closer);
        let result = op(&mut self.client);
        let fired = self.dog.disarm();
        match result {
            Ok(v) if !fired => Some(v),
            _ => {
                self.w.failed += 1;
                self.dead = true;
                None
            }
        }
    }

    /// One cached check of `pick`, compared with the interpreted
    /// decision under the key's base policy.
    fn check(&mut self, pick: Pick) {
        let k = pick.key as usize;
        let writers = self.writers;
        let key = &writers[k].key;
        let call = &key.calls[pick.call as usize];
        let hits_before = self.client.local_counters().hits;
        let t = Instant::now();
        let Some(decision) = self.guarded(|c| c.check(&key.task, &key.context, call)) else {
            return;
        };
        let took = t.elapsed();
        self.w.cached.record_dur(took);
        self.w.checks += 1;
        if self.client.local_counters().hits > hits_before {
            self.w.l1_hits += 1;
        }
        if std::mem::take(&mut self.stale[k]) {
            self.w.refetch.record_dur(took);
        }
        match decision {
            Some(d) if Expect::of(&is_allowed(call, &key.policy)).matches(&d) => {}
            _ => self.w.mismatched += 1,
        }
    }

    /// Times one mutation.
    fn mutate<T, E>(&mut self, op: impl FnOnce(&mut CachedClient) -> Result<T, E>) -> Option<T> {
        let t = Instant::now();
        let out = self.guarded(op);
        if out.is_some() {
            self.w.mutation.record_dur(t.elapsed());
            self.w.mutations += 1;
        }
        out
    }

    /// install(v1) → reload(v2) → revoke(v2) → check misses →
    /// reinstall(base), on key `k`.
    fn cycle(&mut self, k: usize, probe: Pick) {
        let writers = self.writers;
        let w = &writers[k];
        let (task, ctx) = (&w.key.task, &w.key.context);
        let (v1, v2) = (w.v1.fingerprint(), w.v2.fingerprint());
        match self.mutate(|c| c.install(task, ctx, &w.v1)) {
            Some(r) if r.fingerprint == v1 => {}
            Some(_) => self.w.mismatched += 1,
            None => return,
        }
        self.revoked.remove(&v1);
        match self.mutate(|c| c.reload(task, ctx, &w.v2)) {
            Some(r) if r.old_fingerprint == Some(v1) && r.fingerprint == v2 => {}
            Some(_) => self.w.mismatched += 1,
            None => return,
        }
        self.revoked.remove(&v2);
        let t = Instant::now();
        match self.mutate(|c| c.revoke(v2)) {
            Some(1) => {}
            Some(_) => self.w.mismatched += 1,
            None => return,
        }
        self.w.revoke.record_dur(t.elapsed());
        self.revoked.insert(v2);
        if self.trace {
            let t = Instant::now();
            if self.guarded(|c| c.server_stats()).is_some() {
                self.w.plain_rt.record_dur(t.elapsed());
            }
        }
        // A revoked key misses until it is reinstalled.
        let call = &w.key.calls[probe.call as usize];
        match self.guarded(|c| c.check(task, ctx, call)) {
            Some(None) => {}
            Some(Some(_)) => self.w.mismatched += 1,
            None => return,
        }
        let base = w.key.policy.fingerprint();
        match self.mutate(|c| c.install(task, ctx, &w.key.policy)) {
            Some(r) if r.fingerprint == base => {}
            Some(_) => self.w.mismatched += 1,
            None => return,
        }
        self.revoked.remove(&base);
        self.stale[k] = true;
    }
}

/// Runs the workload.
pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::new("revoke_churn", cfg);
    let mut digest = Digest::default();
    let recorded = recorded_calls();
    let readers =
        build_keys(cfg.seed, &READERS, &|u| format!("reader-{u}"), &recorded, false, &mut digest);
    let writers: Vec<Churn> = build_keys(
        cfg.seed ^ 0x57,
        &WRITER_USERS,
        &|_| WRITER.into(),
        &recorded,
        false,
        &mut digest,
    )
    .into_iter()
    .enumerate()
    .map(|(k, key)| {
        let v1 = variant(&key.policy, k, "v1");
        let v2 = variant(&key.policy, k, "v2");
        Churn { key, v1, v2 }
    })
    .collect();
    let reader_pools: Vec<usize> = readers.iter().map(|k| k.calls.len()).collect();
    let writer_pools: Vec<usize> = writers.iter().map(|w| w.key.calls.len()).collect();
    let n_reader = (LOW_RATE * cfg.seconds * 1.1) as usize + 16;
    let reader_picks = schedule(cfg.seed, 0xA, &reader_pools, n_reader, MUTATED);
    let writer_picks =
        schedule(cfg.seed, 0xB, &writer_pools, (CACHED_RATE * cfg.seconds) as usize + 16, 0.3);
    digest_picks(&mut digest, &reader_picks);
    digest_picks(&mut digest, &writer_picks);
    let mut oracle = Oracle::default();
    let reader_stream: Vec<(Pick, Expect)> =
        reader_picks.into_iter().map(|p| (p, Expect::of(&oracle.judge(0, &readers, p)))).collect();

    let dir = cfg.data_dir.join("durable");
    let decoys = prebuild(&dir, &readers, &writers);

    // Set-up: recover the directory RECOVERIES - 1 times standalone,
    // then once more as the serving daemon, and connect.
    let mut setup = Hist::new();
    let mut recover = Hist::new();
    for _ in 1..RECOVERIES {
        let t = Instant::now();
        let daemon = LifecycleDaemon::start(Arc::new(Engine::default()), DaemonConfig::at(&dir))
            .expect("recover the data directory");
        let took = t.elapsed();
        setup.record_dur(took);
        recover.record_dur(took);
        daemon.stop();
    }
    let t = Instant::now();
    let server = Server::bind_with_daemon(
        Arc::new(Engine::default()),
        "127.0.0.1:0",
        ServeConfig::default(),
        DaemonConfig::at(&dir).snapshot_every(SNAPSHOT_TICK),
    )
    .expect("recover and bind");
    recover.record_dur(t.elapsed());
    let addr = server.local_addr().expect("TCP server has an address").to_string();
    let reader_client = AsyncClient::connect(&addr).expect("connect A");
    let tcp = TcpStream::connect(&addr).expect("connect B");
    let _ = tcp.set_nodelay(true);
    let stream = ProbeStream::new(tcp, None);
    let closer = stream.closer().expect("split B");
    let cached = CachedClient::over(stream, WRITER).expect("subscribe B");
    setup.record_dur(t.elapsed());
    let recovery = server.daemon().expect("daemon attached").recovery().clone();

    let dog = Watchdog::start();
    let mut churner = Churner {
        client: cached,
        closer,
        dog: &dog,
        writers: &writers,
        revoked: decoys,
        stale: vec![true; writers.len()],
        trace: cfg.trace,
        dead: false,
        w: Writer::default(),
    };
    let paced = Duration::from_secs_f64(cfg.seconds * PACED_SHARE);
    let closed = Duration::from_secs_f64(cfg.seconds * (1.0 - PACED_SHARE));
    let mut recs: Vec<PhaseRec> = (0..2).map(|_| PhaseRec::default()).collect();
    let barrier = Barrier::new(2);
    let metrics_before = server.metrics();
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut load =
                LoadGen::new(&readers, vec![Conn::new(reader_client, reader_stream)], cfg.trace);
            barrier.wait();
            load.open_phase(LOW_RATE, paced, 0, &mut recs);
            load.open_phase(LOW_RATE, closed, 1, &mut recs);
        });
        barrier.wait();
        drive_writer(&mut churner, &writer_picks, paced, closed);
        reader.join().expect("reader thread panicked");
    });
    let metrics_after = server.metrics();

    // The journal's revoked set must be exactly what the run left revoked.
    let journal = server.daemon().expect("daemon attached").journal();
    let journaled = journal.revoked_snapshot(WRITER).unwrap_or_default();
    out.attempted += 1;
    if journaled != churner.revoked {
        out.mismatched += 1;
    }
    let fallbacks = churner.client.fallbacks();
    let mut snapshot_tick = Hist::new();
    if cfg.trace {
        for _ in 0..5 {
            let t = Instant::now();
            server.daemon().expect("daemon attached").snapshot_now();
            snapshot_tick.record_dur(t.elapsed());
        }
    }
    let w = std::mem::take(&mut churner.w);
    drop(churner);
    drop(dog);
    server.shutdown();

    out.attempted += w.attempted;
    out.failed += w.failed;
    out.mismatched += w.mismatched;
    for rec in &recs {
        out.attempted += rec.attempted;
        out.failed += rec.failed;
        out.mismatched += rec.mismatched;
    }
    let mutation = w.mutation.summary(1e-3);
    let bystander = recs[0].latency.summary(1e-3);
    out.e2e("main_p50_us", mutation.p50, "us");
    out.diag("main_p90_us", num(mutation.p90));
    out.e2e("side_p50_us", recs[0].windowed(0.5) * 1e-3, "us");
    out.diag("side_p90_us", num(recs[0].windowed(0.9) * 1e-3));
    out.e2e("ops_per_s", w.closed_mutations as f64 / w.closed_secs.max(1e-9), "1/s");
    out.e2e("setup_s", setup.quantile(0.5) * 1e-9, "s");

    out.diag("schedule_digest", format!("\"{}\"", digest.hex()));
    out.diag("server_workers", metrics_after.workers.to_string());
    out.generator =
        Generator { threads: 2, connections: 2, shape: "A open loop; B paced, then closed loop" };
    out.diag("mutation_us", mutation.json());
    out.diag("revoke_us", w.revoke.summary(1e-3).json());
    out.diag("cached_check_us", w.cached.summary(1e-3).json());
    out.diag("bystander_paced_us", bystander.json());
    out.diag("bystander_closed_churn_us", recs[1].latency.summary(1e-3).json());
    out.diag("bystander_lateness_us", recs[0].lateness.summary(1e-3).json());
    out.diag("mutations", w.mutations.to_string());
    out.diag("revoked_at_end", journaled.len().to_string());
    out.diag("server_requests", (metrics_after.requests - metrics_before.requests).to_string());
    out.diag(
        "recovery",
        format!(
            "{{\"installed\": {}, \"skipped_revoked\": {}, \"corrupt_logs\": {}, \"ms\": {}}}",
            recovery.installed(),
            recovery.skipped_revoked(),
            recovery.corrupt_logs,
            recover.summary(1e-6).json()
        ),
    );

    if cfg.trace {
        let journal_us = journal_append_us(&cfg.data_dir.join("probe-ledger.csj"));
        let revoke_us = engine_revoke_us(&writers);
        let plain = w.plain_rt.quantile(0.5) * 1e-3;
        let wire_revoke = w.revoke.quantile(0.5) * 1e-3;
        out.layer("journal.append_sync_us", journal_us, "us");
        out.layer("engine.revoke_us", revoke_us, "us");
        out.layer("push.fanout_residual_us", wire_revoke - journal_us - revoke_us - plain, "us");
        out.layer("cache.refetch_us", w.refetch.quantile(0.5) * 1e-3, "us");
        out.layer("cache.hit_ratio", w.l1_hits as f64 / w.checks.max(1) as f64, "ratio");
        out.layer("cache.fallbacks", fallbacks as f64, "count");
        out.layer("daemon.snapshot_tick_us", snapshot_tick.quantile(0.5) * 1e-3, "us");
        out.layer("daemon.recover_ms", recover.quantile(0.5) * 1e-6, "ms");
        out.layer("daemon.recovered_installed", recovery.installed() as f64, "count");
        out.layer("daemon.recovered_skipped_revoked", recovery.skipped_revoked() as f64, "count");
        out.diag("plain_round_trip_us", format!("{plain}"));
    }
    out
}

/// Connection B's loop: paced cached checks with a cycle every
/// `CYCLE_EVERY` checks, then cycles back to back.
fn drive_writer(b: &mut Churner<'_>, picks: &[Pick], paced: Duration, closed: Duration) {
    let start = Instant::now();
    let interval = 1e9 / CACHED_RATE;
    let mut i = 0usize;
    while start.elapsed() < paced && i < picks.len() && !b.dead {
        sleep_until(start + Duration::from_nanos((i as f64 * interval) as u64));
        b.check(picks[i]);
        if (i as u64 + 1).is_multiple_of(CYCLE_EVERY) {
            b.cycle(picks[i].key as usize, picks[i]);
        }
        i += 1;
    }
    let t = Instant::now();
    let before = b.w.mutations;
    while t.elapsed() < closed && !b.dead {
        let pick = picks[i % picks.len()];
        b.check(pick);
        b.cycle(pick.key as usize, pick);
        i += 1;
    }
    b.w.closed_mutations = b.w.mutations - before;
    b.w.closed_secs = t.elapsed().as_secs_f64();
}

/// `RevocationJournal::record_revoke` with fsync, on the data
/// directory's filesystem: median microseconds.
fn journal_append_us(path: &std::path::Path) -> f64 {
    let _ = std::fs::remove_file(path);
    let (journal, _) =
        RevocationJournal::open(path, JournalOptions::default()).expect("open a probe journal");
    let mut h = Hist::new();
    for i in 0..200u64 {
        let t = Instant::now();
        journal.record_revoke("probe", i).expect("journal append");
        h.record_dur(t.elapsed());
    }
    h.quantile(0.5) * 1e-3
}

/// `Engine::revoke_fingerprint` with no listeners: median microseconds.
fn engine_revoke_us(writers: &[Churn]) -> f64 {
    let engine = Engine::default();
    for w in writers {
        engine.install(WRITER, &w.key.task, &w.key.context, &w.key.policy);
    }
    let mut h = Hist::new();
    for w in writers {
        let t = Instant::now();
        std::hint::black_box(engine.revoke_fingerprint(WRITER, w.key.policy.fingerprint()));
        h.record_dur(t.elapsed());
    }
    h.quantile(0.5) * 1e-3
}
