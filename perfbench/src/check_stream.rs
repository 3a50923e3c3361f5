//! `check_stream`: pipelined check traffic over two long-lived loopback
//! TCP connections.
//!
//! Keys are the template model's Conseca policies for the 20 Table-A
//! tasks under each of the world's 10 users (200 keys, below the store's
//! 1024-entry capacity), with Zipf popularity over ranks the seed
//! orders (see [`build_keys`]); a quarter of the keys carry trajectory
//! constraints, so the server's per-(connection, key) session path
//! runs. Calls are recorded from agent traces plus seeded
//! argument mutations. Open loop at `LOW_RATE`, then `HIGH_RATE`, each
//! check timed from its due time; then a closed loop at `DEPTH` per
//! connection measures capacity. No generation and no agent loop: the
//! work is on the wire, reactor, dispatcher, store and compiled checks.

use std::sync::Arc;
use std::time::{Duration, Instant};

use conseca_core::Decision;
use conseca_engine::{Engine, SessionState};
use conseca_serve::wire::{unwrap_tagged, wrap_tagged, DEFAULT_MAX_FRAME_LEN};
use conseca_serve::{AsyncClient, Request, Response, ServeConfig, ServeMetrics, Server};
use conseca_workloads::USERS;

use crate::hist::Hist;
use crate::inputs::{
    build_keys, digest_picks, recorded_calls, schedule, Expect, Key, Oracle, Pick,
};
use crate::openloop::{Conn, LoadGen, PhaseRec};
use crate::report::{num, Cfg, Generator, Outcome};
use crate::util::{wait_until, Digest};

/// Offered load of the low open-loop phase, checks per second.
pub(crate) const LOW_RATE: f64 = 2_000.0;
/// Offered load of the high open-loop phase, checks per second.
const HIGH_RATE: f64 = 10_000.0;
/// Checks in flight per connection in the closed-loop phase.
const DEPTH: usize = 32;
/// Schedule reserved for the closed-loop phase, checks per second per
/// connection; the phase ends early if a connection exhausts it.
const CLOSED_CAP_RATE: f64 = 60_000.0;
/// Connections (and the generator's thread count is one).
const CONNS: usize = 2;
/// Share of checks drawn from the mutated half of each call pool.
const MUTATED: f64 = 0.45;
/// Times the policy load is repeated to take a median set-up time.
const LOADS: usize = 5;
/// Deadline for one set-up request.
const REQUEST_BUDGET: Duration = Duration::from_secs(10);

fn tenant_of(user: &str) -> String {
    format!("tenant-{user}")
}

/// Phase lengths, in seconds: warm-up, low, high, closed.
fn phases(seconds: f64) -> [f64; 4] {
    let warm = (0.05 * seconds).min(0.5);
    let rest = seconds - warm;
    [warm, 0.4 * rest, 0.4 * rest, 0.2 * rest]
}

/// Flushes every tenant, then installs every key, pipelined over the
/// clients; returns how many requests failed.
fn load_policies(clients: &[AsyncClient], keys: &[Key]) -> u64 {
    let deadline = Instant::now() + REQUEST_BUDGET;
    let mut failed = 0;
    let mut flushes = Vec::new();
    for user in USERS {
        match clients[0].flush(&tenant_of(user)) {
            Ok(p) => flushes.push(p),
            Err(_) => failed += 1,
        }
    }
    for p in flushes {
        if !matches!(wait_until(p, deadline), Some(Ok(_))) {
            failed += 1;
        }
    }
    let mut installs = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        match clients[i % clients.len()].install(&key.tenant, &key.task, &key.context, &key.policy)
        {
            Ok(p) => installs.push((p, key.policy.fingerprint())),
            Err(_) => failed += 1,
        }
    }
    for (p, fingerprint) in installs {
        match wait_until(p, deadline) {
            Some(Ok(receipt)) if receipt.fingerprint == fingerprint => {}
            _ => failed += 1,
        }
    }
    failed
}

/// Counter deltas between two readings.
fn delta(a: ServeMetrics, b: ServeMetrics) -> (f64, f64, f64) {
    (
        (b.requests - a.requests) as f64,
        (b.batches - a.batches) as f64,
        (b.coalesced_checks - a.coalesced_checks) as f64,
    )
}

/// Runs the workload.
pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::new("check_stream", cfg);
    let mut digest = Digest::default();
    let recorded = recorded_calls();
    let keys = build_keys(cfg.seed, &USERS, &tenant_of, &recorded, true, &mut digest);
    let pools: Vec<usize> = keys.iter().map(|k| k.calls.len()).collect();
    let [warm, low, high, closed] = phases(cfg.seconds);
    let per_conn = ((LOW_RATE * (warm + low) + HIGH_RATE * high) / CONNS as f64
        + CLOSED_CAP_RATE * closed) as usize
        + DEPTH;
    let mut oracle = Oracle::default();
    let mut denied = 0usize;
    let streams: Vec<Vec<(Pick, Expect)>> = (0..CONNS)
        .map(|c| {
            let picks = schedule(cfg.seed, c as u64, &pools, per_conn, MUTATED);
            digest_picks(&mut digest, &picks);
            picks
                .into_iter()
                .map(|pick| {
                    let expect = Expect::of(&oracle.judge(c, &keys, pick));
                    denied += usize::from(!expect.allowed);
                    (pick, expect)
                })
                .collect()
        })
        .collect();

    // Set-up: bind and connect once, then load the policies LOADS times.
    let t_bind = Instant::now();
    let server = Server::bind(Arc::new(Engine::default()), "127.0.0.1:0", ServeConfig::default())
        .expect("bind a loopback listener");
    let addr = server.local_addr().expect("TCP server has an address").to_string();
    let clients: Vec<AsyncClient> =
        (0..CONNS).map(|_| AsyncClient::connect(&addr).expect("connect over loopback")).collect();
    let bind_connect = t_bind.elapsed();
    let mut loads = Hist::new();
    for _ in 0..LOADS {
        let t = Instant::now();
        let failed = load_policies(&clients, &keys);
        loads.record_dur(t.elapsed());
        out.attempted += (USERS.len() + keys.len()) as u64;
        out.failed += failed;
    }
    let setup_s = bind_connect.as_secs_f64() + loads.quantile(0.5) * 1e-9;

    // The traced run replays the first checks the workload sends.
    let replay_picks: Vec<Pick> = streams[0].iter().take(REPLAY_PICKS).map(|(p, _)| *p).collect();
    let conns: Vec<Conn> =
        clients.into_iter().zip(streams).map(|(client, s)| Conn::new(client, s)).collect();
    let mut load = LoadGen::new(&keys, conns, cfg.trace);
    let mut recs: Vec<PhaseRec> = (0..4).map(|_| PhaseRec::default()).collect();
    load.open_phase(LOW_RATE, Duration::from_secs_f64(warm), 0, &mut recs);
    let m_start = server.metrics();
    load.open_phase(LOW_RATE, Duration::from_secs_f64(low), 1, &mut recs);
    load.open_phase(HIGH_RATE, Duration::from_secs_f64(high), 2, &mut recs);
    let closed_rate = load.closed_phase(DEPTH, Duration::from_secs_f64(closed), 3, &mut recs);
    let m_end = server.metrics();
    let sent: Vec<usize> = load.conns.iter().map(Conn::sent).collect();
    let (mut hits, mut misses) = (0u64, 0u64);
    for user in USERS {
        let counters = server.engine().tenant_counters(&tenant_of(user));
        hits += counters.hits;
        misses += counters.misses;
    }
    drop(load);
    server.shutdown();

    for rec in &recs {
        out.attempted += rec.attempted;
        out.failed += rec.failed;
        out.mismatched += rec.mismatched;
    }
    out.e2e("main_p50_us", recs[1].windowed(0.5) * 1e-3, "us");
    out.diag("main_p90_us", num(recs[1].windowed(0.9) * 1e-3));
    out.e2e("side_p50_us", recs[2].windowed(0.5) * 1e-3, "us");
    out.diag("side_p90_us", num(recs[2].windowed(0.9) * 1e-3));
    out.e2e("ops_per_s", closed_rate, "1/s");
    out.e2e("setup_s", setup_s, "s");

    out.diag("schedule_digest", format!("\"{}\"", digest.hex()));
    out.diag("server_workers", m_end.workers.to_string());
    out.generator =
        Generator { threads: 1, connections: CONNS, shape: "open loop, then closed loop" };
    out.diag("keys", keys.len().to_string());
    out.diag("stateful_keys", keys.iter().filter(|k| k.stateful()).count().to_string());
    out.diag("scheduled_deny_share", format!("{:.4}", denied as f64 / (per_conn * CONNS) as f64));
    out.diag("checks_sent", format!("{sent:?}"));
    out.diag("bind_connect_s", format!("{}", bind_connect.as_secs_f64()));
    out.diag("policy_load_us", loads.summary(1e-3).json());
    for (name, rec) in ["warmup", "low", "high", "closed"].iter().zip(&recs) {
        out.diag(
            &format!("phase_{name}"),
            format!(
                "{{\"latency_us\": {}, \"round_trip_us\": {}, \"lateness_us\": {}, \"denied\": {}}}",
                rec.latency.summary(1e-3).json(),
                rec.round_trip.summary(1e-3).json(),
                rec.lateness.summary(1e-3).json(),
                rec.denied
            ),
        );
    }

    if cfg.trace {
        let replay = Replay::run(&keys, &replay_picks);
        let rt = recs[1].round_trip.quantile(0.5) * 1e-3;
        let submit = recs[1].submit.quantile(0.5) * 1e-3;
        // The submit call covers the client's encode and write; the
        // replays cover decode, lookup, check, and the response codec.
        let inside = submit
            + replay.request_decode
            + replay.lookup
            + replay.check
            + replay.response_encode
            + replay.response_decode;
        let residual = rt - inside;
        let (requests, batches, coalesced) = delta(m_start, m_end);
        out.layer("client.submit_us", submit, "us");
        out.layer("wire.request_encode_ns", replay.request_encode * 1e3, "ns");
        out.layer("wire.request_decode_ns", replay.request_decode * 1e3, "ns");
        out.layer("wire.response_encode_ns", replay.response_encode * 1e3, "ns");
        out.layer("wire.response_decode_ns", replay.response_decode * 1e3, "ns");
        out.layer("store.lookup_ns", replay.lookup * 1e3, "ns");
        out.layer("check.compiled_ns", replay.check * 1e3, "ns");
        out.layer("server.residual_us", residual, "us");
        out.layer("server.residual_share", residual / rt, "ratio");
        out.layer("dispatch.checks_per_round", requests / batches.max(1.0), "count");
        out.layer("dispatch.coalesced_share", coalesced / requests.max(1.0), "ratio");
        out.layer("store.hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio");
        out.diag("low_round_trip_p50_us", format!("{rt}"));
    }
    out
}

/// Checks the traced run replays in-process to time single layers.
const REPLAY_PICKS: usize = 4_000;

/// Per-layer costs replayed in-process on the workload's own inputs,
/// as medians in microseconds.
struct Replay {
    request_encode: f64,
    request_decode: f64,
    response_encode: f64,
    response_decode: f64,
    lookup: f64,
    check: f64,
}

impl Replay {
    fn run(keys: &[Key], picks: &[Pick]) -> Replay {
        let engine = Engine::default();
        for key in keys {
            engine.install(&key.tenant, &key.task, &key.context, &key.policy);
        }
        let mut sessions: Vec<SessionState> = keys.iter().map(|_| SessionState::new()).collect();
        let (mut req_enc, mut req_dec, mut resp_enc, mut resp_dec, mut lookup, mut check) =
            (Hist::new(), Hist::new(), Hist::new(), Hist::new(), Hist::new(), Hist::new());
        let max = DEFAULT_MAX_FRAME_LEN;
        for (i, pick) in picks.iter().enumerate() {
            let key = &keys[pick.key as usize];
            let call = &key.calls[pick.call as usize];
            let request = Request::Check {
                tenant: key.tenant.clone(),
                task: key.task.clone(),
                context: key.context.clone(),
                call: call.clone(),
            };
            let t = Instant::now();
            let frame = wrap_tagged(i as u64, &request.encode_limited(max - 9).expect("encodes"));
            req_enc.record_dur(t.elapsed());
            let t = Instant::now();
            let (_, inner) = unwrap_tagged(&frame).expect("envelope");
            std::hint::black_box(Request::decode(&inner).expect("decodes"));
            req_dec.record_dur(t.elapsed());

            let t = Instant::now();
            let compiled = engine.lookup(&key.tenant, &key.task, &key.context);
            lookup.record_dur(t.elapsed());
            let compiled = compiled.expect("installed");
            let t = Instant::now();
            let decision: Decision = if key.stateful() {
                engine.check_compiled_session(
                    &key.tenant,
                    &compiled,
                    &mut sessions[pick.key as usize],
                    call,
                )
            } else {
                engine.check_compiled(&key.tenant, &compiled, call)
            };
            check.record_dur(t.elapsed());

            let response = Response::Verdict { decision: Some(decision) };
            let t = Instant::now();
            let frame = wrap_tagged(i as u64, &response.encode_limited(max - 9).expect("encodes"));
            resp_enc.record_dur(t.elapsed());
            let t = Instant::now();
            let (_, inner) = unwrap_tagged(&frame).expect("envelope");
            std::hint::black_box(Response::decode(&inner).expect("decodes"));
            resp_dec.record_dur(t.elapsed());
        }
        let us = |h: &Hist| h.quantile(0.5) * 1e-3;
        Replay {
            request_encode: us(&req_enc),
            request_decode: us(&req_dec),
            response_encode: us(&resp_enc),
            response_decode: us(&resp_dec),
            lookup: us(&lookup),
            check: us(&check),
        }
    }
}
