//! Benchmarks served policy decisions against in-process checks: what a
//! wire round-trip costs on top of `Engine::check`, how batching
//! amortises it, and the duplex-vs-TCP transport gap. Measured numbers
//! are recorded in `BENCH_serve.json` at the repository root, next to
//! the in-process baseline in `BENCH_engine.json`.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use conseca_core::{ArgConstraint, Policy, PolicyEntry, TrustedContext};
use conseca_engine::{Billing, Engine, EngineKey};
use conseca_serve::{AsyncClient, Client, ServeConfig, Server};
use conseca_shell::ApiCall;

/// The paper's §4.1 policy, same as the `engine` bench uses.
fn regex_policy() -> Policy {
    let mut p = Policy::new("respond to urgent work emails");
    p.set(
        "send_email",
        PolicyEntry::allow(
            vec![
                ArgConstraint::regex("alice").unwrap(),
                ArgConstraint::regex(r"^.*@work\.com$").unwrap(),
                ArgConstraint::regex(".*urgent.*").unwrap(),
            ],
            "urgent responses from alice to work.com",
        ),
    );
    p.set("delete_email", PolicyEntry::deny("no deletions in this task"));
    p
}

fn send_call(i: usize) -> ApiCall {
    ApiCall::new(
        "email",
        "send_email",
        vec![
            "alice".into(),
            "bob@work.com".into(),
            format!("urgent: rack {i} is down"),
            "On it.".into(),
        ],
    )
}

fn bench_round_trip(c: &mut Criterion) {
    let engine = Arc::new(Engine::default());
    let ctx = TrustedContext::for_user("alice");
    let policy = regex_policy();
    let task = policy.task.clone();
    engine.install("acme", &task, &ctx, &policy).expect("in-memory journal");
    let call = send_call(4);

    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr().expect("listener").to_string();
    let mut duplex_client = server.connect().expect("in-process connect");
    let mut tcp_client = Client::connect(&addr).expect("tcp connect");
    // The cached client fetches the policy once on its first check and
    // answers every later check from its L1 — warm that fetch outside
    // the measured loop so the rows show the steady state.
    let mut cached_client = server.connect_cached("acme").expect("cached connect");
    cached_client.check(&task, &ctx, &call).expect("warming fetch").expect("policy installed");

    let mut group = c.benchmark_group("serve_round_trip");
    group.bench_function("engine_check_in_process", |b| {
        b.iter(|| engine.check(black_box("acme"), black_box(&task), &ctx, black_box(&call)))
    });
    group.bench_function("served_check_cached", |b| {
        b.iter(|| cached_client.check(&task, &ctx, black_box(&call)).unwrap())
    });
    group.bench_function("served_check_duplex", |b| {
        b.iter(|| duplex_client.check("acme", &task, &ctx, black_box(&call)).unwrap())
    });
    group.bench_function("served_check_tcp", |b| {
        b.iter(|| tcp_client.check("acme", &task, &ctx, black_box(&call)).unwrap())
    });
    group.finish();

    // Batching amortises the round-trip: one frame carries 16 calls, the
    // server does one store lookup for all of them. Reported time is per
    // batch; per-check cost = reported / 16.
    let batch: Vec<ApiCall> = (0..16).map(send_call).collect();
    let mut group = c.benchmark_group("serve_batch_16");
    group.bench_function("engine_check_all_in_process", |b| {
        b.iter(|| {
            let key = EngineKey::new(black_box("acme"), black_box(&task), &ctx);
            engine
                .resolve("acme", &key, Billing::Authoritative)
                .map(|r| r.check_all(None, black_box(&batch)))
        })
    });
    group.bench_function("served_check_all_cached", |b| {
        b.iter(|| cached_client.check_all(&task, &ctx, black_box(&batch)).unwrap())
    });
    group.bench_function("served_check_all_duplex", |b| {
        b.iter(|| duplex_client.check_all("acme", &task, &ctx, black_box(&batch)).unwrap())
    });
    group.finish();

    tcp_client.close();
    drop(duplex_client);
    drop(cached_client);
    server.shutdown();
}

/// Concurrent clients: strict request/response sync clients vs the
/// pipelined async client, at 1/2/8 connections. One iteration is a
/// full wave — every client issues `DEPTH` checks — so per-check cost
/// is the reported time divided by `clients * DEPTH`. The sync shape
/// pays a full round trip of exclusive connection time per check; the
/// async shape keeps `DEPTH` requests in flight per socket, which lets
/// the server coalesce the same-key checks it finds buffered on each
/// connection into one engine batch.
fn bench_concurrent_clients(c: &mut Criterion) {
    const DEPTH: usize = 32;
    let engine = Arc::new(Engine::default());
    let ctx = TrustedContext::for_user("alice");
    let policy = regex_policy();
    let task = policy.task.clone();
    engine.install("acme", &task, &ctx, &policy).expect("in-memory journal");
    let call = send_call(4);

    let server = Server::start(Arc::clone(&engine), ServeConfig::default());
    let mut group = c.benchmark_group("serve_concurrent");
    for clients in [1usize, 2, 8] {
        let mut sync_clients: Vec<Client> =
            (0..clients).map(|_| server.connect().expect("in-process connect")).collect();
        group.bench_function(format!("serial_sync_{clients}x{DEPTH}").as_str(), |b| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for client in sync_clients.iter_mut() {
                        let (task, ctx, call) = (&task, &ctx, &call);
                        scope.spawn(move || {
                            for _ in 0..DEPTH {
                                client.check("acme", task, ctx, black_box(call)).unwrap();
                            }
                        });
                    }
                });
            })
        });
        drop(sync_clients);

        let async_clients: Vec<AsyncClient> = (0..clients)
            .map(|_| AsyncClient::over(server.connect_stream().expect("stream")).expect("connect"))
            .collect();
        group.bench_function(format!("pipelined_async_{clients}x{DEPTH}").as_str(), |b| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for client in &async_clients {
                        let (task, ctx, call) = (&task, &ctx, &call);
                        scope.spawn(move || {
                            let pending: Vec<_> = (0..DEPTH)
                                .map(|_| client.check("acme", task, ctx, black_box(call)).unwrap())
                                .collect();
                            for p in pending {
                                p.wait().unwrap();
                            }
                        });
                    }
                });
            })
        });
        drop(async_clients);
    }
    group.finish();
    server.shutdown();
}

criterion_group!(benches, bench_round_trip, bench_concurrent_clients);
criterion_main!(benches);
