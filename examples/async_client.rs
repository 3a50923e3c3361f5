//! Pipelined async client quickstart: many checks in flight on one
//! socket.
//!
//! Starts a policy-decision server over a fresh engine, installs the
//! paper's §4.1 policy through the pipelined [`AsyncClient`], then
//! screens a 64-call trace by submitting every check *before* waiting
//! on any of them. With the whole window in flight, the server's
//! connection task finds same-key checks already buffered and answers
//! each run as one engine batch — the amortisation the `serve_concurrent` rows in
//! `BENCH_serve.json` measure.
//!
//! Run with: `cargo run --example async_client`

use std::sync::Arc;

use conseca_core::{ArgConstraint, Policy, PolicyEntry, TrustedContext};
use conseca_engine::Engine;
use conseca_serve::{AsyncClient, ServeConfig, Server};
use conseca_shell::ApiCall;

fn paper_policy() -> Policy {
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

fn send_call(to: &str, subject: &str) -> ApiCall {
    ApiCall::new(
        "email",
        "send_email",
        vec!["alice".into(), to.into(), subject.into(), "On it.".into()],
    )
}

fn main() {
    let server = Server::start(Arc::new(Engine::default()), ServeConfig::default());
    let ctx = TrustedContext::for_user("alice");
    let policy = paper_policy();
    let task = policy.task.clone();

    // One socket, requests correlated by id. `install` returns a
    // `Pending` — submit-then-wait, or `.await` it from async code.
    let client = AsyncClient::over(server.connect_stream().expect("stream")).expect("handshake");
    let receipt =
        client.install("acme", &task, &ctx, &policy).expect("submit").wait().expect("install");
    println!(
        "installed policy {:016x} ({} entries) for tenant 'acme'\n",
        receipt.fingerprint, receipt.entries
    );

    // Submit the whole trace before waiting on any verdict: 64 checks
    // in flight on one connection. Even-numbered mails go to work.com
    // (allowed), odd ones leak outside (denied).
    let calls: Vec<ApiCall> = (0..64)
        .map(|i| {
            let to = if i % 2 == 0 { "bob@work.com" } else { "eve@evil.org" };
            send_call(to, &format!("urgent: rack {i} is down"))
        })
        .collect();
    let pending: Vec<_> =
        calls.iter().map(|call| client.check("acme", &task, &ctx, call).expect("submit")).collect();
    let mut allowed = 0;
    for (i, p) in pending.into_iter().enumerate() {
        let decision = p.wait().expect("verdict").expect("policy installed");
        assert_eq!(decision.allowed, i % 2 == 0, "correlation mismatch at request {i}");
        allowed += decision.allowed as usize;
    }
    println!("pipelined 64 checks on one socket: {allowed} allowed, {} denied", 64 - allowed);

    // Batched serving stats prove the server saw the pipeline: with the
    // window full, buffered checks coalesce into engine batches.
    let stats = client.stats_full("acme").expect("submit").wait().expect("stats");
    let metrics = server.metrics();
    println!(
        "tenant 'acme': {} checks ({} coalesced into batches), server threads: {}",
        stats.counters.checks, metrics.coalesced_checks, stats.workers
    );
    client.close();

    server.shutdown();
    println!("server stopped.");
}
