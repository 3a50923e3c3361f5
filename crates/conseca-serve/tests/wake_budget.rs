//! Thread handoffs per served check, counted by the reactor loop's own
//! counters: how often a loop task was woken from another thread, how
//! often `epoll_wait` returned, and how often another thread interrupted
//! the loop's wait.
//!
//! A pipelined TCP check from an `AsyncClient` is answered by the
//! server's connection task and read back by the client's demux task,
//! both on the loop thread that sees their sockets' edges, so no loop
//! task is ever woken from another thread. The client's write wakes the
//! loop once, and the server's answer is waiting for the demux task on
//! the loop's next `epoll_wait`.
//!
//! A sequential check from a sync `Client` over an in-process duplex
//! stream does cross threads: the client's write wakes the server's
//! connection task from the client's thread. But the loop polls before
//! it parks after such a turn, and the client polls its pipe before it
//! parks, so while both threads are busy neither wait is interrupted.
//!
//! The counters are process-wide, so the tests take turns.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use conseca_core::{Policy, PolicyEntry, TrustedContext};
use conseca_engine::Engine;
use conseca_serve::{AsyncClient, ServeConfig, Server};
use conseca_shell::ApiCall;
use futures::Reactor;

const WARMUP: usize = 200;
const CHECKS: u64 = 1_000;

/// Most `epoll_wait` returns one sequential TCP check may cost.
const EPOLL_RETURNS_PER_CHECK: f64 = 2.0;

/// Most interrupts of the loop's wait one sequential duplex check may
/// cost on a host with more than one CPU. Without polling it is one.
const DUPLEX_INTERRUPTS_PER_CHECK: f64 = 0.25;

/// Held by each test for its whole run.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn allowing_engine(context: &TrustedContext) -> (Arc<Engine>, Policy) {
    let engine = Arc::new(Engine::default());
    let mut policy = Policy::new("t");
    policy.set("send_email", PolicyEntry::allow_any("the task sends"));
    engine.install("acme", "t", context, &policy).unwrap();
    (engine, policy)
}

/// The median of `samples`.
fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

#[test]
fn a_tcp_check_wakes_no_loop_task_from_another_thread() {
    let _serial = serial();
    let context = TrustedContext::for_user("alice");
    let (engine, _) = allowing_engine(&context);
    let server = Server::bind(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr().expect("a TCP server").to_string();
    let client = AsyncClient::connect(&addr).unwrap();
    let call = ApiCall::new("email", "send_email", vec!["alice".into()]);
    let check = || {
        let decision = client.check("acme", "t", &context, &call).unwrap().wait().unwrap();
        assert!(decision.expect("installed").allowed);
    };

    for _ in 0..WARMUP {
        check();
    }
    let before = Reactor::global().counters();
    for _ in 0..CHECKS {
        check();
    }
    let after = Reactor::global().counters();
    let remote = after.remote_wakes - before.remote_wakes;
    let epoll = (after.epoll_returns - before.epoll_returns) as f64 / CHECKS as f64;
    let interrupts = after.interrupts - before.interrupts;
    let polls = after.polls - before.polls;
    eprintln!(
        "per TCP check: {:.3} cross-thread loop wakes, {epoll:.3} epoll_wait returns, \
         {:.3} interrupts of the loop's wait, {:.3} polls before parking",
        remote as f64 / CHECKS as f64,
        interrupts as f64 / CHECKS as f64,
        polls as f64 / CHECKS as f64
    );
    assert_eq!(remote, 0, "{CHECKS} TCP checks woke loop tasks from other threads {remote} times");
    assert_eq!(interrupts, 0, "{CHECKS} TCP checks interrupted the loop's wait {interrupts} times");
    assert_eq!(polls, 0, "{CHECKS} TCP checks made the loop poll before parking {polls} times");
    assert!(
        epoll <= EPOLL_RETURNS_PER_CHECK,
        "{epoll:.3} epoll_wait returns per TCP check exceed {EPOLL_RETURNS_PER_CHECK}"
    );

    drop(client);
    server.shutdown();
}

#[test]
fn a_sequential_duplex_check_rarely_interrupts_the_loop() {
    let _serial = serial();
    let context = TrustedContext::for_user("alice");
    let (engine, policy) = allowing_engine(&context);
    let server = Server::start(engine, ServeConfig::default());
    let mut client = server.connect().unwrap();
    let call = ApiCall::new("email", "send_email", vec!["alice".into()]);
    let mut check = || {
        let start = Instant::now();
        let decision = client.check("acme", "t", &context, &call).unwrap();
        assert!(decision.expect("installed").allowed);
        start.elapsed()
    };

    for _ in 0..WARMUP {
        check();
    }
    let before = Reactor::global().counters();
    let took: Vec<Duration> = (0..CHECKS).map(|_| check()).collect();
    let after = Reactor::global().counters();
    let interrupts = (after.interrupts - before.interrupts) as f64 / CHECKS as f64;
    let polls = (after.polls - before.polls) as f64 / CHECKS as f64;

    // A read on an idle connection is answered by its own task: no
    // dispatcher job.
    let before = server.metrics();
    let fetches: Vec<Duration> = (0..CHECKS)
        .map(|_| {
            let start = Instant::now();
            let fetched = client.fetch_policy("acme", "t", &context).unwrap();
            assert_eq!(fetched.as_ref(), Some(&policy));
            start.elapsed()
        })
        .collect();
    assert!(client.stats("acme").unwrap().hits > 0);
    let after = server.metrics();
    eprintln!(
        "per sequential duplex check: {interrupts:.3} interrupts of the loop's wait, \
         {polls:.3} polls before parking; check p50 {:?}, FetchPolicy p50 {:?}",
        median(took),
        median(fetches)
    );
    assert_eq!(after.batches, before.batches, "a fetch or stats read queued a dispatcher job");
    assert_eq!(after.requests - before.requests, CHECKS + 1);
    if !futures::spin_budget().is_zero() {
        assert!(
            interrupts <= DUPLEX_INTERRUPTS_PER_CHECK,
            "{interrupts:.3} interrupts per duplex check exceed {DUPLEX_INTERRUPTS_PER_CHECK}"
        );
    }

    drop(client);
    server.shutdown();
}
