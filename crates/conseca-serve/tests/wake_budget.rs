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
//! Everything runs in one test: the counters are process-wide.

use std::sync::Arc;

use conseca_core::{Policy, PolicyEntry, TrustedContext};
use conseca_engine::Engine;
use conseca_serve::{AsyncClient, ServeConfig, Server};
use conseca_shell::ApiCall;
use futures::Reactor;

const WARMUP: usize = 200;
const CHECKS: u64 = 1_000;

/// Most `epoll_wait` returns one sequential TCP check may cost.
const EPOLL_RETURNS_PER_CHECK: f64 = 2.0;

#[test]
fn a_tcp_check_wakes_no_loop_task_from_another_thread() {
    let engine = Arc::new(Engine::default());
    let context = TrustedContext::for_user("alice");
    let mut policy = Policy::new("t");
    policy.set("send_email", PolicyEntry::allow_any("the task sends"));
    engine.install("acme", "t", &context, &policy).unwrap();
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
    eprintln!(
        "per TCP check: {:.3} cross-thread loop wakes, {epoll:.3} epoll_wait returns, \
         {:.3} interrupts of the loop's wait",
        remote as f64 / CHECKS as f64,
        interrupts as f64 / CHECKS as f64
    );
    assert_eq!(remote, 0, "{CHECKS} TCP checks woke loop tasks from other threads {remote} times");
    assert_eq!(interrupts, 0, "{CHECKS} TCP checks interrupted the loop's wait {interrupts} times");
    assert!(
        epoll <= EPOLL_RETURNS_PER_CHECK,
        "{epoll:.3} epoll_wait returns per TCP check exceed {EPOLL_RETURNS_PER_CHECK}"
    );

    drop(client);
    server.shutdown();
}
