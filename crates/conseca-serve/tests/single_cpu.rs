//! On one CPU, polling before parking only holds off the thread being
//! waited for, so the spin budget is zero and the loop never polls.
//!
//! The test pins its own thread — and with it every thread it starts,
//! the reactor loop and the server's dispatcher among them — to one CPU
//! before anything touches the reactor or the budget, so it lives in a
//! binary of its own with one test.

use std::sync::Arc;

use conseca_core::{Policy, PolicyEntry, TrustedContext};
use conseca_engine::Engine;
use conseca_serve::{ServeConfig, Server};
use conseca_shell::ApiCall;
use futures::Reactor;

const CHECKS: usize = 1_000;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// Restricts the calling thread to the first CPU it may run on now.
/// Threads it starts afterwards inherit the one-CPU mask.
fn pin_to_one_cpu() {
    // A 1,024-CPU mask, the size of glibc's `cpu_set_t`.
    let mut mask = [0u8; 128];
    // SAFETY: the kernel writes at most `mask.len()` bytes into `mask`;
    // pid 0 names the calling thread.
    assert_eq!(unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) }, 0);
    let byte = mask.iter().position(|&b| b != 0).expect("the thread may run somewhere");
    let mut one = [0u8; 128];
    one[byte] = mask[byte] & mask[byte].wrapping_neg();
    // SAFETY: the kernel reads `one.len()` bytes from `one`; pid 0 names
    // the calling thread, so no other process is touched.
    assert_eq!(unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) }, 0);
}

#[test]
fn on_one_cpu_the_loop_never_polls_before_parking() {
    pin_to_one_cpu();
    assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
    assert!(futures::spin_budget().is_zero(), "one CPU leaves no budget to spin");

    let engine = Arc::new(Engine::default());
    let context = TrustedContext::for_user("alice");
    let mut policy = Policy::new("t");
    policy.set("send_email", PolicyEntry::allow_any("the task sends"));
    policy.set("delete_file", PolicyEntry::deny("the task deletes nothing"));
    engine.install("acme", "t", &context, &policy).unwrap();
    let server = Server::start(engine, ServeConfig::default());
    let mut client = server.connect().unwrap();
    let send = ApiCall::new("email", "send_email", vec!["alice".into()]);
    let delete = ApiCall::new("fs", "delete_file", vec!["/home/alice/notes".into()]);

    for i in 0..CHECKS {
        let (call, allowed) = if i % 2 == 0 { (&send, true) } else { (&delete, false) };
        let decision = client.check("acme", "t", &context, call).unwrap();
        assert_eq!(decision.expect("installed").allowed, allowed, "check {i}");
    }
    let fetched = client.fetch_policy("acme", "t", &context).unwrap();
    assert_eq!(fetched.as_ref(), Some(&policy));
    let polls = Reactor::global().counters().polls;
    assert_eq!(polls, 0, "the loop polled before parking on one CPU");

    drop(client);
    server.shutdown();
}
