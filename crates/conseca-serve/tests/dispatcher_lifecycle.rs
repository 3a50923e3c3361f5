//! The dispatcher's thread lives and dies with its server: a running
//! server owns exactly one thread, and shutdown joins it, even while the
//! dispatcher is wedged in a revoke's wait for a push ack that never
//! comes.
//!
//! One test function in a binary of its own on purpose: it counts the
//! process's threads, and a server started by any other test would move
//! the count.

use std::fs;
use std::io::{Read, Write};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use conseca_core::{Policy, PolicyEntry, TrustedContext};
use conseca_engine::Engine;
use conseca_serve::wire::{read_frame, write_frame, Request, Response, DEFAULT_MAX_FRAME_LEN};
use conseca_serve::{DuplexStream, ServeConfig, Server, ServerHandle};

const CYCLES: usize = 20;
/// The cycle that shuts down mid ack wait.
const WEDGED_CYCLE: usize = CYCLES / 2;
/// The dispatcher thread's name as `/proc` shows it: the kernel keeps
/// the first 15 bytes of `conseca-dispatch`.
const DISPATCHER_COMM: &str = "conseca-dispatc";

fn ctx() -> TrustedContext {
    TrustedContext::for_user("alice")
}

fn policy() -> Policy {
    let mut p = Policy::new("t");
    p.set("send_email", PolicyEntry::allow_any("the task sends"));
    p
}

/// The names of the process's threads.
fn thread_names() -> Vec<String> {
    fs::read_dir("/proc/self/task")
        .expect("/proc/self/task must be readable for this test")
        .filter_map(|task| fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .collect()
}

/// The process's thread names once it runs `expected` threads. A joined
/// thread may stay listed for a moment after its join returns, so the
/// count gets a short while to settle.
fn settled_threads(expected: usize) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let names = thread_names();
        if names.len() == expected || Instant::now() >= deadline {
            return names;
        }
        thread::sleep(Duration::from_millis(1));
    }
}

/// Sends `request` on a raw connection and reads its answer.
fn ask(stream: &mut (impl Read + Write), request: &Request) -> Response {
    write_frame(stream, &request.encode(), DEFAULT_MAX_FRAME_LEN).unwrap();
    let frame = read_frame(stream, DEFAULT_MAX_FRAME_LEN).unwrap().expect("a response");
    Response::decode(&frame).unwrap()
}

/// Wedges the dispatcher in a revoke's ack wait: a subscriber takes the
/// revoke's push and never acks it.
fn wedge_the_dispatcher(server: &ServerHandle) -> [DuplexStream; 2] {
    let hello = Request::Hello { version: conseca_serve::PROTOCOL_VERSION };
    let mut subscriber = server.connect_stream().unwrap();
    assert!(matches!(ask(&mut subscriber, &hello), Response::HelloOk { .. }));
    let subscribe = Request::Subscribe { tenant: "acme".into() };
    assert!(matches!(ask(&mut subscriber, &subscribe), Response::Subscribed));
    let mut revoker = server.connect_stream().unwrap();
    assert!(matches!(ask(&mut revoker, &hello), Response::HelloOk { .. }));
    let revoke = Request::Revoke { tenant: "acme".into(), fingerprint: policy().fingerprint() };
    write_frame(&mut revoker, &revoke.encode(), DEFAULT_MAX_FRAME_LEN).unwrap();
    // The push reaching the subscriber means the revoke now waits for
    // an ack that never comes.
    let push = read_frame(&mut subscriber, DEFAULT_MAX_FRAME_LEN).unwrap().expect("a push");
    assert!(matches!(Response::decode(&push).unwrap(), Response::PushRevoke { .. }));
    [subscriber, revoker]
}

#[test]
fn every_server_joins_its_one_dispatcher_thread_at_shutdown_even_mid_ack_wait() {
    let ack_timeout = Duration::from_secs(30);
    let config = ServeConfig { push_ack_timeout: ack_timeout, ..ServeConfig::default() };
    // The process-wide reactor loop thread exists before the baseline.
    futures::Reactor::global();
    let baseline = thread_names().len();

    for cycle in 0..CYCLES {
        let server = Server::start(Arc::new(Engine::default()), config);
        let mut admin = server.connect().unwrap();
        let installed = admin.install("acme", "t", &ctx(), &policy()).unwrap();
        assert_eq!(installed.fingerprint, policy().fingerprint());
        let running = settled_threads(baseline + 1);
        assert_eq!(running.len(), baseline + 1, "cycle {cycle}: {running:?}");
        // Held until after shutdown, so the subscriber stays connected.
        let _wedged = (cycle == WEDGED_CYCLE).then(|| wedge_the_dispatcher(&server));
        let start = Instant::now();
        server.shutdown();
        let took = start.elapsed();
        assert!(took < ack_timeout / 10, "cycle {cycle}: shutdown took {took:?}");
        let stopped = settled_threads(baseline);
        assert_eq!(stopped.len(), baseline, "cycle {cycle}: {stopped:?}");
    }
    let names = thread_names();
    assert!(!names.iter().any(|name| name == DISPATCHER_COMM), "{names:?}");
}
