//! Allocation budget of one policy check on each path, counted by a
//! global allocator that tallies every allocation in the process — the
//! client, the server's connection tasks and the engine alike.
//!
//! Each path is warmed up with 200 checks (buffers grow, sessions and
//! key slots bind, caches fill) and then measured over 5,000
//! steady-state checks; a served check is one full round trip, so the
//! server's share lands inside the window. The ceilings pin today's
//! counts with a little headroom: a change that makes the per-action
//! check allocate more must raise them here, visibly.
//!
//! Everything runs in one test, so no other test thread allocates while
//! a path is being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use conseca_core::{ArgConstraint, Policy, PolicyEntry, TrustedContext};
use conseca_engine::Engine;
use conseca_serve::{AsyncClient, ServeConfig, Server};
use conseca_shell::ApiCall;

/// Counts every allocation (and every reallocation, as one allocation of
/// its new size) before handing it to the system allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics
// and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARMUP: usize = 200;
const CHECKS: usize = 5_000;

/// Allocations and bytes allocated per call of `check`, in steady state.
fn per_check(mut check: impl FnMut()) -> (f64, f64) {
    for _ in 0..WARMUP {
        check();
    }
    let (allocations, bytes) = (ALLOCATIONS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    for _ in 0..CHECKS {
        check();
    }
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - allocations;
    let bytes = BYTES.load(Ordering::SeqCst) - bytes;
    (allocations as f64 / CHECKS as f64, bytes as f64 / CHECKS as f64)
}

/// A trusted context of about 3.3 KB of canonical text: a small
/// organisation's users, addresses and file tree.
fn context() -> TrustedContext {
    let users: Vec<String> = (0..15).map(|i| format!("user{i:02}")).collect();
    let mut ctx = TrustedContext::for_user("user00");
    ctx.date = "2025-05-14".into();
    ctx.time = 1_747_000_000;
    ctx.email_addresses = users.iter().map(|u| format!("{u}@work.example.com")).collect();
    ctx.email_categories = ["Inbox", "Work", "Family", "Travel", "Receipts"].map(Into::into).into();
    ctx.fs_tree = users
        .iter()
        .map(|u| {
            format!(
                "{u}/\n  Documents/\n    notes.txt\n    budget-2025.xlsx\n    plans.md\n  \
                 Logs/\n    app.log\n    sync.log\n  Mail/\n    Inbox/\n    Archive/\n  \
                 Projects/\n    report/\n      draft.md\n      figures/\n"
            )
        })
        .collect();
    ctx.usernames = users;
    ctx
}

fn policy() -> Policy {
    let mut policy = Policy::new("reply to work email");
    policy.set(
        "send_email",
        PolicyEntry::allow(
            vec![ArgConstraint::regex("^user00$").unwrap(), ArgConstraint::Any],
            "the user replies to colleagues",
        ),
    );
    policy
}

fn call() -> ApiCall {
    ApiCall::new("email", "send_email", vec!["user00".into(), "user01@work.example.com".into()])
}

/// Per-check (allocations, bytes) ceilings: the measured counts plus
/// about a tenth, except the sync client's, which is its measured count
/// since it reuses one write buffer (27.0 / 2,537 before). With the same
/// 3.3 KB context, before checks named their key by slot and
/// fingerprints streamed, the four paths measured 11.0 / 11,244,
/// 12.0 / 11,332, 149.0 / 45,679 and 139.8 / 41,607.
const ENGINE_CHECK: (f64, f64) = (1.5, 64.0);
const CACHED_HIT: (f64, f64) = (2.5, 160.0);
const ASYNC_DUPLEX: (f64, f64) = (35.0, 3_350.0);
const SYNC_DUPLEX: (f64, f64) = (26.0, 2_415.0);

fn assert_within(path: &str, measured: (f64, f64), ceiling: (f64, f64)) {
    eprintln!("{path}: {:.1} allocations, {:.0} bytes per check", measured.0, measured.1);
    assert!(
        measured.0 <= ceiling.0 && measured.1 <= ceiling.1,
        "{path}: {:.1} allocations and {:.0} bytes per check exceed the {} and {} budget",
        measured.0,
        measured.1,
        ceiling.0,
        ceiling.1
    );
}

#[test]
fn every_check_path_stays_within_its_allocation_budget() {
    let context = context();
    assert!(context.render().len() >= 3_300, "the budget is set for a 3.3 KB context");
    let (policy, call) = (policy(), call());

    let engine = Arc::new(Engine::default());
    engine.install("acme", &policy.task, &context, &policy).unwrap();
    let in_process = per_check(|| {
        let decision = engine.check("acme", &policy.task, &context, &call);
        assert!(decision.expect("installed").allowed);
    });
    assert_within("in-process Engine::check", in_process, ENGINE_CHECK);

    let server = Server::start(Arc::clone(&engine), ServeConfig::default());
    let mut cached = server.connect_cached("acme").unwrap();
    let cached_hit = per_check(|| {
        let decision = cached.check(&policy.task, &context, &call).unwrap();
        assert!(decision.expect("installed").allowed);
    });
    assert_eq!(cached.cache().counters().hits as usize, WARMUP + CHECKS - 1, "all but one local");
    assert_within("cached-client L1 hit", cached_hit, CACHED_HIT);

    let client = AsyncClient::over(server.connect_stream().unwrap()).unwrap();
    let async_duplex = per_check(|| {
        let decision = client.check("acme", &policy.task, &context, &call).unwrap().wait();
        assert!(decision.unwrap().expect("installed").allowed);
    });
    assert_within("AsyncClient keyed duplex check", async_duplex, ASYNC_DUPLEX);

    let mut sync = server.connect().unwrap();
    let sync_duplex = per_check(|| {
        let decision = sync.check("acme", &policy.task, &context, &call).unwrap();
        assert!(decision.expect("installed").allowed);
    });
    assert_within("sync Client duplex check", sync_duplex, SYNC_DUPLEX);

    drop((cached, client, sync));
    server.shutdown();
}
