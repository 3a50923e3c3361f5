//! The concurrent, multi-tenant enforcement engine.
//!
//! `conseca-core` interprets a [`Policy`](conseca_core::Policy) on every
//! check: a `BTreeMap` walk plus per-constraint evaluation of whatever
//! representation the policy was written in. That is the right shape for
//! one agent screening its own actions; it is the wrong shape for a
//! deployment serving policy decisions for millions of users (the
//! ROADMAP's north star), where the same (task, context) policy is checked
//! thousands of times by many threads at once. This crate adds the
//! serving layer the paper's §7 scaling discussion asks for, in two
//! halves:
//!
//! 1. **Compilation** ([`compile`]): a [`CompiledPolicy`] is built once
//!    from a `Policy` — API names interned into a sorted lookup table
//!    (binary search, no tree-walk), every regex constraint sharing the
//!    one program its [`conseca_regex::Regex`] already compiled (and
//!    lowered to a plain substring/prefix/suffix test when that is
//!    provably equivalent), and DSL predicate trees flattened into a
//!    compact index-linked array. `CompiledPolicy::check` is
//!    differentially tested to agree with the interpreted
//!    [`is_allowed`](conseca_core::is_allowed) on every input.
//! 2. **Serving** ([`store`], [`engine`]): a sharded [`PolicyStore`]
//!    (one `RwLock` + LRU per shard, `Arc<CompiledPolicy>` snapshots so
//!    readers never deep-clone and never hold a lock during evaluation)
//!    keyed by (tenant, task fingerprint, context fingerprint), behind an
//!    [`Engine`] façade whose one check core is [`Engine::resolve`] (one
//!    billed store lookup) then [`Resolved::check`] (the one compiled
//!    decision function), plus per-tenant hit/miss/deny counters.
//!
//! The pipeline stays the one reference monitor: [`CompiledPolicyLayer`]
//! drops a compiled policy into any
//! [`EnforcementSession`](conseca_core::pipeline::EnforcementSession) as
//! the policy layer, with identical verdicts and provenance. To serve
//! decisions *across* processes, `conseca-serve` wraps an [`Engine`] in
//! an async front-end speaking the wire protocol specified in
//! `docs/serving.md` (see also `docs/engine.md` for when to reach for
//! which layer).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//!
//! use conseca_core::{ArgConstraint, Policy, PolicyEntry, TrustedContext};
//! use conseca_engine::Engine;
//! use conseca_shell::ApiCall;
//!
//! let mut policy = Policy::new("respond to urgent work emails");
//! policy.set("send_email", PolicyEntry::allow(
//!     vec![ArgConstraint::regex("alice").unwrap()],
//!     "urgent responses come from alice",
//! ));
//!
//! let engine = Engine::default();
//! let ctx = TrustedContext::for_user("alice");
//! engine.install("acme", "respond to urgent work emails", &ctx, &policy).unwrap();
//!
//! let call = ApiCall::new("email", "send_email",
//!     vec!["alice".into(), "bob@work.com".into(), "urgent".into(), "done".into()]);
//! let decision = engine
//!     .check("acme", "respond to urgent work emails", &ctx, &call)
//!     .expect("policy was installed");
//! assert!(decision.allowed);
//! assert_eq!(engine.tenant_counters("acme").allowed, 1);
//! ```
//!
//! Batched checks share one store lookup, and a tenant's policies can be
//! invalidated wholesale (the hot-reload flush):
//!
//! ```
//! use conseca_core::{Policy, PolicyEntry, TrustedContext};
//! use conseca_engine::{Billing, Engine, EngineKey};
//! use conseca_shell::ApiCall;
//!
//! let engine = Engine::default();
//! let ctx = TrustedContext::for_user("alice");
//! let mut policy = Policy::new("triage the inbox");
//! policy.set("list_emails", PolicyEntry::allow_any("listing is the task"));
//! engine.install("acme", "triage the inbox", &ctx, &policy).unwrap();
//!
//! let calls = vec![
//!     ApiCall::new("email", "list_emails", vec!["Inbox".into()]),
//!     ApiCall::new("email", "delete_email", vec!["3".into()]),
//! ];
//! let key = EngineKey::new("acme", "triage the inbox", &ctx);
//! let decisions = engine
//!     .resolve("acme", &key, Billing::Authoritative)
//!     .expect("policy installed")
//!     .check_all(None, &calls);
//! assert!(decisions[0].allowed);
//! assert!(!decisions[1].allowed); // unlisted: default deny
//!
//! // Trusted context changed? Flush the tenant; future lookups miss and
//! // the caller regenerates against the new context.
//! assert_eq!(engine.flush_tenant("acme"), 1);
//! assert!(engine.resolve("acme", &key, Billing::Authoritative).is_none());
//! ```

pub mod compile;
pub mod engine;
pub mod journal;
pub mod layer;
pub mod persist;
mod record;
pub mod recovery;
pub mod reload;
pub mod snaplog;
pub mod store;
pub mod trajectory_compile;

pub use compile::CompiledPolicy;
pub use engine::{
    check_parallel, Billing, CheckJob, Engine, Invalidation, InvalidationListener, ParallelReport,
    ReloadReceipt, Resolved, SessionState, TenantCounters,
};
pub use journal::{
    decode_journal, CompactReport, JournalError, JournalOp, JournalOptions, JournalRecord,
    JournalReplayReport, RevocationJournal, JOURNAL_MAGIC, JOURNAL_VERSION,
};
pub use layer::CompiledPolicyLayer;
pub use persist::{
    decode_snapshot, Snapshot, SnapshotEntry, SnapshotError, TenantSnapshot, WarmStartReport,
    SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use recovery::{ledger_path, recover, tenant_log_path, Recovery, RecoveryReport};
pub use reload::{ReloadCoordinator, SweepReport};
pub use snaplog::{
    decode_snapshot_log, merge_segments, segments_tenant, LogSegment, SnapshotLog,
    SnapshotLogError, SNAPSHOT_LOG_MAGIC, SNAPSHOT_LOG_VERSION,
};
pub use store::{EngineKey, ExportedSlot, PolicyStore, StoreConfig};
pub use trajectory_compile::{CompiledTrajectory, TrajectoryState};
