//! Cross-mode conformance: one workload script, every execution path,
//! byte-identical outcomes.
//!
//! The repo ships five interchangeable enforcement shapes — the
//! in-process interpreted pipeline, the shared [`Engine`], a remote
//! policy-decision server driven per call, the same server driven in
//! batches, and a subscribed cached client answering checks from its
//! local L1 under push invalidation — and the standing claim
//! (docs/engine.md) is that moving between them never changes a
//! verdict. This module turns that claim into a reusable harness: a
//! [`PolicyOp`] script (install / check / revoke / reload / flush /
//! snapshot / warm-start — the full policy lifecycle, hot-reload and
//! persistence included) is run through each path and every op's
//! outcome is reduced to a canonical byte string via the serving codec,
//! so "identical" means *byte*-identical, not merely same-allowed-bit.
//! The three server-backed paths share one runner over a
//! [`TenantClient`].
//!
//! Agent-level conformance rides the same idea: [`report_fingerprint`]
//! canonicalises a [`TaskReport`]'s enforcement-visible surface so full
//! task runs can be compared across backends the same way.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

use conseca_agent::TaskReport;
use conseca_core::pipeline::PipelineBuilder;
use conseca_core::{render_policy, Decision, Policy, TrajectoryEnforcer, TrustedContext};
use conseca_engine::{
    decode_snapshot, decode_snapshot_log, merge_segments, recover, tenant_log_path, Billing,
    Engine, EngineKey, JournalOptions, RecoveryReport, SessionState, SnapshotLog, TenantCounters,
};
use conseca_serve::wire::encode_decision;
use conseca_serve::{DaemonConfig, ServeConfig, Server, ServerHandle, TenantClient};
use conseca_shell::ApiCall;

/// One step of a policy-lifecycle workload script.
#[derive(Debug, Clone)]
pub enum PolicyOp {
    /// Install (or replace) the policy for the script's (task, context)
    /// key.
    Install(Policy),
    /// Screen one call against whatever is installed.
    Check(ApiCall),
    /// Screen a batch of calls against whatever is installed.
    CheckBatch(Vec<ApiCall>),
    /// Revoke every snapshot carrying this policy fingerprint.
    Revoke(u64),
    /// Revoke-and-replace: the regenerated policy lands atomically.
    Reload(Policy),
    /// Drop everything the tenant has installed.
    Flush,
    /// Persist the tenant's installed policies into the script's
    /// snapshot slot (overwriting any earlier snapshot).
    Snapshot,
    /// Warm-start from the snapshot slot. No path passes a revocation
    /// set: each backend gates the import on its own revocation state,
    /// where a fingerprint stays revoked from a [`PolicyOp::Revoke`]
    /// until an [`PolicyOp::Install`] or [`PolicyOp::Reload`] of it, so
    /// the script proves install → snapshot → revoke → warm-start cannot
    /// resurrect a revoked policy. Keys that are live stay with the
    /// newer install.
    WarmStart,
    /// One lifecycle-daemon snapshot tick: persist the tenant's live
    /// store to its durable snapshot log (a full segment — the harness
    /// pins `full_snapshot_every` to 0 so the tick is deterministic).
    /// Outcome: the sorted source fingerprints of the *durable*
    /// projection after the tick. Requires [`run_script_durable`].
    SnapshotTick,
    /// Kill the backend without warning — no parting snapshot, open
    /// handles dropped — then restart it from the data directory alone.
    /// Outcome: the crash-recovery warm-start totals (installed,
    /// skipped_revoked, skipped_live), which must prove the journal
    /// gates everything the snapshot log still carries. Sessions die
    /// with the crash on every path (trajectory state is
    /// connection-scoped). Requires [`run_script_durable`].
    CrashRecover,
}

/// The five execution paths the conformance harness drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionPath {
    /// In-process interpreted pipeline (the paper's prototype shape).
    Pipeline,
    /// Shared in-process [`Engine`] with compiled snapshots.
    Engine,
    /// Remote policy-decision server, one wire round-trip per check.
    Remote,
    /// Remote server driven through batched `CheckBatch` frames.
    ServedBatch,
    /// Subscribed [`CachedClient`](conseca_serve::CachedClient): checks
    /// answered from the local L1 compiled cache, invalidations arriving
    /// over the server's push channel (wire protocol v5).
    CachedRemote,
}

impl ExecutionPath {
    /// Human-readable path name for assertion messages.
    pub fn label(&self) -> &'static str {
        match self {
            ExecutionPath::Pipeline => "pipeline",
            ExecutionPath::Engine => "engine",
            ExecutionPath::Remote => "remote",
            ExecutionPath::ServedBatch => "served-batch",
            ExecutionPath::CachedRemote => "cached-remote",
        }
    }

    /// Every path, in documentation order.
    pub fn all() -> [ExecutionPath; 5] {
        [
            ExecutionPath::Pipeline,
            ExecutionPath::Engine,
            ExecutionPath::Remote,
            ExecutionPath::ServedBatch,
            ExecutionPath::CachedRemote,
        ]
    }
}

/// What one path produced for one script.
#[derive(Debug, Clone)]
pub struct ScriptTranscript {
    /// Which path ran.
    pub path: ExecutionPath,
    /// One canonical byte string per [`PolicyOp`], in script order.
    pub outcomes: Vec<Vec<u8>>,
    /// Final tenant counters, for the engine-backed paths (`None` for
    /// the pure pipeline, which has no tenant accounting).
    pub counters: Option<TenantCounters>,
}

// Canonical outcome encodings. Every path reduces an op's result to the
// same representation before encoding, so the bytes compare across
// transports: decisions go through the serving codec's
// [`encode_decision`] (the same bytes `Verdict`/`VerdictBatch` carry on
// the wire), counts are big-endian u64s.

fn encode_opt_decision(d: &Option<Decision>) -> Vec<u8> {
    match d {
        None => vec![0],
        Some(d) => {
            let mut out = vec![1];
            out.extend(encode_decision(d));
            out
        }
    }
}

fn encode_opt_batch(ds: &Option<Vec<Decision>>) -> Vec<u8> {
    match ds {
        None => vec![0],
        Some(ds) => {
            let mut out = vec![1];
            out.extend((ds.len() as u32).to_be_bytes());
            for d in ds {
                out.extend(encode_decision(d));
            }
            out
        }
    }
}

fn encode_count(n: u64) -> Vec<u8> {
    n.to_be_bytes().to_vec()
}

fn encode_install(policy: &Policy) -> Vec<u8> {
    let mut out = policy.fingerprint().to_be_bytes().to_vec();
    out.extend((policy.len() as u64).to_be_bytes());
    out
}

fn encode_reload(old: Option<u64>, policy: &Policy) -> Vec<u8> {
    let mut out = Vec::new();
    match old {
        None => out.push(0),
        Some(fp) => {
            out.push(1);
            out.extend(fp.to_be_bytes());
        }
    }
    out.extend(encode_install(policy));
    out
}

/// Canonical `Snapshot` outcome: entry count plus the sorted source
/// fingerprints — enough to prove every path captured exactly the same
/// policies without comparing transport-private bytes.
fn encode_snapshot_outcome(fingerprints: &mut Vec<u64>) -> Vec<u8> {
    fingerprints.sort_unstable();
    let mut out = (fingerprints.len() as u64).to_be_bytes().to_vec();
    for fp in fingerprints {
        out.extend(fp.to_be_bytes());
    }
    out
}

/// Canonical `WarmStart` outcome: (installed, skipped_revoked,
/// skipped_live), which partition the snapshot's entries exactly.
fn encode_warm_start(installed: u64, skipped_revoked: u64, skipped_live: u64) -> Vec<u8> {
    let mut out = installed.to_be_bytes().to_vec();
    out.extend(skipped_revoked.to_be_bytes());
    out.extend(skipped_live.to_be_bytes());
    out
}

/// The message every durable op panics with when the script was run
/// through the non-durable entry points.
const NEEDS_DURABLE: &str =
    "SnapshotTick/CrashRecover require run_script_durable (a data directory per path)";

/// Sorted source fingerprints of a tenant's durable snapshot-log
/// projection: read the log file from disk, verify, merge. An absent
/// file is an empty projection (the tenant was never snapshotted).
fn durable_projection_fps(data_dir: &Path, tenant: &str) -> Vec<u64> {
    let Ok(bytes) = std::fs::read(tenant_log_path(data_dir, tenant)) else {
        return Vec::new();
    };
    let segments = decode_snapshot_log(&bytes).expect("tenant snapshot log verifies");
    merge_segments(tenant, &segments)
        .expect("tenant snapshot log merges")
        .into_iter()
        .map(|entry| entry.source_fp)
        .collect()
}

/// Canonical `CrashRecover` outcome from a recovery report.
fn encode_recovery(report: &RecoveryReport) -> Vec<u8> {
    let skipped_live: u64 =
        report.tenants.iter().map(|(_, tenant)| tenant.skipped_live as u64).sum();
    encode_warm_start(report.installed() as u64, report.skipped_revoked() as u64, skipped_live)
}

/// The in-process interpreted reference: a one-key "store" holding the
/// currently installed policy, screened through the enforcement pipeline.
fn run_pipeline(ops: &[PolicyOp], durable: bool) -> Vec<Vec<u8>> {
    let mut current: Option<Arc<Policy>> = None;
    // Snapshot slot: the pipeline's one-key "store" mirrors the
    // persistence semantics the engine-backed paths get from
    // `export_snapshot`/`Engine::import_snapshot`.
    let mut snapshot: Option<Vec<Arc<Policy>>> = None;
    // The interpreted siblings of the engine's revocation journal and
    // the durable machinery: `ledger` is the journal (Revoke appends,
    // Install/Reload reinstate; WarmStart and CrashRecover gate on it),
    // `durable_slot` the merged snapshot-log projection (what the last
    // SnapshotTick persisted, cleared by Flush's marker). Both survive a
    // CrashRecover — they are "the disk".
    let mut durable_slot: Option<Arc<Policy>> = None;
    let mut ledger: HashSet<u64> = HashSet::new();
    // The interpreted sibling of the engine's `SessionState`: one
    // trajectory enforcer keyed to the fingerprint it was built against,
    // re-keyed when a check resolves a semantically different policy,
    // and — crucially — *not* reset by Revoke/Flush/WarmStart, because
    // session state lives outside the policy store on every path.
    let mut session: Option<(u64, TrajectoryEnforcer)> = None;
    fn screen(policy: &Policy, calls: &[ApiCall]) -> Vec<Decision> {
        PipelineBuilder::new()
            .policy(policy)
            .build()
            .check_all(calls)
            .into_iter()
            .map(|v| Decision {
                allowed: v.allowed,
                rationale: v.rationale,
                violation: v.violation,
            })
            .collect()
    }
    // Session semantics identical to the engine's `Resolved::check`: sync the
    // session to the resolved policy first, screen per-API rules, then
    // let the trajectory enforcer judge — and record — allowed calls.
    fn screen_session(
        session: &mut Option<(u64, TrajectoryEnforcer)>,
        policy: &Arc<Policy>,
        calls: &[ApiCall],
    ) -> Vec<Decision> {
        match &mut *session {
            Some((fp, _)) if *fp == policy.fingerprint() => {}
            slot => {
                *slot = (!policy.trajectory.is_empty()).then(|| {
                    (policy.fingerprint(), TrajectoryEnforcer::new(policy.trajectory.clone()))
                });
                // A trajectory-free policy clears the slot entirely; the
                // engine equivalently holds no `TrajectoryState`.
                if policy.trajectory.is_empty() {
                    *slot = None;
                }
            }
        }
        calls
            .iter()
            .map(|call| {
                let mut decision =
                    screen(policy, std::slice::from_ref(call)).pop().expect("one verdict");
                if decision.allowed {
                    if let Some((_, enforcer)) = session.as_mut() {
                        let verdict = enforcer.check(call);
                        if verdict.allowed {
                            enforcer.record(call);
                        } else {
                            decision = Decision {
                                allowed: false,
                                rationale: verdict.rationale,
                                violation: verdict.violation,
                            };
                        }
                    }
                }
                decision
            })
            .collect()
    }
    ops.iter()
        .map(|op| match op {
            PolicyOp::Install(policy) => {
                current = Some(Arc::new(policy.clone()));
                ledger.remove(&policy.fingerprint());
                encode_install(policy)
            }
            PolicyOp::Check(call) => {
                let decision = current.as_ref().map(|p| {
                    screen_session(&mut session, p, std::slice::from_ref(call))
                        .pop()
                        .expect("one verdict")
                });
                encode_opt_decision(&decision)
            }
            PolicyOp::CheckBatch(calls) => {
                let decisions = current.as_ref().map(|p| screen_session(&mut session, p, calls));
                encode_opt_batch(&decisions)
            }
            PolicyOp::Revoke(fingerprint) => {
                ledger.insert(*fingerprint);
                let removed = match &current {
                    Some(p) if p.fingerprint() == *fingerprint => {
                        current = None;
                        1
                    }
                    _ => 0,
                };
                encode_count(removed)
            }
            PolicyOp::Reload(policy) => {
                let old = current.replace(Arc::new(policy.clone())).map(|p| p.fingerprint());
                ledger.remove(&policy.fingerprint());
                encode_reload(old, policy)
            }
            PolicyOp::Flush => {
                // The durable side of a flush is the log's flush marker:
                // the projection empties with the store.
                durable_slot = None;
                encode_count(current.take().map(|_| 1).unwrap_or(0))
            }
            PolicyOp::Snapshot => {
                let entries: Vec<Arc<Policy>> = current.iter().cloned().collect();
                let mut fps: Vec<u64> = entries.iter().map(|p| p.fingerprint()).collect();
                snapshot = Some(entries);
                encode_snapshot_outcome(&mut fps)
            }
            PolicyOp::WarmStart => {
                let (mut installed, mut skipped_revoked, mut skipped_live) = (0u64, 0u64, 0u64);
                for policy in snapshot.clone().unwrap_or_default() {
                    if ledger.contains(&policy.fingerprint()) {
                        skipped_revoked += 1;
                    } else if current.is_some() {
                        skipped_live += 1;
                    } else {
                        current = Some(policy);
                        installed += 1;
                    }
                }
                encode_warm_start(installed, skipped_revoked, skipped_live)
            }
            PolicyOp::SnapshotTick => {
                assert!(durable, "{NEEDS_DURABLE}");
                // A full-segment tick: the projection becomes exactly
                // the live store.
                durable_slot = current.clone();
                let mut fps: Vec<u64> = durable_slot.iter().map(|p| p.fingerprint()).collect();
                encode_snapshot_outcome(&mut fps)
            }
            PolicyOp::CrashRecover => {
                assert!(durable, "{NEEDS_DURABLE}");
                // Memory dies: the live slot and the trajectory session
                // are gone. Recovery replays the ledger, then
                // warm-starts from the durable projection — never
                // resurrecting a journaled revocation.
                current = None;
                session = None;
                let (mut installed, mut skipped_revoked) = (0u64, 0u64);
                if let Some(policy) = &durable_slot {
                    if ledger.contains(&policy.fingerprint()) {
                        skipped_revoked = 1;
                    } else {
                        current = Some(Arc::clone(policy));
                        installed = 1;
                    }
                }
                encode_warm_start(installed, skipped_revoked, 0)
            }
        })
        .collect()
}

fn run_engine(
    tenant: &str,
    task: &str,
    context: &TrustedContext,
    ops: &[PolicyOp],
    data_dir: Option<&Path>,
) -> (Vec<Vec<u8>>, TenantCounters) {
    // Durable runs drive the same snapshot-log machinery the server's
    // lifecycle daemon does, inline: `recover` attaches the durable
    // journal to the engine (so its revokes and installs are journaled
    // exactly as the server's are), flush markers are appended when the
    // store empties, every tick is a full segment.
    let mut engine = Engine::default();
    if let Some(dir) = data_dir {
        recover(&engine, dir, JournalOptions::default()).expect("data dir opens");
    }
    let mut snapshot: Option<Vec<u8>> = None;
    // One trajectory session per script run, matching the one-client
    // connection the served path holds for the whole script.
    let mut session = SessionState::new();
    let key = EngineKey::new(tenant, task, context);
    let mut log: Option<SnapshotLog> = None;
    fn ensure_log<'a>(
        log: &'a mut Option<SnapshotLog>,
        dir: &Path,
        tenant: &str,
    ) -> &'a mut SnapshotLog {
        if log.is_none() {
            let (opened, _) = SnapshotLog::create_or_open(tenant_log_path(dir, tenant))
                .expect("tenant snapshot log opens");
            *log = Some(opened);
        }
        log.as_mut().expect("just ensured")
    }
    let outcomes =
        ops.iter()
            .map(|op| match op {
                PolicyOp::Install(policy) => {
                    engine.install(tenant, task, context, policy).expect("install");
                    encode_install(policy)
                }
                PolicyOp::Check(call) => encode_opt_decision(
                    &engine
                        .resolve(tenant, &key, Billing::Authoritative)
                        .map(|resolved| resolved.check(Some(&mut session), call)),
                ),
                PolicyOp::CheckBatch(calls) => encode_opt_batch(
                    &engine
                        .resolve(tenant, &key, Billing::Authoritative)
                        .map(|resolved| resolved.check_all(Some(&mut session), calls)),
                ),
                PolicyOp::Revoke(fingerprint) => encode_count(
                    engine.revoke_fingerprint(tenant, *fingerprint).expect("revoke") as u64,
                ),
                PolicyOp::Reload(policy) => {
                    let receipt = engine.reload(tenant, task, context, policy).expect("reload");
                    encode_reload(receipt.old_fingerprint, policy)
                }
                PolicyOp::Flush => {
                    let flushed = engine.flush_tenant(tenant) as u64;
                    // The daemon's flush listener appends the marker after
                    // the engine empties the store; mirror it.
                    if let Some(dir) = data_dir {
                        ensure_log(&mut log, dir, tenant).append_flush().expect("flush marker");
                    }
                    encode_count(flushed)
                }
                PolicyOp::Snapshot => {
                    let exported = engine.store().export_snapshot(tenant).expect("export");
                    let decoded = decode_snapshot(&exported.bytes).expect("own snapshot decodes");
                    let mut fps: Vec<u64> = decoded.entries.iter().map(|e| e.source_fp).collect();
                    snapshot = Some(exported.bytes);
                    encode_snapshot_outcome(&mut fps)
                }
                PolicyOp::WarmStart => match &snapshot {
                    None => encode_warm_start(0, 0, 0),
                    Some(bytes) => {
                        let report = engine.import_snapshot(tenant, bytes).expect("warm start");
                        encode_warm_start(
                            report.installed as u64,
                            report.skipped_revoked as u64,
                            report.skipped_live as u64,
                        )
                    }
                },
                PolicyOp::SnapshotTick => {
                    let dir = data_dir.expect(NEEDS_DURABLE);
                    let exported =
                        engine.store().export_snapshot_since(tenant, 0).expect("full export");
                    ensure_log(&mut log, dir, tenant)
                        .rewrite_full(&exported.bytes)
                        .expect("full segment");
                    encode_snapshot_outcome(&mut durable_projection_fps(dir, tenant))
                }
                PolicyOp::CrashRecover => {
                    let dir = data_dir.expect(NEEDS_DURABLE);
                    // Crash: every open handle and all in-memory state dies.
                    log = None;
                    engine = Engine::default();
                    session = SessionState::new();
                    let recovery =
                        recover(&engine, dir, JournalOptions::default()).expect("crash recovery");
                    encode_recovery(&recovery.report)
                }
            })
            .collect();
    (outcomes, engine.tenant_counters(tenant))
}

/// Starts the conformance server: bare for in-memory scripts, daemon-
/// backed (crash recovery + durable ledger, every tick a full segment)
/// when a data directory is given.
fn start_server(data_dir: Option<&Path>) -> ServerHandle {
    match data_dir {
        None => Server::start(Arc::new(Engine::default()), ServeConfig::default()),
        Some(dir) => Server::start_with_daemon(
            Arc::new(Engine::default()),
            ServeConfig::default(),
            DaemonConfig::at(dir).full_snapshot_every(0),
        )
        .expect("daemon-backed server starts"),
    }
}

/// The three server-backed paths, through one [`TenantClient`]: a plain
/// connection checking one call per round-trip (`Remote`) or every
/// check as a batch (`ServedBatch`), or a subscribed cached client
/// whose checks resolve in its local L1 after a one-time fetch, with
/// server pushes keeping the cache sound across revokes, reloads and
/// flushes (`CachedRemote`). A cached client's counters are the merged
/// server + local split ([`TenantClient::stats`]), which must reconcile
/// *exactly* with what the engine path bills for the same script —
/// every check costs one lookup and one decision, wherever each half
/// landed.
fn run_served(
    path: ExecutionPath,
    tenant: &str,
    task: &str,
    context: &TrustedContext,
    ops: &[PolicyOp],
    data_dir: Option<&Path>,
) -> (Vec<Vec<u8>>, TenantCounters) {
    let connect = |server: &ServerHandle| match path {
        ExecutionPath::CachedRemote => {
            TenantClient::Cached(server.connect_cached(tenant).expect("subscribe handshake"))
        }
        _ => TenantClient::Plain {
            client: server.connect().expect("handshake"),
            tenant: tenant.to_owned(),
        },
    };
    let batch_checks = path == ExecutionPath::ServedBatch;
    let mut server = Some(start_server(data_dir));
    let mut client = Some(connect(server.as_ref().expect("server")));
    let mut snapshot: Option<Vec<u8>> = None;
    let outcomes = ops
        .iter()
        .map(|op| match op {
            PolicyOp::SnapshotTick => {
                let dir = data_dir.expect(NEEDS_DURABLE);
                let handle = server.as_ref().expect("server");
                handle.daemon().expect("durable server").snapshot_now();
                encode_snapshot_outcome(&mut durable_projection_fps(dir, tenant))
            }
            PolicyOp::CrashRecover => {
                data_dir.expect(NEEDS_DURABLE);
                // The crash: connection gone (a cached client's L1 with
                // it, so the restarted cache refetches cold), server
                // gone, no parting snapshot (stopping never writes one
                // by design).
                drop(client.take());
                server.take().expect("server").shutdown();
                let restarted = start_server(data_dir);
                let outcome =
                    encode_recovery(restarted.daemon().expect("durable server").recovery());
                client = Some(connect(&restarted));
                server = Some(restarted);
                outcome
            }
            op => {
                let client = client.as_mut().expect("connected");
                run_tenant_op(client, task, context, op, batch_checks, &mut snapshot)
            }
        })
        .collect();
    let counters = client.as_mut().expect("connected").stats().expect("stats");
    drop(client);
    if let Some(server) = server.take() {
        server.shutdown();
    }
    (outcomes, counters)
}

/// One non-durable script op against a connected [`TenantClient`] —
/// factored out of [`run_served`] so the crash-recovery restart can
/// swap the connection underneath it.
fn run_tenant_op(
    client: &mut TenantClient,
    task: &str,
    context: &TrustedContext,
    op: &PolicyOp,
    batch_checks: bool,
    snapshot: &mut Option<Vec<u8>>,
) -> Vec<u8> {
    match op {
        PolicyOp::Install(policy) => {
            let receipt = client.install(task, context, policy).expect("install");
            let mut out = receipt.fingerprint.to_be_bytes().to_vec();
            out.extend(receipt.entries.to_be_bytes());
            out
        }
        PolicyOp::Check(call) => {
            if batch_checks {
                // The batch transport carries one-call batches too;
                // the outcome is reduced to the same single decision.
                let decisions = client
                    .check_all(task, context, std::slice::from_ref(call))
                    .expect("check batch");
                encode_opt_decision(&decisions.map(|mut ds| ds.pop().expect("one decision")))
            } else {
                encode_opt_decision(&client.check(task, context, call).expect("check"))
            }
        }
        PolicyOp::CheckBatch(calls) => {
            encode_opt_batch(&client.check_all(task, context, calls).expect("batch"))
        }
        PolicyOp::Revoke(fingerprint) => encode_count(client.revoke(*fingerprint).expect("revoke")),
        PolicyOp::Reload(policy) => {
            let receipt = client.reload(task, context, policy).expect("reload");
            let mut out = Vec::new();
            match receipt.old_fingerprint {
                None => out.push(0),
                Some(fp) => {
                    out.push(1);
                    out.extend(fp.to_be_bytes());
                }
            }
            out.extend(receipt.fingerprint.to_be_bytes());
            out.extend(receipt.entries.to_be_bytes());
            out
        }
        PolicyOp::Flush => encode_count(client.flush().expect("flush")),
        PolicyOp::Snapshot => {
            let receipt = client.snapshot().expect("snapshot");
            let decoded = decode_snapshot(&receipt.snapshot).expect("served snapshot decodes");
            let mut fps: Vec<u64> = decoded.entries.iter().map(|e| e.source_fp).collect();
            *snapshot = Some(receipt.snapshot);
            encode_snapshot_outcome(&mut fps)
        }
        PolicyOp::WarmStart => match &*snapshot {
            None => encode_warm_start(0, 0, 0),
            Some(bytes) => {
                let receipt = client.restore(bytes.clone()).expect("warm start");
                encode_warm_start(receipt.installed, receipt.skipped_revoked, receipt.skipped_live)
            }
        },
        PolicyOp::SnapshotTick | PolicyOp::CrashRecover => {
            unreachable!("durable ops are handled by the runner, not per-connection")
        }
    }
}

/// Runs `ops` through one execution path against a fresh backend.
/// Scripts containing [`PolicyOp::SnapshotTick`] or
/// [`PolicyOp::CrashRecover`] need [`run_script_durable`].
pub fn run_script(
    path: ExecutionPath,
    tenant: &str,
    task: &str,
    context: &TrustedContext,
    ops: &[PolicyOp],
) -> ScriptTranscript {
    run_script_inner(path, tenant, task, context, ops, None)
}

/// Like [`run_script`], but the backend is durable: it persists to
/// `data_dir` (the revocation journal plus per-tenant snapshot logs, in
/// the daemon's on-disk layout), which is what [`PolicyOp::SnapshotTick`]
/// writes and [`PolicyOp::CrashRecover`] restarts from. The directory
/// must be fresh per run — reusing one across paths would leak one
/// path's durable state into another's transcript.
pub fn run_script_durable(
    path: ExecutionPath,
    tenant: &str,
    task: &str,
    context: &TrustedContext,
    ops: &[PolicyOp],
    data_dir: &Path,
) -> ScriptTranscript {
    run_script_inner(path, tenant, task, context, ops, Some(data_dir))
}

fn run_script_inner(
    path: ExecutionPath,
    tenant: &str,
    task: &str,
    context: &TrustedContext,
    ops: &[PolicyOp],
    data_dir: Option<&Path>,
) -> ScriptTranscript {
    let (outcomes, counters) = match path {
        ExecutionPath::Pipeline => (run_pipeline(ops, data_dir.is_some()), None),
        ExecutionPath::Engine => {
            let (outcomes, counters) = run_engine(tenant, task, context, ops, data_dir);
            (outcomes, Some(counters))
        }
        ExecutionPath::Remote | ExecutionPath::ServedBatch | ExecutionPath::CachedRemote => {
            let (outcomes, counters) = run_served(path, tenant, task, context, ops, data_dir);
            (outcomes, Some(counters))
        }
    };
    ScriptTranscript { path, outcomes, counters }
}

/// Runs `ops` through all five paths.
pub fn run_script_everywhere(
    tenant: &str,
    task: &str,
    context: &TrustedContext,
    ops: &[PolicyOp],
) -> Vec<ScriptTranscript> {
    ExecutionPath::all()
        .into_iter()
        .map(|path| run_script(path, tenant, task, context, ops))
        .collect()
}

/// Runs `ops` through all five paths durably: each path gets its own
/// fresh data directory under `scratch_root` (named by its label), so
/// crash-recovery scripts can be asserted byte-identical everywhere.
/// The caller owns `scratch_root`'s lifetime and cleanup.
pub fn run_script_everywhere_durable(
    tenant: &str,
    task: &str,
    context: &TrustedContext,
    ops: &[PolicyOp],
    scratch_root: &Path,
) -> Vec<ScriptTranscript> {
    ExecutionPath::all()
        .into_iter()
        .map(|path| {
            run_script_durable(path, tenant, task, context, ops, &scratch_root.join(path.label()))
        })
        .collect()
}

/// Asserts every transcript is byte-identical to the first, naming the
/// first diverging (path, op) on failure.
///
/// # Panics
///
/// Panics on the first divergence.
pub fn assert_conformant(transcripts: &[ScriptTranscript]) {
    let (reference, rest) = transcripts.split_first().expect("at least one transcript");
    for transcript in rest {
        assert_eq!(
            reference.outcomes.len(),
            transcript.outcomes.len(),
            "{} and {} ran different op counts",
            reference.path.label(),
            transcript.path.label()
        );
        for (index, (want, got)) in reference.outcomes.iter().zip(&transcript.outcomes).enumerate()
        {
            assert_eq!(
                want,
                got,
                "op #{index}: {} diverged from {} ({} vs {} bytes)",
                transcript.path.label(),
                reference.path.label(),
                got.len(),
                want.len()
            );
        }
    }
}

/// Canonical bytes for a [`TaskReport`]'s enforcement-visible surface:
/// outcome flags, counts, the exact command dispositions, and the policy
/// rendered in the §4.1 block format. Two runs with equal fingerprints
/// executed and denied exactly the same things under exactly the same
/// (first-resolved) policy.
pub fn report_fingerprint(report: &TaskReport) -> Vec<u8> {
    let mut text = String::new();
    let mut field = |s: &str| {
        text.push_str(s);
        text.push('\u{1f}');
    };
    field(&report.task);
    field(if report.claimed_complete { "complete" } else { "incomplete" });
    field(&format!("{:?}", report.stop));
    field(&report.final_message);
    field(&format!(
        "proposals={} executed={} denials={} tool_errors={} reloads={} cache_hit={}",
        report.proposals,
        report.executed,
        report.denials,
        report.tool_errors,
        report.reloads,
        report.generation.cache_hit,
    ));
    for cmd in &report.executed_commands {
        field(cmd);
    }
    field("--denied--");
    for cmd in &report.denied_commands {
        field(cmd);
    }
    field("--injected--");
    for cmd in report.injected_executed.iter().chain(&report.injected_denied) {
        field(cmd);
    }
    field("--policy--");
    field(&render_policy(&report.policy));
    text.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use conseca_core::{ArgConstraint, PolicyEntry, TrajectoryPolicy, Violation};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(name: &str) -> (PathBuf, Cleanup) {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "conseca-conformance-{}-{}-{name}",
            std::process::id(),
            seq
        ));
        std::fs::create_dir_all(&dir).unwrap();
        (dir.clone(), Cleanup(dir))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn policy_a() -> Policy {
        let mut p = Policy::new("respond to urgent work emails");
        p.set(
            "send_email",
            PolicyEntry::allow(vec![ArgConstraint::regex("^alice$").unwrap()], "alice sends"),
        );
        p.set("delete_email", PolicyEntry::deny("no deletions"));
        p
    }

    fn policy_b() -> Policy {
        let mut p = Policy::new("respond to urgent work emails");
        p.set("send_email", PolicyEntry::deny("context changed: sends locked"));
        p
    }

    fn call(name: &str, args: &[&str]) -> ApiCall {
        ApiCall::new("test", name, args.iter().map(|s| s.to_string()).collect())
    }

    fn ctx() -> TrustedContext {
        TrustedContext::for_user("alice")
    }

    #[test]
    fn all_paths_agree_on_a_simple_lifecycle() {
        let ops = vec![
            PolicyOp::Check(call("send_email", &["alice"])), // nothing installed yet
            PolicyOp::Install(policy_a()),
            PolicyOp::Check(call("send_email", &["alice"])),
            PolicyOp::Check(call("send_email", &["eve"])),
            PolicyOp::CheckBatch(vec![call("delete_email", &["1"]), call("ls", &[])]),
            PolicyOp::Reload(policy_b()),
            PolicyOp::Check(call("send_email", &["alice"])), // now judged by B
            PolicyOp::Flush,
            PolicyOp::Check(call("send_email", &["alice"])), // flushed: absent again
        ];
        let transcripts = run_script_everywhere("acme", "t", &ctx(), &ops);
        assert_conformant(&transcripts);
        assert_eq!(transcripts[0].outcomes[0], vec![0], "pre-install checks are absent");
        assert_eq!(transcripts[0].outcomes[6][..2], [1, 0], "reloaded policy denies the send");
        assert_eq!(transcripts[0].outcomes[8], vec![0], "post-flush checks are absent");
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn divergence_is_named_per_op() {
        let mut a = run_script(
            ExecutionPath::Pipeline,
            "acme",
            "t",
            &ctx(),
            &[PolicyOp::Install(policy_a()), PolicyOp::Check(call("send_email", &["alice"]))],
        );
        let b = run_script(
            ExecutionPath::Engine,
            "acme",
            "t",
            &ctx(),
            &[PolicyOp::Install(policy_a()), PolicyOp::Check(call("send_email", &["eve"]))],
        );
        a.outcomes[1][0] ^= 1; // force a divergence
        assert_conformant(&[a, b]);
    }

    /// A policy whose per-API layer allows everything the scripts call,
    /// so every denial below is attributable to the trajectory layer.
    fn trajectory_policy(trajectory: TrajectoryPolicy) -> Policy {
        let mut p = Policy::new("respond to urgent work emails");
        for api in ["send_email", "read_secret", "ls", "ping"] {
            p.set(api, PolicyEntry::allow_any("listed for this task"));
        }
        p.set_trajectory(trajectory);
        p
    }

    /// Decodes the leading decision from an `encode_opt_decision` outcome
    /// just far enough to see present/allowed flags.
    fn decision_flags(outcome: &[u8]) -> (bool, bool) {
        match outcome {
            [0] => (false, false),
            [1, allowed, ..] => (true, *allowed == 1),
            other => panic!("unrecognised decision encoding: {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_is_conformant_across_all_paths() {
        let policy = trajectory_policy(TrajectoryPolicy::new().budget(2));
        let ops = vec![
            PolicyOp::Install(policy),
            PolicyOp::Check(call("send_email", &["alice"])),
            PolicyOp::Check(call("ls", &[])),
            PolicyOp::Check(call("ping", &[])), // budget of 2 spent
            PolicyOp::CheckBatch(vec![call("ls", &[]), call("ping", &[])]),
        ];
        let transcripts = run_script_everywhere("acme", "t", &ctx(), &ops);
        assert_conformant(&transcripts);
        let outcomes = &transcripts[0].outcomes;
        assert_eq!(decision_flags(&outcomes[1]), (true, true));
        assert_eq!(decision_flags(&outcomes[2]), (true, true));
        assert_eq!(decision_flags(&outcomes[3]), (true, false), "third call exhausts the budget");
    }

    #[test]
    fn ordering_violations_are_conformant_across_all_paths() {
        let policy = trajectory_policy(TrajectoryPolicy::new().forbid_after(
            "send_email",
            "read_secret",
            "exfil guard",
        ));
        let ops = vec![
            PolicyOp::Install(policy),
            PolicyOp::Check(call("send_email", &["alice"])), // fine before the trigger
            PolicyOp::Check(call("read_secret", &["vault"])),
            PolicyOp::Check(call("send_email", &["alice"])), // latched: denied
            PolicyOp::CheckBatch(vec![call("ls", &[]), call("send_email", &["bob"])]),
        ];
        let transcripts = run_script_everywhere("acme", "t", &ctx(), &ops);
        assert_conformant(&transcripts);
        let outcomes = &transcripts[0].outcomes;
        assert_eq!(decision_flags(&outcomes[1]), (true, true));
        assert_eq!(decision_flags(&outcomes[3]), (true, false), "order rule latches forever");
    }

    #[test]
    fn window_limits_slide_conformantly_across_all_paths() {
        let policy =
            trajectory_policy(TrajectoryPolicy::new().limit_in_window("ls", 2, 3, "listing storm"));
        let ops = vec![
            PolicyOp::Install(policy),
            PolicyOp::Check(call("ls", &[])),
            PolicyOp::Check(call("ls", &[])),
            PolicyOp::Check(call("ls", &[])), // 2 in the last 3 steps: denied
            PolicyOp::Check(call("ping", &[])),
            PolicyOp::Check(call("ping", &[])),
            PolicyOp::Check(call("ls", &[])), // window slid past one ls: allowed
        ];
        let transcripts = run_script_everywhere("acme", "t", &ctx(), &ops);
        assert_conformant(&transcripts);
        let outcomes = &transcripts[0].outcomes;
        assert_eq!(decision_flags(&outcomes[3]), (true, false), "window full");
        assert_eq!(decision_flags(&outcomes[6]), (true, true), "window slid open again");
    }

    /// The acceptance script: install → check sequence → budget exhaust →
    /// revoke → warm-start, byte-identical on all five paths, with the
    /// post-warm-start check proving spent budgets are not resurrected.
    #[test]
    fn warm_start_does_not_resurrect_spent_budgets_on_any_path() {
        let spent = trajectory_policy(TrajectoryPolicy::new().budget(2).forbid_after(
            "send_email",
            "read_secret",
            "guard",
        ));
        let interim = policy_b();
        let interim_fp = interim.fingerprint();
        let ops = vec![
            PolicyOp::Install(spent),
            PolicyOp::Snapshot,
            PolicyOp::Check(call("send_email", &["alice"])),
            PolicyOp::Check(call("ls", &[])),
            PolicyOp::Check(call("ping", &[])), // budget exhausted
            PolicyOp::Reload(interim),
            PolicyOp::Revoke(interim_fp),       // store is now empty
            PolicyOp::Check(call("ping", &[])), // absent: nothing installed
            PolicyOp::WarmStart,                // reinstalls the trajectory policy
            PolicyOp::Check(call("ping", &[])), // budget must STILL be spent
        ];
        let transcripts = run_script_everywhere("acme", "t", &ctx(), &ops);
        assert_conformant(&transcripts);
        let outcomes = &transcripts[0].outcomes;
        assert_eq!(decision_flags(&outcomes[4]), (true, false), "budget exhausted pre-revoke");
        assert_eq!(decision_flags(&outcomes[7]), (false, false), "revoked: no policy resolves");
        assert_eq!(
            decision_flags(&outcomes[9]),
            (true, false),
            "warm-start restored the policy but must not resurrect the spent budget"
        );
    }

    /// The interpreted mirror and the engine agree on the rationale bytes
    /// of a trajectory denial, not just the allow/deny bit.
    #[test]
    fn trajectory_denials_carry_identical_violations_across_paths() {
        let policy = trajectory_policy(TrajectoryPolicy::new().limit("ls", 1, "one is plenty"));
        let ops = vec![
            PolicyOp::Install(policy),
            PolicyOp::Check(call("ls", &[])),
            PolicyOp::Check(call("ls", &[])),
        ];
        let transcripts = run_script_everywhere("acme", "t", &ctx(), &ops);
        assert_conformant(&transcripts);
        // Sanity: the engine path really produced a RateLimited violation.
        let engine = Engine::default();
        engine
            .install(
                "acme",
                "t",
                &ctx(),
                &trajectory_policy(TrajectoryPolicy::new().limit("ls", 1, "one is plenty")),
            )
            .unwrap();
        let mut session = SessionState::new();
        let key = EngineKey::new("acme", "t", &ctx());
        let resolve = || engine.resolve("acme", &key, Billing::Authoritative).expect("installed");
        resolve().check(Some(&mut session), &call("ls", &[]));
        let denied = resolve().check(Some(&mut session), &call("ls", &[]));
        assert_eq!(
            denied.violation,
            Some(Violation::RateLimited { api: "ls".into(), limit: 1, used: 1 })
        );
    }

    /// The crash-forgets-revocation hole, proven closed on all five
    /// paths at once: a revocation journaled after the last snapshot
    /// tick must still gate recovery, and a client-held snapshot taken
    /// before the crash must not resurrect it afterwards.
    #[test]
    fn a_revocation_after_the_last_snapshot_tick_survives_a_crash_on_every_path() {
        let (root, _cleanup) = scratch("revoke-crash");
        let doomed = policy_a();
        let fp = doomed.fingerprint();
        let probe = call("send_email", &["alice"]);
        let ops = vec![
            PolicyOp::Install(doomed),
            PolicyOp::Snapshot,     // the client keeps a pre-crash snapshot
            PolicyOp::SnapshotTick, // the policy becomes durable
            PolicyOp::Check(probe.clone()),
            PolicyOp::Revoke(fp), // journaled; NO tick before the crash
            PolicyOp::CrashRecover,
            PolicyOp::Check(probe.clone()), // must stay dead
            PolicyOp::WarmStart,            // the old snapshot must be gated too
            PolicyOp::Check(probe),
        ];
        let transcripts = run_script_everywhere_durable("acme", "t", &ctx(), &ops, &root);
        assert_conformant(&transcripts);
        let outcomes = &transcripts[0].outcomes;
        let mut one_entry = 1u64.to_be_bytes().to_vec();
        one_entry.extend(fp.to_be_bytes());
        assert_eq!(outcomes[2], one_entry, "the tick persisted exactly the doomed policy");
        assert_eq!(decision_flags(&outcomes[3]), (true, true), "live before the crash");
        assert_eq!(
            outcomes[5],
            encode_warm_start(0, 1, 0),
            "recovery found the durable entry and refused it: the journal outlives the crash"
        );
        assert_eq!(decision_flags(&outcomes[6]), (false, false), "still dead after restart");
        assert_eq!(
            outcomes[7],
            encode_warm_start(0, 1, 0),
            "a pre-crash snapshot restore is gated the same way"
        );
        assert_eq!(decision_flags(&outcomes[8]), (false, false), "no resurrection, ever");
    }

    /// The other half of recovery correctness: flushed policies stay
    /// flushed (the flush marker persists), and live policies restore
    /// and serve decisions again.
    #[test]
    fn flushes_stay_flushed_and_live_policies_restore_across_a_crash_on_every_path() {
        let (root, _cleanup) = scratch("flush-crash");
        let replacement = policy_b();
        let probe = call("send_email", &["alice"]);
        let ops = vec![
            PolicyOp::Install(policy_a()),
            PolicyOp::SnapshotTick, // durable...
            PolicyOp::Flush,        // ...then flushed: the marker is durable too
            PolicyOp::CrashRecover,
            PolicyOp::Check(probe.clone()), // flushed entries must not come back
            PolicyOp::Install(replacement),
            PolicyOp::SnapshotTick,
            PolicyOp::CrashRecover,
            PolicyOp::Check(probe), // the live policy serves again (B denies)
        ];
        let transcripts = run_script_everywhere_durable("acme", "t", &ctx(), &ops, &root);
        assert_conformant(&transcripts);
        let outcomes = &transcripts[0].outcomes;
        assert_eq!(
            outcomes[3],
            encode_warm_start(0, 0, 0),
            "nothing to recover: the flush marker emptied the durable projection"
        );
        assert_eq!(decision_flags(&outcomes[4]), (false, false), "flushed stays flushed");
        assert_eq!(
            outcomes[7],
            encode_warm_start(1, 0, 0),
            "the live replacement warm-starts from the log"
        );
        assert_eq!(
            decision_flags(&outcomes[8]),
            (true, false),
            "the restored policy serves (and denies) the probe"
        );
    }

    /// Trajectory sessions are connection-scoped on every path, so a
    /// crash uniformly resets them: the recovered policy is the same,
    /// but its spent budget is not carried over — unlike `WarmStart`,
    /// which runs on a surviving connection and must NOT reset it.
    #[test]
    fn a_crash_resets_trajectory_sessions_uniformly() {
        let (root, _cleanup) = scratch("session-crash");
        let policy = trajectory_policy(TrajectoryPolicy::new().budget(1));
        let ops = vec![
            PolicyOp::Install(policy),
            PolicyOp::SnapshotTick,
            PolicyOp::Check(call("ping", &[])), // spends the budget
            PolicyOp::Check(call("ping", &[])), // denied: exhausted
            PolicyOp::CrashRecover,
            PolicyOp::Check(call("ping", &[])), // fresh session: allowed again
        ];
        let transcripts = run_script_everywhere_durable("acme", "t", &ctx(), &ops, &root);
        assert_conformant(&transcripts);
        let outcomes = &transcripts[0].outcomes;
        assert_eq!(decision_flags(&outcomes[2]), (true, true));
        assert_eq!(decision_flags(&outcomes[3]), (true, false), "budget exhausted");
        assert_eq!(outcomes[4], encode_warm_start(1, 0, 0), "the policy itself recovers");
        assert_eq!(
            decision_flags(&outcomes[5]),
            (true, true),
            "the crash killed the session on every path: budgets restart with the connection"
        );
    }

    #[test]
    #[should_panic(expected = "run_script_durable")]
    fn durable_ops_refuse_to_run_without_a_data_dir() {
        run_script(ExecutionPath::Pipeline, "acme", "t", &ctx(), &[PolicyOp::SnapshotTick]);
    }

    #[test]
    fn report_fingerprints_separate_distinct_outcomes() {
        use conseca_agent::PolicyMode;
        let open = crate::run_task_once(1, 0, PolicyMode::NoPolicy, false);
        let open_again = crate::run_task_once(1, 0, PolicyMode::NoPolicy, false);
        let locked = crate::run_task_once(1, 0, PolicyMode::StaticRestrictive, false);
        assert_eq!(
            report_fingerprint(&open.report),
            report_fingerprint(&open_again.report),
            "identical runs share a fingerprint"
        );
        assert_ne!(
            report_fingerprint(&open.report),
            report_fingerprint(&locked.report),
            "different dispositions must differ"
        );
    }
}
