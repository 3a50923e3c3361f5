//! Contextual security policies (§3.2, §4.1).
//!
//! A [`Policy`] maps API-call names to a [`PolicyEntry`] with (i) whether
//! the call may execute at all in this context, (ii) a constraint per
//! positional argument, and (iii) a human-readable rationale — exactly the
//! three-part structure of the paper's prototype. Calls without an entry
//! are **denied by default** ("restrict all other actions", §1).

use std::collections::BTreeMap;

use conseca_shell::{Effect, ToolRegistry};

use crate::constraint::ArgConstraint;
use crate::trajectory::TrajectoryPolicy;

/// Policy for a single API call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyEntry {
    /// Whether the API call should ever execute in this context.
    pub can_execute: bool,
    /// Positional argument constraints (`$1` = index 0). Arguments beyond
    /// the list are unconstrained.
    pub arg_constraints: Vec<ArgConstraint>,
    /// Human-readable justification for the two fields above.
    pub rationale: String,
}

impl PolicyEntry {
    /// An entry that allows the call with the given argument constraints.
    pub fn allow(arg_constraints: Vec<ArgConstraint>, rationale: &str) -> Self {
        PolicyEntry { can_execute: true, arg_constraints, rationale: rationale.to_owned() }
    }

    /// An entry that allows the call unconditionally.
    pub fn allow_any(rationale: &str) -> Self {
        Self::allow(Vec::new(), rationale)
    }

    /// An entry that forbids the call in this context.
    pub fn deny(rationale: &str) -> Self {
        PolicyEntry {
            can_execute: false,
            arg_constraints: Vec::new(),
            rationale: rationale.to_owned(),
        }
    }
}

/// A complete task- and context-specific policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Policy {
    /// The task this policy was generated for (audit metadata).
    pub task: String,
    /// Per-API entries.
    pub entries: BTreeMap<String, PolicyEntry>,
    /// Rationale attached to default denials of unlisted calls.
    pub default_rationale: String,
    /// Constraints over the whole call *sequence* (§7): budgets, ordering
    /// rules, rate limits. Empty by default, and an empty block changes
    /// nothing — not the fingerprint, not enforcement.
    pub trajectory: TrajectoryPolicy,
}

impl Policy {
    /// Creates an empty (deny-everything) policy for a task.
    pub fn new(task: &str) -> Self {
        Policy {
            task: task.to_owned(),
            entries: BTreeMap::new(),
            default_rationale: "the call is not part of the policy for this task".to_owned(),
            trajectory: TrajectoryPolicy::new(),
        }
    }

    /// Attaches (replacing any previous) trajectory constraints.
    pub fn set_trajectory(&mut self, trajectory: TrajectoryPolicy) -> &mut Self {
        self.trajectory = trajectory;
        self
    }

    /// Adds or replaces the entry for `api`.
    pub fn set(&mut self, api: &str, entry: PolicyEntry) -> &mut Self {
        self.entries.insert(api.to_owned(), entry);
        self
    }

    /// Looks up the entry for an API call.
    pub fn entry(&self, api: &str) -> Option<&PolicyEntry> {
        self.entries.get(api)
    }

    /// Number of listed APIs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Reports whether the policy lists no APIs (deny-everything).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// APIs explicitly allowed by this policy.
    pub fn allowed_apis(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().filter(|(_, e)| e.can_execute).map(|(k, _)| k.as_str())
    }

    /// A stable fingerprint of the policy's semantics (used by the cache
    /// and the audit log).
    pub fn fingerprint(&self) -> u64 {
        let mut text = self.task.clone();
        for (api, entry) in &self.entries {
            text.push_str(api);
            text.push(if entry.can_execute { '+' } else { '-' });
            for c in &entry.arg_constraints {
                text.push_str(&c.to_string());
            }
        }
        // Appended only when present so policies without trajectory rules
        // keep the fingerprints they had before the block existed.
        if !self.trajectory.is_empty() {
            text.push('\u{1f}');
            text.push_str(&self.trajectory.semantic_summary());
        }
        fnv1a(text.as_bytes())
    }

    // --------------------------------------------------- static baselines

    /// The paper's "no policy" baseline: every registered API is allowed
    /// with no constraints.
    pub fn unrestricted(registry: &ToolRegistry) -> Self {
        let mut p = Policy::new("(baseline: no policy)");
        for api in registry.apis() {
            p.set(api.name, PolicyEntry::allow_any("no policy is in force"));
        }
        p
    }

    /// The paper's "static permissive" baseline: allows all actions except
    /// deletion (§5: "a static permissive policy that allows all actions
    /// except deletion").
    pub fn static_permissive(registry: &ToolRegistry) -> Self {
        let mut p = Policy::new("(baseline: static permissive)");
        for api in registry.apis() {
            if matches!(api.effect, Effect::Delete) {
                p.set(
                    api.name,
                    PolicyEntry::deny("the static permissive policy forbids destructive actions"),
                );
            } else {
                p.set(
                    api.name,
                    PolicyEntry::allow_any(
                        "the static permissive policy allows non-destructive actions",
                    ),
                );
            }
        }
        p
    }

    /// The paper's "static restrictive" baseline: prevents all mutating
    /// actions (§5: "a static restrictive policy that prevents all mutating
    /// actions").
    pub fn static_restrictive(registry: &ToolRegistry) -> Self {
        let mut p = Policy::new("(baseline: static restrictive)");
        for api in registry.apis() {
            if api.is_mutating() {
                p.set(
                    api.name,
                    PolicyEntry::deny("the static restrictive policy forbids all mutating actions"),
                );
            } else {
                p.set(
                    api.name,
                    PolicyEntry::allow_any("reads are allowed under the static restrictive policy"),
                );
            }
        }
        p
    }
}

/// FNV-1a 64-bit hash used for policy and context fingerprints.
///
/// Public so engine-layer caches can derive keys with exactly the same
/// fingerprints the in-process [`crate::cache::PolicyCache`] uses.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write(data);
    hash.finish()
}

/// Incremental [`fnv1a`]: bytes fed in any number of pieces hash to the
/// value `fnv1a` gives for their concatenation.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conseca_shell::default_registry;

    #[test]
    fn empty_policy_denies_everything_by_construction() {
        let p = Policy::new("task");
        assert!(p.is_empty());
        assert!(p.entry("send_email").is_none());
        assert_eq!(p.allowed_apis().count(), 0);
    }

    #[test]
    fn set_and_lookup() {
        let mut p = Policy::new("task");
        p.set("ls", PolicyEntry::allow_any("listing is harmless here"));
        p.set("rm", PolicyEntry::deny("no deletions in this task"));
        assert!(p.entry("ls").unwrap().can_execute);
        assert!(!p.entry("rm").unwrap().can_execute);
        assert_eq!(p.len(), 2);
        let allowed: Vec<&str> = p.allowed_apis().collect();
        assert_eq!(allowed, vec!["ls"]);
    }

    #[test]
    fn fingerprint_changes_with_semantics() {
        let mut a = Policy::new("t");
        a.set("ls", PolicyEntry::allow_any("r"));
        let mut b = Policy::new("t");
        b.set("ls", PolicyEntry::deny("r"));
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = Policy::new("t");
        c.set("ls", PolicyEntry::allow_any("different rationale, same meaning"));
        assert_eq!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_folds_trajectory_semantics() {
        let mut base = Policy::new("t");
        base.set("ls", PolicyEntry::allow_any("r"));
        let plain = base.fingerprint();

        let mut budgeted = base.clone();
        budgeted.set_trajectory(crate::trajectory::TrajectoryPolicy::new().budget(5));
        assert_ne!(plain, budgeted.fingerprint());

        let mut ordered = base.clone();
        ordered.set_trajectory(crate::trajectory::TrajectoryPolicy::new().forbid_after(
            "send_email",
            "read_secret",
            "r",
        ));
        assert_ne!(plain, ordered.fingerprint());
        assert_ne!(budgeted.fingerprint(), ordered.fingerprint());

        // Trajectory rationales, like entry rationales, are non-semantic.
        let mut ordered2 = base.clone();
        ordered2.set_trajectory(crate::trajectory::TrajectoryPolicy::new().forbid_after(
            "send_email",
            "read_secret",
            "a completely different rationale",
        ));
        assert_eq!(ordered.fingerprint(), ordered2.fingerprint());

        // An empty trajectory block leaves the historical fingerprint intact.
        let mut empty = base.clone();
        empty.set_trajectory(crate::trajectory::TrajectoryPolicy::new());
        assert_eq!(plain, empty.fingerprint());
    }

    #[test]
    fn unrestricted_covers_whole_registry() {
        let reg = default_registry();
        let p = Policy::unrestricted(&reg);
        assert_eq!(p.len(), reg.len());
        assert!(p.entry("rm").unwrap().can_execute);
        assert!(p.entry("send_email").unwrap().can_execute);
    }

    #[test]
    fn static_permissive_denies_exactly_deletions() {
        let reg = default_registry();
        let p = Policy::static_permissive(&reg);
        for api in reg.apis() {
            let entry = p.entry(api.name).unwrap();
            assert_eq!(
                entry.can_execute,
                !matches!(api.effect, Effect::Delete),
                "wrong permissive verdict for {}",
                api.name
            );
        }
        assert!(!p.entry("rm").unwrap().can_execute);
        assert!(!p.entry("delete_email").unwrap().can_execute);
        assert!(p.entry("write_file").unwrap().can_execute);
        assert!(p.entry("touch").unwrap().can_execute);
    }

    #[test]
    fn static_restrictive_denies_all_mutations() {
        let reg = default_registry();
        let p = Policy::static_restrictive(&reg);
        for api in reg.apis() {
            let entry = p.entry(api.name).unwrap();
            assert_eq!(entry.can_execute, !api.is_mutating(), "{}", api.name);
        }
        assert!(p.entry("ls").unwrap().can_execute);
        assert!(p.entry("cat").unwrap().can_execute);
        assert!(!p.entry("write_file").unwrap().can_execute);
        assert!(!p.entry("send_email").unwrap().can_execute);
    }

    #[test]
    fn entry_builders() {
        let e = PolicyEntry::allow(vec![ArgConstraint::Any], "why");
        assert!(e.can_execute);
        assert_eq!(e.arg_constraints.len(), 1);
        let d = PolicyEntry::deny("not needed");
        assert!(!d.can_execute);
        assert!(d.arg_constraints.is_empty());
    }
}
