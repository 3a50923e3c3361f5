//! Policy verification (§7): "To increase developers' confidence in
//! policies, we could perhaps automate policy verification using structured
//! rationales and formally mapping them to constraints."
//!
//! The verifier lints a generated policy for internal inconsistencies and
//! rationale/constraint mismatches before the policy is put in force, and
//! stands in for the paper's "experts (perhaps automated)" that check
//! rationales against constraints (§3.2).

use core::fmt;

use conseca_shell::ToolRegistry;

use crate::constraint::ArgConstraint;
use crate::policy::Policy;

/// Severity of a verification finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Stylistic or informational.
    Info,
    /// Suspicious; a human should look.
    Warning,
    /// The policy is internally inconsistent.
    Error,
}

/// One verification finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which API entry the finding concerns.
    pub api: String,
    /// How serious it is.
    pub severity: Severity,
    /// What was found.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?}] {}: {}", self.severity, self.api, self.message)
    }
}

/// Verifies a policy against the tool registry and its own rationales.
///
/// Checks performed:
/// 1. every listed API exists in the registry (unknown APIs are dead
///    entries that can mask typos);
/// 2. rationales are present and non-trivial;
/// 3. entries with `can_execute = false` carry no argument constraints
///    (dead constraints signal generator confusion);
/// 4. constraints do not exceed the API's parameter count;
/// 5. wildcard constraints (`.*`) are flagged — the OWASP
///    "overly permissive regular expression" pattern the paper cites;
/// 6. allowed mutating calls with *no* restrictive constraint are flagged
///    for review;
/// 7. rationales of restrictive entries should echo at least one literal
///    they constrain on (structured rationale ↔ constraint mapping).
pub fn verify_policy(policy: &Policy, registry: &ToolRegistry) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut push = |api: &str, severity: Severity, message: String| {
        findings.push(Finding { api: api.to_owned(), severity, message });
    };

    for (api, entry) in &policy.entries {
        let spec = registry.api(api);
        if spec.is_none() {
            push(api, Severity::Error, "API is not in the tool registry".into());
        }
        if entry.rationale.trim().len() < 8 {
            push(api, Severity::Error, "rationale is missing or too short to audit".into());
        }
        if !entry.can_execute && !entry.arg_constraints.is_empty() {
            push(
                api,
                Severity::Error,
                "entry is denied but still carries argument constraints".into(),
            );
        }
        if let Some(spec) = spec {
            if entry.arg_constraints.len() > spec.params.len() {
                push(
                    api,
                    Severity::Error,
                    format!(
                        "{} constraints but the API takes only {} parameter(s)",
                        entry.arg_constraints.len(),
                        spec.params.len()
                    ),
                );
            }
            if entry.can_execute
                && spec.is_mutating()
                && !entry.arg_constraints.iter().any(ArgConstraint::is_restrictive)
            {
                push(
                    api,
                    Severity::Warning,
                    "mutating call allowed without any restrictive constraint".into(),
                );
            }
        }
        for (i, c) in entry.arg_constraints.iter().enumerate() {
            if matches!(c, ArgConstraint::Regex(_)) && !c.is_restrictive() {
                push(
                    api,
                    Severity::Info,
                    format!("constraint ${} is a wildcard regex; prefer an explicit `any`", i + 1),
                );
            }
        }
        if entry.can_execute
            && entry.arg_constraints.iter().any(ArgConstraint::is_restrictive)
            && !rationale_echoes_constraints(&entry.rationale, &entry.arg_constraints)
        {
            push(
                api,
                Severity::Warning,
                "rationale does not mention any value the constraints enforce".into(),
            );
        }
    }
    findings
}

/// Reports whether the rationale text contains at least one literal that
/// also appears inside a constraint (the structured-rationale check).
fn rationale_echoes_constraints(rationale: &str, constraints: &[ArgConstraint]) -> bool {
    let rationale = rationale.to_lowercase();
    for c in constraints {
        for literal in constraint_literals(c) {
            if literal.len() >= 3 && rationale.contains(&literal.to_lowercase()) {
                return true;
            }
        }
    }
    false
}

/// Extracts plain-text literals from a constraint for rationale matching.
fn constraint_literals(c: &ArgConstraint) -> Vec<String> {
    use crate::constraint::Predicate;
    fn from_predicate(p: &Predicate, out: &mut Vec<String>) {
        match p {
            Predicate::Eq(s)
            | Predicate::Prefix(s)
            | Predicate::Suffix(s)
            | Predicate::Contains(s) => out.push(s.clone()),
            Predicate::OneOf(options) => out.extend(options.iter().cloned()),
            Predicate::Not(inner) => from_predicate(inner, out),
            Predicate::All(ps) | Predicate::AnyOf(ps) => {
                ps.iter().for_each(|p| from_predicate(p, out))
            }
            Predicate::Num(_, v) => out.push(v.to_string()),
            Predicate::True => {}
        }
    }
    match c {
        ArgConstraint::Any => Vec::new(),
        ArgConstraint::Regex(re) => {
            // Split the pattern on regex metacharacters; keep word-ish runs.
            let mut out = Vec::new();
            let mut cur = String::new();
            for ch in re.pattern().chars() {
                if ch.is_alphanumeric() || matches!(ch, '_' | '-' | '@' | '/') {
                    cur.push(ch);
                } else if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            if !cur.is_empty() {
                out.push(cur);
            }
            out
        }
        ArgConstraint::Dsl(p) => {
            let mut out = Vec::new();
            from_predicate(p, &mut out);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Predicate;
    use crate::policy::PolicyEntry;
    use conseca_shell::default_registry;

    #[test]
    fn clean_policy_yields_no_errors() {
        let reg = default_registry();
        let mut p = Policy::new("respond to urgent work emails");
        p.set(
            "send_email",
            PolicyEntry::allow(
                vec![
                    ArgConstraint::regex("^alice$").unwrap(),
                    ArgConstraint::regex(r"@work\.com$").unwrap(),
                    ArgConstraint::regex("urgent").unwrap(),
                ],
                "responses must come from alice, go to work.com, and be urgent",
            ),
        );
        p.set("delete_email", PolicyEntry::deny("we are not deleting emails in this task"));
        let findings = verify_policy(&p, &reg);
        assert!(
            !findings.iter().any(|f| f.severity == Severity::Error),
            "unexpected errors: {findings:?}"
        );
    }

    #[test]
    fn unknown_api_is_an_error() {
        let reg = default_registry();
        let mut p = Policy::new("t");
        p.set("launch_missiles", PolicyEntry::deny("definitely not part of this task"));
        let findings = verify_policy(&p, &reg);
        assert!(findings
            .iter()
            .any(|f| f.api == "launch_missiles" && f.severity == Severity::Error));
    }

    #[test]
    fn short_rationale_is_an_error() {
        let reg = default_registry();
        let mut p = Policy::new("t");
        p.set("ls", PolicyEntry::allow_any("ok"));
        let findings = verify_policy(&p, &reg);
        assert!(findings.iter().any(|f| f.message.contains("rationale")));
    }

    #[test]
    fn denied_with_constraints_is_inconsistent() {
        let reg = default_registry();
        let mut p = Policy::new("t");
        let mut entry = PolicyEntry::deny("no removals are needed for this task");
        entry.arg_constraints.push(ArgConstraint::regex("^/tmp/").unwrap());
        p.set("rm", entry);
        let findings = verify_policy(&p, &reg);
        assert!(findings
            .iter()
            .any(|f| f.severity == Severity::Error && f.message.contains("denied but")));
    }

    #[test]
    fn too_many_constraints_is_an_error() {
        let reg = default_registry();
        let mut p = Policy::new("t");
        p.set(
            "rm",
            PolicyEntry::allow(
                vec![ArgConstraint::regex("^/tmp/").unwrap(), ArgConstraint::Any],
                "rm takes one parameter; constraining /tmp paths only",
            ),
        );
        let findings = verify_policy(&p, &reg);
        assert!(findings.iter().any(|f| f.message.contains("takes only 1")));
    }

    #[test]
    fn wildcard_regex_flagged_info() {
        let reg = default_registry();
        let mut p = Policy::new("t");
        p.set(
            "cat",
            PolicyEntry::allow(
                vec![ArgConstraint::regex(".*").unwrap()],
                "reading any file is acceptable for summarising",
            ),
        );
        let findings = verify_policy(&p, &reg);
        assert!(findings
            .iter()
            .any(|f| f.severity == Severity::Info && f.message.contains("wildcard")));
    }

    #[test]
    fn unconstrained_mutation_flagged_warning() {
        let reg = default_registry();
        let mut p = Policy::new("t");
        p.set("rm", PolicyEntry::allow_any("the agent may remove whatever it judges duplicated"));
        let findings = verify_policy(&p, &reg);
        assert!(findings
            .iter()
            .any(|f| f.severity == Severity::Warning && f.message.contains("mutating")));
    }

    #[test]
    fn rationale_echo_check() {
        let reg = default_registry();
        let mut p = Policy::new("t");
        // Constraint mentions /tmp but rationale talks about something else.
        p.set(
            "rm",
            PolicyEntry::allow(
                vec![ArgConstraint::Dsl(Predicate::Prefix("/tmp/".into()))],
                "because the moon is full tonight",
            ),
        );
        let findings = verify_policy(&p, &reg);
        assert!(findings.iter().any(|f| f.message.contains("does not mention")));
        // Now a rationale that echoes the constrained value.
        let mut p2 = Policy::new("t");
        p2.set(
            "rm",
            PolicyEntry::allow(
                vec![ArgConstraint::Dsl(Predicate::Prefix("/tmp/".into()))],
                "only remove temporary files under /tmp/ when organizing",
            ),
        );
        let findings2 = verify_policy(&p2, &reg);
        assert!(!findings2.iter().any(|f| f.message.contains("does not mention")));
    }
}
