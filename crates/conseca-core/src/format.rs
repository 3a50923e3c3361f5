//! The paper's human-readable policy block format, with a parser.
//!
//! Policies render exactly in the §4.1 shape — `API Call:` /
//! `Can Execute:` / `Args Constraint:` / rationale — so they can be shown
//! to users for approval, logged, and audited. The parser makes the format
//! round-trippable, which golden examples and the audit pipeline rely on.

use core::fmt;

use crate::constraint::{ArgConstraint, CmpOp, Predicate};
use crate::policy::{Policy, PolicyEntry};
use crate::trajectory::{OrderRule, PriorCondition, RateLimit, SequenceRule, WindowLimit};

/// Errors parsing the policy block format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError {
    /// 1-based line number where parsing failed.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for FormatError {}

/// Renders a policy in the paper's block format.
pub fn render_policy(policy: &Policy) -> String {
    let mut out = String::new();
    out.push_str(&format!("Policy for task: {}\n", policy.task));
    out.push_str(&format!("Default: {}\n", policy.default_rationale.replace('\n', " ")));
    for (api, entry) in &policy.entries {
        out.push('\n');
        out.push_str(&format!("API Call: {api}\n"));
        out.push_str(&format!("  Can Execute: {}\n", entry.can_execute));
        if !entry.arg_constraints.is_empty() {
            out.push_str("  Args Constraint:\n");
            for (i, c) in entry.arg_constraints.iter().enumerate() {
                out.push_str(&format!("    ${} {c}\n", i + 1));
            }
        }
        out.push_str(&format!("  Rationale: {}\n", entry.rationale.replace('\n', " ")));
    }
    let t = &policy.trajectory;
    if !t.is_empty() {
        out.push('\n');
        out.push_str("Trajectory:\n");
        if let Some(max) = t.max_total_actions {
            out.push_str(&format!("  Budget: {max}\n"));
        }
        for l in &t.rate_limits {
            out.push_str(&format!(
                "  Limit: {} max {} :: {}\n",
                l.api,
                l.max_calls,
                l.rationale.replace('\n', " ")
            ));
        }
        for w in &t.window_limits {
            out.push_str(&format!(
                "  Window: {} max {} per {} :: {}\n",
                w.api,
                w.max_calls,
                w.window,
                w.rationale.replace('\n', " ")
            ));
        }
        for o in &t.order_rules {
            out.push_str(&format!(
                "  Forbid: {} after {} :: {}\n",
                o.api,
                o.after,
                o.rationale.replace('\n', " ")
            ));
        }
        for r in &t.sequence_rules {
            let cond = match &r.requires {
                PriorCondition::ApiCalled(api) => format!("called({api:?})"),
                PriorCondition::ApiCalledWithArg { api, index, needle } => {
                    format!("arg({api:?}, {index}, {needle:?})")
                }
                PriorCondition::SameArgAsPrior { api, prior_index, this_index } => {
                    format!("same-arg({api:?}, {prior_index}, {this_index})")
                }
            };
            out.push_str(&format!(
                "  Require: {} when {cond} :: {}\n",
                r.api,
                r.rationale.replace('\n', " ")
            ));
        }
    }
    out
}

/// Splits a trajectory rule line into its rule body and rationale at the
/// first top-level ` :: ` (quote-aware, so quoted needles may contain the
/// separator; a rationale containing ` :: ` is re-joined).
fn split_rule_rationale(text: &str) -> (String, String) {
    let parts = split_top_level(text, " :: ");
    if parts.len() < 2 {
        return (text.trim().to_owned(), String::new());
    }
    (parts[0].trim().to_owned(), parts[1..].join(" :: ").trim().to_owned())
}

fn parse_prior_condition(text: &str) -> Result<PriorCondition, String> {
    let text = text.trim();
    if let Some(rest) = text.strip_prefix("called(") {
        let inner = rest.strip_suffix(')').ok_or_else(|| "unterminated called(...)".to_owned())?;
        return Ok(PriorCondition::ApiCalled(parse_quoted(inner)?));
    }
    if let Some(rest) = text.strip_prefix("arg(") {
        let inner = rest.strip_suffix(')').ok_or_else(|| "unterminated arg(...)".to_owned())?;
        let parts = split_top_level(inner, ", ");
        if parts.len() != 3 {
            return Err(format!("arg(...) takes 3 fields, got {}", parts.len()));
        }
        return Ok(PriorCondition::ApiCalledWithArg {
            api: parse_quoted(parts[0])?,
            index: parts[1].trim().parse().map_err(|_| format!("bad index {:?}", parts[1]))?,
            needle: parse_quoted(parts[2])?,
        });
    }
    if let Some(rest) = text.strip_prefix("same-arg(") {
        let inner =
            rest.strip_suffix(')').ok_or_else(|| "unterminated same-arg(...)".to_owned())?;
        let parts = split_top_level(inner, ", ");
        if parts.len() != 3 {
            return Err(format!("same-arg(...) takes 3 fields, got {}", parts.len()));
        }
        return Ok(PriorCondition::SameArgAsPrior {
            api: parse_quoted(parts[0])?,
            prior_index: parts[1]
                .trim()
                .parse()
                .map_err(|_| format!("bad index {:?}", parts[1]))?,
            this_index: parts[2].trim().parse().map_err(|_| format!("bad index {:?}", parts[2]))?,
        });
    }
    Err(format!("unrecognised prior condition {text:?}"))
}

/// Parses the block format back into a [`Policy`].
///
/// # Errors
///
/// Returns a [`FormatError`] citing the offending line.
pub fn parse_policy(text: &str) -> Result<Policy, FormatError> {
    let mut policy: Option<Policy> = None;
    let mut current_api: Option<String> = None;
    let mut current_entry = PolicyEntry::allow_any("");
    let mut in_constraints = false;

    let err = |line: usize, message: &str| FormatError { line, message: message.to_owned() };

    let flush = |policy: &mut Option<Policy>, api: &mut Option<String>, entry: &mut PolicyEntry| {
        if let (Some(p), Some(a)) = (policy.as_mut(), api.take()) {
            p.set(&a, std::mem::replace(entry, PolicyEntry::allow_any("")));
        }
    };

    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw_line.trim_end();
        if line.trim().is_empty() {
            continue;
        }
        if let Some(task) = line.strip_prefix("Policy for task: ") {
            policy = Some(Policy::new(task));
        } else if let Some(default) = line.strip_prefix("Default: ") {
            match policy.as_mut() {
                Some(p) if current_api.is_none() => p.default_rationale = default.to_owned(),
                _ => return Err(err(lineno, "Default line must follow the policy header")),
            }
        } else if let Some(api) = line.trim_start().strip_prefix("API Call: ") {
            if policy.is_none() {
                return Err(err(lineno, "API Call before policy header"));
            }
            flush(&mut policy, &mut current_api, &mut current_entry);
            current_api = Some(api.trim().to_owned());
            in_constraints = false;
        } else if let Some(v) = line.trim_start().strip_prefix("Can Execute: ") {
            current_entry.can_execute = match v.trim() {
                "true" => true,
                "false" => false,
                other => return Err(err(lineno, &format!("bad Can Execute value {other:?}"))),
            };
            in_constraints = false;
        } else if line.trim_start().starts_with("Args Constraint:") {
            in_constraints = true;
        } else if let Some(v) = line.trim_start().strip_prefix("Rationale: ") {
            current_entry.rationale = v.trim().to_owned();
            in_constraints = false;
        } else if line.trim_start() == "Trajectory:" {
            if policy.is_none() {
                return Err(err(lineno, "Trajectory before policy header"));
            }
            in_constraints = false;
        } else if let Some(v) = line.trim_start().strip_prefix("Budget: ") {
            let p = policy.as_mut().ok_or_else(|| err(lineno, "Budget before policy header"))?;
            p.trajectory.max_total_actions =
                Some(v.trim().parse().map_err(|_| err(lineno, &format!("bad budget {v:?}")))?);
        } else if let Some(v) = line.trim_start().strip_prefix("Limit: ") {
            let p = policy.as_mut().ok_or_else(|| err(lineno, "Limit before policy header"))?;
            let (rule, rationale) = split_rule_rationale(v);
            let parts: Vec<&str> = rule.split_whitespace().collect();
            match parts.as_slice() {
                [api, "max", n] => p.trajectory.rate_limits.push(RateLimit {
                    api: (*api).to_owned(),
                    max_calls: n
                        .parse()
                        .map_err(|_| err(lineno, &format!("bad limit count {n:?}")))?,
                    rationale,
                }),
                _ => return Err(err(lineno, "Limit line must be '<api> max <n> :: <rationale>'")),
            }
        } else if let Some(v) = line.trim_start().strip_prefix("Window: ") {
            let p = policy.as_mut().ok_or_else(|| err(lineno, "Window before policy header"))?;
            let (rule, rationale) = split_rule_rationale(v);
            let parts: Vec<&str> = rule.split_whitespace().collect();
            match parts.as_slice() {
                [api, "max", n, "per", win] => p.trajectory.window_limits.push(WindowLimit {
                    api: (*api).to_owned(),
                    max_calls: n
                        .parse()
                        .map_err(|_| err(lineno, &format!("bad window count {n:?}")))?,
                    window: win
                        .parse()
                        .map_err(|_| err(lineno, &format!("bad window size {win:?}")))?,
                    rationale,
                }),
                _ => {
                    return Err(err(
                        lineno,
                        "Window line must be '<api> max <n> per <steps> :: <rationale>'",
                    ))
                }
            }
        } else if let Some(v) = line.trim_start().strip_prefix("Forbid: ") {
            let p = policy.as_mut().ok_or_else(|| err(lineno, "Forbid before policy header"))?;
            let (rule, rationale) = split_rule_rationale(v);
            let parts: Vec<&str> = rule.split_whitespace().collect();
            match parts.as_slice() {
                [api, "after", trigger] => p.trajectory.order_rules.push(OrderRule {
                    api: (*api).to_owned(),
                    after: (*trigger).to_owned(),
                    rationale,
                }),
                _ => {
                    return Err(err(
                        lineno,
                        "Forbid line must be '<api> after <api> :: <rationale>'",
                    ))
                }
            }
        } else if let Some(v) = line.trim_start().strip_prefix("Require: ") {
            let p = policy.as_mut().ok_or_else(|| err(lineno, "Require before policy header"))?;
            let (rule, rationale) = split_rule_rationale(v);
            let (api, cond) = rule.split_once(" when ").ok_or_else(|| {
                err(lineno, "Require line must be '<api> when <condition> :: <rationale>'")
            })?;
            p.trajectory.sequence_rules.push(SequenceRule {
                api: api.trim().to_owned(),
                requires: parse_prior_condition(cond).map_err(|m| err(lineno, &m))?,
                rationale,
            });
        } else if in_constraints && line.trim_start().starts_with('$') {
            let body = line.trim_start();
            let (idx_part, rest) =
                body.split_once(' ').ok_or_else(|| err(lineno, "constraint line missing body"))?;
            let position: usize = idx_part
                .strip_prefix('$')
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err(lineno, "bad constraint position"))?;
            if position == 0 {
                return Err(err(lineno, "constraint positions are 1-based"));
            }
            let constraint = parse_constraint(rest.trim()).map_err(|m| err(lineno, &m))?;
            // Pad with Any so positions line up.
            while current_entry.arg_constraints.len() < position - 1 {
                current_entry.arg_constraints.push(ArgConstraint::Any);
            }
            if current_entry.arg_constraints.len() == position - 1 {
                current_entry.arg_constraints.push(constraint);
            } else {
                current_entry.arg_constraints[position - 1] = constraint;
            }
        } else {
            return Err(err(lineno, &format!("unrecognised line {line:?}")));
        }
    }
    flush(&mut policy, &mut current_api, &mut current_entry);
    policy.ok_or_else(|| err(1, "missing 'Policy for task:' header"))
}

/// Parses a rendered [`ArgConstraint`].
fn parse_constraint(text: &str) -> Result<ArgConstraint, String> {
    if text == "any" {
        return Ok(ArgConstraint::Any);
    }
    if let Some(rest) = text.strip_prefix("~ /") {
        let pattern = rest
            .strip_suffix('/')
            .ok_or_else(|| "regex constraint missing closing '/'".to_owned())?;
        return ArgConstraint::regex(pattern).map_err(|e| e.to_string());
    }
    parse_predicate(text).map(ArgConstraint::Dsl)
}

/// Parses a rendered [`Predicate`] (the DSL's `Display` output).
fn parse_predicate(text: &str) -> Result<Predicate, String> {
    let text = text.trim();
    if text == "any" {
        return Ok(Predicate::True);
    }
    if let Some(rest) = text.strip_prefix("not (") {
        let inner = rest.strip_suffix(')').ok_or_else(|| "unterminated not(...)".to_owned())?;
        return Ok(Predicate::Not(Box::new(parse_predicate(inner)?)));
    }
    if let Some(rest) = text.strip_prefix("all(") {
        let inner = rest.strip_suffix(')').ok_or_else(|| "unterminated all(...)".to_owned())?;
        let parts = split_top_level(inner, " and ");
        let ps: Result<Vec<_>, _> = parts.iter().map(|p| parse_predicate(p)).collect();
        return Ok(Predicate::All(ps?));
    }
    if let Some(rest) = text.strip_prefix("any-of(") {
        let inner = rest.strip_suffix(')').ok_or_else(|| "unterminated any-of(...)".to_owned())?;
        let parts = split_top_level(inner, " or ");
        let ps: Result<Vec<_>, _> = parts.iter().map(|p| parse_predicate(p)).collect();
        return Ok(Predicate::AnyOf(ps?));
    }
    if let Some(rest) = text.strip_prefix("== ") {
        return Ok(Predicate::Eq(parse_quoted(rest)?));
    }
    if let Some(rest) = text.strip_prefix("prefix ") {
        return Ok(Predicate::Prefix(parse_quoted(rest)?));
    }
    if let Some(rest) = text.strip_prefix("suffix ") {
        return Ok(Predicate::Suffix(parse_quoted(rest)?));
    }
    if let Some(rest) = text.strip_prefix("contains ") {
        return Ok(Predicate::Contains(parse_quoted(rest)?));
    }
    if let Some(rest) = text.strip_prefix("one-of [") {
        let inner = rest.strip_suffix(']').ok_or_else(|| "unterminated one-of".to_owned())?;
        if inner.trim().is_empty() {
            return Ok(Predicate::OneOf(Vec::new()));
        }
        let mut options = Vec::new();
        for part in split_top_level(inner, ", ") {
            options.push(parse_quoted(part.trim())?);
        }
        return Ok(Predicate::OneOf(options));
    }
    if let Some(rest) = text.strip_prefix("number ") {
        let (op_text, value_text) =
            rest.split_once(' ').ok_or_else(|| "number predicate missing value".to_owned())?;
        let op = match op_text {
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            "==" => CmpOp::Eq,
            ">=" => CmpOp::Ge,
            ">" => CmpOp::Gt,
            other => return Err(format!("unknown comparison {other:?}")),
        };
        let value: i64 =
            value_text.trim().parse().map_err(|_| format!("bad number {value_text:?}"))?;
        return Ok(Predicate::Num(op, value));
    }
    Err(format!("unrecognised predicate {text:?}"))
}

/// Splits on `sep` at paren/quote nesting depth zero.
fn split_top_level<'a>(text: &'a str, sep: &str) -> Vec<&'a str> {
    let bytes = text.as_bytes();
    let sep_bytes = sep.as_bytes();
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut in_quotes = false;
    let mut start = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'"' if i == 0 || bytes[i - 1] != b'\\' => in_quotes = !in_quotes,
            b'(' | b'[' if !in_quotes => depth += 1,
            b')' | b']' if !in_quotes => depth -= 1,
            _ => {}
        }
        if !in_quotes && depth == 0 && bytes[i..].starts_with(sep_bytes) {
            parts.push(&text[start..i]);
            i += sep_bytes.len();
            start = i;
            continue;
        }
        i += 1;
    }
    parts.push(&text[start..]);
    parts
}

/// Parses a Rust-debug-style quoted string (the DSL `Display` uses `{:?}`).
fn parse_quoted(text: &str) -> Result<String, String> {
    let text = text.trim();
    let inner = text
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .ok_or_else(|| format!("expected quoted string, got {text:?}"))?;
    let mut out = String::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('\'') => out.push('\''),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => return Err("dangling escape in quoted string".to_owned()),
            }
        } else {
            out.push(c);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_example_policy() -> Policy {
        // §4.1's example: respond to urgent work emails.
        let mut p =
            Policy::new("Get unread emails related to work and respond to any that are urgent");
        p.set(
            "send_email",
            PolicyEntry::allow(
                vec![
                    ArgConstraint::regex("alice").unwrap(),
                    ArgConstraint::regex(r"^.*@work\.com$").unwrap(),
                    ArgConstraint::regex(".*urgent.*").unwrap(),
                ],
                "We need to send urgent responses to emails. The sender must be 'alice'.",
            ),
        );
        p.set("delete_email", PolicyEntry::deny("We are not deleting any emails in this task."));
        p
    }

    #[test]
    fn render_matches_papers_shape() {
        let text = render_policy(&paper_example_policy());
        assert!(text.contains("API Call: send_email"));
        assert!(text.contains("Can Execute: true"));
        assert!(text.contains("$2 ~ /^.*@work\\.com$/"));
        assert!(text.contains("API Call: delete_email"));
        assert!(text.contains("Can Execute: false"));
        assert!(text.contains("Rationale: We are not deleting"));
    }

    #[test]
    fn round_trip_regex_policy() {
        let p = paper_example_policy();
        let parsed = parse_policy(&render_policy(&p)).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn round_trip_dsl_policy() {
        let mut p = Policy::new("organise files");
        p.set(
            "mv",
            PolicyEntry::allow(
                vec![
                    ArgConstraint::Dsl(Predicate::Prefix("/home/alice/".into())),
                    ArgConstraint::Dsl(Predicate::All(vec![
                        Predicate::Prefix("/home/alice/".into()),
                        Predicate::Not(Box::new(Predicate::Contains("..".into()))),
                    ])),
                ],
                "moves must stay inside alice's home",
            ),
        );
        p.set(
            "head",
            PolicyEntry::allow(
                vec![ArgConstraint::Any, ArgConstraint::Dsl(Predicate::Num(CmpOp::Le, 100))],
                "bounded preview only",
            ),
        );
        p.set(
            "archive_email",
            PolicyEntry::allow(
                vec![
                    ArgConstraint::Any,
                    ArgConstraint::Dsl(Predicate::OneOf(vec!["Archive".into(), "work".into()])),
                ],
                "archive into known folders",
            ),
        );
        let parsed = parse_policy(&render_policy(&p)).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn round_trip_trajectory_policy() {
        let mut p = paper_example_policy();
        p.set_trajectory(
            crate::trajectory::TrajectoryPolicy::new()
                .budget(12)
                .limit("send_email", 3, "a few notifications at most")
                .limit_in_window("send_email", 1, 5, "no bursts")
                .forbid_after("send_email", "read_secret", "no exfiltration after secrets")
                .require(
                    "reply_email",
                    PriorCondition::ApiCalled("read_email".into()),
                    "read before replying",
                )
                .require(
                    "forward_email",
                    PriorCondition::ApiCalledWithArg {
                        api: "search_email".into(),
                        index: 0,
                        needle: "urgent :: notice".into(),
                    },
                    "the needle may contain the separator",
                )
                .require(
                    "reply_email",
                    PriorCondition::SameArgAsPrior {
                        api: "read_email".into(),
                        prior_index: 0,
                        this_index: 0,
                    },
                    "reply only to what was read",
                ),
        );
        let text = render_policy(&p);
        assert!(text.contains("Trajectory:"));
        assert!(text.contains("Budget: 12"));
        assert!(text.contains("Window: send_email max 1 per 5"));
        assert!(text.contains("Forbid: send_email after read_secret"));
        let parsed = parse_policy(&text).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn rationale_containing_separator_survives() {
        let mut p = Policy::new("t");
        p.set_trajectory(crate::trajectory::TrajectoryPolicy::new().limit(
            "ls",
            2,
            "weird :: rationale",
        ));
        let parsed = parse_policy(&render_policy(&p)).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn malformed_trajectory_lines_cite_their_line() {
        let text = "Policy for task: t\n\nTrajectory:\n  Limit: send_email maximum 3 :: r\n";
        let e = parse_policy(text).unwrap_err();
        assert_eq!(e.line, 4);
        let text = "Policy for task: t\n\nTrajectory:\n  Require: x whenever called(\"y\") :: r\n";
        assert!(parse_policy(text).is_err());
    }

    #[test]
    fn round_trip_strings_with_specials() {
        let mut p = Policy::new("tricky");
        p.set(
            "write_file",
            PolicyEntry::allow(
                vec![ArgConstraint::Dsl(Predicate::Contains("has \"quotes\" and \\slash".into()))],
                "tricky strings survive",
            ),
        );
        let parsed = parse_policy(&render_policy(&p)).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn constraint_positions_pad_with_any() {
        let text = "Policy for task: t\n\nAPI Call: send_email\n  Can Execute: true\n  Args Constraint:\n    $3 ~ /urgent/\n  Rationale: only the subject is constrained\n";
        let p = parse_policy(text).unwrap();
        let entry = p.entry("send_email").unwrap();
        assert_eq!(entry.arg_constraints.len(), 3);
        assert_eq!(entry.arg_constraints[0], ArgConstraint::Any);
        assert_eq!(entry.arg_constraints[1], ArgConstraint::Any);
        assert!(entry.arg_constraints[2].check("very urgent"));
    }

    #[test]
    fn parse_errors_cite_lines() {
        let text = "Policy for task: t\nGARBAGE LINE\n";
        let err = parse_policy(text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("GARBAGE"));
    }

    #[test]
    fn missing_header_is_an_error() {
        assert!(parse_policy("API Call: ls\n").is_err());
        assert!(parse_policy("").is_err());
    }

    #[test]
    fn bad_regex_in_text_is_an_error() {
        let text = "Policy for task: t\n\nAPI Call: ls\n  Can Execute: true\n  Args Constraint:\n    $1 ~ /(unclosed/\n  Rationale: r\n";
        assert!(parse_policy(text).is_err());
    }

    #[test]
    fn split_top_level_respects_nesting() {
        assert_eq!(split_top_level("a and b", " and "), vec!["a", "b"]);
        assert_eq!(split_top_level("all(x and y) and b", " and "), vec!["all(x and y)", "b"]);
        assert_eq!(
            split_top_level("contains \" and \" and b", " and "),
            vec!["contains \" and \"", "b"]
        );
    }

    #[test]
    fn parse_predicate_rejects_nonsense() {
        assert!(parse_predicate("frobnicate x").is_err());
        assert!(parse_predicate("number ?? 3").is_err());
        assert!(parse_predicate("prefix unquoted").is_err());
    }
}
