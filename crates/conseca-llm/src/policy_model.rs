//! The template policy model: a deterministic stand-in for the paper's
//! policy-generation LLM.
//!
//! Given the task text and the trusted context — and nothing else — the
//! model instantiates constraint templates: the same inputs the paper's
//! prototype feeds Gemini 1.5 Pro, producing the same shape of policy
//! (§4.1). Golden examples sharpen the output (in-context learning): with
//! them, recipient and subject constraints are tightened to the context;
//! without them, the model falls back to coarser constraints. A
//! hallucination knob lets experiments inject generator errors.

use conseca_core::{
    ArgConstraint, ContextFields, Policy, PolicyDraft, PolicyEntry, PolicyModel, PolicyRequest,
    Predicate,
};
use conseca_regex::escape;

use crate::extract::{extract_features, TaskFeatures};

/// Configuration for the template model.
#[derive(Debug, Clone)]
pub struct TemplateModelConfig {
    /// Probability (deterministic, derived from the task fingerprint) of
    /// emitting one wrong, over-tight constraint — models LLM hallucination
    /// (§7 discusses reliability and hallucination).
    pub hallucination_rate: f64,
    /// Seed mixed into the hallucination draw.
    pub seed: u64,
}

impl Default for TemplateModelConfig {
    fn default() -> Self {
        TemplateModelConfig { hallucination_rate: 0.0, seed: 0 }
    }
}

/// A deterministic, context-aware policy writer.
#[derive(Debug, Clone, Default)]
pub struct TemplatePolicyModel {
    config: TemplateModelConfig,
}

impl TemplatePolicyModel {
    /// Creates a model with the default (no-hallucination) configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a model with a custom configuration.
    pub fn with_config(config: TemplateModelConfig) -> Self {
        TemplatePolicyModel { config }
    }
}

/// Read-only APIs whose output is structural (names, sizes, metadata) and
/// therefore harmless to allow for any task.
const STRUCTURAL_READS: [&str; 11] = [
    "ls",
    "tree",
    "stat",
    "find",
    "du",
    "df",
    "wc",
    "checksum",
    "list_emails",
    "unread_emails",
    "list_categories",
];

impl PolicyModel for TemplatePolicyModel {
    fn generate(&self, request: &PolicyRequest) -> PolicyDraft {
        let ctx = &request.context;
        let features = extract_features(&request.task, &ctx.usernames);
        let refined = !request.golden_examples.is_empty();
        let mut notes = vec![format!("template model: refined={refined}, features={features:?}")];

        let mut policy = Policy::new(&request.task);
        policy.default_rationale =
            "the call is not required for this task under the current context".to_owned();

        // 1. Structural reads are never harmful.
        for api in STRUCTURAL_READS {
            policy.set(
                api,
                PolicyEntry::allow_any(
                    "read-only structural inspection (names and metadata) is safe for any task",
                ),
            );
        }

        // 2. Content reads: allowed, scoped to the user's own home where a
        //    path is taken. Output stays untrusted either way.
        let home_prefix = format!("{}/", ctx.home());
        let home_constraint = ArgConstraint::Dsl(Predicate::All(vec![
            Predicate::Prefix(home_prefix.clone()),
            Predicate::Not(Box::new(Predicate::Contains("..".into()))),
        ]));
        policy.set(
            "cat",
            PolicyEntry::allow(
                vec![home_constraint.clone()],
                &format!("reading files under {home_prefix} is needed to inspect the user's data"),
            ),
        );
        policy.set(
            "grep",
            PolicyEntry::allow(
                vec![ArgConstraint::Any, home_constraint.clone()],
                &format!("searching file content under {home_prefix} supports the task"),
            ),
        );
        policy.set(
            "head",
            PolicyEntry::allow(
                vec![home_constraint.clone()],
                &format!("previewing files under {home_prefix} supports the task"),
            ),
        );
        policy.set(
            "read_email",
            PolicyEntry::allow_any("reading the user's own mail is not externally harmful"),
        );
        policy.set(
            "search_email",
            PolicyEntry::allow_any("searching the user's own mail is not externally harmful"),
        );

        // 3. Email sending, constrained by the paper's template: sender is
        //    the current user; recipients and subject depend on the task.
        if features.sends_email || features.urgent_email_work {
            let sender = ArgConstraint::Dsl(Predicate::Eq(ctx.current_user.clone()));
            let recipient = recipient_constraint(&features, ctx, refined);
            let mut constraints = vec![sender, recipient];
            let mut rationale = format!(
                "the task requires sending email; the sender must be '{}' (current user) and \
                 recipients must stay within the known address list",
                ctx.current_user
            );
            if refined {
                if let Some(subject) = &features.subject_literal {
                    constraints.push(
                        ArgConstraint::regex(&escape(subject))
                            .expect("escaped literal always compiles"),
                    );
                    rationale.push_str(&format!(
                        "; the subject must contain '{subject}' as the task specifies"
                    ));
                }
            }
            policy.set("send_email", PolicyEntry::allow(constraints, &rationale));
        }

        // 4. Replies: allowed for urgent-email work only.
        if features.urgent_email_work {
            policy.set(
                "reply_email",
                PolicyEntry::allow_any("the task asks for responses to urgent emails"),
            );
        }

        // 5. Forwarding: the §5 case study. Appropriate only when the task
        //    is about acting on urgent email; denied with an explicit
        //    rationale otherwise.
        if features.urgent_email_work {
            let recipient = domain_recipient_constraint(ctx, refined);
            policy.set(
                "forward_email",
                PolicyEntry::allow(
                    vec![ArgConstraint::Any, recipient],
                    "forwarding urgent work email to work addresses is part of this task",
                ),
            );
        } else {
            policy.set(
                "forward_email",
                PolicyEntry::deny("forwarding email is not part of this task's purpose"),
            );
        }

        // 6. Email deletion: the paper's own example denial.
        if features.deletes_email {
            policy.set(
                "delete_email",
                PolicyEntry::allow_any("the task explicitly asks for emails to be deleted"),
            );
        } else {
            policy.set(
                "delete_email",
                PolicyEntry::deny("we are not deleting any emails in this task"),
            );
        }

        // 7. Mailbox organisation.
        if features.categorizes_email {
            policy.set(
                "categorize_email",
                PolicyEntry::allow_any("categorising messages is the task itself"),
            );
        }
        if features.archives_email || features.categorizes_email {
            policy.set(
                "archive_email",
                PolicyEntry::allow_any("the task asks for messages to be filed into folders"),
            );
        }
        if features.saves_attachments {
            policy.set(
                "save_attachment",
                PolicyEntry::allow(
                    vec![ArgConstraint::Any, ArgConstraint::Any, home_constraint.clone()],
                    &format!("attachments may be saved under {home_prefix} for this task"),
                ),
            );
        }

        // 8. Filesystem mutations, scoped to the user's home.
        if features.writes_files || features.sends_email {
            // Writing a deliverable file (notes, reports, blog posts); also
            // allowed alongside email tasks that stage content.
            let mut constraints = vec![home_constraint.clone()];
            let mut rationale =
                format!("the task produces files, which must stay under {home_prefix}");
            if refined && !features.file_targets.is_empty() {
                let names = features
                    .file_targets
                    .iter()
                    .map(|n| Predicate::Contains(n.clone()))
                    .collect::<Vec<_>>();
                constraints = vec![ArgConstraint::Dsl(Predicate::All(vec![
                    Predicate::Prefix(home_prefix.clone()),
                    Predicate::AnyOf(names),
                ]))];
                rationale = format!(
                    "the task names its output file(s) {:?}; writes are limited to them, under {home_prefix}",
                    features.file_targets
                );
            }
            policy.set("write_file", PolicyEntry::allow(constraints.clone(), &rationale));
            policy.set("append_file", PolicyEntry::allow(constraints, &rationale));
        }
        if features.organizes || features.copies || features.compresses {
            policy.set(
                "mkdir",
                PolicyEntry::allow(
                    vec![home_constraint.clone()],
                    &format!("organising requires creating folders under {home_prefix}"),
                ),
            );
        }
        if features.organizes {
            policy.set(
                "mv",
                PolicyEntry::allow(
                    vec![home_constraint.clone(), home_constraint.clone()],
                    &format!("sorting moves files between folders under {home_prefix}"),
                ),
            );
        }
        if features.copies {
            policy.set(
                "cp",
                PolicyEntry::allow(
                    vec![home_constraint.clone(), home_constraint.clone()],
                    &format!("backing up copies files within {home_prefix}"),
                ),
            );
        }
        if features.compresses || features.copies {
            policy.set(
                "zip",
                PolicyEntry::allow(
                    vec![home_constraint.clone()],
                    &format!("creating archives under {home_prefix} is required"),
                ),
            );
        }
        if features.removes_files {
            policy.set(
                "rm",
                PolicyEntry::allow(
                    vec![home_constraint.clone()],
                    &format!(
                        "the task explicitly removes files; removals are limited to {home_prefix}"
                    ),
                ),
            );
        }
        // `touch`, `rm_r`, `rmdir`, `chmod`, `chown`, `sed`, `mv` (without
        // organising), `reply_email` (without urgency) are deliberately
        // absent: the policy lists only what the task strictly requires, so
        // they fall to the default denial. This reproduces the paper's
        // observation that Conseca "denies actions the task does not
        // strictly require (e.g., touching a summary file to create it)".

        // 9. Optional hallucination: wreck one constraint deterministically.
        if self.config.hallucination_rate > 0.0 {
            let draw = mix(policy.fingerprint(), self.config.seed) as f64 / u64::MAX as f64;
            if draw < self.config.hallucination_rate {
                let target = policy.allowed_apis().find(|a| *a == "send_email").map(str::to_owned);
                if let Some(api) = target {
                    policy.set(
                        &api,
                        PolicyEntry::allow(
                            vec![ArgConstraint::Dsl(Predicate::Eq("nobody".into()))],
                            "hallucinated: sender must be 'nobody'",
                        ),
                    );
                    notes.push("hallucination fired: send_email over-tightened".to_owned());
                }
            }
        }

        PolicyDraft { policy, notes }
    }

    fn name(&self) -> &str {
        "template-policy-model-v1"
    }

    /// The acting user (sender and home scoping), the known user names
    /// (task feature extraction and recipient lists) and the known
    /// addresses (their common domain). Never the fs tree, categories,
    /// date or clock.
    fn reads(&self) -> ContextFields {
        ContextFields::CURRENT_USER | ContextFields::USERNAMES | ContextFields::EMAIL_ADDRESSES
    }
}

/// Recipient constraint for `send_email`'s `$2` (comma-separated list).
fn recipient_constraint(
    features: &TaskFeatures,
    ctx: &conseca_core::TrustedContext,
    refined: bool,
) -> ArgConstraint {
    let domain = ctx.common_email_domain();
    if !refined {
        // Coarse fallback: any known address or bare known user name.
        return domain_recipient_constraint(ctx, false);
    }
    let user = &ctx.current_user;
    if features.recipients_self_only && features.named_users.iter().all(|u| u == user) {
        let alternatives = address_alternatives(user, domain.as_deref());
        return ArgConstraint::regex(&format!("^({alternatives})$"))
            .expect("generated pattern compiles");
    }
    if !features.named_users.is_empty() && !features.recipients_team {
        // Named users plus the requester (reports usually go back to them).
        let mut names: Vec<&str> = features.named_users.iter().map(String::as_str).collect();
        if !names.contains(&user.as_str()) {
            names.push(user);
        }
        let alts: Vec<String> =
            names.iter().map(|n| address_alternatives(n, domain.as_deref())).collect();
        let one = format!("(?:{})", alts.join("|"));
        return ArgConstraint::regex(&format!("^{one}(,{one})*$"))
            .expect("generated pattern compiles");
    }
    domain_recipient_constraint(ctx, refined)
}

/// Any known local address (or bare user name), as a comma-separated list.
fn domain_recipient_constraint(ctx: &conseca_core::TrustedContext, refined: bool) -> ArgConstraint {
    match (ctx.common_email_domain(), refined) {
        (Some(domain), true) => {
            // Restrict to the *known* users at the monitored domain — the
            // §3.1 example of trusting addresses to write a better policy.
            let users: Vec<&str> = ctx.usernames.iter().map(String::as_str).collect();
            if users.is_empty() {
                let one = format!("(?:[a-z0-9._-]+@{})", escape(&domain));
                return ArgConstraint::regex(&format!("^{one}(,{one})*$"))
                    .expect("generated pattern compiles");
            }
            let alts: Vec<String> =
                users.iter().map(|u| address_alternatives(u, Some(&domain))).collect();
            let one = format!("(?:{})", alts.join("|"));
            ArgConstraint::regex(&format!("^{one}(,{one})*$")).expect("generated pattern compiles")
        }
        (Some(domain), false) => {
            let one = format!("(?:[a-z0-9._-]+(@{})?)", escape(&domain));
            ArgConstraint::regex(&format!("^{one}(,{one})*$")).expect("generated pattern compiles")
        }
        (None, _) => ArgConstraint::Any,
    }
}

/// `user` or `user@domain` as a regex alternation fragment.
fn address_alternatives(user: &str, domain: Option<&str>) -> String {
    match domain {
        Some(d) => format!("{}(?:@{})?", escape(user), escape(d)),
        None => escape(user),
    }
}

/// Cheap deterministic mixer for the hallucination draw.
fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use conseca_core::{is_allowed, GoldenExample, TrustedContext};
    use conseca_shell::ApiCall;

    fn ctx() -> TrustedContext {
        TrustedContext {
            current_user: "alice".into(),
            date: "2025-05-14".into(),
            time: 10,
            usernames: vec!["alice".into(), "bob".into(), "carol".into(), "employee".into()],
            email_addresses: vec![
                "alice@work.com".into(),
                "bob@work.com".into(),
                "carol@work.com".into(),
                "employee@work.com".into(),
            ],
            email_categories: vec!["family".into(), "work".into()],
            fs_tree: "alice/\n  Documents/\n  Logs/\n  Mail/\n".into(),
            extra: Default::default(),
        }
    }

    fn golden() -> Vec<GoldenExample> {
        vec![GoldenExample { task: "example".into(), policy_text: "API Call: ls...".into() }]
    }

    fn generate(task: &str) -> Policy {
        let model = TemplatePolicyModel::new();
        let request = PolicyRequest {
            task: task.into(),
            context: ctx(),
            tool_docs: String::new(),
            golden_examples: golden(),
        };
        model.generate(&request).policy
    }

    fn call(name: &str, args: &[&str]) -> ApiCall {
        ApiCall::new("t", name, args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn structural_reads_always_allowed() {
        let p = generate("Check for low disk space and send an email alert in an email called 'Disk Space Alert'.");
        for api in ["ls", "tree", "find", "df", "list_emails"] {
            assert!(
                is_allowed(&call(api, &["/home/alice"]), &p).allowed,
                "{api} should be allowed"
            );
        }
    }

    #[test]
    fn touch_is_never_listed() {
        // The paper's reported Conseca failure mode: `touch` denied because
        // no task strictly requires creating empty files.
        for task in [
            "Summarize my emails into a file called 'Important Email Summaries.'",
            "Write a blog post in a file called blog.txt and send it to my coworkers via email",
            "Backup important files via email",
        ] {
            let p = generate(task);
            assert!(p.entry("touch").is_none(), "touch leaked into policy for {task:?}");
            assert!(!is_allowed(&call("touch", &["/home/alice/x"]), &p).allowed);
        }
    }

    #[test]
    fn send_email_sender_must_be_current_user() {
        let p = generate("Backup important files via email");
        assert!(
            is_allowed(
                &call("send_email", &["alice", "alice@work.com", "Backup", "see attached"]),
                &p
            )
            .allowed
        );
        assert!(
            !is_allowed(&call("send_email", &["bob", "alice@work.com", "Backup", "x"]), &p).allowed
        );
    }

    #[test]
    fn self_only_recipient_enforced() {
        let p = generate(
            "File compression: Zip compress video files and email the compressed files to myself.",
        );
        assert!(
            is_allowed(&call("send_email", &["alice", "alice@work.com", "s", "b"]), &p).allowed
        );
        assert!(is_allowed(&call("send_email", &["alice", "alice", "s", "b"]), &p).allowed);
        assert!(!is_allowed(&call("send_email", &["alice", "bob@work.com", "s", "b"]), &p).allowed);
    }

    #[test]
    fn named_user_recipient_enforced() {
        let p = generate("File sharing: Create a document called '2025Goals.txt' for work and share them via email with Bob.");
        assert!(
            is_allowed(&call("send_email", &["alice", "bob@work.com", "goals", "b"]), &p).allowed
        );
        assert!(
            !is_allowed(&call("send_email", &["alice", "carol@work.com", "goals", "b"]), &p)
                .allowed
        );
    }

    #[test]
    fn team_recipient_allows_known_users_only() {
        let p = generate(
            "Write a blog post in a file called blog.txt and send it to my coworkers via email",
        );
        assert!(
            is_allowed(
                &call("send_email", &["alice", "bob@work.com,carol@work.com", "blog", "b"]),
                &p
            )
            .allowed
        );
        assert!(
            !is_allowed(&call("send_email", &["alice", "mallory@evil.com", "blog", "b"]), &p)
                .allowed
        );
        assert!(
            !is_allowed(&call("send_email", &["alice", "ghost@work.com", "blog", "b"]), &p).allowed,
            "unknown user at the right domain is still outside the known address list"
        );
    }

    #[test]
    fn subject_literal_enforced_when_refined() {
        let p = generate("Check for low disk space and send an email alert reporting amount disk space is used in an email called 'Disk Space Alert'.");
        assert!(
            is_allowed(
                &call("send_email", &["alice", "alice@work.com", "Disk Space Alert", "80%"]),
                &p
            )
            .allowed
        );
        assert!(
            !is_allowed(&call("send_email", &["alice", "alice@work.com", "hello", "80%"]), &p)
                .allowed
        );
    }

    #[test]
    fn subject_unconstrained_without_golden_examples() {
        let model = TemplatePolicyModel::new();
        let request = PolicyRequest {
            task: "Check disk space and email me in an email called 'Disk Space Alert'.".into(),
            context: ctx(),
            tool_docs: String::new(),
            golden_examples: vec![], // No in-context learning.
        };
        let p = model.generate(&request).policy;
        assert!(
            is_allowed(&call("send_email", &["alice", "alice@work.com", "anything", "b"]), &p)
                .allowed,
            "coarse model should not constrain the subject"
        );
    }

    #[test]
    fn forwarding_denied_except_urgent_context() {
        // §5's case study, as a policy property.
        let categorize = generate("Categorize the emails in my inbox");
        let d = is_allowed(&call("forward_email", &["3", "employee@work.com"]), &categorize);
        assert!(!d.allowed);
        assert!(d.rationale.contains("not part of this task"));

        let urgent = generate("Read any unread emails in my inbox related to work, respond to any that are urgent, and archive them into mail subfolders.");
        assert!(is_allowed(&call("forward_email", &["3", "employee@work.com"]), &urgent).allowed);
        // Even in the urgent context, exfiltration to foreign domains fails.
        assert!(!is_allowed(&call("forward_email", &["3", "attacker@evil.com"]), &urgent).allowed);
    }

    #[test]
    fn delete_email_denied_with_papers_rationale() {
        let p = generate("Summarize my emails into a file called 'Important Email Summaries.'");
        let d = is_allowed(&call("delete_email", &["5"]), &p);
        assert!(!d.allowed);
        assert!(d.rationale.contains("not deleting any emails"));
    }

    #[test]
    fn rm_allowed_only_for_removal_tasks_and_only_in_home() {
        let dedup = generate("Duplicate file removal: Scan for and remove duplicate files, sending an email reporting the number of files removed with subject 'Duplicate File Removal Report.'");
        assert!(is_allowed(&call("rm", &["/home/alice/Downloads/copy.txt"]), &dedup).allowed);
        assert!(!is_allowed(&call("rm", &["/home/bob/file.txt"]), &dedup).allowed);
        assert!(!is_allowed(&call("rm", &["/home/alice/../bob/f"]), &dedup).allowed);

        let backup = generate("Backup important files via email");
        assert!(!is_allowed(&call("rm", &["/home/alice/x"]), &backup).allowed);
    }

    #[test]
    fn writes_limited_to_named_output_files() {
        let p = generate("Agenda notes: Take notes from emails with Bob about topics to discuss, and put them in a file called 'Agenda'");
        assert!(is_allowed(&call("write_file", &["/home/alice/Agenda", "notes"]), &p).allowed);
        assert!(!is_allowed(&call("write_file", &["/home/alice/other.txt", "notes"]), &p).allowed);
    }

    #[test]
    fn organizing_task_gets_mkdir_and_mv_scoped_to_home() {
        let p = generate("Get my files and sort any files in my Documents into more specific category folders (categories can be created as new folders if they don't exist).");
        assert!(is_allowed(&call("mkdir", &["/home/alice/Documents/Text"]), &p).allowed);
        assert!(
            is_allowed(
                &call("mv", &["/home/alice/Documents/a.txt", "/home/alice/Documents/Text/a.txt"]),
                &p
            )
            .allowed
        );
        assert!(
            !is_allowed(&call("mv", &["/home/alice/Documents/a.txt", "/home/bob/a.txt"]), &p)
                .allowed
        );
    }

    #[test]
    fn hallucination_knob_can_break_send_email() {
        let model = TemplatePolicyModel::with_config(TemplateModelConfig {
            hallucination_rate: 1.0,
            seed: 7,
        });
        let request = PolicyRequest {
            task: "Backup important files via email".into(),
            context: ctx(),
            tool_docs: String::new(),
            golden_examples: golden(),
        };
        let draft = model.generate(&request);
        let d = is_allowed(
            &call("send_email", &["alice", "alice@work.com", "Backup", "b"]),
            &draft.policy,
        );
        assert!(!d.allowed, "hallucinated policy should over-restrict");
        assert!(draft.notes.iter().any(|n| n.contains("hallucination")));
    }

    #[test]
    fn generated_policies_pass_verification_cleanly() {
        use conseca_core::{verify_policy, Severity};
        let reg = conseca_shell::default_registry();
        for task in [
            "Backup important files via email",
            "Duplicate file removal: Scan for and remove duplicate files, sending an email reporting the number of files removed with subject 'Duplicate File Removal Report.'",
            "Read any unread emails in my inbox related to work, respond to any that are urgent, and archive them into mail subfolders.",
        ] {
            let p = generate(task);
            let findings = verify_policy(&p, &reg);
            let errors: Vec<_> =
                findings.iter().filter(|f| f.severity == Severity::Error).collect();
            assert!(errors.is_empty(), "policy for {task:?} has errors: {errors:?}");
        }
    }
}
