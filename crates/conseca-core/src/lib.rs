//! **Conseca** — contextual agent security, as a library.
//!
//! This crate implements the primary contribution of *"Contextual Agent
//! Security: A Policy for Every Purpose"* (HotOS '25): a framework that
//! generates **just-in-time, contextual, human-verifiable security
//! policies** for agents and enforces them **deterministically**, making
//! enforcement impervious to prompt injection.
//!
//! The paper's prototype API is two functions (§4.1):
//!
//! - `set_policy(task, trusted_ctxt) -> Policy` — [`PolicyGenerator::set_policy`]
//! - `is_allowed(cmd, policy) -> (bool, rationale)` — [`is_allowed`]
//!
//! plus the machinery around them:
//!
//! | Paper concept | Module |
//! |---|---|
//! | Policies: can-execute / arg constraints / rationale (§3.2, §4.1) | [`policy`], [`constraint`] |
//! | Deterministic enforcement (§3.3) | [`enforce`] |
//! | Composable enforcement stack: layers, sessions, sinks | [`pipeline`] |
//! | Trusted context isolation (§3.1) | [`context`] |
//! | Policy generation + in-context learning (§3.2) | [`generate`] |
//! | Policy caching (§7) | [`cache`] |
//! | Binary codec shared by wire serving + snapshots (§7) | [`codec`] |
//! | Human-readable policy format + parser (§4.1) | [`mod@format`] |
//! | Logging and auditing (§3.2) | [`audit`], [`jsonout`] |
//! | Automated rationale/constraint verification (§7) | [`verify`] |
//! | Trajectory policies: rate limits, sequencing (§7) | [`trajectory`] |
//! | User override confirmation (§7) | [`confirm`] |
//!
//! # Examples
//!
//! ```
//! use conseca_core::{is_allowed, ArgConstraint, Policy, PolicyEntry};
//! use conseca_shell::ApiCall;
//!
//! // A policy like the paper's §4.1 example, for the task
//! // "get unread work emails and respond to any that are urgent".
//! let mut policy = Policy::new("respond to urgent work emails");
//! policy.set("send_email", PolicyEntry::allow(
//!     vec![
//!         ArgConstraint::regex("alice").unwrap(),            // $1 sender
//!         ArgConstraint::regex(r"^.*@work\.com$").unwrap(),  // $2 recipient
//!         ArgConstraint::regex(".*urgent.*").unwrap(),       // $3 subject
//!     ],
//!     "urgent responses go from alice to work.com addresses only",
//! ));
//! policy.set("delete_email", PolicyEntry::deny(
//!     "we are not deleting any emails in this task",
//! ));
//!
//! let proposed = ApiCall::new("email", "send_email", vec![
//!     "alice".into(), "bob@work.com".into(), "urgent: build".into(), "done".into(),
//! ]);
//! let decision = is_allowed(&proposed, &policy);
//! assert!(decision.allowed);
//!
//! // An injected exfiltration attempt is denied deterministically.
//! let injected = ApiCall::new("email", "delete_email", vec!["4".into()]);
//! assert!(!is_allowed(&injected, &policy).allowed);
//! ```

pub mod audit;
pub mod cache;
pub mod codec;
pub mod confirm;
pub mod constraint;
pub mod context;
pub mod enforce;
pub mod format;
pub mod generate;
pub mod jsonout;
pub mod pipeline;
pub mod policy;
pub mod trajectory;
pub mod verify;

pub use audit::{AuditEvent, AuditLog, AuditRecord, AuditSink, CountingSink};
pub use cache::{CacheKey, PolicyCache};
pub use confirm::{
    AlwaysConfirm, ConfirmDecision, ConfirmationProvider, NeverConfirm, ScriptedConfirm,
};
pub use constraint::{ArgConstraint, CmpOp, Predicate};
pub use context::{ContextFields, TrustedContext};
pub use enforce::{is_allowed, Decision, Violation};
pub use format::{parse_policy, render_policy, FormatError};
pub use generate::{
    GenerationStats, GoldenExample, PolicyDraft, PolicyGenerator, PolicyModel, PolicyRequest,
};
pub use jsonout::Json;
pub use pipeline::{
    CheckLayer, ConfirmLayer, EnforcementSession, LayerOutcome, PipelineBuilder, PolicyLayer,
    SessionStats, TrajectoryLayer, Verdict,
};
pub use policy::{fnv1a, Policy, PolicyEntry};
pub use trajectory::{
    OrderRule, PriorCondition, RateLimit, SequenceRule, TrajectoryDecision, TrajectoryEnforcer,
    TrajectoryPolicy, WindowLimit,
};
pub use verify::{verify_policy, Finding, Severity};
