//! The computer-use agent of the paper's proof-of-concept (§4), with
//! Conseca integration hooks.
//!
//! An [`Agent`] wires together the planner (a [`conseca_llm`] model), the
//! deterministic policy enforcer ([`conseca_core`]), and the executor
//! ([`conseca_shell`]) over the filesystem and mail substrates. The four
//! [`PolicyMode`]s are the four rows of the paper's Figure 3: no policy,
//! static permissive, static restrictive, and Conseca.
//!
//! # Examples
//!
//! ```
//! use conseca_agent::{Agent, AgentConfig, PolicyMode};
//! use conseca_core::PolicyGenerator;
//! use conseca_llm::{FnPlan, PlannerAction, ScriptedPlanner, TemplatePolicyModel};
//! use conseca_mail::MailSystem;
//! use conseca_shell::default_registry;
//! use conseca_vfs::{SharedVfs, Vfs};
//!
//! let mut fs = Vfs::new();
//! fs.add_user("alice", false).unwrap();
//! let vfs = SharedVfs::new(fs);
//! let mail = MailSystem::new(vfs.clone(), "work.com");
//! mail.ensure_mailbox("alice").unwrap();
//!
//! let registry = default_registry();
//! let generator = PolicyGenerator::new(TemplatePolicyModel::new(), &registry);
//! let mut agent = Agent::new(
//!     vfs, mail, "alice", registry, generator,
//!     AgentConfig::for_mode(PolicyMode::NoPolicy),
//! );
//!
//! let mut sent = false;
//! let planner = ScriptedPlanner::new(Box::new(FnPlan::new("demo", move |_state| {
//!     if !sent {
//!         sent = true;
//!         PlannerAction::Execute("ls /home/alice".into())
//!     } else {
//!         PlannerAction::Done { message: "listed".into() }
//!     }
//! })));
//! let report = agent.run_task("list my home directory", planner);
//! assert!(report.claimed_complete);
//! ```

pub mod agent;
pub mod context_ext;
pub mod report;

pub use agent::{Agent, AgentConfig, PersistenceError, PolicyMode};
pub use context_ext::{build_context, build_trusted_context, LOGICAL_DATE};
pub use report::{StopReason, TaskReport};
