//! Policy generation: the `set_policy(task, trusted_ctxt)` half of the
//! paper's two-function API (§4.1).
//!
//! The generator wraps a [`PolicyModel`] — any context-aware policy writer;
//! the paper uses an LLM, this repository provides a deterministic
//! simulation in `conseca-llm` — together with golden examples for
//! in-context learning, the tool documentation, and an optional
//! [`PolicyCache`] (§7's caching suggestion).

use std::borrow::Cow;
use std::sync::Arc;

use conseca_shell::ToolRegistry;

use crate::cache::PolicyCache;
use crate::context::{ContextFields, TrustedContext};
use crate::policy::Policy;

/// An example (task, policy) pair included in the generation prompt.
///
/// "We leverage in-context learning — prompting the LLM with a 'golden' set
/// of example policies to demonstrate what the model should output" (§3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenExample {
    /// The example task text.
    pub task: String,
    /// The example policy, rendered in the paper's block format.
    pub policy_text: String,
}

/// Everything a policy model receives. Note what is *absent*: tool outputs,
/// file contents, message bodies — the untrusted context never reaches the
/// model.
#[derive(Debug, Clone)]
pub struct PolicyRequest {
    /// The user's task, verbatim (direct user input is trusted, §3.4).
    pub task: String,
    /// Developer-designated trusted context.
    pub context: TrustedContext,
    /// Rendered tool API documentation (static, trusted).
    pub tool_docs: String,
    /// Golden examples for in-context learning.
    pub golden_examples: Vec<GoldenExample>,
}

/// What a policy model returns.
#[derive(Debug, Clone)]
pub struct PolicyDraft {
    /// The generated policy.
    pub policy: Policy,
    /// Model self-reported notes (e.g. which template/intent fired);
    /// surfaced to auditors alongside the policy.
    pub notes: Vec<String>,
}

/// A context-aware policy writer.
///
/// "In theory, a contextual security system can use any context-aware
/// policy writer that can produce policies for every context" (§3.2).
pub trait PolicyModel {
    /// Generates a policy for the request.
    fn generate(&self, request: &PolicyRequest) -> PolicyDraft;

    /// A short name for audit logs.
    fn name(&self) -> &str {
        "policy-model"
    }

    /// The trusted-context fields this model reads. [`PolicyGenerator`]
    /// hands the model only these (every other field is reset to its
    /// default), and callers key, send and watch for drift only this
    /// projection. The default is the whole context.
    fn reads(&self) -> ContextFields {
        ContextFields::ALL
    }
}

/// Statistics about one `set_policy` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerationStats {
    /// Whether the policy was served from the cache.
    pub cache_hit: bool,
    /// Approximate prompt size, in whitespace-delimited tokens.
    pub prompt_tokens: usize,
    /// Approximate rendered-policy size, in whitespace-delimited tokens.
    pub output_tokens: usize,
}

/// The policy generator: model + golden examples + docs + optional cache.
pub struct PolicyGenerator<M: PolicyModel> {
    model: M,
    tool_docs: String,
    golden: Vec<GoldenExample>,
    cache: Option<PolicyCache>,
}

impl<M: PolicyModel> PolicyGenerator<M> {
    /// Creates a generator over `model`, documenting `registry`'s tools.
    pub fn new(model: M, registry: &ToolRegistry) -> Self {
        PolicyGenerator {
            model,
            tool_docs: registry.documentation(),
            golden: Vec::new(),
            cache: None,
        }
    }

    /// Adds golden examples to the generation prompt.
    pub fn with_golden_examples(mut self, examples: Vec<GoldenExample>) -> Self {
        self.golden = examples;
        self
    }

    /// Enables policy caching with the given capacity (§7).
    pub fn with_cache(mut self, capacity: usize) -> Self {
        self.cache = Some(PolicyCache::new(capacity));
        self
    }

    /// Cache statistics, if caching is enabled.
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        self.cache.as_ref().map(|c| (c.hits(), c.misses()))
    }

    /// The underlying model's name.
    pub fn model_name(&self) -> &str {
        self.model.name()
    }

    /// The context fields the underlying model reads
    /// ([`PolicyModel::reads`]).
    pub fn reads(&self) -> ContextFields {
        self.model.reads()
    }

    /// A fingerprint of everything besides (task, context) that shapes
    /// this generator's output: model name, tool documentation, the
    /// golden example set, and the model's field declaration when it is
    /// narrower than the whole context. Cache layers that may be shared
    /// between differently-configured generators (the engine's policy
    /// store) fold this into their keys so two generators never serve
    /// each other's policies.
    pub fn config_fingerprint(&self) -> u64 {
        let mut text = String::with_capacity(self.tool_docs.len() + 64);
        text.push_str(self.model.name());
        text.push('\u{1f}');
        text.push_str(&self.tool_docs);
        for example in &self.golden {
            text.push('\u{1f}');
            text.push_str(&example.task);
            text.push('\u{1f}');
            text.push_str(&example.policy_text);
        }
        let reads = self.model.reads();
        if reads != ContextFields::ALL {
            text.push('\u{1e}');
            text.push_str(&format!("{reads:?}"));
        }
        crate::policy::fnv1a(text.as_bytes())
    }

    /// Generates (or retrieves) the policy for `task` under `context`.
    ///
    /// This is the paper's `set_policy(task, trusted_ctxt) -> Policy`. The
    /// policy is returned as a shared handle: cache hits are a refcount
    /// bump, and the same `Arc` is what the cache keeps. `context` is
    /// first projected onto the model's [`reads`](PolicyModel::reads):
    /// the cache key, the request and the prompt all see the projection,
    /// so a model never sees a field it did not declare.
    pub fn set_policy(
        &mut self,
        task: &str,
        context: &TrustedContext,
    ) -> (Arc<Policy>, GenerationStats) {
        let reads = self.model.reads();
        // The whole context needs no copy until a miss builds the request.
        let context = if reads == ContextFields::ALL {
            Cow::Borrowed(context)
        } else {
            Cow::Owned(context.project(reads))
        };
        let key = PolicyCache::key(task, &context);
        if let Some(cache) = self.cache.as_mut() {
            if let Some(policy) = cache.get(key) {
                return (
                    policy,
                    GenerationStats { cache_hit: true, prompt_tokens: 0, output_tokens: 0 },
                );
            }
        }
        let request = PolicyRequest {
            task: task.to_owned(),
            context: context.into_owned(),
            tool_docs: self.tool_docs.clone(),
            golden_examples: self.golden.clone(),
        };
        let prompt_tokens = approximate_tokens(&render_prompt(&request));
        let draft = self.model.generate(&request);
        let output_tokens = approximate_tokens(&crate::format::render_policy(&draft.policy));
        let policy = Arc::new(draft.policy);
        if let Some(cache) = self.cache.as_mut() {
            cache.put(key, Arc::clone(&policy));
        }
        (policy, GenerationStats { cache_hit: false, prompt_tokens, output_tokens })
    }
}

/// Assembles the full generation prompt — mirroring the code path the
/// paper's prototype takes before calling the LLM. Deterministic models
/// ignore most of it, but the prompt is still built (and measured) so
/// latency/caching experiments see realistic sizes.
pub fn render_prompt(request: &PolicyRequest) -> String {
    let mut out = String::new();
    out.push_str(
        "You are a security policy generator. Given a task and trusted \
         context, produce a policy constraining every tool API call.\n\n",
    );
    out.push_str("# Tool API documentation\n");
    out.push_str(&request.tool_docs);
    out.push_str("\n# Golden example policies\n");
    for ex in &request.golden_examples {
        out.push_str(&format!("## Task: {}\n{}\n", ex.task, ex.policy_text));
    }
    out.push_str("\n# Trusted context\n");
    out.push_str(&request.context.render());
    out.push_str("\n# Task\n");
    out.push_str(&request.task);
    out.push('\n');
    out
}

/// Whitespace-token count used for size accounting.
fn approximate_tokens(text: &str) -> usize {
    text.split_whitespace().count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyEntry;
    use conseca_shell::default_registry;

    /// A trivial model for exercising the generator plumbing.
    struct FixedModel;

    impl PolicyModel for FixedModel {
        fn generate(&self, request: &PolicyRequest) -> PolicyDraft {
            let mut policy = Policy::new(&request.task);
            policy.set("ls", PolicyEntry::allow_any("listing is always safe here"));
            PolicyDraft { policy, notes: vec!["fixed".into()] }
        }

        fn name(&self) -> &str {
            "fixed"
        }
    }

    #[test]
    fn set_policy_invokes_model_and_counts_tokens() {
        let reg = default_registry();
        let mut generator = PolicyGenerator::new(FixedModel, &reg);
        let ctx = TrustedContext::for_user("alice");
        let (policy, stats) = generator.set_policy("list my files", &ctx);
        assert_eq!(policy.task, "list my files");
        assert!(policy.entry("ls").is_some());
        assert!(!stats.cache_hit);
        assert!(stats.prompt_tokens > 100, "prompt should embed tool docs");
        assert!(stats.output_tokens > 0);
    }

    #[test]
    fn cache_returns_same_policy_without_model_call() {
        let reg = default_registry();
        let mut generator = PolicyGenerator::new(FixedModel, &reg).with_cache(8);
        let ctx = TrustedContext::for_user("alice");
        let (p1, s1) = generator.set_policy("task", &ctx);
        let (p2, s2) = generator.set_policy("task", &ctx);
        assert!(!s1.cache_hit);
        assert!(s2.cache_hit);
        assert_eq!(p1.fingerprint(), p2.fingerprint());
        assert_eq!(generator.cache_stats(), Some((1, 1)));
    }

    #[test]
    fn context_change_misses_cache() {
        let reg = default_registry();
        let mut generator = PolicyGenerator::new(FixedModel, &reg).with_cache(8);
        let ctx1 = TrustedContext::for_user("alice");
        let mut ctx2 = TrustedContext::for_user("alice");
        ctx2.email_addresses.push("new@work.com".into());
        generator.set_policy("task", &ctx1);
        let (_, stats) = generator.set_policy("task", &ctx2);
        assert!(!stats.cache_hit, "different context must regenerate");
    }

    /// A [`FixedModel`] that records the context it was handed and reads
    /// only the acting user.
    struct UserOnlyModel(std::cell::RefCell<Option<TrustedContext>>);

    impl PolicyModel for UserOnlyModel {
        fn generate(&self, request: &PolicyRequest) -> PolicyDraft {
            *self.0.borrow_mut() = Some(request.context.clone());
            FixedModel.generate(request)
        }

        fn name(&self) -> &str {
            "fixed"
        }

        fn reads(&self) -> ContextFields {
            ContextFields::CURRENT_USER
        }
    }

    #[test]
    fn set_policy_hands_the_model_only_its_declared_fields() {
        let reg = default_registry();
        let mut generator =
            PolicyGenerator::new(UserOnlyModel(Default::default()), &reg).with_cache(8);
        let mut ctx = TrustedContext::for_user("alice");
        ctx.fs_tree = "alice/\n  secret-project/\n".into();
        ctx.time = 7;
        let (_, first) = generator.set_policy("task", &ctx);
        let seen = generator.model.0.borrow_mut().take().expect("the model ran");
        assert_eq!(seen, TrustedContext::for_user("alice"), "undeclared fields are reset");
        // Drift outside the declaration keys the same cache entry.
        ctx.fs_tree.push_str("  more/\n");
        ctx.time += 1;
        let (_, second) = generator.set_policy("task", &ctx);
        assert!(!first.cache_hit && second.cache_hit);
        // A narrower declaration is a different configuration.
        let whole = PolicyGenerator::new(FixedModel, &reg);
        assert_ne!(generator.config_fingerprint(), whole.config_fingerprint());
    }

    #[test]
    fn prompt_contains_all_sections() {
        let reg = default_registry();
        let request = PolicyRequest {
            task: "backup my files".into(),
            context: TrustedContext::for_user("alice"),
            tool_docs: reg.documentation(),
            golden_examples: vec![GoldenExample {
                task: "example task".into(),
                policy_text: "API Call: ls\n...".into(),
            }],
        };
        let prompt = render_prompt(&request);
        assert!(prompt.contains("# Tool API documentation"));
        assert!(prompt.contains("send_email"));
        assert!(prompt.contains("example task"));
        assert!(prompt.contains("current_user: alice"));
        assert!(prompt.contains("backup my files"));
    }

    #[test]
    fn token_approximation_counts_words() {
        assert_eq!(approximate_tokens("one two  three\nfour"), 4);
        assert_eq!(approximate_tokens(""), 0);
    }
}
