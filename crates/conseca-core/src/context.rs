//! Trusted context (§3.1).
//!
//! Conseca's policy generator is *isolated*: it sees only context the
//! developer designated as trustworthy — in the paper's prototype, "the
//! users' email categories and addresses, and a tree of the filesystem
//! directory structure", plus tool-agnostic context (username, time, date)
//! and static context like tool documentation. Everything else (file
//! contents, email bodies) is withheld, which is what protects policy
//! generation from prompt injection.

use std::collections::BTreeMap;
use std::ops::BitOr;

use crate::policy::Fnv1a;

/// A set of [`TrustedContext`] fields: what a policy generator declares
/// it reads ([`PolicyModel::reads`](crate::PolicyModel::reads)). Sets
/// combine with `|`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextFields(u8);

impl ContextFields {
    /// [`TrustedContext::current_user`].
    pub const CURRENT_USER: ContextFields = ContextFields(1);
    /// [`TrustedContext::date`].
    pub const DATE: ContextFields = ContextFields(1 << 1);
    /// [`TrustedContext::time`].
    pub const TIME: ContextFields = ContextFields(1 << 2);
    /// [`TrustedContext::usernames`].
    pub const USERNAMES: ContextFields = ContextFields(1 << 3);
    /// [`TrustedContext::email_addresses`].
    pub const EMAIL_ADDRESSES: ContextFields = ContextFields(1 << 4);
    /// [`TrustedContext::email_categories`].
    pub const EMAIL_CATEGORIES: ContextFields = ContextFields(1 << 5);
    /// [`TrustedContext::fs_tree`].
    pub const FS_TREE: ContextFields = ContextFields(1 << 6);
    /// [`TrustedContext::extra`].
    pub const EXTRA: ContextFields = ContextFields(1 << 7);
    /// Every field: the whole context.
    pub const ALL: ContextFields = ContextFields(u8::MAX);

    /// Whether every field of `other` is in this set.
    pub fn contains(self, other: ContextFields) -> bool {
        self.0 & other.0 == other.0
    }
}

impl BitOr for ContextFields {
    type Output = ContextFields;

    fn bitor(self, rhs: ContextFields) -> ContextFields {
        ContextFields(self.0 | rhs.0)
    }
}

/// The bundle of trusted context handed to the policy generator.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct TrustedContext {
    /// The acting user (`current_user` in the paper's example).
    pub current_user: String,
    /// Logical date string, e.g. `2025-05-14`.
    pub date: String,
    /// Logical time tick.
    pub time: u64,
    /// All known local user names.
    pub usernames: Vec<String>,
    /// All known email addresses (the paper's example constrains
    /// recipients to this list's domain).
    pub email_addresses: Vec<String>,
    /// The user's email category labels.
    pub email_categories: Vec<String>,
    /// The filesystem *name* tree (never contents).
    pub fs_tree: String,
    /// Additional developer-designated context entries.
    pub extra: BTreeMap<String, String>,
}

impl TrustedContext {
    /// Creates an empty context for a user.
    pub fn for_user(user: &str) -> Self {
        TrustedContext { current_user: user.to_owned(), ..Default::default() }
    }

    /// The projection of this context onto `fields`: every field outside
    /// the set is reset to its default. Projecting onto
    /// [`ContextFields::ALL`] is the identity.
    pub fn project(&self, fields: ContextFields) -> TrustedContext {
        fn keep<T: Clone + Default>(fields: ContextFields, field: ContextFields, v: &T) -> T {
            if fields.contains(field) {
                v.clone()
            } else {
                T::default()
            }
        }
        TrustedContext {
            current_user: keep(fields, ContextFields::CURRENT_USER, &self.current_user),
            date: keep(fields, ContextFields::DATE, &self.date),
            time: keep(fields, ContextFields::TIME, &self.time),
            usernames: keep(fields, ContextFields::USERNAMES, &self.usernames),
            email_addresses: keep(fields, ContextFields::EMAIL_ADDRESSES, &self.email_addresses),
            email_categories: keep(fields, ContextFields::EMAIL_CATEGORIES, &self.email_categories),
            fs_tree: keep(fields, ContextFields::FS_TREE, &self.fs_tree),
            extra: keep(fields, ContextFields::EXTRA, &self.extra),
        }
    }

    /// The email domain shared by the known addresses, if they agree on one
    /// (e.g. `work.com`). Policy templates use this to scope recipients.
    pub fn common_email_domain(&self) -> Option<String> {
        let mut domains = self
            .email_addresses
            .iter()
            .filter_map(|a| a.split_once('@').map(|(_, d)| d.to_owned()));
        let first = domains.next()?;
        if domains.all(|d| d == first) {
            Some(first)
        } else {
            None
        }
    }

    /// Home directory of the acting user.
    pub fn home(&self) -> String {
        format!("/home/{}", self.current_user)
    }

    /// FNV-1a over the canonical text both fingerprints hash, fed field
    /// by field with no intermediate string. Every value ends with a
    /// unit separator and every field (scalar or whole list) with a
    /// record separator, so values can never bleed across field
    /// boundaries: `usernames=["alice","bob"]` and
    /// `usernames=["alice"], email_addresses=["bob"]` serialise
    /// differently, as do `user="ab", date="c"` and `user="a",
    /// date="bc"`. (Neither control character occurs in user-derived
    /// context text.) The values must never change: snapshot keys and
    /// files on disk carry them. `fingerprint_text` below is the
    /// rendering they are tested against.
    fn canonical_hash(&self, include_time: bool) -> u64 {
        const UNIT: &[u8] = b"\x1f";
        const RECORD: &[u8] = b"\x1e";
        let mut hash = Fnv1a::new();
        let scalar = |hash: &mut Fnv1a, v: &[u8]| {
            hash.write(v);
            hash.write(UNIT);
            hash.write(RECORD);
        };
        scalar(&mut hash, self.current_user.as_bytes());
        scalar(&mut hash, self.date.as_bytes());
        if include_time {
            let mut digits = [0u8; 20];
            scalar(&mut hash, decimal(self.time, &mut digits));
        }
        let list = |hash: &mut Fnv1a, vs: &[String]| {
            for v in vs {
                hash.write(v.as_bytes());
                hash.write(UNIT);
            }
            hash.write(RECORD);
        };
        list(&mut hash, &self.usernames);
        list(&mut hash, &self.email_addresses);
        list(&mut hash, &self.email_categories);
        scalar(&mut hash, self.fs_tree.as_bytes());
        for (k, v) in &self.extra {
            hash.write(k.as_bytes());
            hash.write(UNIT);
            hash.write(v.as_bytes());
            hash.write(UNIT);
        }
        hash.write(RECORD);
        hash.finish()
    }

    /// The canonical text [`canonical_hash`](Self::canonical_hash)
    /// hashes, rendered whole: the oracle the streaming hash is tested
    /// against.
    #[cfg(test)]
    fn fingerprint_text(&self, include_time: bool) -> String {
        const UNIT: char = '\u{1f}';
        const RECORD: char = '\u{1e}';
        let mut text = String::new();
        let scalar = |text: &mut String, v: &str| {
            text.push_str(v);
            text.push(UNIT);
            text.push(RECORD);
        };
        scalar(&mut text, &self.current_user);
        scalar(&mut text, &self.date);
        if include_time {
            scalar(&mut text, &self.time.to_string());
        }
        let list = |text: &mut String, vs: &[String]| {
            for v in vs {
                text.push_str(v);
                text.push(UNIT);
            }
            text.push(RECORD);
        };
        list(&mut text, &self.usernames);
        list(&mut text, &self.email_addresses);
        list(&mut text, &self.email_categories);
        scalar(&mut text, &self.fs_tree);
        for (k, v) in &self.extra {
            text.push_str(k);
            text.push(UNIT);
            text.push_str(v);
            text.push(UNIT);
        }
        text.push(RECORD);
        text
    }

    /// A stable fingerprint over every field (cache key component).
    pub fn fingerprint(&self) -> u64 {
        self.canonical_hash(true)
    }

    /// A fingerprint over the *semantic* fields only — everything except
    /// the logical `time` tick. [`fingerprint`](Self::fingerprint) is the
    /// cache identity (any field change keys a fresh policy); this one is
    /// the **drift** identity hot-reload watches. The distinction matters
    /// because the logical clock advances on every mutating tool call, so
    /// keying drift on the full fingerprint would force a policy reload
    /// after every write even when nothing the generator looks at changed.
    pub fn drift_fingerprint(&self) -> u64 {
        self.canonical_hash(false)
    }

    /// Renders the context as the prompt block the policy model receives.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("current_user: {}\n", self.current_user));
        out.push_str(&format!("date: {}\n", self.date));
        out.push_str(&format!("time: {}\n", self.time));
        out.push_str(&format!("usernames: {}\n", self.usernames.join(", ")));
        out.push_str(&format!("email_addresses: {}\n", self.email_addresses.join(", ")));
        out.push_str(&format!("email_categories: {}\n", self.email_categories.join(", ")));
        for (k, v) in &self.extra {
            out.push_str(&format!("{k}: {v}\n"));
        }
        out.push_str("filesystem (names only):\n");
        out.push_str(&self.fs_tree);
        out
    }
}

/// `n` in decimal, as `n.to_string()` spells it, written into `buf`.
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return &buf[start..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::fnv1a;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn sample() -> TrustedContext {
        TrustedContext {
            current_user: "alice".into(),
            date: "2025-05-14".into(),
            time: 42,
            usernames: vec!["alice".into(), "bob".into()],
            email_addresses: vec!["alice@work.com".into(), "bob@work.com".into()],
            email_categories: vec!["family".into(), "work".into()],
            fs_tree: "alice/\n  Documents/\n    notes.txt\n  Logs/\n    app.log\n".into(),
            extra: BTreeMap::new(),
        }
    }

    #[test]
    fn common_domain_detected() {
        assert_eq!(sample().common_email_domain().as_deref(), Some("work.com"));
        let mut mixed = sample();
        mixed.email_addresses.push("x@other.org".into());
        assert_eq!(mixed.common_email_domain(), None);
        assert_eq!(TrustedContext::default().common_email_domain(), None);
    }

    #[test]
    fn fingerprint_sensitive_to_every_field() {
        let base = sample();
        let mut variants = Vec::new();
        let mut v = base.clone();
        v.current_user = "bob".into();
        variants.push(v);
        let mut v = base.clone();
        v.email_addresses.push("new@work.com".into());
        variants.push(v);
        let mut v = base.clone();
        v.fs_tree.push_str("  New/\n");
        variants.push(v);
        let mut v = base.clone();
        v.extra.insert("k".into(), "v".into());
        variants.push(v);
        for variant in variants {
            assert_ne!(base.fingerprint(), variant.fingerprint());
        }
        assert_eq!(base.fingerprint(), sample().fingerprint());
    }

    #[test]
    fn fingerprints_do_not_collide_across_field_boundaries() {
        // Regression: the pre-separator encoding concatenated fields, so
        // a value sliding from one field (or list) into the next hashed
        // identically and the drift it represented was invisible to
        // hot-reload.
        let mut a = TrustedContext::for_user("alice");
        a.usernames = vec!["alice".into(), "bob".into()];
        let mut b = TrustedContext::for_user("alice");
        b.usernames = vec!["alice".into()];
        b.email_addresses = vec!["bob".into()];
        assert_ne!(a.fingerprint(), b.fingerprint(), "list boundary must matter");
        assert_ne!(a.drift_fingerprint(), b.drift_fingerprint());

        let mut c = TrustedContext::for_user("ab");
        c.date = "c".into();
        let mut d = TrustedContext::for_user("a");
        d.date = "bc".into();
        assert_ne!(c.fingerprint(), d.fingerprint(), "scalar boundary must matter");
        assert_ne!(c.drift_fingerprint(), d.drift_fingerprint());

        let mut e = TrustedContext::for_user("alice");
        e.extra.insert("ke".into(), "y".into());
        let mut f = TrustedContext::for_user("alice");
        f.extra.insert("k".into(), "ey".into());
        assert_ne!(e.fingerprint(), f.fingerprint(), "extra key/value boundary must matter");
    }

    #[test]
    fn drift_fingerprint_ignores_the_clock_but_nothing_else() {
        let base = sample();
        let mut ticked = base.clone();
        ticked.time += 7;
        assert_ne!(base.fingerprint(), ticked.fingerprint(), "cache identity sees the clock");
        assert_eq!(
            base.drift_fingerprint(),
            ticked.drift_fingerprint(),
            "drift identity must not churn on the logical clock"
        );
        let mut grown = base.clone();
        grown.fs_tree.push_str("  New/\n");
        assert_ne!(base.drift_fingerprint(), grown.drift_fingerprint());
        let mut categorized = base.clone();
        categorized.email_categories.push("urgent".into());
        assert_ne!(base.drift_fingerprint(), categorized.drift_fingerprint());
    }

    #[test]
    fn projection_keeps_declared_fields_and_resets_the_rest() {
        let mut base = sample();
        base.extra.insert("k".into(), "v".into());
        assert_eq!(base.project(ContextFields::ALL), base);
        let fields =
            ContextFields::CURRENT_USER | ContextFields::USERNAMES | ContextFields::EMAIL_ADDRESSES;
        let projected = base.project(fields);
        assert_eq!(projected.current_user, base.current_user);
        assert_eq!(projected.usernames, base.usernames);
        assert_eq!(projected.email_addresses, base.email_addresses);
        assert_eq!((projected.date.as_str(), projected.time), ("", 0));
        assert!(projected.email_categories.is_empty() && projected.extra.is_empty());
        assert!(projected.fs_tree.is_empty());
        assert_eq!(projected.project(fields), projected, "projection is idempotent");
        // Drift outside the projection is invisible to it.
        let mut grown = base.clone();
        grown.fs_tree.push_str("  New/\n");
        grown.time += 1;
        assert_eq!(grown.project(fields).fingerprint(), projected.fingerprint());
        assert!(fields.contains(ContextFields::USERNAMES));
        assert!(!fields.contains(ContextFields::FS_TREE | ContextFields::USERNAMES));
    }

    fn arb_text() -> impl Strategy<Value = String> {
        // Plain text, the separators themselves, digits, and multi-byte
        // UTF-8: every byte class the canonical text can contain.
        proptest::string::string_regex("[a-z0-9/ \n\u{1e}\u{1f}é日]{0,12}").unwrap()
    }

    fn arb_context() -> impl Strategy<Value = TrustedContext> {
        let scalars = (arb_text(), arb_text(), any::<u64>(), arb_text());
        let lists = (vec(arb_text(), 0..4), vec(arb_text(), 0..4), vec(arb_text(), 0..4));
        let extra = vec((arb_text(), arb_text()), 0..3);
        (scalars, lists, extra).prop_map(
            |(
                (current_user, date, time, fs),
                (usernames, email_addresses, email_categories),
                extra,
            )| {
                TrustedContext {
                    current_user,
                    date,
                    // Both small and full-width clock values.
                    time: if time & 1 == 0 { time % 1000 } else { time },
                    usernames,
                    email_addresses,
                    email_categories,
                    fs_tree: fs,
                    extra: extra.into_iter().collect(),
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The streaming hash equals FNV-1a over the rendered canonical
        /// text, so every fingerprint already on disk stays valid.
        #[test]
        fn streaming_fingerprints_equal_the_rendered_text(ctx in arb_context()) {
            prop_assert_eq!(ctx.fingerprint(), fnv1a(ctx.fingerprint_text(true).as_bytes()));
            prop_assert_eq!(ctx.drift_fingerprint(), fnv1a(ctx.fingerprint_text(false).as_bytes()));
        }
    }

    #[test]
    fn decimal_spells_like_to_string() {
        for n in [0, 7, 10, 42, 1_000_000, u64::MAX / 10, u64::MAX] {
            assert_eq!(decimal(n, &mut [0; 20]), n.to_string().as_bytes());
        }
    }

    #[test]
    fn render_contains_fields_but_is_names_only() {
        let r = sample().render();
        assert!(r.contains("current_user: alice"));
        assert!(r.contains("notes.txt"));
        assert!(r.contains("work"));
    }
}
