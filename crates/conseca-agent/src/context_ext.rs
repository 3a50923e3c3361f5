//! Trusted-context extraction: the developer-specified hooks of §4.1.
//!
//! "We (the 'developers') define trusted context as the users' email
//! categories and addresses, and a tree of the filesystem directory
//! structure (file and directory names are trusted). Tool-agnostic context
//! includes the user's username, time, and date."
//!
//! The extractor reads exactly that and nothing more. File contents are
//! never read, and of each message file only the header block is read
//! (for its `Category` label), in place: bodies are never touched. The
//! whole context is read under one `SharedVfs` read lock, so it is one
//! consistent snapshot of the world: a writer's single mutation (say, a
//! new file plus a new labelled message) is either wholly in it or
//! wholly absent.
//!
//! A policy generator declares the fields it reads
//! ([`PolicyModel::reads`](conseca_core::PolicyModel::reads)), and the
//! agent builds only those with [`build_context`]: a generator that never
//! reads the fs tree or the categories costs no tree walk and no header
//! read, and a write it cannot see is no drift. [`build_trusted_context`]
//! builds the whole context.

use conseca_core::{ContextFields, TrustedContext};
use conseca_mail::MailSystem;
use conseca_vfs::SharedVfs;

/// The logical date stamped into every context (runs are hermetic, so a
/// fixed date keeps policies and transcripts reproducible).
pub const LOGICAL_DATE: &str = "2025-05-14";

/// Extracts the prototype's whole trusted context for `user`:
/// [`build_context`] over [`ContextFields::ALL`].
pub fn build_trusted_context(vfs: &SharedVfs, mail: &MailSystem, user: &str) -> TrustedContext {
    build_context(vfs, mail, user, ContextFields::ALL)
}

/// Extracts the projection of `user`'s trusted context onto `fields`:
/// exactly `build_trusted_context(..).project(fields)`, but only the
/// declared fields are read.
///
/// Contents of files and bodies of emails are never touched: only names,
/// addresses, and category labels flow to the policy generator. `mail`
/// must be a mail system over `vfs`.
pub fn build_context(
    vfs: &SharedVfs,
    mail: &MailSystem,
    user: &str,
    fields: ContextFields,
) -> TrustedContext {
    let mut ctx = TrustedContext::default();
    if fields.contains(ContextFields::CURRENT_USER) {
        ctx.current_user = user.to_owned();
    }
    if fields.contains(ContextFields::DATE) {
        ctx.date = LOGICAL_DATE.to_owned();
    }
    vfs.with(|fs| {
        if fields.contains(ContextFields::TIME) {
            ctx.time = fs.now();
        }
        if fields.contains(ContextFields::USERNAMES) {
            ctx.usernames = fs.users().into_iter().map(|u| u.name).collect();
        }
        if fields.contains(ContextFields::EMAIL_ADDRESSES) {
            ctx.email_addresses = mail.addresses_in(fs);
        }
        if fields.contains(ContextFields::EMAIL_CATEGORIES) {
            ctx.email_categories = mail.categories_in(fs, user).unwrap_or_default();
        }
        if fields.contains(ContextFields::FS_TREE) {
            ctx.fs_tree = fs.tree(&format!("/home/{user}"), None).unwrap_or_default();
        }
    });
    ctx
}

#[cfg(test)]
mod tests {
    use super::*;
    use conseca_vfs::Vfs;

    #[test]
    fn context_is_names_only() {
        let mut fs = Vfs::new();
        fs.add_user("alice", false).unwrap();
        fs.add_user("bob", false).unwrap();
        fs.write("/home/alice/secret.txt", b"TOP SECRET CONTENT", "alice").unwrap();
        let vfs = SharedVfs::new(fs);
        let mut mail = MailSystem::new(vfs.clone(), "work.com");
        mail.ensure_mailbox("alice").unwrap();
        mail.ensure_mailbox("bob").unwrap();
        mail.send("bob", &["alice"], "hello", "UNTRUSTED BODY", vec![], Some("work")).unwrap();
        // A body that imitates a header and is not even UTF-8: only the
        // header block is trusted, so neither may reach the context.
        let mut crafted = b"Id: 99\nFrom: eve@evil.com\nTo: alice@work.com\n\n".to_vec();
        crafted.extend_from_slice(b"Category: leaked\n\xff\xfe\xc3 UNTRUSTED BYTES\n");
        vfs.with_mut(|fs| fs.write("/home/alice/Mail/Inbox/msg-99.eml", &crafted, "alice"))
            .unwrap();

        let ctx = build_trusted_context(&vfs, &mail, "alice");
        assert_eq!(ctx.current_user, "alice");
        assert_eq!(ctx.usernames, vec!["alice", "bob"]);
        assert!(ctx.email_addresses.contains(&"alice@work.com".to_string()));
        assert_eq!(ctx.email_categories, vec!["work"], "a body line is not a header");
        assert!(ctx.fs_tree.contains("secret.txt"), "names are trusted");
        assert!(!ctx.fs_tree.contains("TOP SECRET CONTENT"), "contents must not leak");
        let rendered = ctx.render();
        assert!(!rendered.contains("UNTRUSTED BODY"), "email bodies must not leak");
        assert!(!rendered.contains("leaked"), "a body's header look-alike must not leak");
        assert_eq!(ctx.date, LOGICAL_DATE);
    }

    #[test]
    fn a_projected_build_is_the_projection_of_the_whole_build() {
        let mut fs = Vfs::new();
        fs.add_user("alice", false).unwrap();
        fs.add_user("bob", false).unwrap();
        fs.write("/home/alice/notes.txt", b"hi", "alice").unwrap();
        let vfs = SharedVfs::new(fs);
        let mut mail = MailSystem::new(vfs.clone(), "work.com");
        mail.ensure_mailbox("alice").unwrap();
        mail.ensure_mailbox("bob").unwrap();
        mail.send("bob", &["alice"], "hello", "body", vec![], Some("work")).unwrap();

        let whole = build_trusted_context(&vfs, &mail, "alice");
        let singles = [
            ContextFields::CURRENT_USER,
            ContextFields::DATE,
            ContextFields::TIME,
            ContextFields::USERNAMES,
            ContextFields::EMAIL_ADDRESSES,
            ContextFields::EMAIL_CATEGORIES,
            ContextFields::FS_TREE,
            ContextFields::EXTRA,
        ];
        let template =
            ContextFields::CURRENT_USER | ContextFields::USERNAMES | ContextFields::EMAIL_ADDRESSES;
        for fields in singles.into_iter().chain([template, ContextFields::ALL]) {
            let built = build_context(&vfs, &mail, "alice", fields);
            assert_eq!(built, whole.project(fields), "{fields:?}");
            assert_eq!(built.fingerprint(), whole.project(fields).fingerprint(), "{fields:?}");
        }
    }

    #[test]
    fn context_is_one_snapshot_of_the_world() {
        // A writer adds, then removes, a file and a labelled message in
        // one mutation each. Every context must see both or neither: a
        // context that mixes the two states would describe a world that
        // never existed.
        const FILE: &str = "/home/alice/marker.txt";
        const EML: &str = "/home/alice/Mail/Inbox/msg-9000.eml";
        let mut fs = Vfs::new();
        fs.add_user("alice", false).unwrap();
        let vfs = SharedVfs::new(fs);
        let mail = MailSystem::new(vfs.clone(), "work.com");
        mail.ensure_mailbox("alice").unwrap();
        let message = b"Id: 9000\nFrom: bob@work.com\nTo: alice@work.com\nCategory: marker\n\nhi";

        let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let (vfs, done) = (vfs.clone(), std::sync::Arc::clone(&done));
            std::thread::spawn(move || {
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    vfs.with_mut(|fs| {
                        fs.write(FILE, b"x", "alice").unwrap();
                        fs.write(EML, message, "alice").unwrap();
                    });
                    std::thread::yield_now();
                    vfs.with_mut(|fs| {
                        fs.rm(FILE).unwrap();
                        fs.rm(EML).unwrap();
                    });
                    std::thread::yield_now();
                }
            })
        };
        let mut seen = [0usize; 2];
        for _ in 0..2_000 {
            let ctx = build_trusted_context(&vfs, &mail, "alice");
            let has_file = ctx.fs_tree.contains("marker.txt");
            let has_label = ctx.email_categories.iter().any(|c| c == "marker");
            assert_eq!(has_file, has_label, "torn context: {ctx:?}");
            seen[usize::from(has_file)] += 1;
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        writer.join().unwrap();
        println!("contexts without / with the marker: {seen:?}");
    }
}
