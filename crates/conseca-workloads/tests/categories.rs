//! Differential test of the mail category scan that feeds the trusted
//! context (§4.1: category labels are trusted, bodies are not).
//!
//! `MailSystem::categories` reads only each message's header block in
//! place. The oracle is its old definition, kept here: parse every
//! message in full (`list_all`), take the categories, sort, dedup. The two
//! must agree on every mailbox, after every kind of mutation, and on the
//! error a malformed message raises.

use conseca_mail::{MailError, MailSystem, Message};
use conseca_vfs::{SharedVfs, Vfs};
use conseca_workloads::{Env, CURRENT_USER, USERS};
use proptest::prelude::*;

fn oracle(mail: &MailSystem, user: &str) -> Result<Vec<String>, MailError> {
    let mut cats: Vec<String> =
        mail.list_all(user)?.into_iter().filter_map(|m| m.category).collect();
    cats.sort();
    cats.dedup();
    Ok(cats)
}

/// Every user of `env` (plus one without a mailbox) agrees with the oracle.
fn assert_agrees(env: &Env, when: &str) {
    for user in USERS.iter().copied().chain(["ghost"]) {
        assert_eq!(env.mail.categories(user), oracle(&env.mail, user), "{when}: user {user}");
    }
}

#[test]
fn categories_match_the_full_parse_on_the_built_environments() {
    for inject in [false, true] {
        let env = Env::build_with(inject);
        assert_agrees(&env, &format!("build_with({inject})"));
        assert!(!env.mail.categories(CURRENT_USER).unwrap().is_empty());
    }
    assert_agrees(&Env::build(), "build()");
}

#[test]
fn categories_match_the_full_parse_after_every_mutation() {
    let mut env = Env::build();
    let user = CURRENT_USER;
    let sent = env.mail.send("bob", &[user], "New", "body", vec![], Some("brand-new")).unwrap();
    assert_agrees(&env, "send");
    assert!(env.mail.categories(user).unwrap().contains(&"brand-new".to_owned()));

    env.mail.move_to_folder(user, sent, "Projects").unwrap();
    assert_agrees(&env, "move");

    env.mail.categorize(user, sent, "relabelled").unwrap();
    assert_agrees(&env, "categorize");

    env.mail.read_message(user, sent).unwrap();
    assert_agrees(&env, "mark-read");

    env.mail.delete(user, sent).unwrap();
    assert_agrees(&env, "delete");
    assert!(!env.mail.categories(user).unwrap().contains(&"relabelled".to_owned()));

    // Emptying a label's last message drops the label.
    let ids: Vec<u64> = env.mail.list_all(user).unwrap().iter().map(|m| m.id).collect();
    for id in ids {
        env.mail.delete(user, id).unwrap();
        assert_agrees(&env, &format!("delete {id}"));
    }
    assert_eq!(env.mail.categories(user).unwrap(), Vec::<String>::new());
}

#[test]
fn a_malformed_message_fails_both_with_the_same_error() {
    let env = Env::build();
    let path = format!("/home/{CURRENT_USER}/Mail/Inbox/msg-77777.eml");
    env.vfs
        .with_mut(|fs| fs.write(&path, b"From: x@y\nCategory: c\n\nno id", CURRENT_USER))
        .unwrap();
    let got = env.mail.categories(CURRENT_USER);
    assert_eq!(got, oracle(&env.mail, CURRENT_USER));
    match got {
        Err(MailError::MalformedMessage { path: at, reason }) => {
            assert_eq!(at, path);
            assert_eq!(reason, "missing Id");
        }
        other => panic!("expected a malformed-message error, got {other:?}"),
    }
    // Other users' mail is unaffected.
    assert_agrees(&env, "malformed alice message");
}

/// One generated header line, as raw bytes.
fn header_line() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (0u64..5).prop_map(|n| format!("Id: {n}").into_bytes()),
        Just(b"Id: seven".to_vec()),
        Just(b"Id:".to_vec()),
        Just(b"To: alice@work.com, carol@work.com".to_vec()),
        "[a-c ]{0,6}".prop_map(|c| format!("Category: {c}").into_bytes()),
        Just(b"Category: caf\xc3\xa9".to_vec()),
        Just(b"Category: bad\xff\xfeutf8".to_vec()),
        (0u64..100).prop_map(|t| format!("Timestamp: {t}").into_bytes()),
        Just(b"Timestamp: -1".to_vec()),
        Just(b"Read: true".to_vec()),
        Just(b"Subject: hello: world".to_vec()),
        Just(b"X-Unknown: value".to_vec()),
        Just(b"a line without a colon".to_vec()),
        Just(b"Category: crlf\r".to_vec()),
    ]
}

/// Lines that, when they follow the blank line, are body text.
fn body() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(Vec::new()),
        Just(b"Category: leaked\n".to_vec()),
        Just(b"Id: bad\nno colon\n\n\nCategory: leaked".to_vec()),
        Just(b"\xff\xfe\xc3 not utf-8".to_vec()),
    ]
}

/// A message file: a header block, then optionally a blank line and a
/// body, then 0–2 trailing newlines. The block usually (not always)
/// carries a good `Id` and `From`, so both well-formed and malformed
/// files are common; its lines are rotated so any of them may come first.
fn message_file() -> impl Strategy<Value = Vec<u8>> {
    let block = (0u8..4, 0u8..4, proptest::collection::vec(header_line(), 0..5), 0usize..7);
    (block, any::<bool>(), body(), 0usize..3).prop_map(
        |((id, from, extras, rotate), blank, body, trailing)| {
            let mut lines = extras;
            if id < 3 {
                lines.push(format!("Id: {id}").into_bytes());
            }
            if from < 3 {
                lines.push(b"From: bob@work.com".to_vec());
            }
            let len = lines.len().max(1);
            lines.rotate_left(rotate % len);
            let mut file = lines.join(&b'\n');
            if blank {
                file.extend_from_slice(b"\n\n");
                file.extend_from_slice(&body);
            }
            file.extend(std::iter::repeat_n(b'\n', trailing));
            file
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn header_scan_agrees_with_the_full_parse(file in message_file()) {
        let mut fs = Vfs::new();
        fs.add_user("alice", false).unwrap();
        let vfs = SharedVfs::new(fs);
        let mail = MailSystem::new(vfs.clone(), "work.com");
        mail.ensure_mailbox("alice").unwrap();
        let path = "/home/alice/Mail/Inbox/msg-1.eml";
        vfs.with_mut(|fs| fs.write(path, &file, "alice")).unwrap();

        let parsed = Message::from_file(path, &String::from_utf8_lossy(&file));
        let expected = parsed.map(|m| m.category.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(mail.categories("alice"), expected.clone());
        prop_assert_eq!(oracle(&mail, "alice"), expected);
    }
}
