//! The mail system: delivery, folders, and attachment storage on the VFS.

use bytes::Bytes;

use conseca_vfs::{SharedVfs, Vfs};

use crate::error::MailError;
use crate::message::{header_bounds, Attachment, Headers, Message, MessageId, MessageSummary};

/// Folders every mailbox starts with.
pub const DEFAULT_FOLDERS: [&str; 3] = ["Inbox", "Sent", "Archive"];

/// Directory (inside `Mail/`) holding attachment payloads; not a folder.
const ATTACHMENTS_DIR: &str = "Attachments";

/// A mail service for all users of one filesystem.
///
/// Messages are stored *in the VFS* under `/home/<user>/Mail/<Folder>/`,
/// following the paper's prototype convention ("the email tool sends and
/// receives emails in a `Mail` directory in users' home directories", §4).
/// All state lives in the filesystem; `MailSystem` holds only the shared
/// handle, the host domain, and the id counter.
///
/// # Examples
///
/// ```
/// use conseca_vfs::{SharedVfs, Vfs};
/// use conseca_mail::MailSystem;
///
/// let mut fs = Vfs::new();
/// fs.add_user("alice", false).unwrap();
/// fs.add_user("bob", false).unwrap();
/// let vfs = SharedVfs::new(fs);
/// let mut mail = MailSystem::new(vfs, "work.com");
/// mail.ensure_mailbox("alice").unwrap();
/// mail.ensure_mailbox("bob").unwrap();
///
/// mail.send("alice", &["bob@work.com"], "Hi", "Lunch at noon?", vec![], None).unwrap();
/// let inbox = mail.list("bob", "Inbox").unwrap();
/// assert_eq!(inbox.len(), 1);
/// assert_eq!(inbox[0].subject, "Hi");
/// ```
#[derive(Debug, Clone)]
pub struct MailSystem {
    vfs: SharedVfs,
    domain: String,
    next_id: MessageId,
}

impl MailSystem {
    /// Creates a mail system over `vfs` for addresses `<user>@<domain>`.
    ///
    /// The id counter resumes above any message already present.
    pub fn new(vfs: SharedVfs, domain: &str) -> Self {
        let mut sys = MailSystem { vfs, domain: domain.to_owned(), next_id: 1 };
        sys.next_id = sys.scan_max_id() + 1;
        sys
    }

    /// The host domain for local addresses.
    pub fn domain(&self) -> &str {
        &self.domain
    }

    /// The canonical address of a local user.
    pub fn address_of(&self, user: &str) -> String {
        format!("{user}@{}", self.domain)
    }

    /// Resolves an address (or bare user name) to a local user, if it is one.
    pub fn local_user(&self, address: &str) -> Option<String> {
        let user = match address.split_once('@') {
            Some((user, dom)) if dom == self.domain => user,
            Some(_) => return None,
            None => address,
        };
        if user.is_empty() {
            return None;
        }
        if self.vfs.with(|fs| fs.is_dir(&format!("/home/{user}/Mail"))) {
            Some(user.to_owned())
        } else {
            None
        }
    }

    /// Addresses of every user with a mailbox, sorted.
    pub fn all_addresses(&self) -> Vec<String> {
        self.vfs.with(|fs| self.addresses_in(fs))
    }

    /// [`MailSystem::all_addresses`], read from `fs`: this mail system's
    /// filesystem, borrowed under a lock the caller already holds.
    pub fn addresses_in(&self, fs: &Vfs) -> Vec<String> {
        fs.users()
            .iter()
            .filter(|u| fs.is_dir(&format!("/home/{}/Mail", u.name)))
            .map(|u| self.address_of(&u.name))
            .collect()
    }

    fn mail_dir(&self, user: &str) -> String {
        format!("/home/{user}/Mail")
    }

    fn folder_dir(&self, user: &str, folder: &str) -> String {
        format!("{}/{folder}", self.mail_dir(user))
    }

    /// Creates the mailbox directory structure for `user`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (e.g. the user's home is missing).
    pub fn ensure_mailbox(&self, user: &str) -> Result<(), MailError> {
        self.vfs.with_mut(|fs| {
            for folder in DEFAULT_FOLDERS {
                fs.mkdir_p(&format!("/home/{user}/Mail/{folder}"), user)?;
            }
            fs.mkdir_p(&format!("/home/{user}/Mail/{ATTACHMENTS_DIR}"), user)?;
            Ok(())
        })
    }

    fn scan_max_id(&self) -> MessageId {
        self.vfs.with(|fs| {
            let mut max = 0;
            if let Ok(entries) = fs.find("/", |e| !e.is_dir && e.name.ends_with(".eml")) {
                for e in entries {
                    if let Some(id) = e
                        .name
                        .strip_prefix("msg-")
                        .and_then(|s| s.strip_suffix(".eml"))
                        .and_then(|s| s.parse::<MessageId>().ok())
                    {
                        max = max.max(id);
                    }
                }
            }
            max
        })
    }

    // ------------------------------------------------------------ sending

    /// Sends a message from a local user.
    ///
    /// Delivery writes the message into each recipient's `Inbox` and the
    /// sender's `Sent` folder; attachments are stored per recipient.
    ///
    /// # Errors
    ///
    /// Fails if any recipient does not resolve to a local mailbox, or on
    /// filesystem errors (quota, missing mailbox).
    pub fn send(
        &mut self,
        from_user: &str,
        to: &[&str],
        subject: &str,
        body: &str,
        attachments: Vec<Attachment>,
        category: Option<&str>,
    ) -> Result<MessageId, MailError> {
        if to.is_empty() {
            return Err(MailError::InvalidAddress { address: "<empty recipient list>".into() });
        }
        let from_addr = self.address_of(from_user);
        let mut recipients = Vec::new();
        for addr in to {
            match self.local_user(addr) {
                Some(user) => recipients.push(user),
                None => return Err(MailError::NoSuchMailbox { address: (*addr).to_owned() }),
            }
        }
        let to_addrs: Vec<String> = recipients.iter().map(|u| self.address_of(u)).collect();
        let id = self.allocate_id();
        let timestamp = self.vfs.with(|fs| fs.now());
        let msg = Message {
            id,
            from: from_addr,
            to: to_addrs,
            subject: subject.to_owned(),
            body: body.to_owned(),
            category: category.map(str::to_owned),
            read: false,
            timestamp,
            attachments: attachments.iter().map(|a| a.name.clone()).collect(),
        };
        for user in &recipients {
            self.write_message(user, "Inbox", &msg, &attachments)?;
        }
        let mut sent_copy = msg.clone();
        sent_copy.read = true;
        self.write_message(from_user, "Sent", &sent_copy, &attachments)?;
        Ok(id)
    }

    /// Delivers mail from an *external* (possibly attacker-controlled)
    /// address straight into a local inbox. Used by environment builders and
    /// the injection scenario; there is no sender mailbox.
    ///
    /// # Errors
    ///
    /// Fails if the recipient has no mailbox.
    pub fn deliver_external(
        &mut self,
        from_addr: &str,
        to_user: &str,
        subject: &str,
        body: &str,
        attachments: Vec<Attachment>,
        category: Option<&str>,
    ) -> Result<MessageId, MailError> {
        let to_user = self
            .local_user(to_user)
            .ok_or_else(|| MailError::NoSuchMailbox { address: to_user.to_owned() })?;
        let id = self.allocate_id();
        let timestamp = self.vfs.with(|fs| fs.now());
        let msg = Message {
            id,
            from: from_addr.to_owned(),
            to: vec![self.address_of(&to_user)],
            subject: subject.to_owned(),
            body: body.to_owned(),
            category: category.map(str::to_owned),
            read: false,
            timestamp,
            attachments: attachments.iter().map(|a| a.name.clone()).collect(),
        };
        self.write_message(&to_user, "Inbox", &msg, &attachments)?;
        Ok(id)
    }

    fn allocate_id(&mut self) -> MessageId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn write_message(
        &self,
        user: &str,
        folder: &str,
        msg: &Message,
        attachments: &[Attachment],
    ) -> Result<(), MailError> {
        let dir = self.folder_dir(user, folder);
        let path = format!("{dir}/{}", msg.file_name());
        self.vfs.with_mut(|fs| -> Result<(), MailError> {
            fs.mkdir_p(&dir, user)?;
            fs.write(&path, msg.to_file().as_bytes(), user)?;
            if !attachments.is_empty() {
                let adir = format!("{}/{ATTACHMENTS_DIR}/{}", self.mail_dir(user), msg.id);
                fs.mkdir_p(&adir, user)?;
                for a in attachments {
                    fs.write(&format!("{adir}/{}", a.name), &a.data, user)?;
                }
            }
            Ok(())
        })
    }

    // ------------------------------------------------------------ reading

    /// Folder names in a user's mailbox (excludes attachment storage).
    ///
    /// # Errors
    ///
    /// Fails if the user has no mailbox.
    pub fn folders(&self, user: &str) -> Result<Vec<String>, MailError> {
        let dir = self.mail_dir(user);
        let entries = self.vfs.with(|fs| fs.ls(&dir))?;
        Ok(entries
            .into_iter()
            .filter(|e| e.is_dir && e.name != ATTACHMENTS_DIR)
            .map(|e| e.name)
            .collect())
    }

    /// Lists a folder, sorted by message id.
    ///
    /// # Errors
    ///
    /// Fails if the folder does not exist.
    pub fn list(&self, user: &str, folder: &str) -> Result<Vec<MessageSummary>, MailError> {
        let dir = self.folder_dir(user, folder);
        let entries = self.vfs.with(|fs| fs.ls(&dir))?;
        let mut out = Vec::new();
        for e in entries.iter().filter(|e| !e.is_dir && e.name.ends_with(".eml")) {
            let text = self.vfs.with(|fs| fs.read_to_string(&e.path))?;
            let msg = Message::from_file(&e.path, &text)?;
            out.push(MessageSummary::of(&msg, folder));
        }
        out.sort_by_key(|s| s.id);
        Ok(out)
    }

    /// Lists every message in every folder.
    ///
    /// # Errors
    ///
    /// Fails if the user has no mailbox.
    pub fn list_all(&self, user: &str) -> Result<Vec<MessageSummary>, MailError> {
        let mut out = Vec::new();
        for folder in self.folders(user)? {
            out.extend(self.list(user, &folder)?);
        }
        out.sort_by_key(|s| s.id);
        Ok(out)
    }

    /// Unread messages in the inbox.
    ///
    /// # Errors
    ///
    /// Fails if the user has no mailbox.
    pub fn unread(&self, user: &str) -> Result<Vec<MessageSummary>, MailError> {
        Ok(self.list(user, "Inbox")?.into_iter().filter(|m| !m.read).collect())
    }

    /// Finds which folder holds message `id`.
    ///
    /// # Errors
    ///
    /// Fails if no folder holds the message.
    pub fn locate(&self, user: &str, id: MessageId) -> Result<String, MailError> {
        for folder in self.folders(user)? {
            let path = format!("{}/msg-{id}.eml", self.folder_dir(user, &folder));
            if self.vfs.with(|fs| fs.is_file(&path)) {
                return Ok(folder);
            }
        }
        Err(MailError::NoSuchMessage { id })
    }

    /// Reads a message in full and marks it read.
    ///
    /// Reading returns the body — **untrusted** data in Conseca's threat
    /// model, since any sender controls it.
    ///
    /// # Errors
    ///
    /// Fails if the message does not exist.
    pub fn read_message(&self, user: &str, id: MessageId) -> Result<Message, MailError> {
        let folder = self.locate(user, id)?;
        let path = format!("{}/msg-{id}.eml", self.folder_dir(user, &folder));
        let text = self.vfs.with(|fs| fs.read_to_string(&path))?;
        let mut msg = Message::from_file(&path, &text)?;
        if !msg.read {
            msg.read = true;
            self.vfs.with_mut(|fs| fs.write(&path, msg.to_file().as_bytes(), user))?;
        }
        Ok(msg)
    }

    /// Deletes a message (and its stored attachments).
    ///
    /// # Errors
    ///
    /// Fails if the message does not exist.
    pub fn delete(&self, user: &str, id: MessageId) -> Result<(), MailError> {
        let folder = self.locate(user, id)?;
        let path = format!("{}/msg-{id}.eml", self.folder_dir(user, &folder));
        self.vfs.with_mut(|fs| fs.rm(&path))?;
        let adir = format!("{}/{ATTACHMENTS_DIR}/{id}", self.mail_dir(user));
        if self.vfs.with(|fs| fs.is_dir(&adir)) {
            self.vfs.with_mut(|fs| fs.rm_r(&adir))?;
        }
        Ok(())
    }

    /// Moves a message to `folder`, creating the folder if needed. This is
    /// how agents "archive emails into mail subfolders".
    ///
    /// # Errors
    ///
    /// Fails if the message does not exist.
    pub fn move_to_folder(&self, user: &str, id: MessageId, folder: &str) -> Result<(), MailError> {
        let current = self.locate(user, id)?;
        if current == folder {
            return Ok(());
        }
        let from = format!("{}/msg-{id}.eml", self.folder_dir(user, &current));
        let dest_dir = self.folder_dir(user, folder);
        let to = format!("{dest_dir}/msg-{id}.eml");
        self.vfs.with_mut(|fs| -> Result<(), MailError> {
            fs.mkdir_p(&dest_dir, user)?;
            fs.mv(&from, &to)?;
            Ok(())
        })
    }

    /// Sets the category label of a message.
    ///
    /// # Errors
    ///
    /// Fails if the message does not exist.
    pub fn categorize(&self, user: &str, id: MessageId, category: &str) -> Result<(), MailError> {
        let folder = self.locate(user, id)?;
        let path = format!("{}/msg-{id}.eml", self.folder_dir(user, &folder));
        let text = self.vfs.with(|fs| fs.read_to_string(&path))?;
        let mut msg = Message::from_file(&path, &text)?;
        msg.category = Some(category.to_owned());
        self.vfs.with_mut(|fs| fs.write(&path, msg.to_file().as_bytes(), user))?;
        Ok(())
    }

    /// Distinct category labels across a user's mail — part of the
    /// developer-specified *trusted context* in the paper's prototype.
    ///
    /// # Errors
    ///
    /// Fails if the user has no mailbox.
    pub fn categories(&self, user: &str) -> Result<Vec<String>, MailError> {
        self.vfs.with(|fs| self.categories_in(fs, user))
    }

    /// [`MailSystem::categories`], read from `fs`: this mail system's
    /// filesystem, borrowed under a lock the caller already holds.
    ///
    /// Only each message's header block is read, in place: no file copy,
    /// no body. Folders and files are visited in name order and parsed by
    /// the same header parser as [`Message::from_file`], so the result
    /// (and the first malformed message's error) is exactly what listing
    /// every message would give.
    ///
    /// # Errors
    ///
    /// Fails if the user has no mailbox, or on the first malformed message.
    pub fn categories_in(&self, fs: &Vfs, user: &str) -> Result<Vec<String>, MailError> {
        let mut cats: Vec<String> = Vec::new();
        for folder in fs.children(&self.mail_dir(user))? {
            if !folder.is_dir() || folder.name() == ATTACHMENTS_DIR {
                continue;
            }
            for file in folder.children() {
                let Some(data) = file.data().filter(|_| file.name().ends_with(".eml")) else {
                    continue;
                };
                let (header_end, _) = header_bounds(data);
                let block = String::from_utf8_lossy(&data[..header_end]);
                let headers = Headers::parse(&block)
                    .map_err(|reason| MailError::MalformedMessage { path: file.path(), reason })?;
                if let Some(cat) = headers.category {
                    if !cats.iter().any(|c| c == cat) {
                        cats.push(cat.to_owned());
                    }
                }
            }
        }
        cats.sort();
        Ok(cats)
    }

    /// Forwards message `id` to new recipients (subject gains `Fwd: `).
    ///
    /// # Errors
    ///
    /// Fails if the message or any recipient mailbox is missing.
    pub fn forward(
        &mut self,
        user: &str,
        id: MessageId,
        to: &[&str],
    ) -> Result<MessageId, MailError> {
        let msg = self.read_message(user, id)?;
        let attachments = self.load_attachments(user, &msg)?;
        let subject = format!("Fwd: {}", msg.subject);
        let body =
            format!("---------- Forwarded message ----------\nFrom: {}\n\n{}", msg.from, msg.body);
        self.send(user, to, &subject, &body, attachments, msg.category.as_deref())
    }

    /// Replies to the sender of message `id` (subject gains `Re: `).
    ///
    /// # Errors
    ///
    /// Fails if the message is missing or the sender is not local.
    pub fn reply(&mut self, user: &str, id: MessageId, body: &str) -> Result<MessageId, MailError> {
        let msg = self.read_message(user, id)?;
        let subject = format!("Re: {}", msg.subject);
        let to = msg.from.clone();
        self.send(user, &[to.as_str()], &subject, body, vec![], msg.category.as_deref())
    }

    fn load_attachments(&self, user: &str, msg: &Message) -> Result<Vec<Attachment>, MailError> {
        let mut out = Vec::new();
        for name in &msg.attachments {
            let path = format!("{}/{ATTACHMENTS_DIR}/{}/{name}", self.mail_dir(user), msg.id);
            let data = self.vfs.with(|fs| fs.read(&path))?;
            out.push(Attachment { name: name.clone(), data });
        }
        Ok(out)
    }

    /// Copies one attachment out of the mail store to `dest_path`.
    ///
    /// # Errors
    ///
    /// Fails if the message or attachment is missing, or the copy fails.
    pub fn save_attachment(
        &self,
        user: &str,
        id: MessageId,
        name: &str,
        dest_path: &str,
    ) -> Result<(), MailError> {
        let msg = self.read_message(user, id)?;
        if !msg.attachments.iter().any(|a| a == name) {
            return Err(MailError::NoSuchAttachment { id, name: name.to_owned() });
        }
        let src = format!("{}/{ATTACHMENTS_DIR}/{id}/{name}", self.mail_dir(user));
        self.vfs.with_mut(|fs| fs.cp(&src, dest_path, user))?;
        Ok(())
    }

    /// Returns the raw bytes of one attachment.
    ///
    /// # Errors
    ///
    /// Fails if the message or attachment is missing.
    pub fn attachment_data(
        &self,
        user: &str,
        id: MessageId,
        name: &str,
    ) -> Result<Bytes, MailError> {
        let src = format!("{}/{ATTACHMENTS_DIR}/{id}/{name}", self.mail_dir(user));
        self.vfs
            .with(|fs| fs.read(&src))
            .map_err(|_| MailError::NoSuchAttachment { id, name: name.to_owned() })
    }

    /// Case-insensitive substring search over subject and body, across all
    /// folders.
    ///
    /// # Errors
    ///
    /// Fails if the user has no mailbox.
    pub fn search(&self, user: &str, query: &str) -> Result<Vec<MessageSummary>, MailError> {
        let needle = query.to_lowercase();
        let mut out = Vec::new();
        for folder in self.folders(user)? {
            let dir = self.folder_dir(user, &folder);
            let entries = self.vfs.with(|fs| fs.ls(&dir))?;
            for e in entries.iter().filter(|e| !e.is_dir && e.name.ends_with(".eml")) {
                let text = self.vfs.with(|fs| fs.read_to_string(&e.path))?;
                let msg = Message::from_file(&e.path, &text)?;
                if msg.subject.to_lowercase().contains(&needle)
                    || msg.body.to_lowercase().contains(&needle)
                {
                    out.push(MessageSummary::of(&msg, &folder));
                }
            }
        }
        out.sort_by_key(|s| s.id);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conseca_vfs::Vfs;

    fn setup() -> MailSystem {
        let mut fs = Vfs::new();
        for (user, admin) in [("alice", false), ("bob", false), ("admin", true)] {
            fs.add_user(user, admin).unwrap();
        }
        let vfs = SharedVfs::new(fs);
        let mail = MailSystem::new(vfs, "work.com");
        for user in ["alice", "bob", "admin"] {
            mail.ensure_mailbox(user).unwrap();
        }
        mail
    }

    #[test]
    fn send_delivers_to_inbox_and_sent() {
        let mut mail = setup();
        let id = mail.send("alice", &["bob@work.com"], "Hi", "hello", vec![], None).unwrap();
        let bob_inbox = mail.list("bob", "Inbox").unwrap();
        assert_eq!(bob_inbox.len(), 1);
        assert_eq!(bob_inbox[0].id, id);
        assert!(!bob_inbox[0].read);
        let alice_sent = mail.list("alice", "Sent").unwrap();
        assert_eq!(alice_sent.len(), 1);
        assert!(alice_sent[0].read);
    }

    #[test]
    fn send_accepts_bare_usernames() {
        let mut mail = setup();
        mail.send("alice", &["bob"], "Hi", "x", vec![], None).unwrap();
        assert_eq!(mail.list("bob", "Inbox").unwrap().len(), 1);
    }

    #[test]
    fn send_to_unknown_recipient_fails() {
        let mut mail = setup();
        let err = mail.send("alice", &["mallory@evil.com"], "Hi", "x", vec![], None);
        assert!(matches!(err, Err(MailError::NoSuchMailbox { .. })));
        let err = mail.send("alice", &["ghost@work.com"], "Hi", "x", vec![], None);
        assert!(matches!(err, Err(MailError::NoSuchMailbox { .. })));
    }

    #[test]
    fn empty_recipients_rejected() {
        let mut mail = setup();
        assert!(matches!(
            mail.send("alice", &[], "Hi", "x", vec![], None),
            Err(MailError::InvalidAddress { .. })
        ));
    }

    #[test]
    fn multi_recipient_delivery() {
        let mut mail = setup();
        mail.send("admin", &["alice", "bob"], "All hands", "meeting", vec![], Some("work"))
            .unwrap();
        assert_eq!(mail.list("alice", "Inbox").unwrap().len(), 1);
        assert_eq!(mail.list("bob", "Inbox").unwrap().len(), 1);
        assert_eq!(mail.list("alice", "Inbox").unwrap()[0].category.as_deref(), Some("work"));
    }

    #[test]
    fn read_marks_read() {
        let mut mail = setup();
        let id = mail.send("alice", &["bob"], "Hi", "body text", vec![], None).unwrap();
        assert_eq!(mail.unread("bob").unwrap().len(), 1);
        let msg = mail.read_message("bob", id).unwrap();
        assert_eq!(msg.body, "body text");
        assert!(mail.unread("bob").unwrap().is_empty());
    }

    #[test]
    fn attachments_stored_and_retrievable() {
        let mut mail = setup();
        let att = Attachment { name: "report.pdf".into(), data: Bytes::from_static(b"PDFDATA") };
        let id = mail.send("alice", &["bob"], "Report", "see attached", vec![att], None).unwrap();
        let data = mail.attachment_data("bob", id, "report.pdf").unwrap();
        assert_eq!(&data[..], b"PDFDATA");
        mail.save_attachment("bob", id, "report.pdf", "/home/bob/report.pdf").unwrap();
        assert!(matches!(
            mail.save_attachment("bob", id, "nope.txt", "/home/bob/n"),
            Err(MailError::NoSuchAttachment { .. })
        ));
    }

    #[test]
    fn delete_removes_message_and_attachments() {
        let mut mail = setup();
        let att = Attachment { name: "a.txt".into(), data: Bytes::from_static(b"x") };
        let id = mail.send("alice", &["bob"], "Hi", "x", vec![att], None).unwrap();
        mail.delete("bob", id).unwrap();
        assert!(matches!(mail.read_message("bob", id), Err(MailError::NoSuchMessage { .. })));
        assert!(matches!(
            mail.attachment_data("bob", id, "a.txt"),
            Err(MailError::NoSuchAttachment { .. })
        ));
        // Alice's Sent copy is untouched.
        assert_eq!(mail.list("alice", "Sent").unwrap().len(), 1);
    }

    #[test]
    fn move_to_folder_archives() {
        let mut mail = setup();
        let id = mail.send("alice", &["bob"], "Hi", "x", vec![], None).unwrap();
        mail.move_to_folder("bob", id, "Archive").unwrap();
        assert!(mail.list("bob", "Inbox").unwrap().is_empty());
        assert_eq!(mail.list("bob", "Archive").unwrap().len(), 1);
        assert_eq!(mail.locate("bob", id).unwrap(), "Archive");
        // New custom folders are created on demand.
        mail.move_to_folder("bob", id, "work-urgent").unwrap();
        assert!(mail.folders("bob").unwrap().contains(&"work-urgent".to_string()));
    }

    #[test]
    fn categorize_and_categories() {
        let mut mail = setup();
        let id1 = mail.send("alice", &["bob"], "A", "x", vec![], None).unwrap();
        let _id2 = mail.send("alice", &["bob"], "B", "y", vec![], Some("family")).unwrap();
        mail.categorize("bob", id1, "work").unwrap();
        assert_eq!(mail.categories("bob").unwrap(), vec!["family", "work"]);
    }

    #[test]
    fn forward_copies_attachments_and_prefixes_subject() {
        let mut mail = setup();
        let att = Attachment { name: "inv.txt".into(), data: Bytes::from_static(b"invoice") };
        let id = mail.send("alice", &["bob"], "Invoice", "see attached", vec![att], None).unwrap();
        let fwd_id = mail.forward("bob", id, &["admin"]).unwrap();
        let inbox = mail.list("admin", "Inbox").unwrap();
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].subject, "Fwd: Invoice");
        assert!(inbox[0].attachments.contains(&"inv.txt".to_string()));
        let body = mail.read_message("admin", fwd_id).unwrap().body;
        assert!(body.contains("Forwarded message"));
        assert!(body.contains("alice@work.com"));
    }

    #[test]
    fn reply_targets_original_sender() {
        let mut mail = setup();
        let id = mail.send("alice", &["bob"], "Q", "question?", vec![], None).unwrap();
        mail.reply("bob", id, "answer!").unwrap();
        let alice_inbox = mail.list("alice", "Inbox").unwrap();
        assert_eq!(alice_inbox.len(), 1);
        assert_eq!(alice_inbox[0].subject, "Re: Q");
    }

    #[test]
    fn external_delivery_works_without_sender_mailbox() {
        let mut mail = setup();
        let id = mail
            .deliver_external("partner@external.org", "alice", "News", "hello", vec![], None)
            .unwrap();
        let msg = mail.read_message("alice", id).unwrap();
        assert_eq!(msg.from, "partner@external.org");
    }

    #[test]
    fn search_matches_subject_and_body_case_insensitively() {
        let mut mail = setup();
        mail.send("alice", &["bob"], "URGENT fix", "the server", vec![], None).unwrap();
        mail.send("alice", &["bob"], "lunch", "nothing urgent here", vec![], None).unwrap();
        mail.send("alice", &["bob"], "holiday", "beach photos", vec![], None).unwrap();
        let hits = mail.search("bob", "urgent").unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn ids_resume_after_restart() {
        let mut mail = setup();
        let id1 = mail.send("alice", &["bob"], "A", "x", vec![], None).unwrap();
        // A new MailSystem over the same VFS must not reuse ids.
        let vfs = mail.vfs.clone();
        let mut mail2 = MailSystem::new(vfs, "work.com");
        let id2 = mail2.send("alice", &["bob"], "B", "y", vec![], None).unwrap();
        assert!(id2 > id1);
    }

    #[test]
    fn local_user_rejects_foreign_domains() {
        let mail = setup();
        assert_eq!(mail.local_user("alice@work.com").as_deref(), Some("alice"));
        assert_eq!(mail.local_user("alice"), Some("alice".into()));
        assert_eq!(mail.local_user("alice@evil.com"), None);
        assert_eq!(mail.local_user("ghost@work.com"), None);
        assert_eq!(mail.local_user("@work.com"), None);
    }

    #[test]
    fn all_addresses_sorted() {
        let mail = setup();
        assert_eq!(mail.all_addresses(), vec!["admin@work.com", "alice@work.com", "bob@work.com"]);
    }
}
