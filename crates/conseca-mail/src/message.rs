//! Message model and its on-disk (on-VFS) text format.
//!
//! Each message is one file under `/home/<user>/Mail/<Folder>/msg-<id>.eml`,
//! a simple RFC-822-like format: `Key: value` headers, a blank line, then
//! the body verbatim. Attachments live as separate files under
//! `Mail/Attachments/<id>/<name>` so filesystem tasks (e.g. "organise email
//! attachments into folders") can operate on them with ordinary file tools.

use bytes::Bytes;

use crate::error::MailError;

/// Globally unique message identifier.
pub type MessageId = u64;

/// A file attached to a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attachment {
    /// File name (no directories).
    pub name: String,
    /// Raw content.
    pub data: Bytes,
}

/// A parsed email message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Unique id.
    pub id: MessageId,
    /// Sender address (e.g. `bob@work.com`).
    pub from: String,
    /// Recipient addresses.
    pub to: Vec<String>,
    /// Subject line.
    pub subject: String,
    /// Body text. **Untrusted** content in the threat model: attackers
    /// control what they send.
    pub body: String,
    /// Optional category label (e.g. `work`, `family`).
    pub category: Option<String>,
    /// Whether the mailbox owner has read the message.
    pub read: bool,
    /// Logical send time.
    pub timestamp: u64,
    /// Names of attached files.
    pub attachments: Vec<String>,
}

impl Message {
    /// Serialises to the on-VFS text format.
    pub fn to_file(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("Id: {}\n", self.id));
        out.push_str(&format!("From: {}\n", self.from));
        out.push_str(&format!("To: {}\n", self.to.join(", ")));
        out.push_str(&format!("Subject: {}\n", sanitize_header(&self.subject)));
        if let Some(cat) = &self.category {
            out.push_str(&format!("Category: {}\n", sanitize_header(cat)));
        }
        out.push_str(&format!("Read: {}\n", self.read));
        out.push_str(&format!("Timestamp: {}\n", self.timestamp));
        for a in &self.attachments {
            out.push_str(&format!("Attachment: {}\n", sanitize_header(a)));
        }
        out.push('\n');
        out.push_str(&self.body);
        out
    }

    /// Parses the on-VFS text format.
    ///
    /// # Errors
    ///
    /// Returns [`MailError::MalformedMessage`] when mandatory headers are
    /// missing or unparsable.
    pub fn from_file(path: &str, text: &str) -> Result<Message, MailError> {
        let (header_end, body_start) = header_bounds(text.as_bytes());
        let headers = Headers::parse(&text[..header_end])
            .map_err(|reason| MailError::MalformedMessage { path: path.to_owned(), reason })?;
        Ok(Message {
            id: headers.id,
            from: headers.from.to_owned(),
            to: headers
                .to
                .split(',')
                .map(|s| s.trim().to_owned())
                .filter(|s| !s.is_empty())
                .collect(),
            subject: headers.subject.to_owned(),
            body: text[body_start..].to_owned(),
            category: headers.category.map(str::to_owned),
            read: headers.read,
            timestamp: headers.timestamp,
            attachments: headers.attachments.into_iter().map(str::to_owned).collect(),
        })
    }

    /// The canonical file name for this message.
    pub fn file_name(&self) -> String {
        format!("msg-{}.eml", self.id)
    }
}

/// Where a message file's header block ends and its body starts.
///
/// The headers end at the first blank line. A file without one is all
/// headers (less its trailing newlines) and has an empty body. Both
/// offsets sit next to a `\n`, so in a UTF-8 file they are `str` char
/// boundaries.
pub(crate) fn header_bounds(file: &[u8]) -> (usize, usize) {
    match file.windows(2).position(|w| w == b"\n\n") {
        Some(at) => (at, at + 2),
        None => {
            let end = file.iter().rposition(|&b| b != b'\n').map_or(0, |i| i + 1);
            (end, file.len())
        }
    }
}

/// The header block of one message file, borrowed from its text: every
/// field but the body.
///
/// [`Message::from_file`] and the mail system's category scan both parse
/// through [`Headers::parse`], so a file is malformed for one exactly
/// when it is malformed for the other.
pub(crate) struct Headers<'a> {
    pub(crate) id: MessageId,
    pub(crate) from: &'a str,
    /// The raw comma-separated `To` value.
    pub(crate) to: &'a str,
    pub(crate) subject: &'a str,
    pub(crate) category: Option<&'a str>,
    pub(crate) read: bool,
    pub(crate) timestamp: u64,
    pub(crate) attachments: Vec<&'a str>,
}

impl<'a> Headers<'a> {
    /// Parses a header block (the text before [`header_bounds`]'s split).
    /// A repeated header keeps its last value, except `Attachment`, which
    /// accumulates.
    ///
    /// # Errors
    ///
    /// Returns why the block is malformed: a line without a colon, an
    /// unparsable `Id` or `Timestamp`, or a missing `Id` or `From`.
    pub(crate) fn parse(block: &'a str) -> Result<Headers<'a>, String> {
        let mut id = None;
        let mut from = None;
        let mut headers = Headers {
            id: 0,
            from: "",
            to: "",
            subject: "",
            category: None,
            read: false,
            timestamp: 0,
            attachments: Vec::new(),
        };
        for line in block.lines() {
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| format!("header line without colon: {line:?}"))?;
            let value = value.trim();
            match key {
                "Id" => id = Some(value.parse().map_err(|_| "bad Id")?),
                "From" => from = Some(value),
                "To" => headers.to = value,
                "Subject" => headers.subject = value,
                "Category" => headers.category = Some(value),
                "Read" => headers.read = value == "true",
                "Timestamp" => headers.timestamp = value.parse().map_err(|_| "bad Timestamp")?,
                "Attachment" => headers.attachments.push(value),
                _ => {} // Unknown headers are ignored for forward compatibility.
            }
        }
        headers.id = id.ok_or("missing Id")?;
        headers.from = from.ok_or("missing From")?;
        Ok(headers)
    }
}

/// Strips newlines from header values so a crafted subject cannot smuggle
/// extra headers into the file format (header-injection hardening).
fn sanitize_header(v: &str) -> String {
    v.replace(['\n', '\r'], " ")
}

/// A lightweight listing view of a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageSummary {
    /// Unique id.
    pub id: MessageId,
    /// Sender address.
    pub from: String,
    /// Recipients.
    pub to: Vec<String>,
    /// Subject line.
    pub subject: String,
    /// Category label, if any.
    pub category: Option<String>,
    /// Read flag.
    pub read: bool,
    /// Logical send time.
    pub timestamp: u64,
    /// Folder the message currently lives in.
    pub folder: String,
    /// Attachment names.
    pub attachments: Vec<String>,
}

impl MessageSummary {
    /// Builds a summary from a parsed message and its folder.
    pub fn of(msg: &Message, folder: &str) -> Self {
        MessageSummary {
            id: msg.id,
            from: msg.from.clone(),
            to: msg.to.clone(),
            subject: msg.subject.clone(),
            category: msg.category.clone(),
            read: msg.read,
            timestamp: msg.timestamp,
            folder: folder.to_owned(),
            attachments: msg.attachments.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Message {
        Message {
            id: 7,
            from: "bob@work.com".into(),
            to: vec!["alice@work.com".into(), "carol@work.com".into()],
            subject: "Quarterly report".into(),
            body: "Please find the report attached.\n\nBest,\nBob".into(),
            category: Some("work".into()),
            read: false,
            timestamp: 42,
            attachments: vec!["report.pdf".into()],
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let msg = sample();
        let text = msg.to_file();
        let parsed = Message::from_file("/x", &text).unwrap();
        assert_eq!(parsed, msg);
    }

    #[test]
    fn body_with_blank_lines_survives() {
        let mut msg = sample();
        msg.body = "line one\n\nline two\n\n\nline three".into();
        let parsed = Message::from_file("/x", &msg.to_file()).unwrap();
        assert_eq!(parsed.body, msg.body);
    }

    #[test]
    fn empty_body_parses() {
        let mut msg = sample();
        msg.body = String::new();
        let parsed = Message::from_file("/x", &msg.to_file()).unwrap();
        assert_eq!(parsed.body, "");
    }

    #[test]
    fn header_injection_in_subject_is_neutralised() {
        let mut msg = sample();
        msg.subject = "hi\nRead: true\n\nfake body".into();
        let parsed = Message::from_file("/x", &msg.to_file()).unwrap();
        // The newline was flattened; the read flag was not forged.
        assert!(!parsed.read);
        assert!(parsed.subject.contains("hi"));
        assert_eq!(parsed.body, msg.body);
    }

    #[test]
    fn missing_id_is_malformed() {
        let text = "From: a\nTo: b\n\nbody";
        assert!(matches!(Message::from_file("/x", text), Err(MailError::MalformedMessage { .. })));
    }

    #[test]
    fn a_file_without_a_blank_line_is_all_headers() {
        assert_eq!(header_bounds(b"Id: 1\nFrom: a\n\n\n"), (13, 15));
        assert_eq!(header_bounds(b"Id: 1\nFrom: a\n\n"), (13, 15));
        assert_eq!(header_bounds(b"Id: 1\nFrom: a\n"), (13, 14));
        assert_eq!(header_bounds(b"\n"), (0, 1));
        let m = Message::from_file("/x", "Id: 1\nFrom: a\nCategory: c\n").unwrap();
        assert_eq!((m.category.as_deref(), m.body.as_str()), (Some("c"), ""));
    }

    #[test]
    fn a_repeated_header_keeps_its_last_value() {
        let text =
            "Id: 1\nFrom: a\nCategory: first\nCategory: last\nAttachment: x\nAttachment: y\n\n";
        let m = Message::from_file("/x", text).unwrap();
        assert_eq!(m.category.as_deref(), Some("last"));
        assert_eq!(m.attachments, vec!["x", "y"]);
    }

    #[test]
    fn unknown_headers_ignored() {
        let text = "Id: 1\nFrom: a@work.com\nTo: b@work.com\nX-Spam: yes\n\nbody";
        let m = Message::from_file("/x", text).unwrap();
        assert_eq!(m.id, 1);
        assert_eq!(m.body, "body");
    }

    #[test]
    fn summary_copies_fields() {
        let msg = sample();
        let s = MessageSummary::of(&msg, "Inbox");
        assert_eq!(s.id, msg.id);
        assert_eq!(s.folder, "Inbox");
        assert_eq!(s.attachments, vec!["report.pdf".to_string()]);
    }

    #[test]
    fn file_name_is_stable() {
        assert_eq!(sample().file_name(), "msg-7.eml");
    }
}
