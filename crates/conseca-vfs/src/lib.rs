//! An in-memory, journaled, POSIX-like filesystem.
//!
//! The paper's proof-of-concept agent manipulates a real Debian filesystem;
//! this crate provides the hermetic substitute: a
//! deterministic inode-based filesystem with users, mode bits, logical
//! timestamps, quota accounting, and a reversible mutation journal (the
//! "undo-log" the paper's §7 proposes for auditing and reverting agent
//! actions).
//!
//! # Examples
//!
//! ```
//! use conseca_vfs::Vfs;
//!
//! let mut fs = Vfs::new();
//! fs.add_user("alice", false).unwrap();
//! fs.mkdir("/home/alice/Backups", "alice").unwrap();
//! fs.write("/home/alice/Backups/notes.txt", b"important", "alice").unwrap();
//!
//! // Trusted context: the name tree, never file contents.
//! let tree = fs.tree("/home/alice", None).unwrap();
//! assert!(tree.contains("Backups/"));
//!
//! // Every mutation is journaled and reversible.
//! fs.rm("/home/alice/Backups/notes.txt").unwrap();
//! fs.undo_last().unwrap();
//! assert!(fs.is_file("/home/alice/Backups/notes.txt"));
//! ```

pub mod error;
pub mod fs;
pub mod inode;
pub mod journal;
pub mod path;
pub mod shared;

pub use error::VfsError;
pub use fs::{Access, Child, EntryInfo, User, Vfs};
pub use inode::{Inode, InodeId, InodeKind, Metadata, Snapshot};
pub use journal::{Journal, JournalEntry, UndoData};
pub use shared::SharedVfs;
