//! The in-memory filesystem.

use std::collections::HashMap;

use bytes::Bytes;

use crate::error::VfsError;
use crate::inode::{Inode, InodeId, InodeKind, Metadata, Snapshot};
use crate::journal::{Journal, JournalEntry, UndoData};
use crate::path;

/// Access kinds for permission queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Read access (`r` bit).
    Read,
    /// Write access (`w` bit).
    Write,
    /// Execute/traverse access (`x` bit).
    Execute,
}

/// A directory listing or walk entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryInfo {
    /// Canonical absolute path.
    pub path: String,
    /// Entry name within its parent.
    pub name: String,
    /// Whether the entry is a directory.
    pub is_dir: bool,
    /// File size in bytes (0 for directories).
    pub size: u64,
    /// Mode bits.
    pub mode: u32,
    /// Owning user.
    pub owner: String,
    /// Logical modification tick.
    pub modified: u64,
}

/// A borrowed view of one directory entry, yielded by [`Vfs::children`].
///
/// Scans that need only names and file bytes (trusted-context extraction,
/// the mail category scan) read them through this view without building
/// an [`EntryInfo`]: its canonical path is rendered only on request.
#[derive(Clone, Copy)]
pub struct Child<'a> {
    fs: &'a Vfs,
    id: InodeId,
    name: &'a str,
}

impl<'a> Child<'a> {
    /// Entry name within its parent.
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// Whether the entry is a directory.
    pub fn is_dir(&self) -> bool {
        self.fs.node(self.id).is_dir()
    }

    /// The file's contents, or `None` for a directory.
    pub fn data(&self) -> Option<&'a Bytes> {
        match &self.fs.node(self.id).kind {
            InodeKind::File { data } => Some(data),
            InodeKind::Dir { .. } => None,
        }
    }

    /// This entry's own children in name order (none for a file).
    pub fn children(&self) -> impl Iterator<Item = Child<'a>> + 'a {
        self.fs.children_of(self.id)
    }

    /// Canonical absolute path (allocates; for error reports).
    pub fn path(&self) -> String {
        self.fs.path_of(self.id)
    }

    /// The full listing entry for this child.
    pub fn info(&self) -> EntryInfo {
        self.fs.info(self.id)
    }
}

/// A registered user account.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct User {
    /// Account name (also the home-directory name).
    pub name: String,
    /// Whether this account is an administrator.
    pub is_admin: bool,
}

/// An in-memory, journaled, quota-aware POSIX-like filesystem.
///
/// This is the substrate the computer-use agent's filesystem tool executes
/// against (the paper ran on a real Debian filesystem; this is the hermetic
/// substitute). All timestamps come from a logical clock, so runs
/// are fully deterministic.
///
/// # Examples
///
/// ```
/// use conseca_vfs::Vfs;
///
/// let mut fs = Vfs::new();
/// fs.add_user("alice", false).unwrap();
/// fs.write("/home/alice/notes.txt", b"meeting at 10", "alice").unwrap();
/// assert_eq!(fs.read_to_string("/home/alice/notes.txt").unwrap(), "meeting at 10");
/// ```
#[derive(Debug)]
pub struct Vfs {
    inodes: HashMap<InodeId, Inode>,
    next_id: InodeId,
    root: InodeId,
    clock: u64,
    capacity: Option<u64>,
    used_bytes: u64,
    journal: Journal,
    journal_enabled: bool,
    users: HashMap<String, User>,
}

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs {
    /// Creates an empty filesystem with an unlimited capacity.
    pub fn new() -> Self {
        let root_meta = Metadata { owner: "root".into(), mode: 0o755, created: 0, modified: 0 };
        let root = Inode {
            id: 0,
            parent: 0,
            name: String::new(),
            meta: root_meta,
            kind: InodeKind::Dir { children: Default::default() },
        };
        let mut inodes = HashMap::new();
        inodes.insert(0, root);
        Vfs {
            inodes,
            next_id: 1,
            root: 0,
            clock: 0,
            capacity: None,
            used_bytes: 0,
            journal: Journal::new(),
            journal_enabled: true,
            users: HashMap::new(),
        }
    }

    /// Creates a filesystem with a byte capacity (for disk-space scenarios).
    pub fn with_capacity(bytes: u64) -> Self {
        let mut fs = Self::new();
        fs.capacity = Some(bytes);
        fs
    }

    // ---------------------------------------------------------------- users

    /// Registers a user and creates `/home/<name>`.
    ///
    /// # Errors
    ///
    /// Fails if the home directory already exists.
    pub fn add_user(&mut self, name: &str, is_admin: bool) -> Result<(), VfsError> {
        self.mkdir_p("/home", "root")?;
        self.mkdir(&format!("/home/{name}"), name)?;
        self.users.insert(name.to_owned(), User { name: name.to_owned(), is_admin });
        Ok(())
    }

    /// All registered users, sorted by name.
    pub fn users(&self) -> Vec<User> {
        let mut v: Vec<User> = self.users.values().cloned().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Looks up a user by name.
    pub fn user(&self, name: &str) -> Option<&User> {
        self.users.get(name)
    }

    /// The home directory path of `name`.
    pub fn home_of(&self, name: &str) -> String {
        format!("/home/{name}")
    }

    // ---------------------------------------------------------------- clock

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.clock
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    // ------------------------------------------------------------- resolve

    fn node(&self, id: InodeId) -> &Inode {
        self.inodes.get(&id).expect("inode ids are never dangling")
    }

    fn node_mut(&mut self, id: InodeId) -> &mut Inode {
        self.inodes.get_mut(&id).expect("inode ids are never dangling")
    }

    /// Resolves a path to an inode id.
    fn resolve(&self, p: &str) -> Result<InodeId, VfsError> {
        let comps = path::components(p)?;
        let mut cur = self.root;
        for comp in &comps {
            let node = self.node(cur);
            match &node.kind {
                InodeKind::Dir { children } => match children.get(comp) {
                    Some(&child) => cur = child,
                    None => return Err(VfsError::NotFound { path: p.to_owned() }),
                },
                InodeKind::File { .. } => {
                    return Err(VfsError::NotADirectory { path: p.to_owned() })
                }
            }
        }
        Ok(cur)
    }

    /// Resolves the parent directory of `p`, returning `(parent_id, name)`.
    fn resolve_parent(&self, p: &str) -> Result<(InodeId, String), VfsError> {
        let (parent, name) = path::split_parent(p)?;
        let pid = self.resolve(&parent)?;
        if !self.node(pid).is_dir() {
            return Err(VfsError::NotADirectory { path: parent });
        }
        Ok((pid, name))
    }

    /// Reconstructs the canonical path of an inode.
    fn path_of(&self, mut id: InodeId) -> String {
        let mut parts: Vec<String> = Vec::new();
        while id != self.root {
            let n = self.node(id);
            parts.push(n.name.clone());
            id = n.parent;
        }
        parts.reverse();
        path::join(&parts)
    }

    /// Reports whether `p` exists.
    pub fn exists(&self, p: &str) -> bool {
        self.resolve(p).is_ok()
    }

    /// Reports whether `p` is an existing regular file.
    pub fn is_file(&self, p: &str) -> bool {
        self.resolve(p).map(|id| self.node(id).is_file()).unwrap_or(false)
    }

    /// Reports whether `p` is an existing directory.
    pub fn is_dir(&self, p: &str) -> bool {
        self.resolve(p).map(|id| self.node(id).is_dir()).unwrap_or(false)
    }

    // -------------------------------------------------------------- quota

    /// Total bytes of file content currently stored.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Configured capacity, if any.
    pub fn capacity(&self) -> Option<u64> {
        self.capacity
    }

    /// Free bytes under the capacity (`u64::MAX` when unlimited).
    pub fn free_bytes(&self) -> u64 {
        match self.capacity {
            Some(cap) => cap.saturating_sub(self.used_bytes),
            None => u64::MAX,
        }
    }

    /// Percentage of capacity in use (0 when unlimited).
    pub fn usage_percent(&self) -> u8 {
        match self.capacity {
            Some(cap) if cap > 0 => ((self.used_bytes * 100) / cap).min(100) as u8,
            _ => 0,
        }
    }

    fn charge(&mut self, new_bytes: u64, freed_bytes: u64) -> Result<(), VfsError> {
        let projected = self.used_bytes + new_bytes - freed_bytes.min(self.used_bytes);
        if let Some(cap) = self.capacity {
            if projected > cap {
                return Err(VfsError::QuotaExceeded {
                    requested: new_bytes,
                    available: cap.saturating_sub(self.used_bytes),
                });
            }
        }
        self.used_bytes = projected;
        Ok(())
    }

    // ------------------------------------------------------------ journal

    /// Read-only view of the mutation journal (the §7 undo-log).
    pub fn journal(&self) -> &[JournalEntry] {
        self.journal.entries()
    }

    /// Enables or disables journal recording (enabled by default).
    pub fn set_journal_enabled(&mut self, enabled: bool) {
        self.journal_enabled = enabled;
    }

    /// Drops all journal entries.
    ///
    /// Environment builders call this after seeding the filesystem so the
    /// undo-log covers only the agent's own actions.
    pub fn clear_journal(&mut self) {
        self.journal.clear();
    }

    fn record(&mut self, description: String, undo: UndoData) {
        if self.journal_enabled {
            let tick = self.clock;
            self.journal.record(tick, description, undo);
        }
    }

    /// Reverses the most recent mutation. Returns its description.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the reversal itself (which can only
    /// happen if the log was tampered with or journaling was toggled
    /// mid-stream).
    pub fn undo_last(&mut self) -> Result<Option<String>, VfsError> {
        let entry = match self.journal.pop() {
            Some(e) => e,
            None => return Ok(None),
        };
        let was_enabled = self.journal_enabled;
        self.journal_enabled = false;
        let result = self.apply_undo(entry.undo);
        self.journal_enabled = was_enabled;
        result.map(|_| Some(entry.description))
    }

    /// Reverses every journaled mutation, newest first. Returns how many
    /// entries were undone.
    ///
    /// # Errors
    ///
    /// Stops at and propagates the first reversal failure.
    pub fn undo_all(&mut self) -> Result<usize, VfsError> {
        let mut count = 0;
        while self.undo_last()?.is_some() {
            count += 1;
        }
        Ok(count)
    }

    fn apply_undo(&mut self, undo: UndoData) -> Result<(), VfsError> {
        match undo {
            UndoData::RemovePath { path: p } => {
                self.rm_r(&p)?;
                Ok(())
            }
            UndoData::RestoreSubtree { parent, snapshot } => {
                let pid = self.resolve(&parent)?;
                self.attach_snapshot(pid, &snapshot, None)?;
                Ok(())
            }
            UndoData::RestoreFile { path: p, data, modified } => {
                let id = self.resolve(&p)?;
                let new_len = data.len() as u64;
                let old_len = self.node(id).size();
                // Undo must succeed: bypass the quota check, adjust usage.
                self.used_bytes =
                    self.used_bytes + new_len - old_len.min(self.used_bytes + new_len);
                let node = self.node_mut(id);
                node.kind = InodeKind::File { data };
                node.meta.modified = modified;
                Ok(())
            }
            UndoData::RenameBack { from, to } => self.mv(&to, &from),
            UndoData::RestoreMode { path: p, mode } => {
                let id = self.resolve(&p)?;
                self.node_mut(id).meta.mode = mode;
                Ok(())
            }
            UndoData::RestoreOwner { path: p, owner } => {
                let id = self.resolve(&p)?;
                self.node_mut(id).meta.owner = owner;
                Ok(())
            }
        }
    }

    // ----------------------------------------------------------- creation

    /// Creates a directory. The parent must exist.
    ///
    /// # Errors
    ///
    /// Fails if the parent is missing or the target exists.
    pub fn mkdir(&mut self, p: &str, owner: &str) -> Result<(), VfsError> {
        let (pid, name) = self.resolve_parent(p)?;
        self.insert_child(
            pid,
            &name,
            owner,
            0o755,
            InodeKind::Dir { children: Default::default() },
        )?;
        let canon = path::canonicalize(p)?;
        self.record(format!("mkdir {canon}"), UndoData::RemovePath { path: canon.clone() });
        Ok(())
    }

    /// Creates a directory and any missing ancestors (like `mkdir -p`).
    ///
    /// # Errors
    ///
    /// Fails if a non-directory blocks the path.
    pub fn mkdir_p(&mut self, p: &str, owner: &str) -> Result<(), VfsError> {
        let comps = path::components(p)?;
        let mut cur = String::new();
        for comp in comps {
            cur.push('/');
            cur.push_str(&comp);
            match self.resolve(&cur) {
                Ok(id) if self.node(id).is_dir() => {}
                Ok(_) => return Err(VfsError::NotADirectory { path: cur }),
                Err(VfsError::NotFound { .. }) => self.mkdir(&cur, owner)?,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Creates an empty file, or bumps the mtime if it exists (like `touch`).
    ///
    /// # Errors
    ///
    /// Fails if the parent directory is missing or the path names a directory.
    pub fn touch(&mut self, p: &str, owner: &str) -> Result<(), VfsError> {
        match self.resolve(p) {
            Ok(id) => {
                if self.node(id).is_dir() {
                    return Err(VfsError::IsADirectory { path: p.to_owned() });
                }
                let t = self.tick();
                self.node_mut(id).meta.modified = t;
                Ok(())
            }
            Err(VfsError::NotFound { .. }) => {
                let (pid, name) = self.resolve_parent(p)?;
                self.insert_child(
                    pid,
                    &name,
                    owner,
                    0o644,
                    InodeKind::File { data: Bytes::new() },
                )?;
                let canon = path::canonicalize(p)?;
                self.record(format!("touch {canon}"), UndoData::RemovePath { path: canon.clone() });
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Writes `data` to `p`, creating or truncating the file.
    ///
    /// # Errors
    ///
    /// Fails on a missing parent, a directory target, or quota exhaustion.
    pub fn write(&mut self, p: &str, data: &[u8], owner: &str) -> Result<(), VfsError> {
        match self.resolve(p) {
            Ok(id) => {
                if self.node(id).is_dir() {
                    return Err(VfsError::IsADirectory { path: p.to_owned() });
                }
                let old = match &self.node(id).kind {
                    InodeKind::File { data } => data.clone(),
                    InodeKind::Dir { .. } => unreachable!("checked above"),
                };
                self.charge(data.len() as u64, old.len() as u64)?;
                let old_modified = self.node(id).meta.modified;
                let t = self.tick();
                let canon = path::canonicalize(p)?;
                let node = self.node_mut(id);
                node.kind = InodeKind::File { data: Bytes::copy_from_slice(data) };
                node.meta.modified = t;
                self.record(
                    format!("write {canon} ({} bytes, replacing {})", data.len(), old.len()),
                    UndoData::RestoreFile {
                        path: canon.clone(),
                        data: old,
                        modified: old_modified,
                    },
                );
                Ok(())
            }
            Err(VfsError::NotFound { .. }) => {
                let (pid, name) = self.resolve_parent(p)?;
                self.charge(data.len() as u64, 0)?;
                self.insert_child(
                    pid,
                    &name,
                    owner,
                    0o644,
                    InodeKind::File { data: Bytes::copy_from_slice(data) },
                )?;
                let canon = path::canonicalize(p)?;
                self.record(
                    format!("create {canon} ({} bytes)", data.len()),
                    UndoData::RemovePath { path: canon.clone() },
                );
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Appends `data` to an existing file (creating it if missing).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Vfs::write`].
    pub fn append(&mut self, p: &str, data: &[u8], owner: &str) -> Result<(), VfsError> {
        match self.resolve(p) {
            Ok(_) => {
                let mut all = self.read(p)?.to_vec();
                all.extend_from_slice(data);
                self.write(p, &all, owner)
            }
            Err(VfsError::NotFound { .. }) => self.write(p, data, owner),
            Err(e) => Err(e),
        }
    }

    fn insert_child(
        &mut self,
        pid: InodeId,
        name: &str,
        owner: &str,
        mode: u32,
        kind: InodeKind,
    ) -> Result<InodeId, VfsError> {
        if name.is_empty() || name.contains('/') {
            return Err(VfsError::InvalidPath { path: name.to_owned() });
        }
        let exists = match &self.node(pid).kind {
            InodeKind::Dir { children } => children.contains_key(name),
            InodeKind::File { .. } => {
                return Err(VfsError::NotADirectory { path: self.path_of(pid) })
            }
        };
        if exists {
            let mut p = self.path_of(pid);
            if !p.ends_with('/') {
                p.push('/');
            }
            p.push_str(name);
            return Err(VfsError::AlreadyExists { path: path::canonicalize(&p)? });
        }
        let t = self.tick();
        let id = self.next_id;
        self.next_id += 1;
        let inode = Inode {
            id,
            parent: pid,
            name: name.to_owned(),
            meta: Metadata { owner: owner.to_owned(), mode, created: t, modified: t },
            kind,
        };
        self.inodes.insert(id, inode);
        match &mut self.node_mut(pid).kind {
            InodeKind::Dir { children } => {
                children.insert(name.to_owned(), id);
            }
            InodeKind::File { .. } => unreachable!("checked above"),
        }
        self.node_mut(pid).meta.modified = t;
        Ok(id)
    }

    // ------------------------------------------------------------ reading

    /// Reads a file's contents.
    ///
    /// # Errors
    ///
    /// Fails if the path is missing or names a directory.
    pub fn read(&self, p: &str) -> Result<Bytes, VfsError> {
        let id = self.resolve(p)?;
        match &self.node(id).kind {
            InodeKind::File { data } => Ok(data.clone()),
            InodeKind::Dir { .. } => Err(VfsError::IsADirectory { path: p.to_owned() }),
        }
    }

    /// Reads a file as lossy UTF-8 text.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Vfs::read`].
    pub fn read_to_string(&self, p: &str) -> Result<String, VfsError> {
        Ok(String::from_utf8_lossy(&self.read(p)?).into_owned())
    }

    /// Metadata for one path.
    ///
    /// # Errors
    ///
    /// Fails if the path does not resolve.
    pub fn stat(&self, p: &str) -> Result<EntryInfo, VfsError> {
        let id = self.resolve(p)?;
        Ok(self.info(id))
    }

    fn info(&self, id: InodeId) -> EntryInfo {
        let n = self.node(id);
        EntryInfo {
            path: self.path_of(id),
            name: n.name.clone(),
            is_dir: n.is_dir(),
            size: n.size(),
            mode: n.meta.mode,
            owner: n.meta.owner.clone(),
            modified: n.meta.modified,
        }
    }

    /// Lists a directory in name order.
    ///
    /// # Errors
    ///
    /// Fails if the path is missing or is not a directory.
    pub fn ls(&self, p: &str) -> Result<Vec<EntryInfo>, VfsError> {
        Ok(self.children(p)?.map(|c| c.info()).collect())
    }

    /// Iterates a directory's entries in name order, borrowing names and
    /// file bytes in place.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Vfs::ls`].
    pub fn children<'a>(
        &'a self,
        p: &str,
    ) -> Result<impl Iterator<Item = Child<'a>> + 'a, VfsError> {
        let id = self.resolve(p)?;
        if !self.node(id).is_dir() {
            return Err(VfsError::NotADirectory { path: p.to_owned() });
        }
        Ok(self.children_of(id))
    }

    fn children_of(&self, id: InodeId) -> impl Iterator<Item = Child<'_>> {
        let children = match &self.node(id).kind {
            InodeKind::Dir { children } => Some(children),
            InodeKind::File { .. } => None,
        };
        children.into_iter().flatten().map(move |(name, &id)| Child {
            fs: self,
            id,
            name: name.as_str(),
        })
    }

    /// Walks the subtree at `p` in depth-first preorder (excluding `p`).
    ///
    /// # Errors
    ///
    /// Fails if `p` does not resolve.
    pub fn walk(&self, p: &str) -> Result<Vec<EntryInfo>, VfsError> {
        let id = self.resolve(p)?;
        let mut out = Vec::new();
        self.walk_into(id, &mut out);
        Ok(out)
    }

    fn walk_into(&self, id: InodeId, out: &mut Vec<EntryInfo>) {
        if let InodeKind::Dir { children } = &self.node(id).kind {
            for &child in children.values() {
                out.push(self.info(child));
                self.walk_into(child, out);
            }
        }
    }

    /// Returns the paths under `p` whose entry satisfies `pred`.
    ///
    /// # Errors
    ///
    /// Fails if `p` does not resolve.
    pub fn find<F>(&self, p: &str, mut pred: F) -> Result<Vec<EntryInfo>, VfsError>
    where
        F: FnMut(&EntryInfo) -> bool,
    {
        Ok(self.walk(p)?.into_iter().filter(|e| pred(e)).collect())
    }

    /// Total bytes of file content in the subtree at `p` (like `du -s`).
    ///
    /// # Errors
    ///
    /// Fails if `p` does not resolve.
    pub fn du(&self, p: &str) -> Result<u64, VfsError> {
        let id = self.resolve(p)?;
        let own = self.node(id).size();
        Ok(own + self.walk(p)?.iter().map(|e| e.size).sum::<u64>())
    }

    /// Renders the *name tree* of the subtree at `p` — the structure Conseca
    /// treats as trusted context (§4.1: "file and directory names are
    /// trusted", contents are not).
    ///
    /// # Errors
    ///
    /// Fails if `p` does not resolve.
    pub fn tree(&self, p: &str, max_depth: Option<usize>) -> Result<String, VfsError> {
        let id = self.resolve(p)?;
        let mut out = String::new();
        let name = if id == self.root { "/".to_owned() } else { self.node(id).name.clone() };
        out.push_str(&name);
        if self.node(id).is_dir() {
            out.push('/');
        }
        out.push('\n');
        self.tree_into(id, 1, max_depth, &mut out);
        Ok(out)
    }

    fn tree_into(&self, id: InodeId, depth: usize, max_depth: Option<usize>, out: &mut String) {
        if let Some(max) = max_depth {
            if depth > max {
                return;
            }
        }
        if let InodeKind::Dir { children } = &self.node(id).kind {
            for (name, &child) in children {
                for _ in 0..depth {
                    out.push_str("  ");
                }
                out.push_str(name);
                if self.node(child).is_dir() {
                    out.push('/');
                }
                out.push('\n');
                self.tree_into(child, depth + 1, max_depth, out);
            }
        }
    }

    // ------------------------------------------------------------ removal

    /// Removes a regular file (like `rm`).
    ///
    /// # Errors
    ///
    /// Fails on directories and missing paths.
    pub fn rm(&mut self, p: &str) -> Result<(), VfsError> {
        let id = self.resolve(p)?;
        if self.node(id).is_dir() {
            return Err(VfsError::IsADirectory { path: p.to_owned() });
        }
        self.remove_subtree(id, "rm")
    }

    /// Removes an empty directory (like `rmdir`).
    ///
    /// # Errors
    ///
    /// Fails on files, non-empty directories, and missing paths.
    pub fn rmdir(&mut self, p: &str) -> Result<(), VfsError> {
        let id = self.resolve(p)?;
        match &self.node(id).kind {
            InodeKind::File { .. } => Err(VfsError::NotADirectory { path: p.to_owned() }),
            InodeKind::Dir { children } => {
                if !children.is_empty() {
                    return Err(VfsError::DirectoryNotEmpty { path: p.to_owned() });
                }
                self.remove_subtree(id, "rmdir")
            }
        }
    }

    /// Removes a file or directory subtree (like `rm -r`).
    ///
    /// # Errors
    ///
    /// Fails on missing paths and on the root directory.
    pub fn rm_r(&mut self, p: &str) -> Result<(), VfsError> {
        let id = self.resolve(p)?;
        self.remove_subtree(id, "rm -r")
    }

    fn remove_subtree(&mut self, id: InodeId, verb: &str) -> Result<(), VfsError> {
        if id == self.root {
            return Err(VfsError::InvalidPath { path: "/".to_owned() });
        }
        let full = self.path_of(id);
        let parent = self.node(id).parent;
        let parent_path = self.path_of(parent);
        let snapshot = self.snapshot_subtree(id);
        let freed = snapshot.total_bytes();
        // Detach from parent.
        let name = self.node(id).name.clone();
        if let InodeKind::Dir { children } = &mut self.node_mut(parent).kind {
            children.remove(&name);
        }
        self.drop_subtree(id);
        self.used_bytes = self.used_bytes.saturating_sub(freed);
        let t = self.tick();
        self.node_mut(parent).meta.modified = t;
        self.record(
            format!("{verb} {full} ({} files, {} bytes)", snapshot.file_count(), freed),
            UndoData::RestoreSubtree { parent: parent_path, snapshot },
        );
        Ok(())
    }

    fn drop_subtree(&mut self, id: InodeId) {
        let children: Vec<InodeId> = match &self.node(id).kind {
            InodeKind::Dir { children } => children.values().copied().collect(),
            InodeKind::File { .. } => Vec::new(),
        };
        for child in children {
            self.drop_subtree(child);
        }
        self.inodes.remove(&id);
    }

    /// Copies the subtree at `id` into a detached [`Snapshot`].
    fn snapshot_subtree(&self, id: InodeId) -> Snapshot {
        let n = self.node(id);
        match &n.kind {
            InodeKind::File { data } => {
                Snapshot::File { name: n.name.clone(), data: data.clone(), meta: n.meta.clone() }
            }
            InodeKind::Dir { children } => Snapshot::Dir {
                name: n.name.clone(),
                meta: n.meta.clone(),
                children: children.values().map(|&c| self.snapshot_subtree(c)).collect(),
            },
        }
    }

    /// Re-creates `snapshot` under directory `pid`. When `rename` is given,
    /// the snapshot root takes that name instead of its recorded one.
    fn attach_snapshot(
        &mut self,
        pid: InodeId,
        snapshot: &Snapshot,
        rename: Option<&str>,
    ) -> Result<InodeId, VfsError> {
        let name = rename.unwrap_or(snapshot.name()).to_owned();
        match snapshot {
            Snapshot::File { data, meta, .. } => {
                let id = self.insert_child(
                    pid,
                    &name,
                    &meta.owner,
                    meta.mode,
                    InodeKind::File { data: data.clone() },
                )?;
                self.used_bytes += data.len() as u64;
                Ok(id)
            }
            Snapshot::Dir { meta, children, .. } => {
                let id = self.insert_child(
                    pid,
                    &name,
                    &meta.owner,
                    meta.mode,
                    InodeKind::Dir { children: Default::default() },
                )?;
                for child in children {
                    self.attach_snapshot(id, child, None)?;
                }
                Ok(id)
            }
        }
    }

    // ------------------------------------------------------------ mv / cp

    /// Moves/renames `from` to the full destination path `to`.
    ///
    /// # Errors
    ///
    /// Fails if the destination exists, the source is missing, or a
    /// directory would be moved into its own subtree.
    pub fn mv(&mut self, from: &str, to: &str) -> Result<(), VfsError> {
        let src = self.resolve(from)?;
        if src == self.root {
            return Err(VfsError::InvalidPath { path: "/".to_owned() });
        }
        if self.exists(to) {
            return Err(VfsError::AlreadyExists { path: to.to_owned() });
        }
        let from_canon = self.path_of(src);
        let to_canon = path::canonicalize(to)?;
        if self.node(src).is_dir() && path::is_within(&from_canon, &to_canon)? {
            return Err(VfsError::IntoItself { from: from_canon, to: to_canon });
        }
        let (new_pid, new_name) = self.resolve_parent(to)?;
        // Detach from the old parent.
        let old_pid = self.node(src).parent;
        let old_name = self.node(src).name.clone();
        if let InodeKind::Dir { children } = &mut self.node_mut(old_pid).kind {
            children.remove(&old_name);
        }
        // Attach under the new parent.
        let t = self.tick();
        {
            let node = self.node_mut(src);
            node.parent = new_pid;
            node.name = new_name.clone();
            node.meta.modified = t;
        }
        if let InodeKind::Dir { children } = &mut self.node_mut(new_pid).kind {
            children.insert(new_name, src);
        }
        self.node_mut(old_pid).meta.modified = t;
        self.node_mut(new_pid).meta.modified = t;
        self.record(
            format!("mv {from_canon} -> {to_canon}"),
            UndoData::RenameBack { from: from_canon.clone(), to: to_canon },
        );
        Ok(())
    }

    /// Copies a file or subtree to the full destination path `to`.
    ///
    /// The copy is owned by `owner` at its root (children keep their
    /// recorded owners), preserving mode bits.
    ///
    /// # Errors
    ///
    /// Fails if the destination exists or quota would be exceeded.
    pub fn cp(&mut self, from: &str, to: &str, owner: &str) -> Result<(), VfsError> {
        let src = self.resolve(from)?;
        if self.exists(to) {
            return Err(VfsError::AlreadyExists { path: to.to_owned() });
        }
        let snapshot = self.snapshot_subtree(src);
        self.charge(snapshot.total_bytes(), 0)?;
        // `charge` already accounted the bytes; attach_snapshot adds them
        // again, so pre-deduct.
        self.used_bytes = self.used_bytes.saturating_sub(snapshot.total_bytes());
        let (pid, name) = self.resolve_parent(to)?;
        let new_id = self.attach_snapshot(pid, &snapshot, Some(&name))?;
        let t = self.tick();
        {
            let node = self.node_mut(new_id);
            node.meta.owner = owner.to_owned();
            node.meta.created = t;
            node.meta.modified = t;
        }
        let to_canon = path::canonicalize(to)?;
        let from_canon = path::canonicalize(from)?;
        self.record(
            format!("cp {from_canon} -> {to_canon}"),
            UndoData::RemovePath { path: to_canon },
        );
        Ok(())
    }

    // ------------------------------------------------------- mode / owner

    /// Changes mode bits (like `chmod`).
    ///
    /// # Errors
    ///
    /// Fails if the path does not resolve.
    pub fn chmod(&mut self, p: &str, mode: u32) -> Result<(), VfsError> {
        let id = self.resolve(p)?;
        let old = self.node(id).meta.mode;
        let t = self.tick();
        let canon = self.path_of(id);
        {
            let node = self.node_mut(id);
            node.meta.mode = mode & 0o777;
            node.meta.modified = t;
        }
        self.record(
            format!("chmod {:o} {canon}", mode & 0o777),
            UndoData::RestoreMode { path: canon.clone(), mode: old },
        );
        Ok(())
    }

    /// Changes ownership (like `chown`).
    ///
    /// # Errors
    ///
    /// Fails if the path does not resolve or the user is unknown.
    pub fn chown(&mut self, p: &str, owner: &str) -> Result<(), VfsError> {
        if !self.users.contains_key(owner) && owner != "root" {
            return Err(VfsError::NoSuchUser { user: owner.to_owned() });
        }
        let id = self.resolve(p)?;
        let old = self.node(id).meta.owner.clone();
        let t = self.tick();
        let canon = self.path_of(id);
        {
            let node = self.node_mut(id);
            node.meta.owner = owner.to_owned();
            node.meta.modified = t;
        }
        self.record(
            format!("chown {owner} {canon}"),
            UndoData::RestoreOwner { path: canon.clone(), owner: old },
        );
        Ok(())
    }

    /// Reports whether `user` may perform `access` on `p`, using owner/other
    /// mode bits (admins may do anything). Advisory: the VFS does not gate
    /// its own operations on this — the permission-audit workload queries it.
    ///
    /// # Errors
    ///
    /// Fails if the path does not resolve.
    pub fn access_allowed(&self, user: &str, p: &str, access: Access) -> Result<bool, VfsError> {
        let id = self.resolve(p)?;
        if self.users.get(user).map(|u| u.is_admin).unwrap_or(false) || user == "root" {
            return Ok(true);
        }
        let meta = &self.node(id).meta;
        let shift = if meta.owner == user { 6 } else { 0 };
        let bit = match access {
            Access::Read => 0o4,
            Access::Write => 0o2,
            Access::Execute => 0o1,
        };
        Ok((meta.mode >> shift) & bit != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs_with_alice() -> Vfs {
        let mut fs = Vfs::new();
        fs.add_user("alice", false).unwrap();
        fs.clear_journal();
        fs
    }

    #[test]
    fn mkdir_and_resolve() {
        let mut fs = fs_with_alice();
        fs.mkdir("/home/alice/Documents", "alice").unwrap();
        assert!(fs.is_dir("/home/alice/Documents"));
        assert!(!fs.is_file("/home/alice/Documents"));
    }

    #[test]
    fn mkdir_missing_parent_fails() {
        let mut fs = fs_with_alice();
        assert!(matches!(fs.mkdir("/home/alice/a/b", "alice"), Err(VfsError::NotFound { .. })));
        fs.mkdir_p("/home/alice/a/b", "alice").unwrap();
        assert!(fs.is_dir("/home/alice/a/b"));
    }

    #[test]
    fn mkdir_p_through_file_fails() {
        let mut fs = fs_with_alice();
        fs.write("/home/alice/x", b"data", "alice").unwrap();
        assert!(matches!(
            fs.mkdir_p("/home/alice/x/y", "alice"),
            Err(VfsError::NotADirectory { .. })
        ));
    }

    #[test]
    fn write_read_round_trip() {
        let mut fs = fs_with_alice();
        fs.write("/home/alice/f.txt", b"hello world", "alice").unwrap();
        assert_eq!(fs.read_to_string("/home/alice/f.txt").unwrap(), "hello world");
        assert_eq!(fs.stat("/home/alice/f.txt").unwrap().size, 11);
    }

    #[test]
    fn write_overwrites_and_journal_restores() {
        let mut fs = fs_with_alice();
        fs.write("/home/alice/f.txt", b"v1", "alice").unwrap();
        fs.write("/home/alice/f.txt", b"version two", "alice").unwrap();
        assert_eq!(fs.read_to_string("/home/alice/f.txt").unwrap(), "version two");
        fs.undo_last().unwrap();
        assert_eq!(fs.read_to_string("/home/alice/f.txt").unwrap(), "v1");
    }

    #[test]
    fn append_accumulates() {
        let mut fs = fs_with_alice();
        fs.append("/home/alice/log", b"a", "alice").unwrap();
        fs.append("/home/alice/log", b"b", "alice").unwrap();
        assert_eq!(fs.read_to_string("/home/alice/log").unwrap(), "ab");
    }

    #[test]
    fn touch_creates_then_bumps_mtime() {
        let mut fs = fs_with_alice();
        fs.touch("/home/alice/f", "alice").unwrap();
        let m1 = fs.stat("/home/alice/f").unwrap().modified;
        fs.touch("/home/alice/f", "alice").unwrap();
        let m2 = fs.stat("/home/alice/f").unwrap().modified;
        assert!(m2 > m1);
        assert_eq!(fs.read("/home/alice/f").unwrap().len(), 0);
    }

    #[test]
    fn rm_only_removes_files() {
        let mut fs = fs_with_alice();
        fs.mkdir("/home/alice/d", "alice").unwrap();
        assert!(matches!(fs.rm("/home/alice/d"), Err(VfsError::IsADirectory { .. })));
        fs.write("/home/alice/f", b"x", "alice").unwrap();
        fs.rm("/home/alice/f").unwrap();
        assert!(!fs.exists("/home/alice/f"));
    }

    #[test]
    fn rmdir_requires_empty() {
        let mut fs = fs_with_alice();
        fs.mkdir("/home/alice/d", "alice").unwrap();
        fs.write("/home/alice/d/f", b"x", "alice").unwrap();
        assert!(matches!(fs.rmdir("/home/alice/d"), Err(VfsError::DirectoryNotEmpty { .. })));
        fs.rm("/home/alice/d/f").unwrap();
        fs.rmdir("/home/alice/d").unwrap();
        assert!(!fs.exists("/home/alice/d"));
    }

    #[test]
    fn rm_r_removes_subtree_and_undo_restores_it() {
        let mut fs = fs_with_alice();
        fs.mkdir_p("/home/alice/proj/sub", "alice").unwrap();
        fs.write("/home/alice/proj/a.txt", b"aaa", "alice").unwrap();
        fs.write("/home/alice/proj/sub/b.txt", b"bbbb", "alice").unwrap();
        let used_before = fs.used_bytes();
        fs.rm_r("/home/alice/proj").unwrap();
        assert!(!fs.exists("/home/alice/proj"));
        assert_eq!(fs.used_bytes(), used_before - 7);
        fs.undo_last().unwrap();
        assert_eq!(fs.read_to_string("/home/alice/proj/sub/b.txt").unwrap(), "bbbb");
        assert_eq!(fs.used_bytes(), used_before);
    }

    #[test]
    fn root_cannot_be_removed() {
        let mut fs = fs_with_alice();
        assert!(fs.rm_r("/").is_err());
    }

    #[test]
    fn mv_renames_and_undo_restores() {
        let mut fs = fs_with_alice();
        fs.write("/home/alice/old.txt", b"data", "alice").unwrap();
        fs.mv("/home/alice/old.txt", "/home/alice/new.txt").unwrap();
        assert!(!fs.exists("/home/alice/old.txt"));
        assert_eq!(fs.read_to_string("/home/alice/new.txt").unwrap(), "data");
        fs.undo_last().unwrap();
        assert!(fs.exists("/home/alice/old.txt"));
    }

    #[test]
    fn mv_into_own_subtree_rejected() {
        let mut fs = fs_with_alice();
        fs.mkdir_p("/home/alice/a/b", "alice").unwrap();
        assert!(matches!(
            fs.mv("/home/alice/a", "/home/alice/a/b/c"),
            Err(VfsError::IntoItself { .. })
        ));
    }

    #[test]
    fn mv_to_existing_target_rejected() {
        let mut fs = fs_with_alice();
        fs.write("/home/alice/a", b"1", "alice").unwrap();
        fs.write("/home/alice/b", b"2", "alice").unwrap();
        assert!(matches!(
            fs.mv("/home/alice/a", "/home/alice/b"),
            Err(VfsError::AlreadyExists { .. })
        ));
    }

    #[test]
    fn cp_copies_files_and_trees() {
        let mut fs = fs_with_alice();
        fs.mkdir_p("/home/alice/src/sub", "alice").unwrap();
        fs.write("/home/alice/src/f", b"abc", "alice").unwrap();
        fs.write("/home/alice/src/sub/g", b"de", "alice").unwrap();
        fs.cp("/home/alice/src", "/home/alice/dst", "alice").unwrap();
        assert_eq!(fs.read_to_string("/home/alice/dst/f").unwrap(), "abc");
        assert_eq!(fs.read_to_string("/home/alice/dst/sub/g").unwrap(), "de");
        // The original is untouched.
        assert_eq!(fs.read_to_string("/home/alice/src/f").unwrap(), "abc");
    }

    #[test]
    fn cp_accounts_quota() {
        let mut fs = Vfs::with_capacity(10);
        fs.add_user("alice", false).unwrap();
        fs.write("/home/alice/f", b"123456", "alice").unwrap();
        assert!(matches!(
            fs.cp("/home/alice/f", "/home/alice/g", "alice"),
            Err(VfsError::QuotaExceeded { .. })
        ));
        assert_eq!(fs.used_bytes(), 6);
    }

    #[test]
    fn quota_enforced_on_write() {
        let mut fs = Vfs::with_capacity(8);
        fs.add_user("alice", false).unwrap();
        fs.write("/home/alice/a", b"12345", "alice").unwrap();
        assert!(matches!(
            fs.write("/home/alice/b", b"45678", "alice"),
            Err(VfsError::QuotaExceeded { .. })
        ));
        // Overwriting within budget is fine (frees the old bytes).
        fs.write("/home/alice/a", b"87654321", "alice").unwrap();
        assert_eq!(fs.used_bytes(), 8);
        assert_eq!(fs.usage_percent(), 100);
    }

    #[test]
    fn ls_sorted_and_typed() {
        let mut fs = fs_with_alice();
        fs.mkdir("/home/alice/dir", "alice").unwrap();
        fs.write("/home/alice/b.txt", b"x", "alice").unwrap();
        fs.write("/home/alice/a.txt", b"xy", "alice").unwrap();
        let names: Vec<String> =
            fs.ls("/home/alice").unwrap().iter().map(|e| e.name.clone()).collect();
        assert_eq!(names, vec!["a.txt", "b.txt", "dir"]);
        assert!(matches!(fs.ls("/home/alice/a.txt"), Err(VfsError::NotADirectory { .. })));
    }

    #[test]
    fn walk_is_recursive_preorder() {
        let mut fs = fs_with_alice();
        fs.mkdir_p("/home/alice/a/b", "alice").unwrap();
        fs.write("/home/alice/a/b/c.txt", b"1", "alice").unwrap();
        let paths: Vec<String> =
            fs.walk("/home/alice").unwrap().iter().map(|e| e.path.clone()).collect();
        assert_eq!(paths, vec!["/home/alice/a", "/home/alice/a/b", "/home/alice/a/b/c.txt"]);
    }

    #[test]
    fn find_filters() {
        let mut fs = fs_with_alice();
        fs.write("/home/alice/a.log", b"1", "alice").unwrap();
        fs.write("/home/alice/b.txt", b"1", "alice").unwrap();
        let logs = fs.find("/home/alice", |e| e.name.ends_with(".log")).unwrap();
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].name, "a.log");
    }

    #[test]
    fn du_sums_subtree() {
        let mut fs = fs_with_alice();
        fs.mkdir("/home/alice/d", "alice").unwrap();
        fs.write("/home/alice/d/a", b"123", "alice").unwrap();
        fs.write("/home/alice/d/b", b"4567", "alice").unwrap();
        assert_eq!(fs.du("/home/alice/d").unwrap(), 7);
        assert_eq!(fs.du("/home/alice/d/a").unwrap(), 3);
    }

    #[test]
    fn tree_lists_names_only() {
        let mut fs = fs_with_alice();
        fs.mkdir("/home/alice/Documents", "alice").unwrap();
        fs.write("/home/alice/Documents/secret-name.txt", b"SECRET CONTENT", "alice").unwrap();
        let t = fs.tree("/home/alice", None).unwrap();
        assert!(t.contains("secret-name.txt"));
        assert!(!t.contains("SECRET CONTENT"), "tree must never leak contents");
        assert!(t.contains("Documents/"));
    }

    #[test]
    fn tree_depth_limit() {
        let mut fs = fs_with_alice();
        fs.mkdir_p("/home/alice/a/b/c", "alice").unwrap();
        let t = fs.tree("/home/alice", Some(2)).unwrap();
        assert!(t.contains("a/"));
        assert!(!t.contains("c/"));
    }

    #[test]
    fn chmod_chown_with_undo() {
        let mut fs = fs_with_alice();
        fs.add_user("bob", false).unwrap();
        fs.write("/home/alice/f", b"x", "alice").unwrap();
        fs.chmod("/home/alice/f", 0o600).unwrap();
        assert_eq!(fs.stat("/home/alice/f").unwrap().mode, 0o600);
        fs.chown("/home/alice/f", "bob").unwrap();
        assert_eq!(fs.stat("/home/alice/f").unwrap().owner, "bob");
        fs.undo_last().unwrap(); // Undo chown.
        assert_eq!(fs.stat("/home/alice/f").unwrap().owner, "alice");
        fs.undo_last().unwrap(); // Undo chmod.
        assert_eq!(fs.stat("/home/alice/f").unwrap().mode, 0o644);
    }

    #[test]
    fn chown_unknown_user_rejected() {
        let mut fs = fs_with_alice();
        fs.write("/home/alice/f", b"x", "alice").unwrap();
        assert!(matches!(fs.chown("/home/alice/f", "mallory"), Err(VfsError::NoSuchUser { .. })));
    }

    #[test]
    fn access_checks_owner_other_and_admin() {
        let mut fs = fs_with_alice();
        fs.add_user("bob", false).unwrap();
        fs.add_user("admin", true).unwrap();
        fs.write("/home/alice/f", b"x", "alice").unwrap();
        fs.chmod("/home/alice/f", 0o640).unwrap();
        assert!(fs.access_allowed("alice", "/home/alice/f", Access::Write).unwrap());
        assert!(!fs.access_allowed("bob", "/home/alice/f", Access::Read).unwrap());
        assert!(fs.access_allowed("admin", "/home/alice/f", Access::Write).unwrap());
    }

    #[test]
    fn undo_all_restores_pristine_state() {
        let mut fs = fs_with_alice();
        let baseline_used = fs.used_bytes();
        fs.mkdir("/home/alice/d", "alice").unwrap();
        fs.write("/home/alice/d/f", b"hello", "alice").unwrap();
        fs.write("/home/alice/d/f", b"goodbye", "alice").unwrap();
        fs.mv("/home/alice/d/f", "/home/alice/d/g").unwrap();
        fs.rm("/home/alice/d/g").unwrap();
        let undone = fs.undo_all().unwrap();
        assert_eq!(undone, 5);
        assert!(!fs.exists("/home/alice/d"));
        assert_eq!(fs.used_bytes(), baseline_used);
    }

    #[test]
    fn journal_disabled_records_nothing() {
        let mut fs = fs_with_alice();
        fs.set_journal_enabled(false);
        let before = fs.journal().len();
        fs.write("/home/alice/f", b"x", "alice").unwrap();
        assert_eq!(fs.journal().len(), before);
    }

    #[test]
    fn journal_descriptions_are_readable() {
        let mut fs = fs_with_alice();
        fs.write("/home/alice/f", b"hello", "alice").unwrap();
        let last = fs.journal().last().unwrap();
        assert!(last.description.contains("/home/alice/f"));
        assert!(last.description.contains('5'));
    }

    #[test]
    fn users_listed_sorted() {
        let mut fs = Vfs::new();
        fs.add_user("carol", false).unwrap();
        fs.add_user("alice", true).unwrap();
        let names: Vec<String> = fs.users().iter().map(|u| u.name.clone()).collect();
        assert_eq!(names, vec!["alice", "carol"]);
        assert!(fs.user("alice").unwrap().is_admin);
    }

    #[test]
    fn duplicate_user_rejected() {
        let mut fs = Vfs::new();
        fs.add_user("alice", false).unwrap();
        assert!(matches!(fs.add_user("alice", false), Err(VfsError::AlreadyExists { .. })));
    }

    #[test]
    fn paths_normalise_on_every_operation() {
        let mut fs = fs_with_alice();
        fs.write("/home//alice/./f.txt", b"x", "alice").unwrap();
        assert!(fs.exists("/home/alice/f.txt"));
        assert_eq!(fs.stat("/home/alice/../alice/f.txt").unwrap().path, "/home/alice/f.txt");
    }
}
