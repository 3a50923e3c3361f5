//! The checksummed record file under the revocation journal and the
//! snapshot log: one on-disk design, stated and checked once. The spec
//! is `docs/persistence.md` §12.
//!
//! ```text
//! header:   magic 8 bytes · version u16            (per file kind)
//! record:   len u32 · body · fnv1a(len_be ++ body) (repeated)
//! ```
//!
//! A crash mid-append leaves an incomplete record at the tail, and a
//! crash mid-create a strict prefix of the header. Neither holds an
//! acknowledged record, so [`RecordFile::open`] repairs both. Anything
//! else wrong is corruption: a typed [`JournalError`], nothing loaded.
//! Every append is synced before it returns, a rewrite renames a synced
//! temp file over the original and keeps the handle that wrote it, and
//! every create or rename is followed by one sync of the directory.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use conseca_core::fnv1a;

/// Bytes before the first record: the magic and the version.
pub(crate) const HEADER_LEN: usize = 8 + 2;

/// Why record-file bytes could not be written or replayed: the framing
/// failures shared by the revocation journal and the snapshot log (which
/// wraps them in [`SnapshotLogError::Framing`](crate::SnapshotLogError)).
/// Every variant is fail-closed: an `Err` from replay means nothing was
/// loaded, and a caller must not trust (or serve) restores.
#[derive(Debug)]
pub enum JournalError {
    /// Reading or writing the file failed.
    Io(io::Error),
    /// The bytes end before the header (or, in strict decoding, inside
    /// a record).
    Truncated,
    /// The file does not start with its kind's magic.
    BadMagic,
    /// The file's format version is not the one this build speaks.
    FormatSkew {
        /// Version recorded in the file.
        found: u16,
        /// Version this build speaks.
        expected: u16,
    },
    /// A record at `offset` claims a body larger than its kind's cap.
    RecordTooLarge {
        /// Byte offset of the record's length prefix.
        offset: usize,
        /// The claimed body length.
        len: u32,
    },
    /// A complete record at `offset` failed its checksum or decoded to
    /// garbage — corruption, never loaded.
    CorruptRecord {
        /// Byte offset of the record's length prefix.
        offset: usize,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "record file I/O failed: {e}"),
            JournalError::Truncated => write!(f, "record file truncated mid-record"),
            JournalError::BadMagic => write!(f, "not the expected record file (bad magic)"),
            JournalError::FormatSkew { found, expected } => {
                write!(f, "record file format version {found}, this build speaks {expected}")
            }
            JournalError::RecordTooLarge { offset, len } => {
                write!(f, "record at byte {offset} claims {len} bytes, over the cap")
            }
            JournalError::CorruptRecord { offset } => {
                write!(f, "record at byte {offset} failed its checksum")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// What distinguishes one kind of record file: the header it starts
/// with and the largest body a record may claim.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    pub(crate) magic: [u8; 8],
    pub(crate) version: u16,
    pub(crate) max_len: u32,
}

impl Layout {
    fn header(&self) -> [u8; HEADER_LEN] {
        let mut header = [0; HEADER_LEN];
        header[..8].copy_from_slice(&self.magic);
        header[8..].copy_from_slice(&self.version.to_be_bytes());
        header
    }

    /// Appends one framed record to `out`. A body over the cap is
    /// refused: replay would reject it as corruption.
    fn frame(&self, out: &mut Vec<u8>, body: &[u8]) -> Result<(), JournalError> {
        let len = u32::try_from(body.len()).unwrap_or(u32::MAX);
        if len > self.max_len {
            return Err(JournalError::RecordTooLarge { offset: out.len(), len });
        }
        out.extend_from_slice(&len.to_be_bytes());
        out.extend_from_slice(body);
        out.extend_from_slice(&checksum(len, body).to_be_bytes());
        Ok(())
    }

    /// Lenient decoding for crash recovery: verifies the header, then
    /// passes each complete, checksummed record body (with its offset)
    /// to `decode`. Returns the records and the bytes they span; a
    /// trailing *incomplete* record (a torn append) ends the parse
    /// there instead of erroring.
    pub(crate) fn decode_prefix<T, E: From<JournalError>>(
        &self,
        bytes: &[u8],
        mut decode: impl FnMut(usize, &[u8]) -> Result<T, E>,
    ) -> Result<(Vec<T>, usize), E> {
        if bytes.len() < HEADER_LEN {
            return Err(JournalError::Truncated.into());
        }
        if bytes[..8] != self.magic {
            return Err(JournalError::BadMagic.into());
        }
        let found = u16::from_be_bytes([bytes[8], bytes[9]]);
        if found != self.version {
            return Err(JournalError::FormatSkew { found, expected: self.version }.into());
        }
        let mut records = Vec::new();
        let mut offset = HEADER_LEN;
        while let Some(prefix) = bytes.get(offset..offset + 4) {
            let len = u32::from_be_bytes(prefix.try_into().expect("a four-byte slice"));
            if len > self.max_len {
                // A torn append writes a prefix of a valid record, whose
                // length field is either absent or honest — a huge
                // length is corruption, not a crash.
                return Err(JournalError::RecordTooLarge { offset, len }.into());
            }
            let body_end = offset + 4 + len as usize;
            let Some(recorded) = bytes.get(body_end..body_end + 8) else { break };
            let body = &bytes[offset + 4..body_end];
            let recorded = u64::from_be_bytes(recorded.try_into().expect("an eight-byte slice"));
            if recorded != checksum(len, body) {
                return Err(JournalError::CorruptRecord { offset }.into());
            }
            records.push(decode(offset, body)?);
            offset = body_end + 8;
        }
        Ok((records, offset))
    }

    /// Strict decoding: like [`decode_prefix`](Self::decode_prefix),
    /// but bytes that end inside a record are [`JournalError::Truncated`].
    /// (Bytes that end on a record boundary are the shorter file: an
    /// append-only log is prefix-valid by construction.)
    pub(crate) fn decode<T, E: From<JournalError>>(
        &self,
        bytes: &[u8],
        decode: impl FnMut(usize, &[u8]) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let (records, consumed) = self.decode_prefix(bytes, decode)?;
        if consumed != bytes.len() {
            return Err(JournalError::Truncated.into());
        }
        Ok(records)
    }
}

/// The per-record checksum. It covers the length prefix too, so a
/// flipped length cannot re-frame the stream without tripping it.
pub(crate) fn checksum(len: u32, body: &[u8]) -> u64 {
    let mut covered = Vec::with_capacity(4 + body.len());
    covered.extend_from_slice(&len.to_be_bytes());
    covered.extend_from_slice(body);
    fnv1a(&covered)
}

/// An open record file, positioned for appends.
#[derive(Debug)]
pub(crate) struct RecordFile {
    path: PathBuf,
    layout: Layout,
    file: File,
    /// A create or rename whose directory entry is not yet synced.
    dir_unsynced: bool,
}

impl RecordFile {
    /// Opens (or creates) the record file at `path` and replays it
    /// through `decode`. Returns the file, its records, and whether a
    /// repair ran: a torn tail cut off, or a strict prefix of the
    /// header (a crash mid-create) completed. Anything else wrong with
    /// the bytes is an error and the file is left as it was.
    pub(crate) fn open<T, E: From<JournalError>>(
        path: PathBuf,
        layout: Layout,
        decode: impl FnMut(usize, &[u8]) -> Result<T, E>,
    ) -> Result<(Self, Vec<T>, bool), E> {
        let existed = path.exists();
        let (file, bytes) = open_and_read(&path)?;
        let mut this = RecordFile { path, layout, file, dir_unsynced: !existed };
        let header = layout.header();
        if bytes.len() < HEADER_LEN && header.starts_with(&bytes) {
            this.file.write_all(&header[bytes.len()..]).map_err(JournalError::Io)?;
            this.sync()?;
            return Ok((this, Vec::new(), existed));
        }
        let (records, consumed) = layout.decode_prefix(&bytes, decode)?;
        let torn = consumed != bytes.len();
        if torn {
            // Cut the torn tail so the next append starts on a record
            // boundary: the record it held was never acknowledged.
            this.file.set_len(consumed as u64).map_err(JournalError::Io)?;
            this.sync()?;
        }
        Ok((this, records, torn))
    }

    /// The backing file.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and syncs it before returning.
    pub(crate) fn append(&mut self, body: &[u8]) -> Result<(), JournalError> {
        let mut record = Vec::with_capacity(4 + body.len() + 8);
        self.layout.frame(&mut record, body)?;
        self.file.write_all(&record)?;
        self.sync()
    }

    /// Strictly decodes the whole file as it is on disk now.
    pub(crate) fn read_all<T, E: From<JournalError>>(
        &self,
        decode: impl FnMut(usize, &[u8]) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let mut bytes = Vec::new();
        let mut file = &self.file;
        file.seek(SeekFrom::Start(0))
            .and_then(|_| file.read_to_end(&mut bytes))
            .map_err(JournalError::Io)?;
        self.layout.decode(&bytes, decode)
    }

    /// Replaces the file with a header plus one record per body,
    /// atomically: the original is untouched unless the rename ran.
    /// After the rename the temp file's handle names `path`, so it is
    /// kept rather than reopened.
    pub(crate) fn rewrite<'a>(
        &mut self,
        bodies: impl IntoIterator<Item = &'a [u8]>,
    ) -> Result<(), JournalError> {
        let mut bytes = self.layout.header().to_vec();
        for body in bodies {
            self.layout.frame(&mut bytes, body)?;
        }
        let tmp = with_suffix(&self.path, ".tmp");
        // A temp file left by a failed rewrite is stale.
        match fs::remove_file(&tmp) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e.into()),
            _ => {}
        }
        let mut file = OpenOptions::new().read(true).append(true).create_new(true).open(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_data()?;
        fs::rename(&tmp, &self.path)?;
        self.file = file;
        self.dir_unsynced = true;
        self.sync()
    }

    /// Syncs the file's data and, if a create or rename is pending, its
    /// directory entry.
    fn sync(&mut self) -> Result<(), JournalError> {
        self.file.sync_data()?;
        if self.dir_unsynced {
            sync_dir(&self.path)?;
            self.dir_unsynced = false;
        }
        Ok(())
    }
}

fn open_and_read(path: &Path) -> Result<(File, Vec<u8>), JournalError> {
    fs::create_dir_all(parent_dir(path))?;
    let mut file = OpenOptions::new().read(true).append(true).create(true).open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    Ok((file, bytes))
}

fn sync_dir(path: &Path) -> io::Result<()> {
    File::open(parent_dir(path))?.sync_all()
}

fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    }
}

fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    name.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_path(name: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("conseca-record-{}-{seq}-{name}", std::process::id()))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = fs::remove_file(&self.0);
            let _ = fs::remove_file(with_suffix(&self.0, ".tmp"));
        }
    }

    fn raw(_offset: usize, body: &[u8]) -> Result<Vec<u8>, JournalError> {
        Ok(body.to_vec())
    }

    fn open(path: &Path, layout: Layout) -> Result<(RecordFile, Vec<Vec<u8>>, bool), JournalError> {
        RecordFile::open(path.to_owned(), layout, raw)
    }

    const LAYOUTS: [Layout; 2] = [crate::journal::LAYOUT, crate::snaplog::LAYOUT];

    fn bodies() -> Vec<Vec<u8>> {
        vec![b"a".to_vec(), Vec::new(), b"three bodies".to_vec(), vec![7; 40]]
    }

    /// Writes `bodies()` through the shared append path; returns the
    /// file's bytes and the offset where each record ends.
    fn written(path: &Path, layout: Layout) -> (Vec<u8>, Vec<usize>) {
        let (mut file, records, repaired) = open(path, layout).unwrap();
        assert!(records.is_empty() && !repaired, "a new file is not a repair");
        let mut ends = Vec::new();
        let mut end = HEADER_LEN;
        for body in bodies() {
            file.append(&body).unwrap();
            end += 4 + body.len() + 8;
            ends.push(end);
        }
        let bytes = fs::read(path).unwrap();
        assert_eq!(bytes.len(), end);
        (bytes, ends)
    }

    #[test]
    fn every_cut_keeps_the_longest_whole_record_prefix() {
        for layout in LAYOUTS {
            let path = tmp_path("cut");
            let _cleanup = Cleanup(path.clone());
            let (bytes, ends) = written(&path, layout);
            for cut in 0..=bytes.len() {
                fs::write(&path, &bytes[..cut]).unwrap();
                let (mut file, records, repaired) = open(&path, layout).unwrap();
                let whole = ends.iter().filter(|&&end| end <= cut).count();
                assert_eq!(records, bodies()[..whole], "cut at {cut}");
                let boundary = cut == HEADER_LEN || ends.contains(&cut);
                assert_eq!(repaired, !boundary, "cut at {cut}: repaired iff off a boundary");
                file.append(b"after").unwrap();
                let mut expected = bodies()[..whole].to_vec();
                expected.push(b"after".to_vec());
                assert_eq!(layout.decode(&fs::read(&path).unwrap(), raw).unwrap(), expected);
            }
        }
    }

    #[test]
    fn a_flipped_byte_in_a_complete_record_is_corruption() {
        for layout in LAYOUTS {
            let path = tmp_path("flip");
            let _cleanup = Cleanup(path.clone());
            let (bytes, ends) = written(&path, layout);
            let mut start = HEADER_LEN;
            for (index, &end) in ends.iter().enumerate() {
                for at in start..end {
                    let mut flipped = bytes.clone();
                    flipped[at] ^= 0x01;
                    fs::write(&path, &flipped).unwrap();
                    let strict = layout.decode(&flipped, raw);
                    let opened =
                        open(&path, layout).map(|(_, records, repaired)| (records, repaired));
                    if at >= start + 4 {
                        // Body and checksum bytes: always a checksum failure.
                        assert!(
                            matches!(strict, Err(JournalError::CorruptRecord { offset }) if offset == start),
                            "flip at {at}: {strict:?}"
                        );
                        assert!(
                            matches!(opened, Err(JournalError::CorruptRecord { offset }) if offset == start),
                            "flip at {at}: {opened:?}"
                        );
                    } else {
                        // A length byte: corruption when the record still
                        // ends inside the file; a length claiming past the
                        // end reads as a torn tail, and the repair keeps
                        // only the records before it.
                        match opened {
                            Err(JournalError::CorruptRecord { offset })
                            | Err(JournalError::RecordTooLarge { offset, .. }) => {
                                assert_eq!(offset, start, "flip at {at}");
                                assert!(strict.is_err());
                            }
                            Ok((records, true)) => {
                                assert_eq!(records, bodies()[..index], "flip at {at}");
                                assert!(matches!(strict, Err(JournalError::Truncated)));
                            }
                            other => panic!("flip at {at}: {other:?}"),
                        }
                    }
                }
                start = end;
            }
        }
    }

    #[test]
    fn a_short_file_that_is_not_a_header_prefix_fails_closed() {
        for layout in LAYOUTS {
            let path = tmp_path("short");
            let _cleanup = Cleanup(path.clone());
            for len in 1..HEADER_LEN {
                let mut short = layout.header()[..len].to_vec();
                short[len - 1] ^= 0x20;
                fs::write(&path, &short).unwrap();
                assert!(matches!(open(&path, layout), Err(JournalError::Truncated)));
                assert_eq!(fs::read(&path).unwrap(), short, "a refused file is left as it was");
            }
            let mut bad = layout.header();
            bad[0] ^= 0x20;
            fs::write(&path, bad).unwrap();
            assert!(matches!(open(&path, layout), Err(JournalError::BadMagic)));
        }
    }

    #[test]
    fn a_rewrite_keeps_its_handle_and_replaces_the_file() {
        for layout in LAYOUTS {
            let path = tmp_path("rewrite");
            let _cleanup = Cleanup(path.clone());
            let (mut file, _, _) = open(&path, layout).unwrap();
            file.append(b"old").unwrap();
            // A stale temp file from an earlier failed rewrite is replaced.
            fs::write(with_suffix(&path, ".tmp"), b"stale").unwrap();
            file.rewrite([&b"one"[..], b"two"]).unwrap();
            assert!(!with_suffix(&path, ".tmp").exists());
            file.append(b"three").unwrap();
            let expected = [b"one".to_vec(), b"two".to_vec(), b"three".to_vec()];
            assert_eq!(file.read_all(raw).unwrap(), expected);
            drop(file);
            let (_, records, repaired) = open(&path, layout).unwrap();
            assert_eq!((records, repaired), (expected.to_vec(), false));
        }
    }
}
