//! Segment storage backends for the WAL.
//!
//! [`FsStorage`] is the real thing: one file per segment under a
//! directory, buffered appends made durable by `sync()` (fsync). The
//! durability contract every backend honors: bytes before the last
//! `sync()` survive a crash; bytes after it may survive wholly,
//! partially, or not at all — which is exactly what recovery's torn-tail
//! truncation handles. The fsync itself is handed out as a detached
//! [`Syncer`] so the WAL's group-commit leader can run it with the log
//! lock released while other threads keep appending.
//!
//! [`MemStorage`] models that contract deterministically, with an
//! explicit `crash(..)` that keeps the synced prefix plus a seeded slice
//! of the unsynced tail. It backs the in-sim durable mailbox (virtual
//! "disk", no real I/O — netsim charges the latency) and the seeded
//! crash-recovery sweep, where real SIGKILL per seed would be far too
//! slow; the real-process kill path is covered by the
//! `durability_smoke` binary on `FsStorage`.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;

/// A detached fsync of one segment (see [`Storage::syncer`]).
pub type Syncer = Box<dyn FnOnce() -> io::Result<()> + Send>;

/// A segment store: append-only numbered segments with explicit sync.
///
/// All offsets are byte offsets from the segment start. Every method
/// is called under the WAL's lock, so implementations need no internal
/// ordering guarantees beyond `Send`; only a [`Syncer`] runs outside
/// it, concurrently with later `append`s to the same segment.
pub trait Storage: Send {
    /// Base LSNs of existing segments, ascending.
    fn list_segments(&self) -> io::Result<Vec<u64>>;
    /// Creates an empty segment for `base`.
    fn create_segment(&mut self, base: u64) -> io::Result<()>;
    /// Appends bytes to a segment (buffered; durable only after
    /// [`Storage::sync`]).
    fn append(&mut self, base: u64, bytes: &[u8]) -> io::Result<()>;
    /// A detached fsync of `base`: running it makes durable every byte
    /// appended *before this call*; bytes appended later may or may not
    /// be covered. The WAL keeps at most one in flight and never
    /// truncates, deletes or rotates away from `base` until it returns.
    fn syncer(&mut self, base: u64) -> io::Result<Syncer>;
    /// Makes every appended byte of `base` durable before returning.
    fn sync(&mut self, base: u64) -> io::Result<()> {
        self.syncer(base)?()
    }
    /// Reads a whole segment.
    fn read_segment(&mut self, base: u64) -> io::Result<Vec<u8>>;
    /// Reads `len` bytes at `off` (for spilled message bodies).
    fn read_at(&mut self, base: u64, off: u64, len: u64) -> io::Result<Vec<u8>>;
    /// Truncates a segment to `len` bytes (torn-tail repair).
    fn truncate(&mut self, base: u64, len: u64) -> io::Result<()>;
    /// Deletes a segment (checkpoint GC).
    fn delete_segment(&mut self, base: u64) -> io::Result<()>;
}

fn segment_file_name(base: u64) -> String {
    format!("{base:020}.wal")
}

/// Directory-of-files storage. Keeps the head segment's write handle
/// open, and a read handle on the segment last read from.
pub struct FsStorage {
    dir: PathBuf,
    /// Open append handle for the segment being written; shared with
    /// an in-flight [`Syncer`].
    head: Option<(u64, Arc<std::fs::File>)>,
    /// Open read handle for the segment [`Storage::read_at`] last
    /// served: a fetch reads its spilled bodies out of one segment (two
    /// across a rotation), so all but the first are one `pread` each.
    /// Dropped when that segment is deleted; a truncation is seen
    /// through it (same file).
    reader: Option<(u64, std::fs::File)>,
}

impl FsStorage {
    /// Opens (creating if needed) a WAL directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<FsStorage> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FsStorage { dir, head: None, reader: None })
    }

    fn path(&self, base: u64) -> PathBuf {
        self.dir.join(segment_file_name(base))
    }

    fn head_file(&mut self, base: u64) -> io::Result<&Arc<std::fs::File>> {
        let reopen = !matches!(self.head, Some((b, _)) if b == base);
        if reopen {
            let f = std::fs::OpenOptions::new()
                .append(true)
                .open(self.path(base))?;
            self.head = Some((base, Arc::new(f)));
        }
        Ok(&self.head.as_ref().expect("head just set").1)
    }
}

impl Storage for FsStorage {
    fn list_segments(&self) -> io::Result<Vec<u64>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name.strip_suffix(".wal") {
                if let Ok(base) = stem.parse::<u64>() {
                    out.push(base);
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn create_segment(&mut self, base: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(self.path(base))?;
        self.head = Some((base, Arc::new(f)));
        Ok(())
    }

    fn append(&mut self, base: u64, bytes: &[u8]) -> io::Result<()> {
        let mut file: &std::fs::File = self.head_file(base)?;
        file.write_all(bytes)
    }

    fn syncer(&mut self, base: u64) -> io::Result<Syncer> {
        let file = Arc::clone(self.head_file(base)?);
        Ok(Box::new(move || file.sync_data()))
    }

    fn read_segment(&mut self, base: u64) -> io::Result<Vec<u8>> {
        std::fs::read(self.path(base))
    }

    fn read_at(&mut self, base: u64, off: u64, len: u64) -> io::Result<Vec<u8>> {
        if !matches!(self.reader, Some((b, _)) if b == base) {
            self.reader = Some((base, std::fs::File::open(self.path(base))?));
        }
        let file = &self.reader.as_ref().expect("reader just set").1;
        let mut buf = vec![0u8; len as usize];
        file.read_exact_at(&mut buf, off)?;
        Ok(buf)
    }

    fn truncate(&mut self, base: u64, len: u64) -> io::Result<()> {
        // Drop the append handle first: its cursor is past the cut.
        self.head = None;
        let f = std::fs::OpenOptions::new().write(true).open(self.path(base))?;
        f.set_len(len)?;
        f.sync_data()
    }

    fn delete_segment(&mut self, base: u64) -> io::Result<()> {
        if matches!(self.head, Some((b, _)) if b == base) {
            self.head = None;
        }
        // A kept handle would pin the unlinked file and go on serving it.
        if matches!(self.reader, Some((b, _)) if b == base) {
            self.reader = None;
        }
        std::fs::remove_file(self.path(base))
    }
}

#[derive(Default, Clone)]
struct MemSegment {
    bytes: Vec<u8>,
    synced_len: usize,
}

#[derive(Default, Clone)]
struct MemInner {
    segments: BTreeMap<u64, MemSegment>,
}

/// Deterministic in-memory storage with an explicit crash model.
///
/// Cloning shares the underlying "disk", so a harness can keep a handle,
/// crash it, and reopen a fresh WAL over the surviving bytes.
#[derive(Clone, Default)]
pub struct MemStorage {
    inner: Arc<Mutex<MemInner>>,
}

impl MemStorage {
    /// An empty in-memory disk.
    pub fn new() -> MemStorage {
        MemStorage::default()
    }

    /// Simulates a kill: synced bytes survive; of each segment's
    /// unsynced tail, a prefix chosen by `keep_unsynced` (given the tail
    /// length, returns how many of those bytes "made it to disk")
    /// survives — possibly slicing a record in half, which is the torn
    /// tail recovery must truncate.
    pub fn crash(&self, mut keep_unsynced: impl FnMut(usize) -> usize) {
        let mut inner = self.inner.lock();
        for seg in inner.segments.values_mut() {
            let tail = seg.bytes.len() - seg.synced_len;
            let keep = keep_unsynced(tail).min(tail);
            seg.bytes.truncate(seg.synced_len + keep);
            seg.synced_len = seg.bytes.len();
        }
    }

    /// An independent copy of the disk as it is this instant — crash
    /// the copy to see what a kill *now* would leave, while the original
    /// keeps serving the running log.
    pub fn fork(&self) -> MemStorage {
        MemStorage {
            inner: Arc::new(Mutex::new(self.inner.lock().clone())),
        }
    }
}

impl Storage for MemStorage {
    fn list_segments(&self) -> io::Result<Vec<u64>> {
        Ok(self.inner.lock().segments.keys().copied().collect())
    }

    fn create_segment(&mut self, base: u64) -> io::Result<()> {
        self.inner.lock().segments.insert(base, MemSegment::default());
        Ok(())
    }

    fn append(&mut self, base: u64, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock();
        let seg = inner
            .segments
            .get_mut(&base)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such segment"))?;
        seg.bytes.extend_from_slice(bytes);
        Ok(())
    }

    /// The strictest disk the contract allows: the fsync covers exactly
    /// the bytes appended before it was requested, nothing that arrived
    /// while it ran — so a crash test catches a WAL that credits an
    /// fsync with records appended after it began.
    fn syncer(&mut self, base: u64) -> io::Result<Syncer> {
        let not_found = || io::Error::new(io::ErrorKind::NotFound, "no such segment");
        let len = self.inner.lock().segments.get(&base).ok_or_else(not_found)?.bytes.len();
        let disk = Arc::clone(&self.inner);
        Ok(Box::new(move || {
            let mut inner = disk.lock();
            let seg = inner.segments.get_mut(&base).ok_or_else(not_found)?;
            seg.synced_len = seg.synced_len.max(len.min(seg.bytes.len()));
            Ok(())
        }))
    }

    fn read_segment(&mut self, base: u64) -> io::Result<Vec<u8>> {
        let inner = self.inner.lock();
        inner
            .segments
            .get(&base)
            .map(|s| s.bytes.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such segment"))
    }

    fn read_at(&mut self, base: u64, off: u64, len: u64) -> io::Result<Vec<u8>> {
        let inner = self.inner.lock();
        let seg = inner
            .segments
            .get(&base)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such segment"))?;
        let start = off as usize;
        let end = start + len as usize;
        seg.bytes
            .get(start..end)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "short read"))
    }

    fn truncate(&mut self, base: u64, len: u64) -> io::Result<()> {
        let mut inner = self.inner.lock();
        let seg = inner
            .segments
            .get_mut(&base)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such segment"))?;
        seg.bytes.truncate(len as usize);
        seg.synced_len = seg.synced_len.min(len as usize);
        Ok(())
    }

    fn delete_segment(&mut self, base: u64) -> io::Result<()> {
        self.inner.lock().segments.remove(&base);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(storage: &mut dyn Storage) {
        storage.create_segment(0).unwrap();
        storage.append(0, b"hello ").unwrap();
        storage.append(0, b"world").unwrap();
        storage.sync(0).unwrap();
        assert_eq!(storage.read_segment(0).unwrap(), b"hello world");
        assert_eq!(storage.read_at(0, 6, 5).unwrap(), b"world");
        // Positioned reads see the segment as it is now, whatever an
        // earlier read left open: not the bytes a truncation cut off …
        storage.truncate(0, 5).unwrap();
        assert_eq!(storage.read_segment(0).unwrap(), b"hello");
        assert!(storage.read_at(0, 6, 5).is_err(), "read past the cut");
        // … but the ones appended in their place, …
        storage.append(0, b" again").unwrap();
        assert_eq!(storage.read_at(0, 6, 5).unwrap(), b"again");
        // … the other segment when the base changes, and nothing once
        // the segment is deleted.
        storage.create_segment(100).unwrap();
        storage.append(100, b"next segment").unwrap();
        assert_eq!(storage.read_at(100, 5, 7).unwrap(), b"segment");
        assert_eq!(storage.read_at(0, 0, 5).unwrap(), b"hello");
        assert_eq!(storage.list_segments().unwrap(), vec![0, 100]);
        storage.delete_segment(0).unwrap();
        assert_eq!(storage.list_segments().unwrap(), vec![100]);
        assert!(storage.read_at(0, 0, 5).is_err(), "read of a deleted segment");
    }

    #[test]
    fn mem_storage_round_trip() {
        exercise(&mut MemStorage::new());
    }

    #[test]
    fn fs_storage_round_trip() {
        let dir = std::env::temp_dir().join(format!("wsd-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        exercise(&mut FsStorage::open(&dir).unwrap());
        // Reopen sees what was written.
        let mut reopened = FsStorage::open(&dir).unwrap();
        assert_eq!(reopened.list_segments().unwrap(), vec![100]);
        assert_eq!(reopened.read_segment(100).unwrap(), b"next segment");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mem_crash_keeps_synced_prefix_and_seeded_tail_slice() {
        let mem = MemStorage::new();
        {
            let storage: &mut dyn Storage = &mut mem.clone();
            storage.create_segment(0).unwrap();
            storage.append(0, b"durable|").unwrap();
            storage.sync(0).unwrap();
            storage.append(0, b"buffered-tail").unwrap();
        }
        mem.crash(|tail| tail / 2); // keep 6 of 13 unsynced bytes
        let mut survivor = mem.clone();
        let bytes = Storage::read_segment(&mut survivor, 0).unwrap();
        assert_eq!(bytes, b"durable|buffer");
    }
}
