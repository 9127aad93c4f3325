//! The virtual file system under the pager and WAL.
//!
//! Two implementations share one trait:
//!
//! * [`DirVfs`] — real files in a directory, for actual persistence
//!   across process restarts (examples, benches).
//! * [`MemVfs`] — an in-memory disk model with **durable** and
//!   **volatile** layers. `write_at` touches only the volatile layer;
//!   [`Vfs::sync`] promotes a file's volatile bytes to durable —
//!   exactly the fsync contract. [`MemVfs::crash`] then models a
//!   process/machine death by discarding everything volatile, and
//!   [`MemVfs::crash_torn`] additionally keeps a *seeded random prefix*
//!   of the unsynced tail, the way a real disk tears a half-flushed
//!   write. This is what makes mid-commit kills testable: the crash
//!   matrix asserts recovery from every such image.
//!
//! All paths are flat file names (`data.db`, `data.wal`); the store
//! never uses directories below the vfs root.

use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use llmdm_rt::rand::{Rng, SeedableRng, SmallRng};

use crate::StoreError;

/// The file operations the storage engine needs. Reads past EOF
/// zero-fill (the pager treats never-written pages as all-zero).
pub trait Vfs: Send + std::fmt::Debug {
    /// Read `len` bytes at `offset`, zero-filling past end of file.
    fn read_at(&self, file: &str, offset: u64, len: usize) -> Vec<u8>;
    /// Write bytes at `offset`, extending the file if needed. The write
    /// is *not* durable until [`Vfs::sync`].
    fn write_at(&mut self, file: &str, offset: u64, data: &[u8]) -> Result<(), StoreError>;
    /// Truncate (or extend with zeros) to `len` bytes.
    fn truncate(&mut self, file: &str, len: u64) -> Result<(), StoreError>;
    /// Make every prior write to `file` durable (fsync).
    fn sync(&mut self, file: &str) -> Result<(), StoreError>;
    /// Current length in bytes (0 for a missing file).
    fn len(&self, file: &str) -> u64;
}

/// A shareable vfs handle: the store holds one, and a crash harness
/// holds another to the same disk so it can crash/inspect it between
/// store lifetimes.
pub type SharedVfs = Arc<Mutex<dyn Vfs>>;

/// Lock a [`SharedVfs`], recovering from poison (a killed store may
/// have panicked a test thread while holding the disk).
pub(crate) fn vfs_lock(vfs: &SharedVfs) -> std::sync::MutexGuard<'_, dyn Vfs + 'static> {
    llmdm_rt::lock_recover(vfs)
}

// ---------------------------------------------------------------- mem

/// The two-layer in-memory disk (see module docs).
#[derive(Debug, Default)]
pub struct MemVfs {
    /// Bytes as of the last sync per file — what survives a crash.
    durable: BTreeMap<String, Vec<u8>>,
    /// Current bytes per file, including unsynced writes.
    volatile: BTreeMap<String, Vec<u8>>,
}

impl MemVfs {
    /// An empty disk.
    pub fn new() -> Self {
        MemVfs::default()
    }

    /// An empty disk, pre-wrapped for sharing with a [`crate::Store`].
    pub fn shared() -> Arc<Mutex<MemVfs>> {
        Arc::new(Mutex::new(MemVfs::new()))
    }

    /// Kill the machine: every unsynced write is lost, files revert to
    /// their last-synced bytes.
    pub fn crash(&mut self) {
        self.volatile = self.durable.clone();
    }

    /// Kill the machine mid-write: like [`MemVfs::crash`], but for each
    /// file whose volatile image is *longer* than its durable image, a
    /// seeded random prefix of the unsynced tail survives — the torn
    /// write a real disk leaves when power dies inside an appending
    /// write. Unsynced overwrites of already-durable regions are still
    /// lost wholesale (conservative, and what recovery must tolerate).
    pub fn crash_torn(&mut self, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut next = self.durable.clone();
        for (name, cur) in &self.volatile {
            let durable_len = next.get(name).map_or(0, Vec::len);
            if cur.len() > durable_len {
                let tail = &cur[durable_len..];
                let keep = rng.gen_range(0..=tail.len());
                next.entry(name.clone()).or_default().extend_from_slice(&tail[..keep]);
            }
        }
        self.volatile = next;
    }

    /// The current (volatile) bytes of a file — for byte-identity
    /// assertions in tests and the crash matrix.
    pub fn bytes(&self, file: &str) -> Vec<u8> {
        self.volatile.get(file).cloned().unwrap_or_default()
    }

    /// Deep copy of the whole disk (both layers) — snapshot/restore for
    /// crash-matrix scenarios that branch from one populated state.
    pub fn snapshot(&self) -> MemVfs {
        MemVfs { durable: self.durable.clone(), volatile: self.volatile.clone() }
    }
}

impl Vfs for MemVfs {
    fn read_at(&self, file: &str, offset: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        if let Some(data) = self.volatile.get(file) {
            let start = (offset as usize).min(data.len());
            let end = (offset as usize + len).min(data.len());
            if end > start {
                out[..end - start].copy_from_slice(&data[start..end]);
            }
        }
        out
    }

    fn write_at(&mut self, file: &str, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        let buf = self.volatile.entry(file.to_string()).or_default();
        let end = offset as usize + data.len();
        if buf.len() < end {
            buf.resize(end, 0);
        }
        buf[offset as usize..end].copy_from_slice(data);
        Ok(())
    }

    fn truncate(&mut self, file: &str, len: u64) -> Result<(), StoreError> {
        self.volatile.entry(file.to_string()).or_default().resize(len as usize, 0);
        Ok(())
    }

    fn sync(&mut self, file: &str) -> Result<(), StoreError> {
        let cur = self.volatile.entry(file.to_string()).or_default().clone();
        self.durable.insert(file.to_string(), cur);
        Ok(())
    }

    fn len(&self, file: &str) -> u64 {
        self.volatile.get(file).map_or(0, |v| v.len() as u64)
    }
}

// ---------------------------------------------------------------- dir

/// Real files under a base directory (`std::fs`), for state that must
/// survive an actual process restart.
#[derive(Debug)]
pub struct DirVfs {
    base: PathBuf,
}

impl DirVfs {
    /// A vfs rooted at `base` (created if missing).
    pub fn new(base: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let base = base.into();
        std::fs::create_dir_all(&base).map_err(|e| StoreError::Io(e.to_string()))?;
        Ok(DirVfs { base })
    }

    /// A [`SharedVfs`] over real files at `base`.
    pub fn shared(base: impl Into<PathBuf>) -> Result<SharedVfs, StoreError> {
        Ok(Arc::new(Mutex::new(DirVfs::new(base)?)))
    }

    fn path(&self, file: &str) -> PathBuf {
        self.base.join(file)
    }

    fn open_rw(&self, file: &str) -> Result<std::fs::File, StoreError> {
        std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.path(file))
            .map_err(|e| StoreError::Io(format!("{file}: {e}")))
    }
}

impl Vfs for DirVfs {
    fn read_at(&self, file: &str, offset: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        if let Ok(mut f) = std::fs::File::open(self.path(file)) {
            if f.seek(SeekFrom::Start(offset)).is_ok() {
                let mut filled = 0;
                while filled < len {
                    match f.read(&mut out[filled..]) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => filled += n,
                    }
                }
            }
        }
        out
    }

    fn write_at(&mut self, file: &str, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        let mut f = self.open_rw(file)?;
        f.seek(SeekFrom::Start(offset)).map_err(|e| StoreError::Io(e.to_string()))?;
        f.write_all(data).map_err(|e| StoreError::Io(e.to_string()))
    }

    fn truncate(&mut self, file: &str, len: u64) -> Result<(), StoreError> {
        let f = self.open_rw(file)?;
        f.set_len(len).map_err(|e| StoreError::Io(e.to_string()))
    }

    fn sync(&mut self, file: &str) -> Result<(), StoreError> {
        let f = self.open_rw(file)?;
        f.sync_all().map_err(|e| StoreError::Io(e.to_string()))
    }

    fn len(&self, file: &str) -> u64 {
        std::fs::metadata(self.path(file)).map_or(0, |m| m.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_reads_zero_fill_past_eof() {
        let mut v = MemVfs::new();
        v.write_at("f", 0, b"abc").unwrap();
        assert_eq!(v.read_at("f", 1, 4), vec![b'b', b'c', 0, 0]);
        assert_eq!(v.read_at("missing", 0, 2), vec![0, 0]);
    }

    #[test]
    fn crash_loses_unsynced_writes() {
        let mut v = MemVfs::new();
        v.write_at("f", 0, b"durable").unwrap();
        v.sync("f").unwrap();
        v.write_at("f", 7, b"-volatile").unwrap();
        assert_eq!(v.len("f"), 16);
        v.crash();
        assert_eq!(v.bytes("f"), b"durable");
    }

    #[test]
    fn crash_torn_keeps_a_seeded_prefix_of_the_tail() {
        let build = || {
            let mut v = MemVfs::new();
            v.write_at("f", 0, b"base").unwrap();
            v.sync("f").unwrap();
            v.write_at("f", 4, b"0123456789").unwrap();
            v
        };
        let mut a = build();
        let mut b = build();
        a.crash_torn(42);
        b.crash_torn(42);
        assert_eq!(a.bytes("f"), b.bytes("f"), "same seed, same tear");
        let kept = a.bytes("f");
        assert!(kept.starts_with(b"base"));
        assert!(kept.len() <= 14);
        // Some seed must produce a strict tear (not all-or-nothing).
        let torn = (0..64u64).any(|s| {
            let mut v = build();
            v.crash_torn(s);
            let n = v.bytes("f").len();
            n > 4 && n < 14
        });
        assert!(torn, "no seed tore the tail strictly");
    }

    #[test]
    fn dir_vfs_round_trips_real_files() {
        let base = std::env::temp_dir().join(format!("llmdm_store_vfs_{}", std::process::id()));
        let mut v = DirVfs::new(&base).unwrap();
        v.write_at("t.bin", 3, b"xyz").unwrap();
        v.sync("t.bin").unwrap();
        assert_eq!(v.len("t.bin"), 6);
        assert_eq!(v.read_at("t.bin", 0, 6), vec![0, 0, 0, b'x', b'y', b'z']);
        v.truncate("t.bin", 4).unwrap();
        assert_eq!(v.len("t.bin"), 4);
        let _ = std::fs::remove_dir_all(&base);
    }
}
