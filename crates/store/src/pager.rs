//! The pager: a fixed-size page file behind an LRU buffer pool.
//!
//! On disk every page is [`PAGE_SIZE`] bytes: [`PAGE_DATA`] bytes of
//! payload followed by an 8-byte FNV-1a trailer checksum computed at
//! flush time. The checksum is verified whenever a page is faulted in
//! from disk (a torn page from a mid-flush crash fails loudly instead
//! of silently corrupting a scan); an all-zero page is valid — it is a
//! page that was allocated but never flushed.
//!
//! Buffer-pool policy:
//!
//! * **LRU eviction over clean frames only.** Dirty pages are *never*
//!   evicted or written back outside an explicit flush — the strict
//!   no-steal rule that guarantees uncommitted data cannot reach the
//!   database file before its WAL record is durable. When every frame
//!   is dirty the pool grows past its capacity rather than lose data;
//!   `tests/props.rs` hammers this with random workloads under tiny
//!   pool capacities.
//! * **The file is the undo record.** [`Pager::discard_dirty`] drops a
//!   transaction's dirty frames; no-steal kept them out of the file, so
//!   the next access faults the committed page back in, checksum verified.
//! * [`PoolStats`] counts one hit or miss per page access, evictions and
//!   flushes — the numbers behind the cold-vs-warm scan bench.

use std::collections::HashMap;

use crate::vfs::{vfs_lock, SharedVfs};
use crate::{fnv1a, StoreError};

/// Bytes per on-disk page (payload + trailer checksum).
pub const PAGE_SIZE: usize = 4096;
/// Usable payload bytes per page (the trailer takes 8).
pub const PAGE_DATA: usize = PAGE_SIZE - 8;

/// Buffer-pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Page requests served from the pool.
    pub hits: u64,
    /// Page requests that faulted in from the vfs.
    pub misses: u64,
    /// Clean frames evicted to make room.
    pub evictions: u64,
    /// Dirty pages written (flushes).
    pub flushes: u64,
}

#[derive(Debug)]
struct Frame {
    data: Vec<u8>,
    dirty: bool,
    last_use: u64,
}

/// The pager (see module docs).
#[derive(Debug)]
pub struct Pager {
    vfs: SharedVfs,
    file: String,
    frames: HashMap<u32, Frame>,
    capacity: usize,
    tick: u64,
    stats: PoolStats,
}

impl Pager {
    /// A pager over `file` with a pool of `capacity` frames (min 2:
    /// the header page plus one data page).
    pub fn new(vfs: SharedVfs, file: &str, capacity: usize) -> Self {
        Pager {
            vfs,
            file: file.to_string(),
            frames: HashMap::new(),
            capacity: capacity.max(2),
            tick: 0,
            stats: PoolStats::default(),
        }
    }

    /// Read access to a page's payload ([`PAGE_DATA`] bytes), faulting
    /// it in from the vfs if absent.
    pub fn page(&mut self, id: u32) -> Result<&[u8], StoreError> {
        self.fault_in(id)?;
        Ok(&self.frames[&id].data)
    }

    /// Write access to a page's payload; marks the frame dirty.
    pub fn page_mut(&mut self, id: u32) -> Result<&mut [u8], StoreError> {
        self.fault_in(id)?;
        let f = self.frames.get_mut(&id).expect("just faulted in");
        f.dirty = true;
        Ok(&mut f.data)
    }

    /// Ids of all dirty frames, ascending (the deterministic flush and
    /// WAL-image order).
    pub fn dirty_pages(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .frames
            .iter()
            .filter_map(|(&id, f)| f.dirty.then_some(id))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Write one dirty page (payload + fresh trailer checksum) to the
    /// vfs and mark it clean. No-op for clean or absent frames. The
    /// write is volatile until the owner syncs the vfs.
    pub fn flush_page(&mut self, id: u32) -> Result<(), StoreError> {
        let Some(f) = self.frames.get_mut(&id) else { return Ok(()) };
        if !f.dirty {
            return Ok(());
        }
        let mut buf = Vec::with_capacity(PAGE_SIZE);
        buf.extend_from_slice(&f.data);
        buf.extend_from_slice(&fnv1a(&f.data).to_le_bytes());
        vfs_lock(&self.vfs).write_at(&self.file, id as u64 * PAGE_SIZE as u64, &buf)?;
        f.dirty = false;
        self.stats.flushes += 1;
        Ok(())
    }

    /// Drop every dirty frame (a rollback): the next access to one of
    /// those pages faults its committed image back in from the file.
    pub fn discard_dirty(&mut self) {
        self.frames.retain(|_, f| !f.dirty);
    }

    /// Drop every cached frame (must all be clean — callers only reset
    /// after a commit or rollback). Used to measure cold scans and to
    /// re-point the pool after out-of-band file rewrites (recovery).
    pub fn clear_pool(&mut self) {
        debug_assert!(
            self.frames.values().all(|f| !f.dirty),
            "clear_pool would lose dirty pages"
        );
        self.frames.clear();
    }

    /// Pool counters so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Number of resident frames.
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// Pool capacity in frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn fault_in(&mut self, id: u32) -> Result<(), StoreError> {
        self.tick += 1;
        if let Some(f) = self.frames.get_mut(&id) {
            f.last_use = self.tick;
            self.stats.hits += 1;
            llmdm_obs::counter_add("store.pool.hits", 1.0);
            return Ok(());
        }
        self.stats.misses += 1;
        llmdm_obs::counter_add("store.pool.misses", 1.0);
        self.evict_for_room();
        let raw = vfs_lock(&self.vfs).read_at(&self.file, id as u64 * PAGE_SIZE as u64, PAGE_SIZE);
        let (data, trailer) = raw.split_at(PAGE_DATA);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        let zero_page = stored == 0 && data.iter().all(|&b| b == 0);
        if !zero_page && stored != fnv1a(data) {
            return Err(StoreError::Corrupt(format!(
                "page {id} checksum mismatch (torn write?)"
            )));
        }
        self.frames.insert(
            id,
            Frame { data: data.to_vec(), dirty: false, last_use: self.tick },
        );
        Ok(())
    }

    /// Evict the least-recently-used clean frame if the pool is full. If
    /// every frame is dirty, grow instead — a dirty page is never
    /// written back or dropped here (no-steal).
    fn evict_for_room(&mut self) {
        if self.frames.len() < self.capacity {
            return;
        }
        let victim = self
            .frames
            .iter()
            .filter(|(_, f)| !f.dirty)
            .min_by_key(|(_, f)| f.last_use)
            .map(|(&id, _)| id);
        if let Some(id) = victim {
            self.frames.remove(&id);
            self.stats.evictions += 1;
            llmdm_obs::counter_add("store.pool.evictions", 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use crate::Vfs;
    use std::sync::{Arc, Mutex};

    fn mem_pager(capacity: usize) -> (Arc<Mutex<MemVfs>>, Pager) {
        let vfs = MemVfs::shared();
        let pager = Pager::new(vfs.clone(), "p.db", capacity);
        (vfs, pager)
    }

    #[test]
    fn fresh_pages_read_as_zeros() {
        let (_vfs, mut p) = mem_pager(4);
        assert!(p.page(3).unwrap().iter().all(|&b| b == 0));
        assert_eq!(p.stats().misses, 1);
        assert_eq!(p.page(3).unwrap().len(), PAGE_DATA);
        assert_eq!(p.stats().hits, 1);
    }

    #[test]
    fn flush_then_cold_read_round_trips_with_checksum() {
        let (vfs, mut p) = mem_pager(4);
        p.page_mut(1).unwrap()[..4].copy_from_slice(b"abcd");
        p.flush_page(1).unwrap();
        let shared: SharedVfs = vfs.clone();
        vfs_lock(&shared).sync("p.db").unwrap();
        let mut cold = Pager::new(vfs.clone(), "p.db", 4);
        assert_eq!(&cold.page(1).unwrap()[..4], b"abcd");
        // Corrupt one byte on disk: the cold read must fail validation.
        {
            let mut v = llmdm_rt::lock_recover(&vfs);
            let off = PAGE_SIZE as u64 + 2;
            let orig = v.read_at("p.db", off, 1);
            v.write_at("p.db", off, &[orig[0] ^ 0xFF]).unwrap();
        }
        let mut torn = Pager::new(vfs, "p.db", 4);
        assert!(matches!(torn.page(1), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn lru_evicts_only_clean_frames() {
        let (_vfs, mut p) = mem_pager(2);
        // Pages 1 and 2 dirty, page 3 clean.
        p.page_mut(1).unwrap()[0] = 1;
        p.page_mut(2).unwrap()[0] = 2;
        let _ = p.page(3).unwrap();
        assert!(p.resident() >= 3, "dirty frames can exceed capacity");
        // Faulting a fourth page evicts page 3 (the only eligible victim).
        let _ = p.page(4).unwrap();
        assert!(p.frames[&1].dirty && p.frames[&2].dirty);
        assert_eq!(p.stats().evictions, 1);
        // The dirty writes are still there.
        assert_eq!(p.page(1).unwrap()[0], 1);
        assert_eq!(p.page(2).unwrap()[0], 2);
    }

    #[test]
    fn discard_dirty_brings_back_the_file_image() {
        let (_vfs, mut p) = mem_pager(4);
        p.page_mut(1).unwrap()[0] = 7;
        p.flush_page(1).unwrap();
        let _ = p.page(2).unwrap();
        p.page_mut(1).unwrap()[0] = 9;
        p.page_mut(3).unwrap()[0] = 9;
        p.discard_dirty();
        assert!(p.dirty_pages().is_empty());
        assert_eq!(p.resident(), 1, "only the clean page 2 stays");
        let misses = p.stats().misses;
        assert_eq!(p.page(1).unwrap()[0], 7, "the flushed image comes back");
        assert_eq!(p.page(3).unwrap()[0], 0, "a never-flushed page reads as zeros");
        assert_eq!(p.stats().misses, misses + 2);
    }
}
