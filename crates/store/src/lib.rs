//! # llmdm-store — the durable storage tier
//!
//! Every byte of state in the workspace used to live in RAM: sqlengine
//! tables, the semantic cache, usage meters. This crate is the
//! persistence substrate the ROADMAP's "millions of users" north star
//! needs — a from-scratch, zero-dependency storage engine with the
//! classical durability architecture:
//!
//! * **[`vfs`]** — the file abstraction. [`vfs::DirVfs`] is real files;
//!   [`vfs::MemVfs`] models a disk with *durable* (synced) and
//!   *volatile* (written but not yet fsynced) layers, so a simulated
//!   crash can deterministically lose exactly the unsynced tail — the
//!   machinery the crash matrix is built on.
//! * **[`pager`]** — a fixed-size page file behind an LRU buffer pool
//!   with dirty tracking. Eviction never writes a dirty page (strict
//!   no-steal), so uncommitted data can never reach the database file
//!   ahead of its WAL record, and a rollback only drops dirty frames:
//!   the file still holds every page's committed image.
//! * **[`wal`]** — a write-ahead log of checksummed frames
//!   (begin / page-image / commit / rollback). Recovery replays the
//!   page images of committed transactions and truncates any torn tail.
//! * **[`store`]** — the [`Store`]: spaces (named record heaps) on top
//!   of the pager, with a transactional API whose commit protocol is
//!   `WAL append → WAL fsync → page flush → db fsync`, each boundary a
//!   seeded kill point. Records are addressed by [`RecordId`]
//!   (page, slot): `update` and `delete` rewrite the one page that
//!   holds the record and keep scan order, so a commit's I/O is
//!   proportional to the pages it changed.
//! * **[`faults`]** — [`StorageFaults`], the adapter that drives those
//!   kill points from `llmdm-resil`'s [`llmdm_resil::FaultPlan`] on a
//!   shared [`llmdm_resil::SimClock`]: every storage barrier advances
//!   the clock by one tick, so "kill between WAL sync and page flush of
//!   the third commit" is an outage window on a deterministic timeline.
//!
//! ## Durability contract
//!
//! A transaction is *committed* the instant its `Commit` frame is
//! durable in the WAL (the post-WAL-sync point). Crashing at any kill
//! point recovers the database to **exactly the committed prefix**:
//!
//! * kill after WAL append, before WAL sync → the transaction is lost
//!   (its frames were volatile), and the database file was never
//!   touched;
//! * kill after WAL sync → the transaction survives; recovery redoes
//!   its page images even though the database file was never (or only
//!   partially) updated;
//! * kill mid-page-flush → ditto: the half-flushed pages are repaired
//!   by redo, and page trailer checksums catch any torn page a real
//!   disk would have left behind.
//!
//! Recovery is idempotent — replaying the same WAL twice produces the
//! same database bytes — and byte-reproducible: the same seed and
//! workload produce identical file images. Both properties are pinned
//! by `tests/crash_matrix.rs` and the proptests in `tests/props.rs`.
//!
//! Layering: this crate depends only on `llmdm-rt`, `llmdm-obs`, and
//! `llmdm-resil` (enforced by
//! `tests/hermetic.rs::store_crate_depends_only_on_rt_obs_resil`), so
//! sqlengine and semcache can both sit on it without cycles.

#![warn(missing_docs)]

pub mod faults;
pub mod pager;
pub mod store;
pub mod vfs;
pub mod wal;

pub use faults::{BarrierOp, KillPoint, StorageFaults};
pub use pager::{Pager, PoolStats, PAGE_DATA, PAGE_SIZE};
pub use store::{RecordId, RecoveryReport, Store, StoreConfig, MAX_RECORD};
pub use vfs::{DirVfs, MemVfs, SharedVfs, Vfs};
pub use wal::{Wal, WalRecord, WalScan};

use std::fmt;

/// Errors from the storage tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Underlying file I/O failed (only `DirVfs` can produce these).
    Io(String),
    /// On-disk bytes failed validation (bad magic, checksum mismatch,
    /// impossible offsets).
    Corrupt(String),
    /// A seeded kill point fired mid-operation: the simulated process
    /// is dead. The owner must drop this store, crash the vfs, and
    /// re-open (which runs recovery).
    Killed(KillPoint),
    /// The store already hit a kill point, or a commit failed after its
    /// `Commit` frame was durable; every subsequent operation refuses to
    /// run until the owner re-opens (which replays that commit).
    Wedged,
    /// A transaction is already open.
    TxnOpen,
    /// No transaction is open, and the operation requires one.
    NoTxn,
    /// Named space does not exist.
    UnknownSpace(String),
    /// Named space already exists.
    SpaceExists(String),
    /// A record exceeds the per-page payload capacity.
    RecordTooLarge(usize),
    /// The id names no live record of the space (deleted, moved by a
    /// page split, or never issued).
    NoSuchRecord(RecordId),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "storage io error: {m}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            StoreError::Killed(p) => write!(f, "killed at {}", p.label()),
            StoreError::Wedged => write!(f, "store is wedged; re-open to recover"),
            StoreError::TxnOpen => write!(f, "transaction already open"),
            StoreError::NoTxn => write!(f, "no open transaction"),
            StoreError::UnknownSpace(s) => write!(f, "unknown space: {s}"),
            StoreError::SpaceExists(s) => write!(f, "space already exists: {s}"),
            StoreError::RecordTooLarge(n) => write!(f, "record of {n} bytes exceeds page capacity"),
            StoreError::NoSuchRecord(id) => {
                write!(f, "no live record at page {} slot {}", id.page, id.slot)
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// FNV-1a 64-bit over raw bytes — the frame and page checksum, so part
/// of the on-disk format.
pub(crate) use llmdm_rt::hash::fnv1a;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_sensitive() {
        // The reference FNV-1a vector: files written today verify tomorrow.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn error_display_mentions_the_kill_point() {
        let e = StoreError::Killed(KillPoint::PostWalSync);
        assert!(e.to_string().contains("wal_sync"), "{e}");
    }
}
