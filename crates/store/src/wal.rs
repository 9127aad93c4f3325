//! The write-ahead log: an append-only file of checksummed frames.
//!
//! Frame wire format (all integers little-endian):
//!
//! ```text
//! [kind u8][txn u64][page u32][len u32][payload len bytes][fnv1a u64]
//! ```
//!
//! The trailing checksum covers everything before it. `page` and the
//! payload are only meaningful for `PageImage` frames (a full
//! [`crate::PAGE_DATA`]-byte after-image); control frames carry
//! `page = 0, len = 0`.
//!
//! [`Wal::scan`] walks the file from the start and stops at the first
//! frame that is short, fails its checksum, or has a header no writer
//! produces. Everything before that point is trusted. A crash
//! mid-append cuts the log short; it does not change bytes already
//! written. So what follows the trusted prefix is a *torn tail* that
//! recovery truncates only if it is cut short too — a partial header,
//! a well-formed header whose frame runs past end of file, or all
//! zeros (a file extended on disk whose data never landed). A complete
//! frame that fails its checksum, or a malformed header, is *corrupt*:
//! committed frames may follow it, so recovery refuses to open rather
//! than lose them. A transaction counts as committed iff its `Commit`
//! frame lies in the trusted prefix.

use std::collections::BTreeSet;

use crate::vfs::{vfs_lock, SharedVfs};
use crate::{fnv1a, StoreError, PAGE_DATA};

const KIND_BEGIN: u8 = 1;
const KIND_PAGE: u8 = 2;
const KIND_COMMIT: u8 = 3;
const KIND_ROLLBACK: u8 = 4;

/// Fixed bytes around a frame's payload: kind + txn + page + len header
/// and the trailing checksum.
pub const FRAME_OVERHEAD: usize = 1 + 8 + 4 + 4 + 8;

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Transaction `txn` started.
    Begin {
        /// Transaction id.
        txn: u64,
    },
    /// Full after-image of `page` written by `txn`.
    PageImage {
        /// Transaction id.
        txn: u64,
        /// Page the image belongs to.
        page: u32,
        /// [`crate::PAGE_DATA`] bytes of page payload.
        data: Vec<u8>,
    },
    /// Transaction `txn` committed — the durability point.
    Commit {
        /// Transaction id.
        txn: u64,
    },
    /// Transaction `txn` rolled back (informational; rollback restores
    /// in-memory state and writes nothing to the database file).
    Rollback {
        /// Transaction id.
        txn: u64,
    },
}

impl WalRecord {
    fn kind(&self) -> u8 {
        match self {
            WalRecord::Begin { .. } => KIND_BEGIN,
            WalRecord::PageImage { .. } => KIND_PAGE,
            WalRecord::Commit { .. } => KIND_COMMIT,
            WalRecord::Rollback { .. } => KIND_ROLLBACK,
        }
    }

    /// Transaction id the record belongs to.
    pub fn txn(&self) -> u64 {
        match self {
            WalRecord::Begin { txn }
            | WalRecord::PageImage { txn, .. }
            | WalRecord::Commit { txn }
            | WalRecord::Rollback { txn } => *txn,
        }
    }

    /// Serialize to the frame wire format.
    pub fn encode(&self) -> Vec<u8> {
        let (txn, page, payload): (u64, u32, &[u8]) = match self {
            WalRecord::Begin { txn } => (*txn, 0, &[]),
            WalRecord::PageImage { txn, page, data } => (*txn, *page, data),
            WalRecord::Commit { txn } => (*txn, 0, &[]),
            WalRecord::Rollback { txn } => (*txn, 0, &[]),
        };
        let mut buf = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
        buf.push(self.kind());
        buf.extend_from_slice(&txn.to_le_bytes());
        buf.extend_from_slice(&page.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(payload);
        let sum = fnv1a(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }
}

/// Result of scanning a WAL image: the trusted prefix.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalScan {
    /// Records in the trusted prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Transactions whose `Commit` frame is in the trusted prefix.
    pub committed: BTreeSet<u64>,
    /// Byte length of the trusted prefix (truncation point for a torn
    /// tail).
    pub valid_len: u64,
    /// Whether bytes beyond `valid_len` existed (a torn or corrupt
    /// tail).
    pub torn: bool,
    /// Whether those bytes are damage rather than a cut-short append
    /// (see module docs): truncating them could drop committed frames.
    pub corrupt: bool,
}

/// Append-side handle to the log file (see module docs).
#[derive(Debug)]
pub struct Wal {
    vfs: SharedVfs,
    file: String,
    /// Bytes appended so far (volatile until [`Wal::sync`]).
    len: u64,
}

impl Wal {
    /// Open the log at `file`, trusting the first `len` bytes (the
    /// caller learns that from [`Wal::scan`] during recovery; 0 for a
    /// fresh store).
    pub fn open(vfs: SharedVfs, file: &str, len: u64) -> Self {
        Wal { vfs, file: file.to_string(), len }
    }

    /// Append one record. Volatile until [`Wal::sync`].
    pub fn append(&mut self, rec: &WalRecord) -> Result<(), StoreError> {
        let frame = rec.encode();
        vfs_lock(&self.vfs).write_at(&self.file, self.len, &frame)?;
        self.len += frame.len() as u64;
        llmdm_obs::counter_add("store.wal.appends", 1.0);
        Ok(())
    }

    /// Make every appended frame durable (the commit durability point).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        vfs_lock(&self.vfs).sync(&self.file)
    }

    /// Discard the log: truncate to zero and sync (checkpoint; only
    /// legal after every committed image is flushed and the database
    /// file synced).
    pub fn reset(&mut self) -> Result<(), StoreError> {
        let mut v = vfs_lock(&self.vfs);
        v.truncate(&self.file, 0)?;
        v.sync(&self.file)?;
        self.len = 0;
        llmdm_obs::counter_add("store.wal.checkpoints", 1.0);
        Ok(())
    }

    /// Truncate a torn tail discovered by [`Wal::scan`] and sync.
    pub fn truncate_to(&mut self, len: u64) -> Result<(), StoreError> {
        let mut v = vfs_lock(&self.vfs);
        v.truncate(&self.file, len)?;
        v.sync(&self.file)?;
        self.len = len;
        Ok(())
    }

    /// Current logical length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no frames.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Parse a raw WAL image into its trusted prefix. Pure function of
    /// the bytes — recovery, tests, and proptests all share it.
    pub fn scan(bytes: &[u8]) -> WalScan {
        let mut out = WalScan::default();
        let mut pos = 0usize;
        loop {
            let Some(rest) = bytes.get(pos..) else { break };
            if rest.len() < FRAME_OVERHEAD {
                out.torn = !rest.is_empty();
                break;
            }
            let kind = rest[0];
            let txn = u64::from_le_bytes(rest[1..9].try_into().expect("8 bytes"));
            let page = u32::from_le_bytes(rest[9..13].try_into().expect("4 bytes"));
            let len = u32::from_le_bytes(rest[13..17].try_into().expect("4 bytes")) as usize;
            let well_formed = match kind {
                KIND_PAGE => len <= PAGE_DATA,
                KIND_BEGIN | KIND_COMMIT | KIND_ROLLBACK => page == 0 && len == 0,
                _ => false,
            };
            let total = FRAME_OVERHEAD + len;
            // `Some(damaged)` stops the scan: damage, or a frame cut short.
            let stop = if !well_formed {
                Some(true)
            } else if rest.len() < total {
                Some(false)
            } else {
                let stored =
                    u64::from_le_bytes(rest[total - 8..total].try_into().expect("8 bytes"));
                (stored != fnv1a(&rest[..total - 8])).then_some(true)
            };
            if let Some(damaged) = stop {
                out.torn = true;
                // All zeros is an extension whose data never landed:
                // torn, however long.
                out.corrupt = damaged && rest.iter().any(|&b| b != 0);
                break;
            }
            let rec = match kind {
                KIND_BEGIN => WalRecord::Begin { txn },
                KIND_PAGE => {
                    WalRecord::PageImage { txn, page, data: rest[17..17 + len].to_vec() }
                }
                KIND_COMMIT => {
                    out.committed.insert(txn);
                    WalRecord::Commit { txn }
                }
                _ => WalRecord::Rollback { txn },
            };
            out.records.push(rec);
            pos += total;
            out.valid_len = pos as u64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    fn page_data(fill: u8) -> Vec<u8> {
        vec![fill; PAGE_DATA]
    }

    fn sample_log() -> Vec<u8> {
        let mut bytes = Vec::new();
        for rec in [
            WalRecord::Begin { txn: 1 },
            WalRecord::PageImage { txn: 1, page: 2, data: page_data(0xAA) },
            WalRecord::Commit { txn: 1 },
            WalRecord::Begin { txn: 2 },
            WalRecord::PageImage { txn: 2, page: 3, data: page_data(0xBB) },
        ] {
            bytes.extend_from_slice(&rec.encode());
        }
        bytes
    }

    #[test]
    fn encode_scan_round_trip() {
        let bytes = sample_log();
        let scan = Wal::scan(&bytes);
        assert_eq!(scan.records.len(), 5);
        assert!(!scan.torn);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert!(scan.committed.contains(&1));
        assert!(!scan.committed.contains(&2), "txn 2 has no commit frame");
    }

    #[test]
    fn scan_stops_at_any_torn_cut() {
        let bytes = sample_log();
        let full = Wal::scan(&bytes);
        // Every strict prefix recovers only whole frames, never more.
        for cut in 0..bytes.len() {
            let scan = Wal::scan(&bytes[..cut]);
            assert!(scan.valid_len <= cut as u64);
            assert!(scan.records.len() <= full.records.len());
            if cut > 0 && scan.valid_len < cut as u64 {
                assert!(scan.torn, "partial frame at cut {cut} must flag torn");
            }
            // The trusted prefix itself always re-scans clean.
            let again = Wal::scan(&bytes[..scan.valid_len as usize]);
            assert_eq!(again.records, scan.records);
            assert!(!again.torn);
        }
    }

    #[test]
    fn scan_stops_at_corrupt_frame_not_just_short_one() {
        let mut bytes = sample_log();
        // Flip a byte inside the second frame's payload.
        let first_len = WalRecord::Begin { txn: 1 }.encode().len();
        bytes[first_len + 40] ^= 0xFF;
        let scan = Wal::scan(&bytes);
        assert_eq!(scan.records.len(), 1, "only the Begin before the corruption");
        assert!(scan.torn);
        assert!(scan.committed.is_empty());
    }

    #[test]
    fn a_cut_is_torn_and_a_flipped_bit_is_corrupt() {
        let bytes = sample_log();
        for cut in 0..bytes.len() {
            let scan = Wal::scan(&bytes[..cut]);
            assert!(!scan.corrupt, "a cut at byte {cut} is a tear, not damage");
        }
        let first = WalRecord::Begin { txn: 1 }.encode().len();
        let mut zero_filled = bytes[..first].to_vec();
        zero_filled.resize(bytes.len(), 0);
        assert!(!Wal::scan(&zero_filled).corrupt, "zero-fill after a whole frame is a tear");
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                let scan = Wal::scan(&flipped);
                assert!(scan.corrupt, "bit {bit} of byte {at} flipped reads as {scan:?}");
            }
        }
    }

    #[test]
    fn append_sync_survive_crash_but_unsynced_do_not() {
        let vfs = MemVfs::shared();
        let shared: SharedVfs = vfs.clone();
        let mut wal = Wal::open(shared, "w.wal", 0);
        wal.append(&WalRecord::Begin { txn: 9 }).unwrap();
        wal.append(&WalRecord::Commit { txn: 9 }).unwrap();
        wal.sync().unwrap();
        wal.append(&WalRecord::Begin { txn: 10 }).unwrap();
        llmdm_rt::lock_recover(&vfs).crash();
        let scan = Wal::scan(&llmdm_rt::lock_recover(&vfs).bytes("w.wal"));
        assert_eq!(scan.records.len(), 2);
        assert!(scan.committed.contains(&9));
    }
}
