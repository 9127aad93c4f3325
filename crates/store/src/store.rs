//! The [`Store`]: named record heaps ("spaces") on a paged file, with a
//! WAL-backed transactional API and crash recovery on open.
//!
//! ## File layout
//!
//! Page 0 is the header:
//!
//! ```text
//! [magic "LLMDMST1"][version u32][page_size u32]
//! [page_count u32][freelist_head u32][catalog_head u32]
//! ```
//!
//! Every other page is either on the freelist (its first 4 bytes link
//! to the next free page) or a **record page**:
//!
//! ```text
//! [next u32][nrec u16][used u16]  then nrec × [len u16][bytes]
//! ```
//!
//! A *space* is a chain of record pages; the catalog is itself such a
//! chain whose records are `[name_len u16][name][head u32]` entries,
//! rewritten wholesale on create/drop (space heads are allocated at
//! create time and never change, so record operations never touch the
//! catalog).
//!
//! ## Record addressing
//!
//! A [`RecordId`] names a record by its page and its slot (its ordinal
//! among the page's `nrec` entries). [`Store::update`] and
//! [`Store::delete`] rewrite that one page. A deleted slot stays behind
//! as a 2-byte `len = 0xFFFF` marker so the slots after it keep their
//! numbers; a page left without live records is unlinked from the chain
//! and freed (the head is emptied instead). A record that grows past
//! its page's free space splits the page: it and the records after it
//! move to new pages linked right behind, so **scan order never
//! changes** — that is what lets a caller hold rows in a `Vec` whose
//! order is the chain's. The store keeps each space's page list in
//! memory (walked once at open), so finding a predecessor reads no page.
//!
//! ## Commit protocol
//!
//! ```text
//! wal.append(images + Commit)
//!       │ ◄── KillPoint::PostWalAppend
//! wal.sync()                      ← durability point
//!       │ ◄── KillPoint::PostWalSync
//! for page in dirty (ascending):
//!       │ ◄── KillPoint::MidPageFlush (before each page)
//!   pager.flush_page(page)
//! db.sync()
//! maybe checkpoint (truncate WAL)
//! ```
//!
//! Only that flush writes the database file and the pool never evicts a
//! dirty page (no-steal), so a rollback just drops the dirty frames: the
//! file still holds every touched page's committed image.
//!
//! An I/O error before the WAL sync returns undoes the commit (the WAL is
//! cut back to where the commit's frames began and the transaction rolls
//! back); one after it — or a fired kill point — wedges the store
//! ([`StoreError::Wedged`] on every later call): a dead process does not
//! execute code, and a durable commit the pages do not show yet must not
//! be served or built on. The owner drops
//! the store, crashes the vfs, and re-opens — [`Store::open`] scans the
//! WAL, truncates any torn tail, and redoes the page images of every
//! committed transaction straight into the database file before the
//! pager comes up. Recovery never writes uncommitted data and is
//! idempotent (the WAL is only truncated at its torn point, so opening
//! twice redoes twice onto identical bytes). Open refuses damage it
//! cannot repair with [`StoreError::Corrupt`] rather than serve fewer
//! rows: a WAL frame that is damaged rather than torn (see
//! [`crate::wal`]), a database file shorter than its header's page
//! count, or a chain page that reads back as zeros.

use std::collections::BTreeMap;

use crate::faults::{KillPoint, StorageFaults};
use crate::pager::{Pager, PoolStats, PAGE_DATA, PAGE_SIZE};
use crate::vfs::{vfs_lock, SharedVfs};
use crate::wal::{Wal, WalRecord};
use crate::{fnv1a, StoreError};

const MAGIC: &[u8; 8] = b"LLMDMST1";
const VERSION: u32 = 1;
/// Record-page header bytes ([next u32][nrec u16][used u16]).
const PAGE_HDR: usize = 8;
/// Largest single record a space can hold (records never span pages).
pub const MAX_RECORD: usize = PAGE_DATA - PAGE_HDR - 2;
/// `len` of a deleted slot (no record is that long: [`MAX_RECORD`]).
const DEAD: u16 = u16::MAX;

/// Address of one record: the page that holds it and its slot there.
/// Valid until the record is deleted or a growing [`Store::update`] of
/// a record before it on the same page moves it (the update returns
/// the new ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId {
    /// Page number in the database file.
    pub page: u32,
    /// Ordinal among the page's slots, deleted ones included.
    pub slot: u16,
}

// ------------------------------------------------ record-page helpers

fn rp_init(buf: &mut [u8]) {
    buf[..PAGE_HDR].fill(0);
    buf[6..8].copy_from_slice(&(PAGE_HDR as u16).to_le_bytes());
}

fn rp_next(buf: &[u8]) -> u32 {
    u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"))
}

/// The `next` link of page `id`, reached through a chain. The store
/// never leaves a chain page without its header, so one that has none
/// (all zeros: a page lost from the file that a later redo wrote past)
/// is corrupt.
fn rp_chain_next(id: u32, buf: &[u8]) -> Result<u32, StoreError> {
    if rp_used(buf) < PAGE_HDR {
        return Err(StoreError::Corrupt(format!("page {id} in a chain is not a record page")));
    }
    Ok(rp_next(buf))
}

fn rp_set_next(buf: &mut [u8], next: u32) {
    buf[..4].copy_from_slice(&next.to_le_bytes());
}

fn rp_used(buf: &[u8]) -> usize {
    u16::from_le_bytes(buf[6..8].try_into().expect("2 bytes")) as usize
}

fn rp_free(buf: &[u8]) -> usize {
    PAGE_DATA.saturating_sub(rp_used(buf).max(PAGE_HDR))
}

/// Add one slot at the end: a record, or with `None` a deleted slot.
fn rp_push(buf: &mut [u8], rec: Option<&[u8]>) {
    let nrec = rp_nrec(buf);
    let used = rp_used(buf).max(PAGE_HDR);
    let (len, bytes) = match rec {
        Some(rec) => (rec.len() as u16, rec),
        None => (DEAD, &[][..]),
    };
    buf[used..used + 2].copy_from_slice(&len.to_le_bytes());
    buf[used + 2..used + 2 + bytes.len()].copy_from_slice(bytes);
    buf[4..6].copy_from_slice(&(nrec + 1).to_le_bytes());
    buf[6..8].copy_from_slice(&((used + 2 + bytes.len()) as u16).to_le_bytes());
}

fn rp_nrec(buf: &[u8]) -> u16 {
    u16::from_le_bytes(buf[4..6].try_into().expect("2 bytes"))
}

/// A record page's slots in order; `None` is a deleted slot.
type Slots = Vec<Option<Vec<u8>>>;

fn rp_slots(buf: &[u8]) -> Result<Slots, StoreError> {
    let nrec = rp_nrec(buf) as usize;
    let mut out = Vec::with_capacity(nrec);
    let mut off = PAGE_HDR;
    for _ in 0..nrec {
        if off + 2 > PAGE_DATA {
            return Err(StoreError::Corrupt("record offset past page end".into()));
        }
        let len = u16::from_le_bytes(buf[off..off + 2].try_into().expect("2 bytes"));
        off += 2;
        if len == DEAD {
            out.push(None);
            continue;
        }
        let len = len as usize;
        if off + len > PAGE_DATA {
            return Err(StoreError::Corrupt("record length past page end".into()));
        }
        out.push(Some(buf[off..off + len].to_vec()));
        off += len;
    }
    Ok(out)
}

/// Bytes a record page holding `slots` uses, header included.
fn rp_size(slots: &[Option<Vec<u8>>]) -> usize {
    PAGE_HDR + slots.iter().map(|s| 2 + s.as_ref().map_or(0, Vec::len)).sum::<usize>()
}

/// Overwrite a record page with `slots` (which must fit) and `next`.
fn rp_write(buf: &mut [u8], next: u32, slots: &[Option<Vec<u8>>]) {
    buf.fill(0);
    rp_init(buf);
    rp_set_next(buf, next);
    for slot in slots {
        rp_push(buf, slot.as_deref());
    }
}

// ----------------------------------------------------------- metadata

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    page_count: u32,
    freelist_head: u32,
    catalog_head: u32,
}

impl Header {
    fn fresh() -> Self {
        // Page 0 is the header itself.
        Header { page_count: 1, freelist_head: 0, catalog_head: 0 }
    }

    fn encode_into(self, buf: &mut [u8]) {
        buf[..8].copy_from_slice(MAGIC);
        buf[8..12].copy_from_slice(&VERSION.to_le_bytes());
        buf[12..16].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
        buf[16..20].copy_from_slice(&self.page_count.to_le_bytes());
        buf[20..24].copy_from_slice(&self.freelist_head.to_le_bytes());
        buf[24..28].copy_from_slice(&self.catalog_head.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Result<Self, StoreError> {
        if &buf[..8] != MAGIC {
            return Err(StoreError::Corrupt("bad magic in header page".into()));
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
        let page_size = u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes"));
        if version != VERSION || page_size != PAGE_SIZE as u32 {
            return Err(StoreError::Corrupt(format!(
                "unsupported version {version} / page size {page_size}"
            )));
        }
        Ok(Header {
            page_count: u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes")),
            freelist_head: u32::from_le_bytes(buf[20..24].try_into().expect("4 bytes")),
            catalog_head: u32::from_le_bytes(buf[24..28].try_into().expect("4 bytes")),
        })
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct SpaceInfo {
    /// The chain's pages, head first (in-memory only; re-derived at
    /// open by walking the chain). Never empty.
    pages: Vec<u32>,
}

impl SpaceInfo {
    fn head(&self) -> u32 {
        self.pages[0]
    }

    fn tail(&self) -> u32 {
        *self.pages.last().expect("a space has a head page")
    }
}

/// What a rollback restores; the pages come back from the file.
#[derive(Debug)]
struct TxnState {
    id: u64,
    header: Header,
    /// Spaces as they were before this transaction first changed their
    /// page list (`None`: did not exist) — restored on rollback.
    spaces: BTreeMap<String, Option<SpaceInfo>>,
}

/// What [`Store::open`] found and did while recovering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Valid WAL frames scanned.
    pub frames: usize,
    /// Distinct committed transactions in the WAL.
    pub committed_txns: usize,
    /// Page images redone into the database file.
    pub pages_redone: usize,
    /// Whether a torn/corrupt WAL tail was truncated.
    pub torn_tail_truncated: bool,
    /// Trusted WAL length in bytes after recovery.
    pub wal_bytes: u64,
}

/// Knobs for [`Store::open`].
#[derive(Debug)]
pub struct StoreConfig {
    /// Database file name inside the vfs.
    pub db_file: String,
    /// WAL file name inside the vfs.
    pub wal_file: String,
    /// Buffer-pool capacity in frames.
    pub pool_pages: usize,
    /// Checkpoint (truncate the WAL) after a commit leaves it at least
    /// this long. `None` disables checkpointing — recovery benches use
    /// that to grow arbitrarily long WALs.
    pub checkpoint_bytes: Option<u64>,
    /// Kill-point driver ([`StorageFaults::none`] in production).
    pub faults: StorageFaults,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            db_file: "data.db".into(),
            wal_file: "data.wal".into(),
            pool_pages: 64,
            checkpoint_bytes: Some(1 << 20),
            faults: StorageFaults::none(),
        }
    }
}

impl StoreConfig {
    /// Default config with the given kill-point driver.
    pub fn with_faults(faults: StorageFaults) -> Self {
        StoreConfig { faults, ..StoreConfig::default() }
    }
}

/// The storage engine (see module docs).
#[derive(Debug)]
pub struct Store {
    vfs: SharedVfs,
    db_file: String,
    pager: Pager,
    wal: Wal,
    faults: StorageFaults,
    checkpoint_bytes: Option<u64>,
    header: Header,
    header_dirty: bool,
    catalog: BTreeMap<String, SpaceInfo>,
    txn: Option<TxnState>,
    next_txn: u64,
    wedged: bool,
    recovery: RecoveryReport,
}

impl Store {
    /// Open (or create) a store on `vfs`, running crash recovery first:
    /// scan the WAL, truncate any torn tail, redo committed page images
    /// into the database file.
    pub fn open(vfs: SharedVfs, cfg: StoreConfig) -> Result<Store, StoreError> {
        let StoreConfig { db_file, wal_file, pool_pages, checkpoint_bytes, faults } = cfg;

        let wal_bytes = {
            let v = vfs_lock(&vfs);
            let n = v.len(&wal_file) as usize;
            v.read_at(&wal_file, 0, n)
        };
        let scan = Wal::scan(&wal_bytes);
        if scan.corrupt {
            return Err(StoreError::Corrupt(format!(
                "{wal_file}: damaged frame at byte {}, not a torn tail",
                scan.valid_len
            )));
        }
        let mut recovery = RecoveryReport {
            frames: scan.records.len(),
            committed_txns: scan.committed.len(),
            pages_redone: 0,
            torn_tail_truncated: scan.torn,
            wal_bytes: scan.valid_len,
        };

        {
            let mut v = vfs_lock(&vfs);
            for rec in &scan.records {
                if let WalRecord::PageImage { txn, page, data } = rec {
                    if scan.committed.contains(txn) {
                        let mut buf = data.clone();
                        buf.resize(PAGE_DATA, 0);
                        let sum = fnv1a(&buf);
                        buf.extend_from_slice(&sum.to_le_bytes());
                        v.write_at(&db_file, *page as u64 * PAGE_SIZE as u64, &buf)?;
                        recovery.pages_redone += 1;
                    }
                }
            }
            if recovery.pages_redone > 0 {
                v.sync(&db_file)?;
                llmdm_obs::counter_add("store.recovery.pages_redone", recovery.pages_redone as f64);
            }
            if scan.torn {
                v.truncate(&wal_file, scan.valid_len)?;
                v.sync(&wal_file)?;
                llmdm_obs::counter_add("store.recovery.torn_tails", 1.0);
            }
        }

        let wal = Wal::open(vfs.clone(), &wal_file, scan.valid_len);
        let next_txn = scan.records.iter().map(WalRecord::txn).max().unwrap_or(0) + 1;
        let mut pager = Pager::new(vfs.clone(), &db_file, pool_pages);
        let db_len = vfs_lock(&vfs).len(&db_file);
        let header =
            if db_len == 0 { Header::fresh() } else { Header::decode(pager.page(0)?)? };
        // Every allocated page is written by the commit that allocates
        // it, so a shorter file lost pages that would read back as
        // zero-fill, and with them records.
        if db_len > 0 && db_len < header.page_count as u64 * PAGE_SIZE as u64 {
            return Err(StoreError::Corrupt(format!(
                "{db_file}: {db_len} bytes, short of its {} pages",
                header.page_count
            )));
        }

        let mut store = Store {
            vfs,
            db_file,
            pager,
            wal,
            faults,
            checkpoint_bytes,
            header,
            header_dirty: false,
            catalog: BTreeMap::new(),
            txn: None,
            next_txn,
            wedged: false,
            recovery,
        };
        store.load_catalog()?;
        Ok(store)
    }

    /// What recovery found and did during [`Store::open`].
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// The kill-point driver this store runs under (a recording
    /// driver's barrier log is read through here).
    pub fn faults(&self) -> &StorageFaults {
        &self.faults
    }

    /// Buffer-pool counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pager.stats()
    }

    /// Drop every cached page (legal only outside a transaction) — lets
    /// benches measure a cold scan against the same open store.
    pub fn clear_pool(&mut self) -> Result<(), StoreError> {
        if self.txn.is_some() {
            return Err(StoreError::TxnOpen);
        }
        self.pager.clear_pool();
        Ok(())
    }

    /// Current trusted WAL length in bytes.
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }

    /// Whether a transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Whether a kill point fired, or a commit failed after its `Commit`
    /// frame was durable: every call now fails with
    /// [`StoreError::Wedged`] until the owner re-opens.
    pub fn wedged(&self) -> bool {
        self.wedged
    }

    /// Space names, sorted.
    pub fn spaces(&self) -> Vec<String> {
        self.catalog.keys().cloned().collect()
    }

    /// Whether `name` exists.
    pub fn has_space(&self, name: &str) -> bool {
        self.catalog.contains_key(name)
    }

    // ------------------------------------------------------ txn api

    /// Start a transaction (writes the `Begin` WAL frame eagerly).
    pub fn begin(&mut self) -> Result<(), StoreError> {
        self.ensure_live()?;
        if self.txn.is_some() {
            return Err(StoreError::TxnOpen);
        }
        let id = self.next_txn;
        self.next_txn += 1;
        self.wal.append(&WalRecord::Begin { txn: id })?;
        self.txn = Some(TxnState { id, header: self.header, spaces: BTreeMap::new() });
        Ok(())
    }

    /// Atomically commit the open transaction via the kill-checked
    /// protocol in the module docs. On [`StoreError::Killed`] the store
    /// wedges; the owner must crash the vfs and re-open.
    ///
    /// Any other failure before the `Commit` frame is durable undoes the
    /// commit: the WAL is cut back to where its frames began (so no later
    /// sync can make the transaction durable) and the transaction rolls
    /// back, leaving the store usable at its pre-transaction state. A
    /// failure after that point wedges the store instead — recovery will
    /// replay the commit, so only a re-open shows the right state.
    pub fn commit(&mut self) -> Result<(), StoreError> {
        self.ensure_live()?;
        let txn = self.txn.as_ref().ok_or(StoreError::NoTxn)?.id;
        let mark = self.wal.len();
        let dirty = match self.log_commit(txn) {
            Ok(dirty) => dirty,
            Err(e) => {
                if !self.wedged {
                    match self.wal.truncate_to(mark) {
                        // The Rollback frame is informational: memory is
                        // back at the pre-transaction state either way.
                        Ok(()) => drop(self.rollback()),
                        // The Commit frame may still reach the disk.
                        Err(_) => self.wedged = true,
                    }
                }
                return Err(e);
            }
        };
        self.apply_commit(&dirty).inspect_err(|_| self.wedged = true)
    }

    /// The commit protocol up to its durability point: page images and
    /// the `Commit` frame appended, the WAL synced. Returns the pages to
    /// flush.
    fn log_commit(&mut self, txn: u64) -> Result<Vec<u32>, StoreError> {
        if self.header_dirty {
            let header = self.header;
            header.encode_into(self.write_page(0)?);
        }
        let dirty = self.pager.dirty_pages();
        for &p in &dirty {
            let data = self.pager.page(p)?.to_vec();
            self.wal.append(&WalRecord::PageImage { txn, page: p, data })?;
        }
        self.wal.append(&WalRecord::Commit { txn })?;
        self.kill_check(KillPoint::PostWalAppend)?;
        self.wal.sync()?;
        Ok(dirty)
    }

    /// The commit protocol after its durability point.
    fn apply_commit(&mut self, dirty: &[u32]) -> Result<(), StoreError> {
        self.kill_check(KillPoint::PostWalSync)?;
        for &p in dirty {
            self.kill_check(KillPoint::MidPageFlush)?;
            self.pager.flush_page(p)?;
        }
        vfs_lock(&self.vfs).sync(&self.db_file)?;
        self.txn = None;
        self.header_dirty = false;
        llmdm_obs::counter_add("store.commits", 1.0);
        if let Some(limit) = self.checkpoint_bytes {
            if self.wal.len() >= limit {
                self.wal.reset()?;
            }
        }
        Ok(())
    }

    /// Abort the open transaction: its dirty pages are dropped from the
    /// pool, metadata reverts to its begin-time snapshot, and the
    /// database file is untouched (it only ever changes at commit), so
    /// the next read of a touched page faults its committed image in.
    pub fn rollback(&mut self) -> Result<(), StoreError> {
        self.ensure_live()?;
        let t = self.txn.take().ok_or(StoreError::NoTxn)?;
        self.pager.discard_dirty();
        self.header = t.header;
        for (name, was) in t.spaces {
            match was {
                Some(info) => self.catalog.insert(name, info),
                None => self.catalog.remove(&name),
            };
        }
        self.header_dirty = false;
        self.wal.append(&WalRecord::Rollback { txn: t.id })?;
        llmdm_obs::counter_add("store.rollbacks", 1.0);
        Ok(())
    }

    /// Run `f` inside a transaction: commit on `Ok`, roll back on
    /// `Err` (unless the store was killed/wedged, where there is no
    /// process left to roll anything back).
    pub fn with_txn<T>(
        &mut self,
        f: impl FnOnce(&mut Store) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        self.begin()?;
        match f(self) {
            Ok(v) => {
                self.commit()?;
                Ok(v)
            }
            Err(e) => {
                if !self.wedged {
                    let _ = self.rollback();
                }
                Err(e)
            }
        }
    }

    // ---------------------------------------------------- space api

    /// Create an empty space (requires an open transaction).
    pub fn create_space(&mut self, name: &str) -> Result<(), StoreError> {
        self.ensure_txn()?;
        if self.catalog.contains_key(name) {
            return Err(StoreError::SpaceExists(name.to_string()));
        }
        let head = self.alloc_page()?;
        rp_init(self.write_page(head)?);
        self.save_space(name);
        self.catalog.insert(name.to_string(), SpaceInfo { pages: vec![head] });
        self.rewrite_catalog()
    }

    /// Drop a space, returning its pages to the freelist.
    pub fn drop_space(&mut self, name: &str) -> Result<(), StoreError> {
        self.ensure_txn()?;
        let head = self.space(name)?.head();
        self.free_chain(head)?;
        self.save_space(name);
        self.catalog.remove(name);
        self.rewrite_catalog()
    }

    /// Delete every record in a space, keeping the space itself.
    pub fn truncate_space(&mut self, name: &str) -> Result<(), StoreError> {
        self.ensure_txn()?;
        let head = self.space(name)?.head();
        let rest = rp_next(self.pager.page(head)?);
        if rest != 0 {
            self.free_chain(rest)?;
        }
        rp_init(self.write_page(head)?);
        self.space_mut(name).expect("just looked up").pages.truncate(1);
        Ok(())
    }

    /// Append one record to a space (requires an open transaction).
    pub fn append(&mut self, space: &str, rec: &[u8]) -> Result<RecordId, StoreError> {
        self.ensure_txn()?;
        if rec.len() > MAX_RECORD {
            return Err(StoreError::RecordTooLarge(rec.len()));
        }
        let mut tail = self.space(space)?.tail();
        if rp_free(self.pager.page(tail)?) < 2 + rec.len() {
            let np = self.alloc_page()?;
            rp_init(self.write_page(np)?);
            rp_set_next(self.write_page(tail)?, np);
            self.space_mut(space).expect("just looked up").pages.push(np);
            tail = np;
        }
        let buf = self.write_page(tail)?;
        let slot = rp_nrec(buf);
        rp_push(buf, Some(rec));
        Ok(RecordId { page: tail, slot })
    }

    /// Replace the record at `id`, rewriting its page. If the new bytes
    /// no longer fit there the page splits: the records before `id`
    /// stay, `id` and the records after it move to new pages linked
    /// right behind. Returns the ids, in scan order, of the updated
    /// record and the records that followed it on its page **if they
    /// moved**, and nothing if the page was rewritten in place.
    pub fn update(
        &mut self,
        space: &str,
        id: RecordId,
        rec: &[u8],
    ) -> Result<Vec<RecordId>, StoreError> {
        self.ensure_txn()?;
        if rec.len() > MAX_RECORD {
            return Err(StoreError::RecordTooLarge(rec.len()));
        }
        let (mut pos, mut slots) = self.locate(space, id)?;
        let next = rp_next(self.pager.page(id.page)?);
        slots[id.slot as usize] = Some(rec.to_vec());
        if rp_size(&slots) <= PAGE_DATA {
            rp_write(self.write_page(id.page)?, next, &slots);
            return Ok(Vec::new());
        }
        let moving: Vec<Vec<u8>> =
            slots.split_off(id.slot as usize).into_iter().flatten().collect();
        if slots.iter().all(Option::is_none) {
            // Nothing live stays behind, so no id depends on these slots.
            slots.clear();
        }
        let mut page = id.page;
        let mut moved = Vec::with_capacity(moving.len());
        for r in moving {
            if rp_size(&slots) + 2 + r.len() > PAGE_DATA {
                let np = self.alloc_page()?;
                rp_write(self.write_page(page)?, np, &slots);
                pos += 1;
                self.space_mut(space).expect("located above").pages.insert(pos, np);
                page = np;
                slots.clear();
            }
            moved.push(RecordId { page, slot: slots.len() as u16 });
            slots.push(Some(r));
        }
        rp_write(self.write_page(page)?, next, &slots);
        Ok(moved)
    }

    /// Delete the record at `id`, rewriting its page; ids of the other
    /// records stay valid. A page left without live records is unlinked
    /// from the chain and freed (the head page is emptied instead).
    pub fn delete(&mut self, space: &str, id: RecordId) -> Result<(), StoreError> {
        self.ensure_txn()?;
        let (pos, mut slots) = self.locate(space, id)?;
        let next = rp_next(self.pager.page(id.page)?);
        slots[id.slot as usize] = None;
        if slots.iter().any(Option::is_some) {
            rp_write(self.write_page(id.page)?, next, &slots);
        } else if pos == 0 {
            rp_write(self.write_page(id.page)?, next, &[]);
        } else {
            let info = self.space_mut(space).expect("located above");
            info.pages.remove(pos);
            let prev = info.pages[pos - 1];
            rp_set_next(self.write_page(prev)?, next);
            self.free_page(id.page)?;
        }
        Ok(())
    }

    /// All records in a space, in chain order (append order, with
    /// updates in place). Works outside a transaction (and inside one,
    /// it reads your own writes).
    pub fn scan(&mut self, space: &str) -> Result<Vec<Vec<u8>>, StoreError> {
        self.ensure_live()?;
        let head = self.space(space)?.head();
        self.read_chain(head, |_, rec| rec)
    }

    /// [`Store::scan`] with each record's [`RecordId`].
    pub fn scan_ids(&mut self, space: &str) -> Result<Vec<(RecordId, Vec<u8>)>, StoreError> {
        self.ensure_live()?;
        let head = self.space(space)?.head();
        self.read_chain(head, |id, rec| (id, rec))
    }

    // ----------------------------------------------------- internals

    fn ensure_live(&self) -> Result<(), StoreError> {
        if self.wedged {
            return Err(StoreError::Wedged);
        }
        Ok(())
    }

    fn space(&self, name: &str) -> Result<&SpaceInfo, StoreError> {
        self.catalog.get(name).ok_or_else(|| StoreError::UnknownSpace(name.to_string()))
    }

    /// Snapshot a space's page list (or its absence) into the open
    /// transaction before the first change to it.
    fn save_space(&mut self, name: &str) {
        let txn = self.txn.as_mut().expect("page lists only change inside a transaction");
        if !txn.spaces.contains_key(name) {
            txn.spaces.insert(name.to_string(), self.catalog.get(name).cloned());
        }
    }

    /// A space's page list for changing (`None`: no such space).
    fn space_mut(&mut self, name: &str) -> Option<&mut SpaceInfo> {
        self.save_space(name);
        self.catalog.get_mut(name)
    }

    /// Position in the space's chain and slots of the page `id` points
    /// into, after checking that `id` names a live record of `space`.
    fn locate(&mut self, space: &str, id: RecordId) -> Result<(usize, Slots), StoreError> {
        let pos = self
            .space(space)?
            .pages
            .iter()
            .position(|&p| p == id.page)
            .ok_or(StoreError::NoSuchRecord(id))?;
        let slots = rp_slots(self.pager.page(id.page)?)?;
        match slots.get(id.slot as usize) {
            Some(Some(_)) => Ok((pos, slots)),
            _ => Err(StoreError::NoSuchRecord(id)),
        }
    }

    fn ensure_txn(&self) -> Result<(), StoreError> {
        self.ensure_live()?;
        if self.txn.is_none() {
            return Err(StoreError::NoTxn);
        }
        Ok(())
    }

    fn kill_check(&mut self, point: KillPoint) -> Result<(), StoreError> {
        if let Err(e) = self.faults.check(point) {
            self.wedged = true;
            return Err(e);
        }
        Ok(())
    }

    /// Mutable page access, only inside a transaction.
    fn write_page(&mut self, id: u32) -> Result<&mut [u8], StoreError> {
        if self.txn.is_none() {
            return Err(StoreError::NoTxn);
        }
        self.pager.page_mut(id)
    }

    fn alloc_page(&mut self) -> Result<u32, StoreError> {
        let id = if self.header.freelist_head != 0 {
            let id = self.header.freelist_head;
            let next = rp_next(self.pager.page(id)?);
            self.header.freelist_head = next;
            id
        } else {
            let id = self.header.page_count;
            self.header.page_count += 1;
            id
        };
        self.header_dirty = true;
        self.write_page(id)?.fill(0);
        Ok(id)
    }

    fn free_page(&mut self, id: u32) -> Result<(), StoreError> {
        let head = self.header.freelist_head;
        let buf = self.write_page(id)?;
        buf.fill(0);
        buf[..4].copy_from_slice(&head.to_le_bytes());
        self.header.freelist_head = id;
        self.header_dirty = true;
        Ok(())
    }

    fn free_chain(&mut self, head: u32) -> Result<(), StoreError> {
        let mut ids = Vec::new();
        let mut p = head;
        while p != 0 {
            ids.push(p);
            p = rp_next(self.pager.page(p)?);
        }
        for id in ids {
            self.free_page(id)?;
        }
        Ok(())
    }

    /// Rebuild the catalog chain from the in-memory map (sorted by
    /// name, so catalog bytes are deterministic).
    fn rewrite_catalog(&mut self) -> Result<(), StoreError> {
        let old = self.header.catalog_head;
        if old != 0 {
            self.free_chain(old)?;
        }
        let entries: Vec<Vec<u8>> = self
            .catalog
            .iter()
            .map(|(name, info)| {
                let mut e = Vec::with_capacity(2 + name.len() + 4);
                e.extend_from_slice(&(name.len() as u16).to_le_bytes());
                e.extend_from_slice(name.as_bytes());
                e.extend_from_slice(&info.head().to_le_bytes());
                e
            })
            .collect();
        self.header.catalog_head = self.write_records_chain(&entries)?;
        self.header_dirty = true;
        Ok(())
    }

    fn write_records_chain(&mut self, recs: &[Vec<u8>]) -> Result<u32, StoreError> {
        if recs.is_empty() {
            return Ok(0);
        }
        let head = self.alloc_page()?;
        rp_init(self.write_page(head)?);
        let mut tail = head;
        for r in recs {
            if r.len() > MAX_RECORD {
                return Err(StoreError::RecordTooLarge(r.len()));
            }
            let free = rp_free(self.pager.page(tail)?);
            if free < 2 + r.len() {
                let np = self.alloc_page()?;
                rp_init(self.write_page(np)?);
                rp_set_next(self.write_page(tail)?, np);
                tail = np;
            }
            rp_push(self.write_page(tail)?, Some(r));
        }
        Ok(head)
    }

    /// The live records of the chain starting at `head`, in order, each
    /// as `keep` wants it.
    fn read_chain<T>(
        &mut self,
        head: u32,
        keep: impl Fn(RecordId, Vec<u8>) -> T,
    ) -> Result<Vec<T>, StoreError> {
        let mut out = Vec::new();
        let mut p = head;
        while p != 0 {
            let buf = self.pager.page(p)?;
            let (next, slots) = (rp_chain_next(p, buf)?, rp_slots(buf)?);
            out.extend(slots.into_iter().enumerate().filter_map(|(slot, rec)| {
                Some(keep(RecordId { page: p, slot: slot as u16 }, rec?))
            }));
            p = next;
        }
        Ok(out)
    }

    fn load_catalog(&mut self) -> Result<(), StoreError> {
        if self.header.catalog_head == 0 {
            return Ok(());
        }
        let entries = self.read_chain(self.header.catalog_head, |_, rec| rec)?;
        for e in entries {
            if e.len() < 6 {
                return Err(StoreError::Corrupt("short catalog entry".into()));
            }
            let name_len = u16::from_le_bytes(e[..2].try_into().expect("2 bytes")) as usize;
            if e.len() != 2 + name_len + 4 {
                return Err(StoreError::Corrupt("catalog entry length mismatch".into()));
            }
            let name = String::from_utf8(e[2..2 + name_len].to_vec())
                .map_err(|_| StoreError::Corrupt("catalog name not utf-8".into()))?;
            let head = u32::from_le_bytes(e[2 + name_len..].try_into().expect("4 bytes"));
            let pages = self.chain_pages(head)?;
            self.catalog.insert(name, SpaceInfo { pages });
        }
        Ok(())
    }

    fn chain_pages(&mut self, head: u32) -> Result<Vec<u32>, StoreError> {
        let mut pages = vec![head];
        loop {
            let page = *pages.last().expect("starts with head");
            let next = rp_chain_next(page, self.pager.page(page)?)?;
            if next == 0 {
                return Ok(pages);
            }
            pages.push(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{MemVfs, Vfs};
    use std::sync::{Arc, Mutex};

    fn shared(vfs: &Arc<Mutex<MemVfs>>) -> SharedVfs {
        vfs.clone()
    }

    fn open(vfs: &Arc<Mutex<MemVfs>>) -> Store {
        Store::open(shared(vfs), StoreConfig::default()).unwrap()
    }

    #[test]
    fn create_append_scan_round_trips_across_reopen() {
        let vfs = MemVfs::shared();
        {
            let mut s = open(&vfs);
            s.with_txn(|s| {
                s.create_space("notes")?;
                s.append("notes", b"alpha")?;
                s.append("notes", b"beta")
            })
            .unwrap();
            assert_eq!(s.scan("notes").unwrap(), vec![b"alpha".to_vec(), b"beta".to_vec()]);
        }
        let mut s2 = open(&vfs);
        assert_eq!(s2.spaces(), vec!["notes".to_string()]);
        assert_eq!(s2.scan("notes").unwrap(), vec![b"alpha".to_vec(), b"beta".to_vec()]);
        assert_eq!(s2.recovery().committed_txns, 1);
    }

    #[test]
    fn records_spill_across_pages() {
        let vfs = MemVfs::shared();
        let mut s = open(&vfs);
        let recs: Vec<Vec<u8>> = (0..300u32).map(|i| vec![i as u8; 100]).collect();
        s.with_txn(|s| {
            s.create_space("big")?;
            for r in &recs {
                s.append("big", r)?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(s.scan("big").unwrap(), recs);
        // ~300 × 102 bytes ≈ 8 pages.
        drop(s);
        let mut s2 = open(&vfs);
        assert_eq!(s2.scan("big").unwrap(), recs);
    }

    #[test]
    fn rollback_restores_pages_and_metadata() {
        let vfs = MemVfs::shared();
        let mut s = open(&vfs);
        s.with_txn(|s| {
            s.create_space("a")?;
            s.append("a", b"keep")
        })
        .unwrap();
        let before = llmdm_rt::lock_recover(&vfs).bytes("data.db");

        s.begin().unwrap();
        s.append("a", b"discard").unwrap();
        s.create_space("b").unwrap();
        s.rollback().unwrap();

        assert_eq!(s.scan("a").unwrap(), vec![b"keep".to_vec()]);
        assert!(!s.has_space("b"));
        assert_eq!(
            llmdm_rt::lock_recover(&vfs).bytes("data.db"),
            before,
            "rollback never touches the database file"
        );
        // The store still works after a rollback.
        s.with_txn(|s| s.append("a", b"more")).unwrap();
        assert_eq!(s.scan("a").unwrap(), vec![b"keep".to_vec(), b"more".to_vec()]);
    }

    #[test]
    fn mutations_require_a_transaction() {
        let vfs = MemVfs::shared();
        let mut s = open(&vfs);
        assert_eq!(s.create_space("x"), Err(StoreError::NoTxn));
        s.begin().unwrap();
        s.create_space("x").unwrap();
        assert_eq!(s.begin(), Err(StoreError::TxnOpen));
        s.commit().unwrap();
        assert_eq!(s.append("x", b"r"), Err(StoreError::NoTxn));
    }

    #[test]
    fn drop_space_recycles_pages_through_the_freelist() {
        let vfs = MemVfs::shared();
        let mut s = open(&vfs);
        s.with_txn(|s| {
            s.create_space("tmp")?;
            for i in 0..200u32 {
                s.append("tmp", &i.to_le_bytes())?;
            }
            Ok(())
        })
        .unwrap();
        let grown = s.header.page_count;
        s.with_txn(|s| s.drop_space("tmp")).unwrap();
        s.with_txn(|s| {
            s.create_space("reuse")?;
            for i in 0..200u32 {
                s.append("reuse", &i.to_le_bytes())?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(s.header.page_count, grown, "dropped pages were reused, file did not grow");
        assert_eq!(s.scan("reuse").unwrap().len(), 200);
    }

    #[test]
    fn truncate_space_keeps_the_space_but_empties_it() {
        let vfs = MemVfs::shared();
        let mut s = open(&vfs);
        s.with_txn(|s| {
            s.create_space("q")?;
            for i in 0..500u32 {
                s.append("q", &[i as u8; 50])?;
            }
            Ok(())
        })
        .unwrap();
        s.with_txn(|s| s.truncate_space("q")).unwrap();
        assert_eq!(s.scan("q").unwrap(), Vec::<Vec<u8>>::new());
        s.with_txn(|s| s.append("q", b"fresh")).unwrap();
        drop(s);
        let mut s2 = open(&vfs);
        assert_eq!(s2.scan("q").unwrap(), vec![b"fresh".to_vec()]);
    }

    /// A space of `n` records of `len` bytes, committed; their ids.
    fn filled(s: &mut Store, n: usize, len: usize) -> Vec<RecordId> {
        s.with_txn(|s| {
            s.create_space("r")?;
            (0..n).map(|i| s.append("r", &vec![i as u8; len])).collect()
        })
        .unwrap()
    }

    #[test]
    fn update_and_delete_rewrite_in_place_and_keep_other_ids() {
        let vfs = MemVfs::shared();
        let mut s = open(&vfs);
        let ids = filled(&mut s, 6, 100);
        s.with_txn(|s| {
            assert_eq!(s.update("r", ids[2], b"short")?, vec![], "fits: nothing moves");
            s.delete("r", ids[1])?;
            s.delete("r", ids[4])
        })
        .unwrap();
        let want: Vec<(RecordId, Vec<u8>)> = vec![
            (ids[0], vec![0; 100]),
            (ids[2], b"short".to_vec()),
            (ids[3], vec![3; 100]),
            (ids[5], vec![5; 100]),
        ];
        assert_eq!(s.scan_ids("r").unwrap(), want);
        drop(s);
        assert_eq!(open(&vfs).scan_ids("r").unwrap(), want);
    }

    #[test]
    fn stale_and_foreign_ids_are_refused() {
        let vfs = MemVfs::shared();
        let mut s = open(&vfs);
        let ids = filled(&mut s, 3, 10);
        s.begin().unwrap();
        s.create_space("other").unwrap();
        s.delete("r", ids[1]).unwrap();
        assert_eq!(s.delete("r", ids[1]), Err(StoreError::NoSuchRecord(ids[1])));
        assert_eq!(s.update("r", ids[1], b"x"), Err(StoreError::NoSuchRecord(ids[1])));
        assert_eq!(s.delete("other", ids[0]), Err(StoreError::NoSuchRecord(ids[0])));
        let past = RecordId { page: ids[0].page, slot: 99 };
        assert_eq!(s.delete("r", past), Err(StoreError::NoSuchRecord(past)));
        assert_eq!(
            s.update("r", ids[0], &vec![0; MAX_RECORD + 1]),
            Err(StoreError::RecordTooLarge(MAX_RECORD + 1))
        );
        s.commit().unwrap();
        assert_eq!(s.scan("r").unwrap(), vec![vec![0; 10], vec![2; 10]]);
    }

    #[test]
    fn growing_update_splits_the_page_and_keeps_scan_order() {
        let vfs = MemVfs::shared();
        let mut s = open(&vfs);
        // 30 x 102 bytes: one page.
        let ids = filled(&mut s, 30, 100);
        assert!(ids.iter().all(|id| id.page == ids[0].page));
        s.with_txn(|s| s.append("r", b"tail")).unwrap();

        let moved = s.with_txn(|s| s.update("r", ids[10], &vec![0xAA; 2000])).unwrap();
        assert_eq!(moved.len(), 21, "the grown record, the 19 after it on its page, and the tail");
        assert_eq!(moved[..11], ids[10..21], "what still fits stays where it was");
        assert!(moved[11..].iter().all(|id| id.page != ids[0].page), "the rest left the page");
        let scanned = s.scan_ids("r").unwrap();
        let scanned_ids: Vec<RecordId> = scanned.iter().map(|(id, _)| *id).collect();
        assert_eq!(scanned_ids, [&ids[..10], &moved[..]].concat(), "ids before it are untouched");
        let mut want: Vec<Vec<u8>> = (0..30).map(|i| vec![i as u8; 100]).collect();
        want[10] = vec![0xAA; 2000];
        want.push(b"tail".to_vec());
        assert_eq!(s.scan("r").unwrap(), want);
        assert_eq!(s.catalog["r"].pages.len(), 2, "one page became two");

        // Too big to share a page with either neighbour: three pages.
        let moved = s.with_txn(|s| s.update("r", ids[5], &vec![0xBB; MAX_RECORD])).unwrap();
        assert_eq!(moved.len(), 16, "it and the rest of its page");
        want[5] = vec![0xBB; MAX_RECORD];
        assert_eq!(s.scan("r").unwrap(), want);
        assert_eq!(s.catalog["r"].pages.len(), 4);
        drop(s);
        assert_eq!(open(&vfs).scan("r").unwrap(), want);
    }

    #[test]
    fn emptied_pages_are_unlinked_and_reused() {
        let vfs = MemVfs::shared();
        let mut s = open(&vfs);
        // 1000-byte records: four to a page, five pages.
        let ids = filled(&mut s, 20, 1000);
        let pages = s.catalog["r"].pages.clone();
        assert_eq!(pages.len(), 5);
        let grown = s.header.page_count;

        // Middle page, tail page, then the head (which must stay).
        for (range, left) in [(8..12, 4), (16..20, 3), (0..4, 3)] {
            s.with_txn(|s| ids[range.clone()].iter().try_for_each(|&id| s.delete("r", id)))
                .unwrap();
            assert_eq!(s.catalog["r"].pages.len(), left, "after deleting {range:?}");
        }
        assert_eq!(s.catalog["r"].pages, vec![pages[0], pages[1], pages[3]]);
        assert_eq!(s.header.freelist_head, pages[4], "freed pages are on the freelist");
        let want: Vec<Vec<u8>> =
            [4..8, 12..16].into_iter().flatten().map(|i| vec![i as u8; 1000]).collect();
        assert_eq!(s.scan("r").unwrap(), want);

        // Appends go to the new tail and take freed pages before fresh ones.
        s.with_txn(|s| (0..8).try_for_each(|_| s.append("r", &[7; 1000]).map(|_| ()))).unwrap();
        assert_eq!(s.header.page_count, grown, "the file did not grow");
        assert_eq!(s.header.freelist_head, 0);
        drop(s);
        let mut s = open(&vfs);
        assert_eq!(s.scan("r").unwrap().len(), 16);
        assert_eq!(s.catalog["r"].pages.len(), 5, "the chain walk at open finds every page");
    }

    #[test]
    fn rollback_restores_page_lists_of_split_and_unlinked_chains() {
        let vfs = MemVfs::shared();
        let mut s = open(&vfs);
        let ids = filled(&mut s, 8, 1000);
        let (pages, header) = (s.catalog["r"].pages.clone(), s.header);
        let before = s.scan_ids("r").unwrap();

        s.begin().unwrap();
        s.update("r", ids[1], &vec![9; 3000]).unwrap();
        ids[4..8].iter().for_each(|&id| s.delete("r", id).unwrap());
        s.create_space("gone").unwrap();
        assert_ne!(s.catalog["r"].pages, pages);
        s.rollback().unwrap();

        assert_eq!(s.catalog["r"].pages, pages);
        assert_eq!(s.header, header);
        assert!(!s.has_space("gone"));
        assert_eq!(s.scan_ids("r").unwrap(), before);
        // Ids handed out before the rolled-back transaction still work.
        s.with_txn(|s| s.delete("r", ids[7])).unwrap();
        assert_eq!(s.scan("r").unwrap().len(), 7);
    }

    #[test]
    fn rollback_drops_dirty_frames_and_rereads_the_file() {
        let vfs = MemVfs::shared();
        let cfg = || StoreConfig { pool_pages: 2, ..StoreConfig::default() };
        let mut s = Store::open(shared(&vfs), cfg()).unwrap();
        let ids = filled(&mut s, 8, 1000);
        let committed = s.scan_ids("r").unwrap();
        let db = llmdm_rt::lock_recover(&vfs).bytes("data.db");

        s.begin().unwrap();
        assert!(!s.update("r", ids[1], &vec![9; 3000]).unwrap().is_empty(), "the page split");
        ids[4..8].iter().for_each(|&id| s.delete("r", id).unwrap());
        assert_eq!(s.catalog["r"].pages.len(), 2, "the emptied second page was unlinked");
        s.append("r", b"late").unwrap();
        s.create_space("new").unwrap();
        assert!(s.pager.resident() > 2, "dirty frames grew the pool past its capacity");
        s.rollback().unwrap();

        assert_eq!(llmdm_rt::lock_recover(&vfs).bytes("data.db"), db, "the file is untouched");
        assert!(s.pager.dirty_pages().is_empty());
        let misses = s.pool_stats().misses;
        assert_eq!(rp_slots(s.pager.page(ids[1].page).unwrap()).unwrap().len(), 4);
        assert_eq!(s.pool_stats().misses, misses + 1, "a changed page faults back in");
        assert_eq!(s.scan_ids("r").unwrap(), committed);
        assert!(!s.has_space("new"));
        drop(s);
        let mut s = Store::open(shared(&vfs), cfg()).unwrap();
        assert_eq!(s.scan_ids("r").unwrap(), committed);
        assert!(!s.has_space("new"));
    }

    #[test]
    fn a_scan_counts_one_hit_or_miss_per_page() {
        let vfs = MemVfs::shared();
        let mut s = open(&vfs);
        filled(&mut s, 20, 1000);
        let n = s.catalog["r"].pages.len() as u64;
        assert_eq!(n, 5);
        let delta = |s: &mut Store| {
            let before = s.pool_stats();
            s.scan("r").unwrap();
            let after = s.pool_stats();
            (after.misses - before.misses, after.hits - before.hits)
        };
        s.clear_pool().unwrap();
        assert_eq!(delta(&mut s), (n, 0), "cold: every page misses once");
        assert_eq!(delta(&mut s), (0, n), "warm: every page hits once");
    }

    #[test]
    fn kill_post_wal_append_loses_the_txn() {
        let vfs = MemVfs::shared();
        let mut s = Store::open(
            shared(&vfs),
            StoreConfig::with_faults(StorageFaults::kill_at(KillPoint::PostWalAppend, 1)),
        )
        .unwrap();
        let err = s.with_txn(|s| {
            s.create_space("gone")?;
            s.append("gone", b"r")
        });
        assert_eq!(err, Err(StoreError::Killed(KillPoint::PostWalAppend)));
        assert_eq!(s.scan("gone"), Err(StoreError::Wedged), "store is wedged after a kill");
        drop(s);
        llmdm_rt::lock_recover(&vfs).crash();
        let s2 = open(&vfs);
        assert!(!s2.has_space("gone"), "unsynced txn must not survive");
        assert_eq!(s2.recovery().committed_txns, 0);
    }

    #[test]
    fn kill_post_wal_sync_preserves_the_txn_via_redo() {
        let vfs = MemVfs::shared();
        let mut s = Store::open(
            shared(&vfs),
            StoreConfig::with_faults(StorageFaults::kill_at(KillPoint::PostWalSync, 2)),
        )
        .unwrap();
        let err = s.with_txn(|s| {
            s.create_space("kept")?;
            s.append("kept", b"r")
        });
        assert_eq!(err, Err(StoreError::Killed(KillPoint::PostWalSync)));
        drop(s);
        llmdm_rt::lock_recover(&vfs).crash();
        let mut s2 = open(&vfs);
        assert!(s2.recovery().pages_redone > 0, "recovery must redo the committed images");
        assert_eq!(s2.scan("kept").unwrap(), vec![b"r".to_vec()]);
    }

    #[test]
    fn a_file_short_of_its_page_count_is_corrupt() {
        let vfs = MemVfs::shared();
        let cfg = || StoreConfig { checkpoint_bytes: Some(1), ..StoreConfig::default() };
        let mut s = Store::open(shared(&vfs), cfg()).unwrap();
        s.with_txn(|s| {
            s.create_space("kept")?;
            s.create_space("tmp")?;
            (0..40).try_for_each(|_| s.append("tmp", &[7; 1000]).map(drop))
        })
        .unwrap();
        s.with_txn(|s| s.drop_space("tmp")).unwrap();
        drop(s);
        // The last page is free: only the header's page count names it.
        {
            let mut v = llmdm_rt::lock_recover(&vfs);
            let len = v.len("data.db");
            v.truncate("data.db", len - PAGE_SIZE as u64).unwrap();
            v.sync("data.db").unwrap();
        }
        assert!(matches!(Store::open(shared(&vfs), cfg()), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn checkpoint_truncates_the_wal_once_over_threshold() {
        let vfs = MemVfs::shared();
        let mut s = Store::open(
            shared(&vfs),
            StoreConfig { checkpoint_bytes: Some(1), ..StoreConfig::default() },
        )
        .unwrap();
        s.with_txn(|s| s.create_space("c")).unwrap();
        assert_eq!(s.wal_len(), 0, "threshold 1 byte checkpoints after every commit");
        drop(s);
        let mut s2 = open(&vfs);
        assert_eq!(s2.recovery().frames, 0);
        assert!(s2.scan("c").unwrap().is_empty());
    }
}
