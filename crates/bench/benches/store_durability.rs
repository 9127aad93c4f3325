//! Durable-storage costs, pinned (DESIGN.md §13).
//!
//! Two claims worth numbers:
//!
//! * **the buffer pool earns its keep** — a scan whose pages are
//!   resident (warm) must beat a scan that faults every page in from
//!   the VFS and re-verifies its checksum (cold) by at least 2× (gated
//!   on medians). Cold scans run against real files (`DirVfs` in a temp
//!   dir) so the fault-in path includes genuine `read`s, not just map
//!   lookups;
//! * **recovery cost scales with WAL length** — with checkpointing
//!   disabled, re-opening a store replays every committed frame; the
//!   bench times recovery against a short and a long WAL so regressions
//!   in the replay loop are visible. Reported, not gated: absolute
//!   recovery time is machine-dependent, but both images are
//!   correctness-gated before timing;
//! * **a commit costs what it changed, not the size of its WAL** — on a
//!   `MemVfs` store with checkpointing off, a one-row `update` commit
//!   with ~1 MiB of WAL behind it may take at most 1.5× the same commit
//!   on a near-empty WAL (gated on interleaved medians). `MemVfs::sync`
//!   copies the bytes written since the file's last sync; a sync that
//!   copied the whole file would make the long-WAL commit pay for every
//!   frame before it.
//!
//! `scripts/verify.sh` runs this with `LLMDM_BENCH_FAST=1`; results
//! land in `BENCH_store.json`.

use std::sync::{Arc, Mutex};

use llmdm_rt::bench::{
    Bound::{AtLeast, AtMost},
    Criterion,
};
use llmdm_store::{DirVfs, MemVfs, RecordId, SharedVfs, Store, StoreConfig};

const SPACE: &str = "bench";
// Page-sized records, one per page: the scan's per-record copy cost is
// then proportional to the page count, and the cold/warm delta isolates
// the fault-in path (file open + read + checksum verify) we're pinning.
const RECORDS: usize = 150;
const RECORD_LEN: usize = 3800;
/// A warm scan must beat a cold one by this much.
const MIN_SPEEDUP: f64 = 2.0;

/// A commit behind [`LONG_WAL`] bytes of WAL may take at most this many
/// times one behind a near-empty WAL.
const MAX_LONG_WAL_COMMIT_RATIO: f64 = 1.5;
/// WAL bytes behind the long-WAL commit.
const LONG_WAL: u64 = 1 << 20;
/// Commits between restores of a [`CommitFixture`]'s disk: each commit
/// logs ~4 KiB, so the WAL stays within ~33 KiB of where it started,
/// and the restore lands in one sample of eight, below the median.
const RESTORE_EVERY: usize = 8;

/// Pool large enough to hold the whole fixture, so the warm scan never
/// evicts.
fn scan_config() -> StoreConfig {
    StoreConfig { pool_pages: 256, ..StoreConfig::default() }
}

fn record(i: usize) -> Vec<u8> {
    let mut r = vec![0u8; RECORD_LEN];
    r[..8].copy_from_slice(&(i as u64).to_le_bytes());
    for (j, b) in r.iter_mut().enumerate().skip(8) {
        *b = ((i * 31 + j * 7) % 251) as u8;
    }
    r
}

/// Populate a store on `vfs` with the scan fixture and close it.
fn populate(vfs: SharedVfs) {
    let mut store = Store::open(vfs, scan_config()).expect("open for populate");
    store
        .with_txn(|s| {
            s.create_space(SPACE)?;
            for i in 0..RECORDS {
                s.append(SPACE, &record(i))?;
            }
            Ok(())
        })
        .expect("populate commits");
}

/// Checkpointing off: the WAL keeps every committed frame.
fn no_checkpoint() -> StoreConfig {
    StoreConfig { checkpoint_bytes: None, ..StoreConfig::default() }
}

/// A crashed image whose WAL holds `commits` committed transactions
/// (checkpointing disabled, so every re-open replays all of them).
fn wal_image(commits: usize) -> SharedVfs {
    let vfs = MemVfs::shared();
    let mut store = Store::open(vfs.clone(), no_checkpoint()).expect("open for wal image");
    store
        .with_txn(|s| s.create_space(SPACE))
        .expect("create space");
    for c in 0..commits {
        store
            .with_txn(|s| {
                for i in 0..8 {
                    s.append(SPACE, &record(c * 8 + i))?;
                }
                Ok(())
            })
            .expect("commit");
    }
    drop(store);
    vfs
}

/// The row the `n`-th commit writes: the same size every time, so each
/// update rewrites its one page in place.
fn row(n: usize) -> Vec<u8> {
    vec![n as u8; 64]
}

/// A one-row space on a `MemVfs` store with checkpointing off, whose
/// WAL starts at least `wal_bytes` long. Every [`RESTORE_EVERY`]-th
/// commit first puts the disk back as it started and re-opens, so the
/// WAL length stays put however many commits are timed.
struct CommitFixture {
    vfs: Arc<Mutex<MemVfs>>,
    start: MemVfs,
    store: Store,
    id: RecordId,
    commits: usize,
}

impl CommitFixture {
    fn new(wal_bytes: u64) -> Self {
        let vfs = MemVfs::shared();
        let mut store = Store::open(vfs.clone(), no_checkpoint()).expect("open commit fixture");
        let id = store
            .with_txn(|s| {
                s.create_space(SPACE)?;
                s.append(SPACE, &row(0))
            })
            .expect("create commit fixture");
        let mut n = 0;
        while store.wal_len() < wal_bytes {
            n += 1;
            store.with_txn(|s| s.update(SPACE, id, &row(n))).expect("grow the wal");
        }
        drop(store);
        let start = llmdm_rt::lock_recover(&vfs).snapshot();
        let store = Store::open(vfs.clone(), no_checkpoint()).expect("re-open commit fixture");
        CommitFixture { vfs, start, store, id, commits: 0 }
    }

    /// One auto-commit of a one-row update.
    fn commit(&mut self) {
        self.commits += 1;
        if self.commits.is_multiple_of(RESTORE_EVERY) {
            *llmdm_rt::lock_recover(&self.vfs) = self.start.snapshot();
            self.store = Store::open(self.vfs.clone(), no_checkpoint()).expect("restore");
        }
        let (id, rec) = (self.id, row(self.commits));
        self.store.with_txn(|s| s.update(SPACE, id, &rec)).expect("commit");
    }
}

fn run(c: &mut Criterion) {
    llmdm_obs::disable();

    // ---- Scan fixture on real files. --------------------------------
    let dir = std::env::temp_dir().join(format!("llmdm_store_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let vfs = DirVfs::shared(&dir).expect("dir vfs");
    populate(vfs.clone());
    let mut store = Store::open(vfs, scan_config()).expect("re-open");

    // Correctness gate: the fixture reads back exactly, cold and warm.
    store.clear_pool().expect("clear pool");
    let misses_before = store.pool_stats().misses;
    let cold = store.scan(SPACE).expect("cold scan");
    let faulted = store.pool_stats().misses - misses_before;
    let warm = store.scan(SPACE).expect("warm scan");
    assert_eq!(cold.len(), RECORDS);
    assert_eq!(cold, warm, "cold and warm scans must agree");
    for (i, r) in cold.iter().enumerate() {
        assert_eq!(*r, record(i), "record {i} corrupted");
    }
    assert!(faulted > 10, "fixture too small to exercise the pool ({faulted} pages)");

    // ---- Recovery fixtures, gated. ----------------------------------
    let short_wal = wal_image(8);
    let long_wal = wal_image(64);
    for (vfs, commits) in [(&short_wal, 8), (&long_wal, 64)] {
        let mut s = Store::open(vfs.clone(), no_checkpoint()).expect("recovery open");
        assert_eq!(s.recovery().committed_txns, commits + 1, "wal image lost commits");
        assert_eq!(s.scan(SPACE).expect("post-recovery scan").len(), commits * 8);
    }

    // ---- Timing. ----------------------------------------------------
    let mut group = c.benchmark_group("store");
    group.bench_function("scan/cold", |b| {
        b.iter(|| {
            store.clear_pool().expect("clear pool");
            store.scan(SPACE).expect("scan")
        })
    });
    group.bench_function("scan/warm", |b| {
        b.iter(|| store.scan(SPACE).expect("scan"))
    });
    group.bench_function("recovery/wal_8_commits", |b| {
        b.iter(|| Store::open(short_wal.clone(), no_checkpoint()).expect("recover"))
    });
    group.bench_function("recovery/wal_64_commits", |b| {
        b.iter(|| Store::open(long_wal.clone(), no_checkpoint()).expect("recover"))
    });
    group.finish();

    let mut near_empty = CommitFixture::new(0);
    let mut long = CommitFixture::new(LONG_WAL);
    let start_len = near_empty.store.wal_len();
    assert!(start_len < 16 << 10, "the near-empty wal holds {start_len} B");
    c.benchmark_group("store_commit").bench_interleaved(&mut [
        ("wal_near_empty", &mut || near_empty.commit()),
        ("wal_1mib", &mut || long.commit()),
    ]);
    for fixture in [&mut near_empty, &mut long] {
        let want = row(fixture.commits);
        assert_eq!(fixture.store.scan(SPACE).expect("scan commit fixture"), vec![want]);
    }
    // Timing is over: remove the fixture now, so no gate outcome leaks it.
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    // ---- The gate: a warm pool beats re-faulting every page. --------
    let cold_ns = c.stat("store/scan/cold").median_ns as f64;
    let warm_ns = c.stat("store/scan/warm").median_ns as f64;
    c.gate("store scan cold/warm (median)", cold_ns / warm_ns, AtLeast(MIN_SPEEDUP));

    // ---- The gate: a commit does not pay for the WAL behind it. -----
    let long_ns = c.stat("store_commit/wal_1mib").median_ns as f64;
    let short_ns = c.stat("store_commit/wal_near_empty").median_ns as f64;
    c.gate(
        "store commit 1 MiB wal / near-empty wal (median)",
        long_ns / short_ns,
        AtMost(MAX_LONG_WAL_COMMIT_RATIO),
    );
}

// Record contents are a pure function of the record index: no seed.
llmdm_rt::bench_main!("store", None, run);
