//! Damaged files on a committed store: single-bit flips in the database
//! file and the WAL, a database file cut short by whole pages, and one
//! extended with zeros. Re-opening and scanning must give a typed
//! [`StoreError::Corrupt`] or exactly the committed rows — never a
//! panic, and never silently different rows.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use llmdm_rt::rand::{Rng, SeedableRng, SmallRng};
use llmdm_store::{MemVfs, Store, StoreConfig, StoreError, Vfs, PAGE_SIZE};

const SPACE: &str = "t";
const COMMITS: usize = 40;
const DB: &str = "data.db";
const WAL: &str = "data.wal";
/// Flips per file and checkpoint setting.
const FLIPS: usize = 120;

/// Checkpointing off (every commit stays in the WAL), after every
/// commit (the WAL is always empty), and every few commits (the WAL
/// holds the latest ones, the database file alone the rest).
const CHECKPOINTS: [Option<u64>; 3] = [None, Some(1), Some(32 << 10)];

fn config(checkpoint_bytes: Option<u64>) -> StoreConfig {
    StoreConfig { checkpoint_bytes, ..StoreConfig::default() }
}

/// ~300-byte rows: 13 to a page, so the 40 rows span four pages.
fn row(i: usize) -> Vec<u8> {
    format!("row {i:03} {}", "x".repeat(292)).into_bytes()
}

fn rows() -> Vec<Vec<u8>> {
    (0..COMMITS).map(row).collect()
}

/// A disk holding `COMMITS` one-row commits, every one synced.
fn committed(checkpoint_bytes: Option<u64>) -> MemVfs {
    let vfs = MemVfs::shared();
    let mut s = Store::open(vfs.clone(), config(checkpoint_bytes)).unwrap();
    s.with_txn(|s| s.create_space(SPACE)).unwrap();
    for i in 0..COMMITS {
        s.with_txn(|s| s.append(SPACE, &row(i)).map(drop)).unwrap();
    }
    drop(s);
    let disk = llmdm_rt::lock_recover(&vfs).snapshot();
    disk
}

/// Re-open a damaged copy of `disk` and scan it: a typed error or
/// exactly the committed rows.
fn check(
    disk: &MemVfs,
    checkpoint_bytes: Option<u64>,
    damage: impl FnOnce(&mut MemVfs),
    case: &str,
) {
    let mut damaged = disk.snapshot();
    damage(&mut damaged);
    let vfs = Arc::new(Mutex::new(damaged));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        Store::open(vfs.clone(), config(checkpoint_bytes)).and_then(|mut s| s.scan(SPACE))
    }));
    match outcome {
        Err(_) => panic!("{case}: panicked"),
        Ok(Ok(got)) => assert!(
            got == rows(),
            "{case}: opened with {} rows, not the committed {COMMITS}",
            got.len()
        ),
        Ok(Err(StoreError::Corrupt(_))) => {}
        Ok(Err(e)) => panic!("{case}: untyped outcome {e:?}"),
    }
}

fn flip_bits(file: &str, seed: u64) {
    for checkpoint in CHECKPOINTS {
        let disk = committed(checkpoint);
        let len = disk.len(file);
        if len == 0 {
            // Checkpointed after every commit: no WAL left to damage.
            continue;
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..FLIPS {
            let (at, bit) = (rng.gen_range(0..len), rng.gen_range(0..8u8));
            let flip = |d: &mut MemVfs| {
                let b = d.read_at(file, at, 1)[0] ^ (1 << bit);
                d.write_at(file, at, &[b]).unwrap();
                d.sync(file).unwrap();
            };
            check(
                &disk,
                checkpoint,
                flip,
                &format!("{file} byte {at} bit {bit}, checkpoint {checkpoint:?}"),
            );
        }
    }
}

#[test]
fn single_bit_flips_in_the_database_file() {
    flip_bits(DB, 1);
}

#[test]
fn single_bit_flips_in_the_wal() {
    flip_bits(WAL, 2);
}

#[test]
fn a_database_file_cut_short_by_whole_pages() {
    for checkpoint in CHECKPOINTS {
        let disk = committed(checkpoint);
        let pages = disk.len(DB) / PAGE_SIZE as u64;
        assert!(pages >= 5, "the fixture spans too few pages ({pages})");
        for cut in 1..pages {
            let truncate = |d: &mut MemVfs| {
                d.truncate(DB, (pages - cut) * PAGE_SIZE as u64).unwrap();
                d.sync(DB).unwrap();
            };
            check(
                &disk,
                checkpoint,
                truncate,
                &format!("{cut} of {pages} pages cut, checkpoint {checkpoint:?}"),
            );
        }
    }
}

#[test]
fn a_database_file_extended_with_zeros() {
    for checkpoint in CHECKPOINTS {
        let disk = committed(checkpoint);
        let len = disk.len(DB);
        for extra in [1, 100, PAGE_SIZE as u64, 3 * PAGE_SIZE as u64 + 17] {
            let extend = |d: &mut MemVfs| {
                d.truncate(DB, len + extra).unwrap();
                d.sync(DB).unwrap();
            };
            check(
                &disk,
                checkpoint,
                extend,
                &format!("{extra} zero bytes added, checkpoint {checkpoint:?}"),
            );
        }
    }
}
