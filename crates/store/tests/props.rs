//! Property tests for the storage tier's three core invariants:
//!
//! 1. **Torn-tail truncation** — cut the WAL at *any* random byte
//!    length and recovery rebuilds exactly the transactions whose
//!    `Commit` frame survived the cut, never a partial one.
//! 2. **Replay idempotence** — recovering twice from the same image
//!    yields byte-identical database files and identical scans.
//! 3. **No-steal buffer pool** — under random workloads with tiny pool
//!    capacities, eviction pressure never loses a dirty page.
//! 4. **Record addressing** — random `append`/`update`/`delete`
//!    sequences against a `Vec` model: scan order, bytes and
//!    [`RecordId`]s agree after every operation, commit, rollback and
//!    crash + recovery, and freed pages are reused.

use std::collections::HashMap;

use llmdm_rt::proptest;
use llmdm_rt::proptest::prelude::*;
use llmdm_rt::rand::{Rng, SeedableRng, SmallRng};
use llmdm_store::{
    MemVfs, Pager, RecordId, SharedVfs, StorageFaults, Store, StoreConfig, Vfs, Wal, WalRecord,
    MAX_RECORD, PAGE_DATA,
};

const SPACE: &str = "events";

fn config() -> StoreConfig {
    StoreConfig { checkpoint_bytes: None, faults: StorageFaults::none(), ..StoreConfig::default() }
}

fn expected(commits: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for k in 0..commits {
        for j in 0..=k {
            out.push(format!("rec-{k}-{j}").into_bytes());
        }
    }
    out
}

/// Run `commits` commits on a fresh store and return the full WAL
/// bytes (checkpointing disabled, so every frame is still there).
fn workload_wal(commits: usize) -> Vec<u8> {
    let vfs = MemVfs::shared();
    let shared: SharedVfs = vfs.clone();
    let mut s = Store::open(shared, config()).unwrap();
    for k in 0..commits {
        s.with_txn(|s| {
            if k == 0 {
                s.create_space(SPACE)?;
            }
            for j in 0..=k {
                s.append(SPACE, format!("rec-{k}-{j}").as_bytes())?;
            }
            Ok(())
        })
        .unwrap();
    }
    drop(s);
    let v = llmdm_rt::lock_recover(&vfs);
    v.bytes("data.wal")
}

/// How many workload commits have their `Commit` frame fully inside
/// `bytes[..cut]` — computed by independent frame arithmetic (each
/// frame's length re-derived from its encoding), not by the recovery
/// scanner under test.
fn commits_within(bytes: &[u8], cut: usize) -> usize {
    let full = Wal::scan(bytes);
    assert!(!full.torn, "workload WAL must be clean");
    let mut offset = 0usize;
    let mut committed = 0usize;
    for rec in &full.records {
        offset += rec.encode().len();
        if offset <= cut {
            if let WalRecord::Commit { .. } = rec {
                committed += 1;
            }
        }
    }
    committed
}

/// Open a store whose entire persistent state is `wal[..cut]` (empty
/// database file), i.e. recover purely from the cut WAL.
fn recover_from_cut(wal: &[u8], cut: usize) -> (Store, Vec<Vec<u8>>) {
    let vfs = MemVfs::shared();
    {
        let mut v = llmdm_rt::lock_recover(&vfs);
        v.write_at("data.wal", 0, &wal[..cut]).unwrap();
        v.sync("data.wal").unwrap();
    }
    let shared: SharedVfs = vfs.clone();
    let mut s = Store::open(shared, config()).unwrap();
    let records = if s.has_space(SPACE) { s.scan(SPACE).unwrap() } else { Vec::new() };
    (s, records)
}

/// One random record operation on the open transaction, mirrored on
/// the model (records with the ids the store's contract says they have).
fn random_record_op(
    rng: &mut SmallRng,
    s: &mut Store,
    model: &mut Vec<(RecordId, Vec<u8>)>,
) {
    // Mostly small records, some near a page: splits and multi-page
    // chains both happen within a few dozen operations.
    let bytes = |rng: &mut SmallRng| {
        let len = if rng.gen_bool(0.2) {
            rng.gen_range(1000usize..=MAX_RECORD)
        } else {
            rng.gen_range(0usize..300)
        };
        vec![rng.gen_range(0u8..=255); len]
    };
    match rng.gen_range(0..10) {
        0..=3 => {
            let rec = bytes(rng);
            let id = s.append(SPACE, &rec).unwrap();
            model.push((id, rec));
        }
        4..=6 if !model.is_empty() => {
            let i = rng.gen_range(0..model.len());
            let rec = bytes(rng);
            let moved = s.update(SPACE, model[i].0, &rec).unwrap();
            model[i].1 = rec;
            for (slot, id) in model[i..].iter_mut().zip(moved) {
                slot.0 = id;
            }
        }
        _ if !model.is_empty() => {
            let i = rng.gen_range(0..model.len());
            s.delete(SPACE, model.remove(i).0).unwrap();
        }
        _ => {}
    }
}

proptest! {
    #[test]
    fn record_ops_match_a_vec_model_through_commit_rollback_and_crash(
        seed in any::<u64>(),
        pool in 2usize..8,
        txns in 4usize..16,
    ) {
        let vfs = MemVfs::shared();
        let open = || {
            let shared: SharedVfs = vfs.clone();
            Store::open(shared, StoreConfig { pool_pages: pool, ..config() }).unwrap()
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut s = open();
        s.with_txn(|s| s.create_space(SPACE)).unwrap();
        let mut committed: Vec<(RecordId, Vec<u8>)> = Vec::new();
        for _ in 0..txns {
            let mut model = committed.clone();
            s.begin().unwrap();
            for _ in 0..rng.gen_range(1..8) {
                random_record_op(&mut rng, &mut s, &mut model);
                prop_assert_eq!(&s.scan_ids(SPACE).unwrap(), &model, "inside the transaction");
            }
            match rng.gen_range(0..10) {
                0..=5 => {
                    s.commit().unwrap();
                    committed = model;
                }
                6..=7 => s.rollback().unwrap(),
                _ => {
                    // Die with the transaction open (or, half the time,
                    // right after its commit) and lose the page cache.
                    if rng.gen_bool(0.5) {
                        s.commit().unwrap();
                        committed = model;
                    }
                    drop(s);
                    llmdm_rt::lock_recover(&vfs).crash();
                    s = open();
                }
            }
            prop_assert_eq!(&s.scan_ids(SPACE).unwrap(), &committed, "at the boundary");
        }

        // Freed pages go back to the freelist: emptying the space and
        // refilling it in order needs no page the file does not have.
        let len = llmdm_rt::lock_recover(&vfs).len("data.db");
        s.with_txn(|s| committed.iter().try_for_each(|(id, _)| s.delete(SPACE, *id))).unwrap();
        prop_assert!(s.scan(SPACE).unwrap().is_empty());
        s.with_txn(|s| committed.iter().try_for_each(|(_, r)| s.append(SPACE, r).map(|_| ())))
            .unwrap();
        prop_assert_eq!(llmdm_rt::lock_recover(&vfs).len("data.db"), len, "file grew");
        let records: Vec<Vec<u8>> = committed.into_iter().map(|(_, r)| r).collect();
        prop_assert_eq!(s.scan(SPACE).unwrap(), records);
    }

    #[test]
    fn torn_tail_cut_recovers_to_last_committed_txn(
        commits in 1usize..5,
        cut_sel in any::<u64>(),
    ) {
        let wal = workload_wal(commits);
        let cut = (cut_sel as usize) % (wal.len() + 1);
        let want = commits_within(&wal, cut);
        let (s, records) = recover_from_cut(&wal, cut);
        prop_assert_eq!(s.recovery().committed_txns, want);
        prop_assert_eq!(records, expected(want));
        // The truncated WAL must re-scan clean: no torn tail survives.
        prop_assert!(s.wal_len() <= cut as u64);
    }

    #[test]
    fn recovery_replay_is_idempotent(
        commits in 1usize..5,
        cut_sel in any::<u64>(),
    ) {
        let wal = workload_wal(commits);
        let cut = (cut_sel as usize) % (wal.len() + 1);

        let vfs = MemVfs::shared();
        {
            let mut v = llmdm_rt::lock_recover(&vfs);
            v.write_at("data.wal", 0, &wal[..cut]).unwrap();
            v.sync("data.wal").unwrap();
        }
        let open = |vfs: &std::sync::Arc<std::sync::Mutex<MemVfs>>| {
            let shared: SharedVfs = vfs.clone();
            let mut s = Store::open(shared, config()).unwrap();
            let recs = if s.has_space(SPACE) { s.scan(SPACE).unwrap() } else { Vec::new() };
            drop(s);
            recs
        };
        let once = open(&vfs);
        let db_once = llmdm_rt::lock_recover(&vfs).bytes("data.db");
        let twice = open(&vfs);
        let db_twice = llmdm_rt::lock_recover(&vfs).bytes("data.db");
        prop_assert_eq!(once, twice);
        prop_assert_eq!(db_once, db_twice);
    }

    #[test]
    fn eviction_pressure_never_loses_a_dirty_page(
        seed in any::<u64>(),
        cap in 2usize..6,
        steps in 30usize..120,
    ) {
        let vfs = MemVfs::shared();
        let shared: SharedVfs = vfs.clone();
        let mut pager = Pager::new(shared.clone(), "p.db", cap);
        let mut model: HashMap<u32, u8> = HashMap::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..steps {
            let id = rng.gen_range(1u32..20);
            if rng.gen_bool(0.6) {
                let fill = rng.gen_range(1u8..=255);
                pager.page_mut(id).unwrap().fill(fill);
                model.insert(id, fill);
            } else {
                let got = pager.page(id).unwrap()[0];
                prop_assert_eq!(got, model.get(&id).copied().unwrap_or(0));
            }
        }
        // Every dirty write must still be visible through the pool...
        for (&id, &fill) in &model {
            prop_assert!(
                pager.page(id).unwrap().iter().all(|&b| b == fill),
                "page {} lost its dirty content under eviction pressure", id
            );
        }
        // ...and survive a flush + crash + cold re-read from disk.
        for id in pager.dirty_pages() {
            pager.flush_page(id).unwrap();
        }
        llmdm_rt::lock_recover(&vfs).sync("p.db").unwrap();
        llmdm_rt::lock_recover(&vfs).crash();
        let mut cold = Pager::new(shared, "p.db", cap);
        for (&id, &fill) in &model {
            prop_assert!(
                cold.page(id).unwrap().iter().all(|&b| b == fill),
                "page {} flushed wrong bytes", id
            );
        }
        let _ = PAGE_DATA;
    }
}
