//! The crash matrix: for every barrier crossing of a fixed workload,
//! kill the process exactly there, crash the disk (clean and torn),
//! re-open, and assert the database recovered to **exactly the
//! committed prefix** — byte-reproducibly, and idempotently under
//! double replay.

use std::sync::{Arc, Mutex};

use llmdm_store::{
    BarrierOp, KillPoint, MemVfs, SharedVfs, StorageFaults, Store, StoreConfig, StoreError,
};

const SPACE: &str = "events";
const COMMITS: usize = 8;

fn config(faults: StorageFaults) -> StoreConfig {
    // Checkpointing off: every committed txn stays visible in the WAL,
    // so `recovery().committed_txns` counts the whole workload prefix.
    StoreConfig { checkpoint_bytes: None, faults, ..StoreConfig::default() }
}

fn shared(vfs: &Arc<Mutex<MemVfs>>) -> SharedVfs {
    vfs.clone()
}

/// One record operation of the workload, by position in scan order.
enum Step {
    Append(Vec<u8>),
    Update(usize, Vec<u8>),
    Delete(usize),
}

/// Commit number `k` of the workload. The first four append `k + 1`
/// records each, so commits differ in page pressure; the rest change
/// records in place: a same-size update, one that outgrows its page
/// (split), deletes that empty a page inside the chain (unlink), and a
/// shrink that leaves a mixed page behind.
fn steps(k: usize) -> Vec<Step> {
    let big = |b: u8| vec![b; 3000];
    match k {
        0..=3 => (0..=k).map(|j| Step::Append(format!("rec-{k}-{j}").into_bytes())).collect(),
        4 => vec![Step::Update(2, b"REC-1-1".to_vec()), Step::Delete(0)],
        5 => vec![
            Step::Update(3, big(5)),
            Step::Update(1, big(4)),
            Step::Append(big(6)),
            Step::Append(big(7)),
        ],
        6 => vec![Step::Delete(9), Step::Delete(4), Step::Delete(4), Step::Delete(4)],
        7 => vec![Step::Update(3, b"small again".to_vec()), Step::Append(b"last".to_vec())],
        _ => unreachable!("the workload has {COMMITS} commits"),
    }
}

/// Commit number `k` of the workload (commit 0 creates the space).
fn apply_commit(s: &mut Store, k: usize) -> Result<(), StoreError> {
    s.with_txn(|s| {
        if k == 0 {
            s.create_space(SPACE)?;
        }
        for step in steps(k) {
            let ids = s.scan_ids(SPACE)?;
            match step {
                Step::Append(rec) => drop(s.append(SPACE, &rec)?),
                Step::Update(i, rec) => drop(s.update(SPACE, ids[i].0, &rec)?),
                Step::Delete(i) => s.delete(SPACE, ids[i].0)?,
            }
        }
        Ok(())
    })
}

/// Expected records after the first `commits` commits.
fn expected(commits: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for step in (0..commits).flat_map(steps) {
        match step {
            Step::Append(rec) => out.push(rec),
            Step::Update(i, rec) => out[i] = rec,
            Step::Delete(i) => drop(out.remove(i)),
        }
    }
    out
}

/// Dry-run the workload and return each barrier crossing paired with
/// the index of the commit it happened in.
fn record_ops() -> Vec<(BarrierOp, usize)> {
    let vfs = MemVfs::shared();
    let mut s = Store::open(shared(&vfs), config(StorageFaults::recording())).unwrap();
    for k in 0..COMMITS {
        apply_commit(&mut s, k).unwrap();
    }
    let ops = s.faults().ops();
    let mut out = Vec::new();
    let mut commit = 0usize;
    for op in ops {
        if op.point == KillPoint::PostWalAppend {
            // Each commit crosses PostWalAppend exactly once, first.
            out.push((op, commit));
            commit += 1;
        } else {
            out.push((op, commit - 1));
        }
    }
    out
}

/// Run the workload against a kill scheduled at `op`, returning the
/// vfs after the kill fired (workload stops at the dead commit).
fn run_until_kill(op: BarrierOp) -> (Arc<Mutex<MemVfs>>, usize) {
    let vfs = MemVfs::shared();
    let mut s =
        Store::open(shared(&vfs), config(StorageFaults::kill_at(op.point, op.at_ms))).unwrap();
    for k in 0..COMMITS {
        match apply_commit(&mut s, k) {
            Ok(()) => {}
            Err(StoreError::Killed(kp)) => {
                assert_eq!(kp, op.point, "kill fired at the scheduled point");
                return (vfs, k);
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    panic!("scheduled kill at tick {} never fired", op.at_ms);
}

fn recovered_scan(vfs: &Arc<Mutex<MemVfs>>) -> (Store, Vec<Vec<u8>>) {
    let mut s = Store::open(shared(vfs), config(StorageFaults::none())).unwrap();
    let records = if s.has_space(SPACE) { s.scan(SPACE).unwrap() } else { Vec::new() };
    (s, records)
}

#[test]
fn workload_splits_and_unlinks_pages() {
    let vfs = MemVfs::shared();
    let mut s = Store::open(shared(&vfs), config(StorageFaults::none())).unwrap();
    let chain_pages: Vec<usize> = (0..COMMITS)
        .map(|k| {
            apply_commit(&mut s, k).unwrap();
            let mut pages: Vec<u32> =
                s.scan_ids(SPACE).unwrap().iter().map(|(id, _)| id.page).collect();
            pages.dedup();
            pages.len()
        })
        .collect();
    // Commit 5 splits the head and opens two tail pages; commit 6
    // unlinks the page between them.
    assert_eq!(chain_pages, [1, 1, 1, 1, 1, 4, 3, 3]);
}

#[test]
fn every_kill_point_recovers_to_the_committed_prefix() {
    let ops = record_ops();
    assert!(
        ops.iter().filter(|(o, _)| o.point == KillPoint::MidPageFlush).count() >= COMMITS,
        "workload must exercise mid-flush barriers"
    );
    for (op, commit) in ops {
        let (vfs, died_in) = run_until_kill(op);
        assert_eq!(died_in, commit, "kill landed in the predicted commit");
        llmdm_rt::lock_recover(&vfs).crash();
        let (s, records) = recovered_scan(&vfs);
        // PostWalAppend fires before the WAL fsync: the dying commit is
        // lost. The other two fire after: it is durable.
        let committed = match op.point {
            KillPoint::PostWalAppend => commit,
            KillPoint::PostWalSync | KillPoint::MidPageFlush => commit + 1,
        };
        assert_eq!(
            s.recovery().committed_txns,
            committed,
            "committed txns after kill at {:?} in commit {commit}",
            op.point
        );
        assert_eq!(
            records,
            expected(committed),
            "scan after kill at {:?} in commit {commit}",
            op.point
        );
    }
}

#[test]
fn torn_tail_crashes_still_recover_exactly_the_committed_set() {
    let ops = record_ops();
    // Torn crashes matter most where the WAL tail is unsynced.
    for (op, commit) in ops.iter().filter(|(o, _)| o.point == KillPoint::PostWalAppend) {
        for seed in 0..4u64 {
            let (vfs, _) = run_until_kill(*op);
            llmdm_rt::lock_recover(&vfs).crash_torn(seed);
            let (s, records) = recovered_scan(&vfs);
            let committed = s.recovery().committed_txns;
            // The dying commit's frames were volatile; a torn crash may
            // keep any prefix of them, including the whole Commit frame.
            assert!(
                committed == *commit || committed == commit + 1,
                "torn crash (seed {seed}) must recover {commit} or {} committed txns, got {committed}",
                commit + 1
            );
            assert_eq!(
                records,
                expected(committed),
                "state must match the recovered committed prefix (seed {seed})"
            );
        }
    }
}

#[test]
fn recovery_is_byte_reproducible_across_reruns() {
    let ops = record_ops();
    for point in KillPoint::all() {
        let (op, _) = *ops
            .iter()
            .filter(|(o, _)| o.point == point)
            .last()
            .expect("workload crosses every barrier");
        let image = |seed: u64| {
            let (vfs, _) = run_until_kill(op);
            llmdm_rt::lock_recover(&vfs).crash_torn(seed);
            let (_s, records) = recovered_scan(&vfs);
            let v = llmdm_rt::lock_recover(&vfs);
            (v.bytes("data.db"), v.bytes("data.wal"), records)
        };
        for seed in [3u64, 17] {
            assert_eq!(image(seed), image(seed), "same seed, same bytes ({point:?})");
        }
    }
}

#[test]
fn double_replay_is_idempotent() {
    let ops = record_ops();
    for point in KillPoint::all() {
        let (op, _) = *ops
            .iter()
            .filter(|(o, _)| o.point == point)
            .last()
            .expect("workload crosses every barrier");
        let (vfs, _) = run_until_kill(op);
        llmdm_rt::lock_recover(&vfs).crash();

        let (s1, once) = recovered_scan(&vfs);
        drop(s1);
        let db_once = llmdm_rt::lock_recover(&vfs).bytes("data.db");

        // Open again without any new crash: recovery replays the same
        // WAL a second time.
        let (s2, twice) = recovered_scan(&vfs);
        drop(s2);
        let db_twice = llmdm_rt::lock_recover(&vfs).bytes("data.db");

        assert_eq!(once, twice, "replaying recovery must not change visible state ({point:?})");
        assert_eq!(db_once, db_twice, "replaying recovery must not change file bytes ({point:?})");
    }
}

#[test]
fn stochastic_chaos_sweep_converges_with_retries() {
    // Seeded random kills at every barrier; keep crashing and retrying
    // until the whole workload lands. The store must never lose a
    // committed commit or resurrect a killed one.
    for seed in 0..6u64 {
        let vfs = MemVfs::shared();
        let mut attempts = 0;
        loop {
            attempts += 1;
            assert!(attempts < 200, "chaos workload did not converge (seed {seed})");
            let faults = llmdm_store::StorageFaults::new(
                llmdm_resil::FaultPlan::new(
                    "chaos-matrix",
                    seed.wrapping_add(attempts),
                    KillPoint::all()
                        .into_iter()
                        .map(|p| {
                            llmdm_resil::TierPlan::with_rates(
                                p.label(),
                                llmdm_resil::FaultRates {
                                    rate_limited: 0.08,
                                    ..llmdm_resil::FaultRates::default()
                                },
                            )
                        })
                        .collect(),
                ),
                llmdm_resil::SimClock::new(),
            );
            let mut s = Store::open(shared(&vfs), config(faults)).unwrap();
            // How many commits already landed? Every commit changes the
            // records, so the recovered state names its prefix.
            let present = s.scan_or_empty();
            let done = (0..=COMMITS)
                .find(|&n| expected(n) == present)
                .unwrap_or_else(|| panic!("recovered state is no commit boundary (seed {seed})"));
            let mut killed = false;
            for k in done..COMMITS {
                match apply_commit(&mut s, k) {
                    Ok(()) => {}
                    Err(StoreError::Killed(_)) => {
                        killed = true;
                        break;
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            drop(s);
            if killed {
                llmdm_rt::lock_recover(&vfs).crash_torn(seed * 1000 + attempts);
                continue;
            }
            break;
        }
        let (_s, records) = recovered_scan(&vfs);
        assert_eq!(records, expected(COMMITS), "chaos run converged (seed {seed})");
    }
}

trait ScanOrEmpty {
    fn scan_or_empty(&mut self) -> Vec<Vec<u8>>;
}

impl ScanOrEmpty for Store {
    fn scan_or_empty(&mut self) -> Vec<Vec<u8>> {
        if self.has_space(SPACE) {
            self.scan(SPACE).unwrap()
        } else {
            Vec::new()
        }
    }
}
