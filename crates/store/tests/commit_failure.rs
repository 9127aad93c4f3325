//! A commit that fails with an I/O error — not a kill — at any step.
//!
//! Before the WAL sync returns, the transaction is not durable: the store
//! must undo it and stay usable at its pre-transaction state, and no later
//! commit may make it durable by syncing its frames along. After the sync,
//! recovery will replay it: the store must wedge. Either way a reopen
//! after a crash shows exactly the state that matches.

use std::sync::{Arc, Mutex};

use llmdm_store::{MemVfs, SharedVfs, Store, StoreConfig, StoreError, Vfs};

/// A [`MemVfs`] whose `n`-th write, truncate or sync after [`arm`]ing
/// fails: a failing write lands only its first half (a torn write), a
/// failing sync makes nothing durable, a failing truncate does nothing.
///
/// [`arm`]: FailingVfs::arm
#[derive(Debug, Default)]
struct FailingVfs {
    disk: MemVfs,
    /// Calls left before the failing one.
    fail_in: Option<usize>,
}

impl FailingVfs {
    fn arm(&mut self, n: usize) {
        self.fail_in = Some(n);
    }

    /// Count one call; `true` if it is the one that fails.
    fn fails(&mut self) -> bool {
        match self.fail_in {
            Some(0) => {
                self.fail_in = None;
                true
            }
            Some(n) => {
                self.fail_in = Some(n - 1);
                false
            }
            None => false,
        }
    }
}

fn injected() -> StoreError {
    StoreError::Io("injected failure".into())
}

impl Vfs for FailingVfs {
    fn read_at(&self, file: &str, offset: u64, len: usize) -> Vec<u8> {
        self.disk.read_at(file, offset, len)
    }

    fn write_at(&mut self, file: &str, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        if self.fails() {
            self.disk.write_at(file, offset, &data[..data.len() / 2])?;
            return Err(injected());
        }
        self.disk.write_at(file, offset, data)
    }

    fn truncate(&mut self, file: &str, len: u64) -> Result<(), StoreError> {
        if self.fails() {
            return Err(injected());
        }
        self.disk.truncate(file, len)
    }

    fn sync(&mut self, file: &str) -> Result<(), StoreError> {
        if self.fails() {
            return Err(injected());
        }
        self.disk.sync(file)
    }

    fn len(&self, file: &str) -> u64 {
        self.disk.len(file)
    }
}

const SPACE: &str = "t";

fn rec(i: usize) -> Vec<u8> {
    format!("record {i:03} {}", "x".repeat(200)).into_bytes()
}

/// The committed starting state: one space of 40 records over a few pages.
fn populated(vfs: &Arc<Mutex<FailingVfs>>, checkpoint_bytes: Option<u64>) -> Store {
    let shared: SharedVfs = vfs.clone();
    let mut s = Store::open(
        shared,
        StoreConfig {
            checkpoint_bytes,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    s.with_txn(|s| {
        s.create_space(SPACE)?;
        (0..40).try_for_each(|i| s.append(SPACE, &rec(i)).map(drop))
    })
    .unwrap();
    s
}

/// The transaction under test: a delete, an update that splits its page,
/// appends, and a new space — data pages, the header and the catalog.
fn change(s: &mut Store) -> Result<(), StoreError> {
    let ids = s.scan_ids(SPACE)?;
    s.delete(SPACE, ids[10].0)?;
    s.update(SPACE, ids[3].0, &vec![b'U'; 2500])?;
    for i in 40..45 {
        s.append(SPACE, &rec(i))?;
    }
    s.create_space("extra")
}

fn reopen(vfs: &Arc<Mutex<FailingVfs>>, checkpoint_bytes: Option<u64>) -> Store {
    llmdm_rt::lock_recover(vfs).disk.crash();
    let shared: SharedVfs = vfs.clone();
    Store::open(
        shared,
        StoreConfig {
            checkpoint_bytes,
            ..StoreConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn a_failed_commit_rolls_back_before_the_wal_sync_and_wedges_after_it() {
    for checkpoint_bytes in [None, Some(0)] {
        // The states to expect, from a run without failures.
        let (before, after) = {
            let vfs = Arc::new(Mutex::new(FailingVfs::default()));
            let mut s = populated(&vfs, checkpoint_bytes);
            let before = s.scan(SPACE).unwrap();
            s.with_txn(change).unwrap();
            (before, s.scan(SPACE).unwrap())
        };
        let (mut rolled_back, mut wedged) = (0, 0);
        for n in 0.. {
            let vfs = Arc::new(Mutex::new(FailingVfs::default()));
            let mut s = populated(&vfs, checkpoint_bytes);
            s.begin().unwrap();
            change(&mut s).unwrap();
            llmdm_rt::lock_recover(&vfs).arm(n);
            let case = format!("call {n} of commit, checkpoint {checkpoint_bytes:?}");
            match s.commit() {
                Ok(()) => {
                    // `n` is past the commit's last call: every step was hit.
                    assert!(
                        rolled_back > 0 && wedged > 0,
                        "{case}: {rolled_back} / {wedged}"
                    );
                    break;
                }
                Err(StoreError::Io(_)) if s.wedged() => {
                    wedged += 1;
                    assert_eq!(s.scan(SPACE), Err(StoreError::Wedged), "{case}");
                    let mut s = reopen(&vfs, checkpoint_bytes);
                    assert_eq!(
                        s.scan(SPACE).unwrap(),
                        after,
                        "{case}: reopen lost the commit"
                    );
                    assert!(s.has_space("extra"), "{case}");
                }
                Err(StoreError::Io(_)) => {
                    rolled_back += 1;
                    assert!(!s.in_txn(), "{case}: transaction left open");
                    assert_eq!(s.scan(SPACE).unwrap(), before, "{case}");
                    assert!(!s.has_space("extra"), "{case}");
                    // Usable: a later commit works, and its WAL sync must
                    // not make the undone transaction durable.
                    s.with_txn(|s| s.append(SPACE, b"later").map(drop)).unwrap();
                    let mut want = before.clone();
                    want.push(b"later".to_vec());
                    assert_eq!(s.scan(SPACE).unwrap(), want, "{case}");
                    let mut s = reopen(&vfs, checkpoint_bytes);
                    assert_eq!(s.scan(SPACE).unwrap(), want, "{case}: reopen");
                    assert!(!s.has_space("extra"), "{case}: undone commit came back");
                }
                Err(e) => panic!("{case}: unexpected {e:?}"),
            }
        }
    }
}
