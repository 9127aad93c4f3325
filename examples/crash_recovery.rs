//! Durability walkthrough (DESIGN.md §13): the storage tier survives a
//! process kill at *any* point inside a commit, and persistent SQL
//! tables come back from disk exactly as of the last committed
//! transaction.
//!
//! This example is self-validating; every step asserts:
//! 1. populate a `PERSIST` table through the sqlengine;
//! 2. kill the store mid-commit at each of the three kill points
//!    (post-WAL-append, post-WAL-sync, mid-page-flush), crash the
//!    simulated machine, re-open, and check the recovered database
//!    bit-equals an in-memory oracle replay of exactly the statements
//!    that committed.
//!
//! Run with `cargo run -p llmdm --example crash_recovery`.

use llmdm::sql::exec::{execute_select, execute_select_direct};
use llmdm::sql::{parse_statement, Database, PersistentDb, Statement};
use llmdm::store::{KillPoint, MemVfs, StorageFaults, StoreConfig};

const DDL: &str = "CREATE TABLE readings (id INT, sensor TEXT, value FLOAT)";
const CHECK: &str = "SELECT sensor, value FROM readings ORDER BY id";

fn workload() -> Vec<String> {
    (0..12)
        .map(|i| {
            format!(
                "INSERT INTO readings VALUES ({i}, 'sensor-{}', {}.{:02})",
                i % 3,
                (i * 13) % 40,
                (i * 29) % 100
            )
        })
        .collect()
}

/// Oracle replay: an in-memory database after the first `n` statements.
fn oracle_after(n: usize) -> Database {
    let mut db = Database::new();
    db.execute(DDL).expect("oracle DDL");
    for stmt in &workload()[..n] {
        db.execute(stmt).expect("oracle replay");
    }
    db
}

fn assert_matches_oracle(per: &mut PersistentDb, oracle: &Database, ctx: &str) {
    let sel = match parse_statement(CHECK).expect("parse") {
        Statement::Select(s) => s,
        _ => unreachable!(),
    };
    let want = execute_select(oracle, &sel).expect("oracle planner");
    let want_direct = execute_select_direct(oracle, &sel).expect("oracle direct");
    assert!(want.bit_eq(&want_direct), "{ctx}: oracle disagrees with itself");
    let got = per.query(CHECK).expect("recovered query");
    assert!(got.bit_eq(&want), "{ctx}: recovered table differs from the oracle");
}

/// Run the workload against a store rigged to die at `point` on the
/// `at_ms` commit barrier; crash, recover, and differential-check.
fn kill_and_recover(point: KillPoint, at_ms: u64) {
    let vfs = MemVfs::shared();
    let mut per = PersistentDb::open(
        vfs.clone(),
        StoreConfig::with_faults(StorageFaults::kill_at(point, at_ms)),
    )
    .expect("open");
    per.execute(&format!("{DDL} PERSIST")).expect("DDL");

    let mut survived = 0usize;
    for stmt in workload() {
        match per.execute(&stmt) {
            Ok(_) => survived += 1,
            Err(e) => {
                assert!(e.to_string().contains("killed"), "expected a kill, got: {e}");
                break;
            }
        }
    }
    assert!(survived < workload().len(), "{point:?}: the kill never fired");
    drop(per);
    llmdm::rt::lock_recover(&vfs).crash(); // lose everything unsynced

    let mut per = PersistentDb::open(vfs, StoreConfig::default()).expect("recovery");
    let report = per.store().recovery().clone();

    // How many commits are durable? PostWalAppend dies before the WAL
    // sync, so the interrupted statement is lost; the two later kill
    // points die after it, so the WAL replays that statement's pages.
    let committed = match point {
        KillPoint::PostWalAppend => survived,
        KillPoint::PostWalSync | KillPoint::MidPageFlush => survived + 1,
    };
    assert_matches_oracle(&mut per, &oracle_after(committed), &format!("{point:?}"));
    println!(
        "  {:<16} killed statement #{:<2} -> recovered {:2} rows ({} WAL frames, {} pages redone)",
        format!("{point:?}"),
        survived,
        committed,
        report.frames,
        report.pages_redone
    );
}

fn main() {
    println!("crash_recovery: durable tables across injected kills\n");

    // ---- 1. Baseline: populate, restart cleanly, differential-check.
    let vfs = MemVfs::shared();
    let mut per = PersistentDb::open(vfs.clone(), StoreConfig::default()).expect("open");
    per.execute(&format!("{DDL} PERSIST")).expect("DDL");
    for stmt in workload() {
        per.execute(&stmt).expect("populate");
    }
    drop(per);
    let mut per = PersistentDb::open(vfs, StoreConfig::default()).expect("re-open");
    assert_matches_oracle(&mut per, &oracle_after(workload().len()), "clean restart");
    println!("clean restart: {} rows reload bit-identically", workload().len());

    // ---- 2. Chaos: a kill at every point in the commit protocol. The
    // barrier tick is found by a recording dry-run, so each kill lands
    // mid-workload deterministically.
    println!("\nkill matrix (deterministic fault injection):");
    for point in KillPoint::all() {
        let at_ms = {
            let vfs = MemVfs::shared();
            let mut rec = PersistentDb::open(
                vfs,
                StoreConfig::with_faults(StorageFaults::recording()),
            )
            .expect("recording open");
            rec.execute(&format!("{DDL} PERSIST")).expect("DDL");
            for stmt in workload() {
                rec.execute(&stmt).expect("recording run");
            }
            let ops: Vec<_> = rec
                .store()
                .faults()
                .ops()
                .into_iter()
                .filter(|o| o.point == point)
                .collect();
            ops[ops.len() / 2].at_ms // a mid-workload barrier
        };
        kill_and_recover(point, at_ms);
    }

    println!("\ncrash_recovery: OK");
}
