//! Differential gate for durable tables: the same workload executed on
//! a plain in-memory [`Database`] and on a store-backed
//! [`PersistentDb`] must produce **bit-identical** query results — via
//! the Volcano planner and via the direct-execution oracle — before and
//! after a process restart, and after a kill at every commit barrier of
//! every statement. Row order is part of the contract: the queries
//! include scans without `ORDER BY`.

use llmdm_sqlengine::exec::{execute_select, execute_select_direct};
use llmdm_sqlengine::{parse_statement, Database, PersistentDb, Statement};
use llmdm_store::{KillPoint, MemVfs, StorageFaults, StoreConfig};

const DDL: &str = "CREATE TABLE orders (id INT, item TEXT, qty INT, price FLOAT, rush BOOL)";

fn workload() -> Vec<String> {
    let mut stmts = Vec::new();
    let items = ["widget", "gadget", "sprocket", "doohickey"];
    for i in 0..40 {
        stmts.push(format!(
            "INSERT INTO orders VALUES ({i}, '{}', {}, {}.{:02}, {})",
            items[i % items.len()],
            (i * 7) % 13 + 1,
            (i * 31) % 90 + 1,
            (i * 17) % 100,
            if i % 3 == 0 { "TRUE" } else { "FALSE" }
        ));
    }
    stmts.push("DELETE FROM orders WHERE qty > 11".to_string());
    stmts.push("UPDATE orders SET price = price * 2 WHERE rush = TRUE".to_string());
    // Rows that outgrow their page (splits), rows too big to share one,
    // and deletes that leave such a page empty (unlinks).
    let big = |c: char| c.to_string().repeat(3000);
    stmts.push(format!("UPDATE orders SET item = '{}' WHERE id = 7", big('s')));
    stmts.push(format!("UPDATE orders SET item = '{}' WHERE id = 20", big('t')));
    stmts.push(format!("INSERT INTO orders VALUES (100, '{}', 1, 1.5, FALSE)", big('u')));
    stmts.push(format!("INSERT INTO orders VALUES (101, '{}', 2, 2.5, TRUE)", big('v')));
    stmts.push(format!("INSERT INTO orders VALUES (102, '{}', 3, 3.5, TRUE)", big('x')));
    stmts.push("DELETE FROM orders WHERE id = 101".to_string());
    stmts.push("DELETE FROM orders WHERE id = 20 OR id = 21".to_string());
    // One store transaction for a whole script, through every kind of
    // change and a table created inside it.
    stmts.push(format!(
        "BEGIN; INSERT INTO orders VALUES (200, 'in txn', 3, 3.5, FALSE); \
         UPDATE orders SET item = '{}' WHERE id = 30; DELETE FROM orders WHERE id = 102; \
         UPDATE orders SET qty = qty + 1 WHERE id = 200; \
         CREATE TABLE audit (id INT, note TEXT) PERSIST; INSERT INTO audit VALUES (1, 'made'); \
         DELETE FROM orders WHERE id < 3; COMMIT;",
        big('w')
    ));
    stmts.push("BEGIN; DELETE FROM orders; ROLLBACK;".to_string());
    stmts.push("UPDATE orders SET item = 'small again' WHERE id = 7".to_string());
    stmts.push("INSERT INTO orders VALUES (300, 'last', 4, 4.5, TRUE)".to_string());
    stmts
}

const QUERIES: &[&str] = &[
    "SELECT * FROM orders",
    "SELECT id, qty FROM orders WHERE qty > 3",
    "SELECT * FROM orders ORDER BY id",
    "SELECT item, SUM(qty) FROM orders GROUP BY item ORDER BY item",
    "SELECT id, price FROM orders WHERE price > 50.0 ORDER BY price DESC, id",
    "SELECT COUNT(*) FROM orders WHERE rush = TRUE",
];

fn select_stmt(sql: &str) -> llmdm_sqlengine::SelectStmt {
    match parse_statement(sql).unwrap() {
        Statement::Select(s) => s,
        other => panic!("expected SELECT, got {other:?}"),
    }
}

/// Assert every query agrees bit-exactly between `oracle` (in-memory)
/// and `subject` (persistent), through both execution paths.
fn assert_differential(oracle: &Database, subject: &mut PersistentDb, ctx: &str) {
    for q in QUERIES {
        let sel = select_stmt(q);
        let want_planned = execute_select(oracle, &sel).unwrap();
        let want_direct = execute_select_direct(oracle, &sel).unwrap();
        assert!(
            want_planned.bit_eq(&want_direct),
            "{ctx}: oracle planner/direct disagree on {q}"
        );
        let got = subject.query(q).unwrap();
        assert!(got.bit_eq(&want_planned), "{ctx}: persistent planner result differs on {q}");
        // And through the direct oracle over the same catalog.
        let got_direct = execute_select_direct(subject.database(), &sel).unwrap();
        assert!(got_direct.bit_eq(&want_direct), "{ctx}: persistent direct result differs on {q}");
    }
}

/// Run one workload entry: a statement, or a `BEGIN … ;` script.
fn run(db: &mut PersistentDb, stmt: &str) -> Result<(), llmdm_sqlengine::SqlError> {
    db.execute_script(stmt).map(drop)
}

/// The in-memory oracle after the first `n` workload statements.
fn oracle(stmts: &[String], n: usize) -> Database {
    let mut mem = Database::new();
    mem.execute(DDL).unwrap();
    for stmt in &stmts[..n] {
        mem.execute_script(&stmt.replace(" PERSIST", "")).unwrap();
    }
    mem
}

#[test]
fn persisted_scans_bit_equal_the_in_memory_oracle() {
    let vfs = MemVfs::shared();
    let stmts = workload();
    let mut per = PersistentDb::open(vfs.clone(), StoreConfig::default()).unwrap();
    per.execute(&format!("{DDL} PERSIST")).unwrap();
    for stmt in &stmts {
        run(&mut per, stmt).unwrap();
    }
    let mem = oracle(&stmts, stmts.len());
    assert_differential(&mem, &mut per, "live");
    assert!(per.database().has_table("audit"));

    // Restart: drop the persistent session, re-open from the same disk.
    drop(per);
    let mut per = PersistentDb::open(vfs.clone(), StoreConfig::default()).unwrap();
    assert_differential(&mem, &mut per, "after restart");
    assert_eq!(per.query("SELECT * FROM audit").unwrap().rows.len(), 1);
}

#[test]
fn recovery_after_mid_commit_kill_preserves_bit_equality() {
    // Kill the store inside the sqlengine's own write-through commit —
    // at every barrier of every statement in turn — then recover and
    // check the surviving prefix matches an oracle replay of the
    // statements that committed.
    let stmts = workload();

    // Recording pass: run the full workload once to learn the simulated
    // tick of each commit barrier and the statement it belongs to.
    let barriers = {
        let mut rec = PersistentDb::open(
            MemVfs::shared(),
            StoreConfig::with_faults(StorageFaults::recording()),
        )
        .unwrap();
        rec.execute(&format!("{DDL} PERSIST")).unwrap();
        let mut barriers = Vec::new();
        let mut seen = rec.store().faults().ops().len();
        for (i, stmt) in stmts.iter().enumerate() {
            run(&mut rec, stmt).unwrap();
            let ops = rec.store().faults().ops();
            barriers.extend(ops[seen..].iter().map(|op| (i, *op)));
            seen = ops.len();
        }
        barriers
    };
    assert!(
        stmts.iter().enumerate().all(|(i, s)| {
            s.contains("ROLLBACK") || barriers.iter().any(|(at, _)| *at == i)
        }),
        "every statement that changes a row commits through the store"
    );
    let flushes = |i: usize| {
        barriers.iter().filter(|(at, op)| *at == i && op.point == KillPoint::MidPageFlush).count()
    };
    assert!(
        (0..stmts.len()).filter(|&i| flushes(i) >= 3).count() >= 6,
        "the splits, unlinks and the script flush several pages in one commit"
    );

    for (dies_in, op) in barriers {
        let ctx = format!("kill at {:?} (tick {}) in statement {dies_in}", op.point, op.at_ms);
        let vfs = MemVfs::shared();
        let mut per = PersistentDb::open(
            vfs.clone(),
            StoreConfig::with_faults(StorageFaults::kill_at(op.point, op.at_ms)),
        )
        .unwrap();
        per.execute(&format!("{DDL} PERSIST")).unwrap();
        let mut survived = 0usize;
        for stmt in &stmts {
            match run(&mut per, stmt) {
                Ok(()) => survived += 1,
                Err(e) => {
                    assert!(e.to_string().contains("killed"), "{ctx}: unexpected error: {e}");
                    break;
                }
            }
        }
        assert_eq!(survived, dies_in, "{ctx}: the kill lands in the predicted statement");
        let err = per.query(QUERIES[0]).unwrap_err();
        assert!(err.to_string().contains("wedged"), "{ctx}: a dead process answers nothing: {err}");
        drop(per);
        llmdm_rt::lock_recover(&vfs).crash();

        // Before the WAL fsync the dying statement is lost whole; after
        // it, it is durable whole even though the caller saw an error.
        let committed = match op.point {
            KillPoint::PostWalAppend => survived,
            KillPoint::PostWalSync | KillPoint::MidPageFlush => survived + 1,
        };
        let mem = oracle(&stmts, committed);
        let mut per = PersistentDb::open(vfs, StoreConfig::default()).unwrap();
        assert_differential(&mem, &mut per, &ctx);
        assert_eq!(per.database().has_table("audit"), mem.has_table("audit"), "{ctx}");

        // The recovered database takes the rest of the workload as if
        // nothing had happened.
        for stmt in &stmts[committed..] {
            run(&mut per, stmt).unwrap();
        }
        assert_differential(&oracle(&stmts, stmts.len()), &mut per, &format!("{ctx}, resumed"));
    }
}
