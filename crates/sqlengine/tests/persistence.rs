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

// ------------------------------------------------- random scripts

/// The tables random scripts use: each name may be created `PERSIST` or
/// plain, dropped and created again, inside a transaction or outside.
const NAMES: [&str; 3] = ["t0", "t1", "t2"];

/// A seeded script of about `len` entries for [`drive`]. An entry is a
/// statement (run with `execute`, so a failure inside a transaction
/// leaves it open) or a `;`-separated script (run with `execute_script`,
/// so a failure rolls it back).
fn random_script(seed: u64, len: usize) -> Vec<String> {
    use llmdm_rt::{Rng, SeedableRng, SmallRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut next_id = 0i64;
    let mut in_txn = false;
    let mut out = Vec::new();
    // A body that shares a page, or (three times in ten) one that
    // crowds or outgrows it, so updates split pages and deletes unlink them.
    let body = |rng: &mut SmallRng, id: i64| {
        if rng.gen_bool(0.3) {
            let c = (b'a' + (id % 26) as u8) as char;
            c.to_string().repeat(rng.gen_range(1000usize..3900))
        } else {
            format!("r{id}")
        }
    };
    let create = |rng: &mut SmallRng, name: &str| {
        let persist = if rng.gen_bool(0.7) { " PERSIST" } else { "" };
        format!("CREATE TABLE {name} (id INT, body TEXT, n INT){persist}")
    };
    for name in NAMES {
        out.push(create(&mut rng, name));
    }
    while out.len() < len {
        if !in_txn && rng.gen_bool(0.15) {
            out.push("BEGIN".to_string());
            in_txn = true;
        }
        let t = NAMES[rng.gen_range(0..NAMES.len())];
        let recent = (next_id - rng.gen_range(1i64..5)).max(0);
        let stmt = match rng.gen_range(0..100) {
            0..=29 => {
                let rows: Vec<String> = (0..rng.gen_range(1..5))
                    .map(|_| {
                        next_id += 1;
                        format!("({next_id}, '{}', {})", body(&mut rng, next_id), next_id % 7)
                    })
                    .collect();
                format!("INSERT INTO {t} VALUES {}", rows.join(", "))
            }
            30..=41 => format!(
                "UPDATE {t} SET body = '{}', n = n + 1 WHERE id >= {recent}",
                body(&mut rng, recent)
            ),
            42..=47 => format!("UPDATE {t} SET n = n * 2 WHERE n = {}", rng.gen_range(0..7)),
            48..=55 => format!("DELETE FROM {t} WHERE id >= {recent}"),
            56..=61 => format!("DELETE FROM {t} WHERE n = {}", rng.gen_range(0..7)),
            62..=67 => format!("DELETE FROM {t} WHERE id = {}", rng.gen_range(0..=next_id)),
            68..=73 => {
                out.push(format!("DROP TABLE IF EXISTS {t}"));
                create(&mut rng, t)
            }
            74..=76 => create(&mut rng, t).replace("TABLE", "TABLE IF NOT EXISTS"),
            // Fails on its second row, so the first must not stay either.
            77..=80 => {
                next_id += 1;
                format!("INSERT INTO {t} VALUES ({next_id}, 'ok', 1), ({next_id}, 'short')")
            }
            81..=82 => "SELECT * FROM missing".to_string(),
            83..=90 if !in_txn => {
                next_id += 2;
                let fail = if rng.gen_bool(0.4) { " INSERT INTO missing VALUES (1);" } else { "" };
                let end = if rng.gen_bool(0.8) { "COMMIT" } else { "ROLLBACK" };
                format!(
                    "BEGIN; INSERT INTO {t} VALUES ({}, 's', 1); DELETE FROM {t} WHERE id = {};\
                     {fail} UPDATE {t} SET n = 9 WHERE id >= {recent}; {end};",
                    next_id - 1,
                    next_id - 2,
                )
            }
            _ => "SELECT COUNT(*) FROM t0".to_string(),
        };
        out.push(stmt);
        if in_txn && rng.gen_bool(0.25) {
            out.push(if rng.gen_bool(0.75) { "COMMIT" } else { "ROLLBACK" }.to_string());
            in_txn = false;
        }
    }
    if in_txn {
        out.push("COMMIT".to_string());
    }
    out
}

/// Every table of `want` (only its PERSIST ones if `persist_only`) is in
/// `got` with the same schema, flag and rows, bit for bit and in order,
/// and `got` holds no other table.
fn assert_same_tables(want: &Database, got: &Database, persist_only: bool, ctx: &str) {
    let names = |db: &Database| -> Vec<String> {
        db.table_names()
            .into_iter()
            .filter(|n| !persist_only || db.table(n).is_ok_and(|t| t.persist))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(names(got), names(want), "{ctx}: table names");
    for name in names(want) {
        let (w, g) = (want.table(&name).unwrap(), got.table(&name).unwrap());
        assert_eq!((&g.schema, g.persist), (&w.schema, w.persist), "{ctx}: {name} shape");
        let same = g.rows.len() == w.rows.len()
            && g.rows.iter().zip(&w.rows).all(|(a, b)| {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bit_eq(y))
            });
        assert!(same, "{ctx}: {name} rows differ");
    }
}

/// Run `script` on a [`PersistentDb`] over a fresh [`MemVfs`] and on an
/// in-memory [`Database`], requiring the same outcome from each entry.
/// After every entry that returns outside a transaction, the two hold the
/// same tables, and a crash of the disk as it stands reopens to exactly
/// the PERSIST ones. Returns the disk.
fn drive(script: &[String], ctx: &str) -> std::sync::Arc<std::sync::Mutex<MemVfs>> {
    let vfs = MemVfs::shared();
    let mut per = PersistentDb::open(vfs.clone(), StoreConfig::default()).unwrap();
    let mut mem = Database::new();
    for (i, sql) in script.iter().enumerate() {
        let ctx = format!("{ctx}, entry {i} `{}`", &sql[..sql.len().min(60)]);
        let (got, want) = if sql.contains(';') {
            (per.execute_script(sql), mem.execute_script(sql))
        } else {
            (per.execute(sql), mem.execute(sql))
        };
        match (&got, &want) {
            (Ok(g), Ok(w)) => assert!(g.bit_eq(w), "{ctx}: results differ"),
            (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string(), "{ctx}"),
            _ => panic!("{ctx}: persistent {got:?} but in-memory {want:?}"),
        }
        assert_eq!(per.database().in_transaction(), mem.in_transaction(), "{ctx}");
        if mem.in_transaction() {
            continue;
        }
        assert_same_tables(&mem, per.database(), false, &ctx);
        let mut disk = llmdm_rt::lock_recover(&vfs).snapshot();
        disk.crash();
        let shared = std::sync::Arc::new(std::sync::Mutex::new(disk));
        let reopened = PersistentDb::open(shared, StoreConfig::default()).unwrap();
        assert_same_tables(&mem, reopened.database(), true, &format!("{ctx}, after a crash"));
    }
    vfs
}

#[test]
fn random_scripts_keep_memory_equal_to_the_store() {
    let scripts: Vec<Vec<String>> = (0..6).map(|seed| random_script(seed, 70)).collect();
    for kind in ["ROLLBACK", "DROP TABLE", "COMMIT;", "INSERT INTO missing", "'short'"] {
        let n = scripts.iter().flatten().filter(|s| s.contains(kind)).count();
        assert!(n >= 3, "the scripts hold {n} entries with {kind}");
    }
    for (seed, script) in scripts.iter().enumerate() {
        drive(script, &format!("seed {seed}"));
    }
}

/// One fixed script through every kind of change: splits and unlinks,
/// rows inserted and then changed in one transaction, a failing
/// statement inside one, ROLLBACK, DROP + CREATE of one name inside and
/// outside transactions, a plain name becoming PERSIST, and a split
/// behind a delete in one transaction.
fn fixed_script() -> Vec<String> {
    let long = |c: char, n: usize| c.to_string().repeat(n);
    [
        "CREATE TABLE a (id INT, body TEXT, n INT) PERSIST".to_string(),
        "CREATE TABLE b (id INT, body TEXT, n INT)".to_string(),
        format!(
            "INSERT INTO a VALUES (1, 'one', 1), (2, '{}', 2), (3, 'three', 3), (4, '{}', 4)",
            long('x', 3000),
            long('y', 2500)
        ),
        "INSERT INTO b VALUES (1, 'plain', 1)".to_string(),
        "BEGIN".to_string(),
        format!("INSERT INTO a VALUES (5, 'five', 5), (6, '{}', 6)", long('z', 3500)),
        format!("UPDATE a SET body = '{}' WHERE id = 5", long('w', 3000)),
        "UPDATE a SET body = 'small', n = n + 1 WHERE id = 2".to_string(),
        "DELETE FROM a WHERE id = 6 OR id = 1".to_string(),
        "INSERT INTO a VALUES (7, 'seven', 7)".to_string(),
        "INSERT INTO a VALUES (8, 'eight', 8), (9, 'short')".to_string(),
        "COMMIT".to_string(),
        "BEGIN; DELETE FROM a; INSERT INTO a VALUES (10, 'ten', 0); ROLLBACK;".to_string(),
        "BEGIN; UPDATE a SET n = 0; INSERT INTO missing VALUES (1); COMMIT;".to_string(),
        "DROP TABLE a".to_string(),
        "CREATE TABLE a (id INT, body TEXT, n INT) PERSIST".to_string(),
        format!("INSERT INTO a VALUES (11, '{}', 1), (12, 'twelve', 2)", long('v', 3000)),
        "BEGIN".to_string(),
        "DELETE FROM a WHERE id = 11".to_string(),
        "DROP TABLE a".to_string(),
        "CREATE TABLE a (id INT, body TEXT, n INT) PERSIST".to_string(),
        "INSERT INTO a VALUES (13, 'thirteen', 3)".to_string(),
        "CREATE TABLE c (id INT, body TEXT, n INT) PERSIST".to_string(),
        format!(
            "INSERT INTO c VALUES (1, '{}', 1), (2, '{}', 2), (3, 'c3', 3)",
            long('c', 3900),
            long('d', 3900)
        ),
        "COMMIT".to_string(),
        "DELETE FROM c WHERE id = 2".to_string(),
        format!("UPDATE c SET body = '{}' WHERE id = 3", long('e', 3000)),
        "DROP TABLE b".to_string(),
        "CREATE TABLE b (id INT, body TEXT, n INT) PERSIST".to_string(),
        "INSERT INTO b VALUES (1, 'now durable', 1)".to_string(),
        // A delete, then an update before it that splits the page: the
        // records the split moves are the ones still live.
        "CREATE TABLE d (id INT, body TEXT, n INT) PERSIST".to_string(),
        "INSERT INTO d VALUES (1, 'd1', 1), (2, 'd2', 2), (3, 'd3', 3), (4, 'd4', 4)".to_string(),
        format!(
            "BEGIN; DELETE FROM d WHERE id = 3; UPDATE d SET body = '{}' WHERE id = 1; \
             UPDATE d SET n = 20 WHERE id = 4; COMMIT;",
            long('f', 4000)
        ),
    ]
    .to_vec()
}

/// FNV-1a of `data.db` followed by `data.wal` after [`fixed_script`]:
/// any change to which store operations a statement issues, or their
/// order, moves it.
const FIXED_SCRIPT_DIGEST: u64 = 0x3f74_8619_a7e2_4934;

#[test]
fn a_fixed_script_leaves_pinned_store_bytes() {
    let vfs = drive(&fixed_script(), "fixed script");
    let disk = llmdm_rt::lock_recover(&vfs);
    let bytes = [disk.bytes("data.db"), disk.bytes("data.wal")].concat();
    let digest = llmdm_rt::hash::fnv1a(&bytes);
    assert_eq!(digest, FIXED_SCRIPT_DIGEST, "store bytes moved: {digest:#018x}");
}
