//! Query-planner wins, pinned.
//!
//! DESIGN.md §11 claims the Volcano planner beats the direct executor on
//! three workload shapes, for concrete mechanical reasons:
//!
//! * **filtered scan** and **point lookup** — the planner binds each
//!   column to its position once per operator and evaluates the fused
//!   scan predicates against the *borrowed* stored row, while the direct
//!   path (the by-name reference) clones the entire table and resolves
//!   every column by name on every row;
//! * **top-k** — `LIMIT k` pushes a `fetch` into the sort, so the
//!   planner keeps a k-row sorted prefix instead of sorting everything.
//!
//! Before any timing, every benched query is asserted **bit-identical**
//! across the two paths ([`llmdm_sqlengine::ResultSet::bit_eq`]). After
//! timing, the speedups (direct median ns / planner median ns) are gated:
//! filtered scan and point lookup at ≥ 2×, top-k at ≥ 1.2×.
//! `join_group` and `group_scan` are reported ungated — both paths share
//! the aggregation code, so their ratio is what binding and borrowed rows
//! save on a join and on a grouped scan.
//!
//! A row finds its `GROUP BY` group by a hash of the key, so grouping
//! the 8 000 events into 2 000 groups costs about what 16 groups cost:
//! the ratio of their interleaved medians is gated at ≤ 3× (a search
//! through every group seen so far paid ~1 000 key comparisons a row).
//!
//! A transaction logs only the rows it changes for ROLLBACK, so a
//! one-row `BEGIN; INSERT; COMMIT` costs the same on a 10 000-row table
//! as on a 100-row one: the ratio of their interleaved medians is gated
//! at ≤ 1.5× (a transaction that copied the table it wrote to paid for
//! every row of it). Its durable twin runs the same transaction through
//! a `PersistentDb` over `MemVfs`, where the catalog's undo log is also
//! what the commit writes to the store: gated at ≤ 1.06× (a wrapper that
//! copied each written table's record ids paid 8 B per stored row).
//!
//! Point `SELECT`, `UPDATE` and `DELETE` by `id` through a
//! `PersistentDb` at 1k, 10k and 100k rows are reported ungated: a
//! keyed statement is a linear scan, and this sweep is what an access
//! path for it would have to beat.
//!
//! `scripts/verify.sh` runs this with `LLMDM_BENCH_FAST=1`; results land
//! in `BENCH_sqlplan.json`.

use llmdm_rt::bench::{
    Bound::{AtLeast, AtMost},
    Criterion,
};
use llmdm_sqlengine::exec::{execute_select, execute_select_direct};
use llmdm_sqlengine::{parse_statement, Database, PersistentDb, SelectStmt, Statement, Value};
use llmdm_store::{MemVfs, StoreConfig};
use std::time::Duration;

const EVENT_ROWS: i64 = 8000;
const VENUES: i64 = 25;
/// What binding must save against the by-name reference on a scan.
const MIN_SCAN_SPEEDUP: f64 = 2.0;
/// What the top-k rewrite must save against a full sort.
const MIN_TOPK_SPEEDUP: f64 = 1.2;
/// Group counts of the grouping gate: `event_id % keys` over the events.
const FEW_KEYS: i64 = 16;
const MANY_KEYS: i64 = 2_000;
/// How much longer grouping into `MANY_KEYS` groups may take: the extra
/// groups' own output and state, and no per-row search.
const MAX_GROUP_KEYS_RATIO: f64 = 3.0;
/// Rows of the two tables a one-row transaction is timed on.
const TXN_SMALL: usize = 100;
const TXN_LARGE: usize = 10_000;
/// How much longer the transaction may take on the large table.
const MAX_TXN_SIZE_RATIO: f64 = 1.5;
/// The same through a `PersistentDb`: the store work is the same at
/// both sizes, so only a per-row cost can move the ratio.
const MAX_PERSIST_TXN_SIZE_RATIO: f64 = 1.06;
/// Durable commits timed per size. Every commit adds a row to both
/// tables, so the run stays short enough to keep the small one far
/// below the large one (about 3 000 rows against 13 000).
const PERSIST_TXN_SAMPLES: usize = 3_000;
/// Table sizes of the keyed-statement sweep.
const KEYED_ROWS: [usize; 3] = [1_000, 10_000, 100_000];
/// Samples per keyed case: a point `DELETE` removes a row each time, so
/// this stays well below the smallest table.
const KEYED_SAMPLES: usize = 300;

/// A deterministic two-table fixture big enough that per-row costs
/// dominate: `events` (8000 rows, ~3% selective filters) plus a small
/// `venues` dimension table.
fn fixture() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE venues (venue_id INT, vname TEXT, capacity INT); \
         CREATE TABLE events (event_id INT, venue_id INT, year INT, attendance INT, score FLOAT)",
    )
    .expect("ddl");
    for v in 0..VENUES {
        db.table_mut("venues")
            .unwrap()
            .push_row(vec![
                Value::Int(v),
                Value::Str(format!("venue-{v}")),
                Value::Int(10_000 + (v * 3127) % 50_000),
            ])
            .expect("venue row");
    }
    for i in 0..EVENT_ROWS {
        // Cheap deterministic hash scatter; no RNG needed.
        let h = i.wrapping_mul(2654435761) % 100_000;
        db.table_mut("events")
            .unwrap()
            .push_row(vec![
                Value::Int(i),
                Value::Int(i % VENUES),
                Value::Int(2000 + (h % 25)),
                Value::Int(h % 90_000),
                Value::Float((h % 1000) as f64 / 10.0),
            ])
            .expect("event row");
    }
    db
}

/// A `t (id INT, name TEXT, score FLOAT)` table of `rows` rows.
fn txn_fixture(rows: usize) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (id INT, name TEXT, score FLOAT)").expect("ddl");
    let t = db.table_mut("t").expect("created above");
    for i in 0..rows as i64 {
        let row = vec![Value::Int(i), Value::Str(format!("row-{i}")), Value::Float(i as f64 / 8.0)];
        t.push_row(row).expect("txn row");
    }
    db
}

/// Commit one inserted row, then truncate the table back to `rows`
/// (outside the transaction, so both sizes pay the same for that).
fn one_row_txn(db: &mut Database, rows: usize) {
    let rs = db
        .execute_script("BEGIN; INSERT INTO t VALUES (-1, 'new', 0.5); COMMIT")
        .expect("commits");
    std::hint::black_box(rs);
    db.table_mut("t").expect("exists").rows.truncate(rows);
}

/// A `PersistentDb` over a fresh `MemVfs` holding the [`txn_fixture`]
/// table, `PERSIST`, loaded 1 000 rows per statement.
fn persist_fixture(rows: usize) -> PersistentDb {
    let mut db = PersistentDb::open(MemVfs::shared(), StoreConfig::default()).expect("opens");
    db.execute("CREATE TABLE t (id INT, name TEXT, score FLOAT) PERSIST").expect("ddl");
    for start in (0..rows).step_by(1_000) {
        let values: Vec<String> = (start..rows.min(start + 1_000))
            .map(|i| format!("({i}, 'row-{i}', {})", i as f64 / 8.0))
            .collect();
        db.execute(&format!("INSERT INTO t VALUES {}", values.join(", "))).expect("rows");
    }
    db
}

/// Commit one inserted row through the store.
fn persist_one_row_txn(db: &mut PersistentDb) {
    let rs = db
        .execute_script("BEGIN; INSERT INTO t VALUES (-1, 'new', 0.5); COMMIT")
        .expect("commits");
    std::hint::black_box(rs);
}

fn select_stmt(sql: &str) -> SelectStmt {
    match parse_statement(sql).expect("parses") {
        Statement::Select(s) => s,
        _ => unreachable!("bench queries are SELECTs"),
    }
}

fn run(c: &mut Criterion) {
    llmdm_obs::disable();
    let db = fixture();

    let cases: Vec<(&str, SelectStmt)> = vec![
        (
            // ~3% of 8000 rows survive: the fused-scan clone savings case.
            "filtered_scan",
            select_stmt(
                "SELECT event_id, attendance FROM events \
                 WHERE year = 2014 AND attendance > 20000",
            ),
        ),
        (
            // One row of 8000: nearly all the work is the predicate.
            "point_lookup",
            select_stmt("SELECT event_id, venue_id, score FROM events WHERE event_id = 4321"),
        ),
        (
            "join_group",
            select_stmt(
                "SELECT v.vname, COUNT(*), MAX(e.attendance) FROM venues v \
                 JOIN events e ON v.venue_id = e.venue_id \
                 WHERE e.year >= 2020 GROUP BY v.vname",
            ),
        ),
        (
            // Most rows survive and fold into 25 groups.
            "group_scan",
            select_stmt(
                "SELECT year, COUNT(*), AVG(score), SUM(attendance) FROM events \
                 WHERE attendance > 9000 GROUP BY year",
            ),
        ),
        (
            // Full 8000-row sort vs a 10-row top-k prefix.
            "topk",
            select_stmt(
                "SELECT event_id, score FROM events ORDER BY score DESC, event_id LIMIT 10",
            ),
        ),
    ];

    // ---- Correctness gate: planner ≡ direct, bit for bit. -----------
    for (name, stmt) in &cases {
        let planned = execute_select(&db, stmt).expect("planner executes");
        let direct = execute_select_direct(&db, stmt).expect("direct executes");
        assert!(
            planned.bit_eq(&direct),
            "{name}: planner and direct paths disagree\n planner: {planned:?}\n direct:  {direct:?}"
        );
        assert!(!planned.rows.is_empty(), "{name}: degenerate empty result");
    }

    // ---- Timing: each case on both paths. ---------------------------
    let mut group = c.benchmark_group("sqlplan");
    for (name, stmt) in &cases {
        group.bench_function(format!("{name}/direct"), |b| {
            b.iter(|| execute_select_direct(&db, stmt).expect("executes"))
        });
        group.bench_function(format!("{name}/plan"), |b| {
            b.iter(|| execute_select(&db, stmt).expect("executes"))
        });
    }
    group.finish();

    // ---- The speedup gates. -----------------------------------------
    let speedup = |c: &Criterion, name: &str| {
        let direct = c.stat(&format!("sqlplan/{name}/direct")).median_ns as f64;
        direct / c.stat(&format!("sqlplan/{name}/plan")).median_ns as f64
    };
    for name in ["join_group", "group_scan"] {
        println!("sqlplan {name} direct/plan (median): {:.2}x, ungated", speedup(c, name));
    }
    for (name, bound) in [
        ("filtered_scan", MIN_SCAN_SPEEDUP),
        ("point_lookup", MIN_SCAN_SPEEDUP),
        ("topk", MIN_TOPK_SPEEDUP),
    ] {
        let x = speedup(c, name);
        c.gate(format!("sqlplan {name} direct/plan (median)"), x, AtLeast(bound));
    }

    // ---- A row's group is found by hash, not by search. -------------
    let grouped = |keys: i64| {
        select_stmt(&format!(
            "SELECT event_id % {keys}, COUNT(*), SUM(attendance) FROM events \
             GROUP BY event_id % {keys}"
        ))
    };
    let (few, many) = (grouped(FEW_KEYS), grouped(MANY_KEYS));
    let groups = |stmt: &SelectStmt| execute_select(&db, stmt).expect("groups").rows.len();
    assert_eq!((groups(&few), groups(&many)), (FEW_KEYS as usize, MANY_KEYS as usize));
    c.benchmark_group("sqlplan_group").bench_interleaved(&mut [
        ("keys_16", &mut || drop(std::hint::black_box(execute_select(&db, &few)))),
        ("keys_2000", &mut || drop(std::hint::black_box(execute_select(&db, &many)))),
    ]);
    let ratio = c.stat("sqlplan_group/keys_2000").median_ns as f64
        / c.stat("sqlplan_group/keys_16").median_ns as f64;
    c.gate("sqlplan group 2000 keys / 16 keys (median)", ratio, AtMost(MAX_GROUP_KEYS_RATIO));

    // ---- A one-row transaction's cost is flat in the table size. ----
    let (mut small, mut large) = (txn_fixture(TXN_SMALL), txn_fixture(TXN_LARGE));
    c.benchmark_group("sqlplan_txn").bench_interleaved(&mut [
        ("insert_commit_100", &mut || one_row_txn(&mut small, TXN_SMALL)),
        ("insert_commit_10k", &mut || one_row_txn(&mut large, TXN_LARGE)),
    ]);
    assert_eq!(large.table("t").expect("exists").rows.len(), TXN_LARGE);
    let ratio = c.stat("sqlplan_txn/insert_commit_10k").median_ns as f64
        / c.stat("sqlplan_txn/insert_commit_100").median_ns as f64;
    c.gate("sqlplan txn 10k rows / 100 rows (median)", ratio, AtMost(MAX_TXN_SIZE_RATIO));

    // ---- The same through the store. --------------------------------
    let saved = (c.warmup, c.max_samples);
    (c.warmup, c.max_samples) = (Duration::from_millis(20), PERSIST_TXN_SAMPLES);
    let (mut small, mut large) = (persist_fixture(TXN_SMALL), persist_fixture(TXN_LARGE));
    c.benchmark_group("sqlplan_txn").bench_interleaved(&mut [
        ("persist_insert_commit_100", &mut || persist_one_row_txn(&mut small)),
        ("persist_insert_commit_10k", &mut || persist_one_row_txn(&mut large)),
    ]);
    let rows = |db: &PersistentDb| db.database().table("t").expect("exists").rows.len();
    assert!(rows(&small) * 3 < rows(&large), "{} rows against {}", rows(&small), rows(&large));
    let ratio = c.stat("sqlplan_txn/persist_insert_commit_10k").median_ns as f64
        / c.stat("sqlplan_txn/persist_insert_commit_100").median_ns as f64;
    c.gate(
        "sqlplan txn persist 10k rows / 100 rows (median)",
        ratio,
        AtMost(MAX_PERSIST_TXN_SIZE_RATIO),
    );

    // ---- Keyed statements against table size, ungated. --------------
    // No warm-up: each DELETE removes a row, so the calls must be counted.
    (c.warmup, c.max_samples) = (Duration::ZERO, KEYED_SAMPLES);
    let mut group = c.benchmark_group("sqlplan_keyed");
    for rows in KEYED_ROWS {
        let mut db = persist_fixture(rows);
        let mut k = 0;
        let mut next_key = move || {
            k = (k + 7_919) % rows;
            k
        };
        group.bench_function(format!("point_select_{rows}"), |b| {
            b.iter(|| {
                let sql = format!("SELECT * FROM t WHERE id = {}", next_key());
                db.query(&sql).expect("reads")
            })
        });
        group.bench_function(format!("point_update_{rows}"), |b| {
            b.iter(|| {
                let sql = format!("UPDATE t SET score = score + 1.0 WHERE id = {}", next_key());
                db.execute(&sql).expect("updates")
            })
        });
        // Each one deletes a row that is still there: keys from the top down.
        let mut last = rows;
        group.bench_function(format!("point_delete_{rows}"), |b| {
            b.iter(|| {
                last -= 1;
                let rs = db.execute(&format!("DELETE FROM t WHERE id = {last}")).expect("deletes");
                assert_eq!(rs.affected, 1);
            })
        });
    }
    group.finish();
    (c.warmup, c.max_samples) = saved;
    for op in ["select", "update", "delete"] {
        let us: Vec<String> = KEYED_ROWS
            .iter()
            .map(|n| {
                let ns = c.stat(&format!("sqlplan_keyed/point_{op}_{n}")).median_ns;
                format!("{:.1}", ns as f64 / 1e3)
            })
            .collect();
        let us = us.join(" / ");
        println!("sqlplan keyed point_{op} µs at 1k/10k/100k rows (median): {us}, ungated");
    }
}

// The fixture is a hash scatter: no seed to stamp.
llmdm_rt::bench_main!("sqlplan", None, run);
