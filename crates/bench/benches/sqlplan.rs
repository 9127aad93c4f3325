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
//! A transaction logs only the rows it changes for ROLLBACK, so a
//! one-row `BEGIN; INSERT; COMMIT` costs the same on a 10 000-row table
//! as on a 100-row one: the ratio of their interleaved medians is gated
//! at ≤ 1.5× (a transaction that copied the table it wrote to paid for
//! every row of it).
//!
//! `scripts/verify.sh` runs this with `LLMDM_BENCH_FAST=1`; results land
//! in `BENCH_sqlplan.json`.

use llmdm_rt::bench::{
    Bound::{AtLeast, AtMost},
    Criterion,
};
use llmdm_sqlengine::exec::{execute_select, execute_select_direct};
use llmdm_sqlengine::{parse_statement, Database, SelectStmt, Statement, Value};

const EVENT_ROWS: i64 = 8000;
const VENUES: i64 = 25;
/// What binding must save against the by-name reference on a scan.
const MIN_SCAN_SPEEDUP: f64 = 2.0;
/// What the top-k rewrite must save against a full sort.
const MIN_TOPK_SPEEDUP: f64 = 1.2;
/// Rows of the two tables a one-row transaction is timed on.
const TXN_SMALL: usize = 100;
const TXN_LARGE: usize = 10_000;
/// How much longer the transaction may take on the large table.
const MAX_TXN_SIZE_RATIO: f64 = 1.5;

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
}

// The fixture is a hash scatter: no seed to stamp.
llmdm_rt::bench_main!("sqlplan", None, run);
