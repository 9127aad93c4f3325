//! Query-planner wins, pinned.
//!
//! DESIGN.md §11 claims the Volcano planner beats the direct executor on
//! two workload shapes, for concrete mechanical reasons:
//!
//! * **filtered scan** — fused scan predicates evaluate against the
//!   *borrowed* stored row and only clone matches, while the direct path
//!   clones the entire table before filtering;
//! * **top-k** — `LIMIT k` pushes a `fetch` into the sort, so the
//!   planner keeps a k-row sorted prefix instead of sorting everything.
//!
//! Before any timing, every benched query is asserted **bit-identical**
//! across the two paths ([`llmdm_sqlengine::ResultSet::bit_eq`]). After
//! timing, the filtered-scan and top-k speedups (direct median ns /
//! planner median ns) are each gated at ≥ 1.2×. `join_group` is reported
//! ungated — both paths share the same join and aggregation code, so
//! parity is the expectation.
//!
//! `scripts/verify.sh` runs this with `LLMDM_BENCH_FAST=1`; results land
//! in `BENCH_sqlplan.json`.

use llmdm_rt::bench::{Bound::AtLeast, Criterion};
use llmdm_sqlengine::exec::{execute_select, execute_select_direct};
use llmdm_sqlengine::{parse_statement, Database, SelectStmt, Statement, Value};

const EVENT_ROWS: i64 = 8000;
const VENUES: i64 = 25;
/// The planner must beat direct execution by this much where it is gated.
const MIN_SPEEDUP: f64 = 1.2;

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
            "join_group",
            select_stmt(
                "SELECT v.vname, COUNT(*), MAX(e.attendance) FROM venues v \
                 JOIN events e ON v.venue_id = e.venue_id \
                 WHERE e.year >= 2020 GROUP BY v.vname",
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
    println!("sqlplan join_group direct/plan (median): {:.2}x, ungated", speedup(c, "join_group"));
    for name in ["filtered_scan", "topk"] {
        let x = speedup(c, name);
        c.gate(format!("sqlplan {name} direct/plan (median)"), x, AtLeast(MIN_SPEEDUP));
    }
}

// The fixture is a hash scatter: no seed to stamp.
llmdm_rt::bench_main!("sqlplan", None, run);
