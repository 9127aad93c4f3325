//! Query-planner walkthrough (DESIGN.md §11): the sqlengine now lowers
//! every `SELECT` into a logical plan, runs rule-based rewrites
//! (constant folding, predicate pushdown, LIMIT → top-k, semantic cost
//! estimates), and executes it through Volcano-style pull iterators. The
//! pre-planner direct executor is kept alive as a differential oracle.
//!
//! This example:
//! 1. shows `EXPLAIN` output — the logical plan after rewrites plus the
//!    physical operator tree — for a few representative queries;
//! 2. cross-checks the planner against the direct oracle bit-for-bit on
//!    a small workload (the same discipline `tests/differential.rs`
//!    applies at scale).
//!
//! Run with `cargo run -p llmdm --example query_planner`.

use llmdm::sql::exec::{execute_select, execute_select_direct};
use llmdm::sql::{parse_statement, Database, Statement, Value};

fn demo_db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE stadium (stadium_id INT, name TEXT, capacity INT, city TEXT); \
         CREATE TABLE concert (concert_id INT, stadium_id INT, year INT, attendance INT); \
         INSERT INTO stadium VALUES \
           (1, 'Balmoor', 4000, 'Peterhead'), \
           (2, 'Glebe Park', 4000, 'Brechin'), \
           (3, 'Hampden Park', 52500, 'Glasgow'), \
           (4, 'Recreation Park', 3960, 'Alloa'); \
         INSERT INTO concert VALUES \
           (1, 3, 2014, 41000), \
           (2, 3, 2015, 50200), \
           (3, 1, 2014, 2800), \
           (4, 2, 2016, NULL), \
           (5, 4, 2015, 1200)",
    )
    .expect("fixture loads");
    db
}

fn explain(db: &mut Database, sql: &str) {
    println!("EXPLAIN {sql}");
    let rs = db.execute(&format!("EXPLAIN {sql}")).expect("EXPLAIN succeeds");
    for row in &rs.rows {
        match &row[0] {
            Value::Str(line) => println!("  {line}"),
            other => println!("  {other}"),
        }
    }
    println!();
}

fn main() {
    let mut db = demo_db();

    // 1. EXPLAIN: what the rewriter did is visible in the logical plan
    //    (the tautology folded away, predicates fused into the scan, the
    //    LIMIT pushed into the sort as a top-k fetch).
    explain(
        &mut db,
        "SELECT name, capacity FROM stadium WHERE capacity > 2000 + 2000 AND 1 = 1",
    );
    explain(
        &mut db,
        "SELECT s.name, c.year FROM stadium s JOIN concert c ON s.stadium_id = c.stadium_id \
         WHERE s.capacity > 4000 AND c.year >= 2015",
    );
    explain(&mut db, "SELECT name FROM stadium ORDER BY capacity DESC LIMIT 2");

    // 2. Differential check: planner ≡ direct oracle, bit for bit.
    let workload = [
        "SELECT name, capacity FROM stadium WHERE capacity > 2000 + 2000 AND 1 = 1",
        "SELECT s.name, c.year FROM stadium s JOIN concert c ON s.stadium_id = c.stadium_id \
         WHERE s.capacity > 4000 AND c.year >= 2015",
        "SELECT name FROM stadium ORDER BY capacity DESC LIMIT 2",
        "SELECT s.city, COUNT(*), MAX(c.attendance) FROM stadium s \
         LEFT JOIN concert c ON s.stadium_id = c.stadium_id \
         GROUP BY s.city ORDER BY COUNT(*) DESC, s.city",
        "SELECT DISTINCT year FROM concert WHERE attendance IS NOT NULL ORDER BY year",
        "SELECT name FROM stadium WHERE stadium_id IN \
         (SELECT stadium_id FROM concert WHERE year = 2014)",
    ];
    let mut checked = 0usize;
    for sql in workload {
        let Statement::Select(stmt) = parse_statement(sql).expect("parses") else {
            unreachable!("workload is SELECT-only")
        };
        let planned = execute_select(&db, &stmt).expect("planner path executes");
        let direct = execute_select_direct(&db, &stmt).expect("direct oracle executes");
        assert!(
            planned.bit_eq(&direct),
            "planner/direct divergence on: {sql}\n planner: {planned:?}\n direct:  {direct:?}"
        );
        checked += 1;
        println!("agree ({} rows): {sql}", planned.rows.len());
    }
    assert_eq!(checked, workload.len());
    println!("\nplanner matched the direct oracle on all {checked} queries");
}
