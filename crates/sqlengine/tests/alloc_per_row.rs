//! Guard: a statement allocates per row it outputs or changes, not per row
//! it scans.
//!
//! The planner binds every column once per operator and evaluates against
//! the stored rows in place, so a row a predicate rejects, an aggregate
//! folds or a top-k drops costs no heap allocation. This binary counts
//! allocations with its own global allocator and runs the `perf`
//! `rel_read` statement shapes (plus a LIKE scan, point DML and a point
//! transaction that commits or rolls back) over the same data at two
//! table sizes: the count may grow by at most one per
//! extra output or changed row, plus a small constant (`Vec` doubling in
//! the few buffers that hold one entry per input row). Before binding,
//! every scanned row paid at least one allocation (a lowercased column
//! name, and on the SELECT paths an evaluation scope list), so 900 extra
//! rows cost hundreds to tens of thousands. A transaction logs the rows
//! it changes for ROLLBACK; one that copied each table it wrote to paid
//! about five allocations per stored row.
//!
//! One `#[test]`, so no other test thread allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use llmdm_sqlengine::{Database, Value};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards every call to the system allocator unchanged; the
// counter is the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SMALL: usize = 300;
const LARGE: usize = 1200;
/// Allowance for buffers that hold one entry per input row and grow by
/// doubling (log₂ of the size ratio, a few of them), and for nothing else.
const SLACK: i64 = 24;

/// `perf`'s `rel_read` schema at `items` rows: `orders` a third of that,
/// eight regions. Every category, zone and price band is present at both
/// sizes, so each statement's output is the same size at both.
fn fixture(items: usize) -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE items (id INT, category TEXT, brand TEXT, price FLOAT, stock INT, \
         name TEXT, descr TEXT); \
         CREATE TABLE orders (oid INT, item_id INT, qty INT, region TEXT); \
         CREATE TABLE regions (region TEXT, zone TEXT)",
    )
    .unwrap();
    let descr = "battery strap screen handle arrived late works stopped after weeks ".repeat(3);
    let push = |db: &mut Database, table: &str, row: Vec<Value>| {
        db.table_mut(table).unwrap().push_row(row).unwrap();
    };
    for i in 0..items {
        push(
            &mut db,
            "items",
            vec![
                Value::Int(i as i64),
                Value::Str(format!("cat{:02}", i % 16)),
                Value::Str(format!("brand{:02}", i * 7 % 32)),
                Value::Float((i * 7919 % 50_000) as f64 / 100.0),
                Value::Int((i * 31 % 1000) as i64),
                Value::Str(format!("item-{i}")),
                Value::Str(descr.clone()),
            ],
        );
    }
    for oid in 0..items / 3 {
        push(
            &mut db,
            "orders",
            vec![
                Value::Int(oid as i64),
                Value::Int((oid * 13 % items) as i64),
                Value::Int((oid % 10 + 1) as i64),
                Value::Str(format!("r{}", oid % 8)),
            ],
        );
    }
    for r in 0..8 {
        push(
            &mut db,
            "regions",
            vec![
                Value::Str(format!("r{r}")),
                Value::Str(format!("zone{}", r % 3)),
            ],
        );
    }
    db
}

/// Allocations one run of the script `sql` makes on a fresh fixture, and
/// the rows its last statement output or changed (the fewest allocations
/// of three runs).
fn measure(items: usize, sql: &str) -> (i64, i64) {
    (0..3)
        .map(|_| {
            let mut db = fixture(items);
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let rs = db.execute_script(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
            (allocs as i64, (rs.rows.len() + rs.affected) as i64)
        })
        .min()
        .unwrap()
}

/// One row of each DML kind changed inside a transaction.
const POINT_TXN_COMMIT: &str = "BEGIN; \
    INSERT INTO items VALUES (5000, 'cat03', 'brand07', 9.5, 3, 'item-5000', 'new'); \
    UPDATE items SET price = 1.5, stock = 7 WHERE id = 123; \
    DELETE FROM items WHERE id = 124; COMMIT";
const POINT_TXN_ROLLBACK: &str = "BEGIN; \
    INSERT INTO items VALUES (5000, 'cat03', 'brand07', 9.5, 3, 'item-5000', 'new'); \
    UPDATE items SET price = 1.5, stock = 7 WHERE id = 123; \
    DELETE FROM items WHERE id = 124; ROLLBACK";

#[test]
fn allocations_grow_with_output_rows_not_scanned_rows() {
    let statements = [
        "SELECT id, name, price, stock FROM items WHERE id = 123",
        "SELECT id, name, price FROM items WHERE category = 'cat05' AND price < 400.0 \
         ORDER BY price DESC, id LIMIT 10",
        "SELECT category, COUNT(*), AVG(price), SUM(stock) FROM items WHERE stock > 100 \
         GROUP BY category ORDER BY category",
        "SELECT g.zone, COUNT(*), SUM(o.qty) FROM orders o JOIN regions g \
         ON o.region = g.region WHERE o.qty >= 3 GROUP BY g.zone ORDER BY g.zone",
        "SELECT id, name FROM items WHERE name LIKE 'item-1_' AND descr LIKE '%stopped%weeks%'",
        "UPDATE items SET price = 1.5, stock = 7 WHERE id = 123",
        "DELETE FROM items WHERE id = 124",
        POINT_TXN_COMMIT,
        POINT_TXN_ROLLBACK,
    ];
    let mut failures = Vec::new();
    for sql in statements {
        let (small, small_rows) = measure(SMALL, sql);
        let (large, large_rows) = measure(LARGE, sql);
        let growth = large - small;
        let allowed = (large_rows - small_rows).max(0) + SLACK;
        println!(
            "{growth:>6} more allocations at {LARGE} rows than at {SMALL} \
             ({small} -> {large}; rows out {small_rows} -> {large_rows}): {sql}"
        );
        if growth > allowed {
            failures.push(format!("{sql}: {growth} > {allowed}"));
        }
    }
    assert!(
        failures.is_empty(),
        "allocations grow with scanned rows:\n{}",
        failures.join("\n")
    );
}
