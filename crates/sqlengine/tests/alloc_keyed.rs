//! Guard: once a column is indexed, a keyed statement allocates the same
//! at 100 000 rows as at 1 000.
//!
//! A statement whose leftmost test is `col = literal` reads the rows the
//! column's equality index names; the index lives in flat arrays that DML
//! edits in place (`UPDATE` re-files a changed key, `DELETE` closes the
//! gaps it leaves). So the warm path's allocations are those of its
//! output and its undo log, never one per stored row or per key. The
//! first, index-building statement is `alloc_per_row.rs`'s case.
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

const SMALL: usize = 1_000;
const LARGE: usize = 100_000;

/// `items` at `rows` rows, sixteen categories, with the `id` and
/// `category` indexes built.
fn fixture(rows: usize) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE items (id INT, category TEXT, price FLOAT)").unwrap();
    let t = db.table_mut("items").unwrap();
    for i in 0..rows {
        let row = vec![
            Value::Int(i as i64),
            Value::Str(format!("cat{:02}", i % 16)),
            Value::Float((i * 7919 % 50_000) as f64 / 100.0),
        ];
        t.push_row(row).unwrap();
    }
    db.query("SELECT id FROM items WHERE id = 0").unwrap();
    db.query("SELECT id FROM items WHERE category = 'cat00'").unwrap();
    db
}

/// Keyed statements on rows present at both sizes; each run's ids are
/// its own, so a `DELETE` always finds its row.
fn statements(run: usize) -> Vec<String> {
    let id = |k: usize| 100 + 16 * (10 * run + k);
    vec![
        format!("SELECT id, price FROM items WHERE id = {}", id(0)),
        "SELECT id, price FROM items WHERE category = 'cat05' AND price < 400.0 \
         ORDER BY price DESC, id LIMIT 10"
            .into(),
        format!("UPDATE items SET price = 1.5 WHERE id = {}", id(1)),
        format!("UPDATE items SET id = {} WHERE id = {}", 1_000_000 + id(2), id(2)),
        format!("UPDATE items SET category = 'cat07' WHERE id = {}", id(3)),
        format!("DELETE FROM items WHERE id = {}", id(4)),
        format!("DELETE FROM items WHERE category = 'cat04' AND id = {}", id(5)),
        format!(
            "BEGIN; UPDATE items SET price = 2.5 WHERE id = {}; DELETE FROM items WHERE id = {}; \
             COMMIT",
            id(6),
            id(7)
        ),
    ]
}

/// Per statement, the fewest allocations of three runs on one database,
/// and the rows each run output or changed.
fn measure(rows: usize) -> Vec<(u64, usize)> {
    let mut db = fixture(rows);
    let mut best = vec![(u64::MAX, 0); statements(0).len()];
    for run in 0..3 {
        for (sql, best) in statements(run).iter().zip(&mut best) {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            let rs = db.execute_script(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
            *best = (best.0.min(allocs), rs.rows.len() + rs.affected);
        }
    }
    best
}

#[test]
fn a_warm_keyed_statement_allocates_the_same_at_any_table_size() {
    let (small, large) = (measure(SMALL), measure(LARGE));
    let mut failures = Vec::new();
    for ((sql, (s, s_rows)), (l, l_rows)) in statements(0).iter().zip(small).zip(large) {
        println!("{s:>4} allocations at {SMALL} rows, {l:>4} at {LARGE}: {sql}");
        assert_eq!(s_rows, l_rows, "{sql}: the fixture gives both sizes the same output");
        if l > s {
            failures.push(format!("{sql}: {s} -> {l}"));
        }
    }
    assert!(failures.is_empty(), "allocations grow with the table:\n{}", failures.join("\n"));
}
