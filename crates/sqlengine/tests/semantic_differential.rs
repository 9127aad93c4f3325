//! Differential gate for semantic operators: every `LLM_MAP` /
//! `LLM_FILTER` / `LLM_JOIN … ON LLM_MATCH` query runs on both the
//! Volcano planner (with per-operator prompt dedup and a semantic cache
//! in front of the model) and the pre-planner direct executor (which
//! calls the model once per row, no dedup), and the results must be
//! **bit-identical** under the same seeded [`ModelHandle::sim`].
//!
//! This only holds because the simulated model keys every completion on
//! `(seed, prompt)` alone — call order, call count, caching, and retries
//! can never change an answer. The same property makes semantic query
//! results byte-reproducible across a PERSIST-table restart, which the
//! last test pins.

use llmdm_sqlengine::exec::{execute_select, execute_select_direct};
use llmdm_sqlengine::{parse_statement, Database, ModelHandle, PersistentDb, Statement};
use llmdm_store::{MemVfs, StoreConfig};

mod common;

const SEED: u64 = 0xC0FFEE;

fn fixture() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE products (id INT, name TEXT, blurb TEXT, price INT); \
         CREATE TABLE reviews (rid INT, product TEXT, body TEXT); \
         CREATE TABLE vacant (id INT, name TEXT); \
         INSERT INTO products VALUES \
           (1, 'Eagle Arena', 'great venue, love it', 50), \
           (2, 'River Dome', 'terrible and ugly', 30), \
           (3, 'SUN BOWL', 'fine i guess', 45), \
           (4, 'sun bowl', NULL, 20), \
           (5, 'Metro Field', 'great great great', 20); \
         INSERT INTO reviews VALUES \
           (10, 'eagle arena ', 'love the sightlines'), \
           (11, 'Sun Bowl', 'awful parking'), \
           (12, 'nowhere', 'n/a')",
    )
    .unwrap();
    db.set_model(ModelHandle::sim(SEED));
    db
}

fn check(db: &mut Database, sql: &str) {
    let stmt = parse_statement(sql).unwrap_or_else(|e| panic!("parse failed for {sql}: {e}"));
    let Statement::Select(s) = stmt else { panic!("not a SELECT: {sql}") };
    let planned = execute_select(db, &s);
    let direct = execute_select_direct(db, &s);
    match (planned, direct) {
        (Ok(p), Ok(d)) => assert!(
            p.bit_eq(&d),
            "planner/direct divergence on {sql}\n planner: {p:?}\n direct:  {d:?}"
        ),
        (Err(_), Err(_)) => {}
        (p, d) => panic!("one path errored on {sql}\n planner: {p:?}\n direct:  {d:?}"),
    }
    common::check_explain_matches_analyze(db, sql);
}

fn check_all(queries: &[&str]) {
    let mut db = fixture();
    for sql in queries {
        check(&mut db, sql);
    }
}

#[test]
fn llm_map_projections_match_direct() {
    check_all(&[
        "SELECT LLM_MAP(name, 'upper') FROM products",
        "SELECT id, LLM_MAP(blurb, 'sentiment') FROM products",
        "SELECT LLM_MAP(name, 'categorize') AS cat, price FROM products ORDER BY price, cat",
        "SELECT LLM_MAP(name, 'length') FROM products WHERE price > 25",
        "SELECT DISTINCT LLM_MAP(name, 'lower') FROM products",
        "SELECT LLM_MAP(name, 'upper') FROM products ORDER BY LLM_MAP(name, 'lower') LIMIT 3",
        "SELECT LLM_MAP(name, 'upper') FROM vacant",
        // NULL input short-circuits to NULL without a model call.
        "SELECT LLM_MAP(blurb, 'upper') FROM products WHERE id = 4",
    ]);
}

#[test]
fn llm_filter_predicates_match_direct() {
    check_all(&[
        "SELECT name FROM products WHERE LLM_FILTER(blurb, 'positive sentiment?')",
        // Mixed cheap + semantic conjuncts exercise the reorder rule:
        // the planner runs `price > 25` first, the oracle evaluates
        // left-to-right — row sets must still agree.
        "SELECT name FROM products WHERE price > 25 AND LLM_FILTER(blurb, 'positive sentiment?')",
        "SELECT name FROM products WHERE LLM_FILTER(blurb, 'positive sentiment?') AND price > 25",
        "SELECT name FROM products WHERE LLM_FILTER(name, 'non-empty') OR price < 25",
        "SELECT COUNT(*) FROM products WHERE LLM_FILTER(blurb, 'positive sentiment?')",
        "SELECT name FROM vacant WHERE LLM_FILTER(name, 'non-empty')",
    ]);
}

#[test]
fn llm_join_and_match_match_direct() {
    check_all(&[
        "SELECT p.name, r.body FROM products p LLM_JOIN reviews r \
           ON LLM_MATCH(p.name, r.product, 'same venue?') ORDER BY p.id, r.rid",
        "SELECT p.name, r.rid FROM products p LLM_JOIN reviews r \
           ON LLM_MATCH(p.name, r.product, 'exact') ORDER BY p.id, r.rid",
        // Semantic ON combined with a cheap conjunct.
        "SELECT p.name, r.rid FROM products p LLM_JOIN reviews r \
           ON LLM_MATCH(p.name, r.product, 'same venue?') AND p.price > 25 ORDER BY r.rid",
        // LEFT JOIN keeps the semantic predicate inside the join operator.
        "SELECT p.name, r.rid FROM products p LEFT JOIN reviews r \
           ON LLM_MATCH(p.name, r.product, 'same venue?') ORDER BY p.id, r.rid",
        "SELECT LLM_MATCH(name, blurb, 'related?') FROM products",
    ]);
}

#[test]
fn llm_in_aggregates_matches_direct() {
    check_all(&[
        "SELECT LLM_MAP(name, 'lower') AS k, COUNT(*) FROM products GROUP BY LLM_MAP(name, 'lower') ORDER BY k",
        "SELECT COUNT(*) FROM products GROUP BY LLM_MAP(name, 'categorize') \
           HAVING COUNT(*) > 0 ORDER BY 1",
    ]);
}

#[test]
fn model_error_paths_agree() {
    let mut db = fixture();
    // 'hard' drives difficulty to 0.95: most prompts fail or corrupt,
    // deterministically per (seed, prompt) — both paths must agree
    // row-for-row on error vs. success.
    for sql in [
        "SELECT LLM_MAP(name, 'hard question') FROM products",
        "SELECT name FROM products WHERE LLM_FILTER(blurb, 'hard garbled riddle')",
        "SELECT p.name FROM products p LLM_JOIN reviews r \
           ON LLM_MATCH(p.name, r.product, 'hard to say')",
    ] {
        check(&mut db, sql);
    }
    // No model attached: both paths must fail with the same class of
    // error rather than diverge.
    let mut bare = {
        let mut d = Database::new();
        d.execute("CREATE TABLE t (x TEXT)").unwrap();
        d.execute("INSERT INTO t VALUES ('a')").unwrap();
        d
    };
    check(&mut bare, "SELECT LLM_MAP(x, 'upper') FROM t");
}

#[test]
fn semantic_results_are_byte_reproducible_across_persist_restart() {
    let vfs = MemVfs::shared();
    let queries = [
        "SELECT LLM_MAP(name, 'upper') FROM p ORDER BY id",
        "SELECT name FROM p WHERE LLM_FILTER(blurb, 'positive sentiment?') ORDER BY id",
    ];

    let before = {
        let mut per = PersistentDb::open(vfs.clone(), StoreConfig::default()).unwrap();
        per.execute("CREATE TABLE p (id INT, name TEXT, blurb TEXT) PERSIST").unwrap();
        per.execute(
            "INSERT INTO p VALUES (1, 'Eagle Arena', 'great venue'), \
             (2, 'River Dome', 'terrible'), (3, 'Sun Bowl', 'love it')",
        )
        .unwrap();
        per.set_model(ModelHandle::sim(SEED));
        queries.iter().map(|q| per.query(q).unwrap()).collect::<Vec<_>>()
    };

    // Restart: reopen from the same disk image; the model handle does
    // not persist and must be re-attached (same seed → same bytes).
    let mut per = PersistentDb::open(vfs, StoreConfig::default()).unwrap();
    per.set_model(ModelHandle::sim(SEED));
    for (q, want) in queries.iter().zip(&before) {
        let got = per.query(q).unwrap();
        assert!(got.bit_eq(want), "restart changed bytes for {q}\n before: {want:?}\n after: {got:?}");
    }

    // And the reloaded catalog still passes the planner/direct gate.
    for q in &queries {
        check(&mut per.database().clone(), q);
    }
}
