//! Semantic-SQL operator savings, pinned.
//!
//! DESIGN.md §14 claims two cost mechanisms for `LLM_MAP`/`LLM_FILTER`
//! plans, both measured here on the session [`UsageMeter`] (calls *and*
//! dollars) rather than inferred:
//!
//! * **batch dedup** — each semantic operator memoizes prompts across its
//!   input, so a duplicate-heavy batch costs one model call per *distinct*
//!   prompt. Gated: on a cacheless stack, a duplicate-heavy `LLM_MAP`
//!   batch must bill ≥ 2× fewer calls — and proportionally fewer
//!   dollars — than the same-size unique-value batch.
//! * **cache savings** — with the semantic cache in the stack, re-running
//!   a query bills zero further calls and zero further dollars.
//!
//! Before any timing, every benched query is asserted **bit-identical**
//! between the planner and the direct-execution oracle under the same
//! seeded model. `scripts/verify.sh` runs this with `LLMDM_BENCH_FAST=1`;
//! results land in `BENCH_semsql.json`.

use llmdm_rt::bench::{Bound::AtLeast, Criterion};
use llmdm_sqlengine::exec::{execute_select, execute_select_direct};
use llmdm_sqlengine::{parse_statement, Database, ModelHandle, SelectStmt, Statement, Value};

const ROWS: i64 = 96;
const DISTINCT: i64 = 8;
const SEED: u64 = 11;
/// Dedup must cut calls, and dollars, at least this many times.
const MIN_DEDUP: f64 = 2.0;

/// One table, two text columns over the same rows: `category` repeats
/// `DISTINCT` values (duplicate-heavy), `label` is unique per row.
fn fixture(model: ModelHandle) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE items (id INT, category TEXT, label TEXT)").expect("ddl");
    for i in 0..ROWS {
        db.table_mut("items")
            .unwrap()
            .push_row(vec![
                Value::Int(i),
                Value::Str(format!("cat-{}", i % DISTINCT)),
                Value::Str(format!("item-{i}")),
            ])
            .expect("row");
    }
    db.set_model(model);
    db
}

fn select_stmt(sql: &str) -> SelectStmt {
    match parse_statement(sql).expect("parses") {
        Statement::Select(s) => s,
        _ => unreachable!("bench queries are SELECTs"),
    }
}

const DUP_SQL: &str = "SELECT LLM_MAP(category, 'categorize') FROM items";
const UNIQ_SQL: &str = "SELECT LLM_MAP(label, 'categorize') FROM items";

/// Run `sql` on a fresh fixture around `handle`, returning the meter
/// delta as (calls, dollars).
fn billed(handle: &ModelHandle, sql: &str) -> (u64, f64) {
    let db = fixture(handle.clone());
    let before = handle.meter().snapshot();
    execute_select(&db, &select_stmt(sql)).expect("executes");
    let after = handle.meter().snapshot();
    (after.total_calls() - before.total_calls(), after.dollars_since(&before))
}

fn run(c: &mut Criterion) {
    llmdm_obs::disable();

    // ---- Correctness gate: planner ≡ direct, bit for bit. -----------
    {
        let db = fixture(ModelHandle::sim(SEED));
        for sql in [DUP_SQL, UNIQ_SQL] {
            let stmt = select_stmt(sql);
            let planned = execute_select(&db, &stmt).expect("planner executes");
            let direct = execute_select_direct(&db, &stmt).expect("direct executes");
            assert!(
                planned.bit_eq(&direct),
                "{sql}: planner and direct paths disagree\n planner: {planned:?}\n direct:  {direct:?}"
            );
            assert_eq!(planned.rows.len(), ROWS as usize, "{sql}: unexpected row count");
        }
    }

    // ---- Dedup pin (cacheless stack isolates operator dedup). -------
    let (dup_calls, dup_dollars) = billed(&ModelHandle::sim_uncached(SEED), DUP_SQL);
    let (uniq_calls, uniq_dollars) = billed(&ModelHandle::sim_uncached(SEED), UNIQ_SQL);
    println!(
        "dedup: duplicate-heavy {dup_calls} calls (${dup_dollars:.6}) vs \
         unique {uniq_calls} calls (${uniq_dollars:.6})"
    );
    assert_eq!(
        dup_calls, DISTINCT as u64,
        "duplicate-heavy batch should bill one call per distinct prompt"
    );
    assert_eq!(uniq_calls, ROWS as u64, "unique batch should bill one call per row");
    let call_ratio = uniq_calls as f64 / dup_calls as f64;
    c.gate("dedup calls unique/duplicate", call_ratio, AtLeast(MIN_DEDUP));
    c.gate("dedup dollars unique/duplicate", uniq_dollars / dup_dollars, AtLeast(MIN_DEDUP));

    // ---- Cache pin: a warm re-run bills nothing. --------------------
    let cached = ModelHandle::sim(SEED);
    let db = fixture(cached.clone());
    let stmt = select_stmt(DUP_SQL);
    execute_select(&db, &stmt).expect("cold run");
    let before = cached.meter().snapshot();
    execute_select(&db, &stmt).expect("warm run");
    let after = cached.meter().snapshot();
    assert_eq!(after.total_calls(), before.total_calls(), "warm re-run billed model calls");
    assert!(
        after.dollars_since(&before) == 0.0,
        "warm re-run billed dollars: {}",
        after.dollars_since(&before)
    );
    println!(
        "cache: warm re-run of {} rows billed 0 calls / $0 (cache stats: {:?})",
        ROWS,
        cached.cache_stats()
    );

    // ---- Timing: warm-cache planner latency on both workloads. ------
    let mut group = c.benchmark_group("semsql");
    let dup_stmt = select_stmt(DUP_SQL);
    let uniq_stmt = select_stmt(UNIQ_SQL);
    group.bench_function("llm_map_dup/plan", |b| {
        b.iter(|| execute_select(&db, &dup_stmt).expect("executes"))
    });
    group.bench_function("llm_map_dup/direct", |b| {
        b.iter(|| execute_select_direct(&db, &dup_stmt).expect("executes"))
    });
    group.bench_function("llm_map_uniq/plan", |b| {
        b.iter(|| execute_select(&db, &uniq_stmt).expect("executes"))
    });
    group.finish();
}

llmdm_rt::bench_main!("semsql", Some(SEED), run);
