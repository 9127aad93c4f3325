//! The Volcano query planner: AST → logical plan → rewrites → physical
//! iterators.
//!
//! `SELECT` execution flows through three layers:
//!
//! 1. **Lowering** ([`logical::lower_select`]) turns a [`SelectStmt`] into
//!    a [`logical::LogicalPlan`] tree (`Scan`/`Filter`/`Join`/`Project`/
//!    `Aggregate`/`Distinct`/`SetOp`/`Sort`/`Strip`/`Limit`) that mirrors
//!    the direct executor's semantics exactly, including the hidden-key
//!    projection used for `ORDER BY` on unprojected expressions.
//! 2. **Rewrites** ([`rewrite::optimize`]) apply rule-based
//!    transformations: constant folding (via the shared [`crate::eval`]
//!    evaluator), predicate pushdown below joins, scan column pruning, and
//!    `LIMIT` pushdown into `Sort` (top-k).
//! 3. **Physical execution** ([`physical::run`]) builds Volcano-style
//!    pull iterators from the optimized plan and drains the root. Each
//!    operator binds its expressions' columns to row positions once, when
//!    it is built; scans hand out stored rows by reference, so only the
//!    rows a projection or aggregate outputs are ever copied.
//!
//! The pre-planner executor survives as
//! [`crate::exec::execute_select_direct`], a differential-testing oracle:
//! every planned result can be checked bit-for-bit against it.
//!
//! `EXPLAIN SELECT …` renders both the optimized logical plan and the
//! physical operator tree without executing the query.

pub(crate) mod logical;
pub(crate) mod physical;
pub(crate) mod rewrite;

pub(crate) use logical::lower_select;
pub(crate) use rewrite::optimize;

use crate::ast::SelectStmt;
use crate::catalog::Database;
use crate::error::SqlError;
use crate::result::ResultSet;
use crate::value::Value;

/// Execute a SELECT through the planner: lower, optimize, run.
pub(crate) fn execute_select_planned(
    db: &Database,
    stmt: &SelectStmt,
) -> Result<ResultSet, SqlError> {
    let plan = lower_select(db, stmt)?;
    let plan = optimize(db, plan);
    physical::run(db, &plan)
}

/// Execute `EXPLAIN SELECT …`: return the optimized logical plan and the
/// physical operator tree as a one-column result set, one line per row.
pub(crate) fn explain_select(db: &Database, stmt: &SelectStmt) -> Result<ResultSet, SqlError> {
    let plan = lower_select(db, stmt)?;
    let plan = optimize(db, plan);
    let mut rows: Vec<Vec<Value>> = Vec::new();
    rows.push(vec![Value::Str("logical:".into())]);
    for line in logical::render(&plan) {
        rows.push(vec![Value::Str(format!("  {line}"))]);
    }
    rows.push(vec![Value::Str("physical:".into())]);
    for line in physical::render(&plan) {
        rows.push(vec![Value::Str(format!("  {line}"))]);
    }
    Ok(ResultSet { columns: vec!["plan".into()], rows, affected: 0 })
}

/// Execute `EXPLAIN ANALYZE SELECT …`: run the physical plan with
/// per-operator instrumentation and return the operator tree annotated
/// with actual rows in/out, `next()` loops, and inclusive wall time —
/// plus a trailing `result: N row(s)` line that reconciles the root
/// operator's row count with the executed result. Runtime errors
/// propagate exactly as they would from the plain query.
pub(crate) fn explain_analyze_select(
    db: &Database,
    stmt: &SelectStmt,
) -> Result<ResultSet, SqlError> {
    let plan = lower_select(db, stmt)?;
    let plan = optimize(db, plan);
    let (result, stats) = physical::run_analyzed(db, &plan)?;
    let mut rows: Vec<Vec<Value>> = Vec::new();
    rows.push(vec![Value::Str("physical (analyzed):".into())]);
    for line in physical::render_analyzed(&plan, &stats) {
        rows.push(vec![Value::Str(format!("  {line}"))]);
    }
    rows.push(vec![Value::Str(format!("result: {} row(s)", result.rows.len()))]);
    // Query-level semantic totals: the sum of the per-operator counters,
    // which reconciles exactly with the session `UsageMeter` delta as
    // long as every LLM evaluation runs inside a scoped operator.
    let mut total = crate::semantic::SemCounters::default();
    let mut any_llm = false;
    for st in &stats {
        if let Some(c) = &st.llm {
            any_llm = true;
            total.calls += c.calls;
            total.dedup_hits += c.dedup_hits;
            total.cache_hits += c.cache_hits;
            total.dollars += c.dollars;
        }
    }
    if any_llm {
        rows.push(vec![Value::Str(format!(
            "llm: calls={} dedup_hits={} cache_hits={} dollars=${:.9}",
            total.calls, total.dedup_hits, total.cache_hits, total.dollars
        ))]);
    }
    Ok(ResultSet { columns: vec!["plan".into()], rows, affected: 0 })
}

#[cfg(test)]
mod tests {
    use crate::exec::concert_db;

    fn explain(db: &mut crate::catalog::Database, sql: &str) -> String {
        let rs = db.query(sql).unwrap();
        assert_eq!(rs.columns, vec!["plan".to_string()]);
        rs.rows
            .iter()
            .map(|r| match &r[0] {
                crate::value::Value::Str(s) => s.clone(),
                other => panic!("non-string EXPLAIN row: {other:?}"),
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn explain_shows_logical_and_physical() {
        let mut db = concert_db();
        let text = explain(&mut db, "EXPLAIN SELECT name FROM stadium WHERE capacity > 1000");
        assert!(text.contains("logical:"), "{text}");
        assert!(text.contains("physical:"), "{text}");
        assert!(text.contains("Scan stadium"), "{text}");
        assert!(text.contains("ScanExec"), "{text}");
        // The filter fuses into the scan on the physical side.
        assert!(text.contains("predicates=1"), "{text}");
    }

    #[test]
    fn explain_shows_topk_for_limited_sort() {
        let mut db = concert_db();
        let text =
            explain(&mut db, "EXPLAIN SELECT name FROM stadium ORDER BY capacity DESC LIMIT 2");
        assert!(text.contains("TopKExec"), "{text}");
        assert!(text.contains("fetch=2"), "{text}");
    }

    #[test]
    fn explain_does_not_execute() {
        let mut db = concert_db();
        // A query that would error at runtime still EXPLAINs fine.
        let rs = db.query("EXPLAIN SELECT name + 1 FROM stadium");
        assert!(rs.is_ok(), "{rs:?}");
    }

    /// Pull `rows_out=N` off the first (root) annotated operator line.
    fn root_rows_out(text: &str) -> usize {
        let line = text.lines().nth(1).expect("root operator line");
        let tail = line.split("rows_out=").nth(1).unwrap_or_else(|| panic!("no rows_out: {line}"));
        tail.split(|c: char| !c.is_ascii_digit()).next().unwrap().parse().unwrap()
    }

    #[test]
    fn explain_analyze_reconciles_with_executed_result() {
        let mut db = concert_db();
        for sql in [
            "SELECT name FROM stadium WHERE capacity > 40000",
            "SELECT s.name, c.concert_id FROM stadium s JOIN concert c ON s.stadium_id = c.stadium_id",
            "SELECT stadium_id, COUNT(*) FROM concert GROUP BY stadium_id ORDER BY stadium_id LIMIT 2",
        ] {
            let direct = db.query(sql).unwrap().rows.len();
            let text = explain(&mut db, &format!("EXPLAIN ANALYZE {sql}"));
            assert!(text.starts_with("physical (analyzed):"), "{text}");
            assert_eq!(root_rows_out(&text), direct, "{sql}\n{text}");
            assert!(text.contains(&format!("result: {direct} row(s)")), "{text}");
            assert!(text.contains("loops="), "{text}");
            assert!(text.contains("time="), "{text}");
        }
    }

    #[test]
    fn explain_analyze_marks_unexecuted_join_side() {
        let mut db = concert_db();
        db.execute("CREATE TABLE empty_t (x INT)").unwrap();
        // Left side empty → lazily materialized right side never builds.
        let text = explain(
            &mut db,
            "EXPLAIN ANALYZE SELECT * FROM empty_t JOIN stadium ON empty_t.x = stadium.stadium_id",
        );
        assert!(text.contains("(never executed)"), "{text}");
        assert!(text.contains("result: 0 row(s)"), "{text}");
    }

    #[test]
    fn explain_analyze_propagates_runtime_errors() {
        let mut db = concert_db();
        assert!(db.query("EXPLAIN ANALYZE SELECT name + 1 FROM stadium").is_err());
    }
}
