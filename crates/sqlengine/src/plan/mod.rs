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
//!    evaluator), predicate pushdown below joins, `LIMIT` pushdown into
//!    `Sort` (top-k), and cost estimates for the semantic operators.
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
//! `EXPLAIN SELECT …` renders the optimized logical plan and the physical
//! operator tree [`physical::build`] makes, without pulling a row.
//! `EXPLAIN ANALYZE SELECT …` builds the same tree with timing wrappers,
//! runs it and renders it with what each operator did, so both describe
//! the operators a plain run executes.

pub(crate) mod logical;
pub(crate) mod physical;
pub(crate) mod rewrite;

pub(crate) use logical::lower_select;
pub(crate) use rewrite::optimize;

use crate::ast::SelectStmt;
use crate::catalog::Database;
use crate::error::SqlError;
use crate::exec::Cx;
use crate::result::ResultSet;
use crate::value::Value;

/// Execute a SELECT of the statement `cx` runs through the planner:
/// lower, optimize, run.
pub(crate) fn execute_select_planned(
    cx: &Cx<'_>,
    stmt: &SelectStmt,
) -> Result<ResultSet, SqlError> {
    let plan = lower_select(cx.db, stmt)?;
    let plan = optimize(cx.db, plan);
    physical::run(cx, &plan)
}

/// Execute `EXPLAIN SELECT …`: return the optimized logical plan and the
/// physical operator tree as a one-column result set, one line per row.
/// The operator tree is built, so it shows what a run would execute, but
/// never pulled.
pub(crate) fn explain_select(db: &Database, stmt: &SelectStmt) -> Result<ResultSet, SqlError> {
    let plan = lower_select(db, stmt)?;
    let plan = optimize(db, plan);
    let mut rows: Vec<Vec<Value>> = Vec::new();
    rows.push(vec![Value::Str("logical:".into())]);
    for line in logical::render(&plan) {
        rows.push(vec![Value::Str(format!("  {line}"))]);
    }
    rows.push(vec![Value::Str("physical:".into())]);
    for line in physical::render(&physical::build(&Cx::new(db), &plan, false)?.stats(), false) {
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
    let cx = Cx::new(db);
    let (result, root) = physical::run_analyzed(&cx, &plan)?;
    let mut rows: Vec<Vec<Value>> = Vec::new();
    rows.push(vec![Value::Str("physical (analyzed):".into())]);
    for line in physical::render(&root, true) {
        rows.push(vec![Value::Str(format!("  {line}"))]);
    }
    rows.push(vec![Value::Str(format!("result: {} row(s)", result.rows.len()))]);
    // Statement-level semantic totals, counted from every call's own
    // completion — subqueries' included, whose operators have no line
    // here — so they reconcile exactly with the session `UsageMeter`
    // delta whenever no other statement shares the meter.
    if let Some(c) = cx.tally() {
        rows.push(vec![Value::Str(format!(
            "llm: calls={} dedup_hits={} cache_hits={} dollars=${:.9}",
            c.calls, c.dedup_hits, c.cache_hits, c.dollars
        ))]);
    }
    Ok(ResultSet { columns: vec!["plan".into()], rows, affected: 0 })
}

#[cfg(test)]
mod tests {
    use super::logical::LogicalPlan;
    use super::*;
    use crate::ast::{Expr, Statement};
    use crate::exec::concert_db;
    use crate::parser::parse_statement;

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
    fn a_conjunct_folded_to_true_leaves_no_filter() {
        let mut db = concert_db();
        let sql = "EXPLAIN SELECT name FROM stadium WHERE capacity > 2000 + 2000 AND 1 = 1 \
                   ORDER BY capacity DESC LIMIT 2";
        let text = explain(&mut db, sql);
        assert!(!text.contains("Filter TRUE"), "{text}");
        assert!(text.contains("Filter (capacity > 4000)"), "{text}");
        assert!(text.contains("ScanExec stadium predicates=1"), "{text}");
        let sql = sql.trim_start_matches("EXPLAIN ");
        let Statement::Select(stmt) = parse_statement(sql).unwrap() else { unreachable!() };
        let planned = crate::exec::execute_select(&db, &stmt).unwrap();
        assert!(planned.bit_eq(&crate::exec::execute_select_direct(&db, &stmt).unwrap()));
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
    fn explain_analyze_times_the_fused_topk() {
        let mut db = concert_db();
        let text = explain(
            &mut db,
            "EXPLAIN ANALYZE SELECT name FROM stadium ORDER BY capacity DESC LIMIT 2",
        );
        let line =
            |op: &str| text.lines().find(|l| l.contains(op)).unwrap_or_else(|| panic!("{text}"));
        assert!(line("TopKExec").contains("rows_out=2 loops="), "{text}");
        // The absorbed projection has its row counts and no timer of its own.
        let project = line("ProjectExec");
        assert!(project.ends_with("(rows_in=4 rows_out=4)"), "{text}");
    }

    /// The annotated operator lines hold one join over an empty left scan
    /// whose right subtree, the last `right_side` lines, never ran.
    fn assert_right_side_never_executed(lines: &[&str], right_side: usize) {
        let text = lines.join("\n");
        let join = lines.iter().position(|l| l.contains("NLJoinExec")).expect("join line");
        assert!(lines[join + 1].contains("ScanExec empty_t"), "{text}");
        assert_eq!(lines.len(), join + 2 + right_side, "{text}");
        assert!(lines[join + 2..].iter().all(|l| l.ends_with("  (never executed)")), "{text}");
        assert_eq!(text.matches("(never executed)").count(), right_side, "{text}");
    }

    #[test]
    fn explain_analyze_marks_unexecuted_join_side() {
        let mut db = concert_db().with_model(crate::semantic::ModelHandle::sim(7));
        db.execute("CREATE TABLE empty_t (x INT)").unwrap();
        // Left side empty → the right side is never pulled.
        let on = "SELECT * FROM empty_t JOIN stadium ON empty_t.x = stadium.stadium_id";
        for sql in [
            on.to_string(),
            // A filter chain, fused into the right scan.
            format!("{on} WHERE stadium.capacity > 1000 AND stadium.city <> 'x'"),
        ] {
            let text = explain(&mut db, &format!("EXPLAIN ANALYZE {sql}"));
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines[lines.len() - 1], "result: 0 row(s)", "{text}");
            assert_right_side_never_executed(&lines[1..lines.len() - 1], 1);
        }

        // SQL keeps semantic predicates above the join; move one onto the
        // right side, under an unfusable filter.
        let sql =
            format!("{on} WHERE stadium.capacity > 1000 AND LLM_FILTER(stadium.name, 'non-empty')");
        let Statement::Select(stmt) = parse_statement(&sql).unwrap() else { unreachable!() };
        let plan = optimize(&db, lower_select(&db, &stmt).unwrap());
        let LogicalPlan::Project { input, items, columns } = plan else { panic!("{plan:?}") };
        let LogicalPlan::LlmFilter { input, predicate, est } = *input else { panic!() };
        let LogicalPlan::Join { left, right, join, on } = *input else { panic!() };
        let right = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::LlmFilter { input: right, predicate, est }),
            predicate: Expr::lit(true),
        };
        let join = LogicalPlan::Join { left, right: Box::new(right), join, on };
        let plan = LogicalPlan::Project { input: Box::new(join), items, columns };
        let cx = Cx::new(&db);
        let (result, root) = physical::run_analyzed(&cx, &plan).unwrap();
        assert!(result.rows.is_empty());
        let lines = physical::render(&root, true);
        assert!(lines[lines.len() - 2].trim_start().starts_with("LlmFilterExec"), "{lines:?}");
        assert_right_side_never_executed(&lines.iter().map(String::as_str).collect::<Vec<_>>(), 3);
        assert_eq!(db.model().unwrap().meter().snapshot().total_calls(), 0);
    }

    #[test]
    fn explain_analyze_propagates_runtime_errors() {
        let mut db = concert_db();
        assert!(db.query("EXPLAIN ANALYZE SELECT name + 1 FROM stadium").is_err());
    }
}
