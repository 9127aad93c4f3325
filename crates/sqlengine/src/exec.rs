//! Statement execution.
//!
//! SELECT pipeline: FROM (nested-loop joins, NULL-padded left joins) →
//! WHERE → GROUP BY/aggregates → HAVING → projection → set operations →
//! DISTINCT → ORDER BY → LIMIT/OFFSET.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use crate::ast::{
    AggFunc, BinOp, Expr, FromItem, JoinType, SelectItem, SelectStmt, SetOp, Statement,
};
use crate::catalog::{Database, Undo};
use crate::error::SqlError;
use crate::eval::{eval, eval_binop, logic, operand, truthy, unary, Env};
use crate::index::{Access, Keys};
use crate::result::{cmp_rows, ResultSet};
use crate::schema::{Column, Row, Schema, Table};
use crate::semantic::SemCounters;
use crate::value::Value;

/// Remove the elements at the ascending indices `gone`, moving each to
/// `removed` with its index; the rest keep their order. Indices past the
/// end are ignored.
pub(crate) fn remove_at<T>(v: &mut Vec<T>, gone: &[usize], mut removed: impl FnMut(usize, T)) {
    let mut next = gone.iter().peekable();
    let mut i = 0usize;
    let hits = v.extract_if(.., |_| {
        let hit = next.next_if_eq(&&i).is_some();
        i += 1;
        hit
    });
    gone.iter().zip(hits).for_each(|(&i, x)| removed(i, x));
}

/// Execute any statement against the database.
///
/// Observability: each statement opens a `sqlengine.exec` span (fields
/// `kind`, `rows_out`, `affected`) and bumps the
/// `sqlengine.exec.statements` / `sqlengine.exec.rows_out` counters; the
/// SELECT core additionally records per-operator row counts (see
/// `execute_core`).
pub fn execute(db: &mut Database, stmt: &Statement) -> Result<ResultSet, SqlError> {
    execute_reporting(db, stmt).map(|(rs, _)| rs)
}

/// [`execute`], also handing over the undo log of the transaction the
/// statement committed: its own, if it writes outside a transaction, or
/// the open one, if it is `COMMIT`.
pub(crate) fn execute_reporting(
    db: &mut Database,
    stmt: &Statement,
) -> Result<(ResultSet, Option<Vec<Undo>>), SqlError> {
    let mut span = llmdm_obs::span("sqlengine.exec");
    let result = execute_inner(db, stmt);
    if span.is_recording() {
        span.field(
            "kind",
            match stmt {
                Statement::Select(_) => "select",
                Statement::Explain { analyze: false, .. } => "explain",
                Statement::Explain { analyze: true, .. } => "explain_analyze",
                Statement::Insert { .. } => "insert",
                Statement::Update { .. } => "update",
                Statement::Delete { .. } => "delete",
                Statement::CreateTable { .. } => "create_table",
                Statement::DropTable { .. } => "drop_table",
                Statement::Begin => "begin",
                Statement::Commit => "commit",
                Statement::Rollback => "rollback",
            },
        );
        llmdm_obs::counter_add("sqlengine.exec.statements", 1.0);
        match &result {
            Ok((rs, _)) => {
                span.field("rows_out", rs.rows.len());
                span.field("affected", rs.affected);
                llmdm_obs::counter_add("sqlengine.exec.rows_out", rs.rows.len() as f64);
            }
            Err(_) => {
                span.field("error", true);
                llmdm_obs::counter_add("sqlengine.exec.errors", 1.0);
            }
        }
    }
    result
}

fn execute_inner(
    db: &mut Database,
    stmt: &Statement,
) -> Result<(ResultSet, Option<Vec<Undo>>), SqlError> {
    use Statement::{CreateTable, Delete, DropTable, Insert, Update};
    let writes = matches!(
        stmt,
        Insert { .. } | Update { .. } | Delete { .. } | CreateTable { .. } | DropTable { .. }
    );
    if writes && !db.in_transaction() {
        // A write outside a transaction is one of its own.
        db.begin()?;
        return match execute_inner(db, stmt) {
            Ok((rs, _)) => Ok((rs, Some(db.end()?))),
            Err(e) => {
                db.rollback()?;
                Err(e)
            }
        };
    }
    let rs = match stmt {
        Statement::Select(s) => execute_select(db, s)?,
        Statement::Explain { analyze: false, select } => crate::plan::explain_select(db, select)?,
        Statement::Explain { analyze: true, select } => {
            crate::plan::explain_analyze_select(db, select)?
        }
        Statement::Insert { table, columns, values } => {
            ResultSet::affected(insert(db, table, columns.as_deref(), values)?)
        }
        Statement::Update { table, assignments, selection } => {
            ResultSet::affected(update(db, table, assignments, selection.as_ref())?)
        }
        Statement::Delete { table, selection } => {
            ResultSet::affected(delete(db, table, selection.as_ref())?)
        }
        Statement::CreateTable { table, columns, if_not_exists, persist } => {
            if !(*if_not_exists && db.has_table(table)) {
                let schema = Schema::new(columns.iter().map(|(n, t)| Column::new(n, *t)).collect());
                let mut t = Table::new(table, schema);
                t.persist = *persist;
                db.create_table(t)?;
            }
            ResultSet::empty()
        }
        Statement::DropTable { table, if_exists } => {
            if !*if_exists || db.has_table(table) {
                db.drop_table(table)?;
            }
            ResultSet::empty()
        }
        Statement::Begin => {
            db.begin()?;
            ResultSet::empty()
        }
        Statement::Commit => return Ok((ResultSet::empty(), Some(db.end()?))),
        Statement::Rollback => {
            db.rollback()?;
            ResultSet::empty()
        }
    };
    Ok((rs, None))
}

// ---------------- DML ----------------

fn insert(
    db: &mut Database,
    table: &str,
    columns: Option<&[String]>,
    values: &[Vec<Expr>],
) -> Result<usize, SqlError> {
    // Evaluate value expressions first (no row scope: literals/arithmetic).
    let cx = Cx::new(db);
    let env = Env::empty(&cx);
    let mut rows: Vec<Row> = Vec::with_capacity(values.len());
    for exprs in values {
        let mut row = Vec::with_capacity(exprs.len());
        for e in exprs {
            row.push(eval(e, &env)?);
        }
        rows.push(row);
    }
    let (t, keys, log) = db.table_for_dml(table)?;
    let n = rows.len();
    let before = t.rows.len();
    let pushed = rows.into_iter().try_for_each(|row| {
        let full = match columns {
            None => row,
            Some(cols) => {
                if cols.len() != row.len() {
                    return Err(SqlError::Exec(format!(
                        "INSERT names {} columns but provides {} values",
                        cols.len(),
                        row.len()
                    )));
                }
                let mut full = vec![Value::Null; t.schema.len()];
                for (c, v) in cols.iter().zip(row) {
                    let idx =
                        t.schema.index_of(c).ok_or_else(|| SqlError::UnknownColumn(c.clone()))?;
                    full[idx] = v;
                }
                full
            }
        };
        t.push_row(full)
    });
    if let Err(e) = pushed {
        // All rows or none: a failed statement changes nothing.
        t.rows.truncate(before);
        return Err(e);
    }
    keys.inserted(&t.rows, before);
    log.push(Undo::Truncate(t.name.clone(), before));
    Ok(n)
}

fn update(
    db: &mut Database,
    table: &str,
    assignments: &[crate::ast::Assignment],
    selection: Option<&Expr>,
) -> Result<usize, SqlError> {
    // Two-phase: compute the new rows against the table as it is, then
    // write them in place. Columns bind once; an unknown target column
    // still fails only when a row matches.
    let cx = Cx::new(db);
    let (t, keys) = cx.db.table_keyed(table)?;
    let layout = Bindings::of_table(t);
    let selection = selection.map(|e| layout.bind(e));
    let targets: Vec<(Result<usize, SqlError>, Expr)> = assignments
        .iter()
        .map(|a| {
            let idx = t.schema.index_of(&a.column);
            (idx.ok_or_else(|| SqlError::UnknownColumn(a.column.clone())), layout.bind(&a.value))
        })
        .collect();
    let mut writes: Vec<(usize, Row)> = Vec::new();
    for i in dml_access(&t.rows, keys, selection.as_ref()) {
        let row = &t.rows[i];
        let env = Env::new(&layout, row, &cx);
        if !selection.as_ref().map_or(Ok(true), |pred| truthy(pred, &env))? {
            continue;
        }
        let mut new_row = row.clone();
        for (idx, value) in &targets {
            let idx = idx.clone()?;
            new_row[idx] = eval(value, &env)?;
        }
        writes.push((i, new_row));
    }
    let n = writes.len();
    if n > 0 {
        let (t, keys, log) = db.table_for_dml(table)?;
        let old = writes.into_iter().map(|(i, row)| (i, std::mem::replace(&mut t.rows[i], row)));
        let old: Vec<(usize, Row)> = old.collect();
        keys.updated(&t.rows, &old);
        log.push(Undo::Restore(t.name.clone(), old));
    }
    Ok(n)
}

fn delete(db: &mut Database, table: &str, selection: Option<&Expr>) -> Result<usize, SqlError> {
    let cx = Cx::new(db);
    let (t, keys) = cx.db.table_keyed(table)?;
    let layout = Bindings::of_table(t);
    let selection = selection.map(|e| layout.bind(e));
    let mut gone = Vec::new();
    for i in dml_access(&t.rows, keys, selection.as_ref()) {
        let env = Env::new(&layout, &t.rows[i], &cx);
        if selection.as_ref().map_or(Ok(true), |pred| truthy(pred, &env))? {
            gone.push(i);
        }
    }
    if !gone.is_empty() {
        let (t, keys, log) = db.table_for_dml(table)?;
        let mut removed = Vec::with_capacity(gone.len());
        remove_at(&mut t.rows, &gone, |i, row| removed.push((i, row)));
        keys.deleted(&t.rows, &removed);
        log.push(Undo::Reinsert(t.name.clone(), removed));
    }
    Ok(gone.len())
}

/// The rows an `UPDATE` or `DELETE` evaluates its bound `WHERE` on, in
/// table order: an index's candidates when the leftmost conjunct is an
/// equality on a column, else every row. The whole `WHERE` still runs
/// on each row read. A row skipped has its leftmost conjunct FALSE, and
/// `FALSE AND …` evaluates nothing more; a NULL key goes on to evaluate
/// the other conjuncts, so with more than one the index must hold none.
fn dml_access<'a>(rows: &'a [Row], keys: &'a Keys, selection: Option<&Expr>) -> Access<'a> {
    let (mut leftmost, mut alone) = (selection, true);
    while let Some(Expr::Binary { op: BinOp::And, left, .. }) = leftmost {
        (leftmost, alone) = (Some(&**left), false);
    }
    keys.access(rows, leftmost, alone)
}

// ---------------- SELECT ----------------

/// Table bindings for a joined row layout: aliases, schemas, and segment
/// offsets, FROM order. Shared between the direct executor and the
/// planner's physical operators so expression scoping is identical on
/// both paths: [`Bindings::resolve`] is the one set of name rules, used by
/// name at evaluation time and once per operator by [`Bindings::bind`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Bindings {
    /// Aliases (lowercase), FROM order.
    pub(crate) aliases: Vec<String>,
    /// Schemas, FROM order.
    pub(crate) schemas: Vec<Schema>,
    /// Segment start offsets per table.
    pub(crate) offsets: Vec<usize>,
}

impl Bindings {
    /// One stored table under its own name, as DML sees it.
    pub(crate) fn of_table(t: &Table) -> Bindings {
        let mut b = Bindings::default();
        b.push(t.name.clone(), t.schema.clone());
        b
    }

    /// Append a table binding at the end of the row layout.
    pub(crate) fn push(&mut self, alias: String, schema: Schema) {
        let offset = self.width();
        self.offsets.push(offset);
        self.aliases.push(alias);
        self.schemas.push(schema);
    }

    /// Total row width across all bindings.
    pub(crate) fn width(&self) -> usize {
        self.schemas.iter().map(|s| s.len()).sum()
    }

    /// Resolve a column reference to its position in a row laid out per
    /// these bindings. A qualifier picks its table (case-insensitively);
    /// a bare name must occur in exactly one table.
    pub(crate) fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize, SqlError> {
        let mut tables = self.aliases.iter().zip(&self.schemas).zip(&self.offsets);
        match qualifier {
            Some(q) => {
                let q = q.to_lowercase();
                tables
                    .find(|((alias, _), _)| **alias == q)
                    .and_then(|((_, schema), offset)| Some(offset + schema.index_of(name)?))
                    .ok_or_else(|| SqlError::UnknownColumn(format!("{q}.{name}")))
            }
            None => {
                let mut found = None;
                for ((_, schema), offset) in tables {
                    if let Some(i) = schema.index_of(name) {
                        if found.is_some() {
                            return Err(SqlError::AmbiguousColumn(name.to_string()));
                        }
                        found = Some(offset + i);
                    }
                }
                found.ok_or_else(|| SqlError::UnknownColumn(name.to_string()))
            }
        }
    }

    /// `expr` with every column that resolves here replaced by its
    /// [`Expr::Slot`]. A column that does not resolve stays by name, so it
    /// raises the error it always did when — and only when — a row
    /// evaluates it. Subquery bodies are left alone: they bind when they
    /// run.
    pub(crate) fn bind(&self, expr: &Expr) -> Expr {
        let mut bound = expr.clone();
        self.bind_in_place(&mut bound);
        bound
    }

    fn bind_in_place(&self, e: &mut Expr) {
        if let Expr::Column { qualifier, name } = e {
            if let Ok(index) = self.resolve(qualifier.as_deref(), name) {
                let name = match qualifier {
                    Some(q) => format!("{}.{name}", q.to_lowercase()),
                    None => std::mem::take(name),
                };
                *e = Expr::Slot { index, name };
            }
        }
        e.for_each_child_mut(|c| self.bind_in_place(c));
    }

    /// [`Bindings::bind`] for a projection list.
    pub(crate) fn bind_items(&self, items: &[SelectItem]) -> Vec<SelectItem> {
        items
            .iter()
            .map(|it| match it {
                SelectItem::Expr { expr, alias } => {
                    SelectItem::Expr { expr: self.bind(expr), alias: alias.clone() }
                }
                other => other.clone(),
            })
            .collect()
    }

    /// Concatenate two binding sets (right segments shifted after left).
    pub(crate) fn concat(&self, right: &Bindings) -> Bindings {
        let mut out = self.clone();
        for (alias, schema) in right.aliases.iter().zip(&right.schemas) {
            out.push(alias.clone(), schema.clone());
        }
        out
    }
}

/// A joined intermediate row set: layout plus materialized rows.
pub(crate) struct Joined {
    bindings: Bindings,
    rows: Vec<Vec<Value>>,
}

/// One statement's execution state, made once per statement and lent to
/// every operator, expression and subquery it runs.
pub(crate) struct Cx<'a> {
    /// The database the statement reads.
    pub(crate) db: &'a Database,
    /// Subqueries run on the direct path too: a statement tree started by
    /// [`execute_select_direct`] stays on the differential oracle.
    direct: bool,
    /// What every prompt the statement resolved cost, in whichever
    /// operator, a subquery's included; `None` until it builds a semantic
    /// operator or resolves a prompt. `EXPLAIN ANALYZE` prints it as its
    /// `llm:` line.
    tally: Cell<Option<SemCounters>>,
    /// Each subquery's result, by node, from the first row that ran it.
    /// A subquery is uncorrelated and `db` cannot change while the
    /// statement borrows it, so a second run could only repeat the first.
    /// Holding the node keeps its address from being reused by another.
    subqueries: RefCell<Vec<(Arc<SelectStmt>, Rc<ResultSet>)>>,
}

impl<'a> Cx<'a> {
    /// A statement on the planned path.
    pub(crate) fn new(db: &'a Database) -> Self {
        Cx { db, direct: false, tally: Cell::new(None), subqueries: RefCell::new(Vec::new()) }
    }

    /// The result of `subquery`, run on the statement's path the first
    /// time the statement asks for it.
    pub(crate) fn subquery(&self, subquery: &Arc<SelectStmt>) -> Result<Rc<ResultSet>, SqlError> {
        let memo = self.subqueries.borrow();
        if let Some((_, rs)) = memo.iter().find(|(s, _)| Arc::ptr_eq(s, subquery)) {
            return Ok(rs.clone());
        }
        drop(memo);
        let rs = Rc::new(self.select(subquery)?);
        self.subqueries.borrow_mut().push((subquery.clone(), rs.clone()));
        Ok(rs)
    }

    /// Run a SELECT of this statement, itself or a subquery, on the
    /// statement's path.
    pub(crate) fn select(&self, stmt: &SelectStmt) -> Result<ResultSet, SqlError> {
        if self.direct {
            select_direct(self, stmt)
        } else {
            crate::plan::execute_select_planned(self, stmt)
        }
    }

    /// Add `delta` to the statement's totals.
    pub(crate) fn count(&self, delta: SemCounters) {
        let mut total = self.tally.get().unwrap_or_default();
        total.add(delta);
        self.tally.set(Some(total));
    }

    /// The statement's totals so far.
    pub(crate) fn tally(&self) -> Option<SemCounters> {
        self.tally.get()
    }
}

/// Execute a SELECT (read-only) through the query planner: AST → logical
/// plan → rule-based rewrites → Volcano physical iterators (see
/// the `plan` module). The pre-planner direct executor is kept as the
/// differential-testing oracle behind [`execute_select_direct`].
pub fn execute_select(db: &Database, stmt: &SelectStmt) -> Result<ResultSet, SqlError> {
    Cx::new(db).select(stmt)
}

/// Execute a SELECT on the legacy direct-walk path. This is the
/// differential-testing oracle: subqueries inside `stmt` also stay on the
/// direct path, so a whole statement tree can be compared against the
/// planner byte for byte.
pub fn execute_select_direct(db: &Database, stmt: &SelectStmt) -> Result<ResultSet, SqlError> {
    Cx { direct: true, ..Cx::new(db) }.select(stmt)
}

fn select_direct(cx: &Cx<'_>, stmt: &SelectStmt) -> Result<ResultSet, SqlError> {
    let mut rs = execute_core(cx, stmt)?;
    // Set operation chain.
    if let Some((op, all, rhs)) = &stmt.set_op {
        let right = cx.select(rhs)?;
        if right.columns.len() != rs.columns.len() {
            return Err(SqlError::Exec(format!(
                "set operation arity mismatch: {} vs {}",
                rs.columns.len(),
                right.columns.len()
            )));
        }
        rs.rows = apply_set_op(*op, *all, rs.rows, right.rows);
    }
    // ORDER BY at the top of the chain operates on output columns. Keys
    // that are not output columns (e.g. `ORDER BY COUNT(*)` without the
    // count projected) are handled by re-running the core with the keys
    // appended as hidden projections, sorting, then stripping them.
    if !stmt.order_by.is_empty() {
        if let Err(first_err) = sort_output(&mut rs, stmt) {
            if stmt.set_op.is_none() && !stmt.distinct {
                order_keys_executable(stmt)?;
                let mut widened = stmt.clone();
                let visible = rs.columns.len();
                for k in &stmt.order_by {
                    // Hidden sort keys are positional — no alias, so they
                    // can never collide with user columns named `__sortN`.
                    widened
                        .projections
                        .push(SelectItem::Expr { expr: k.expr.clone(), alias: None });
                }
                let mut wide = execute_core(cx, &widened)?;
                if wide.columns.len() != visible + stmt.order_by.len() {
                    return Err(SqlError::Exec(
                        "hidden ORDER BY projection misaligned with output".into(),
                    ));
                }
                let keys: Vec<(usize, bool)> =
                    stmt.order_by.iter().enumerate().map(|(i, k)| (visible + i, k.desc)).collect();
                sort_rows(&mut wide.rows, &keys);
                for row in &mut wide.rows {
                    row.truncate(visible);
                }
                wide.columns.truncate(visible);
                rs = wide;
            } else {
                return Err(first_err);
            }
        }
    }
    // LIMIT / OFFSET.
    let offset = stmt.offset.unwrap_or(0);
    if offset > 0 {
        rs.rows.drain(..offset.min(rs.rows.len()));
    }
    if let Some(limit) = stmt.limit {
        rs.rows.truncate(limit);
    }
    Ok(rs)
}

/// Does the SELECT core aggregate (GROUP BY, an aggregate projection, or
/// an aggregate HAVING)?
pub(crate) fn has_aggregate_core(stmt: &SelectStmt) -> bool {
    !stmt.group_by.is_empty()
        || stmt.projections.iter().any(|p| match p {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        })
        || stmt.having.as_ref().is_some_and(|h| h.contains_aggregate())
}

/// The hidden-projection ORDER BY fallback is only sound when appending a
/// key to the projection list cannot change the query's shape: an
/// aggregate key over a non-aggregate core would silently collapse the
/// whole SELECT into a one-row global aggregate, so it is rejected with a
/// typed error instead.
pub(crate) fn order_keys_executable(stmt: &SelectStmt) -> Result<(), SqlError> {
    if !has_aggregate_core(stmt) {
        if let Some(k) = stmt.order_by.iter().find(|k| k.expr.contains_aggregate()) {
            return Err(SqlError::Exec(format!(
                "ORDER BY {} requires GROUP BY or an aggregate projection",
                crate::printer::print_expr(&k.expr)
            )));
        }
    }
    Ok(())
}

pub(crate) fn apply_set_op(op: SetOp, all: bool, left: Vec<Row>, right: Vec<Row>) -> Vec<Row> {
    match op {
        SetOp::Union => {
            let mut rows = left;
            rows.extend(right);
            if !all {
                dedup_rows(&mut rows);
            }
            rows
        }
        SetOp::Intersect => {
            let mut counts = RowCounts::of(&right);
            let mut out = Vec::new();
            for r in left {
                if let Some(c) = counts.get_mut(&r) {
                    if *c > 0 {
                        *c -= 1;
                        out.push(r);
                    }
                }
            }
            if !all {
                dedup_rows(&mut out);
            }
            out
        }
        SetOp::Except => {
            let mut counts = RowCounts::of(&right);
            let mut out = Vec::new();
            for r in left {
                match counts.get_mut(&r) {
                    Some(c) if *c > 0 => *c -= 1,
                    _ => out.push(r),
                }
            }
            if !all {
                dedup_rows(&mut out);
            }
            out
        }
    }
}

pub(crate) fn dedup_rows(rows: &mut Vec<Row>) {
    rows.sort_by(cmp_rows);
    rows.dedup_by(|a, b| cmp_rows(a, b) == std::cmp::Ordering::Equal);
}

/// A key's hash, consistent with comparing keys value by value with
/// [`Value::group_eq`] (and so with [`cmp_rows`] on rows of one width).
fn key_hash<'v>(key: impl IntoIterator<Item = &'v Value>) -> u64 {
    key.into_iter().fold(0, |h, v| llmdm_rt::hash::combine(h, v.group_hash()))
}

/// Keys numbered in first-seen order and found by their [`key_hash`]:
/// `find` walks one bucket's chain and the caller's test confirms a
/// match. The bucket array doubles when it fills, so nothing is
/// allocated per lookup and the chains stay short.
#[derive(Default)]
struct KeyIndex {
    /// Each key's hash, by number.
    hashes: Vec<u64>,
    /// Per bucket, its newest key's number + 1 (0: empty). Its length
    /// is zero or a power of two.
    heads: Vec<usize>,
    /// Per key, the number + 1 of the next older key in its bucket (0: none).
    older: Vec<usize>,
}

impl KeyIndex {
    /// The key hashing to `h` for which `is` holds, if one was inserted.
    fn find(&self, h: u64, mut is: impl FnMut(usize) -> bool) -> Option<usize> {
        if self.heads.is_empty() {
            return None;
        }
        let mut link = self.heads[h as usize & (self.heads.len() - 1)];
        while let Some(k) = link.checked_sub(1) {
            if self.hashes[k] == h && is(k) {
                return Some(k);
            }
            link = self.older[k];
        }
        None
    }

    /// Number a new key hashing to `h`: the next number in first-seen order.
    fn insert(&mut self, h: u64) -> usize {
        let k = self.hashes.len();
        self.hashes.push(h);
        if k >= self.heads.len() {
            self.heads = vec![0; (2 * self.heads.len()).max(16)];
            self.older.clear();
            (0..k).for_each(|i| self.link(i));
        }
        self.link(k);
        k
    }

    /// Put key `k`, the newest linked so far, at the head of its bucket.
    fn link(&mut self, k: usize) {
        let b = self.hashes[k] as usize & (self.heads.len() - 1);
        self.older.push(self.heads[b]);
        self.heads[b] = k + 1;
    }
}

/// A set operation's right side: its distinct rows, each with how often
/// it occurs, found by hash and confirmed by [`cmp_rows`].
struct RowCounts<'a> {
    rows: Vec<(&'a Row, usize)>,
    index: KeyIndex,
}

impl<'a> RowCounts<'a> {
    fn of(rows: &'a [Row]) -> Self {
        let mut counts = RowCounts { rows: Vec::new(), index: KeyIndex::default() };
        for r in rows {
            let h = key_hash(r);
            match counts.find(h, r) {
                Some(k) => counts.rows[k].1 += 1,
                None => {
                    counts.index.insert(h);
                    counts.rows.push((r, 1));
                }
            }
        }
        counts
    }

    fn find(&self, h: u64, row: &Row) -> Option<usize> {
        self.index.find(h, |k| cmp_rows(self.rows[k].0, row) == std::cmp::Ordering::Equal)
    }

    /// How many of `row` are left to match, if the right side has it at all.
    fn get_mut(&mut self, row: &Row) -> Option<&mut usize> {
        let k = self.find(key_hash(row), row)?;
        Some(&mut self.rows[k].1)
    }
}

/// Execute the core of one SELECT (no set ops / order / limit).
///
/// Records a `sqlengine.exec.select_core` span whose fields are the
/// per-operator row counts of the pipeline: `rows_joined` (after FROM),
/// `rows_after_where`, `aggregated`, and `rows_out` (after projection and
/// DISTINCT).
fn execute_core(cx: &Cx<'_>, stmt: &SelectStmt) -> Result<ResultSet, SqlError> {
    let mut span = llmdm_obs::span("sqlengine.exec.select_core");
    let joined = build_from(cx, &stmt.from)?;
    // WHERE.
    let mut filtered: Vec<Vec<Value>> = Vec::new();
    for row in &joined.rows {
        let keep = match &stmt.selection {
            None => true,
            Some(pred) => truthy(pred, &Env::new(&joined.bindings, row, cx))?,
        };
        if keep {
            filtered.push(row.clone());
        }
    }

    let has_agg = has_aggregate_core(stmt);

    if span.is_recording() {
        span.field("rows_joined", joined.rows.len());
        span.field("rows_after_where", filtered.len());
        span.field("aggregated", has_agg);
        llmdm_obs::counter_add("sqlengine.exec.rows_scanned", joined.rows.len() as f64);
    }

    let (columns, rows) = if has_agg {
        aggregate_project(cx, stmt, &joined, filtered)?
    } else {
        plain_project(cx, stmt, &joined, &filtered)?
    };

    let mut rows = rows;
    if stmt.distinct {
        dedup_rows(&mut rows);
    }
    if span.is_recording() {
        span.field("rows_out", rows.len());
    }
    Ok(ResultSet { columns, rows, affected: 0 })
}

/// Build the joined row set for a FROM clause.
fn build_from(cx: &Cx<'_>, from: &[FromItem]) -> Result<Joined, SqlError> {
    let mut joined = Joined { bindings: Bindings::default(), rows: vec![Vec::new()] };
    for item in from {
        let table = cx.db.table(&item.table)?;
        let alias = item.alias.clone().unwrap_or_else(|| table.name.clone()).to_lowercase();
        if joined.bindings.aliases.contains(&alias) {
            return Err(SqlError::Exec(format!("duplicate table alias {alias}")));
        }
        joined.bindings.push(alias, table.schema.clone());

        let mut next_rows = Vec::new();
        match &item.join {
            None | Some((JoinType::Inner, _)) => {
                let cond = item.join.as_ref().map(|(_, c)| c);
                for left in &joined.rows {
                    for right in &table.rows {
                        let mut combined = left.clone();
                        combined.extend(right.iter().cloned());
                        let keep = match cond {
                            None => true,
                            Some(c) => truthy(c, &Env::new(&joined.bindings, &combined, cx))?,
                        };
                        if keep {
                            next_rows.push(combined);
                        }
                    }
                }
            }
            Some((JoinType::Left, cond)) => {
                for left in &joined.rows {
                    let mut matched = false;
                    for right in &table.rows {
                        let mut combined = left.clone();
                        combined.extend(right.iter().cloned());
                        if truthy(cond, &Env::new(&joined.bindings, &combined, cx))? {
                            matched = true;
                            next_rows.push(combined);
                        }
                    }
                    if !matched {
                        let mut combined = left.clone();
                        combined.extend(std::iter::repeat_n(Value::Null, table.schema.len()));
                        next_rows.push(combined);
                    }
                }
            }
        }
        joined.rows = next_rows;
    }
    if from.is_empty() {
        // Scalar SELECT: one empty row.
        joined.rows = vec![Vec::new()];
    }
    Ok(joined)
}

/// Output column name for a projected expression.
pub(crate) fn output_name(item: &SelectItem, idx: usize) -> String {
    match item {
        // Wildcards are expanded before naming; a stray one gets a
        // positional name rather than a panic.
        SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => format!("col{idx}"),
        SelectItem::Expr { expr, alias } => {
            if let Some(a) = alias {
                return a.to_lowercase();
            }
            match expr {
                Expr::Column { name, .. } => name.to_lowercase(),
                Expr::Aggregate { func, arg, distinct } => {
                    let inner = match arg {
                        None => "*".to_string(),
                        Some(e) => match e.as_ref() {
                            Expr::Column { name, .. } => name.to_lowercase(),
                            _ => "expr".to_string(),
                        },
                    };
                    let d = if *distinct { "distinct " } else { "" };
                    format!("{}({d}{inner})", func.name().to_lowercase())
                }
                _ => format!("col{idx}"),
            }
        }
    }
}

/// Expand wildcards into explicit column expressions.
pub(crate) fn expand_projections(
    stmt: &SelectStmt,
    bindings: &Bindings,
) -> Result<Vec<SelectItem>, SqlError> {
    let mut out = Vec::new();
    for item in &stmt.projections {
        match item {
            SelectItem::Wildcard => {
                for (alias, schema) in bindings.aliases.iter().zip(&bindings.schemas) {
                    for c in schema.columns() {
                        out.push(SelectItem::Expr {
                            expr: Expr::qcol(alias, &c.name),
                            alias: Some(c.name.clone()),
                        });
                    }
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let q = q.to_lowercase();
                let idx = bindings
                    .aliases
                    .iter()
                    .position(|a| *a == q)
                    .ok_or_else(|| SqlError::UnknownTable(q.clone()))?;
                for c in bindings.schemas[idx].columns() {
                    out.push(SelectItem::Expr {
                        expr: Expr::qcol(&q, &c.name),
                        alias: Some(c.name.clone()),
                    });
                }
            }
            other => out.push(other.clone()),
        }
    }
    if out.is_empty() {
        return Err(SqlError::Exec("SELECT with no projections".into()));
    }
    Ok(out)
}

/// Project one row through expanded (wildcard-free) select items.
pub(crate) fn project_row(items: &[SelectItem], env: &Env<'_>) -> Result<Row, SqlError> {
    let mut projected = Vec::with_capacity(items.len());
    for item in items {
        let SelectItem::Expr { expr, .. } = item else {
            return Err(SqlError::Exec("unexpanded wildcard in projection".into()));
        };
        projected.push(eval(expr, env)?);
    }
    Ok(projected)
}

fn plain_project(
    cx: &Cx<'_>,
    stmt: &SelectStmt,
    joined: &Joined,
    rows: &[Vec<Value>],
) -> Result<(Vec<String>, Vec<Row>), SqlError> {
    let items = expand_projections(stmt, &joined.bindings)?;
    let columns: Vec<String> = items.iter().enumerate().map(|(i, it)| output_name(it, i)).collect();
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        out.push(project_row(&items, &Env::new(&joined.bindings, row, cx))?);
    }
    Ok((columns, out))
}

/// Group `rows` by `group_by` keys (first-seen order, [`Value::group_eq`]
/// equality), apply HAVING, and project each surviving group through
/// `items`; `env` evaluates over one row and `empty` over a group with
/// none. Shared by the direct executor's aggregate path and the
/// planner's Aggregate operator. Keys and aggregate arguments are read in
/// place, so nothing is copied or grown per row, and a row finds its
/// group by the key's hash, not by comparing it with every group's.
pub(crate) fn aggregate_rows<'r, R>(
    empty: &Env<'_>,
    group_by: &'r [Expr],
    having: Option<&'r Expr>,
    items: &'r [SelectItem],
    rows: &'r [R],
    env: impl Fn(&'r R) -> Env<'r>,
) -> Result<Vec<Row>, SqlError> {
    // Each row's group, numbered in first-seen order.
    let mut keys: Vec<Vec<Cow<'r, Value>>> = Vec::new();
    let mut index = KeyIndex::default();
    let mut group_of: Vec<usize> = Vec::with_capacity(rows.len());
    let mut key: Vec<Cow<'r, Value>> = Vec::with_capacity(group_by.len());
    for row in rows {
        let env = env(row);
        key.clear();
        for e in group_by {
            key.push(operand(e, &env)?);
        }
        let h = key_hash(key.iter().map(|v| &**v));
        let g = match index.find(h, |g| keys[g].iter().zip(&key).all(|(a, b)| a.group_eq(b))) {
            Some(g) => g,
            None => {
                keys.push(key.clone());
                index.insert(h)
            }
        };
        group_of.push(g);
    }
    // Global aggregate over empty input still yields one group.
    if keys.is_empty() && group_by.is_empty() {
        keys.push(Vec::new());
    }
    // The groups' rows back to back, in input order within each (a
    // counting sort by group): group `g` is `members[bounds[g]..bounds[g + 1]]`.
    let mut bounds = vec![0usize; keys.len() + 1];
    for &g in &group_of {
        bounds[g + 1] += 1;
    }
    for g in 0..keys.len() {
        bounds[g + 1] += bounds[g];
    }
    let mut next = bounds.clone();
    let mut members: Vec<&'r R> = rows.iter().collect();
    for (row, &g) in rows.iter().zip(&group_of) {
        members[next[g]] = row;
        next[g] += 1;
    }

    let mut out = Vec::with_capacity(keys.len());
    for g in 0..keys.len() {
        let group = &members[bounds[g]..bounds[g + 1]];
        // HAVING.
        if let Some(h) = having {
            if !eval_grouped(h, group, &env, empty)?.is_truthy() {
                continue;
            }
        }
        let mut projected = Vec::with_capacity(items.len());
        for item in items {
            let SelectItem::Expr { expr, .. } = item else {
                return Err(SqlError::Exec("unexpanded wildcard in projection".into()));
            };
            projected.push(eval_grouped(expr, group, &env, empty)?);
        }
        out.push(projected);
    }
    Ok(out)
}

fn aggregate_project(
    cx: &Cx<'_>,
    stmt: &SelectStmt,
    joined: &Joined,
    rows: Vec<Vec<Value>>,
) -> Result<(Vec<String>, Vec<Row>), SqlError> {
    let items = expand_projections(stmt, &joined.bindings)?;
    let columns: Vec<String> = items.iter().enumerate().map(|(i, it)| output_name(it, i)).collect();
    let out = aggregate_rows(
        &Env::empty(cx),
        &stmt.group_by,
        stmt.having.as_ref(),
        &items,
        &rows,
        |row: &Vec<Value>| Env::new(&joined.bindings, row, cx),
    )?;
    Ok((columns, out))
}

/// Evaluate an expression in grouped context: aggregate nodes fold over the
/// group; everything else evaluates against the group's first row, or in
/// `empty` when it has none.
pub(crate) fn eval_grouped<'r, R>(
    expr: &'r Expr,
    group: &[&'r R],
    env: &impl Fn(&'r R) -> Env<'r>,
    empty: &Env<'_>,
) -> Result<Value, SqlError> {
    match expr {
        Expr::Aggregate { func, arg, distinct } => {
            let mut fold = Fold::new(*func);
            let mut seen: Vec<Cow<'r, Value>> = Vec::new();
            for &row in group {
                let v = match arg {
                    None => Cow::Borrowed(&Value::Int(1)), // COUNT(*)
                    Some(e) => operand(e, &env(row))?,
                };
                if arg.is_some() && v.is_null() {
                    continue;
                }
                if *distinct {
                    seen.push(v);
                } else {
                    fold.push(v);
                }
            }
            if *distinct {
                seen.sort_by(|a, b| a.total_cmp(b));
                seen.dedup_by(|a, b| a.group_eq(b));
                seen.into_iter().for_each(|v| fold.push(v));
            }
            fold.finish()
        }
        Expr::Binary { op, left, right } => {
            let l = eval_grouped(left, group, env, empty)?;
            let r = eval_grouped(right, group, env, empty)?;
            match op {
                BinOp::And | BinOp::Or => logic(*op, &l, &r),
                _ => eval_binop(*op, &l, &r),
            }
        }
        Expr::Unary { op, expr } => unary(*op, &eval_grouped(expr, group, env, empty)?),
        // Non-aggregate leaf: evaluate against the first row (valid for
        // GROUP BY keys; harmless for literals/subqueries).
        other => match group.first() {
            Some(&row) => eval(other, &env(row)),
            None => eval(other, empty),
        },
    }
}

/// One aggregate folded a value at a time, in the order given: the same
/// result — and the same first error — as folding the values collected
/// up front.
struct Fold<'v> {
    func: AggFunc,
    n: usize,
    sum: f64,
    all_int: bool,
    best: Option<Cow<'v, Value>>,
    err: Option<SqlError>,
}

impl<'v> Fold<'v> {
    fn new(func: AggFunc) -> Self {
        Fold { func, n: 0, sum: 0.0, all_int: true, best: None, err: None }
    }

    fn push(&mut self, v: Cow<'v, Value>) {
        use std::cmp::Ordering::{Greater, Less};
        self.n += 1;
        if self.err.is_some() {
            return;
        }
        let func = self.func;
        match func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => match &*v {
                Value::Int(i) => self.sum += *i as f64,
                Value::Float(f) => {
                    self.all_int = false;
                    self.sum += f;
                }
                other => self.err = Some(SqlError::Type(format!("{} of {other}", func.name()))),
            },
            AggFunc::Min | AggFunc::Max => {
                let take = match &self.best {
                    None => true,
                    Some(best) => match v.sql_cmp(best) {
                        Some(Less) => func == AggFunc::Min,
                        Some(Greater) => func == AggFunc::Max,
                        Some(_) => false,
                        None => {
                            self.err =
                                Some(SqlError::Type(format!("{} of mixed types", func.name())));
                            false
                        }
                    },
                };
                if take {
                    self.best = Some(v);
                }
            }
        }
    }

    fn finish(self) -> Result<Value, SqlError> {
        if let Some(e) = self.err {
            return Err(e);
        }
        Ok(match self.func {
            AggFunc::Count => Value::Int(self.n as i64),
            _ if self.n == 0 => Value::Null,
            AggFunc::Avg => Value::Float(self.sum / self.n as f64),
            AggFunc::Sum if self.all_int => Value::Int(self.sum as i64),
            AggFunc::Sum => Value::Float(self.sum),
            AggFunc::Min | AggFunc::Max => self.best.map_or(Value::Null, Cow::into_owned),
        })
    }
}

/// Resolve one ORDER BY key against output column names: by (unqualified)
/// name, by 1-based ordinal, or by an aggregate's generated output name.
/// Shared by the direct executor and the planner's Sort lowering so both
/// paths accept and reject exactly the same keys.
pub(crate) fn resolve_order_key(
    columns: &[String],
    k: &crate::ast::OrderKey,
) -> Result<usize, SqlError> {
    match &k.expr {
        Expr::Column { qualifier: _, name } => columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
            .ok_or_else(|| SqlError::UnknownColumn(format!("ORDER BY {name}"))),
        Expr::Literal(Value::Int(i)) if *i >= 1 && (*i as usize) <= columns.len() => {
            Ok((*i - 1) as usize)
        }
        Expr::Aggregate { .. } => {
            // ORDER BY COUNT(*) etc: find a matching output column.
            let name = output_name(&SelectItem::Expr { expr: k.expr.clone(), alias: None }, 0);
            columns.iter().position(|c| c.eq_ignore_ascii_case(&name)).ok_or_else(|| {
                SqlError::Exec(format!("ORDER BY aggregate {name} must appear in the projection"))
            })
        }
        other => Err(SqlError::Exec(format!(
            "unsupported ORDER BY expression {other:?}; project it first"
        ))),
    }
}

/// Compare two rows on `(column index, descending)` ORDER BY keys with
/// [`Value::order_cmp`] (NULLS LAST ascending / NULLS FIRST descending).
pub(crate) fn cmp_rows_on(a: &[Value], b: &[Value], keys: &[(usize, bool)]) -> std::cmp::Ordering {
    for &(idx, desc) in keys {
        let o = a[idx].order_cmp(&b[idx]);
        let o = if desc { o.reverse() } else { o };
        if o != std::cmp::Ordering::Equal {
            return o;
        }
    }
    std::cmp::Ordering::Equal
}

/// Stable-sort rows on `(column index, descending)` ORDER BY keys.
pub(crate) fn sort_rows(rows: &mut [Row], keys: &[(usize, bool)]) {
    rows.sort_by(|a, b| cmp_rows_on(a, b, keys));
}

/// Sort the final output by the statement's ORDER BY keys. Keys may
/// reference output columns (by name or alias); other expressions are
/// unsupported after projection and reported as errors.
fn sort_output(rs: &mut ResultSet, stmt: &SelectStmt) -> Result<(), SqlError> {
    let mut keys: Vec<(usize, bool)> = Vec::with_capacity(stmt.order_by.len());
    for k in &stmt.order_by {
        keys.push((resolve_order_key(&rs.columns, k)?, k.desc));
    }
    sort_rows(&mut rs.rows, &keys);
    Ok(())
}

/// The Spider-style concert/stadium fixture used by tests across the
/// workspace (also exercised in `llmdm-nlq`).
#[cfg(test)]
pub(crate) fn concert_db() -> Database {
    tests::concert_db()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Spider-style concert/stadium fixture used across the workspace.
    pub(crate) fn concert_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE stadium (stadium_id INT, name TEXT, capacity INT, city TEXT)")
            .unwrap();
        db.execute(
            "CREATE TABLE concert (concert_id INT, stadium_id INT, year INT, attendance INT)",
        )
        .unwrap();
        db.execute("CREATE TABLE sports_meeting (meeting_id INT, stadium_id INT, year INT)")
            .unwrap();
        db.execute(
            "INSERT INTO stadium VALUES \
             (1, 'Eagle Arena', 50000, 'Springfield'), \
             (2, 'River Dome', 30000, 'Shelbyville'), \
             (3, 'Sun Bowl', 45000, 'Ogdenville'), \
             (4, 'Metro Field', 20000, 'North Haverbrook')",
        )
        .unwrap();
        db.execute(
            "INSERT INTO concert VALUES \
             (10, 1, 2014, 40000), (11, 1, 2014, 42000), (12, 2, 2014, 25000), \
             (13, 3, 2015, 30000), (14, 1, 2015, 41000)",
        )
        .unwrap();
        db.execute("INSERT INTO sports_meeting VALUES (20, 2, 2015), (21, 3, 2015), (22, 1, 2016)")
            .unwrap();
        db
    }

    #[test]
    fn where_filter() {
        let mut db = concert_db();
        let rs = db.query("SELECT name FROM stadium WHERE capacity > 40000").unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn inner_join() {
        let mut db = concert_db();
        let rs = db
            .query(
                "SELECT DISTINCT s.name FROM stadium s JOIN concert c \
                 ON s.stadium_id = c.stadium_id WHERE c.year = 2014",
            )
            .unwrap();
        let mut names: Vec<String> = rs.rows.iter().map(|r| format!("{}", r[0])).collect();
        names.sort();
        assert_eq!(names, vec!["'Eagle Arena'", "'River Dome'"]);
    }

    #[test]
    fn left_join_pads_nulls() {
        let mut db = concert_db();
        let rs = db
            .query(
                "SELECT s.name, c.concert_id FROM stadium s LEFT JOIN concert c \
                 ON s.stadium_id = c.stadium_id",
            )
            .unwrap();
        // Metro Field (id 4) has no concerts → one padded row.
        let padded: Vec<_> = rs.rows.iter().filter(|r| r[1].is_null()).collect();
        assert_eq!(padded.len(), 1);
        assert_eq!(padded[0][0], Value::Str("Metro Field".into()));
    }

    #[test]
    fn group_by_count_having() {
        let mut db = concert_db();
        let rs = db
            .query(
                "SELECT stadium_id, COUNT(*) FROM concert GROUP BY stadium_id \
                 HAVING COUNT(*) >= 2",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(1));
        assert_eq!(rs.rows[0][1], Value::Int(3));
    }

    #[test]
    fn aggregates_sum_avg_min_max() {
        let mut db = concert_db();
        let rs = db
            .query("SELECT SUM(capacity), AVG(capacity), MIN(capacity), MAX(capacity) FROM stadium")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(145000));
        assert_eq!(rs.rows[0][1], Value::Float(36250.0));
        assert_eq!(rs.rows[0][2], Value::Int(20000));
        assert_eq!(rs.rows[0][3], Value::Int(50000));
    }

    #[test]
    fn count_distinct() {
        let mut db = concert_db();
        let rs = db.query("SELECT COUNT(DISTINCT stadium_id) FROM concert").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let mut db = concert_db();
        let rs =
            db.query("SELECT COUNT(*), SUM(capacity) FROM stadium WHERE capacity > 99999").unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(0));
        assert!(rs.rows[0][1].is_null());
    }

    #[test]
    fn order_by_limit_offset() {
        let mut db = concert_db();
        let rs = db
            .query("SELECT name, capacity FROM stadium ORDER BY capacity DESC LIMIT 2 OFFSET 1")
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Str("Sun Bowl".into()));
    }

    #[test]
    fn order_by_unprojected_aggregate() {
        let mut db = concert_db();
        let rs = db
            .query(
                "SELECT stadium_id FROM concert WHERE year = 2014 \
                 GROUP BY stadium_id ORDER BY COUNT(*) DESC LIMIT 1",
            )
            .unwrap();
        assert_eq!(rs.columns, vec!["stadium_id"]);
        assert_eq!(rs.rows[0][0], Value::Int(1));
    }

    #[test]
    fn order_by_aggregate() {
        let mut db = concert_db();
        let rs = db
            .query(
                "SELECT stadium_id, COUNT(*) FROM concert GROUP BY stadium_id \
                 ORDER BY COUNT(*) DESC LIMIT 1",
            )
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(1));
    }

    #[test]
    fn in_subquery() {
        let mut db = concert_db();
        let rs = db
            .query(
                "SELECT name FROM stadium WHERE stadium_id IN \
                 (SELECT stadium_id FROM concert WHERE year = 2015)",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn union_intersect_except() {
        let mut db = concert_db();
        // Stadiums with 2014 concerts: {1, 2}; with 2015 sports meetings: {2, 3}.
        let union = db
            .query(
                "SELECT stadium_id FROM concert WHERE year = 2014 UNION \
                 SELECT stadium_id FROM sports_meeting WHERE year = 2015",
            )
            .unwrap();
        assert_eq!(union.rows.len(), 3);
        let inter = db
            .query(
                "SELECT stadium_id FROM concert WHERE year = 2014 INTERSECT \
                 SELECT stadium_id FROM sports_meeting WHERE year = 2015",
            )
            .unwrap();
        assert_eq!(inter.rows.len(), 1);
        assert_eq!(inter.rows[0][0], Value::Int(2));
        let except = db
            .query(
                "SELECT stadium_id FROM concert WHERE year = 2014 EXCEPT \
                 SELECT stadium_id FROM sports_meeting WHERE year = 2015",
            )
            .unwrap();
        assert_eq!(except.rows.len(), 1);
        assert_eq!(except.rows[0][0], Value::Int(1));
    }

    #[test]
    fn union_all_keeps_duplicates() {
        let mut db = concert_db();
        let rs = db
            .query(
                "SELECT stadium_id FROM concert WHERE year = 2014 UNION ALL \
                 SELECT stadium_id FROM concert WHERE year = 2014",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 6);
    }

    #[test]
    fn scalar_subquery_in_where() {
        let mut db = concert_db();
        let rs = db
            .query("SELECT name FROM stadium WHERE capacity = (SELECT MAX(capacity) FROM stadium)")
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Str("Eagle Arena".into()));
    }

    #[test]
    fn exists_subquery() {
        let mut db = concert_db();
        let rs = db.query("SELECT name FROM stadium WHERE EXISTS (SELECT 1 FROM concert)").unwrap();
        assert_eq!(rs.rows.len(), 4);
        let rs = db
            .query(
                "SELECT name FROM stadium WHERE EXISTS \
                 (SELECT 1 FROM concert WHERE year = 1999)",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 0);
    }

    #[test]
    fn update_with_expression() {
        let mut db = concert_db();
        let rs = db
            .execute("UPDATE stadium SET capacity = capacity + 1000 WHERE stadium_id = 4")
            .unwrap();
        assert_eq!(rs.affected, 1);
        let rs = db.query("SELECT capacity FROM stadium WHERE stadium_id = 4").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(21000));
    }

    #[test]
    fn delete_with_predicate() {
        let mut db = concert_db();
        let rs = db.execute("DELETE FROM concert WHERE year = 2014").unwrap();
        assert_eq!(rs.affected, 3);
        assert_eq!(db.query("SELECT * FROM concert").unwrap().rows.len(), 2);
    }

    #[test]
    fn insert_with_named_columns() {
        let mut db = concert_db();
        db.execute("INSERT INTO stadium (stadium_id, name) VALUES (9, 'New Park')").unwrap();
        let rs = db.query("SELECT capacity FROM stadium WHERE stadium_id = 9").unwrap();
        assert!(rs.rows[0][0].is_null());
    }

    #[test]
    fn select_without_from() {
        let mut db = Database::new();
        let rs = db.query("SELECT 1 + 2 AS three, 'x'").unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(3));
        assert_eq!(rs.columns[0], "three");
    }

    #[test]
    fn wildcard_and_qualified_wildcard() {
        let mut db = concert_db();
        let rs = db
            .query("SELECT s.* FROM stadium s JOIN concert c ON s.stadium_id = c.stadium_id")
            .unwrap();
        assert_eq!(rs.columns.len(), 4);
        let rs = db.query("SELECT * FROM stadium").unwrap();
        assert_eq!(rs.columns, vec!["stadium_id", "name", "capacity", "city"]);
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let mut db = concert_db();
        assert!(matches!(db.query("SELECT * FROM missing"), Err(SqlError::UnknownTable(_))));
        assert!(matches!(db.query("SELECT wrong FROM stadium"), Err(SqlError::UnknownColumn(_))));
    }

    #[test]
    fn ambiguous_column_in_join() {
        let mut db = concert_db();
        let err = db.query(
            "SELECT stadium_id FROM stadium s JOIN concert c ON s.stadium_id = c.stadium_id",
        );
        assert!(matches!(err, Err(SqlError::AmbiguousColumn(_))));
    }

    #[test]
    fn duplicate_alias_rejected() {
        let mut db = concert_db();
        assert!(db.query("SELECT * FROM stadium s, concert s").is_err());
    }

    #[test]
    fn three_way_join() {
        let mut db = concert_db();
        let rs = db
            .query(
                "SELECT DISTINCT s.name FROM stadium s \
                 JOIN concert c ON s.stadium_id = c.stadium_id \
                 JOIN sports_meeting m ON s.stadium_id = m.stadium_id",
            )
            .unwrap();
        // Stadiums with both concerts and meetings: 1, 2, 3.
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn group_by_expression_key() {
        let mut db = concert_db();
        let rs =
            db.query("SELECT year, COUNT(*) FROM concert GROUP BY year ORDER BY year").unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0], vec![Value::Int(2014), Value::Int(3)]);
    }

    /// A fixture with NULL sort keys and mixed Int/Float keys.
    fn nullable_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT, score FLOAT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 2.5), (2, NULL), (3, 1.0), (4, NULL), (5, 3)")
            .unwrap();
        db
    }

    #[test]
    fn order_by_nulls_last_ascending() {
        let mut db = nullable_db();
        let rs = db.query("SELECT id, score FROM t ORDER BY score").unwrap();
        let ids: Vec<_> = rs.rows.iter().map(|r| r[0].clone()).collect();
        // Non-NULL ascending (mixed Int/Float compare numerically), then
        // NULLs last in input order (stable sort).
        assert_eq!(
            ids,
            vec![Value::Int(3), Value::Int(1), Value::Int(5), Value::Int(2), Value::Int(4)]
        );
    }

    #[test]
    fn order_by_nulls_first_descending() {
        let mut db = nullable_db();
        let rs = db.query("SELECT id, score FROM t ORDER BY score DESC").unwrap();
        let ids: Vec<_> = rs.rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(
            ids,
            vec![Value::Int(2), Value::Int(4), Value::Int(5), Value::Int(1), Value::Int(3)]
        );
    }

    #[test]
    fn order_by_unprojected_column_with_user_sort0_alias() {
        // A user column literally named `__sort0` must not collide with the
        // hidden ORDER BY projection (which is positional, not named).
        let mut db = concert_db();
        let rs =
            db.query("SELECT name AS __sort0 FROM stadium ORDER BY capacity DESC LIMIT 1").unwrap();
        assert_eq!(rs.columns, vec!["__sort0"]);
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Str("Eagle Arena".into()));
    }

    #[test]
    fn order_by_unprojected_plain_column() {
        let mut db = concert_db();
        let rs = db.query("SELECT name FROM stadium ORDER BY capacity").unwrap();
        assert_eq!(rs.columns, vec!["name"]);
        assert_eq!(rs.rows[0][0], Value::Str("Metro Field".into()));
        assert_eq!(rs.rows[3][0], Value::Str("Eagle Arena".into()));
    }

    #[test]
    fn order_by_aggregate_on_non_aggregate_core_is_typed_error() {
        // Legacy behavior silently collapsed the SELECT into a one-row
        // global aggregate; now it is a typed error on both paths.
        let mut db = concert_db();
        let planned = db.query("SELECT name FROM stadium ORDER BY COUNT(*)");
        assert!(matches!(planned, Err(SqlError::Exec(_))), "{planned:?}");
        let stmt =
            crate::parser::parse_statement("SELECT name FROM stadium ORDER BY COUNT(*)").unwrap();
        let Statement::Select(sel) = stmt else { panic!("not a select") };
        let direct = execute_select_direct(&db, &sel);
        assert!(matches!(direct, Err(SqlError::Exec(_))), "{direct:?}");
    }

    #[test]
    fn direct_oracle_matches_planner_on_subqueries() {
        let mut db = concert_db();
        let sql = "SELECT name FROM stadium WHERE stadium_id IN \
                   (SELECT stadium_id FROM concert WHERE year = 2015) ORDER BY name";
        let planned = db.query(sql).unwrap();
        let stmt = crate::parser::parse_statement(sql).unwrap();
        let Statement::Select(sel) = stmt else { panic!("not a select") };
        let direct = execute_select_direct(&db, &sel).unwrap();
        assert!(planned.bit_eq(&direct));
    }
}
