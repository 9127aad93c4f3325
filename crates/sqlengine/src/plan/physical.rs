//! Volcano-style physical operators.
//!
//! [`build`] turns an optimized [`LogicalPlan`] into a tree of pull
//! iterators ([`PhysOp`]); [`run`] drains the root and wraps the rows in
//! a [`ResultSet`]. Construction rules that are not one node per node:
//!
//! * **Binding.** Every operator resolves the columns of its expressions
//!   against its input's layout once, when it is built
//!   ([`Bindings::bind`]), and reads values by position from then on. A
//!   column that does not resolve stays by name and fails, as it always
//!   did, only if a row evaluates it.
//! * **Borrowed FROM rows.** The FROM region (scans, filters, joins)
//!   passes [`Tuple`]s: a scan hands out the stored row itself and a join
//!   of two stored rows hands out both sides, so only the operators that
//!   produce output rows (projection, aggregation) copy values. The
//!   layout above a scan is the table's stored schema, which is what
//!   [`LogicalPlan::bindings`] describes.
//! * **Fusion.** A chain of `Filter` nodes that bottoms out at a `Scan`
//!   fuses into [`ScanExec`]; a top-k `Sort` over a projection of bare
//!   columns fuses into [`TopKExec`], which projects only the rows it
//!   keeps.
//!
//! Every operator describes itself: [`PhysOp::stats`] returns its
//! [`OpStat`] with its inputs' below it, and [`render`] prints that tree.
//! `EXPLAIN` renders a tree it built and never pulled; `EXPLAIN ANALYZE`
//! builds the same tree, each operator wrapped in a [`TimedExec`], drains
//! it and renders it with what every operator did.
//!
//! Execution is wrapped in an `llmdm-obs` span (`sqlengine.plan.exec`);
//! when a recorder is active, per-operator `rows_out` counts are attached
//! as span fields and accumulated into `sqlengine.plan.rows.<op>`
//! counters.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::VecDeque;

use crate::ast::{Expr, JoinType, SelectItem, SetOp};
use crate::error::SqlError;
use crate::eval::{truthy, Env};
use crate::exec::{self, Bindings, Cx};
use crate::result::ResultSet;
use crate::schema::Row;
use crate::semantic::{SemCounters, SemScope};
use crate::value::Value;

use super::logical::LogicalPlan;

/// What one physical operator did, with its inputs' stats below it.
#[derive(Debug)]
pub(crate) struct OpStat<'a> {
    /// The logical node the operator was built from (a fused scan's
    /// `Scan`, a fused top-k's `Sort`).
    node: &'a LogicalPlan,
    /// `Filter` predicates fused into a scan.
    fused_filters: usize,
    /// Rows this operator produced.
    rows_out: usize,
    /// `next()` calls observed (only meaningful when `timed`).
    loops: u64,
    /// Inclusive wall time across all `next()` calls, in nanoseconds
    /// (only meaningful when `timed`).
    elapsed_ns: u64,
    /// Whether this node was wrapped in timing instrumentation
    /// (`EXPLAIN ANALYZE` builds; plain runs skip the timer entirely).
    timed: bool,
    /// `false` for operators that never ran: the right side of a join
    /// whose left side was empty is never pulled.
    executed: bool,
    /// Semantic-operator counters (model calls, dedup/cache hits,
    /// dollars), present only for operators that invoke the LLM.
    llm: Option<SemCounters>,
    /// The operator's inputs, left to right.
    inputs: Vec<OpStat<'a>>,
}

impl<'a> OpStat<'a> {
    fn new(node: &'a LogicalPlan, rows_out: usize, inputs: Vec<OpStat<'a>>) -> OpStat<'a> {
        OpStat {
            node,
            fused_filters: 0,
            rows_out,
            loops: 0,
            elapsed_ns: 0,
            timed: false,
            executed: true,
            llm: None,
            inputs,
        }
    }

    /// Attach a semantic operator's counters, if it has a scope.
    fn with_llm(mut self, scope: Option<&SemScope>) -> OpStat<'a> {
        self.llm = scope.map(|s| s.counters());
        self
    }

    /// This subtree, marked as never run.
    fn never(self) -> OpStat<'a> {
        let inputs = self.inputs.into_iter().map(OpStat::never).collect();
        OpStat { executed: false, inputs, ..self }
    }

    /// `scan.<table>`, `filter`, `join`, …: the suffix of the
    /// `sqlengine.plan.rows.<label>` counters.
    fn label(&self) -> Cow<'static, str> {
        Cow::Borrowed(match self.node {
            LogicalPlan::OneRow => "onerow",
            LogicalPlan::Scan { table, .. } => return Cow::Owned(format!("scan.{table}")),
            LogicalPlan::Filter { .. } => "filter",
            LogicalPlan::LlmFilter { .. } => "llm_filter",
            LogicalPlan::Join { .. } => "join",
            LogicalPlan::LlmMap { .. } => "llm_map",
            LogicalPlan::Project { .. } => "project",
            LogicalPlan::Aggregate { .. } => "aggregate",
            LogicalPlan::Distinct { .. } => "distinct",
            LogicalPlan::SetOp { .. } => "setop",
            LogicalPlan::Sort { fetch: Some(_), .. } => "topk",
            LogicalPlan::Sort { fetch: None, .. } => "sort",
            LogicalPlan::Strip { .. } => "strip",
            LogicalPlan::Limit { .. } => "limit",
        })
    }
}

/// A pull-based operator: `next()` yields one row at a time — a
/// [`Tuple`] in the FROM region, an owned [`Row`] above it.
pub(crate) trait PhysOp<'a, T> {
    /// Produce the next row, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<T>, SqlError>;
    /// This operator's [`OpStat`], its inputs' below it.
    fn stats(&self) -> OpStat<'a>;
}

type FromOp<'a> = Box<dyn PhysOp<'a, Tuple<'a>> + 'a>;
type RowOp<'a> = Box<dyn PhysOp<'a, Row> + 'a>;

/// A row of the FROM region on its way up the operator tree.
enum Tuple<'a> {
    /// A stored row, borrowed from its table.
    Stored(&'a [Value]),
    /// A join's left and right stored rows; `None` is a LEFT JOIN's NULL
    /// padding.
    Pair(&'a [Value], Option<&'a [Value]>),
    /// A row a join had to build: its left side was itself a join.
    Owned(Row),
}

impl<'a> Tuple<'a> {
    fn env<'e>(&'e self, layout: &'e Bindings, cx: &'e Cx<'e>) -> Env<'e> {
        match self {
            Tuple::Stored(row) => Env::new(layout, row, cx),
            Tuple::Pair(left, right) => Env::pair(layout, left, *right, cx),
            Tuple::Owned(row) => Env::new(layout, row, cx),
        }
    }

    /// The row as one slice of `width` values: a stored row stays
    /// borrowed, a pair is concatenated.
    fn into_slice(self, width: usize) -> Cow<'a, [Value]> {
        match self {
            Tuple::Stored(row) => Cow::Borrowed(row),
            Tuple::Owned(row) => Cow::Owned(row),
            Tuple::Pair(left, right) => {
                let mut row = left.to_vec();
                match right {
                    Some(r) => row.extend_from_slice(r),
                    None => row.resize(width, Value::Null),
                }
                Cow::Owned(row)
            }
        }
    }
}

fn timed<'a, T: 'a>(
    op: Box<dyn PhysOp<'a, T> + 'a>,
    instrument: bool,
) -> Box<dyn PhysOp<'a, T> + 'a> {
    if instrument {
        Box::new(TimedExec { inner: op, loops: 0, elapsed_ns: 0 })
    } else {
        op
    }
}

fn internal(what: &str) -> SqlError {
    SqlError::Exec(format!("internal: {what}"))
}

/// Build the operator tree for a plan without pulling a row. With
/// `instrument`, every operator is wrapped in a [`TimedExec`] that counts
/// `next()` calls and accumulates inclusive wall time — the `EXPLAIN
/// ANALYZE` path; plain execution passes `false` and pays nothing.
pub(crate) fn build<'a>(
    cx: &'a Cx<'a>,
    plan: &'a LogicalPlan,
    instrument: bool,
) -> Result<RowOp<'a>, SqlError> {
    let op: RowOp<'a> = match plan {
        LogicalPlan::Project { input, items, .. } | LogicalPlan::LlmMap { input, items, .. } => {
            let layout = input.bindings();
            Box::new(ProjectExec {
                cx,
                node: plan,
                items: layout.bind_items(items),
                layout,
                input: build_from(cx, input, instrument)?,
                scope: matches!(plan, LogicalPlan::LlmMap { .. }).then(|| SemScope::new(cx)),
                rows_out: 0,
            })
        }
        LogicalPlan::Aggregate { input, group_by, having, items, .. } => {
            let has_llm = group_by.iter().any(Expr::contains_llm)
                || having.as_ref().is_some_and(|h| h.contains_llm())
                || items.iter().any(|it| match it {
                    SelectItem::Expr { expr, .. } => expr.contains_llm(),
                    _ => false,
                });
            let layout = input.bindings();
            Box::new(AggregateExec {
                cx,
                node: plan,
                group_by: group_by.iter().map(|e| layout.bind(e)).collect(),
                having: having.as_ref().map(|h| layout.bind(h)),
                items: layout.bind_items(items),
                layout,
                input: build_from(cx, input, instrument)?,
                scope: has_llm.then(|| SemScope::new(cx)),
                buf: VecDeque::new(),
                done: false,
                rows_out: 0,
            })
        }
        LogicalPlan::Distinct { input } => Box::new(DistinctExec {
            node: plan,
            input: build(cx, input, instrument)?,
            buf: VecDeque::new(),
            done: false,
            rows_out: 0,
        }),
        LogicalPlan::SetOp { left, right, op, all } => Box::new(SetOpExec {
            node: plan,
            left_cols: left.output_columns().len(),
            right_cols: right.output_columns().len(),
            left: build(cx, left, instrument)?,
            right: build(cx, right, instrument)?,
            op: *op,
            all: *all,
            buf: VecDeque::new(),
            done: false,
            rows_out: 0,
        }),
        LogicalPlan::Sort { input, keys, fetch } => {
            let fused = match fetch {
                Some(k) => TopKExec::build(cx, plan, input, keys, *k, instrument)?,
                None => None,
            };
            match fused {
                Some(op) => Box::new(op),
                None => Box::new(SortExec {
                    node: plan,
                    input: build(cx, input, instrument)?,
                    keys,
                    fetch: *fetch,
                    buf: VecDeque::new(),
                    done: false,
                    rows_out: 0,
                }),
            }
        }
        LogicalPlan::Strip { input, keep } => Box::new(StripExec {
            node: plan,
            input: build(cx, input, instrument)?,
            keep: *keep,
            rows_out: 0,
        }),
        LogicalPlan::Limit { input, limit, offset } => Box::new(LimitExec {
            node: plan,
            input: build(cx, input, instrument)?,
            limit: *limit,
            offset: *offset,
            skipped: 0,
            emitted: 0,
        }),
        LogicalPlan::OneRow
        | LogicalPlan::Scan { .. }
        | LogicalPlan::Filter { .. }
        | LogicalPlan::LlmFilter { .. }
        | LogicalPlan::Join { .. } => return Err(internal("FROM-region plan above a projection")),
    };
    Ok(timed(op, instrument))
}

/// Build the FROM region: scans, filters and joins.
fn build_from<'a>(
    cx: &'a Cx<'a>,
    plan: &'a LogicalPlan,
    instrument: bool,
) -> Result<FromOp<'a>, SqlError> {
    let op: FromOp<'a> = match plan {
        LogicalPlan::OneRow => Box::new(OneRowExec { node: plan, emitted: false }),
        LogicalPlan::Scan { .. } => build_scan(cx, plan, Vec::new())?,
        LogicalPlan::Filter { input, predicate }
        | LogicalPlan::LlmFilter { input, predicate, .. } => {
            let semantic = matches!(plan, LogicalPlan::LlmFilter { .. });
            // Fuse Filter chains over a base scan. Predicates collected
            // outside-in are reversed so the innermost (leftmost WHERE
            // conjunct) evaluates first, as on the direct path.
            let mut preds: Vec<&'a Expr> = vec![predicate];
            let mut base: &'a LogicalPlan = input;
            while let LogicalPlan::Filter { input, predicate } = base {
                preds.push(predicate);
                base = input;
            }
            if !semantic && matches!(base, LogicalPlan::Scan { .. }) {
                preds.reverse();
                build_scan(cx, base, preds)?
            } else {
                let layout = input.bindings();
                Box::new(FilterExec {
                    cx,
                    node: plan,
                    predicate: layout.bind(predicate),
                    layout,
                    input: build_from(cx, input, instrument)?,
                    scope: semantic.then(|| SemScope::new(cx)),
                    rows_out: 0,
                })
            }
        }
        LogicalPlan::Join { left, right, join, on } => {
            let (left_layout, right_layout) = (left.bindings(), right.bindings());
            let layout = left_layout.concat(&right_layout);
            Box::new(NLJoinExec {
                cx,
                node: plan,
                on: on.as_ref().map(|e| layout.bind(e)),
                layout,
                left_width: left_layout.width(),
                right_width: right_layout.width(),
                left: build_from(cx, left, instrument)?,
                right: build_from(cx, right, instrument)?,
                right_rows: Vec::new(),
                right_ready: false,
                join: *join,
                // A semantic ON that survives lowering (LEFT JOIN can't be
                // rewritten to cross-join + filter) still dedups prompts and
                // attributes calls to this operator.
                scope: on.as_ref().is_some_and(|e| e.contains_llm()).then(|| SemScope::new(cx)),
                cur: None,
                right_idx: 0,
                matched: false,
                rows_out: 0,
            })
        }
        _ => return Err(internal("output-region plan inside FROM")),
    };
    Ok(timed(op, instrument))
}

fn build_scan<'a>(
    cx: &'a Cx<'a>,
    scan: &'a LogicalPlan,
    predicates: Vec<&'a Expr>,
) -> Result<FromOp<'a>, SqlError> {
    let LogicalPlan::Scan { table, .. } = scan else {
        return Err(internal("build_scan on a non-scan node"));
    };
    let t = cx.db.table(table)?;
    let layout = scan.bindings();
    Ok(Box::new(ScanExec {
        cx,
        node: scan,
        rows: &t.rows,
        idx: 0,
        predicates: predicates.into_iter().map(|p| layout.bind(p)).collect(),
        layout,
        rows_out: 0,
    }))
}

/// Execute a plan and collect the result set.
pub(crate) fn run(cx: &Cx<'_>, plan: &LogicalPlan) -> Result<ResultSet, SqlError> {
    run_with(cx, plan, false).map(|(rs, _)| rs)
}

/// Execute a plan with per-operator instrumentation ([`TimedExec`]
/// wrappers) and return both the result set and the root's [`OpStat`] —
/// the `EXPLAIN ANALYZE` entry point.
pub(crate) fn run_analyzed<'a>(
    cx: &'a Cx<'a>,
    plan: &'a LogicalPlan,
) -> Result<(ResultSet, OpStat<'a>), SqlError> {
    run_with(cx, plan, true).map(|(rs, root)| (rs, root.stats()))
}

fn run_with<'a>(
    cx: &'a Cx<'a>,
    plan: &'a LogicalPlan,
    instrument: bool,
) -> Result<(ResultSet, RowOp<'a>), SqlError> {
    let mut span = llmdm_obs::span("sqlengine.plan.exec");
    let mut root = build(cx, plan, instrument)?;
    let mut rows: Vec<Row> = Vec::new();
    let failure = loop {
        match root.next() {
            Ok(Some(r)) => rows.push(r),
            Ok(None) => break None,
            Err(e) => break Some(e),
        }
    };
    if span.is_recording() {
        fn record(st: &OpStat<'_>, i: &mut usize, span: &mut llmdm_obs::Span<'_>) {
            let label = st.label();
            span.field(&format!("rows_out.{i}.{label}"), st.rows_out);
            llmdm_obs::counter_add(&format!("sqlengine.plan.rows.{label}"), st.rows_out as f64);
            *i += 1;
            for input in &st.inputs {
                record(input, i, span);
            }
        }
        record(&root.stats(), &mut 0, &mut span);
        span.field("rows_out", rows.len());
        if failure.is_some() {
            span.field("error", true);
        }
    }
    match failure {
        Some(e) => Err(e),
        None => Ok((ResultSet { columns: plan.output_columns(), rows, affected: 0 }, root)),
    }
}

/// The `EXPLAIN ANALYZE` decorator: forwards `next()` while counting
/// calls and accumulating inclusive wall time, and annotates its inner
/// operator's [`OpStat`].
struct TimedExec<'a, T> {
    inner: Box<dyn PhysOp<'a, T> + 'a>,
    loops: u64,
    elapsed_ns: u64,
}

impl<'a, T> PhysOp<'a, T> for TimedExec<'a, T> {
    fn next(&mut self) -> Result<Option<T>, SqlError> {
        let t0 = std::time::Instant::now();
        let out = self.inner.next();
        self.elapsed_ns += t0.elapsed().as_nanos() as u64;
        self.loops += 1;
        out
    }

    fn stats(&self) -> OpStat<'a> {
        OpStat { loops: self.loops, elapsed_ns: self.elapsed_ns, timed: true, ..self.inner.stats() }
    }
}

// ---------------- FROM region ----------------

struct OneRowExec<'a> {
    node: &'a LogicalPlan,
    emitted: bool,
}

impl<'a> PhysOp<'a, Tuple<'a>> for OneRowExec<'a> {
    fn next(&mut self) -> Result<Option<Tuple<'a>>, SqlError> {
        if self.emitted {
            Ok(None)
        } else {
            self.emitted = true;
            Ok(Some(Tuple::Stored(&[])))
        }
    }

    fn stats(&self) -> OpStat<'a> {
        OpStat::new(self.node, usize::from(self.emitted), Vec::new())
    }
}

/// Whether every predicate holds, in order, stopping at the first that
/// does not.
fn passes(predicates: &[Expr], env: &Env<'_>) -> Result<bool, SqlError> {
    for p in predicates {
        if !truthy(p, env)? {
            return Ok(false);
        }
    }
    Ok(true)
}

struct ScanExec<'a> {
    cx: &'a Cx<'a>,
    node: &'a LogicalPlan,
    rows: &'a [Row],
    idx: usize,
    layout: Bindings,
    predicates: Vec<Expr>,
    rows_out: usize,
}

impl<'a> PhysOp<'a, Tuple<'a>> for ScanExec<'a> {
    fn next(&mut self) -> Result<Option<Tuple<'a>>, SqlError> {
        let rows = self.rows;
        while let Some(row) = rows.get(self.idx) {
            self.idx += 1;
            // A scan with nothing to test hands each row on untouched.
            if self.predicates.is_empty()
                || passes(&self.predicates, &Env::new(&self.layout, row, self.cx))?
            {
                self.rows_out += 1;
                return Ok(Some(Tuple::Stored(row)));
            }
        }
        Ok(None)
    }

    fn stats(&self) -> OpStat<'a> {
        let fused_filters = self.predicates.len();
        OpStat { fused_filters, ..OpStat::new(self.node, self.rows_out, Vec::new()) }
    }
}

/// A row filter that is not fused into a scan. With a [`SemScope`] it is
/// the semantic predicate operator (`LLM_FILTER` / `LLM_MATCH`): identical
/// prompts within its input dedup to one model call, and model usage
/// (calls, cache hits, dollars) is attributed to it in `EXPLAIN ANALYZE`.
struct FilterExec<'a> {
    cx: &'a Cx<'a>,
    node: &'a LogicalPlan,
    layout: Bindings,
    input: FromOp<'a>,
    predicate: Expr,
    scope: Option<SemScope>,
    rows_out: usize,
}

impl<'a> PhysOp<'a, Tuple<'a>> for FilterExec<'a> {
    fn next(&mut self) -> Result<Option<Tuple<'a>>, SqlError> {
        while let Some(t) = self.input.next()? {
            let env = t.env(&self.layout, self.cx).scoped(self.scope.as_ref());
            if truthy(&self.predicate, &env)? {
                self.rows_out += 1;
                return Ok(Some(t));
            }
        }
        Ok(None)
    }

    fn stats(&self) -> OpStat<'a> {
        OpStat::new(self.node, self.rows_out, vec![self.input.stats()])
            .with_llm(self.scope.as_ref())
    }
}

struct NLJoinExec<'a> {
    cx: &'a Cx<'a>,
    node: &'a LogicalPlan,
    /// Left then right layout, for `on`.
    layout: Bindings,
    left_width: usize,
    right_width: usize,
    left: FromOp<'a>,
    /// Drained into `right_rows` on the first left row, so an empty left
    /// side never pulls it.
    right: FromOp<'a>,
    /// The right side's rows (stored rows stay borrowed).
    right_rows: Vec<Cow<'a, [Value]>>,
    right_ready: bool,
    join: JoinType,
    on: Option<Expr>,
    /// Present when `on` contains a semantic predicate: dedups prompts
    /// across the whole pairwise comparison and attributes model usage.
    scope: Option<SemScope>,
    /// Current left row being matched.
    cur: Option<Cow<'a, [Value]>>,
    right_idx: usize,
    matched: bool,
    rows_out: usize,
}

impl<'a> NLJoinExec<'a> {
    fn on_matches(&self, left: &[Value], right: &[Value]) -> Result<bool, SqlError> {
        let Some(on) = &self.on else { return Ok(true) };
        // Evaluate against both sides without building the joined row.
        let env = Env::pair(&self.layout, left, Some(right), self.cx);
        truthy(on, &env.scoped(self.scope.as_ref()))
    }

    /// The joined row; `right == None` pads with NULLs. Two stored rows
    /// stay borrowed.
    fn joined(&self, left: &Cow<'a, [Value]>, right: Option<&Cow<'a, [Value]>>) -> Tuple<'a> {
        match (left, right) {
            (Cow::Borrowed(l), Some(Cow::Borrowed(r))) => Tuple::Pair(l, Some(r)),
            (Cow::Borrowed(l), None) => Tuple::Pair(l, None),
            (l, r) => {
                let mut row = Vec::with_capacity(self.left_width + self.right_width);
                row.extend_from_slice(l);
                match r {
                    Some(r) => row.extend_from_slice(r),
                    None => row.resize(self.left_width + self.right_width, Value::Null),
                }
                Tuple::Owned(row)
            }
        }
    }
}

impl<'a> PhysOp<'a, Tuple<'a>> for NLJoinExec<'a> {
    fn next(&mut self) -> Result<Option<Tuple<'a>>, SqlError> {
        loop {
            if self.cur.is_none() {
                match self.left.next()? {
                    Some(t) => {
                        self.cur = Some(t.into_slice(self.left_width));
                        self.right_idx = 0;
                        self.matched = false;
                        if !self.right_ready {
                            while let Some(r) = self.right.next()? {
                                self.right_rows.push(r.into_slice(self.right_width));
                            }
                            self.right_ready = true;
                        }
                    }
                    None => return Ok(None),
                }
            }
            let Some(left) = self.cur.take() else { unreachable!() };
            while self.right_idx < self.right_rows.len() {
                let right = &self.right_rows[self.right_idx];
                self.right_idx += 1;
                if self.on_matches(&left, right)? {
                    self.matched = true;
                    let out = self.joined(&left, Some(right));
                    self.cur = Some(left);
                    self.rows_out += 1;
                    return Ok(Some(out));
                }
            }
            // Right side exhausted for this left row.
            if self.join == JoinType::Left && !self.matched {
                self.rows_out += 1;
                return Ok(Some(self.joined(&left, None)));
            }
            // Inner with no match: move on to the next left row.
        }
    }

    fn stats(&self) -> OpStat<'a> {
        let right = self.right.stats();
        let right = if self.right_ready { right } else { right.never() };
        OpStat::new(self.node, self.rows_out, vec![self.left.stats(), right])
            .with_llm(self.scope.as_ref())
    }
}

// ---------------- output region ----------------

/// Projection. With a [`SemScope`] it is the semantic projection
/// (`LLM_MAP` and friends in the select list): prompts dedup within it and
/// model usage is attributed to it.
struct ProjectExec<'a> {
    cx: &'a Cx<'a>,
    node: &'a LogicalPlan,
    layout: Bindings,
    input: FromOp<'a>,
    items: Vec<SelectItem>,
    scope: Option<SemScope>,
    rows_out: usize,
}

impl<'a> PhysOp<'a, Row> for ProjectExec<'a> {
    fn next(&mut self) -> Result<Option<Row>, SqlError> {
        match self.input.next()? {
            Some(t) => {
                let env = t.env(&self.layout, self.cx).scoped(self.scope.as_ref());
                let out = exec::project_row(&self.items, &env)?;
                self.rows_out += 1;
                Ok(Some(out))
            }
            None => Ok(None),
        }
    }

    fn stats(&self) -> OpStat<'a> {
        OpStat::new(self.node, self.rows_out, vec![self.input.stats()])
            .with_llm(self.scope.as_ref())
    }
}

struct AggregateExec<'a> {
    cx: &'a Cx<'a>,
    node: &'a LogicalPlan,
    layout: Bindings,
    input: FromOp<'a>,
    group_by: Vec<Expr>,
    having: Option<Expr>,
    items: Vec<SelectItem>,
    /// Present when any aggregate expression contains a semantic
    /// operator.
    scope: Option<SemScope>,
    buf: VecDeque<Row>,
    done: bool,
    rows_out: usize,
}

impl<'a> PhysOp<'a, Row> for AggregateExec<'a> {
    fn next(&mut self) -> Result<Option<Row>, SqlError> {
        if !self.done {
            let mut rows = Vec::new();
            while let Some(t) = self.input.next()? {
                rows.push(t);
            }
            let (layout, cx, scope) = (&self.layout, self.cx, self.scope.as_ref());
            self.buf = exec::aggregate_rows(
                &Env::empty(cx).scoped(scope),
                &self.group_by,
                self.having.as_ref(),
                &self.items,
                &rows,
                |t: &Tuple<'_>| t.env(layout, cx).scoped(scope),
            )?
            .into();
            self.done = true;
        }
        let row = self.buf.pop_front();
        self.rows_out += usize::from(row.is_some());
        Ok(row)
    }

    fn stats(&self) -> OpStat<'a> {
        OpStat::new(self.node, self.rows_out, vec![self.input.stats()])
            .with_llm(self.scope.as_ref())
    }
}

struct DistinctExec<'a> {
    node: &'a LogicalPlan,
    input: RowOp<'a>,
    buf: VecDeque<Row>,
    done: bool,
    rows_out: usize,
}

impl<'a> PhysOp<'a, Row> for DistinctExec<'a> {
    fn next(&mut self) -> Result<Option<Row>, SqlError> {
        if !self.done {
            let mut rows = Vec::new();
            while let Some(r) = self.input.next()? {
                rows.push(r);
            }
            exec::dedup_rows(&mut rows);
            self.buf = rows.into();
            self.done = true;
        }
        let row = self.buf.pop_front();
        self.rows_out += usize::from(row.is_some());
        Ok(row)
    }

    fn stats(&self) -> OpStat<'a> {
        OpStat::new(self.node, self.rows_out, vec![self.input.stats()])
    }
}

struct SetOpExec<'a> {
    node: &'a LogicalPlan,
    left_cols: usize,
    right_cols: usize,
    left: RowOp<'a>,
    right: RowOp<'a>,
    op: SetOp,
    all: bool,
    buf: VecDeque<Row>,
    done: bool,
    rows_out: usize,
}

impl<'a> PhysOp<'a, Row> for SetOpExec<'a> {
    fn next(&mut self) -> Result<Option<Row>, SqlError> {
        if !self.done {
            // Drain both sides *before* the arity check so error ordering
            // matches the direct executor (which runs each side fully).
            let mut lrows = Vec::new();
            while let Some(r) = self.left.next()? {
                lrows.push(r);
            }
            let mut rrows = Vec::new();
            while let Some(r) = self.right.next()? {
                rrows.push(r);
            }
            if self.left_cols != self.right_cols {
                return Err(SqlError::Exec(format!(
                    "set operation arity mismatch: {} vs {}",
                    self.left_cols, self.right_cols
                )));
            }
            self.buf = exec::apply_set_op(self.op, self.all, lrows, rrows).into();
            self.done = true;
        }
        let row = self.buf.pop_front();
        self.rows_out += usize::from(row.is_some());
        Ok(row)
    }

    fn stats(&self) -> OpStat<'a> {
        OpStat::new(self.node, self.rows_out, vec![self.left.stats(), self.right.stats()])
    }
}

/// Top-k selection: keep a sorted prefix of at most `k` items. Inserting
/// at the *upper* bound of the equal range keeps the selection identical
/// to a full stable sort + take(k). The input is still drained fully
/// (even when k = 0) so runtime errors below the sort surface exactly as
/// they do on the direct path.
fn top_k<T>(
    mut next: impl FnMut() -> Result<Option<T>, SqlError>,
    k: usize,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> Result<Vec<T>, SqlError> {
    let mut top: Vec<T> = Vec::new();
    while let Some(item) = next()? {
        if k == 0 || (top.len() == k && cmp(&item, &top[k - 1]) != Ordering::Less) {
            continue;
        }
        let pos = top.partition_point(|r| cmp(r, &item) != Ordering::Greater);
        top.insert(pos, item);
        top.truncate(k);
    }
    Ok(top)
}

struct SortExec<'a> {
    node: &'a LogicalPlan,
    input: RowOp<'a>,
    keys: &'a [(usize, bool)],
    fetch: Option<usize>,
    buf: VecDeque<Row>,
    done: bool,
    rows_out: usize,
}

impl<'a> PhysOp<'a, Row> for SortExec<'a> {
    fn next(&mut self) -> Result<Option<Row>, SqlError> {
        if !self.done {
            let keys = self.keys;
            let input = &mut self.input;
            let rows = match self.fetch {
                Some(k) => top_k(|| input.next(), k, |a, b| exec::cmp_rows_on(a, b, keys))?,
                None => {
                    let mut rows = Vec::new();
                    while let Some(r) = input.next()? {
                        rows.push(r);
                    }
                    exec::sort_rows(&mut rows, keys);
                    rows
                }
            };
            self.buf = rows.into();
            self.done = true;
        }
        let row = self.buf.pop_front();
        self.rows_out += usize::from(row.is_some());
        Ok(row)
    }

    fn stats(&self) -> OpStat<'a> {
        OpStat::new(self.node, self.rows_out, vec![self.input.stats()])
    }
}

/// A top-k over a projection whose items are all bound columns or
/// literals: the k rows are chosen among the projection's input tuples,
/// compared on the key columns where they are stored, and only those k
/// are projected. Projecting such items can neither fail nor call the
/// model, so the result is the unfused plan's, without a row copy per
/// input row. Reports the absorbed projection as its input, with the
/// rows it consumed and no timing of its own.
struct TopKExec<'a> {
    cx: &'a Cx<'a>,
    node: &'a LogicalPlan,
    /// The absorbed `Project`.
    project: &'a LogicalPlan,
    layout: Bindings,
    input: FromOp<'a>,
    items: Vec<SelectItem>,
    /// `(slot, descending)` per sort key; literal keys never decide.
    keys: Vec<(usize, bool)>,
    fetch: usize,
    buf: VecDeque<Row>,
    done: bool,
    rows_out: usize,
    /// Rows the absorbed projection consumed (and would have produced).
    projected: usize,
}

impl<'a> TopKExec<'a> {
    fn build(
        cx: &'a Cx<'a>,
        node: &'a LogicalPlan,
        project: &'a LogicalPlan,
        keys: &[(usize, bool)],
        fetch: usize,
        instrument: bool,
    ) -> Result<Option<TopKExec<'a>>, SqlError> {
        let LogicalPlan::Project { input, items, .. } = project else { return Ok(None) };
        let layout = input.bindings();
        let items = layout.bind_items(items);
        let slot = |item: &SelectItem| match item {
            SelectItem::Expr { expr: Expr::Slot { index, .. }, .. } => Some(*index),
            _ => None,
        };
        let literal =
            |item: &SelectItem| matches!(item, SelectItem::Expr { expr: Expr::Literal(_), .. });
        if !items.iter().all(|it| slot(it).is_some() || literal(it)) {
            return Ok(None);
        }
        let keys =
            keys.iter().filter_map(|&(i, desc)| Some((slot(items.get(i)?)?, desc))).collect();
        Ok(Some(TopKExec {
            cx,
            node,
            project,
            input: build_from(cx, input, instrument)?,
            layout,
            items,
            keys,
            fetch,
            buf: VecDeque::new(),
            done: false,
            rows_out: 0,
            projected: 0,
        }))
    }
}

impl<'a> PhysOp<'a, Row> for TopKExec<'a> {
    fn next(&mut self) -> Result<Option<Row>, SqlError> {
        if !self.done {
            let (layout, cx, keys) = (&self.layout, self.cx, &self.keys);
            let (input, projected) = (&mut self.input, &mut self.projected);
            let next = || {
                let t = input.next()?;
                *projected += usize::from(t.is_some());
                Ok(t)
            };
            let cmp = |a: &Tuple<'_>, b: &Tuple<'_>| {
                let (a, b) = (a.env(layout, cx), b.env(layout, cx));
                for &(slot, desc) in keys {
                    // Both present: a bound slot lies inside every row of
                    // its layout.
                    let o = match (a.value(slot), b.value(slot)) {
                        (Some(x), Some(y)) => x.order_cmp(y),
                        _ => Ordering::Equal,
                    };
                    let o = if desc { o.reverse() } else { o };
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                Ordering::Equal
            };
            let top = top_k(next, self.fetch, cmp)?;
            self.buf = top
                .iter()
                .map(|t| exec::project_row(&self.items, &t.env(layout, cx)))
                .collect::<Result<_, _>>()?;
            self.done = true;
        }
        let row = self.buf.pop_front();
        self.rows_out += usize::from(row.is_some());
        Ok(row)
    }

    fn stats(&self) -> OpStat<'a> {
        let project = OpStat::new(self.project, self.projected, vec![self.input.stats()]);
        OpStat::new(self.node, self.rows_out, vec![project])
    }
}

struct StripExec<'a> {
    node: &'a LogicalPlan,
    input: RowOp<'a>,
    keep: usize,
    rows_out: usize,
}

impl<'a> PhysOp<'a, Row> for StripExec<'a> {
    fn next(&mut self) -> Result<Option<Row>, SqlError> {
        match self.input.next()? {
            Some(mut row) => {
                row.truncate(self.keep);
                self.rows_out += 1;
                Ok(Some(row))
            }
            None => Ok(None),
        }
    }

    fn stats(&self) -> OpStat<'a> {
        OpStat::new(self.node, self.rows_out, vec![self.input.stats()])
    }
}

struct LimitExec<'a> {
    node: &'a LogicalPlan,
    input: RowOp<'a>,
    limit: Option<usize>,
    offset: usize,
    skipped: usize,
    emitted: usize,
}

impl<'a> PhysOp<'a, Row> for LimitExec<'a> {
    fn next(&mut self) -> Result<Option<Row>, SqlError> {
        if let Some(l) = self.limit {
            if self.emitted >= l {
                return Ok(None);
            }
        }
        while self.skipped < self.offset {
            match self.input.next()? {
                Some(_) => self.skipped += 1,
                None => return Ok(None),
            }
        }
        match self.input.next()? {
            Some(row) => {
                self.emitted += 1;
                Ok(Some(row))
            }
            None => Ok(None),
        }
    }

    fn stats(&self) -> OpStat<'a> {
        OpStat::new(self.node, self.emitted, vec![self.input.stats()])
    }
}

fn fmt_op_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Render an operator tree, one line per operator with its inputs
/// indented below it. `analyzed` annotates each line with what the
/// operator did — rows in (the sum of its inputs' rows out) and out,
/// `next()` loops and inclusive wall time, model usage — or marks it
/// `(never executed)`.
pub(crate) fn render(root: &OpStat<'_>, analyzed: bool) -> Vec<String> {
    fn walk(st: &OpStat<'_>, depth: usize, analyzed: bool, out: &mut Vec<String>) {
        let mut text = format!("{}{}", "  ".repeat(depth), line(st.node, st.fused_filters));
        if analyzed && !st.executed {
            text.push_str("  (never executed)");
        } else if analyzed {
            let input = if st.inputs.is_empty() {
                String::new()
            } else {
                format!("rows_in={} ", st.inputs.iter().map(|i| i.rows_out).sum::<usize>())
            };
            let timing = if st.timed {
                format!(" loops={} time={}", st.loops, fmt_op_ns(st.elapsed_ns))
            } else {
                String::new()
            };
            let llm = match &st.llm {
                Some(c) => format!(
                    " llm_calls={} dedup_hits={} cache_hits={} dollars=${:.9}",
                    c.calls, c.dedup_hits, c.cache_hits, c.dollars
                ),
                None => String::new(),
            };
            text.push_str(&format!("  ({input}rows_out={}{timing}{llm})", st.rows_out));
        }
        out.push(text);
        for input in &st.inputs {
            walk(input, depth + 1, analyzed, out);
        }
    }
    let mut out = Vec::new();
    walk(root, 0, analyzed, &mut out);
    out
}

/// One operator's line: the operator built from `node`, with
/// `fused_filters` predicates when it is a scan.
fn line(node: &LogicalPlan, fused_filters: usize) -> String {
    match node {
        LogicalPlan::OneRow => "OneRowExec".into(),
        LogicalPlan::Scan { table, alias, .. } => {
            let alias_s = if alias == table { String::new() } else { format!(" AS {alias}") };
            format!("ScanExec {table}{alias_s} predicates={fused_filters}")
        }
        LogicalPlan::Filter { .. } => "FilterExec".into(),
        LogicalPlan::Join { join, .. } => {
            let jt = match join {
                JoinType::Inner => "inner",
                JoinType::Left => "left",
            };
            format!("NLJoinExec {jt} (right side materialized)")
        }
        LogicalPlan::LlmFilter { predicate, .. } => {
            format!("LlmFilterExec {}", crate::printer::print_expr(predicate))
        }
        LogicalPlan::LlmMap { columns, .. } => format!("LlmMapExec [{}]", columns.join(", ")),
        LogicalPlan::Project { columns, .. } => format!("ProjectExec [{}]", columns.join(", ")),
        LogicalPlan::Aggregate { columns, .. } => {
            format!("AggregateExec -> [{}]", columns.join(", "))
        }
        LogicalPlan::Distinct { .. } => "DistinctExec".into(),
        LogicalPlan::SetOp { op, all, .. } => {
            let name = match op {
                SetOp::Union => "union",
                SetOp::Intersect => "intersect",
                SetOp::Except => "except",
            };
            let all_s = if *all { " all" } else { "" };
            format!("SetOpExec {name}{all_s}")
        }
        LogicalPlan::Sort { keys, fetch, .. } => {
            let keys_s: Vec<String> = keys
                .iter()
                .map(|(i, desc)| format!("#{i}{}", if *desc { " DESC" } else { "" }))
                .collect();
            match fetch {
                Some(k) => format!("TopKExec keys=[{}] fetch={k}", keys_s.join(", ")),
                None => format!("SortExec keys=[{}]", keys_s.join(", ")),
            }
        }
        LogicalPlan::Strip { keep, .. } => format!("StripExec keep={keep}"),
        LogicalPlan::Limit { limit, offset, .. } => {
            let limit_s = match limit {
                Some(l) => format!("{l}"),
                None => "ALL".to_string(),
            };
            format!("LimitExec limit={limit_s} offset={offset}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::exec::concert_db;
    use crate::parser::parse_statement;

    fn planned(db: &Database, sql: &str) -> ResultSet {
        let crate::ast::Statement::Select(stmt) = parse_statement(sql).unwrap() else {
            panic!("not a select: {sql}");
        };
        super::super::execute_select_planned(&Cx::new(db), &stmt).unwrap()
    }

    #[test]
    fn fused_scan_matches_where_semantics() {
        let db = concert_db();
        let rs = planned(&db, "SELECT name FROM stadium WHERE capacity > 40000");
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn topk_matches_full_sort_prefix_with_ties() {
        let mut db = concert_db();
        db.execute("CREATE TABLE t (x INT, y INT)").unwrap();
        db.execute(
            "INSERT INTO t VALUES (1, 10), (2, 20), (1, 30), (2, 40), (1, 50), (3, 60)",
        )
        .unwrap();
        let with_limit = planned(&db, "SELECT x, y FROM t ORDER BY x LIMIT 3");
        let full = planned(&db, "SELECT x, y FROM t ORDER BY x");
        assert_eq!(with_limit.rows, full.rows[..3].to_vec());
    }

    #[test]
    fn left_join_pads_nulls() {
        let db = concert_db();
        let rs = planned(
            &db,
            "SELECT s.name, c.concert_id FROM stadium s \
             LEFT JOIN concert c ON s.stadium_id = c.stadium_id \
             WHERE c.concert_id IS NULL",
        );
        // Metro Field (id 4) hosts no concerts.
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Str("Metro Field".into()));
        assert_eq!(rs.rows[0][1], Value::Null);
    }

    #[test]
    fn set_op_arity_mismatch_is_checked_after_both_sides_run() {
        let mut db = concert_db();
        let err = db
            .query("SELECT name, capacity FROM stadium UNION SELECT name FROM stadium")
            .unwrap_err();
        assert!(
            err.to_string().contains("set operation arity mismatch: 2 vs 1"),
            "{err}"
        );
    }
}
