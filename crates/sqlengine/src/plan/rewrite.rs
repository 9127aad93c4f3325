//! Rule-based logical rewrites.
//!
//! Four passes run in a fixed order:
//!
//! 1. **Constant folding** — evaluate column-free subexpressions with the
//!    shared [`crate::eval`] evaluator; drop filters whose predicate folds
//!    to literal `TRUE`. Folding never descends into subquery bodies and
//!    keeps any subexpression whose evaluation errors, so runtime error
//!    behavior is preserved.
//! 2. **Predicate pushdown** — split `WHERE` conjuncts and sink each one
//!    below joins whose single side binds every column it references
//!    (left side only for LEFT JOINs; pushing into the right side would
//!    change padding).
//! 3. **Column pruning** — restrict each scan to the columns referenced
//!    anywhere in the plan. Unqualified names are kept in *every* schema
//!    that has them, preserving ambiguous-column errors.
//! 4. **LIMIT pushdown** — a `Limit` directly above a `Sort` (possibly
//!    through a `Strip`) sets the sort's `fetch`, turning a full sort
//!    into a top-k selection.

use std::collections::BTreeSet;

use crate::ast::{BinOp, Expr, JoinType, SelectItem};
use crate::catalog::Database;
use crate::eval::{eval, Env};
use crate::exec::Bindings;
use crate::schema::Schema;
use crate::value::Value;

use super::logical::{LlmEstimate, LogicalPlan};

/// Apply all rewrite passes.
pub(crate) fn optimize(db: &Database, plan: LogicalPlan) -> LogicalPlan {
    let plan = fold_constants(db, plan);
    let plan = push_down_filters(plan);
    let plan = prune_scan_columns(plan);
    let plan = push_limit_into_sort(plan);
    estimate_semantic(db, plan)
}

// ---------------- constant folding ----------------

fn fold_constants(db: &Database, plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = fold_constants(db, *input);
            let predicate = fold_expr(db, predicate);
            if matches!(predicate, Expr::Literal(Value::Bool(true))) {
                // A tautological filter passes every row — drop it. A
                // filter folded to any *other* literal is kept: it is
                // cheap and removing it would change nothing.
                input
            } else {
                LogicalPlan::Filter { input: Box::new(input), predicate }
            }
        }
        LogicalPlan::Join { left, right, join, on } => {
            let on = on.map(|e| fold_expr(db, e));
            // An INNER join on literal TRUE is a cross join.
            let on = match (join, on) {
                (JoinType::Inner, Some(Expr::Literal(Value::Bool(true)))) => None,
                (_, o) => o,
            };
            LogicalPlan::Join {
                left: Box::new(fold_constants(db, *left)),
                right: Box::new(fold_constants(db, *right)),
                join,
                on,
            }
        }
        LogicalPlan::LlmFilter { input, predicate, est } => LogicalPlan::LlmFilter {
            input: Box::new(fold_constants(db, *input)),
            // Fold inside the predicate's relational subexpressions; the
            // LLM call itself never folds (`is_const` is false for it).
            predicate: fold_expr(db, predicate),
            est,
        },
        LogicalPlan::Project { input, items, columns } => LogicalPlan::Project {
            input: Box::new(fold_constants(db, *input)),
            items: items.into_iter().map(|it| fold_item(db, it)).collect(),
            columns,
        },
        LogicalPlan::LlmMap { input, items, columns, est } => LogicalPlan::LlmMap {
            input: Box::new(fold_constants(db, *input)),
            items: items.into_iter().map(|it| fold_item(db, it)).collect(),
            columns,
            est,
        },
        LogicalPlan::Aggregate { input, group_by, having, items, columns } => {
            LogicalPlan::Aggregate {
                input: Box::new(fold_constants(db, *input)),
                group_by: group_by.into_iter().map(|e| fold_expr(db, e)).collect(),
                having: having.map(|h| fold_expr(db, h)),
                items: items.into_iter().map(|it| fold_item(db, it)).collect(),
                columns,
            }
        }
        other => map_children(other, &mut |child| fold_constants(db, child)),
    }
}

fn fold_item(db: &Database, item: SelectItem) -> SelectItem {
    match item {
        SelectItem::Expr { expr, alias } => {
            SelectItem::Expr { expr: fold_expr(db, expr), alias }
        }
        other => other,
    }
}

fn fold_expr(db: &Database, e: Expr) -> Expr {
    // Fold children first. Subquery bodies are planned independently at
    // execution time and are left untouched.
    let e = match e {
        Expr::Binary { op, left, right } => Expr::Binary {
            op,
            left: Box::new(fold_expr(db, *left)),
            right: Box::new(fold_expr(db, *right)),
        },
        Expr::Unary { op, expr } => Expr::Unary { op, expr: Box::new(fold_expr(db, *expr)) },
        Expr::Aggregate { func, arg, distinct } => Expr::Aggregate {
            func,
            arg: arg.map(|a| Box::new(fold_expr(db, *a))),
            distinct,
        },
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(fold_expr(db, *expr)),
            list: list.into_iter().map(|x| fold_expr(db, x)).collect(),
            negated,
        },
        Expr::Between { expr, low, high, negated } => Expr::Between {
            expr: Box::new(fold_expr(db, *expr)),
            low: Box::new(fold_expr(db, *low)),
            high: Box::new(fold_expr(db, *high)),
            negated,
        },
        Expr::IsNull { expr, negated } => {
            Expr::IsNull { expr: Box::new(fold_expr(db, *expr)), negated }
        }
        Expr::Like { expr, pattern, negated } => {
            Expr::Like { expr: Box::new(fold_expr(db, *expr)), pattern, negated }
        }
        Expr::InSubquery { expr, subquery, negated } => {
            Expr::InSubquery { expr: Box::new(fold_expr(db, *expr)), subquery, negated }
        }
        Expr::LlmMap { arg, template } => {
            Expr::LlmMap { arg: Box::new(fold_expr(db, *arg)), template }
        }
        Expr::LlmFilter { arg, template } => {
            Expr::LlmFilter { arg: Box::new(fold_expr(db, *arg)), template }
        }
        Expr::LlmMatch { left, right, template } => Expr::LlmMatch {
            left: Box::new(fold_expr(db, *left)),
            right: Box::new(fold_expr(db, *right)),
            template,
        },
        other => other,
    };
    // Left-driven short-circuits only: `eval` never evaluates the right
    // side after `FALSE AND` / `TRUE OR`, so folding it away cannot hide
    // an error. (`x AND FALSE` is *not* foldable — `eval` still
    // evaluates and type-checks `x`.)
    if let Expr::Binary { op: BinOp::And, left, .. } = &e {
        if matches!(**left, Expr::Literal(Value::Bool(false))) {
            return Expr::lit(false);
        }
    }
    if let Expr::Binary { op: BinOp::Or, left, .. } = &e {
        if matches!(**left, Expr::Literal(Value::Bool(true))) {
            return Expr::lit(true);
        }
    }
    if !matches!(e, Expr::Literal(_)) && is_const(&e) {
        if let Ok(v) = eval(&e, &Env::new(&Bindings::default(), &[], db)) {
            return Expr::Literal(v);
        }
        // Evaluation failed (overflow, division by zero, type error):
        // keep the expression so the error surfaces at runtime exactly
        // like the direct path.
    }
    e
}

/// Column-free, aggregate-free, subquery-free — safe to evaluate once.
fn is_const(e: &Expr) -> bool {
    match e {
        Expr::Literal(_) => true,
        Expr::Binary { left, right, .. } => is_const(left) && is_const(right),
        Expr::Unary { expr, .. } => is_const(expr),
        Expr::InList { expr, list, .. } => is_const(expr) && list.iter().all(is_const),
        Expr::Between { expr, low, high, .. } => {
            is_const(expr) && is_const(low) && is_const(high)
        }
        Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => is_const(expr),
        _ => false,
    }
}

// ---------------- predicate pushdown ----------------

fn push_down_filters(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let mut plan = push_down_filters(*input);
            let mut remaining: Vec<Expr> = Vec::new();
            let mut semantic: Vec<Expr> = Vec::new();
            for conj in split_conjuncts(predicate) {
                // The reorder rule: conjuncts invoking LLM operators are
                // peeled off and applied *after* every relational
                // predicate — model calls only see rows that survived the
                // cheap filters. (SQL leaves AND evaluation order
                // unspecified, so this is semantics-preserving.)
                if conj.contains_llm() {
                    semantic.push(conj);
                    continue;
                }
                match try_sink(plan, conj) {
                    Ok(p) => plan = p,
                    Err((p, c)) => {
                        plan = p;
                        remaining.push(c);
                    }
                }
            }
            // Unpushed conjuncts re-wrap in original order, innermost
            // first, so they evaluate in the same order as the AND chain.
            for c in remaining {
                plan = LogicalPlan::Filter { input: Box::new(plan), predicate: c };
            }
            for c in semantic {
                plan = LogicalPlan::LlmFilter { input: Box::new(plan), predicate: c, est: None };
            }
            plan
        }
        other => map_children(other, &mut push_down_filters),
    }
}

/// Split a top-level AND chain into conjuncts, evaluation order.
fn split_conjuncts(e: Expr) -> Vec<Expr> {
    match e {
        Expr::Binary { op: BinOp::And, left, right } => {
            let mut v = split_conjuncts(*left);
            v.extend(split_conjuncts(*right));
            v
        }
        other => vec![other],
    }
}

/// Try to sink `pred` below the top of `plan`. Returns the rebuilt plan
/// on success, or the (unchanged) plan and predicate back on failure.
fn try_sink(plan: LogicalPlan, pred: Expr) -> Result<LogicalPlan, (LogicalPlan, Expr)> {
    match plan {
        LogicalPlan::Join { left, right, join, on } => {
            let bindings = left.bindings().concat(&right.bindings());
            let Some(req) = required_aliases(&pred, &bindings) else {
                return Err((LogicalPlan::Join { left, right, join, on }, pred));
            };
            if req.is_empty() {
                // Row-independent (e.g. bare EXISTS): leave it above the
                // join where it runs once per joined row, same as legacy.
                return Err((LogicalPlan::Join { left, right, join, on }, pred));
            }
            let left_aliases: BTreeSet<String> =
                left.bindings().aliases.into_iter().collect();
            if req.iter().all(|a| left_aliases.contains(a)) {
                // The left side survives LEFT JOIN padding unchanged, so
                // left-side pushdown is safe for both join types.
                let new_left = sink_or_wrap(*left, pred);
                return Ok(LogicalPlan::Join { left: Box::new(new_left), right, join, on });
            }
            let right_aliases: BTreeSet<String> =
                right.bindings().aliases.into_iter().collect();
            if join == JoinType::Inner && req.iter().all(|a| right_aliases.contains(a)) {
                let new_right = sink_or_wrap(*right, pred);
                return Ok(LogicalPlan::Join { left, right: Box::new(new_right), join, on });
            }
            Err((LogicalPlan::Join { left, right, join, on }, pred))
        }
        // Sink through an existing filter so pushed conjuncts reach the
        // join (or scan) below it.
        LogicalPlan::Filter { input, predicate } => match try_sink(*input, pred) {
            Ok(p) => Ok(LogicalPlan::Filter { input: Box::new(p), predicate }),
            Err((p, pred)) => {
                Err((LogicalPlan::Filter { input: Box::new(p), predicate }, pred))
            }
        },
        other => Err((other, pred)),
    }
}

fn sink_or_wrap(plan: LogicalPlan, pred: Expr) -> LogicalPlan {
    match try_sink(plan, pred) {
        Ok(p) => p,
        Err((p, pred)) => LogicalPlan::Filter { input: Box::new(p), predicate: pred },
    }
}

/// The set of binding aliases `e` reads from, or `None` when the
/// expression cannot be attributed to specific bindings (unknown
/// qualifier, ambiguous or unknown unqualified name, aggregate call).
/// Subquery bodies are uncorrelated in this engine and read nothing.
fn required_aliases(e: &Expr, bindings: &Bindings) -> Option<BTreeSet<String>> {
    let mut out = BTreeSet::new();
    if collect_aliases(e, bindings, &mut out) {
        Some(out)
    } else {
        None
    }
}

fn collect_aliases(e: &Expr, b: &Bindings, out: &mut BTreeSet<String>) -> bool {
    match e {
        Expr::Literal(_) => true,
        Expr::Column { qualifier: Some(q), .. } => {
            let q = q.to_lowercase();
            if b.aliases.contains(&q) {
                out.insert(q);
                true
            } else {
                false
            }
        }
        Expr::Column { qualifier: None, name } => {
            let matches: Vec<&String> = b
                .aliases
                .iter()
                .zip(&b.schemas)
                .filter(|(_, s)| s.index_of(name).is_some())
                .map(|(a, _)| a)
                .collect();
            if matches.len() == 1 {
                out.insert(matches[0].clone());
                true
            } else {
                // Unknown or ambiguous: leave the predicate where the
                // direct executor would have raised the error.
                false
            }
        }
        Expr::Binary { left, right, .. } => {
            collect_aliases(left, b, out) && collect_aliases(right, b, out)
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => {
            collect_aliases(expr, b, out)
        }
        Expr::InList { expr, list, .. } => {
            collect_aliases(expr, b, out) && list.iter().all(|x| collect_aliases(x, b, out))
        }
        Expr::Between { expr, low, high, .. } => {
            collect_aliases(expr, b, out)
                && collect_aliases(low, b, out)
                && collect_aliases(high, b, out)
        }
        Expr::InSubquery { expr, .. } => collect_aliases(expr, b, out),
        Expr::Exists { .. } | Expr::ScalarSubquery(_) => true,
        // Slots only exist in bound expressions, after rewriting.
        Expr::Aggregate { .. } | Expr::Slot { .. } => false,
        Expr::LlmMap { arg, .. } | Expr::LlmFilter { arg, .. } => collect_aliases(arg, b, out),
        Expr::LlmMatch { left, right, .. } => {
            collect_aliases(left, b, out) && collect_aliases(right, b, out)
        }
    }
}

// ---------------- scan column pruning ----------------

fn prune_scan_columns(plan: LogicalPlan) -> LogicalPlan {
    let mut refs: Vec<(Option<String>, String)> = Vec::new();
    if !collect_plan_refs(&plan, &mut refs) {
        // An unexpanded wildcard somewhere: every column may be needed.
        return plan;
    }
    apply_prune(plan, &refs)
}

/// Gather `(qualifier, column)` references (lowercase) from every
/// expression in the plan. Returns `false` if pruning is unsafe.
fn collect_plan_refs(plan: &LogicalPlan, out: &mut Vec<(Option<String>, String)>) -> bool {
    match plan {
        LogicalPlan::OneRow | LogicalPlan::Scan { .. } => true,
        LogicalPlan::Join { left, right, on, .. } => {
            if let Some(on) = on {
                expr_refs(on, out);
            }
            collect_plan_refs(left, out) && collect_plan_refs(right, out)
        }
        LogicalPlan::Filter { input, predicate }
        | LogicalPlan::LlmFilter { input, predicate, .. } => {
            expr_refs(predicate, out);
            collect_plan_refs(input, out)
        }
        LogicalPlan::Project { input, items, .. }
        | LogicalPlan::LlmMap { input, items, .. } => {
            items.iter().all(|it| item_refs(it, out)) && collect_plan_refs(input, out)
        }
        LogicalPlan::Aggregate { input, group_by, having, items, .. } => {
            for e in group_by {
                expr_refs(e, out);
            }
            if let Some(h) = having {
                expr_refs(h, out);
            }
            items.iter().all(|it| item_refs(it, out)) && collect_plan_refs(input, out)
        }
        LogicalPlan::Distinct { input }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Strip { input, .. }
        | LogicalPlan::Limit { input, .. } => collect_plan_refs(input, out),
        LogicalPlan::SetOp { left, right, .. } => {
            collect_plan_refs(left, out) && collect_plan_refs(right, out)
        }
    }
}

fn item_refs(item: &SelectItem, out: &mut Vec<(Option<String>, String)>) -> bool {
    match item {
        SelectItem::Expr { expr, .. } => {
            expr_refs(expr, out);
            true
        }
        // Wildcards should be expanded by lowering; if one leaks through,
        // refuse to prune rather than drop columns it would project.
        SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => false,
    }
}

fn expr_refs(e: &Expr, out: &mut Vec<(Option<String>, String)>) {
    match e {
        Expr::Column { qualifier, name } => {
            out.push((qualifier.as_ref().map(|q| q.to_lowercase()), name.to_lowercase()));
        }
        Expr::Literal(_) | Expr::Slot { .. } => {}
        Expr::Binary { left, right, .. } => {
            expr_refs(left, out);
            expr_refs(right, out);
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => {
            expr_refs(expr, out)
        }
        Expr::Aggregate { arg, .. } => {
            if let Some(a) = arg {
                expr_refs(a, out);
            }
        }
        Expr::InList { expr, list, .. } => {
            expr_refs(expr, out);
            for x in list {
                expr_refs(x, out);
            }
        }
        Expr::Between { expr, low, high, .. } => {
            expr_refs(expr, out);
            expr_refs(low, out);
            expr_refs(high, out);
        }
        // Subquery bodies are uncorrelated: they never read outer scans.
        Expr::InSubquery { expr, .. } => expr_refs(expr, out),
        Expr::Exists { .. } | Expr::ScalarSubquery(_) => {}
        Expr::LlmMap { arg, .. } | Expr::LlmFilter { arg, .. } => expr_refs(arg, out),
        Expr::LlmMatch { left, right, .. } => {
            expr_refs(left, out);
            expr_refs(right, out);
        }
    }
}

fn apply_prune(plan: LogicalPlan, refs: &[(Option<String>, String)]) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan { table, alias, schema, projection } => {
            let keep: Vec<usize> = schema
                .columns()
                .iter()
                .enumerate()
                .filter(|(_, c)| {
                    refs.iter().any(|(q, n)| {
                        *n == c.name && (q.is_none() || q.as_deref() == Some(alias.as_str()))
                    })
                })
                .map(|(i, _)| i)
                .collect();
            if keep.len() == schema.len() {
                LogicalPlan::Scan { table, alias, schema, projection }
            } else {
                let cols = keep.iter().map(|&i| schema.columns()[i].clone()).collect();
                LogicalPlan::Scan {
                    table,
                    alias,
                    schema: Schema::new(cols),
                    projection: Some(keep),
                }
            }
        }
        other => map_children(other, &mut |child| apply_prune(child, refs)),
    }
}

// ---------------- LIMIT pushdown ----------------

fn push_limit_into_sort(plan: LogicalPlan) -> LogicalPlan {
    let plan = map_children(plan, &mut push_limit_into_sort);
    if let LogicalPlan::Limit { input, limit: Some(l), offset } = plan {
        let fetch = l.saturating_add(offset);
        let input = match *input {
            LogicalPlan::Sort { input, keys, .. } => {
                LogicalPlan::Sort { input, keys, fetch: Some(fetch) }
            }
            LogicalPlan::Strip { input: strip_in, keep } => match *strip_in {
                LogicalPlan::Sort { input, keys, .. } => LogicalPlan::Strip {
                    input: Box::new(LogicalPlan::Sort { input, keys, fetch: Some(fetch) }),
                    keep,
                },
                other => LogicalPlan::Strip { input: Box::new(other), keep },
            },
            other => other,
        };
        LogicalPlan::Limit { input: Box::new(input), limit: Some(l), offset }
    } else {
        plan
    }
}

// ---------------- semantic cost estimates ----------------

/// Annotate each semantic operator with estimated rows, model calls, and
/// dollars. Row counts are upper bounds from base-table cardinalities
/// (relational selectivity is not modeled); calls are discounted by the
/// session cache's *live* hit ratio; dollars use the meter's observed
/// per-call average (nominal list price before any history). Without a
/// session model the estimates fill in with zero discount and $0.
fn estimate_semantic(db: &Database, plan: LogicalPlan) -> LogicalPlan {
    estimate_rec(db, plan).0
}

/// Returns the annotated plan and its estimated output row count.
fn estimate_rec(db: &Database, plan: LogicalPlan) -> (LogicalPlan, usize) {
    match plan {
        LogicalPlan::OneRow => (LogicalPlan::OneRow, 1),
        LogicalPlan::Scan { table, alias, schema, projection } => {
            let rows = db.table(&table).map(|t| t.len()).unwrap_or(0);
            (LogicalPlan::Scan { table, alias, schema, projection }, rows)
        }
        LogicalPlan::Join { left, right, join, on } => {
            let (left, l) = estimate_rec(db, *left);
            let (right, r) = estimate_rec(db, *right);
            let rows = match &on {
                // Equi-ish join: assume the smaller side's cardinality.
                Some(_) => l.max(r),
                None => l.saturating_mul(r),
            };
            (
                LogicalPlan::Join { left: Box::new(left), right: Box::new(right), join, on },
                rows,
            )
        }
        LogicalPlan::Filter { input, predicate } => {
            let (input, rows) = estimate_rec(db, *input);
            (LogicalPlan::Filter { input: Box::new(input), predicate }, rows)
        }
        LogicalPlan::LlmFilter { input, predicate, .. } => {
            let (input, rows) = estimate_rec(db, *input);
            let est = make_estimate(db, rows, predicate.count_llm());
            (
                LogicalPlan::LlmFilter { input: Box::new(input), predicate, est: Some(est) },
                rows,
            )
        }
        LogicalPlan::Project { input, items, columns } => {
            let (input, rows) = estimate_rec(db, *input);
            (LogicalPlan::Project { input: Box::new(input), items, columns }, rows)
        }
        LogicalPlan::LlmMap { input, items, columns, .. } => {
            let (input, rows) = estimate_rec(db, *input);
            let prompts: usize = items
                .iter()
                .map(|it| match it {
                    SelectItem::Expr { expr, .. } => expr.count_llm(),
                    _ => 0,
                })
                .sum();
            let est = make_estimate(db, rows, prompts);
            (
                LogicalPlan::LlmMap { input: Box::new(input), items, columns, est: Some(est) },
                rows,
            )
        }
        LogicalPlan::Aggregate { input, group_by, having, items, columns } => {
            let (input, rows) = estimate_rec(db, *input);
            let out = if group_by.is_empty() { 1 } else { rows };
            (
                LogicalPlan::Aggregate {
                    input: Box::new(input),
                    group_by,
                    having,
                    items,
                    columns,
                },
                out,
            )
        }
        LogicalPlan::Distinct { input } => {
            let (input, rows) = estimate_rec(db, *input);
            (LogicalPlan::Distinct { input: Box::new(input) }, rows)
        }
        LogicalPlan::SetOp { left, right, op, all } => {
            let (left, l) = estimate_rec(db, *left);
            let (right, r) = estimate_rec(db, *right);
            (
                LogicalPlan::SetOp { left: Box::new(left), right: Box::new(right), op, all },
                l.saturating_add(r),
            )
        }
        LogicalPlan::Sort { input, keys, fetch } => {
            let (input, rows) = estimate_rec(db, *input);
            let out = fetch.map_or(rows, |k| rows.min(k));
            (LogicalPlan::Sort { input: Box::new(input), keys, fetch }, out)
        }
        LogicalPlan::Strip { input, keep } => {
            let (input, rows) = estimate_rec(db, *input);
            (LogicalPlan::Strip { input: Box::new(input), keep }, rows)
        }
        LogicalPlan::Limit { input, limit, offset } => {
            let (input, rows) = estimate_rec(db, *input);
            let out = limit.map_or(rows, |l| rows.min(l.saturating_add(offset)));
            (LogicalPlan::Limit { input: Box::new(input), limit, offset }, out)
        }
    }
}

fn make_estimate(db: &Database, rows: usize, prompts_per_row: usize) -> LlmEstimate {
    let (hit_ratio, per_call) = match db.model() {
        Some(h) => (h.cache_hit_ratio(), h.estimated_call_dollars()),
        None => (0.0, 0.0),
    };
    let prompts = (rows * prompts_per_row) as f64;
    let calls = prompts * (1.0 - hit_ratio);
    LlmEstimate { rows, prompts_per_row, calls, dollars: calls * per_call, hit_ratio }
}

// ---------------- shared traversal ----------------

/// Rebuild a node with `f` applied to each direct child.
fn map_children(
    plan: LogicalPlan,
    f: &mut impl FnMut(LogicalPlan) -> LogicalPlan,
) -> LogicalPlan {
    match plan {
        LogicalPlan::OneRow => LogicalPlan::OneRow,
        leaf @ LogicalPlan::Scan { .. } => leaf,
        LogicalPlan::Join { left, right, join, on } => LogicalPlan::Join {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            join,
            on,
        },
        LogicalPlan::Filter { input, predicate } => {
            LogicalPlan::Filter { input: Box::new(f(*input)), predicate }
        }
        LogicalPlan::LlmFilter { input, predicate, est } => {
            LogicalPlan::LlmFilter { input: Box::new(f(*input)), predicate, est }
        }
        LogicalPlan::Project { input, items, columns } => {
            LogicalPlan::Project { input: Box::new(f(*input)), items, columns }
        }
        LogicalPlan::LlmMap { input, items, columns, est } => {
            LogicalPlan::LlmMap { input: Box::new(f(*input)), items, columns, est }
        }
        LogicalPlan::Aggregate { input, group_by, having, items, columns } => {
            LogicalPlan::Aggregate {
                input: Box::new(f(*input)),
                group_by,
                having,
                items,
                columns,
            }
        }
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct { input: Box::new(f(*input)) },
        LogicalPlan::SetOp { left, right, op, all } => LogicalPlan::SetOp {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            op,
            all,
        },
        LogicalPlan::Sort { input, keys, fetch } => {
            LogicalPlan::Sort { input: Box::new(f(*input)), keys, fetch }
        }
        LogicalPlan::Strip { input, keep } => {
            LogicalPlan::Strip { input: Box::new(f(*input)), keep }
        }
        LogicalPlan::Limit { input, limit, offset } => {
            LogicalPlan::Limit { input: Box::new(f(*input)), limit, offset }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::logical::{lower_select, render};
    use super::*;
    use crate::exec::concert_db;
    use crate::parser::parse_statement;

    fn optimized(db: &Database, sql: &str) -> String {
        let crate::ast::Statement::Select(stmt) = parse_statement(sql).unwrap() else {
            panic!("not a select: {sql}");
        };
        let plan = optimize(db, lower_select(db, &stmt).unwrap());
        render(&plan).join("\n")
    }

    #[test]
    fn tautological_where_is_folded_away() {
        let db = concert_db();
        let text = optimized(&db, "SELECT name FROM stadium WHERE 1 = 1");
        assert!(!text.contains("Filter"), "{text}");
    }

    #[test]
    fn constant_subexpressions_fold() {
        let db = concert_db();
        let text = optimized(&db, "SELECT name FROM stadium WHERE capacity > 10000 + 20000");
        assert!(text.contains("Filter (capacity > 30000)"), "{text}");
    }

    #[test]
    fn division_by_zero_is_not_folded() {
        let db = concert_db();
        let text = optimized(&db, "SELECT name FROM stadium WHERE capacity > 1 / 0");
        assert!(text.contains("(1 / 0)"), "{text}");
    }

    #[test]
    fn where_conjuncts_push_below_an_inner_join() {
        let db = concert_db();
        let text = optimized(
            &db,
            "SELECT s.name FROM stadium s JOIN concert c ON s.stadium_id = c.stadium_id \
             WHERE s.capacity > 1000 AND c.year = 2014",
        );
        let join_at = text.find("Join Inner").unwrap();
        let cap_at = text.find("Filter (s.capacity > 1000)").unwrap();
        let year_at = text.find("Filter (c.year = 2014)").unwrap();
        assert!(cap_at > join_at, "capacity filter not pushed:\n{text}");
        assert!(year_at > join_at, "year filter not pushed:\n{text}");
    }

    #[test]
    fn right_side_predicates_stay_above_left_joins() {
        let db = concert_db();
        let text = optimized(
            &db,
            "SELECT s.name FROM stadium s LEFT JOIN concert c ON s.stadium_id = c.stadium_id \
             WHERE c.year = 2014",
        );
        let join_at = text.find("Join Left").unwrap();
        let year_at = text.find("Filter (c.year = 2014)").unwrap();
        assert!(year_at < join_at, "right-side filter pushed below LEFT JOIN:\n{text}");
    }

    #[test]
    fn scans_prune_unreferenced_columns() {
        let db = concert_db();
        let text = optimized(&db, "SELECT name FROM stadium WHERE capacity > 1000");
        assert!(text.contains("cols=[name, capacity] (pruned)"), "{text}");
    }

    #[test]
    fn ambiguous_unqualified_names_block_pushdown() {
        let db = concert_db();
        // `stadium_id` exists in both tables: the conjunct must stay put.
        let text = optimized(
            &db,
            "SELECT s.name FROM stadium s JOIN concert c ON s.stadium_id = c.stadium_id \
             WHERE stadium_id > 0",
        );
        let join_at = text.find("Join Inner").unwrap();
        let pred_at = text.find("Filter (stadium_id > 0)").unwrap();
        assert!(pred_at < join_at, "ambiguous predicate was pushed:\n{text}");
    }

    #[test]
    fn limit_pushes_fetch_into_sort() {
        let db = concert_db();
        let text = optimized(&db, "SELECT name FROM stadium ORDER BY name LIMIT 2 OFFSET 1");
        assert!(text.contains("fetch=3"), "{text}");
        assert!(text.contains("Limit 2 OFFSET 1"), "{text}");
    }
}
