//! Rule-based logical rewrites.
//!
//! Four passes run in a fixed order:
//!
//! 1. **Constant folding** — evaluate column-free subexpressions with the
//!    shared [`crate::eval`] evaluator; drop filters whose predicate folds
//!    to literal `TRUE`. Folding never descends into subquery bodies and
//!    keeps any subexpression whose evaluation errors, so runtime error
//!    behavior is preserved.
//! 2. **Predicate pushdown** — split `WHERE` conjuncts, drop each one
//!    that folded to literal `TRUE` (`x AND TRUE` folds no further: see
//!    `fold_expr`), and sink the rest below joins whose single side binds
//!    every column it references (left side only for LEFT JOINs; pushing
//!    into the right side would change padding).
//! 3. **LIMIT pushdown** — a `Limit` directly above a `Sort` (possibly
//!    through a `Strip`) sets the sort's `fetch`, turning a full sort
//!    into a top-k selection.
//! 4. **Semantic estimate** — annotate each `LlmFilter`/`LlmMap` with
//!    estimated rows, model calls and dollars for `EXPLAIN`.

use std::collections::BTreeSet;

use crate::ast::{BinOp, Expr, JoinType};
use crate::catalog::Database;
use crate::eval::{eval, Env};
use crate::exec::{Bindings, Cx};
use crate::value::Value;

use super::logical::{item_exprs, LlmEstimate, LogicalPlan};

/// Apply all rewrite passes.
pub(crate) fn optimize(db: &Database, plan: LogicalPlan) -> LogicalPlan {
    let plan = fold_constants(&Cx::new(db), plan);
    let plan = push_down_filters(plan);
    let plan = push_limit_into_sort(plan);
    estimate_semantic(db, plan).0
}

// ---------------- constant folding ----------------

/// Folding evaluates no subquery and no prompt, so the statement `cx`
/// stands for is a throwaway.
fn fold_constants(cx: &Cx<'_>, plan: LogicalPlan) -> LogicalPlan {
    let mut plan = map_children(plan, &mut |child| fold_constants(cx, child));
    // The LLM calls inside a semantic operator's expressions never fold
    // (`is_const` is false for them); their relational parts do.
    plan.for_each_expr_mut(|e| fold_expr(cx, e));
    match plan {
        // A tautological filter passes every row — drop it. A filter
        // folded to any *other* literal is kept: it is cheap and removing
        // it would change nothing.
        LogicalPlan::Filter { input, predicate: Expr::Literal(Value::Bool(true)) } => *input,
        // An INNER join on literal TRUE is a cross join.
        LogicalPlan::Join {
            left,
            right,
            join: JoinType::Inner,
            on: Some(Expr::Literal(Value::Bool(true))),
        } => LogicalPlan::Join { left, right, join: JoinType::Inner, on: None },
        other => other,
    }
}

fn fold_expr(cx: &Cx<'_>, e: &mut Expr) {
    // Fold children first. Subquery bodies are not children: they are
    // planned independently at execution time and are left untouched.
    e.for_each_child_mut(|c| fold_expr(cx, c));
    // Left-driven short-circuits only: `eval` never evaluates the right
    // side after `FALSE AND` / `TRUE OR`, so folding it away cannot hide
    // an error. (`x AND FALSE` is *not* foldable — `eval` still
    // evaluates and type-checks `x`.)
    if let Expr::Binary { op, left, .. } = e {
        let short = match (*op, &**left) {
            (BinOp::And, Expr::Literal(Value::Bool(false))) => Some(false),
            (BinOp::Or, Expr::Literal(Value::Bool(true))) => Some(true),
            _ => None,
        };
        if let Some(b) = short {
            *e = Expr::lit(b);
            return;
        }
    }
    if !matches!(e, Expr::Literal(_)) && is_const(e) {
        // Evaluation failure (overflow, division by zero, type error)
        // keeps the expression, so the error surfaces at runtime exactly
        // like the direct path.
        if let Ok(v) = eval(e, &Env::empty(cx)) {
            *e = Expr::Literal(v);
        }
    }
}

/// Column-free, aggregate-free, subquery-free — safe to evaluate once.
/// Only the variants listed here fold, so a new one never does by default.
fn is_const(e: &Expr) -> bool {
    let mut foldable = matches!(
        e,
        Expr::Literal(_)
            | Expr::Binary { .. }
            | Expr::Unary { .. }
            | Expr::InList { .. }
            | Expr::Between { .. }
            | Expr::IsNull { .. }
            | Expr::Like { .. }
    );
    e.for_each_child(|c| foldable = foldable && is_const(c));
    foldable
}

// ---------------- predicate pushdown ----------------

fn push_down_filters(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let mut plan = push_down_filters(*input);
            let mut remaining: Vec<Expr> = Vec::new();
            let mut semantic: Vec<Expr> = Vec::new();
            for conj in split_conjuncts(predicate) {
                // A `TRUE` conjunct passes every row.
                if matches!(conj, Expr::Literal(Value::Bool(true))) {
                    continue;
                }
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
            let mut req = BTreeSet::new();
            // An unattributable predicate stays put, and so does a
            // row-independent one (e.g. bare EXISTS): above the join it
            // runs once per joined row, same as legacy.
            if !collect_aliases(&pred, &bindings, &mut req) || req.is_empty() {
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

/// Add the binding aliases `e` reads from to `out`; `false` when the
/// expression cannot be attributed to specific bindings (unknown
/// qualifier, ambiguous or unknown unqualified name, aggregate call).
/// Subquery bodies are uncorrelated in this engine and read nothing.
fn collect_aliases(e: &Expr, b: &Bindings, out: &mut BTreeSet<String>) -> bool {
    match e {
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
        // Slots only exist in bound expressions, after rewriting.
        Expr::Aggregate { .. } | Expr::Slot { .. } => false,
        _ => {
            let mut ok = true;
            e.for_each_child(|c| ok = ok && collect_aliases(c, b, out));
            ok
        }
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
/// session model the estimates fill in with zero discount and $0. Returns
/// the annotated plan and its estimated output row count.
fn estimate_semantic(db: &Database, plan: LogicalPlan) -> (LogicalPlan, usize) {
    let mut inputs = [0usize; 2];
    let mut n = 0;
    let mut plan = map_children(plan, &mut |child| {
        let (child, rows) = estimate_semantic(db, child);
        inputs[n] = rows;
        n += 1;
        child
    });
    let [first, second] = inputs;
    let rows = match &mut plan {
        LogicalPlan::OneRow => 1,
        LogicalPlan::Scan { table, .. } => db.table(table).map(|t| t.len()).unwrap_or(0),
        // Equi-ish join: assume the larger side's cardinality.
        LogicalPlan::Join { on: Some(_), .. } => first.max(second),
        LogicalPlan::Join { on: None, .. } => first.saturating_mul(second),
        LogicalPlan::SetOp { .. } => first.saturating_add(second),
        LogicalPlan::LlmFilter { predicate, est, .. } => {
            *est = Some(make_estimate(db, first, predicate.count_llm()));
            first
        }
        LogicalPlan::LlmMap { items, est, .. } => {
            let prompts = item_exprs(items).map(|e| e.count_llm()).sum();
            *est = Some(make_estimate(db, first, prompts));
            first
        }
        LogicalPlan::Aggregate { group_by, .. } if group_by.is_empty() => 1,
        LogicalPlan::Sort { fetch: Some(k), .. } => first.min(*k),
        LogicalPlan::Limit { limit: Some(l), offset, .. } => first.min(l.saturating_add(*offset)),
        // Filters (selectivity is not modeled), projections, grouped
        // aggregates, DISTINCT, Strip and unbounded Sort/Limit keep their
        // input's count.
        _ => first,
    };
    (plan, rows)
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
    fn conjuncts_naming_no_column_or_an_aggregate_stay_above_the_join() {
        let db = concert_db();
        for (pred, printed) in [
            ("EXISTS (SELECT 1 FROM concert WHERE year = 2014)", "Filter EXISTS"),
            ("COUNT(s.capacity) > 0", "Filter (COUNT(s.capacity) > 0)"),
        ] {
            let text = optimized(
                &db,
                &format!(
                    "SELECT s.name FROM stadium s JOIN concert c \
                     ON s.stadium_id = c.stadium_id WHERE {pred}"
                ),
            );
            let join_at = text.find("Join Inner").unwrap();
            let pred_at = text.find(printed).unwrap_or_else(|| panic!("no {printed}:\n{text}"));
            assert!(pred_at < join_at, "{pred} was pushed:\n{text}");
        }
    }

    /// Every expression of the optimized plan, printed, inputs first.
    fn printed_exprs(plan: LogicalPlan, out: &mut Vec<String>) -> LogicalPlan {
        let mut plan = map_children(plan, &mut |child| printed_exprs(child, out));
        plan.for_each_expr_mut(|e| out.push(crate::printer::print_expr(e)));
        plan
    }

    #[test]
    fn constants_fold_in_every_child_slot_but_not_in_subquery_bodies() {
        let db = concert_db();
        let sql = "SELECT LLM_MAP(1 + 1, 'upper') FROM stadium \
                   WHERE capacity BETWEEN 1 + 1 AND 2 * 3 AND stadium_id IN (1 + 1, 3) \
                   AND name IN (SELECT name FROM stadium WHERE 1 + 1 = 2)";
        let crate::ast::Statement::Select(stmt) = parse_statement(sql).unwrap() else {
            unreachable!()
        };
        let mut exprs = Vec::new();
        printed_exprs(optimize(&db, lower_select(&db, &stmt).unwrap()), &mut exprs);
        for want in [
            "(capacity BETWEEN 2 AND 6)",
            "(stadium_id IN (2, 3))",
            "LLM_MAP(2, 'upper')",
            "(name IN (SELECT name FROM stadium WHERE ((1 + 1) = 2)))",
        ] {
            assert!(exprs.iter().any(|e| e == want), "no {want} in {exprs:#?}");
        }
    }

    #[test]
    fn limit_pushes_fetch_into_sort() {
        let db = concert_db();
        let text = optimized(&db, "SELECT name FROM stadium ORDER BY name LIMIT 2 OFFSET 1");
        assert!(text.contains("fetch=3"), "{text}");
        assert!(text.contains("Limit 2 OFFSET 1"), "{text}");
    }
}
