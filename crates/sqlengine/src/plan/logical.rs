//! Logical plan IR and AST → plan lowering.
//!
//! Lowering is deliberately literal: each node corresponds to one step of
//! the direct executor's pipeline, so an unoptimized plan executes the
//! query with exactly the legacy semantics (same join order, same
//! NULL-ordering, same error messages for the cases lowering can reach).
//! All cleverness lives in [`super::rewrite`].

use crate::ast::{Expr, JoinType, SelectItem, SelectStmt, SetOp};
use crate::catalog::Database;
use crate::error::SqlError;
use crate::exec::{self, Bindings};
use crate::printer;
use crate::schema::Schema;

/// Planner-estimated cost of one semantic operator, shown by `EXPLAIN`.
/// Calls are discounted by the session cache's *live* hit ratio
/// ([`crate::semantic::ModelHandle::cache_hit_ratio`]), so the same plan
/// gets cheaper as the cache warms. Per-operator prompt dedup is not
/// modeled (distinct-value counts are unknown at plan time), so these are
/// upper bounds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct LlmEstimate {
    /// Estimated input rows.
    pub rows: usize,
    /// Prompts issued per input row (semantic invocations in the exprs).
    pub prompts_per_row: usize,
    /// Estimated model calls after the cache discount.
    pub calls: f64,
    /// Estimated dollars: calls × observed (or nominal) per-call price.
    pub dollars: f64,
    /// The cache hit ratio the discount used.
    pub hit_ratio: f64,
}

/// A relational operator tree. Children are boxed; `Scan` is the leaf.
#[derive(Debug, Clone)]
pub(crate) enum LogicalPlan {
    /// A single zero-width row — the seed for FROM-less selects and the
    /// left side of a first-item LEFT JOIN.
    OneRow,
    /// Full scan of a base table, whose stored rows it hands out whole.
    Scan {
        /// Base table name (lowercase).
        table: String,
        /// Binding alias (lowercase).
        alias: String,
        /// The stored table's schema.
        schema: Schema,
    },
    /// Nested-loop join.
    Join {
        /// Left input (already-joined prefix).
        left: Box<LogicalPlan>,
        /// Right input (the newly joined table).
        right: Box<LogicalPlan>,
        /// Inner or left-outer.
        join: JoinType,
        /// ON condition; `None` = cross join.
        on: Option<Expr>,
    },
    /// Row filter (`WHERE`, a first-item inner-join ON, or a pushed-down
    /// conjunct).
    Filter {
        /// Input.
        input: Box<LogicalPlan>,
        /// Rows are kept when this evaluates truthy.
        predicate: Expr,
    },
    /// Semantic predicate — `WHERE`/ON conjuncts invoking LLM operators,
    /// split out of [`LogicalPlan::Filter`] by the pushdown pass so cheap
    /// relational predicates always run first (the paper's reorder rule).
    LlmFilter {
        /// Input.
        input: Box<LogicalPlan>,
        /// Rows are kept when this evaluates truthy.
        predicate: Expr,
        /// Planner cost estimate (filled by the estimate pass).
        est: Option<LlmEstimate>,
    },
    /// Non-aggregate projection.
    Project {
        /// Input.
        input: Box<LogicalPlan>,
        /// Expanded projection items (no wildcards).
        items: Vec<SelectItem>,
        /// Output column names, one per item.
        columns: Vec<String>,
    },
    /// Projection whose items invoke semantic operators (`LLM_MAP` in the
    /// select list) — a [`LogicalPlan::Project`] that calls the model.
    LlmMap {
        /// Input.
        input: Box<LogicalPlan>,
        /// Expanded projection items (no wildcards).
        items: Vec<SelectItem>,
        /// Output column names, one per item.
        columns: Vec<String>,
        /// Planner cost estimate (filled by the estimate pass).
        est: Option<LlmEstimate>,
    },
    /// Grouped aggregation (also bare aggregates with no GROUP BY).
    Aggregate {
        /// Input.
        input: Box<LogicalPlan>,
        /// GROUP BY keys.
        group_by: Vec<Expr>,
        /// HAVING predicate.
        having: Option<Expr>,
        /// Expanded projection items.
        items: Vec<SelectItem>,
        /// Output column names.
        columns: Vec<String>,
    },
    /// `SELECT DISTINCT` dedup.
    Distinct {
        /// Input.
        input: Box<LogicalPlan>,
    },
    /// UNION/INTERSECT/EXCEPT.
    SetOp {
        /// Left query.
        left: Box<LogicalPlan>,
        /// Right query.
        right: Box<LogicalPlan>,
        /// Which set operation.
        op: SetOp,
        /// ALL (bag) semantics?
        all: bool,
    },
    /// Sort by positional keys. `fetch` (set by LIMIT pushdown) caps how
    /// many leading rows are needed, enabling top-k.
    Sort {
        /// Input.
        input: Box<LogicalPlan>,
        /// `(column index, descending)` keys, major first.
        keys: Vec<(usize, bool)>,
        /// Keep only the first `fetch` sorted rows when set.
        fetch: Option<usize>,
    },
    /// Drop hidden trailing sort columns, keeping the first `keep`.
    Strip {
        /// Input.
        input: Box<LogicalPlan>,
        /// Number of visible output columns.
        keep: usize,
    },
    /// LIMIT/OFFSET.
    Limit {
        /// Input.
        input: Box<LogicalPlan>,
        /// Max rows to emit (`None` = unbounded; OFFSET-only).
        limit: Option<usize>,
        /// Rows to skip first.
        offset: usize,
    },
}

impl LogicalPlan {
    /// Table bindings describing this node's output row layout, which
    /// every physical operator binds its expressions against. Only
    /// meaningful for the FROM region (Scan/Join/Filter/OneRow);
    /// projection and later operators produce column-shaped rows with no
    /// table scoping.
    pub(crate) fn bindings(&self) -> Bindings {
        match self {
            LogicalPlan::OneRow => Bindings::default(),
            LogicalPlan::Scan { alias, schema, .. } => {
                let mut b = Bindings::default();
                b.push(alias.clone(), schema.clone());
                b
            }
            LogicalPlan::Join { left, right, .. } => left.bindings().concat(&right.bindings()),
            LogicalPlan::Filter { input, .. } | LogicalPlan::LlmFilter { input, .. } => {
                input.bindings()
            }
            _ => Bindings::default(),
        }
    }

    /// Call `f` on each expression this node evaluates itself, in plan
    /// order; its inputs' expressions are theirs to visit.
    pub(crate) fn for_each_expr_mut(&mut self, mut f: impl FnMut(&mut Expr)) {
        match self {
            LogicalPlan::Join { on: Some(e), .. }
            | LogicalPlan::Filter { predicate: e, .. }
            | LogicalPlan::LlmFilter { predicate: e, .. } => f(e),
            LogicalPlan::Project { items, .. } | LogicalPlan::LlmMap { items, .. } => {
                item_exprs(items).for_each(f)
            }
            LogicalPlan::Aggregate { group_by, having, items, .. } => {
                group_by.iter_mut().chain(having.as_mut()).chain(item_exprs(items)).for_each(f)
            }
            LogicalPlan::OneRow
            | LogicalPlan::Scan { .. }
            | LogicalPlan::Join { on: None, .. }
            | LogicalPlan::Distinct { .. }
            | LogicalPlan::SetOp { .. }
            | LogicalPlan::Sort { .. }
            | LogicalPlan::Strip { .. }
            | LogicalPlan::Limit { .. } => {}
        }
    }

    /// Output column names, in order.
    pub(crate) fn output_columns(&self) -> Vec<String> {
        match self {
            LogicalPlan::OneRow => Vec::new(),
            LogicalPlan::Scan { schema, .. } => {
                schema.columns().iter().map(|c| c.name.clone()).collect()
            }
            LogicalPlan::Join { left, right, .. } => {
                let mut cols = left.output_columns();
                cols.extend(right.output_columns());
                cols
            }
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::LlmFilter { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.output_columns(),
            LogicalPlan::Project { columns, .. }
            | LogicalPlan::LlmMap { columns, .. }
            | LogicalPlan::Aggregate { columns, .. } => columns.clone(),
            LogicalPlan::SetOp { left, .. } => left.output_columns(),
            LogicalPlan::Strip { input, keep } => {
                let mut cols = input.output_columns();
                cols.truncate(*keep);
                cols
            }
        }
    }
}

/// The expressions of a projection list (wildcards have none).
pub(super) fn item_exprs(items: &mut [SelectItem]) -> impl Iterator<Item = &mut Expr> {
    items.iter_mut().filter_map(|it| match it {
        SelectItem::Expr { expr, .. } => Some(expr),
        SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => None,
    })
}

/// Lower a full SELECT (set ops, ORDER BY, LIMIT) into a logical plan.
pub(crate) fn lower_select(db: &Database, stmt: &SelectStmt) -> Result<LogicalPlan, SqlError> {
    let mut plan = lower_core(db, stmt, &[])?;
    if let Some((op, all, rhs)) = &stmt.set_op {
        // Arity is checked at execution time, after both sides have run,
        // to match the direct executor's error ordering.
        let right = lower_select(db, rhs)?;
        plan = LogicalPlan::SetOp {
            left: Box::new(plan),
            right: Box::new(right),
            op: *op,
            all: *all,
        };
    }
    if !stmt.order_by.is_empty() {
        let columns = plan.output_columns();
        let resolved: Result<Vec<(usize, bool)>, SqlError> = stmt
            .order_by
            .iter()
            .map(|k| Ok((exec::resolve_order_key(&columns, k)?, k.desc)))
            .collect();
        match resolved {
            Ok(keys) => plan = LogicalPlan::Sort { input: Box::new(plan), keys, fetch: None },
            Err(first_err) => {
                // Fall back to projecting the sort keys as hidden trailing
                // columns — only legal for a plain core, as in the direct
                // executor.
                if stmt.set_op.is_some() || stmt.distinct {
                    return Err(first_err);
                }
                exec::order_keys_executable(stmt)?;
                let visible = columns.len();
                let hidden: Vec<Expr> = stmt.order_by.iter().map(|k| k.expr.clone()).collect();
                let core = lower_core(db, stmt, &hidden)?;
                let keys: Vec<(usize, bool)> =
                    stmt.order_by.iter().enumerate().map(|(i, k)| (visible + i, k.desc)).collect();
                plan = LogicalPlan::Strip {
                    input: Box::new(LogicalPlan::Sort {
                        input: Box::new(core),
                        keys,
                        fetch: None,
                    }),
                    keep: visible,
                };
            }
        }
    }
    let offset = stmt.offset.unwrap_or(0);
    if stmt.limit.is_some() || offset > 0 {
        plan = LogicalPlan::Limit { input: Box::new(plan), limit: stmt.limit, offset };
    }
    Ok(plan)
}

/// Lower the core of one SELECT (FROM/WHERE/projection/DISTINCT), with
/// `hidden` extra sort-key expressions appended after the visible items.
fn lower_core(db: &Database, stmt: &SelectStmt, hidden: &[Expr]) -> Result<LogicalPlan, SqlError> {
    // FROM: fold tables left-to-right, exactly like `build_from`.
    let mut plan = LogicalPlan::OneRow;
    let mut seen: Vec<String> = Vec::new();
    for (i, item) in stmt.from.iter().enumerate() {
        let table = db.table(&item.table)?;
        let alias =
            item.alias.clone().unwrap_or_else(|| table.name.clone()).to_lowercase();
        if seen.contains(&alias) {
            return Err(SqlError::Exec(format!("duplicate table alias {alias}")));
        }
        seen.push(alias.clone());
        let scan = LogicalPlan::Scan {
            table: table.name.clone(),
            alias,
            schema: table.schema.clone(),
        };
        plan = match (&item.join, i) {
            (None, _) => {
                if i == 0 {
                    scan
                } else {
                    // `parse` always sets a join for non-first items, but
                    // hand-built ASTs may not: treat as a cross join.
                    LogicalPlan::Join {
                        left: Box::new(plan),
                        right: Box::new(scan),
                        join: JoinType::Inner,
                        on: None,
                    }
                }
            }
            // A first-item INNER ON is just a filter over the scan; a
            // first-item LEFT JOIN pads against the zero-width seed row.
            (Some((JoinType::Inner, on)), 0) => LogicalPlan::Filter {
                input: Box::new(scan),
                predicate: on.clone(),
            },
            (Some((JoinType::Left, on)), 0) => LogicalPlan::Join {
                left: Box::new(LogicalPlan::OneRow),
                right: Box::new(scan),
                join: JoinType::Left,
                on: Some(on.clone()),
            },
            // An INNER ON invoking semantic operators (LLM_JOIN) lowers as
            // cross join + filter — same pairs in the same order, but the
            // predicate now lives in a Filter node the pushdown pass can
            // partition into relational-first / LLM-last (and the semantic
            // part gets its own costed LlmFilter operator).
            (Some((JoinType::Inner, on)), _) if on.contains_llm() => LogicalPlan::Filter {
                input: Box::new(LogicalPlan::Join {
                    left: Box::new(plan),
                    right: Box::new(scan),
                    join: JoinType::Inner,
                    on: None,
                }),
                predicate: on.clone(),
            },
            (Some((jt, on)), _) => LogicalPlan::Join {
                left: Box::new(plan),
                right: Box::new(scan),
                join: *jt,
                on: Some(on.clone()),
            },
        };
    }
    if let Some(pred) = &stmt.selection {
        plan = LogicalPlan::Filter { input: Box::new(plan), predicate: pred.clone() };
    }
    // Projection: expand wildcards against the FROM bindings, then append
    // the hidden sort keys positionally.
    let bindings = plan.bindings();
    let mut items = exec::expand_projections(stmt, &bindings)?;
    let mut columns: Vec<String> =
        items.iter().enumerate().map(|(i, it)| exec::output_name(it, i)).collect();
    for (i, e) in hidden.iter().enumerate() {
        items.push(SelectItem::Expr { expr: e.clone(), alias: None });
        columns.push(format!("__sort{i}"));
    }
    let has_agg =
        exec::has_aggregate_core(stmt) || hidden.iter().any(|e| e.contains_aggregate());
    let has_llm_items = items.iter().any(|it| match it {
        SelectItem::Expr { expr, .. } => expr.contains_llm(),
        _ => false,
    });
    plan = if has_agg {
        LogicalPlan::Aggregate {
            input: Box::new(plan),
            group_by: stmt.group_by.clone(),
            having: stmt.having.clone(),
            items,
            columns,
        }
    } else if has_llm_items {
        LogicalPlan::LlmMap { input: Box::new(plan), items, columns, est: None }
    } else {
        LogicalPlan::Project { input: Box::new(plan), items, columns }
    };
    if stmt.distinct {
        plan = LogicalPlan::Distinct { input: Box::new(plan) };
    }
    Ok(plan)
}

/// Render a semantic operator's cost estimate (empty before the estimate
/// pass runs, e.g. in unit tests over unoptimized plans).
fn render_estimate(est: &Option<LlmEstimate>) -> String {
    match est {
        Some(e) => format!(
            " est_rows={} est_calls={:.1} est_dollars=${:.6} cache_hit={:.0}%",
            e.rows,
            e.calls,
            e.dollars,
            e.hit_ratio * 100.0
        ),
        None => String::new(),
    }
}

/// Render a plan as indented lines for `EXPLAIN`.
pub(crate) fn render(plan: &LogicalPlan) -> Vec<String> {
    let mut out = Vec::new();
    render_into(plan, 0, &mut out);
    out
}

fn render_into(plan: &LogicalPlan, depth: usize, out: &mut Vec<String>) {
    let pad = "  ".repeat(depth);
    match plan {
        LogicalPlan::OneRow => out.push(format!("{pad}OneRow")),
        LogicalPlan::Scan { table, alias, .. } => {
            let alias_s =
                if alias == table { String::new() } else { format!(" AS {alias}") };
            out.push(format!("{pad}Scan {table}{alias_s}"));
        }
        LogicalPlan::Join { left, right, join, on } => {
            let jt = match join {
                JoinType::Inner => "Inner",
                JoinType::Left => "Left",
            };
            let on_s = match on {
                Some(e) => format!(" ON {}", printer::print_expr(e)),
                None => " (cross)".to_string(),
            };
            out.push(format!("{pad}Join {jt}{on_s}"));
            render_into(left, depth + 1, out);
            render_into(right, depth + 1, out);
        }
        LogicalPlan::Filter { input, predicate } => {
            out.push(format!("{pad}Filter {}", printer::print_expr(predicate)));
            render_into(input, depth + 1, out);
        }
        LogicalPlan::LlmFilter { input, predicate, est } => {
            out.push(format!(
                "{pad}LlmFilter {}{}",
                printer::print_expr(predicate),
                render_estimate(est)
            ));
            render_into(input, depth + 1, out);
        }
        LogicalPlan::Project { input, columns, .. } => {
            out.push(format!("{pad}Project [{}]", columns.join(", ")));
            render_into(input, depth + 1, out);
        }
        LogicalPlan::LlmMap { input, columns, est, .. } => {
            out.push(format!("{pad}LlmMap [{}]{}", columns.join(", "), render_estimate(est)));
            render_into(input, depth + 1, out);
        }
        LogicalPlan::Aggregate { input, group_by, having, columns, .. } => {
            let keys: Vec<String> = group_by.iter().map(printer::print_expr).collect();
            let having_s = match having {
                Some(h) => format!(" having {}", printer::print_expr(h)),
                None => String::new(),
            };
            out.push(format!(
                "{pad}Aggregate group_by=[{}]{having_s} -> [{}]",
                keys.join(", "),
                columns.join(", ")
            ));
            render_into(input, depth + 1, out);
        }
        LogicalPlan::Distinct { input } => {
            out.push(format!("{pad}Distinct"));
            render_into(input, depth + 1, out);
        }
        LogicalPlan::SetOp { left, right, op, all } => {
            let name = match op {
                SetOp::Union => "Union",
                SetOp::Intersect => "Intersect",
                SetOp::Except => "Except",
            };
            let all_s = if *all { " ALL" } else { "" };
            out.push(format!("{pad}{name}{all_s}"));
            render_into(left, depth + 1, out);
            render_into(right, depth + 1, out);
        }
        LogicalPlan::Sort { input, keys, fetch } => {
            let keys_s: Vec<String> = keys
                .iter()
                .map(|(i, desc)| format!("#{i}{}", if *desc { " DESC" } else { "" }))
                .collect();
            let fetch_s = match fetch {
                Some(k) => format!(" fetch={k}"),
                None => String::new(),
            };
            out.push(format!("{pad}Sort keys=[{}]{fetch_s}", keys_s.join(", ")));
            render_into(input, depth + 1, out);
        }
        LogicalPlan::Strip { input, keep } => {
            out.push(format!("{pad}Strip keep={keep}"));
            render_into(input, depth + 1, out);
        }
        LogicalPlan::Limit { input, limit, offset } => {
            let limit_s = match limit {
                Some(l) => format!("{l}"),
                None => "ALL".to_string(),
            };
            out.push(format!("{pad}Limit {limit_s} OFFSET {offset}"));
            render_into(input, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::concert_db;
    use crate::parser::parse_statement;

    fn lower(db: &Database, sql: &str) -> LogicalPlan {
        let crate::ast::Statement::Select(stmt) = parse_statement(sql).unwrap() else {
            panic!("not a select: {sql}");
        };
        lower_select(db, &stmt).unwrap()
    }

    #[test]
    fn lowering_shapes_match_the_clauses() {
        let db = concert_db();
        let text = render(&lower(
            &db,
            "SELECT s.name FROM stadium s JOIN concert c ON s.stadium_id = c.stadium_id \
             WHERE c.year = 2014 ORDER BY s.name LIMIT 3",
        ))
        .join("\n");
        for needle in ["Limit 3", "Sort keys=[#0]", "Project [name]", "Filter", "Join Inner"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn unprojected_order_key_lowers_to_hidden_sort_and_strip() {
        let db = concert_db();
        let text =
            render(&lower(&db, "SELECT name FROM stadium ORDER BY capacity DESC")).join("\n");
        assert!(text.contains("Strip keep=1"), "{text}");
        assert!(text.contains("Sort keys=[#1 DESC]"), "{text}");
        assert!(text.contains("Project [name, __sort0]"), "{text}");
    }

    #[test]
    fn aggregates_lower_to_aggregate_node() {
        let db = concert_db();
        let text = render(&lower(
            &db,
            "SELECT year, COUNT(*) FROM concert GROUP BY year HAVING COUNT(*) > 1",
        ))
        .join("\n");
        assert!(text.contains("Aggregate group_by=[year] having"), "{text}");
    }

    #[test]
    fn set_ops_lower_to_setop_node() {
        let db = concert_db();
        let text = render(&lower(
            &db,
            "SELECT name FROM stadium UNION ALL SELECT concert_name FROM concert",
        ))
        .join("\n");
        assert!(text.contains("Union ALL"), "{text}");
    }

    #[test]
    fn unknown_table_errors_at_lowering() {
        let db = concert_db();
        let crate::ast::Statement::Select(stmt) =
            parse_statement("SELECT * FROM nope").unwrap()
        else {
            unreachable!()
        };
        assert!(matches!(lower_select(&db, &stmt), Err(SqlError::UnknownTable(_))));
    }
}
