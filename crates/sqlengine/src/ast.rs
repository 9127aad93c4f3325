//! The SQL abstract syntax tree.

use std::sync::Arc;

use crate::value::{DataType, Value};

/// Binary operators.
#[allow(missing_docs)] // variants are self-describing operator names
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// Unary operators.
#[allow(missing_docs)] // variants are self-describing operator names
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

/// Aggregate functions.
#[allow(missing_docs)] // variants are the SQL aggregate names
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    /// Parse an aggregate function name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }

    /// The SQL name.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// An expression.
///
/// A subquery body is shared (`Arc`), not owned: every clone of an
/// expression — the planner lowers and binds clones — names the same
/// subquery node, so a statement runs each subquery once however many
/// copies of it, and rows, it evaluates.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// Column reference, optionally qualified: `t.col` or `col`.
    Column {
        /// Table name or alias.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// A column resolved to its position in the row an operator evaluates
    /// over. The planner and DML bind columns to slots once per statement;
    /// the parser never produces one.
    Slot {
        /// Index into the row.
        index: usize,
        /// The column as an unknown-column error names it (`alias.col` or
        /// `col`): there is no row to read in an aggregate's empty group.
        name: String,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Aggregate call: `COUNT(*)`, `SUM(DISTINCT x)`, …
    Aggregate {
        /// The function.
        func: AggFunc,
        /// The argument; `None` means `*` (COUNT only).
        arg: Option<Box<Expr>>,
        /// DISTINCT flag.
        distinct: bool,
    },
    /// `expr [NOT] IN (v1, v2, …)`
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// The list.
        list: Vec<Expr>,
        /// NOT IN.
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT …)`
    InSubquery {
        /// Tested expression.
        expr: Box<Expr>,
        /// The subquery (must project one column).
        subquery: Arc<SelectStmt>,
        /// NOT IN.
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT …)`
    Exists {
        /// The subquery.
        subquery: Arc<SelectStmt>,
        /// NOT EXISTS.
        negated: bool,
    },
    /// Scalar subquery: `(SELECT …)` producing one value.
    ScalarSubquery(Arc<SelectStmt>),
    /// `expr [NOT] LIKE pattern` (`%` and `_` wildcards).
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern literal.
        pattern: String,
        /// NOT LIKE.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN lo AND hi`
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// NOT BETWEEN.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// IS NOT NULL.
        negated: bool,
    },
    /// `LLM_MAP(expr, 'prompt template')` — semantic projection: the
    /// argument value is rendered into a prompt built from the template
    /// and the session model's completion becomes the result (TEXT).
    /// `NULL` propagates without a model call.
    LlmMap {
        /// The mapped expression.
        arg: Box<Expr>,
        /// The prompt template (string literal in the grammar).
        template: String,
    },
    /// `LLM_FILTER(expr, 'predicate prompt')` — semantic predicate: the
    /// model's completion is parsed as a boolean. `NULL` input yields
    /// `NULL` without a model call.
    LlmFilter {
        /// The tested expression.
        arg: Box<Expr>,
        /// The predicate prompt template.
        template: String,
    },
    /// `LLM_MATCH(a, b, 'prompt')` — semantic equality between two
    /// values, used as the `ON` condition of `LLM_JOIN`. A `NULL` on
    /// either side yields `NULL` without a model call.
    LlmMatch {
        /// Left value.
        left: Box<Expr>,
        /// Right value.
        right: Box<Expr>,
        /// The matching prompt template.
        template: String,
    },
}

impl Expr {
    /// Column shorthand.
    pub fn col(name: &str) -> Expr {
        Expr::Column { qualifier: None, name: name.to_string() }
    }

    /// Qualified column shorthand.
    pub fn qcol(table: &str, name: &str) -> Expr {
        Expr::Column { qualifier: Some(table.to_string()), name: name.to_string() }
    }

    /// Literal shorthand.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Binary-op shorthand.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(l), right: Box::new(r) }
    }

    /// Does this expression (recursively) contain an aggregate call?
    pub fn contains_aggregate(&self) -> bool {
        let mut found = matches!(self, Expr::Aggregate { .. });
        self.for_each_child(|c| found = found || c.contains_aggregate());
        found
    }

    /// Does this expression (recursively) contain a semantic operator
    /// (`LLM_MAP` / `LLM_FILTER` / `LLM_MATCH`)? Subquery bodies are not
    /// descended into — they plan and account for themselves.
    pub(crate) fn contains_llm(&self) -> bool {
        self.count_llm() > 0
    }

    /// Number of semantic-operator invocations in this expression — the
    /// prompts evaluating it once costs (before dedup/caching). Subquery
    /// bodies are excluded, like [`Expr::contains_llm`].
    pub(crate) fn count_llm(&self) -> usize {
        let mut n = usize::from(matches!(
            self,
            Expr::LlmMap { .. } | Expr::LlmFilter { .. } | Expr::LlmMatch { .. }
        ));
        self.for_each_child(|c| n += c.count_llm());
        n
    }

    /// Call `f` on each direct child, in evaluation order. Subquery bodies
    /// are never children: they plan, bind and bill themselves when they
    /// run. This and its crate-private twin `for_each_child_mut` are the
    /// one place that says what an expression's children are; every
    /// walker recurses through them, inside the crate and out.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        match self {
            Expr::Literal(_)
            | Expr::Column { .. }
            | Expr::Slot { .. }
            | Expr::Aggregate { arg: None, .. }
            | Expr::Exists { .. }
            | Expr::ScalarSubquery(_) => {}
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::Like { expr, .. }
            | Expr::InSubquery { expr, .. }
            | Expr::LlmMap { arg: expr, .. }
            | Expr::LlmFilter { arg: expr, .. }
            | Expr::Aggregate { arg: Some(expr), .. } => f(expr),
            Expr::Binary { left, right, .. } | Expr::LlmMatch { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            Expr::Between { expr, low, high, .. } => {
                f(expr);
                f(low);
                f(high);
            }
        }
    }

    /// [`Expr::for_each_child`] over mutable children.
    pub(crate) fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut Expr)) {
        match self {
            Expr::Literal(_)
            | Expr::Column { .. }
            | Expr::Slot { .. }
            | Expr::Aggregate { arg: None, .. }
            | Expr::Exists { .. }
            | Expr::ScalarSubquery(_) => {}
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::Like { expr, .. }
            | Expr::InSubquery { expr, .. }
            | Expr::LlmMap { arg: expr, .. }
            | Expr::LlmFilter { arg: expr, .. }
            | Expr::Aggregate { arg: Some(expr), .. } => f(expr),
            Expr::Binary { left, right, .. } | Expr::LlmMatch { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter_mut().for_each(f);
            }
            Expr::Between { expr, low, high, .. } => {
                f(expr);
                f(low);
                f(high);
            }
        }
    }
}

/// One projected item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    /// `expr [AS alias]`
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional output alias.
        alias: Option<String>,
    },
}

/// Join types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// INNER JOIN (also comma-joins).
    Inner,
    /// `LEFT [OUTER] JOIN`.
    Left,
}

/// A table in the FROM clause.
#[derive(Debug, Clone, PartialEq)]
pub struct FromItem {
    /// Table name.
    pub table: String,
    /// Optional alias.
    pub alias: Option<String>,
    /// How this table joins the preceding items (`None` for the first).
    pub join: Option<(JoinType, Expr)>,
}

/// ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Sort expression.
    pub expr: Expr,
    /// Descending?
    pub desc: bool,
}

/// Set operations between SELECTs.
#[allow(missing_docs)] // variants are the SQL set-operation names
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    Union,
    Intersect,
    Except,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// DISTINCT flag.
    pub distinct: bool,
    /// Projected items.
    pub projections: Vec<SelectItem>,
    /// FROM clause (empty = scalar SELECT like `SELECT 1+1`).
    pub from: Vec<FromItem>,
    /// WHERE predicate.
    pub selection: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT.
    pub limit: Option<usize>,
    /// OFFSET.
    pub offset: Option<usize>,
    /// Chained set operation: `(op, ALL?, rhs)`.
    pub set_op: Option<(SetOp, bool, Box<SelectStmt>)>,
}

impl SelectStmt {
    /// An empty SELECT skeleton.
    pub fn empty() -> Self {
        SelectStmt {
            distinct: false,
            projections: Vec::new(),
            from: Vec::new(),
            selection: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
            offset: None,
            set_op: None,
        }
    }
}

/// An ORDER of assignment in UPDATE.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Target column.
    pub column: String,
    /// New value expression.
    pub value: Expr,
}

/// A SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// SELECT query.
    Select(SelectStmt),
    /// `EXPLAIN [ANALYZE] SELECT …` — renders the optimized logical plan
    /// and the physical operator tree. Plain `EXPLAIN` does not execute;
    /// `EXPLAIN ANALYZE` executes the plan with per-operator
    /// instrumentation and annotates each operator with actual rows,
    /// loops and wall time.
    Explain {
        /// Whether to execute and annotate with actual row counts/timing.
        analyze: bool,
        /// The query being explained.
        select: SelectStmt,
    },
    /// `INSERT INTO t [(cols)] VALUES (…), (…)`
    Insert {
        /// Target table.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// Row value expressions.
        values: Vec<Vec<Expr>>,
    },
    /// `UPDATE t SET c = e, … [WHERE …]`
    Update {
        /// Target table.
        table: String,
        /// SET assignments.
        assignments: Vec<Assignment>,
        /// Optional predicate.
        selection: Option<Expr>,
    },
    /// `DELETE FROM t [WHERE …]`
    Delete {
        /// Target table.
        table: String,
        /// Optional predicate.
        selection: Option<Expr>,
    },
    /// `CREATE TABLE t (col TYPE, …) [PERSIST]`
    CreateTable {
        /// New table name.
        table: String,
        /// Column definitions.
        columns: Vec<(String, DataType)>,
        /// IF NOT EXISTS flag.
        if_not_exists: bool,
        /// PERSIST flag: back the table with the durable store (only
        /// honored when executing through a `PersistentDb`).
        persist: bool,
    },
    /// `DROP TABLE [IF EXISTS] t`
    DropTable {
        /// Table to drop.
        table: String,
        /// IF EXISTS flag.
        if_exists: bool,
    },
    /// `BEGIN [TRANSACTION]`
    Begin,
    /// `COMMIT`
    Commit,
    /// `ROLLBACK`
    Rollback,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Bindings;
    use crate::schema::{Column, Schema};

    #[test]
    fn contains_aggregate_walks_tree() {
        let agg = Expr::Aggregate { func: AggFunc::Count, arg: None, distinct: false };
        let e = Expr::bin(BinOp::Gt, agg, Expr::lit(3i64));
        assert!(e.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
    }

    fn bx(e: &Expr) -> Box<Expr> {
        Box::new(e.clone())
    }

    /// A subquery holding `e` in its projection and its WHERE.
    fn body(e: &Expr) -> Arc<SelectStmt> {
        let mut sub = SelectStmt::empty();
        sub.projections.push(SelectItem::Expr { expr: e.clone(), alias: None });
        sub.selection = Some(e.clone());
        Arc::new(sub)
    }

    /// Every `Expr` variant with `e` in each of its child slots and in
    /// each subquery body, and how many child slots that is.
    fn every_variant(e: &Expr) -> Vec<(Expr, usize)> {
        vec![
            (Expr::lit(1i64), 0),
            (Expr::col("y"), 0),
            (Expr::Slot { index: 0, name: "y".into() }, 0),
            (Expr::bin(BinOp::Add, e.clone(), e.clone()), 2),
            (Expr::Unary { op: UnOp::Neg, expr: bx(e) }, 1),
            (Expr::Aggregate { func: AggFunc::Sum, arg: Some(bx(e)), distinct: false }, 1),
            (Expr::Aggregate { func: AggFunc::Count, arg: None, distinct: false }, 0),
            (Expr::InList { expr: bx(e), list: vec![e.clone(), e.clone()], negated: false }, 3),
            (Expr::InSubquery { expr: bx(e), subquery: body(e), negated: false }, 1),
            (Expr::Exists { subquery: body(e), negated: false }, 0),
            (Expr::ScalarSubquery(body(e)), 0),
            (Expr::Like { expr: bx(e), pattern: "a%".into(), negated: false }, 1),
            (Expr::Between { expr: bx(e), low: bx(e), high: bx(e), negated: false }, 3),
            (Expr::IsNull { expr: bx(e), negated: true }, 1),
            (Expr::LlmMap { arg: bx(e), template: "m".into() }, 1),
            (Expr::LlmFilter { arg: bx(e), template: "f".into() }, 1),
            (Expr::LlmMatch { left: bx(e), right: bx(e), template: "j".into() }, 2),
        ]
    }

    #[test]
    fn contains_llm_walks_tree_but_not_subqueries() {
        // A subquery body with an LLM op does not make the outer
        // expression semantic: the subquery plans and bills itself.
        let is_llm = |e: &Expr| {
            matches!(e, Expr::LlmMap { .. } | Expr::LlmFilter { .. } | Expr::LlmMatch { .. })
        };
        let is_agg = |e: &Expr| matches!(e, Expr::Aggregate { .. });
        let llm = Expr::LlmMap { arg: bx(&Expr::col("x")), template: "t".into() };
        for (e, slots) in every_variant(&llm) {
            assert_eq!(e.count_llm(), usize::from(is_llm(&e)) + slots, "{e:?}");
            assert_eq!(e.contains_llm(), is_llm(&e) || slots > 0, "{e:?}");
            assert_eq!(e.contains_aggregate(), is_agg(&e), "{e:?}");
        }
        let agg =
            Expr::Aggregate { func: AggFunc::Max, arg: Some(bx(&Expr::col("x"))), distinct: false };
        for (e, slots) in every_variant(&agg) {
            assert_eq!(e.contains_aggregate(), is_agg(&e) || slots > 0, "{e:?}");
            assert_eq!(e.count_llm(), usize::from(is_llm(&e)), "{e:?}");
        }
        // Binding turns every child column into a slot and leaves the
        // subquery bodies' columns by name: they bind when they run.
        let mut b = Bindings::default();
        b.push("t".into(), Schema::new(vec![Column::new("x", DataType::Int)]));
        let count = |e: &Expr, needle: &str| format!("{e:?}").matches(needle).count();
        for (e, slots) in every_variant(&Expr::col("x")) {
            let bound = b.bind(&e);
            assert_eq!(count(&bound, "Slot {") - count(&e, "Slot {"), slots, "{bound:?}");
            assert_eq!(count(&e, "Column {") - count(&bound, "Column {"), slots, "{bound:?}");
        }
    }

    #[test]
    fn aggfunc_names_roundtrip() {
        for f in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
            assert_eq!(AggFunc::from_name(f.name()), Some(f));
        }
        assert_eq!(AggFunc::from_name("UPPER"), None);
    }

    #[test]
    fn shorthand_constructors() {
        assert_eq!(
            Expr::qcol("t", "c"),
            Expr::Column { qualifier: Some("t".into()), name: "c".into() }
        );
        assert_eq!(Expr::lit(5i64), Expr::Literal(Value::Int(5)));
    }
}
