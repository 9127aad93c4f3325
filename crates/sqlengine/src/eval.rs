//! Expression evaluation.
//!
//! Expressions are evaluated against an `Env`: one row — or a join's
//! left and right rows side by side — laid out per the `Bindings` of the
//! tables in scope. A column the planner or DML bound is an
//! [`Expr::Slot`] and reads its value by index; a bare [`Expr::Column`]
//! is resolved by name, which is how the direct reference executor reads
//! every column and how the planner reaches a column that failed to bind
//! (to raise the same error it always did). Subqueries run as part of
//! the statement the expression belongs to, once each (`Cx::subquery`).
//! A semantic operator's prompts resolve in the scope of the operator
//! that built the `Env`: an expression evaluated anywhere else, a
//! subquery's operators included, brings its own. Aggregate nodes are
//! *not* handled here — the executor evaluates them per group via
//! `eval_grouped`.

use std::borrow::Cow;

use crate::ast::{BinOp, Expr, UnOp};
use crate::error::SqlError;
use crate::exec::{Bindings, Cx};
use crate::semantic::{complete, match_prompt, parse_bool, unary_prompt, SemScope};
use crate::value::Value;

/// The evaluation environment: the row, the layout that names its
/// columns, the statement evaluating it (for subqueries and the session
/// model) and the semantic operator it evaluates for, if any.
#[derive(Clone, Copy)]
pub(crate) struct Env<'a> {
    layout: &'a Bindings,
    /// The row, or a join's left row.
    row: &'a [Value],
    /// A join's right row, read as if it followed `row`.
    right: &'a [Value],
    /// Positions past `row` and `right` read NULL: a LEFT JOIN's padding.
    padded: bool,
    cx: &'a Cx<'a>,
    /// The scope of the semantic operator evaluating this row: its prompts
    /// dedup and count there.
    scope: Option<&'a SemScope>,
}

impl<'a> Env<'a> {
    /// One row laid out per `layout`.
    pub(crate) fn new(layout: &'a Bindings, row: &'a [Value], cx: &'a Cx<'a>) -> Self {
        Env { layout, row, right: &[], padded: false, cx, scope: None }
    }

    /// No row and no table in scope: an INSERT's values, a SELECT
    /// without FROM being folded, an empty group.
    pub(crate) fn empty(cx: &'a Cx<'a>) -> Self {
        static NO_TABLES: Bindings =
            Bindings { aliases: Vec::new(), schemas: Vec::new(), offsets: Vec::new() };
        Env::new(&NO_TABLES, &[], cx)
    }

    /// A join's left row and right row (`None`: NULL padding), evaluated
    /// without concatenating them.
    pub(crate) fn pair(
        layout: &'a Bindings,
        left: &'a [Value],
        right: Option<&'a [Value]>,
        cx: &'a Cx<'a>,
    ) -> Self {
        let (right, padded) = (right.unwrap_or(&[]), right.is_none());
        Env { layout, row: left, right, padded, cx, scope: None }
    }

    /// This environment, evaluated for the semantic operator owning `scope`.
    pub(crate) fn scoped(self, scope: Option<&'a SemScope>) -> Self {
        Env { scope, ..self }
    }

    /// The value at position `i` of the row, `None` past its end.
    pub(crate) fn value(&self, i: usize) -> Option<&'a Value> {
        match self.row.get(i) {
            Some(v) => Some(v),
            None => match self.right.get(i - self.row.len()) {
                Some(v) => Some(v),
                None => self.padded.then_some(&Value::Null),
            },
        }
    }

    /// Resolve a column reference by name.
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<&'a Value, SqlError> {
        let i = self.layout.resolve(qualifier, name)?;
        self.value(i).ok_or_else(|| SqlError::UnknownColumn(name.to_string()))
    }
}

/// Evaluate `expr` in `env`. Errors on aggregate nodes (executor handles
/// those).
pub(crate) fn eval(expr: &Expr, env: &Env<'_>) -> Result<Value, SqlError> {
    operand(expr, env).map(Cow::into_owned)
}

/// Whether `expr` evaluates to TRUE in `env` (the WHERE / ON test). A
/// comparison is decided here as a `bool`, with the value, NULL and
/// error [`walk`] would give: no `Value::Bool` is built to be tested.
pub(crate) fn truthy(expr: &Expr, env: &Env<'_>) -> Result<bool, SqlError> {
    use BinOp::{Eq, Ge, Gt, Le, Lt, Neq};
    match expr {
        Expr::Binary { op: op @ (Eq | Neq | Lt | Le | Gt | Ge), left, right } => {
            let l = read(left, env).map_err(|e| *e)?;
            let r = read(right, env).map_err(|e| *e)?;
            Ok(compare(*op, &l, &r)? == Some(true))
        }
        _ => read(expr, env).map(|v| v.is_truthy()).map_err(|e| *e),
    }
}

/// `expr`'s value in `env`: a column, slot or literal comes back
/// borrowed, so comparisons and tests read their operands in place; a
/// value is copied only when it becomes output.
pub(crate) fn operand<'v>(expr: &'v Expr, env: &Env<'v>) -> Result<Cow<'v, Value>, SqlError> {
    read(expr, env).map_err(|e| *e)
}

/// `expr`'s value, a slot or literal read in place without a call: most
/// operands a row is evaluated on — a scan predicate's sides, a group
/// key, an aggregate's argument, a projected column — are one of the
/// two. Every other node goes to [`walk`].
#[inline(always)]
fn read<'v>(expr: &'v Expr, env: &Env<'v>) -> Result<Cow<'v, Value>, Box<SqlError>> {
    match expr {
        Expr::Slot { index, name } => match env.value(*index) {
            Some(v) => Ok(Cow::Borrowed(v)),
            None => Err(unknown_column(name)),
        },
        Expr::Literal(v) => Ok(Cow::Borrowed(v)),
        _ => walk(expr, env),
    }
}

#[cold]
fn unknown_column(name: &str) -> Box<SqlError> {
    SqlError::UnknownColumn(name.to_string()).into()
}

/// The expression walker behind [`read`]. Its error is boxed so that
/// a result is three words: evaluation is a chain of these returns, and
/// a five-word one costs several times more per node. It is never
/// inlined: folded into its one caller it made every leaf read pay the
/// whole walker's frame set-up (~40 ns per scanned row, not ~10).
#[inline(never)]
fn walk<'v>(expr: &'v Expr, env: &Env<'v>) -> Result<Cow<'v, Value>, Box<SqlError>> {
    let owned = |v: Value| Ok(Cow::Owned(v));
    match expr {
        Expr::Literal(_) | Expr::Slot { .. } => read(expr, env),
        Expr::Column { qualifier, name } => Ok(Cow::Borrowed(env.resolve(qualifier.as_deref(), name)?)),
        Expr::Binary { op, left, right } => {
            let l = read(left, env)?;
            // Short-circuit: the right side is not evaluated at all after
            // `FALSE AND` / `TRUE OR`.
            match op {
                BinOp::And | BinOp::Or => {
                    if matches!(*l, Value::Bool(b) if b == (*op == BinOp::Or)) {
                        return owned(Value::Bool(*op == BinOp::Or));
                    }
                    owned(logic(*op, &l, &*read(right, env)?)?)
                }
                _ => owned(eval_binop(*op, &l, &*read(right, env)?)?),
            }
        }
        Expr::Unary { op, expr } => owned(unary(*op, &*read(expr, env)?)?),
        Expr::Aggregate { .. } => {
            Err(SqlError::Exec("aggregate used outside GROUP BY context".into()).into())
        }
        Expr::InList { expr, list, negated } => {
            let v = read(expr, env)?;
            if v.is_null() {
                return owned(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = read(item, env)?;
                if iv.is_null() {
                    saw_null = true;
                    continue;
                }
                if v.sql_cmp(&iv) == Some(std::cmp::Ordering::Equal) {
                    return owned(Value::Bool(!negated));
                }
            }
            owned(if saw_null { Value::Null } else { Value::Bool(*negated) })
        }
        Expr::InSubquery { expr, subquery, negated } => {
            let v = read(expr, env)?;
            if v.is_null() {
                return owned(Value::Null);
            }
            let rs = env.cx.subquery(subquery)?;
            if rs.columns.len() != 1 {
                return Err(SqlError::Exec("IN subquery must project one column".into()).into());
            }
            let found = rs
                .rows
                .iter()
                .any(|r| v.sql_cmp(&r[0]) == Some(std::cmp::Ordering::Equal));
            owned(Value::Bool(found != *negated))
        }
        Expr::Exists { subquery, negated } => {
            let rs = env.cx.subquery(subquery)?;
            owned(Value::Bool(rs.rows.is_empty() == *negated))
        }
        Expr::ScalarSubquery(subquery) => {
            let rs = env.cx.subquery(subquery)?;
            if rs.columns.len() != 1 {
                return Err(SqlError::Exec("scalar subquery must project one column".into()).into());
            }
            match rs.rows.len() {
                0 => owned(Value::Null),
                1 => owned(rs.rows[0][0].clone()),
                n => Err(SqlError::Exec(format!("scalar subquery returned {n} rows")).into()),
            }
        }
        Expr::Like { expr, pattern, negated } => match &*read(expr, env)? {
            Value::Null => owned(Value::Null),
            Value::Str(s) => owned(Value::Bool(like_match(s, pattern) != *negated)),
            other => Err(SqlError::Type(format!("LIKE expects text, got {other}")).into()),
        },
        Expr::Between { expr, low, high, negated } => {
            let v = read(expr, env)?;
            let lo = read(low, env)?;
            let hi = read(high, env)?;
            if v.is_null() || lo.is_null() || hi.is_null() {
                return owned(Value::Null);
            }
            let ge = matches!(
                v.sql_cmp(&lo),
                Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
            );
            let le = matches!(
                v.sql_cmp(&hi),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            );
            owned(Value::Bool((ge && le) != *negated))
        }
        Expr::IsNull { expr, negated } => owned(Value::Bool(read(expr, env)?.is_null() != *negated)),
        Expr::LlmMap { arg, template } => {
            let v = read(arg, env)?;
            if v.is_null() {
                return owned(Value::Null);
            }
            let prompt = unary_prompt("map", template, &v);
            owned(Value::Str(complete(env.cx, env.scope, &prompt)?))
        }
        Expr::LlmFilter { arg, template } => {
            let v = read(arg, env)?;
            if v.is_null() {
                return owned(Value::Null);
            }
            let prompt = unary_prompt("filter", template, &v);
            owned(Value::Bool(parse_bool(&complete(env.cx, env.scope, &prompt)?)?))
        }
        Expr::LlmMatch { left, right, template } => {
            let l = read(left, env)?;
            let r = read(right, env)?;
            if l.is_null() || r.is_null() {
                return owned(Value::Null);
            }
            let prompt = match_prompt(template, &l, &r);
            owned(Value::Bool(parse_bool(&complete(env.cx, env.scope, &prompt)?)?))
        }
    }
}

fn as_bool(v: &Value) -> Result<bool, SqlError> {
    match v {
        Value::Bool(b) => Ok(*b),
        other => Err(SqlError::Type(format!("expected boolean, got {other}"))),
    }
}

/// `l AND r` / `l OR r` once both sides are known, NULL-collapsing at the
/// boundary: the absorbing value (FALSE for AND, TRUE for OR) on either
/// side wins, then NULL, then both sides must be boolean.
pub(crate) fn logic(op: BinOp, l: &Value, r: &Value) -> Result<Value, SqlError> {
    let absorbing = op == BinOp::Or;
    if matches!(l, Value::Bool(b) if *b == absorbing) || matches!(r, Value::Bool(b) if *b == absorbing)
    {
        return Ok(Value::Bool(absorbing));
    }
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    let (l, r) = (as_bool(l)?, as_bool(r)?);
    Ok(Value::Bool(if absorbing { l || r } else { l && r }))
}

/// Apply a unary operator with SQL NULL propagation.
pub(crate) fn unary(op: UnOp, v: &Value) -> Result<Value, SqlError> {
    match (op, v) {
        (_, Value::Null) => Ok(Value::Null),
        (UnOp::Neg, Value::Int(i)) => i
            .checked_neg()
            .map(Value::Int)
            .ok_or_else(|| SqlError::Exec("integer overflow in negation".into())),
        (UnOp::Neg, Value::Float(f)) => Ok(Value::Float(-f)),
        (UnOp::Neg, other) => Err(SqlError::Type(format!("cannot negate {other}"))),
        (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
        (UnOp::Not, other) => Err(SqlError::Type(format!("NOT expects boolean, got {other}"))),
    }
}

/// `l op r` for a comparison `op`: `None` when either side is NULL, a
/// `Type` error when the two cannot be compared. The one comparison
/// [`truthy`] and [`eval_binop`] both make.
#[inline]
fn compare(op: BinOp, l: &Value, r: &Value) -> Result<Option<bool>, SqlError> {
    use std::cmp::Ordering::*;
    let Some(ord) = l.sql_cmp(r) else {
        if l.is_null() || r.is_null() {
            return Ok(None);
        }
        return Err(incomparable(l, r));
    };
    Ok(Some(match op {
        BinOp::Eq => ord == Equal,
        BinOp::Neq => ord != Equal,
        BinOp::Lt => ord == Less,
        BinOp::Le => ord != Greater,
        BinOp::Gt => ord == Greater,
        BinOp::Ge => ord != Less,
        _ => unreachable!("{op:?} is not a comparison"),
    }))
}

#[cold]
fn incomparable(l: &Value, r: &Value) -> SqlError {
    SqlError::Type(format!("cannot compare {l} with {r}"))
}

/// Apply a non-logical binary operator with SQL NULL propagation.
pub fn eval_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value, SqlError> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match op {
        BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            Ok(compare(op, l, r)?.map_or(Value::Null, Value::Bool))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => match (l, r) {
            (Value::Int(a), Value::Int(b)) => {
                let v = match op {
                    BinOp::Add => a.checked_add(*b),
                    BinOp::Sub => a.checked_sub(*b),
                    BinOp::Mul => a.checked_mul(*b),
                    BinOp::Div => {
                        if *b == 0 {
                            return Err(SqlError::Exec("division by zero".into()));
                        }
                        a.checked_div(*b)
                    }
                    BinOp::Mod => {
                        if *b == 0 {
                            return Err(SqlError::Exec("modulo by zero".into()));
                        }
                        a.checked_rem(*b)
                    }
                    _ => unreachable!(),
                };
                v.map(Value::Int).ok_or_else(|| SqlError::Exec("integer overflow".into()))
            }
            _ => {
                let (a, b) = match (l.as_f64(), r.as_f64()) {
                    (Some(a), Some(b)) => (a, b),
                    _ => return Err(SqlError::Type(format!("cannot apply {op:?} to {l} and {r}"))),
                };
                let v = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => {
                        if b == 0.0 {
                            return Err(SqlError::Exec("division by zero".into()));
                        }
                        a / b
                    }
                    BinOp::Mod => {
                        if b == 0.0 {
                            return Err(SqlError::Exec("modulo by zero".into()));
                        }
                        a % b
                    }
                    _ => unreachable!(),
                };
                Ok(Value::Float(v))
            }
        },
        // Handled short-circuiting in `operand` and by `logic`; a typed
        // error here keeps stray calls from panicking.
        BinOp::And | BinOp::Or => {
            Err(SqlError::Exec("logical operator outside boolean context".into()))
        }
    }
}

/// SQL LIKE with `%` (any run) and `_` (any char), case-sensitive.
///
/// Iterative two-pointer match with single-`%` backtracking: worst case
/// O(len(s) · len(pattern)), unlike the naive recursive formulation whose
/// backtracking is exponential on patterns like `%a%a%a%…` (a query-text
/// denial-of-service vector). The pointers are byte offsets on char
/// boundaries, so nothing is allocated.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let at = |t: &str, i: usize| t[i..].chars().next();
    let (mut si, mut pi) = (0usize, 0usize);
    // Position after the most recent `%` and the input position it was
    // tried at; on mismatch, retry from there consuming one more char.
    let mut star: Option<(usize, usize)> = None;
    while let Some(c) = at(s, si) {
        match at(pattern, pi) {
            Some(p) if p == '_' || p == c => {
                si += c.len_utf8();
                pi += p.len_utf8();
            }
            Some('%') => {
                star = Some((pi + 1, si));
                pi += 1;
            }
            _ => match star {
                Some((star_pi, star_si)) => {
                    // `star_si <= si`, so a char starts there.
                    let next = star_si + at(s, star_si).map_or(1, char::len_utf8);
                    pi = star_pi;
                    si = next;
                    star = Some((star_pi, next));
                }
                None => return false,
            },
        }
    }
    pattern[pi..].chars().all(|c| c == '%')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::schema::{Column, Schema};
    use crate::value::DataType;

    fn env_fixture() -> (Database, Bindings, Vec<Value>) {
        let db = Database::new();
        let schema = Schema::new(vec![
            Column::new("x", DataType::Int),
            Column::new("name", DataType::Text),
        ]);
        let mut layout = Bindings::default();
        layout.push("t".into(), schema);
        let row = vec![Value::Int(5), Value::Str("alice".into())];
        (db, layout, row)
    }

    fn eval_with(expr: &str) -> Result<Value, SqlError> {
        let (db, layout, row) = env_fixture();
        let cx = Cx::new(&db);
        let env = Env::new(&layout, &row, &cx);
        let e = crate::parser::parse_expr(expr)?;
        eval(&e, &env)
    }

    #[test]
    fn column_resolution() {
        assert_eq!(eval_with("x").unwrap(), Value::Int(5));
        assert_eq!(eval_with("t.x").unwrap(), Value::Int(5));
        assert!(matches!(eval_with("t.missing"), Err(SqlError::UnknownColumn(_))));
        assert!(matches!(eval_with("u.x"), Err(SqlError::UnknownColumn(_))));
    }

    #[test]
    fn bound_slots_read_what_names_resolve_to() {
        let (db, layout, row) = env_fixture();
        let cx = Cx::new(&db);
        let env = Env::new(&layout, &row, &cx);
        for sql in ["t.name", "NAME", "x + 1", "name LIKE 'a%' AND x BETWEEN 1 AND 9", "u.x"] {
            let e = crate::parser::parse_expr(sql).unwrap();
            let bound = layout.bind(&e);
            assert_eq!(eval(&bound, &env), eval(&e, &env), "{sql}");
        }
        // An empty group has no row: a slot fails the way a name does
        // with no table in scope.
        let empty = Env::empty(&cx);
        for sql in ["t.NAME", "x"] {
            let e = crate::parser::parse_expr(sql).unwrap();
            assert_eq!(eval(&layout.bind(&e), &empty), eval(&e, &empty), "{sql}");
        }
    }

    #[test]
    fn a_pair_reads_both_sides_and_pads_with_nulls() {
        let (db, one, row) = env_fixture();
        let cx = Cx::new(&db);
        let mut layout = one.clone();
        layout.push("u".into(), one.schemas[0].clone());
        let right = vec![Value::Int(7), Value::Str("bob".into())];
        let e = layout.bind(&crate::parser::parse_expr("u.x - t.x").unwrap());
        assert_eq!(eval(&e, &Env::pair(&layout, &row, Some(&right), &cx)).unwrap(), Value::Int(2));
        assert_eq!(eval(&e, &Env::pair(&layout, &row, None, &cx)).unwrap(), Value::Null);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval_with("x * 2 + 1").unwrap(), Value::Int(11));
        assert_eq!(eval_with("7 / 2").unwrap(), Value::Int(3));
        assert_eq!(eval_with("7.0 / 2").unwrap(), Value::Float(3.5));
        assert_eq!(eval_with("7 % 4").unwrap(), Value::Int(3));
        assert!(eval_with("1 / 0").is_err());
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(eval_with("x > 3 AND x < 10").unwrap(), Value::Bool(true));
        assert_eq!(eval_with("x > 3 AND x > 10").unwrap(), Value::Bool(false));
        assert_eq!(eval_with("x > 10 OR name = 'alice'").unwrap(), Value::Bool(true));
        assert_eq!(eval_with("NOT (x = 5)").unwrap(), Value::Bool(false));
    }

    #[test]
    fn null_propagation() {
        assert_eq!(eval_with("NULL + 1").unwrap(), Value::Null);
        assert_eq!(eval_with("x = NULL").unwrap(), Value::Null);
        assert_eq!(eval_with("NULL AND FALSE").unwrap(), Value::Bool(false));
        assert_eq!(eval_with("NULL OR TRUE").unwrap(), Value::Bool(true));
        assert_eq!(eval_with("NULL AND TRUE").unwrap(), Value::Null);
        assert_eq!(eval_with("NULL IS NULL").unwrap(), Value::Bool(true));
        assert_eq!(eval_with("x IS NOT NULL").unwrap(), Value::Bool(true));
    }

    #[test]
    fn in_list_semantics() {
        assert_eq!(eval_with("x IN (1, 5, 9)").unwrap(), Value::Bool(true));
        assert_eq!(eval_with("x NOT IN (1, 9)").unwrap(), Value::Bool(true));
        // NULL in list makes a failed match unknown.
        assert_eq!(eval_with("x IN (1, NULL)").unwrap(), Value::Null);
        assert_eq!(eval_with("x IN (5, NULL)").unwrap(), Value::Bool(true));
    }

    #[test]
    fn between() {
        assert_eq!(eval_with("x BETWEEN 1 AND 5").unwrap(), Value::Bool(true));
        assert_eq!(eval_with("x NOT BETWEEN 6 AND 9").unwrap(), Value::Bool(true));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(!like_match("hello", "H%"));
        assert!(!like_match("hello", "h_y%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "%%%c"));
        assert!(like_match("mississippi", "%iss%pi"));
        // Multi-byte chars: `_` is one char, not one byte.
        assert!(like_match("Été", "_t_"));
        assert!(like_match("naïve café", "%ï%é"));
        assert!(!like_match("été", "__"));
        // Pathological backtracking input: must terminate fast, not blow up
        // exponentially like the old recursive matcher.
        let s = "a".repeat(2000);
        let p = "a%".repeat(60) + "b";
        assert!(!like_match(&s, &p));
        assert_eq!(eval_with("name LIKE 'ali%'").unwrap(), Value::Bool(true));
    }

    #[test]
    fn type_errors_reported() {
        assert!(matches!(eval_with("name + 1"), Err(SqlError::Type(_))));
        assert!(matches!(eval_with("x AND TRUE"), Err(SqlError::Type(_))));
        assert!(matches!(eval_with("name < 3"), Err(SqlError::Type(_))));
    }

    #[test]
    fn negation() {
        assert_eq!(eval_with("-x").unwrap(), Value::Int(-5));
        assert_eq!(eval_with("-(x * 1.0)").unwrap(), Value::Float(-5.0));
    }

    #[test]
    fn ambiguous_column_detected() {
        let db = Database::new();
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let mut layout = Bindings::default();
        layout.push("a".into(), schema.clone());
        layout.push("b".into(), schema);
        let row = vec![Value::Int(1), Value::Int(2)];
        let cx = Cx::new(&db);
        let env = Env::new(&layout, &row, &cx);
        let e = crate::parser::parse_expr("x").unwrap();
        assert!(matches!(eval(&e, &env), Err(SqlError::AmbiguousColumn(_))));
        let q = crate::parser::parse_expr("b.x").unwrap();
        assert_eq!(eval(&q, &env).unwrap(), Value::Int(2));
    }

    mod truthy_matches_walk {
        use super::*;
        use llmdm_rt::proptest;
        use llmdm_rt::proptest::prelude::*;

        /// Every type, NULL and NaN, over few distinct values so that
        /// equal, unequal and incomparable pairs all come up often.
        fn value() -> impl Strategy<Value = Value> {
            prop_oneof![
                Just(Value::Null),
                (-2i64..3).prop_map(Value::Int),
                (-2i64..3).prop_map(|i| Value::Float(i as f64 / 2.0)),
                Just(Value::Float(f64::NAN)),
                "[ab]{0,2}".prop_map(Value::Str),
                any::<bool>().prop_map(Value::Bool),
            ]
        }

        /// A slot (up to two past a row's end) or a literal.
        fn leaf() -> impl Strategy<Value = Expr> {
            prop_oneof![
                (0usize..6).prop_map(|index| Expr::Slot { index, name: format!("c{index}") }),
                value().prop_map(Expr::Literal),
            ]
        }

        fn comparison() -> impl Strategy<Value = BinOp> {
            use BinOp::*;
            prop_oneof![Just(Eq), Just(Neq), Just(Lt), Just(Le), Just(Gt), Just(Ge)]
        }

        /// Comparisons over leaves and over each other, under AND, OR,
        /// NOT and IS NULL; half the trees are a comparison at the root.
        fn tree() -> impl Strategy<Value = Expr> {
            let inner = leaf().prop_recursive(3, 16, 2, |inner| {
                prop_oneof![
                    (inner.clone(), inner.clone(), comparison())
                        .prop_map(|(l, r, op)| Expr::bin(op, l, r)),
                    (inner.clone(), inner.clone(), prop_oneof![Just(BinOp::And), Just(BinOp::Or)])
                        .prop_map(|(l, r, op)| Expr::bin(op, l, r)),
                    inner.clone().prop_map(|e| Expr::Unary { op: UnOp::Not, expr: Box::new(e) }),
                    (inner, any::<bool>())
                        .prop_map(|(e, negated)| Expr::IsNull { expr: Box::new(e), negated }),
                ]
            });
            prop_oneof![
                (inner.clone(), inner.clone(), comparison())
                    .prop_map(|(l, r, op)| Expr::bin(op, l, r)),
                inner,
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// `truthy` decides a comparison itself; its answer and its
            /// error, text included, are the walker's.
            #[test]
            fn truthy_is_the_walkers_answer(
                e in tree(),
                row in proptest::collection::vec(value(), 0..5),
            ) {
                let db = Database::new();
                let cx = Cx::new(&db);
                let layout = Bindings::default();
                let env = Env::new(&layout, &row, &cx);
                let decided = truthy(&e, &env).map_err(|e| e.to_string());
                let walked = walk(&e, &env).map(|v| v.is_truthy()).map_err(|e| e.to_string());
                prop_assert_eq!(decided, walked, "{:?} over {:?}", e, row);
            }
        }
    }

    #[test]
    fn negating_i64_min_is_an_error_not_a_panic() {
        // -(-9223372036854775808) overflows i64; lexing produces the value
        // via unary minus on i64::MIN's literal magnitude… which itself is
        // out of range, so build the expression programmatically.
        let db = Database::new();
        let cx = Cx::new(&db);
        let env = Env::empty(&cx);
        let e = Expr::Unary {
            op: crate::ast::UnOp::Neg,
            expr: Box::new(Expr::Literal(Value::Int(i64::MIN))),
        };
        assert!(matches!(eval(&e, &env), Err(SqlError::Exec(_))));
    }
}
