//! Recursive-descent SQL parser.

use std::sync::Arc;

use crate::ast::{
    AggFunc, Assignment, BinOp, Expr, FromItem, JoinType, OrderKey, SelectItem, SelectStmt, SetOp,
    Statement, UnOp,
};
use crate::error::SqlError;
use crate::lexer::{lex, Sym, Token};
use crate::value::{DataType, Value};

/// Parse a single SQL statement (trailing `;` allowed).
pub fn parse_statement(sql: &str) -> Result<Statement, SqlError> {
    let toks = lex(sql)?;
    let mut p = Parser { toks, pos: 0, depth: 0 };
    let stmt = p.statement()?;
    p.eat_symbol(Sym::Semicolon);
    if !p.at_end() {
        return Err(SqlError::Parse(format!("trailing tokens after statement: {:?}", p.peek())));
    }
    Ok(stmt)
}

/// Parse a `;`-separated script into statements.
pub fn parse_script(sql: &str) -> Result<Vec<Statement>, SqlError> {
    let toks = lex(sql)?;
    let mut p = Parser { toks, pos: 0, depth: 0 };
    let mut out = Vec::new();
    while !p.at_end() {
        if p.eat_symbol(Sym::Semicolon) {
            continue;
        }
        out.push(p.statement()?);
        if !p.at_end() && !p.eat_symbol(Sym::Semicolon) {
            return Err(SqlError::Parse(format!("expected `;` between statements, got {:?}", p.peek())));
        }
    }
    Ok(out)
}

/// Parse a standalone expression (used by tests and by the transformation
/// crates to validate generated predicates).
pub fn parse_expr(input: &str) -> Result<Expr, SqlError> {
    let toks = lex(input)?;
    let mut p = Parser { toks, pos: 0, depth: 0 };
    let e = p.expr()?;
    if !p.at_end() {
        return Err(SqlError::Parse("trailing tokens after expression".into()));
    }
    Ok(e)
}

/// Words that terminate an implicit alias.
const RESERVED: &[&str] = &[
    "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET", "UNION", "INTERSECT",
    "EXCEPT", "ON", "JOIN", "INNER", "LEFT", "RIGHT", "OUTER", "AND", "OR", "NOT", "AS", "BY",
    "SET", "VALUES", "ASC", "DESC", "ALL", "DISTINCT", "SELECT", "IN", "LIKE", "BETWEEN", "IS",
    "EXISTS", "CROSS", "LLM_JOIN",
];

/// Maximum nesting depth for expressions and set-operation chains. The
/// parser is recursive-descent, so unbounded nesting in query text (e.g.
/// thousands of `(`, `NOT`, or `-` in a row) would overflow the stack —
/// which `catch_unwind` cannot catch. The guard turns that into a typed
/// parse error instead. One parenthesized level costs the full
/// precedence-chain of stack frames (~10), so the cap is sized to fit a
/// debug-build test-thread stack (2 MiB) with plenty of headroom.
const MAX_DEPTH: usize = 48;

#[allow(clippy::wrong_self_convention)] // `from_clause` parses the SQL FROM clause
struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Current recursion depth (see [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.toks.get(self.pos + 1)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!("expected {kw}, got {:?}", self.peek())))
        }
    }

    fn eat_symbol(&mut self, s: Sym) -> bool {
        if self.peek() == Some(&Token::Symbol(s)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: Sym) -> Result<(), SqlError> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!("expected {s:?}, got {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, SqlError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(SqlError::Parse(format!("expected identifier, got {other:?}"))),
        }
    }

    fn peek_is_reserved(&self) -> bool {
        matches!(self.peek(), Some(Token::Ident(s))
            if RESERVED.iter().any(|r| s.eq_ignore_ascii_case(r)))
    }

    /// Run `f` one recursion level deeper, rejecting nesting past
    /// [`MAX_DEPTH`] with a parse error before the stack can overflow.
    fn with_depth<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, SqlError>,
    ) -> Result<T, SqlError> {
        if self.depth >= MAX_DEPTH {
            return Err(SqlError::Parse(format!(
                "nesting deeper than {MAX_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let result = f(self);
        self.depth -= 1;
        result
    }

    // ---------------- statements ----------------

    fn statement(&mut self) -> Result<Statement, SqlError> {
        let Some(tok) = self.peek() else {
            return Err(SqlError::Parse("empty input".into()));
        };
        if tok.is_kw("SELECT") {
            return Ok(Statement::Select(self.select()?));
        }
        if tok.is_kw("EXPLAIN") {
            self.next();
            let analyze = self.eat_kw("ANALYZE");
            return Ok(Statement::Explain { analyze, select: self.select()? });
        }
        if tok.is_kw("INSERT") {
            return self.insert();
        }
        if tok.is_kw("UPDATE") {
            return self.update();
        }
        if tok.is_kw("DELETE") {
            return self.delete();
        }
        if tok.is_kw("CREATE") {
            return self.create_table();
        }
        if tok.is_kw("DROP") {
            return self.drop_table();
        }
        if tok.is_kw("BEGIN") || tok.is_kw("START") {
            self.next();
            self.eat_kw("TRANSACTION");
            return Ok(Statement::Begin);
        }
        if tok.is_kw("COMMIT") {
            self.next();
            return Ok(Statement::Commit);
        }
        if tok.is_kw("ROLLBACK") {
            self.next();
            return Ok(Statement::Rollback);
        }
        Err(SqlError::Parse(format!("unexpected start of statement: {tok:?}")))
    }

    fn insert(&mut self) -> Result<Statement, SqlError> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let columns = if self.eat_symbol(Sym::LParen) {
            let mut cols = vec![self.ident()?];
            while self.eat_symbol(Sym::Comma) {
                cols.push(self.ident()?);
            }
            self.expect_symbol(Sym::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut values = Vec::new();
        loop {
            self.expect_symbol(Sym::LParen)?;
            let mut row = vec![self.expr()?];
            while self.eat_symbol(Sym::Comma) {
                row.push(self.expr()?);
            }
            self.expect_symbol(Sym::RParen)?;
            values.push(row);
            if !self.eat_symbol(Sym::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, columns, values })
    }

    fn update(&mut self) -> Result<Statement, SqlError> {
        self.expect_kw("UPDATE")?;
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let column = self.ident()?;
            self.expect_symbol(Sym::Eq)?;
            let value = self.expr()?;
            assignments.push(Assignment { column, value });
            if !self.eat_symbol(Sym::Comma) {
                break;
            }
        }
        let selection = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        Ok(Statement::Update { table, assignments, selection })
    }

    fn delete(&mut self) -> Result<Statement, SqlError> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let selection = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        Ok(Statement::Delete { table, selection })
    }

    fn create_table(&mut self) -> Result<Statement, SqlError> {
        self.expect_kw("CREATE")?;
        self.expect_kw("TABLE")?;
        let if_not_exists = if self.eat_kw("IF") {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let table = self.ident()?;
        self.expect_symbol(Sym::LParen)?;
        let mut columns = Vec::new();
        loop {
            let name = self.ident()?;
            let ty = self.data_type()?;
            // Ignore constraints like PRIMARY KEY / NOT NULL for simplicity.
            while !matches!(self.peek(), Some(Token::Symbol(Sym::Comma | Sym::RParen)) | None) {
                self.next();
            }
            columns.push((name, ty));
            if !self.eat_symbol(Sym::Comma) {
                break;
            }
        }
        self.expect_symbol(Sym::RParen)?;
        let persist = self.eat_kw("PERSIST");
        Ok(Statement::CreateTable { table, columns, if_not_exists, persist })
    }

    fn drop_table(&mut self) -> Result<Statement, SqlError> {
        self.expect_kw("DROP")?;
        self.expect_kw("TABLE")?;
        let if_exists = if self.eat_kw("IF") {
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let table = self.ident()?;
        Ok(Statement::DropTable { table, if_exists })
    }

    fn data_type(&mut self) -> Result<DataType, SqlError> {
        let name = self.ident()?.to_ascii_uppercase();
        let ty = match name.as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => DataType::Int,
            "FLOAT" | "REAL" | "DOUBLE" | "NUMERIC" | "DECIMAL" => DataType::Float,
            "TEXT" | "VARCHAR" | "CHAR" | "STRING" => DataType::Text,
            "BOOL" | "BOOLEAN" => DataType::Bool,
            other => return Err(SqlError::Parse(format!("unknown type {other}"))),
        };
        // Optional length/precision: VARCHAR(255), DECIMAL(10, 2).
        if self.eat_symbol(Sym::LParen) {
            while !self.eat_symbol(Sym::RParen) {
                if self.next().is_none() {
                    return Err(SqlError::Parse("unterminated type parameters".into()));
                }
            }
        }
        Ok(ty)
    }

    // ---------------- SELECT ----------------

    fn select(&mut self) -> Result<SelectStmt, SqlError> {
        let mut stmt = self.select_body()?;
        // ORDER BY / LIMIT / OFFSET attach to the whole chain.
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                stmt.order_by.push(OrderKey { expr, desc });
                if !self.eat_symbol(Sym::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("LIMIT") {
            stmt.limit = Some(self.usize_literal()?);
        }
        if self.eat_kw("OFFSET") {
            stmt.offset = Some(self.usize_literal()?);
        }
        Ok(stmt)
    }

    /// A select core plus its set-operation chain, *without* ORDER BY /
    /// LIMIT (those belong to the outermost statement).
    fn select_body(&mut self) -> Result<SelectStmt, SqlError> {
        let mut stmt = self.select_core()?;
        if let Some(op) = self.set_op() {
            let all = self.eat_kw("ALL");
            let rhs = self.with_depth(|p| p.select_body())?;
            stmt.set_op = Some((op, all, Box::new(rhs)));
        }
        Ok(stmt)
    }

    fn set_op(&mut self) -> Option<SetOp> {
        if self.eat_kw("UNION") {
            Some(SetOp::Union)
        } else if self.eat_kw("INTERSECT") {
            Some(SetOp::Intersect)
        } else if self.eat_kw("EXCEPT") {
            Some(SetOp::Except)
        } else {
            None
        }
    }

    fn usize_literal(&mut self) -> Result<usize, SqlError> {
        match self.next() {
            Some(Token::Int(n)) if n >= 0 => Ok(n as usize),
            other => Err(SqlError::Parse(format!("expected non-negative integer, got {other:?}"))),
        }
    }

    fn select_core(&mut self) -> Result<SelectStmt, SqlError> {
        self.expect_kw("SELECT")?;
        let mut stmt = SelectStmt::empty();
        if self.eat_kw("DISTINCT") {
            stmt.distinct = true;
        } else {
            self.eat_kw("ALL");
        }
        loop {
            stmt.projections.push(self.select_item()?);
            if !self.eat_symbol(Sym::Comma) {
                break;
            }
        }
        if self.eat_kw("FROM") {
            stmt.from = self.from_clause()?;
        }
        if self.eat_kw("WHERE") {
            stmt.selection = Some(self.expr()?);
        }
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                stmt.group_by.push(self.expr()?);
                if !self.eat_symbol(Sym::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("HAVING") {
            stmt.having = Some(self.expr()?);
        }
        Ok(stmt)
    }

    fn select_item(&mut self) -> Result<SelectItem, SqlError> {
        if self.eat_symbol(Sym::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `t.*`
        if let (Some(Token::Ident(t)), Some(Token::Symbol(Sym::Dot)), Some(Token::Symbol(Sym::Star))) =
            (self.peek(), self.peek2(), self.toks.get(self.pos + 2))
        {
            let t = t.clone();
            self.pos += 3;
            return Ok(SelectItem::QualifiedWildcard(t));
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if !self.peek_is_reserved() {
            match self.peek() {
                Some(Token::Ident(_)) => Some(self.ident()?),
                _ => None,
            }
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn from_clause(&mut self) -> Result<Vec<FromItem>, SqlError> {
        let mut items = vec![self.from_item(None)?];
        loop {
            if self.eat_symbol(Sym::Comma) {
                // Comma join = inner join with TRUE condition.
                items.push(self.from_item(Some((JoinType::Inner, Expr::lit(true))))?);
            } else if self.eat_kw("LLM_JOIN") {
                // `LLM_JOIN t [alias] ON <pred>` — a semantic inner join;
                // the ON predicate must invoke a semantic operator
                // (canonically `LLM_MATCH(a.x, b.y, 'prompt')`).
                let table = self.ident()?;
                let alias = self.optional_alias()?;
                self.expect_kw("ON")?;
                let on = self.expr()?;
                if !on.contains_llm() {
                    return Err(SqlError::Parse(
                        "LLM_JOIN requires a semantic predicate in ON \
                         (e.g. LLM_MATCH(a.x, b.y, 'prompt'))"
                            .into(),
                    ));
                }
                items.push(FromItem { table, alias, join: Some((JoinType::Inner, on)) });
            } else if self.peek().is_some_and(|t| {
                t.is_kw("JOIN") || t.is_kw("INNER") || t.is_kw("LEFT") || t.is_kw("CROSS")
            }) {
                let jt = if self.eat_kw("LEFT") {
                    self.eat_kw("OUTER");
                    JoinType::Left
                } else if self.eat_kw("CROSS") {
                    self.expect_kw("JOIN")?;
                    items.push(self.from_item(Some((JoinType::Inner, Expr::lit(true))))?);
                    continue;
                } else {
                    self.eat_kw("INNER");
                    JoinType::Inner
                };
                self.expect_kw("JOIN")?;
                // Parse table ref first, then ON.
                let table = self.ident()?;
                let alias = self.optional_alias()?;
                self.expect_kw("ON")?;
                let on = self.expr()?;
                items.push(FromItem { table, alias, join: Some((jt, on)) });
            } else {
                break;
            }
        }
        Ok(items)
    }

    fn from_item(&mut self, join: Option<(JoinType, Expr)>) -> Result<FromItem, SqlError> {
        let table = self.ident()?;
        let alias = self.optional_alias()?;
        Ok(FromItem { table, alias, join })
    }

    fn optional_alias(&mut self) -> Result<Option<String>, SqlError> {
        if self.eat_kw("AS") {
            return Ok(Some(self.ident()?));
        }
        if !self.peek_is_reserved() {
            if let Some(Token::Ident(_)) = self.peek() {
                return Ok(Some(self.ident()?));
            }
        }
        Ok(None)
    }

    // ---------------- expressions ----------------

    fn expr(&mut self) -> Result<Expr, SqlError> {
        self.with_depth(|p| p.or_expr())
    }

    fn or_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::bin(BinOp::Or, left, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::bin(BinOp::And, left, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr, SqlError> {
        if self.eat_kw("NOT") {
            let e = self.with_depth(|p| p.not_expr())?;
            return Ok(Expr::Unary { op: UnOp::Not, expr: Box::new(e) });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, SqlError> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        // [NOT] IN / LIKE / BETWEEN
        let negated = self.eat_kw("NOT");
        if self.eat_kw("IN") {
            self.expect_symbol(Sym::LParen)?;
            if self.peek().is_some_and(|t| t.is_kw("SELECT")) {
                let sub = self.select()?;
                self.expect_symbol(Sym::RParen)?;
                let subquery = Arc::new(sub);
                return Ok(Expr::InSubquery { expr: Box::new(left), subquery, negated });
            }
            let mut list = vec![self.expr()?];
            while self.eat_symbol(Sym::Comma) {
                list.push(self.expr()?);
            }
            self.expect_symbol(Sym::RParen)?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if self.eat_kw("LIKE") {
            let pattern = match self.next() {
                Some(Token::Str(s)) => s,
                other => {
                    return Err(SqlError::Parse(format!("LIKE expects a string pattern, got {other:?}")))
                }
            };
            return Ok(Expr::Like { expr: Box::new(left), pattern, negated });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.additive()?;
            self.expect_kw("AND")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if negated {
            return Err(SqlError::Parse("dangling NOT before non-predicate".into()));
        }
        // Simple comparison operators.
        let op = match self.peek() {
            Some(Token::Symbol(Sym::Eq)) => Some(BinOp::Eq),
            Some(Token::Symbol(Sym::Neq)) => Some(BinOp::Neq),
            Some(Token::Symbol(Sym::Lt)) => Some(BinOp::Lt),
            Some(Token::Symbol(Sym::Le)) => Some(BinOp::Le),
            Some(Token::Symbol(Sym::Gt)) => Some(BinOp::Gt),
            Some(Token::Symbol(Sym::Ge)) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.next();
            let right = self.additive()?;
            return Ok(Expr::bin(op, left, right));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Sym::Plus)) => BinOp::Add,
                Some(Token::Symbol(Sym::Minus)) => BinOp::Sub,
                _ => break,
            };
            self.next();
            let right = self.multiplicative()?;
            left = Expr::bin(op, left, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Sym::Star)) => BinOp::Mul,
                Some(Token::Symbol(Sym::Slash)) => BinOp::Div,
                Some(Token::Symbol(Sym::Percent)) => BinOp::Mod,
                _ => break,
            };
            self.next();
            let right = self.unary()?;
            left = Expr::bin(op, left, right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr, SqlError> {
        if self.eat_symbol(Sym::Minus) {
            let e = self.with_depth(|p| p.unary())?;
            return Ok(Expr::Unary { op: UnOp::Neg, expr: Box::new(e) });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, SqlError> {
        match self.peek().cloned() {
            Some(Token::Int(n)) => {
                self.next();
                Ok(Expr::lit(n))
            }
            Some(Token::Float(f)) => {
                self.next();
                Ok(Expr::lit(f))
            }
            Some(Token::Str(s)) => {
                self.next();
                Ok(Expr::Literal(Value::Str(s)))
            }
            Some(Token::Symbol(Sym::LParen)) => {
                self.next();
                if self.peek().is_some_and(|t| t.is_kw("SELECT")) {
                    let sub = self.select()?;
                    self.expect_symbol(Sym::RParen)?;
                    Ok(Expr::ScalarSubquery(Arc::new(sub)))
                } else {
                    let e = self.expr()?;
                    self.expect_symbol(Sym::RParen)?;
                    Ok(e)
                }
            }
            Some(Token::Ident(id)) => {
                // Keywords acting as expressions.
                if id.eq_ignore_ascii_case("NULL") {
                    self.next();
                    return Ok(Expr::Literal(Value::Null));
                }
                if id.eq_ignore_ascii_case("TRUE") {
                    self.next();
                    return Ok(Expr::lit(true));
                }
                if id.eq_ignore_ascii_case("FALSE") {
                    self.next();
                    return Ok(Expr::lit(false));
                }
                if id.eq_ignore_ascii_case("EXISTS") {
                    self.next();
                    self.expect_symbol(Sym::LParen)?;
                    let sub = self.select()?;
                    self.expect_symbol(Sym::RParen)?;
                    return Ok(Expr::Exists { subquery: Arc::new(sub), negated: false });
                }
                if id.eq_ignore_ascii_case("NOT")
                    && self.peek2().is_some_and(|t| t.is_kw("EXISTS"))
                {
                    self.next();
                    self.next();
                    self.expect_symbol(Sym::LParen)?;
                    let sub = self.select()?;
                    self.expect_symbol(Sym::RParen)?;
                    return Ok(Expr::Exists { subquery: Arc::new(sub), negated: true });
                }
                // Aggregate call?
                if let Some(func) = AggFunc::from_name(&id) {
                    if self.peek2() == Some(&Token::Symbol(Sym::LParen)) {
                        self.next();
                        self.next();
                        let distinct = self.eat_kw("DISTINCT");
                        let arg = if self.eat_symbol(Sym::Star) {
                            None
                        } else {
                            Some(Box::new(self.expr()?))
                        };
                        self.expect_symbol(Sym::RParen)?;
                        if arg.is_none() && func != AggFunc::Count {
                            return Err(SqlError::Parse(format!("{}(*) is invalid", func.name())));
                        }
                        return Ok(Expr::Aggregate { func, arg, distinct });
                    }
                }
                // Semantic operator call? Like aggregates, the names are
                // only special when followed by `(` so they remain usable
                // as plain column names.
                if self.peek2() == Some(&Token::Symbol(Sym::LParen)) {
                    if id.eq_ignore_ascii_case("LLM_MAP") || id.eq_ignore_ascii_case("LLM_FILTER")
                    {
                        let is_map = id.eq_ignore_ascii_case("LLM_MAP");
                        self.next();
                        self.next();
                        let arg = self.with_depth(|p| p.expr())?;
                        self.expect_symbol(Sym::Comma)?;
                        let template = self.template_literal(&id)?;
                        self.expect_symbol(Sym::RParen)?;
                        return Ok(if is_map {
                            Expr::LlmMap { arg: Box::new(arg), template }
                        } else {
                            Expr::LlmFilter { arg: Box::new(arg), template }
                        });
                    }
                    if id.eq_ignore_ascii_case("LLM_MATCH") {
                        self.next();
                        self.next();
                        let left = self.with_depth(|p| p.expr())?;
                        self.expect_symbol(Sym::Comma)?;
                        let right = self.with_depth(|p| p.expr())?;
                        self.expect_symbol(Sym::Comma)?;
                        let template = self.template_literal(&id)?;
                        self.expect_symbol(Sym::RParen)?;
                        return Ok(Expr::LlmMatch {
                            left: Box::new(left),
                            right: Box::new(right),
                            template,
                        });
                    }
                }
                // Column reference (possibly qualified). Reserved words
                // cannot be bare column names.
                if RESERVED.iter().any(|r| id.eq_ignore_ascii_case(r)) {
                    return Err(SqlError::Parse(format!(
                        "unexpected keyword {id} in expression"
                    )));
                }
                self.next();
                if self.eat_symbol(Sym::Dot) {
                    let col = self.ident()?;
                    Ok(Expr::Column { qualifier: Some(id), name: col })
                } else {
                    Ok(Expr::Column { qualifier: None, name: id })
                }
            }
            other => Err(SqlError::Parse(format!("unexpected token in expression: {other:?}"))),
        }
    }

    /// The prompt-template argument of a semantic operator must be a
    /// string literal: templates are part of the query text, not data.
    fn template_literal(&mut self, func: &str) -> Result<String, SqlError> {
        match self.peek().cloned() {
            Some(Token::Str(s)) => {
                self.next();
                Ok(s)
            }
            other => Err(SqlError::Parse(format!(
                "{} requires a string-literal prompt template, got {other:?}",
                func.to_ascii_uppercase()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::SelectItem;

    fn sel(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let s = sel("SELECT name FROM stadium WHERE capacity > 1000");
        assert_eq!(s.projections.len(), 1);
        assert_eq!(s.from[0].table, "stadium");
        assert!(s.selection.is_some());
    }

    #[test]
    fn select_star_and_alias() {
        let s = sel("SELECT *, capacity AS cap FROM stadium s");
        assert_eq!(s.projections[0], SelectItem::Wildcard);
        match &s.projections[1] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("cap")),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.from[0].alias.as_deref(), Some("s"));
    }

    #[test]
    fn join_with_on() {
        let s = sel(
            "SELECT s.name FROM stadium s JOIN concert c ON s.stadium_id = c.stadium_id",
        );
        assert_eq!(s.from.len(), 2);
        assert!(matches!(s.from[1].join, Some((JoinType::Inner, _))));
    }

    #[test]
    fn left_join() {
        let s = sel("SELECT * FROM a LEFT OUTER JOIN b ON a.id = b.id");
        assert!(matches!(s.from[1].join, Some((JoinType::Left, _))));
    }

    #[test]
    fn comma_join_is_inner_true() {
        let s = sel("SELECT * FROM a, b WHERE a.id = b.id");
        assert!(matches!(
            s.from[1].join,
            Some((JoinType::Inner, Expr::Literal(Value::Bool(true))))
        ));
    }

    #[test]
    fn group_by_having_order_limit() {
        let s = sel(
            "SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING COUNT(*) > 2 \
             ORDER BY dept DESC LIMIT 10 OFFSET 5",
        );
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert!(s.order_by[0].desc);
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.offset, Some(5));
    }

    #[test]
    fn aggregates() {
        let s = sel("SELECT COUNT(*), SUM(x), AVG(DISTINCT y) FROM t");
        match &s.projections[2] {
            SelectItem::Expr { expr: Expr::Aggregate { func, distinct, .. }, .. } => {
                assert_eq!(*func, AggFunc::Avg);
                assert!(distinct);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn in_subquery() {
        let s = sel(
            "SELECT name FROM stadium WHERE stadium_id IN \
             (SELECT stadium_id FROM concert WHERE year = 2014)",
        );
        assert!(matches!(s.selection, Some(Expr::InSubquery { negated: false, .. })));
    }

    #[test]
    fn not_in_list() {
        let s = sel("SELECT * FROM t WHERE x NOT IN (1, 2, 3)");
        assert!(matches!(s.selection, Some(Expr::InList { negated: true, .. })));
    }

    #[test]
    fn exists() {
        let s = sel("SELECT * FROM t WHERE EXISTS (SELECT 1 FROM u)");
        assert!(matches!(s.selection, Some(Expr::Exists { negated: false, .. })));
    }

    #[test]
    fn like_between_isnull() {
        let s = sel("SELECT * FROM t WHERE a LIKE 'x%' AND b BETWEEN 1 AND 5 AND c IS NOT NULL");
        let Some(Expr::Binary { .. }) = s.selection else { panic!() };
    }

    #[test]
    fn set_ops() {
        let s = sel("SELECT a FROM t UNION SELECT a FROM u ORDER BY a LIMIT 3");
        let (op, all, _) = s.set_op.as_ref().unwrap();
        assert_eq!(*op, SetOp::Union);
        assert!(!all);
        assert_eq!(s.limit, Some(3));
    }

    #[test]
    fn scalar_subquery() {
        let s = sel("SELECT (SELECT MAX(x) FROM t) FROM u");
        assert!(matches!(
            s.projections[0],
            SelectItem::Expr { expr: Expr::ScalarSubquery(_), .. }
        ));
    }

    #[test]
    fn insert_multi_row() {
        let st = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match st {
            Statement::Insert { columns, values, .. } => {
                assert_eq!(columns.unwrap().len(), 2);
                assert_eq!(values.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_and_delete() {
        assert!(matches!(
            parse_statement("UPDATE t SET a = a + 1 WHERE b = 2").unwrap(),
            Statement::Update { .. }
        ));
        assert!(matches!(
            parse_statement("DELETE FROM t WHERE a = 1").unwrap(),
            Statement::Delete { .. }
        ));
    }

    #[test]
    fn create_with_types_and_constraints() {
        let st = parse_statement(
            "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(100) NOT NULL, w FLOAT, ok BOOL)",
        )
        .unwrap();
        match st {
            Statement::CreateTable { columns, .. } => {
                assert_eq!(columns.len(), 4);
                assert_eq!(columns[1].1, DataType::Text);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn transactions() {
        assert_eq!(parse_statement("BEGIN TRANSACTION").unwrap(), Statement::Begin);
        assert_eq!(parse_statement("COMMIT;").unwrap(), Statement::Commit);
        assert_eq!(parse_statement("ROLLBACK").unwrap(), Statement::Rollback);
    }

    #[test]
    fn script_parsing() {
        let stmts = parse_script("BEGIN; INSERT INTO t VALUES (1); COMMIT;").unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn precedence_arith_over_compare_over_and() {
        let e = parse_expr("a + 1 > 2 AND b = 3").unwrap();
        match e {
            Expr::Binary { op: BinOp::And, left, .. } => {
                assert!(matches!(*left, Expr::Binary { op: BinOp::Gt, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_statement("SELECT 1 FROM t garbage garbage").is_err());
        assert!(parse_statement("SELECT FROM").is_err());
    }

    #[test]
    fn qualified_wildcard() {
        let s = sel("SELECT t.* FROM t");
        assert_eq!(s.projections[0], SelectItem::QualifiedWildcard("t".into()));
    }

    #[test]
    fn negative_numbers() {
        let e = parse_expr("-3 + 4").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn empty_input_rejected() {
        assert!(parse_statement("").is_err());
        assert!(parse_statement("   ").is_err());
    }

    #[test]
    fn explain_statement() {
        let s = parse_statement("EXPLAIN SELECT a FROM t WHERE a > 1").unwrap();
        assert!(matches!(s, Statement::Explain { analyze: false, .. }));
        let s = parse_statement("EXPLAIN ANALYZE SELECT a FROM t WHERE a > 1").unwrap();
        assert!(matches!(s, Statement::Explain { analyze: true, .. }));
        // EXPLAIN requires a SELECT body.
        assert!(parse_statement("EXPLAIN INSERT INTO t VALUES (1)").is_err());
        assert!(parse_statement("EXPLAIN ANALYZE INSERT INTO t VALUES (1)").is_err());
        // And still works as a plain identifier elsewhere.
        let s = sel("SELECT explain FROM t");
        assert_eq!(s.projections.len(), 1);
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_crash() {
        // Parenthesized expressions.
        let deep = format!("SELECT {}1{}", "(".repeat(4000), ")".repeat(4000));
        assert!(matches!(parse_statement(&deep), Err(SqlError::Parse(_))));
        // NOT chains.
        let nots = format!("SELECT {} TRUE", "NOT ".repeat(4000));
        assert!(matches!(parse_statement(&nots), Err(SqlError::Parse(_))));
        // Unary minus chains.
        let negs = format!("SELECT {}1", "-".repeat(4000));
        assert!(matches!(parse_statement(&negs), Err(SqlError::Parse(_))));
        // Set-operation chains.
        let unions = vec!["SELECT 1"; 4000].join(" UNION ");
        assert!(matches!(parse_statement(&unions), Err(SqlError::Parse(_))));
        // Reasonable nesting still parses.
        let ok = format!("SELECT {}1{}", "(".repeat(20), ")".repeat(20));
        assert!(parse_statement(&ok).is_ok());
    }

    #[test]
    fn llm_map_and_filter_parse() {
        let s = sel("SELECT LLM_MAP(name, 'uppercase') FROM t WHERE LLM_FILTER(bio, 'positive?')");
        match &s.projections[0] {
            SelectItem::Expr { expr: Expr::LlmMap { arg, template }, alias: None } => {
                assert!(matches!(**arg, Expr::Column { .. }));
                assert_eq!(template, "uppercase");
            }
            other => panic!("expected LLM_MAP projection, got {other:?}"),
        }
        assert!(matches!(s.selection, Some(Expr::LlmFilter { .. })));
    }

    #[test]
    fn llm_match_parses_with_two_args() {
        let e = parse_expr("LLM_MATCH(a.x, b.y, 'same thing?')").unwrap();
        match e {
            Expr::LlmMatch { left, right, template } => {
                assert!(matches!(*left, Expr::Column { qualifier: Some(_), .. }));
                assert!(matches!(*right, Expr::Column { qualifier: Some(_), .. }));
                assert_eq!(template, "same thing?");
            }
            other => panic!("expected LLM_MATCH, got {other:?}"),
        }
    }

    #[test]
    fn llm_join_parses_as_inner_join_with_semantic_on() {
        let s = sel("SELECT * FROM a LLM_JOIN b ON LLM_MATCH(a.x, b.y, 'same?')");
        assert_eq!(s.from.len(), 2);
        let (jt, on) = s.from[1].join.as_ref().expect("join clause");
        assert_eq!(*jt, JoinType::Inner);
        assert!(on.contains_llm());
        // Aliases work too.
        let s = sel("SELECT * FROM a x LLM_JOIN b y ON LLM_MATCH(x.c, y.d, 'p')");
        assert_eq!(s.from[1].alias.as_deref(), Some("y"));
    }

    #[test]
    fn llm_join_without_semantic_predicate_rejected() {
        assert!(parse_statement("SELECT * FROM a LLM_JOIN b ON a.x = b.y").is_err());
        assert!(parse_statement("SELECT * FROM a LLM_JOIN b").is_err());
    }

    #[test]
    fn llm_templates_must_be_string_literals() {
        assert!(parse_statement("SELECT LLM_MAP(name, 42) FROM t").is_err());
        assert!(parse_statement("SELECT LLM_MAP(name, other_col) FROM t").is_err());
        assert!(parse_statement("SELECT LLM_MATCH(a, b, c) FROM t").is_err());
    }

    #[test]
    fn llm_names_stay_valid_as_plain_columns() {
        // Without a following `(` the names are ordinary identifiers.
        let s = sel("SELECT llm_map, llm_filter FROM t WHERE llm_match > 1");
        assert_eq!(s.projections.len(), 2);
        assert!(s.selection.is_some());
    }
}
