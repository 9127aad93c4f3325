//! AST → SQL text. Round-trips with the parser (property-tested), used by
//! the NL2SQL pipeline to render predicted queries.

use crate::ast::{
    BinOp, Expr, FromItem, JoinType, OrderKey, SelectItem, SelectStmt, SetOp, Statement, UnOp,
};

/// Render a statement as SQL.
pub fn print_statement(stmt: &Statement) -> String {
    match stmt {
        Statement::Select(s) => print_select(s),
        Statement::Explain { analyze, select } => {
            format!("EXPLAIN {}{}", if *analyze { "ANALYZE " } else { "" }, print_select(select))
        }
        Statement::Insert { table, columns, values } => {
            let cols = match columns {
                Some(cs) => format!(" ({})", cs.join(", ")),
                None => String::new(),
            };
            let rows: Vec<String> = values
                .iter()
                .map(|row| {
                    let vals: Vec<String> = row.iter().map(print_expr).collect();
                    format!("({})", vals.join(", "))
                })
                .collect();
            format!("INSERT INTO {table}{cols} VALUES {}", rows.join(", "))
        }
        Statement::Update { table, assignments, selection } => {
            let sets: Vec<String> = assignments
                .iter()
                .map(|a| format!("{} = {}", a.column, print_expr(&a.value)))
                .collect();
            let mut s = format!("UPDATE {table} SET {}", sets.join(", "));
            if let Some(w) = selection {
                s.push_str(&format!(" WHERE {}", print_expr(w)));
            }
            s
        }
        Statement::Delete { table, selection } => {
            let mut s = format!("DELETE FROM {table}");
            if let Some(w) = selection {
                s.push_str(&format!(" WHERE {}", print_expr(w)));
            }
            s
        }
        Statement::CreateTable { table, columns, if_not_exists, persist } => {
            let ine = if *if_not_exists { "IF NOT EXISTS " } else { "" };
            let cols: Vec<String> =
                columns.iter().map(|(n, t)| format!("{n} {t}")).collect();
            let p = if *persist { " PERSIST" } else { "" };
            format!("CREATE TABLE {ine}{table} ({}){p}", cols.join(", "))
        }
        Statement::DropTable { table, if_exists } => {
            let ie = if *if_exists { "IF EXISTS " } else { "" };
            format!("DROP TABLE {ie}{table}")
        }
        Statement::Begin => "BEGIN".to_string(),
        Statement::Commit => "COMMIT".to_string(),
        Statement::Rollback => "ROLLBACK".to_string(),
    }
}

/// Render a SELECT as SQL.
pub fn print_select(s: &SelectStmt) -> String {
    let mut out = String::from("SELECT ");
    if s.distinct {
        out.push_str("DISTINCT ");
    }
    let projs: Vec<String> = s.projections.iter().map(print_item).collect();
    out.push_str(&projs.join(", "));
    if !s.from.is_empty() {
        out.push_str(" FROM ");
        out.push_str(&print_from(&s.from));
    }
    if let Some(w) = &s.selection {
        out.push_str(&format!(" WHERE {}", print_expr(w)));
    }
    if !s.group_by.is_empty() {
        let keys: Vec<String> = s.group_by.iter().map(print_expr).collect();
        out.push_str(&format!(" GROUP BY {}", keys.join(", ")));
    }
    if let Some(h) = &s.having {
        out.push_str(&format!(" HAVING {}", print_expr(h)));
    }
    if let Some((op, all, rhs)) = &s.set_op {
        let kw = match op {
            SetOp::Union => "UNION",
            SetOp::Intersect => "INTERSECT",
            SetOp::Except => "EXCEPT",
        };
        let all = if *all { " ALL" } else { "" };
        out.push_str(&format!(" {kw}{all} {}", print_select(rhs)));
    }
    if !s.order_by.is_empty() {
        let keys: Vec<String> = s
            .order_by
            .iter()
            .map(|OrderKey { expr, desc }| {
                format!("{}{}", print_expr(expr), if *desc { " DESC" } else { "" })
            })
            .collect();
        out.push_str(&format!(" ORDER BY {}", keys.join(", ")));
    }
    if let Some(l) = s.limit {
        out.push_str(&format!(" LIMIT {l}"));
    }
    if let Some(o) = s.offset {
        out.push_str(&format!(" OFFSET {o}"));
    }
    out
}

fn print_from(from: &[FromItem]) -> String {
    let mut out = String::new();
    for (i, item) in from.iter().enumerate() {
        let alias = item
            .alias
            .as_ref()
            .map(|a| format!(" {a}"))
            .unwrap_or_default();
        match (&item.join, i) {
            (None, _) | (_, 0) => out.push_str(&format!("{}{alias}", item.table)),
            (Some((jt, on)), _) => {
                // Render TRUE-conditioned inner joins back as comma joins.
                if matches!(jt, JoinType::Inner)
                    && matches!(on, Expr::Literal(crate::value::Value::Bool(true)))
                {
                    out.push_str(&format!(", {}{alias}", item.table));
                } else {
                    let kw = match jt {
                        JoinType::Inner => "JOIN",
                        JoinType::Left => "LEFT JOIN",
                    };
                    out.push_str(&format!(" {kw} {}{alias} ON {}", item.table, print_expr(on)));
                }
            }
        }
    }
    out
}

fn print_item(item: &SelectItem) -> String {
    match item {
        SelectItem::Wildcard => "*".to_string(),
        SelectItem::QualifiedWildcard(t) => format!("{t}.*"),
        SelectItem::Expr { expr, alias } => match alias {
            Some(a) => format!("{} AS {a}", print_expr(expr)),
            None => print_expr(expr),
        },
    }
}

fn binop_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Mod => "%",
        BinOp::Eq => "=",
        BinOp::Neq => "!=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::And => "AND",
        BinOp::Or => "OR",
    }
}

/// Render an expression as SQL (fully parenthesized compound expressions,
/// so precedence never bites).
pub fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Literal(v) => v.to_string(),
        Expr::Column { qualifier, name } => match qualifier {
            Some(q) => format!("{q}.{name}"),
            None => name.clone(),
        },
        Expr::Slot { name, .. } => name.clone(),
        Expr::Binary { op, left, right } => {
            format!("({} {} {})", print_expr(left), binop_str(*op), print_expr(right))
        }
        Expr::Unary { op, expr } => match op {
            UnOp::Neg => format!("(-{})", print_expr(expr)),
            UnOp::Not => format!("(NOT {})", print_expr(expr)),
        },
        Expr::Aggregate { func, arg, distinct } => {
            let d = if *distinct { "DISTINCT " } else { "" };
            match arg {
                None => format!("{}(*)", func.name()),
                Some(a) => format!("{}({d}{})", func.name(), print_expr(a)),
            }
        }
        Expr::InList { expr, list, negated } => {
            let items: Vec<String> = list.iter().map(print_expr).collect();
            let not = if *negated { "NOT " } else { "" };
            format!("({} {not}IN ({}))", print_expr(expr), items.join(", "))
        }
        Expr::InSubquery { expr, subquery, negated } => {
            let not = if *negated { "NOT " } else { "" };
            format!("({} {not}IN ({}))", print_expr(expr), print_select(subquery))
        }
        Expr::Exists { subquery, negated } => {
            let not = if *negated { "NOT " } else { "" };
            format!("{not}EXISTS ({})", print_select(subquery))
        }
        Expr::ScalarSubquery(subquery) => format!("({})", print_select(subquery)),
        Expr::Like { expr, pattern, negated } => {
            let not = if *negated { "NOT " } else { "" };
            format!("({} {not}LIKE '{}')", print_expr(expr), pattern.replace('\'', "''"))
        }
        Expr::Between { expr, low, high, negated } => {
            let not = if *negated { "NOT " } else { "" };
            format!(
                "({} {not}BETWEEN {} AND {})",
                print_expr(expr),
                print_expr(low),
                print_expr(high)
            )
        }
        Expr::IsNull { expr, negated } => {
            let not = if *negated { "NOT " } else { "" };
            format!("({} IS {not}NULL)", print_expr(expr))
        }
        Expr::LlmMap { arg, template } => {
            format!("LLM_MAP({}, '{}')", print_expr(arg), template.replace('\'', "''"))
        }
        Expr::LlmFilter { arg, template } => {
            format!("LLM_FILTER({}, '{}')", print_expr(arg), template.replace('\'', "''"))
        }
        Expr::LlmMatch { left, right, template } => {
            format!(
                "LLM_MATCH({}, {}, '{}')",
                print_expr(left),
                print_expr(right),
                template.replace('\'', "''")
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_statement};

    /// Parse → print → parse must be a fixpoint on the AST.
    fn roundtrip_stmt(sql: &str) {
        let ast1 = parse_statement(sql).unwrap();
        let printed = print_statement(&ast1);
        let ast2 = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
        assert_eq!(ast1, ast2, "printed: {printed}");
    }

    #[test]
    fn roundtrip_selects() {
        for sql in [
            "SELECT name FROM stadium WHERE capacity > 1000",
            "SELECT DISTINCT s.name, c.year FROM stadium s JOIN concert c ON s.stadium_id = c.stadium_id",
            "SELECT * FROM a LEFT JOIN b ON a.id = b.id WHERE b.id IS NULL",
            "SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING COUNT(*) > 2 ORDER BY dept DESC LIMIT 5",
            "SELECT a FROM t UNION ALL SELECT a FROM u",
            "SELECT name FROM s WHERE id IN (SELECT sid FROM c WHERE year = 2014)",
            "SELECT name FROM s WHERE EXISTS (SELECT 1 FROM c) AND x BETWEEN 1 AND 2",
            "SELECT name FROM s WHERE name LIKE 'a%' OR name NOT LIKE '_b'",
            "SELECT (SELECT MAX(x) FROM t) AS mx FROM u",
            "SELECT COUNT(DISTINCT x) FROM t",
            "SELECT * FROM a, b WHERE a.x = b.y",
            "EXPLAIN SELECT name FROM stadium WHERE capacity > 1000 ORDER BY name LIMIT 3",
            "EXPLAIN ANALYZE SELECT name FROM stadium WHERE capacity > 1000",
        ] {
            roundtrip_stmt(sql);
        }
    }

    #[test]
    fn roundtrip_semantic_operators() {
        for sql in [
            "SELECT LLM_MAP(name, 'uppercase') FROM t",
            "SELECT name FROM t WHERE LLM_FILTER(bio, 'is it positive?')",
            "SELECT * FROM a JOIN b ON LLM_MATCH(a.x, b.y, 'same entity?')",
            // LLM_JOIN prints as plain JOIN (same AST), which reparses stably.
            "SELECT * FROM a LLM_JOIN b ON LLM_MATCH(a.x, b.y, 'same?')",
            "SELECT LLM_MAP(name, 'it''s quoted') AS m FROM t",
            "EXPLAIN SELECT LLM_MAP(name, 'x') FROM t WHERE LLM_FILTER(name, 'y')",
        ] {
            roundtrip_stmt(sql);
        }
    }

    #[test]
    fn roundtrip_dml_ddl() {
        for sql in [
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
            "UPDATE t SET a = (a + 1) WHERE b = 2",
            "DELETE FROM t WHERE a IS NOT NULL",
            "CREATE TABLE t (id INT, name TEXT, w FLOAT, ok BOOL)",
            "DROP TABLE IF EXISTS t",
            "BEGIN",
            "COMMIT",
            "ROLLBACK",
        ] {
            roundtrip_stmt(sql);
        }
    }

    #[test]
    fn printed_sql_executes() {
        let mut db = crate::exec::concert_db();
        let sql = "SELECT name FROM stadium WHERE stadium_id IN \
                   (SELECT stadium_id FROM concert WHERE year = 2014)";
        let ast = parse_statement(sql).unwrap();
        let printed = print_statement(&ast);
        let a = db.query(sql).unwrap();
        let b = db.query(&printed).unwrap();
        assert!(a.bag_eq(&b));
    }

    #[test]
    fn expr_printing_parenthesizes() {
        let e = parse_expr("a + b * c").unwrap();
        assert_eq!(print_expr(&e), "(a + (b * c))");
    }

    #[test]
    fn string_literals_escaped() {
        let e = parse_expr("name = 'o''brien'").unwrap();
        let printed = print_expr(&e);
        assert!(printed.contains("'o''brien'"));
        let re = parse_expr(&printed).unwrap();
        assert_eq!(e, re);
    }
}
