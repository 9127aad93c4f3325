//! Property-based tests for the SQL engine: printer/parser round-trips
//! over generated ASTs, value-ordering laws, and executor invariants.

use llmdm_sqlengine::ast::{BinOp, Expr, SelectItem, SelectStmt, Statement};
use llmdm_sqlengine::{parse_statement, print_statement, Database, Value};
use llmdm_rt::proptest;
use llmdm_rt::proptest::prelude::*;

// ---------- generated expression ASTs ----------

fn literal_strategy() -> impl Strategy<Value = Expr> {
    // Non-negative numerics only: `-5` re-parses as `Neg(5)` by design
    // (SQL has no negative literals), so negative values are not in the
    // printer's canonical form.
    prop_oneof![
        (0i64..1_000_000).prop_map(Expr::lit),
        (0i64..1000).prop_map(|i| Expr::Literal(Value::Float(i as f64 / 8.0))),
        "[a-z ]{0,12}".prop_map(|s| Expr::Literal(Value::Str(s))),
        any::<bool>().prop_map(Expr::lit),
        Just(Expr::Literal(Value::Null)),
    ]
}

fn column_strategy() -> impl Strategy<Value = Expr> {
    // Identifiers that cannot collide with reserved words.
    "[a-z][a-z0-9_]{0,8}col".prop_map(|name| Expr::col(&name))
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![literal_strategy(), column_strategy()];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), prop_oneof![
                Just(BinOp::Add), Just(BinOp::Sub), Just(BinOp::Mul),
                Just(BinOp::Eq), Just(BinOp::Lt), Just(BinOp::Ge),
                Just(BinOp::And), Just(BinOp::Or),
            ])
                .prop_map(|(l, r, op)| Expr::bin(op, l, r)),
            (inner.clone(), proptest::collection::vec(literal_strategy(), 1..4), any::<bool>())
                .prop_map(|(e, list, negated)| Expr::InList {
                    expr: Box::new(e),
                    list,
                    negated
                }),
            (inner.clone(), any::<bool>()).prop_map(|(e, negated)| Expr::IsNull {
                expr: Box::new(e),
                negated
            }),
            (inner, "[a-z%_]{0,8}", any::<bool>()).prop_map(|(e, pattern, negated)| Expr::Like {
                expr: Box::new(e),
                pattern,
                negated
            }),
        ]
    })
}

fn select_strategy() -> impl Strategy<Value = SelectStmt> {
    (
        proptest::collection::vec(expr_strategy(), 1..4),
        proptest::option::of(expr_strategy()),
        any::<bool>(),
        proptest::option::of(0usize..100),
    )
        .prop_map(|(projections, selection, distinct, limit)| {
            let mut s = SelectStmt::empty();
            s.distinct = distinct;
            s.projections = projections
                .into_iter()
                .map(|expr| SelectItem::Expr { expr, alias: None })
                .collect();
            s.from = vec![llmdm_sqlengine::ast::FromItem {
                table: "t".to_string(),
                alias: None,
                join: None,
            }];
            s.selection = selection;
            s.limit = limit;
            s
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// print → parse is the identity on generated SELECT ASTs.
    #[test]
    fn printer_parser_roundtrip(select in select_strategy()) {
        let stmt = Statement::Select(select);
        let printed = print_statement(&stmt);
        let reparsed = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("reparse failed for {printed:?}: {e}"));
        prop_assert_eq!(stmt, reparsed);
    }

    /// Value total ordering is reflexive, antisymmetric, and transitive.
    #[test]
    fn value_total_order_laws(
        a in value_strategy(),
        b in value_strategy(),
        c in value_strategy(),
    ) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.total_cmp(&a), Ordering::Equal);
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
    }

    /// LIMIT never yields more rows, and result arity matches projections.
    #[test]
    fn limit_and_arity_invariants(
        rows in proptest::collection::vec((any::<i32>(), "[a-z]{0,6}"), 0..20),
        limit in 0usize..10,
    ) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (x INT, s TEXT)").unwrap();
        for (x, s) in &rows {
            db.execute(&format!("INSERT INTO t VALUES ({x}, '{s}')")).unwrap();
        }
        let rs = db.query(&format!("SELECT x, s FROM t LIMIT {limit}")).unwrap();
        prop_assert!(rs.rows.len() <= limit);
        prop_assert!(rs.rows.iter().all(|r| r.len() == 2));
        let all = db.query("SELECT x, s FROM t").unwrap();
        prop_assert_eq!(all.rows.len(), rows.len());
    }

    /// WHERE filters exactly match direct evaluation: the engine and a
    /// hand rolled filter agree on row counts.
    #[test]
    fn where_matches_manual_filter(
        rows in proptest::collection::vec(-50i64..50, 0..30),
        threshold in -50i64..50,
    ) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (x INT)").unwrap();
        for x in &rows {
            db.execute(&format!("INSERT INTO t VALUES ({x})")).unwrap();
        }
        let rs = db.query(&format!("SELECT x FROM t WHERE x > {threshold}")).unwrap();
        let expected = rows.iter().filter(|&&x| x > threshold).count();
        prop_assert_eq!(rs.rows.len(), expected);
    }

    /// ORDER BY produces a sorted permutation of the unordered result.
    #[test]
    fn order_by_is_sorted_permutation(rows in proptest::collection::vec(-99i64..99, 0..25)) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (x INT)").unwrap();
        for x in &rows {
            db.execute(&format!("INSERT INTO t VALUES ({x})")).unwrap();
        }
        let ordered = db.query("SELECT x FROM t ORDER BY x").unwrap();
        let plain = db.query("SELECT x FROM t").unwrap();
        prop_assert!(ordered.bag_eq(&plain));
        let vals: Vec<i64> = ordered
            .rows
            .iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        prop_assert!(vals.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Aggregates agree with hand computation.
    #[test]
    fn aggregates_match_manual(rows in proptest::collection::vec(-100i64..100, 1..25)) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (x INT)").unwrap();
        for x in &rows {
            db.execute(&format!("INSERT INTO t VALUES ({x})")).unwrap();
        }
        let rs = db.query("SELECT COUNT(*), SUM(x), MIN(x), MAX(x) FROM t").unwrap();
        prop_assert_eq!(&rs.rows[0][0], &Value::Int(rows.len() as i64));
        prop_assert_eq!(&rs.rows[0][1], &Value::Int(rows.iter().sum::<i64>()));
        prop_assert_eq!(&rs.rows[0][2], &Value::Int(*rows.iter().min().unwrap()));
        prop_assert_eq!(&rs.rows[0][3], &Value::Int(*rows.iter().max().unwrap()));
    }

    /// A transaction that rolls back leaves the table bit-identical.
    #[test]
    fn rollback_restores_exactly(
        initial in proptest::collection::vec(-20i64..20, 0..15),
        mutation in -20i64..20,
    ) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (x INT)").unwrap();
        for x in &initial {
            db.execute(&format!("INSERT INTO t VALUES ({x})")).unwrap();
        }
        let before = db.query("SELECT x FROM t").unwrap();
        db.execute("BEGIN").unwrap();
        db.execute(&format!("INSERT INTO t VALUES ({mutation})")).unwrap();
        db.execute(&format!("UPDATE t SET x = x + 1 WHERE x < {mutation}")).unwrap();
        db.execute("ROLLBACK").unwrap();
        let after = db.query("SELECT x FROM t").unwrap();
        prop_assert!(before.bag_eq(&after));
    }

    /// Any mix of DML and DDL over two tables inside `BEGIN … ROLLBACK`
    /// leaves every table bit-identical to a clone taken at BEGIN, row
    /// order included; the same statements ending in COMMIT leave what
    /// auto-commit leaves, statement outcomes included.
    #[test]
    fn rollback_and_commit_match_their_references(
        a in proptest::collection::vec(row_strategy(), 0..12),
        b in proptest::collection::vec(row_strategy(), 0..12),
        stmts in proptest::collection::vec(txn_statement_strategy(), 0..16),
    ) {
        let fixture = || {
            let mut db = Database::new();
            for (table, rows) in [("a", &a), ("b", &b)] {
                db.execute(&format!("CREATE TABLE {table} ({TXN_COLUMNS})")).unwrap();
                if !rows.is_empty() {
                    db.execute(&format!("INSERT INTO {table} VALUES {}", rows.join(", "))).unwrap();
                }
            }
            db
        };
        let run = |db: &mut Database| -> Vec<bool> {
            stmts.iter().map(|sql| db.execute(sql).is_ok()).collect()
        };

        let mut rolled = fixture();
        let at_begin = rolled.clone();
        rolled.execute("BEGIN").unwrap();
        run(&mut rolled);
        rolled.execute("ROLLBACK").unwrap();
        prop_assert!(same_tables(&rolled, &at_begin), "ROLLBACK after {stmts:#?}");

        let mut committed = fixture();
        committed.execute("BEGIN").unwrap();
        let in_txn = run(&mut committed);
        committed.execute("COMMIT").unwrap();
        let mut auto = fixture();
        prop_assert_eq!(in_txn, run(&mut auto));
        prop_assert!(same_tables(&committed, &auto), "COMMIT after {stmts:#?}");
    }
}

const TXN_COLUMNS: &str = "id INT, s TEXT, f FLOAT";

/// One `(id, s, f)` row literal. Ids collide on purpose, so a range
/// predicate matches zero, one or several rows.
fn row_strategy() -> impl Strategy<Value = String> {
    (0i64..20, "[a-c]{0,3}", -8i64..8)
        .prop_map(|(id, s, f)| format!("({id}, '{s}', {:?})", f as f64 / 4.0))
}

/// A statement against table `a` or `b`: single- and multi-row INSERT,
/// UPDATE and DELETE over an id range that may match nothing, an INSERT
/// that fails part-way (wrong arity in its last row), and a DROP or
/// re-CREATE of the name.
fn txn_statement_strategy() -> impl Strategy<Value = String> {
    let table = || prop_oneof![Just("a"), Just("b")];
    let range = || (0i64..24, 0i64..6).prop_map(|(lo, span)| (lo, lo + span));
    prop_oneof![
        (table(), proptest::collection::vec(row_strategy(), 1..4))
            .prop_map(|(t, rows)| format!("INSERT INTO {t} VALUES {}", rows.join(", "))),
        (table(), range(), "[a-c]{0,3}").prop_map(|(t, (lo, hi), s)| format!(
            "UPDATE {t} SET s = '{s}', f = f + 0.5 WHERE id BETWEEN {lo} AND {hi}"
        )),
        (table(), range())
            .prop_map(|(t, (lo, hi))| format!("DELETE FROM {t} WHERE id BETWEEN {lo} AND {hi}")),
        (table(), proptest::collection::vec(row_strategy(), 0..3)).prop_map(|(t, rows)| {
            let mut rows = rows;
            rows.push("(1, 'x')".to_string());
            format!("INSERT INTO {t} VALUES {}", rows.join(", "))
        }),
        table().prop_map(|t| format!("DROP TABLE {t}")),
        table().prop_map(|t| format!("CREATE TABLE {t} ({TXN_COLUMNS})")),
    ]
}

/// Same table names, and each table the same schema and rows, every
/// value [`Value::bit_eq`] and in the same order.
fn same_tables(x: &Database, y: &Database) -> bool {
    x.table_names() == y.table_names()
        && x.table_names().into_iter().all(|name| {
            let (p, q) = (x.table(name).unwrap(), y.table(name).unwrap());
            p.schema == q.schema
                && p.rows.len() == q.rows.len()
                && p.rows.iter().zip(&q.rows).all(|(r, w)| {
                    r.len() == w.len() && r.iter().zip(w).all(|(u, v)| u.bit_eq(v))
                })
        })
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1e6f64..1e6).prop_map(Value::Float),
        "[a-z]{0,8}".prop_map(Value::Str),
        any::<bool>().prop_map(Value::Bool),
    ]
}
