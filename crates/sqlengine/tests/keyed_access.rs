//! The equality index is an access path, not a second executor: a keyed
//! statement returns what a scan returns, fails where a scan fails, and
//! stays so through every way a table's rows change.
//!
//! The property runs random scripts over a table with NULLs, duplicate
//! keys, a text key and a `FLOAT` column fed `INT` literals, mixing keyed
//! `SELECT`s with multi-row and failing `INSERT`s, key-changing
//! `UPDATE`s, `DELETE`s, `BEGIN … COMMIT`/`ROLLBACK` and edits through
//! `Database::table_mut`. After every step:
//! * each probe's planned answer is bit-equal to `execute_select_direct`'s
//!   (the full scan), errors included, message for message;
//! * an `UPDATE` or `DELETE` changed as many rows as the direct `SELECT`
//!   of its `WHERE` returned before it ran, or failed with its error;
//! * a twin database whose indexes are dropped before every statement
//!   (so each is built fresh from the rows) gave the same outcome and
//!   holds the same rows: what DML did to the maintained indexes is what
//!   a rebuild would make.

use llmdm_rt::proptest;
use llmdm_rt::proptest::prelude::*;
use llmdm_sqlengine::exec::{execute_select, execute_select_direct};
use llmdm_sqlengine::{parse_statement, Database, ResultSet, Statement, Value};

/// A statement's outcome in comparable form: the result or the error text.
fn outcome(r: Result<ResultSet, impl std::fmt::Display>) -> Result<ResultSet, String> {
    r.map_err(|e| e.to_string())
}

fn select(sql: &str) -> llmdm_sqlengine::SelectStmt {
    match parse_statement(sql) {
        Ok(Statement::Select(s)) => s,
        other => panic!("not a SELECT: {sql}: {other:?}"),
    }
}

/// The full scan's answer to `sql`.
fn direct(db: &Database, sql: &str) -> Result<ResultSet, String> {
    outcome(execute_select_direct(db, &select(sql)))
}

/// Planned and direct answers to `sql`, which must agree bit for bit.
fn check_select(db: &Database, sql: &str) -> Result<ResultSet, String> {
    let planned = outcome(execute_select(db, &select(sql)));
    let direct = direct(db, sql);
    match (&planned, &direct) {
        (Ok(p), Ok(d)) => assert!(p.bit_eq(d), "{sql}\n planner: {p:?}\n direct:  {d:?}"),
        _ => assert_eq!(planned, direct, "{sql}"),
    }
    direct
}

const COLUMNS: [&str; 3] = ["id", "name", "f"];

fn literal() -> impl Strategy<Value = String> {
    prop_oneof![
        (0i64..6).prop_map(|i| i.to_string()),
        Just("1.5".to_string()),
        Just("2.0".to_string()),
        prop_oneof![Just("'a'"), Just("'b'"), Just("'c'")].prop_map(String::from),
        Just("NULL".to_string()),
        Just("TRUE".to_string()),
    ]
}

/// A `WHERE` whose leftmost conjunct is an equality on a column, either
/// way round, sometimes followed by a conjunct that cannot fail.
fn keyed_where() -> impl Strategy<Value = String> {
    keyed_where_then(prop_oneof![Just(""), Just(" AND name IS NOT NULL"), Just(" AND id IS NULL")])
}

/// The same, where the second conjunct may also fail on a row: a `WHERE`
/// for `UPDATE` and `DELETE`, which evaluate it whole as the direct path
/// does. (A planned `SELECT` tests its conjuncts one by one and stops at
/// the first that is not TRUE, so there a NULL leftmost conjunct hides a
/// later one's error; the two paths then differ with or without a key.)
fn dml_where() -> impl Strategy<Value = String> {
    keyed_where_then(prop_oneof![
        Just(""),
        Just(" AND id > 1"),
        Just(" AND name IS NOT NULL"),
        Just(" AND f < 3"),
        // A type error on every non-NULL name.
        Just(" AND name + 1 > 0"),
    ])
}

fn keyed_where_then(rest: impl Strategy<Value = &'static str>) -> impl Strategy<Value = String> {
    (0usize..3, literal(), any::<bool>(), rest).prop_map(|(col, lit, flip, rest)| {
        let col = COLUMNS[col];
        if flip {
            format!("{lit} = {col}{rest}")
        } else {
            format!("{col} = {lit}{rest}")
        }
    })
}

fn row() -> impl Strategy<Value = String> {
    let id = prop_oneof![(0i64..6).prop_map(|i| i.to_string()), Just("NULL".to_string())];
    let name = prop_oneof![Just("'a'"), Just("'b'"), Just("'c'"), Just("NULL")];
    let f = prop_oneof![(0i64..4).prop_map(|i| i.to_string()), Just("1.5".to_string())];
    (id, name, f).prop_map(|(id, name, f)| format!("({id}, {name}, {f})"))
}

/// One step of a script.
#[derive(Debug, Clone)]
enum Step {
    /// A statement that writes nothing or whose `WHERE` is not checked.
    Sql(String),
    /// `UPDATE`/`DELETE` (the text up to `WHERE`) with its `WHERE`.
    Dml(String, String),
    /// Through `table_mut`: overwrite a cell, possibly with a value of
    /// another type class or a NaN.
    Poke(usize, usize, Value),
    /// Through `table_mut`: reverse the rows.
    Reverse,
}

fn step() -> impl Strategy<Value = Step> {
    let poked = prop_oneof![
        (0i64..6).prop_map(Value::Int),
        Just(Value::Float(f64::NAN)),
        Just(Value::Str("a".into())),
        Just(Value::Null),
        Just(Value::Bool(true)),
    ];
    let assignment = prop_oneof![
        (0i64..6).prop_map(|i| format!("id = {i}")),
        Just("id = NULL".to_string()),
        prop_oneof![Just("'a'"), Just("'b'")].prop_map(|s| format!("name = {s}")),
        // An INT into the FLOAT column: UPDATE stores it as it is.
        (0i64..4).prop_map(|i| format!("f = {i}")),
        Just("id = 'x'".to_string()),
    ];
    prop_oneof![
        keyed_where().prop_map(|w| Step::Sql(format!("SELECT * FROM t WHERE {w}"))),
        keyed_where().prop_map(|w| Step::Sql(format!(
            "SELECT id, f FROM t WHERE {w} ORDER BY f DESC, id LIMIT 2"
        ))),
        proptest::collection::vec(row(), 1..4)
            .prop_map(|rows| Step::Sql(format!("INSERT INTO t VALUES {}", rows.join(", ")))),
        // Fails at its last row, after the others were pushed.
        proptest::collection::vec(row(), 1..3).prop_map(|mut rows| {
            rows.push("(1, 'x')".into());
            Step::Sql(format!("INSERT INTO t VALUES {}", rows.join(", ")))
        }),
        (assignment, dml_where()).prop_map(|(a, w)| Step::Dml(format!("UPDATE t SET {a}"), w)),
        dml_where().prop_map(|w| Step::Dml("DELETE FROM t".into(), w)),
        prop_oneof![Just("BEGIN"), Just("COMMIT"), Just("ROLLBACK")]
            .prop_map(|s| Step::Sql(s.into())),
        (0usize..64, 0usize..3, poked).prop_map(|(at, col, v)| Step::Poke(at, col, v)),
        Just(Step::Reverse),
    ]
}

/// Keyed probes run after every step: each column against a literal of
/// each class, and a NULL.
const PROBES: [&str; 8] = [
    "SELECT * FROM t WHERE id = 2",
    "SELECT * FROM t WHERE 2.0 = f AND id IS NOT NULL",
    "SELECT * FROM t WHERE f = 1.5",
    "SELECT * FROM t WHERE name = 'a'",
    "SELECT id FROM t WHERE name = 'b' AND id IS NOT NULL ORDER BY id DESC LIMIT 1",
    "SELECT * FROM t WHERE id = NULL",
    "SELECT * FROM t WHERE id = 'a'",
    "SELECT * FROM t WHERE name = 3",
];

/// Run `step` on `db`; its outcome as the number of rows it changed.
fn apply(db: &mut Database, step: &Step) -> Result<usize, String> {
    let poke = |db: &mut Database, edit: &dyn Fn(&mut Vec<Vec<Value>>)| {
        edit(&mut db.table_mut("t").expect("t exists").rows);
        Ok(0)
    };
    match step {
        Step::Sql(sql) => db.execute(sql).map(|rs| rs.affected).map_err(|e| e.to_string()),
        Step::Dml(head, w) => db
            .execute(&format!("{head} WHERE {w}"))
            .map(|rs| rs.affected)
            .map_err(|e| e.to_string()),
        Step::Poke(at, col, v) => poke(db, &|rows| {
            let n = rows.len();
            if n > 0 {
                rows[at % n][*col] = v.clone();
            }
        }),
        Step::Reverse => poke(db, &|rows| rows.reverse()),
    }
}

/// Same rows in the same order, every value [`Value::bit_eq`].
fn same_rows(x: &Database, y: &Database) -> bool {
    let (p, q) = (&x.table("t").unwrap().rows, &y.table("t").unwrap().rows);
    p.len() == q.len() && p.iter().zip(q).all(|(r, w)| r.iter().zip(w).all(|(u, v)| u.bit_eq(v)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn keyed_statements_answer_as_the_scan_through_every_change(
        rows in proptest::collection::vec(row(), 0..12),
        steps in proptest::collection::vec(step(), 1..24),
    ) {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT, name TEXT, f FLOAT)").unwrap();
        if !rows.is_empty() {
            db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
        }
        let mut fresh = db.clone();
        for step in &steps {
            let expected = match step {
                Step::Dml(_, w) => {
                    Some(direct(&db, &format!("SELECT * FROM t WHERE {w}")).map(|rs| rs.len()))
                }
                Step::Sql(sql) if sql.starts_with("SELECT") => {
                    let _ = check_select(&db, sql);
                    None
                }
                _ => None,
            };
            fresh.table_mut("t").unwrap();
            let (got, twin) = (apply(&mut db, step), apply(&mut fresh, step));
            prop_assert_eq!(&got, &twin, "{:?} after {:#?}", step, steps);
            if let Some(expected) = expected {
                prop_assert_eq!(&got, &expected, "{:?} after {:#?}", step, steps);
            }
            prop_assert!(same_rows(&db, &fresh), "{:?} after {:#?}", step, steps);
            for probe in PROBES {
                let _ = check_select(&db, probe);
            }
        }
    }
}

fn fixture() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE t (id INT, name TEXT, f FLOAT); \
         INSERT INTO t VALUES (1, 'a', 1), (2, NULL, 2), (NULL, 'b', 2.0), (2, 'a', 3), (3, 'c', NULL)",
    )
    .unwrap();
    db
}

#[test]
fn a_literal_of_another_type_fails_with_the_scans_error() {
    let mut db = fixture();
    // Build both indexes first, so the failing statements meet them.
    for sql in ["SELECT * FROM t WHERE id = 2", "SELECT * FROM t WHERE name = 'a'"] {
        assert!(!check_select(&db, sql).unwrap().rows.is_empty(), "{sql}");
    }
    for (w, error) in [
        ("id = 'x'", "type error: cannot compare 1 with 'x'"),
        ("name = 5", "type error: cannot compare 'a' with 5"),
    ] {
        let direct = check_select(&db, &format!("SELECT * FROM t WHERE {w}"));
        assert_eq!(direct.map(|rs| rs.len()), Err(error.to_string()), "{w}");
        for dml in [format!("DELETE FROM t WHERE {w}"), format!("UPDATE t SET f = 0 WHERE {w}")] {
            assert_eq!(outcome(db.execute(&dml)).map(|rs| rs.affected), Err(error.into()), "{dml}");
        }
    }
    assert_eq!(db.table("t").unwrap().rows, fixture().table("t").unwrap().rows);
}

#[test]
fn a_null_key_inside_a_longer_where_still_reaches_the_next_conjunct() {
    // `NULL AND x` evaluates `x`: on the row whose id is NULL the name
    // conjunct fails, so the scan fails, and so must the keyed statement.
    let mut db = fixture();
    check_select(&db, "SELECT * FROM t WHERE id = 3").unwrap();
    let w = "id = 3 AND name + 1 > 0";
    let error = direct(&db, &format!("SELECT * FROM t WHERE {w}")).unwrap_err();
    assert_eq!(error, "type error: cannot apply Add to 'b' and 1", "the row whose id is NULL");
    assert_eq!(outcome(db.execute(&format!("DELETE FROM t WHERE {w}"))).unwrap_err(), error);
    // Alone, the same equality skips the NULL row: NULL rejects it.
    assert_eq!(db.execute("DELETE FROM t WHERE id = 3").unwrap().affected, 1);
}

#[test]
fn an_equality_with_null_returns_no_rows() {
    let mut db = fixture();
    for w in ["id = NULL", "NULL = name", "f = NULL AND id = 1", "id = NULL AND name IS NOT NULL"] {
        let rs = check_select(&db, &format!("SELECT * FROM t WHERE {w}")).unwrap();
        assert!(rs.rows.is_empty(), "{w}");
        assert_eq!(db.execute(&format!("DELETE FROM t WHERE {w}")).unwrap().affected, 0, "{w}");
    }
}

#[test]
fn a_table_cloned_edited_and_created_elsewhere_is_seen_edited() {
    let db = fixture();
    check_select(&db, "SELECT * FROM t WHERE id = 1").unwrap();
    let mut table = db.table("t").unwrap().clone();
    table.rows[0][0] = Value::Int(7);
    let mut other = Database::new();
    other.create_table(table).unwrap();
    let seen = |db: &Database, id: i64| {
        check_select(db, &format!("SELECT name FROM t WHERE id = {id}")).unwrap().rows.len()
    };
    assert_eq!((seen(&other, 7), seen(&other, 1)), (1, 0));
    assert_eq!((seen(&db, 7), seen(&db, 1)), (0, 1), "the source keeps its rows");
}

#[test]
fn explain_names_the_key_and_analyze_the_rows_read() {
    let mut db = fixture();
    let plan = |db: &mut Database, sql: &str| -> Vec<String> {
        let rs = db.query(sql).unwrap();
        rs.rows.iter().map(|r| r[0].to_string().trim_matches('\'').trim().to_string()).collect()
    };
    let keyed = "SELECT * FROM t WHERE name = 'a' AND id > 1";
    assert!(plan(&mut db, &format!("EXPLAIN {keyed}"))
        .contains(&"ScanExec t predicates=2 key=name".into()));
    let analyzed = plan(&mut db, &format!("EXPLAIN ANALYZE {keyed}"));
    assert!(
        analyzed
            .iter()
            .any(|l| l.starts_with("ScanExec t predicates=2 key=name  (rows_read=2 rows_out=1")),
        "{analyzed:#?}"
    );
    // No key: the scan prints as it always did.
    let plain = plan(&mut db, "EXPLAIN SELECT * FROM t WHERE id > 1 AND name = 'a'");
    assert!(plain.contains(&"ScanExec t predicates=2".into()), "{plain:#?}");
    // A stored value the literal cannot be compared with: no key either.
    db.table_mut("t").unwrap().rows[4][1] = Value::Int(9);
    let mixed = plan(&mut db, &format!("EXPLAIN {keyed}"));
    assert!(mixed.contains(&"ScanExec t predicates=2".into()), "{mixed:#?}");
}

#[test]
fn a_database_stays_send_sync_and_clone() {
    fn assert_traits<T: Send + Sync + Clone>() {}
    assert_traits::<Database>();
}
