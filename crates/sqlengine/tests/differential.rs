//! Differential harness: every SELECT in the corpus runs on both the
//! Volcano planner (the production path) and the pre-planner direct
//! executor (the oracle), and the results must be **bit-identical** —
//! same columns, same row order, same values compared with
//! [`llmdm_sqlengine::ResultSet::bit_eq`] (floats by bit pattern).
//!
//! If both paths error the case passes (error *messages* may differ when
//! a rewrite changes evaluation order); one-sided errors fail.

use llmdm_sqlengine::exec::{execute_select, execute_select_direct};
use llmdm_sqlengine::{parse_statement, Database, Statement, Value};

mod common;

/// Concert/stadium fixture (the workspace-wide Spider-style schema) plus
/// a NULL-heavy scores table and an empty table.
fn fixture() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE stadium (stadium_id INT, name TEXT, capacity INT, city TEXT); \
         CREATE TABLE concert (concert_id INT, stadium_id INT, year INT, attendance INT); \
         CREATE TABLE sports_meeting (meeting_id INT, stadium_id INT, year INT); \
         CREATE TABLE scores (id INT, points FLOAT, tag TEXT); \
         CREATE TABLE vacant (id INT, x TEXT); \
         CREATE TABLE \"Café\" (Été INT, naïve TEXT); \
         INSERT INTO café VALUES (1, 'crème'), (2, NULL), (3, 'brûlée'); \
         INSERT INTO stadium VALUES \
           (1, 'Eagle Arena', 50000, 'Springfield'), \
           (2, 'River Dome', 30000, 'Shelbyville'), \
           (3, 'Sun Bowl', 45000, 'Ogdenville'), \
           (4, 'Metro Field', 20000, 'North Haverbrook'); \
         INSERT INTO concert VALUES \
           (10, 1, 2014, 40000), (11, 1, 2014, 42000), (12, 2, 2014, 25000), \
           (13, 3, 2015, 30000), (14, 1, 2015, 41000); \
         INSERT INTO sports_meeting VALUES (20, 2, 2015), (21, 3, 2015), (22, 1, 2016); \
         INSERT INTO scores VALUES \
           (1, 2.5, 'a'), (2, NULL, 'b'), (3, 1.0, NULL), (4, NULL, 'a'), \
           (5, 3.0, 'c'), (6, 0.0, NULL), (7, -1.5, 'b')",
    )
    .unwrap();
    db
}

fn check(db: &mut Database, sql: &str) {
    let stmt = parse_statement(sql).unwrap_or_else(|e| panic!("parse failed for {sql}: {e}"));
    let Statement::Select(s) = stmt else { panic!("not a SELECT: {sql}") };
    let planned = execute_select(db, &s);
    let direct = execute_select_direct(db, &s);
    match (planned, direct) {
        (Ok(p), Ok(d)) => assert!(
            p.bit_eq(&d),
            "planner/direct divergence on {sql}\n planner: {p:?}\n direct:  {d:?}"
        ),
        (Err(_), Err(_)) => {}
        (p, d) => panic!("one path errored on {sql}\n planner: {p:?}\n direct:  {d:?}"),
    }
    common::check_explain_matches_analyze(db, sql);
}

fn check_all(queries: &[&str]) {
    let mut db = fixture();
    for sql in queries {
        check(&mut db, sql);
    }
}

#[test]
fn scans_filters_and_projections() {
    check_all(&[
        "SELECT * FROM stadium",
        "SELECT name FROM stadium",
        "SELECT name, capacity FROM stadium WHERE capacity > 25000",
        "SELECT name FROM stadium WHERE capacity > 20000 AND city != 'Springfield'",
        "SELECT name FROM stadium WHERE capacity > 60000",
        "SELECT capacity * 2, name FROM stadium WHERE capacity >= 30000",
        "SELECT stadium.name FROM stadium WHERE stadium.capacity < 40000",
        "SELECT s.* FROM stadium s WHERE s.city LIKE '%ville'",
        "SELECT name FROM stadium WHERE capacity BETWEEN 25000 AND 46000",
        "SELECT name FROM stadium WHERE city NOT LIKE 'S%'",
        "SELECT name FROM stadium WHERE NOT capacity > 30000",
        "SELECT name, capacity + 1000 AS padded FROM stadium WHERE capacity % 2 = 0",
        "SELECT 1 + 1",
        "SELECT 'x', 2.5, TRUE, NULL",
        "SELECT * FROM vacant",
        "SELECT id FROM vacant WHERE x = 'nope'",
    ]);
}

#[test]
fn constant_folding_cases() {
    check_all(&[
        "SELECT name FROM stadium WHERE 1 = 1",
        "SELECT name FROM stadium WHERE 1 = 2",
        "SELECT name FROM stadium WHERE FALSE AND capacity > 0",
        "SELECT name FROM stadium WHERE TRUE OR capacity > 0",
        "SELECT name FROM stadium WHERE capacity > 10000 + 20000",
        "SELECT name FROM stadium WHERE capacity > 100000 / 2 - 20000",
        "SELECT name FROM stadium WHERE 2 BETWEEN 1 AND 3 AND capacity > 25000",
        "SELECT name FROM stadium WHERE 'abc' LIKE 'a%' AND capacity < 50000",
        "SELECT name FROM stadium WHERE NULL IS NULL AND capacity > 0",
    ]);
}

#[test]
fn joins() {
    check_all(&[
        "SELECT s.name, c.year FROM stadium s JOIN concert c ON s.stadium_id = c.stadium_id",
        "SELECT s.name, c.year FROM stadium s JOIN concert c ON s.stadium_id = c.stadium_id \
         WHERE c.year = 2014",
        "SELECT s.name FROM stadium s JOIN concert c ON s.stadium_id = c.stadium_id \
         WHERE s.capacity > 40000 AND c.attendance > 40000",
        "SELECT s.name, c.concert_id FROM stadium s \
         LEFT JOIN concert c ON s.stadium_id = c.stadium_id",
        "SELECT s.name FROM stadium s LEFT JOIN concert c ON s.stadium_id = c.stadium_id \
         WHERE c.concert_id IS NULL",
        "SELECT s.name FROM stadium s LEFT JOIN concert c ON s.stadium_id = c.stadium_id \
         WHERE s.capacity < 60000",
        "SELECT * FROM stadium, sports_meeting",
        "SELECT s.name, m.year FROM stadium s, sports_meeting m \
         WHERE s.stadium_id = m.stadium_id",
        "SELECT s.name, c.year, m.year FROM stadium s \
         JOIN concert c ON s.stadium_id = c.stadium_id \
         JOIN sports_meeting m ON s.stadium_id = m.stadium_id",
        "SELECT a.name, b.name FROM stadium a JOIN stadium b ON a.capacity < b.capacity",
        "SELECT s.name FROM stadium s JOIN concert c ON TRUE WHERE c.year = 2015",
    ]);
}

#[test]
fn aggregates_and_grouping() {
    check_all(&[
        "SELECT COUNT(*) FROM concert",
        "SELECT COUNT(*), SUM(attendance), AVG(attendance), MIN(year), MAX(year) FROM concert",
        "SELECT COUNT(*) FROM vacant",
        "SELECT SUM(points), AVG(points), COUNT(points), COUNT(*) FROM scores",
        "SELECT COUNT(DISTINCT year) FROM concert",
        "SELECT year, COUNT(*) FROM concert GROUP BY year",
        "SELECT year, COUNT(*) FROM concert GROUP BY year HAVING COUNT(*) > 1",
        "SELECT stadium_id, SUM(attendance) FROM concert GROUP BY stadium_id \
         HAVING SUM(attendance) > 50000",
        "SELECT s.name, COUNT(*) FROM stadium s JOIN concert c \
         ON s.stadium_id = c.stadium_id GROUP BY s.name",
        "SELECT tag, COUNT(*), SUM(points) FROM scores GROUP BY tag",
        "SELECT year, stadium_id, COUNT(*) FROM concert GROUP BY year, stadium_id",
        "SELECT MAX(capacity) - MIN(capacity) FROM stadium",
    ]);
}

#[test]
fn ordering_and_limits() {
    check_all(&[
        "SELECT name, capacity FROM stadium ORDER BY capacity",
        "SELECT name, capacity FROM stadium ORDER BY capacity DESC",
        "SELECT name FROM stadium ORDER BY capacity DESC",
        "SELECT name FROM stadium ORDER BY capacity DESC LIMIT 2",
        "SELECT name FROM stadium ORDER BY capacity LIMIT 2 OFFSET 1",
        "SELECT name FROM stadium ORDER BY 1",
        "SELECT name, capacity FROM stadium ORDER BY 2 DESC, 1",
        "SELECT id, points FROM scores ORDER BY points",
        "SELECT id, points FROM scores ORDER BY points DESC",
        "SELECT id FROM scores ORDER BY points, id",
        "SELECT id FROM scores ORDER BY tag DESC, points",
        "SELECT name FROM stadium LIMIT 2",
        "SELECT name FROM stadium LIMIT 0",
        "SELECT name FROM stadium OFFSET 2",
        "SELECT name FROM stadium ORDER BY capacity LIMIT 100",
        "SELECT year, COUNT(*) FROM concert GROUP BY year ORDER BY COUNT(*) DESC",
        "SELECT year FROM concert GROUP BY year ORDER BY COUNT(*) DESC, year",
        "SELECT name AS n FROM stadium ORDER BY n",
        "SELECT s.name FROM stadium s JOIN concert c ON s.stadium_id = c.stadium_id \
         ORDER BY c.attendance DESC LIMIT 3",
    ]);
}

#[test]
fn distinct_and_set_ops() {
    check_all(&[
        "SELECT DISTINCT year FROM concert",
        "SELECT DISTINCT stadium_id, year FROM concert",
        "SELECT DISTINCT tag FROM scores",
        "SELECT DISTINCT year FROM concert ORDER BY year DESC",
        "SELECT year FROM concert UNION SELECT year FROM sports_meeting",
        "SELECT year FROM concert UNION ALL SELECT year FROM sports_meeting",
        "SELECT year FROM concert INTERSECT SELECT year FROM sports_meeting",
        "SELECT year FROM concert EXCEPT SELECT year FROM sports_meeting",
        "SELECT stadium_id FROM concert UNION SELECT stadium_id FROM sports_meeting \
         ORDER BY stadium_id DESC",
        "SELECT name FROM stadium WHERE capacity > 40000 \
         UNION SELECT name FROM stadium WHERE capacity < 25000",
        "SELECT year FROM concert UNION SELECT id FROM vacant",
        "SELECT tag FROM scores UNION SELECT city FROM stadium",
    ]);
}

/// The planner's rows for `sql`, as `Debug` text: the values with their
/// types, so a pinned result also pins `1` against `1.0`.
fn planned_rows(db: &Database, sql: &str) -> String {
    let Ok(Statement::Select(s)) = parse_statement(sql) else { panic!("not a SELECT: {sql}") };
    format!("{:?}", execute_select(db, &s).unwrap_or_else(|e| panic!("{sql}: {e}")).rows)
}

/// `INTERSECT` and `EXCEPT` find a left row among the right side's by a
/// hash of its values: `1` and `1.0` are one row, each right duplicate
/// matches one left row, and the output keeps the left side's order.
#[test]
fn set_ops_match_duplicates_across_int_and_float() {
    let mut db = fixture();
    for (sql, rows) in [
        (
            "SELECT stadium_id FROM concert EXCEPT ALL SELECT stadium_id * 1.0 FROM sports_meeting",
            "[[Int(1)], [Int(1)]]",
        ),
        (
            "SELECT year FROM concert INTERSECT ALL SELECT year * 1.0 FROM sports_meeting",
            "[[Int(2015)], [Int(2015)]]",
        ),
        (
            "SELECT year * 1.0 FROM sports_meeting INTERSECT SELECT year FROM concert",
            "[[Float(2015.0)]]",
        ),
        (
            "SELECT stadium_id, year FROM concert \
             EXCEPT SELECT stadium_id * 1.0, year FROM sports_meeting",
            "[[Int(1), Int(2014)], [Int(1), Int(2015)], [Int(2), Int(2014)]]",
        ),
        (
            "SELECT stadium_id, year FROM concert \
             INTERSECT ALL SELECT stadium_id, year FROM concert WHERE year = 2014",
            "[[Int(1), Int(2014)], [Int(1), Int(2014)], [Int(2), Int(2014)]]",
        ),
    ] {
        check(&mut db, sql);
        assert_eq!(planned_rows(&db, sql), rows, "{sql}");
    }
}

/// Rows find their group by a hash of the key. `1` and `1.0` are one
/// group, as are 2^53 and 2^53 + 1 (one `f64`), and each group keeps the
/// key it saw first; `-0.0` is a group apart from `0`.
#[test]
fn group_by_mixed_int_and_float_keys_keeps_the_first_seen_key() {
    let mut db = fixture();
    db.execute("CREATE TABLE mixed (k FLOAT, v INT)").unwrap();
    let big = 1i64 << 53;
    let keys = [
        Value::Float(1.0),
        Value::Int(1),
        Value::Int(0),
        Value::Float(-0.0),
        Value::Int(big + 1),
        Value::Int(big),
        Value::Null,
        Value::Float(0.0),
        Value::Null,
    ];
    // Pushed as stored rows: an INSERT would widen the Ints to FLOAT.
    let t = db.table_mut("mixed").unwrap();
    for (v, k) in (1..).zip(keys) {
        t.rows.push(vec![k, Value::Int(v)]);
    }
    let sql = "SELECT k, COUNT(*), SUM(v) FROM mixed GROUP BY k";
    check(&mut db, sql);
    assert_eq!(
        planned_rows(&db, sql),
        "[[Float(1.0), Int(2), Int(3)], [Int(0), Int(2), Int(11)], \
         [Float(-0.0), Int(1), Int(4)], [Int(9007199254740993), Int(2), Int(11)], \
         [Null, Int(2), Int(16)]]"
    );
}

#[test]
fn subqueries() {
    check_all(&[
        "SELECT name FROM stadium WHERE stadium_id IN \
         (SELECT stadium_id FROM concert WHERE year = 2014)",
        "SELECT name FROM stadium WHERE stadium_id NOT IN \
         (SELECT stadium_id FROM concert)",
        "SELECT name FROM stadium WHERE EXISTS (SELECT 1 FROM concert WHERE year = 2099)",
        "SELECT name FROM stadium WHERE NOT EXISTS (SELECT 1 FROM vacant)",
        "SELECT name FROM stadium WHERE capacity = (SELECT MAX(capacity) FROM stadium)",
        "SELECT name, (SELECT COUNT(*) FROM concert) AS total FROM stadium",
        "SELECT name FROM stadium WHERE capacity > (SELECT AVG(capacity) FROM stadium)",
        "SELECT s.name FROM stadium s JOIN concert c ON s.stadium_id = c.stadium_id \
         WHERE c.attendance > (SELECT AVG(attendance) FROM concert)",
        "SELECT name FROM stadium WHERE stadium_id IN \
         (SELECT stadium_id FROM concert) AND capacity > 30000",
        "SELECT name FROM stadium WHERE stadium_id IN (SELECT id FROM vacant)",
    ]);
}

#[test]
fn null_semantics() {
    check_all(&[
        "SELECT id FROM scores WHERE points IS NULL",
        "SELECT id FROM scores WHERE points IS NOT NULL",
        "SELECT id FROM scores WHERE points > 1.0",
        "SELECT id FROM scores WHERE points > 1.0 OR points IS NULL",
        "SELECT id, points FROM scores WHERE tag IS NULL ORDER BY id",
        "SELECT id FROM scores WHERE points IN (1.0, 3.0)",
        "SELECT id FROM scores WHERE points NOT IN (1.0, 3.0)",
        "SELECT id FROM scores WHERE points BETWEEN 0.0 AND 2.5",
        "SELECT tag, COUNT(*) FROM scores GROUP BY tag ORDER BY COUNT(*) DESC, tag",
        "SELECT DISTINCT points FROM scores",
        "SELECT id FROM scores ORDER BY points DESC, tag, id LIMIT 4",
    ]);
}

/// The planner resolves each column once per operator and reads it by
/// position; the direct path resolves it by name on every row. A column
/// that does not resolve must fail on both paths exactly when a row
/// evaluates it — never on an empty input or behind a short circuit.
#[test]
fn binding_changes_no_outcome() {
    check_all(&[
        // Unknown, ambiguous and qualified-unknown columns: fine over no
        // rows, an error over some.
        "SELECT missing FROM vacant",
        "SELECT missing FROM stadium",
        "SELECT id FROM vacant WHERE missing = 1",
        "SELECT name FROM stadium WHERE missing = 1",
        "SELECT q.id FROM vacant",
        "SELECT vacant.nope FROM vacant",
        "SELECT s.nope FROM stadium s",
        "SELECT id FROM vacant a JOIN vacant b ON a.id = b.id",
        "SELECT id FROM vacant a, stadium b",
        "SELECT stadium_id FROM stadium a JOIN concert b ON a.stadium_id = b.stadium_id",
        // Behind a short circuit, per row.
        "SELECT name FROM stadium WHERE FALSE AND missing = 1",
        "SELECT name FROM stadium WHERE TRUE OR missing = 1",
        "SELECT name FROM stadium WHERE capacity < 0 AND missing = 1",
        "SELECT name FROM stadium WHERE capacity > 0 OR q.missing = 1",
        "SELECT name FROM stadium WHERE capacity > 40000 OR missing = 1",
        "SELECT name FROM stadium WHERE capacity > 40000 AND stadium_id = concert_id",
        // In the ON of a join whose left (or right) side is empty.
        "SELECT * FROM vacant v JOIN stadium s ON v.nope = s.stadium_id",
        "SELECT * FROM vacant v LEFT JOIN stadium s ON nope = s.stadium_id",
        "SELECT * FROM stadium s JOIN vacant v ON s.nope = v.id",
        "SELECT s.name, v.x FROM stadium s LEFT JOIN vacant v ON s.nope = v.id",
        "SELECT * FROM stadium s JOIN concert c ON s.nope = c.stadium_id",
        // In HAVING, and in an ORDER BY hidden key.
        "SELECT year FROM concert GROUP BY year HAVING missing > 1",
        "SELECT id FROM vacant GROUP BY id HAVING missing > 1",
        "SELECT COUNT(*) FROM vacant HAVING missing > 0",
        "SELECT COUNT(*) FROM concert HAVING COUNT(*) > 100 AND missing > 0",
        "SELECT name FROM stadium ORDER BY missing",
        "SELECT id FROM vacant ORDER BY missing",
        "SELECT id FROM vacant ORDER BY q.missing LIMIT 1",
        "SELECT name FROM stadium ORDER BY s.capacity LIMIT 2",
        // A bare column beside COUNT(*) over zero rows: the one group has
        // no row to read it from.
        "SELECT name, COUNT(*) FROM stadium WHERE capacity > 99999",
        "SELECT s.name, COUNT(*) FROM stadium s WHERE s.capacity > 99999",
        "SELECT COUNT(*), 1 + 1 FROM stadium WHERE capacity > 99999",
        "SELECT MAX(capacity), MIN(name) FROM stadium WHERE capacity > 99999",
        // An aggregate that would fail, in groups HAVING rejects.
        "SELECT city, SUM(name) FROM stadium GROUP BY city HAVING COUNT(*) > 5",
        "SELECT city, SUM(name) FROM stadium GROUP BY city",
        "SELECT MIN(name), MAX(city), COUNT(DISTINCT tag), SUM(DISTINCT points) FROM stadium, scores",
        // Mixed-case and non-ASCII identifiers.
        "SELECT NAME, Stadium.Capacity FROM STADIUM WHERE CiTy LIKE 'S%'",
        "SELECT été, NAÏVE FROM café",
        "SELECT ÉTÉ, Café.naïve FROM CAFÉ WHERE Été > 1",
        "SELECT c.Été FROM café c WHERE c.NAÏVE IS NULL",
        "SELECT été FROM café WHERE naïve LIKE '%è%' OR naïve LIKE 'br_l_e'",
        "SELECT x.été FROM café c",
        // A self-join with the same column name on both sides.
        "SELECT a.stadium_id, b.stadium_id FROM stadium a JOIN stadium b \
         ON a.stadium_id = b.stadium_id",
        "SELECT stadium_id FROM stadium a JOIN stadium b ON a.stadium_id = b.stadium_id",
        "SELECT a.name, b.name FROM stadium a, stadium b \
         WHERE a.stadium_id = b.stadium_id + 1 ORDER BY b.name",
        "SELECT a.city, COUNT(*), MAX(b.capacity) FROM stadium a JOIN stadium b \
         ON a.capacity <= b.capacity GROUP BY a.city ORDER BY a.city",
        // Joins whose rows are built rather than borrowed, padding included.
        "SELECT s.name, c.year, m.year FROM stadium s \
         LEFT JOIN concert c ON s.stadium_id = c.stadium_id \
         LEFT JOIN sports_meeting m ON c.stadium_id = m.stadium_id",
        "SELECT s.name, COUNT(c.concert_id), SUM(c.attendance) FROM stadium s \
         LEFT JOIN concert c ON s.stadium_id = c.stadium_id GROUP BY s.name",
        // Top-k chosen among input rows before projecting.
        "SELECT id, points FROM scores ORDER BY points DESC, id LIMIT 3",
        "SELECT id, tag FROM scores ORDER BY tag, id DESC LIMIT 4 OFFSET 1",
        "SELECT 'x', id FROM scores ORDER BY 1, id LIMIT 2",
        "SELECT s.name, c.attendance FROM stadium s JOIN concert c \
         ON s.stadium_id = c.stadium_id ORDER BY c.attendance DESC LIMIT 2",
        "SELECT name FROM stadium ORDER BY city DESC LIMIT 2",
        "SELECT name FROM stadium ORDER BY name LIMIT 0",
        "SELECT id FROM vacant ORDER BY id LIMIT 3",
    ]);
}

#[test]
fn error_cases_error_on_both_paths() {
    let mut db = fixture();
    for sql in [
        // Unknown table / column.
        "SELECT * FROM nope",
        "SELECT missing FROM stadium",
        "SELECT q.name FROM stadium",
        // Ambiguous unqualified column across two tables.
        "SELECT stadium_id FROM stadium, concert",
        // Duplicate alias.
        "SELECT * FROM stadium s, concert s",
        // Set-op arity mismatch.
        "SELECT name, capacity FROM stadium UNION SELECT name FROM stadium",
        // ORDER BY aggregate without an aggregate core.
        "SELECT name FROM stadium ORDER BY COUNT(*)",
        // ORDER BY on a column DISTINCT does not project.
        "SELECT DISTINCT name FROM stadium ORDER BY capacity",
        // Type errors.
        "SELECT name + 1 FROM stadium",
        "SELECT name FROM stadium WHERE capacity + city > 0",
    ] {
        check(&mut db, sql);
    }
}
