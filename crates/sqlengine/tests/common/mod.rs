//! Checks shared by the differential suites.

use llmdm_sqlengine::{Database, ResultSet, Value};

/// `EXPLAIN` describes the operator tree `EXPLAIN ANALYZE` runs: the same
/// lines, once ANALYZE's `  (…)` annotations are stripped.
pub fn check_explain_matches_analyze(db: &mut Database, sql: &str) {
    let lines = |rs: ResultSet| -> Vec<String> {
        let text = |row: &Vec<Value>| match &row[0] {
            Value::Str(s) => s.clone(),
            other => panic!("non-text plan line {other:?}"),
        };
        rs.rows.iter().map(text).collect()
    };
    let Ok(analyzed) = db.query(&format!("EXPLAIN ANALYZE {sql}")) else { return };
    let explained = db
        .query(&format!("EXPLAIN {sql}"))
        .unwrap_or_else(|e| panic!("EXPLAIN failed where ANALYZE ran on {sql}: {e}"));
    let explained = lines(explained);
    let physical: Vec<&str> = explained
        .iter()
        .skip_while(|l| *l != "physical:")
        .skip(1)
        .map(String::as_str)
        .collect();
    let analyzed = lines(analyzed);
    let stripped: Vec<&str> = analyzed[1..]
        .iter()
        .take_while(|l| l.starts_with("  "))
        .map(|l| l.rsplit_once("  (").map_or(l.as_str(), |(line, _)| line))
        .collect();
    assert_eq!(physical, stripped, "EXPLAIN and EXPLAIN ANALYZE trees differ on {sql}");
}
