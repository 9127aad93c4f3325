//! The README's query-plan samples, run against the engine.
//!
//! The README shows an `EXPLAIN` query and an `EXPLAIN ANALYZE` query on
//! `concert_domain(42)`, and the analyzed plan the second one prints.
//! This test takes both queries and the sample out of `README.md`, runs
//! them, and requires the engine's output to be the sample line for line
//! once each operator's wall time is removed, so the sample's row counts
//! cannot drift from what the engine does.

use llmdm::nlq::concert_domain;
use llmdm::sql::{Database, Value};

const README: &str = include_str!("../README.md");

/// The SQL literal of the README's `db.execute("<prefix>…")` call, with
/// its `\`-continued lines joined as Rust joins them.
fn readme_query(prefix: &str) -> String {
    let start = README
        .find(&format!("db.execute(\"{prefix}"))
        .unwrap_or_else(|| panic!("README has no db.execute(\"{prefix}…\")"))
        + "db.execute(\"".len();
    let len = README[start..].find("\")").expect("closing quote");
    let mut pieces = README[start..start + len].split("\\\n");
    let first = pieces.next().unwrap_or_default().to_string();
    pieces.fold(first, |sql, piece| sql + piece.trim_start())
}

/// The README's analyzed-plan sample: from `physical (analyzed):` to the
/// `result:` line.
fn readme_sample() -> Vec<&'static str> {
    let start = README.find("physical (analyzed):").expect("README has an analyzed plan");
    let lines: Vec<&str> = README[start..].lines().collect();
    let end = lines.iter().position(|l| l.starts_with("result: ")).expect("sample result line");
    lines[..=end].to_vec()
}

/// `EXPLAIN` output, one line per row.
fn plan_lines(db: &mut Database, sql: &str) -> Vec<String> {
    let rs = db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    rs.rows
        .iter()
        .map(|row| match &row[0] {
            Value::Str(line) => line.clone(),
            other => panic!("non-text plan row {other:?}"),
        })
        .collect()
}

/// A plan line without its operator's ` time=…` annotation.
fn without_time(line: &str) -> String {
    match line.find(" time=") {
        Some(at) => {
            let end = line[at..].find(')').map_or(line.len(), |e| at + e);
            format!("{}{}", &line[..at], &line[end..])
        }
        None => line.to_string(),
    }
}

#[test]
fn explain_analyze_sample_is_what_the_engine_prints() {
    let mut db = concert_domain(42);
    let printed = plan_lines(&mut db, &readme_query("EXPLAIN ANALYZE "));
    let printed: Vec<String> = printed.iter().map(|l| without_time(l)).collect();
    let sample: Vec<String> = readme_sample().into_iter().map(without_time).collect();
    assert_eq!(printed, sample, "README's EXPLAIN ANALYZE sample is stale");
}

#[test]
fn explain_sample_fuses_one_predicate_and_keeps_no_true_filter() {
    let mut db = concert_domain(42);
    let text = plan_lines(&mut db, &readme_query("EXPLAIN SELECT")).join("\n");
    assert!(!text.contains("Filter TRUE"), "{text}");
    assert!(text.contains("ScanExec stadium predicates=1"), "{text}");
    assert!(text.contains("TopKExec") && text.contains("fetch=2"), "{text}");
}
