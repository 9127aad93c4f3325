//! Reproduce **Figure 4** — transformation for tables: semi-structured
//! data (XML/JSON) and non-relational spreadsheets become structured
//! tables that SQL can query.
//!
//! Usage: `repro_fig4 [--seed N]`

use llmdm_bench::render_table;
use llmdm_rt::json::Json;
use llmdm_transform::synthesize::apply_program;
use llmdm_transform::{discover_program, json_to_tables, relationality, xml_to_table, Grid, XmlNode};

fn main() {
    let mut rows = Vec::new();

    // Left path: JSON documents → relational tables.
    let json = Json::parse(
        r#"{"hospital": "BIT General", "patients": [
            {"name": "alice", "age": 34, "labs": [{"test": "hb", "value": 1.2}, {"test": "glu", "value": 5.4}]},
            {"name": "bob", "age": 40, "labs": [{"test": "hb", "value": 0.9}]},
            {"name": "chen", "age": 28}]}"#,
    )
    .expect("valid JSON");
    let tables = json_to_tables("patients", &json).expect("relationalizes");
    rows.push(vec![
        "JSON document".into(),
        format!(
            "{} tables: {}",
            tables.len(),
            tables.iter().map(|t| format!("{}({} rows)", t.name, t.rows.len())).collect::<Vec<_>>().join(", ")
        ),
    ]);

    // Left path: XML → relational table.
    let xml = XmlNode::parse(
        r#"<lab_reports>
             <report id="1"><patient>alice</patient><result>normal</result></report>
             <report id="2"><patient>bob</patient><result>elevated</result></report>
           </lab_reports>"#,
    )
    .expect("valid XML");
    let xml_table = xml_to_table(&xml).expect("relationalizes");
    rows.push(vec![
        "XML document".into(),
        format!("table {}({} rows, {} cols)", xml_table.name, xml_table.rows.len(), xml_table.schema.len()),
    ]);

    // Right path: non-relational spreadsheet → operator program.
    let grid: Grid = vec![
        vec!["Regional Sales 2015".into(), "".into(), "".into(), "".into()],
        vec!["".into(), "".into(), "".into(), "".into()],
        vec!["region".into(), "q1".into(), "q2".into(), "q3".into()],
        vec!["east".into(), "10".into(), "12".into(), "9".into()],
        vec!["west".into(), "20".into(), "18".into(), "25".into()],
    ];
    let before = relationality(&grid);
    let (program, after) = discover_program(&grid, 3, 8);
    let reshaped = apply_program(&grid, &program);
    rows.push(vec![
        "spreadsheet (report header)".into(),
        format!(
            "program {program:?}; relationality {before:.2} → {after:.2}; \
             header row now {:?}",
            reshaped.first().map(|r| r.join(",")).unwrap_or_default()
        ),
    ]);

    // The queryability payoff: SQL over the produced tables.
    let mut db = llmdm_sqlengine::Database::new();
    for t in tables {
        db.create_table(t).expect("fresh names");
    }
    let rs = db
        .query("SELECT name FROM patients WHERE age > 30")
        .expect("relationalized table is queryable");
    rows.push(vec![
        "SQL over the output".into(),
        format!("SELECT name FROM patients WHERE age > 30 → {} rows", rs.rows.len()),
    ]);

    println!(
        "{}",
        render_table(
            "Figure 4 — transformation for tables (semi-structured and spreadsheets → relational)",
            &["input", "outcome"],
            &rows,
        )
    );
}
