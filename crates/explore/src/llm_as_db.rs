//! LLM-as-database (§II-D2): SQL over virtual tables whose contents live
//! inside a language model.
//!
//! "SQL queries can be decomposed by query optimization as in traditional
//! databases. The decomposed sub-queries extract multi-modal information
//! from corresponding LLMs, just like searching from tables in traditional
//! databases."
//!
//! A [`VirtualTable`] declares a schema and holds the knowledge the model
//! was "trained on" (the harness's stand-in for parametric knowledge). At
//! query time, [`LlmDatabase::query`] parses the SQL, finds the referenced
//! virtual tables, *probes the model once per table* to materialize rows
//! (each probe is a metered prompt; corruption can garble rows exactly as
//! an LLM hallucinates records), then executes the SQL over the
//! materialized relations with the real engine.

use std::sync::Arc;

use llmdm_model::{CompletionRequest, LanguageModel, PromptEnvelope, SimLlm};
use llmdm_sqlengine::ast::{SelectItem, Statement};
use llmdm_sqlengine::{
    Column, DataType, Database, Expr, ResultSet, Schema, SelectStmt, SqlError, Table, Value,
};

/// A model-backed relation.
#[derive(Debug, Clone)]
pub struct VirtualTable {
    /// The table name SQL refers to.
    pub name: String,
    /// Column names (all TEXT-typed when materialized unless parseable).
    pub columns: Vec<String>,
    /// The knowledge rows "inside the model".
    pub knowledge: Vec<Vec<String>>,
    /// How hard recalling this table is (fuzzier knowledge = harder).
    pub recall_difficulty: f64,
}

impl VirtualTable {
    /// Declare a virtual table.
    pub fn new(name: &str, columns: &[&str], knowledge: Vec<Vec<String>>) -> Self {
        VirtualTable {
            name: name.to_lowercase(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            knowledge,
            recall_difficulty: 0.1,
        }
    }

    /// Render the gold row block (the probe's expected completion).
    fn gold_block(&self) -> String {
        self.knowledge
            .iter()
            .map(|row| row.join(" | "))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// A plausible-but-wrong recall (rows swapped/garbled) used as the
    /// corruption alternative.
    fn hallucinated_block(&self) -> String {
        let mut rows = self.knowledge.clone();
        if rows.len() >= 2 {
            // Swap the first column of the first two rows — a classic
            // cross-record hallucination.
            let tmp = rows[0][0].clone();
            rows[0][0] = rows[1][0].clone();
            rows[1][0] = tmp;
        } else if let Some(first) = rows.first_mut() {
            if let Some(cell) = first.first_mut() {
                cell.push_str(" (?)");
            }
        }
        rows.iter().map(|r| r.join(" | ")).collect::<Vec<_>>().join("\n")
    }
}

/// A database façade over virtual, model-backed tables.
pub struct LlmDatabase {
    model: Arc<SimLlm>,
    tables: Vec<VirtualTable>,
}

impl std::fmt::Debug for LlmDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LlmDatabase")
            .field("tables", &self.tables.iter().map(|t| t.name.clone()).collect::<Vec<_>>())
            .finish()
    }
}

impl LlmDatabase {
    /// Create a façade over `model` with the given virtual tables.
    pub fn new(model: Arc<SimLlm>, tables: Vec<VirtualTable>) -> Self {
        LlmDatabase { model, tables }
    }

    /// Probe the model for one table's rows; parse `|`-separated lines.
    fn materialize(&self, vt: &VirtualTable) -> Result<Table, SqlError> {
        let prompt = PromptEnvelope::builder("oracle")
            .header("gold", vt.gold_block().replace('\n', "\\n"))
            .header("difficulty", vt.recall_difficulty)
            .header("alt", vt.hallucinated_block().replace('\n', "\\n"))
            .body(format!(
                "List every row of the {} table with columns {} as \
                 pipe-separated lines.",
                vt.name,
                vt.columns.join(", ")
            ))
            .build();
        let completion = self
            .model
            .complete(&CompletionRequest::new(prompt))
            .map_err(|e| SqlError::Exec(format!("model probe failed: {e}")))?;
        let text = completion.text.replace("\\n", "\n");

        let schema = Schema::new(
            vt.columns.iter().map(|c| Column::new(c, DataType::Text)).collect(),
        );
        // Column typing: integers where every cell parses.
        let rows: Vec<Vec<String>> = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| l.split(" | ").map(|c| c.trim().to_string()).collect())
            .collect();
        let mut int_cols = vec![true; vt.columns.len()];
        for row in &rows {
            for (i, cell) in row.iter().enumerate().take(vt.columns.len()) {
                if cell.parse::<i64>().is_err() {
                    int_cols[i] = false;
                }
            }
        }
        let schema = Schema::new(
            schema
                .columns()
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    Column::new(&c.name, if int_cols[i] { DataType::Int } else { DataType::Text })
                })
                .collect(),
        );
        let mut table = Table::new(&vt.name, schema);
        for row in rows {
            if row.len() != vt.columns.len() {
                continue; // drop malformed hallucinated lines
            }
            let values: Vec<Value> = row
                .iter()
                .enumerate()
                .map(|(i, cell)| {
                    if int_cols[i] {
                        cell.parse::<i64>().map(Value::Int).unwrap_or(Value::Null)
                    } else {
                        Value::Str(cell.clone())
                    }
                })
                .collect();
            table.push_row(values)?;
        }
        Ok(table)
    }

    /// Execute SQL against the virtual tables: decompose (find referenced
    /// tables), probe/materialize each, then run the query for real.
    pub fn query(&self, sql: &str) -> Result<ResultSet, SqlError> {
        let stmt = llmdm_sqlengine::parse_statement(sql)?;
        let Statement::Select(select) = &stmt else {
            return Err(SqlError::Exec("LLM-as-database supports SELECT only".into()));
        };
        let mut referenced: Vec<String> = Vec::new();
        collect_tables(select, &mut referenced);

        let mut db = Database::new();
        for name in &referenced {
            let vt = self
                .tables
                .iter()
                .find(|t| t.name == name.to_lowercase())
                .ok_or_else(|| SqlError::UnknownTable(name.clone()))?;
            db.create_table(self.materialize(vt)?)?;
        }
        llmdm_sqlengine::exec::execute_select(&db, select)
    }
}

/// Collect every table name a SELECT references: its FROM items, and
/// those of each subquery in any of its expressions — projections, JOIN
/// `ON`, WHERE, GROUP BY, HAVING, ORDER BY — and in its set-op chain.
fn collect_tables(select: &SelectStmt, out: &mut Vec<String>) {
    for f in &select.from {
        let name = f.table.to_lowercase();
        if !out.contains(&name) {
            out.push(name);
        }
    }
    fn walk_expr(e: &Expr, out: &mut Vec<String>) {
        if let Expr::InSubquery { subquery, .. }
        | Expr::Exists { subquery, .. }
        | Expr::ScalarSubquery(subquery) = e
        {
            collect_tables(subquery, out);
        }
        e.for_each_child(|child| walk_expr(child, out));
    }
    let projected = select.projections.iter().filter_map(|item| match item {
        SelectItem::Expr { expr, .. } => Some(expr),
        SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => None,
    });
    let on = select.from.iter().filter_map(|f| f.join.as_ref().map(|(_, on)| on));
    let exprs = projected
        .chain(on)
        .chain(&select.selection)
        .chain(&select.group_by)
        .chain(&select.having)
        .chain(select.order_by.iter().map(|key| &key.expr));
    for e in exprs {
        walk_expr(e, out);
    }
    if let Some((_, _, rhs)) = &select.set_op {
        collect_tables(rhs, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmdm_model::ModelZoo;

    fn movie_tables() -> Vec<VirtualTable> {
        vec![
            VirtualTable::new(
                "movies",
                &["title", "director", "year"],
                vec![
                    vec!["the silent river".into(), "dara okafor".into(), "1998".into()],
                    vec!["golden horizon".into(), "marco costa".into(), "2003".into()],
                    vec!["frozen archive".into(), "dara okafor".into(), "2007".into()],
                ],
            ),
            VirtualTable::new(
                "awards",
                &["title", "award"],
                vec![
                    vec!["golden horizon".into(), "best picture".into()],
                    vec!["frozen archive".into(), "best score".into()],
                ],
            ),
        ]
    }

    fn facade() -> LlmDatabase {
        let zoo = ModelZoo::standard(3);
        LlmDatabase::new(zoo.large(), movie_tables())
    }

    #[test]
    fn simple_select_over_virtual_table() {
        let db = facade();
        let rs = db.query("SELECT title FROM movies WHERE year > 2000").unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn join_across_two_virtual_tables() {
        let db = facade();
        let rs = db
            .query(
                "SELECT m.director FROM movies m JOIN awards a ON m.title = a.title \
                 WHERE a.award = 'best picture'",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Str("marco costa".into()));
    }

    #[test]
    fn aggregates_work() {
        let db = facade();
        let rs = db.query("SELECT director, COUNT(*) FROM movies GROUP BY director ORDER BY COUNT(*) DESC").unwrap();
        assert_eq!(rs.rows[0][0], Value::Str("dara okafor".into()));
        assert_eq!(rs.rows[0][1], Value::Int(2));
    }

    #[test]
    fn subquery_tables_are_materialized_too() {
        let db = facade();
        let rs = db
            .query(
                "SELECT title FROM movies WHERE title IN (SELECT title FROM awards)",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn projected_subquery_tables_are_materialized() {
        let db = facade();
        let rs = db.query("SELECT title, (SELECT COUNT(*) FROM awards) FROM movies").unwrap();
        assert_eq!(rs.rows.len(), 3);
        assert!(rs.rows.iter().all(|row| row[1] == Value::Int(2)));
    }

    #[test]
    fn join_on_subquery_tables_are_materialized() {
        let db = facade();
        let rs = db
            .query(
                "SELECT m.title FROM movies m JOIN movies n \
                 ON m.title = n.title AND m.title IN (SELECT title FROM awards)",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn unknown_virtual_table_errors() {
        let db = facade();
        assert!(matches!(
            db.query("SELECT * FROM nonexistent"),
            Err(SqlError::UnknownTable(_))
        ));
    }

    #[test]
    fn non_select_rejected() {
        let db = facade();
        assert!(db.query("DELETE FROM movies").is_err());
    }

    #[test]
    fn weak_model_hallucinates_rows() {
        // With the small tier and fuzzier knowledge, some probes corrupt —
        // the reliability concern §III-E raises about LLM outputs.
        let zoo = ModelZoo::standard(11);
        let mut tables = movie_tables();
        for t in &mut tables {
            t.recall_difficulty = 0.8;
        }
        let strong = LlmDatabase::new(zoo.large(), tables.clone());
        let weak = LlmDatabase::new(zoo.small(), tables);
        let gold = strong.query("SELECT director FROM movies WHERE title = 'the silent river'");
        let got = weak.query("SELECT director FROM movies WHERE title = 'the silent river'");
        // Both run; the weak façade's answer may differ (hallucinated
        // swap). We only require that the machinery keeps working.
        assert!(gold.is_ok());
        assert!(got.is_ok());
    }

    #[test]
    fn probes_are_metered() {
        let zoo = ModelZoo::standard(5);
        let db = LlmDatabase::new(zoo.large(), movie_tables());
        zoo.meter().reset();
        db.query("SELECT m.title FROM movies m JOIN awards a ON m.title = a.title").unwrap();
        // One probe per referenced table.
        assert_eq!(zoo.meter().snapshot().total_calls(), 2);
    }
}
