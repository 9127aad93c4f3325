//! The Figure-1 pipeline facade: generation → transformation →
//! integration → exploration over one shared model zoo and embedding
//! space.

use std::sync::Arc;

use llmdm_integrate::clean::{clean_report, repair_fd_violations, CleanReport};
use llmdm_model::ModelZoo;
use llmdm_sqlengine::{Database, Table, Value};
use llmdm_rt::json::Json;
use llmdm_transform::relational::parse_scalar;
use llmdm_transform::{discover_program, Grid, Op};
use llmdm_vecdb::AttrValue;

/// How a pipeline stage finished (graceful-degradation contract).
///
/// A stage that processes a batch of items no longer has to be
/// all-or-nothing: under partial failure it reports `Degraded` with the
/// completed subset rather than aborting the whole pipeline — the §II-E
/// availability-over-completeness trade-off the resilience layer makes
/// throughout the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageStatus {
    /// Every item succeeded.
    Complete,
    /// Some items failed; the completed subset is usable.
    Degraded,
    /// Nothing succeeded.
    Failed,
}

impl StageStatus {
    /// Short label (`"complete"` / `"degraded"` / `"failed"`).
    pub fn label(&self) -> &'static str {
        match self {
            StageStatus::Complete => "complete",
            StageStatus::Degraded => "degraded",
            StageStatus::Failed => "failed",
        }
    }
}

/// Per-stage outcome of a degradable batch operation.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage name (`transformation`, `exploration`, …).
    pub stage: &'static str,
    /// The aggregate status.
    pub status: StageStatus,
    /// Items that completed.
    pub completed: usize,
    /// Items attempted.
    pub attempted: usize,
    /// One error string per failed item, `(item, error)`.
    pub errors: Vec<(String, String)>,
}

impl StageReport {
    fn from_outcomes(
        stage: &'static str,
        attempted: usize,
        errors: Vec<(String, String)>,
    ) -> Self {
        let completed = attempted - errors.len();
        let status = if errors.is_empty() {
            StageStatus::Complete
        } else if completed > 0 {
            StageStatus::Degraded
        } else {
            StageStatus::Failed
        };
        if status == StageStatus::Degraded {
            llmdm_obs::counter_add("core.stage.degraded", 1.0);
        }
        StageReport { stage, status, completed, attempted, errors }
    }

    /// Whether any usable output was produced.
    pub fn usable(&self) -> bool {
        self.completed > 0 || self.attempted == 0
    }
}

/// The end-to-end data-management pipeline of the paper's Figure 1.
pub struct DataManager {
    zoo: ModelZoo,
    seed: u64,
    db: Database,
    lake: llmdm_explore::DataLake,
    /// Tables already indexed into the lake (build_lake is idempotent per
    /// table).
    indexed_tables: Vec<String>,
}

impl std::fmt::Debug for DataManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataManager")
            .field("seed", &self.seed)
            .field("tables", &self.db.table_names())
            .field("lake_items", &self.lake.len())
            .finish()
    }
}

impl DataManager {
    /// Create a manager: builds the model zoo (with the NL2SQL and QA
    /// solvers registered) and an empty database + lake.
    pub fn new(seed: u64) -> Self {
        let zoo = ModelZoo::standard(seed);
        zoo.register_solver(Arc::new(llmdm_nlq::Nl2SqlSolver));
        zoo.register_solver(Arc::new(llmdm_cascade::QaSolver));
        DataManager {
            zoo,
            seed,
            db: Database::new(),
            lake: llmdm_explore::DataLake::new(seed),
            indexed_tables: Vec::new(),
        }
    }

    /// The shared model zoo.
    pub fn zoo(&self) -> &ModelZoo {
        &self.zoo
    }

    /// The managed relational database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable database access.
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The managed multi-modal lake.
    pub fn lake(&self) -> &llmdm_explore::DataLake {
        &self.lake
    }

    /// **Transformation**: ingest a JSON document (Fig. 4's left path) —
    /// relationalize it and register every produced table. Returns the
    /// table names.
    pub fn ingest_json(&mut self, name: &str, json: &str) -> Result<Vec<String>, String> {
        let mut span = llmdm_obs::span("core.stage.transformation");
        span.field("op", "ingest_json");
        let doc = Json::parse(json).map_err(|e| e.to_string())?;
        let tables = llmdm_transform::json_to_tables(name, &doc)?;
        let mut names = Vec::with_capacity(tables.len());
        for t in tables {
            names.push(t.name.clone());
            self.db.create_table(t).map_err(|e| e.to_string())?;
        }
        span.field("tables", names.len());
        Ok(names)
    }

    /// **Transformation**: ingest a messy spreadsheet grid (Fig. 4's right
    /// path) — synthesize a reshaping program, apply it, and register the
    /// resulting table. Returns the program and table name.
    pub fn ingest_spreadsheet(
        &mut self,
        name: &str,
        grid: &Grid,
    ) -> Result<(Vec<Op>, String), String> {
        let mut span = llmdm_obs::span("core.stage.transformation");
        span.field("op", "ingest_spreadsheet");
        let (program, _) = discover_program(grid, 3, 8);
        span.field("program_ops", program.len());
        let reshaped = llmdm_transform::synthesize::apply_program(grid, &program);
        let table = grid_to_table(name, &reshaped)?;
        self.db.create_table(table).map_err(|e| e.to_string())?;
        Ok((program, name.to_string()))
    }

    /// **Integration**: clean a registered table (report + FD repair).
    pub fn clean_table(
        &mut self,
        name: &str,
        fds: &[(&str, &str)],
    ) -> Result<CleanReport, String> {
        let mut span = llmdm_obs::span("core.stage.integration");
        span.field("op", "clean_table");
        span.field("fds", fds.len());
        let table = self.db.table(name).map_err(|e| e.to_string())?.clone();
        let report = clean_report(&table, fds);
        let mut repaired = table;
        for (det, dep) in fds {
            repaired = repair_fd_violations(&repaired, det, dep);
        }
        *self.db.table_mut(name).map_err(|e| e.to_string())? = repaired;
        Ok(report)
    }

    /// **Exploration**: index every registered table plus free-text
    /// documents into the multi-modal lake. Idempotent per table: calling
    /// again after ingesting new sources indexes only the new tables
    /// (documents are always added).
    pub fn build_lake(&mut self, documents: &[(&str, &str)]) -> Result<usize, String> {
        let mut span = llmdm_obs::span("core.stage.exploration");
        span.field("op", "build_lake");
        span.field("documents", documents.len());
        let names: Vec<String> = self.db.table_names().iter().map(|s| s.to_string()).collect();
        for name in names {
            if self.indexed_tables.contains(&name) {
                continue;
            }
            let table = self.db.table(&name).map_err(|e| e.to_string())?.clone();
            self.lake
                .add_table(&table, vec![("source".to_string(), AttrValue::from("database"))])
                .map_err(|e| e.to_string())?;
            self.indexed_tables.push(name);
        }
        for (title, body) in documents {
            self.lake
                .add_text(title, body, vec![("source".to_string(), AttrValue::from("document"))])
                .map_err(|e| e.to_string())?;
        }
        Ok(self.lake.len())
    }

    /// **Transformation, degradable**: ingest a batch of JSON documents,
    /// continuing past per-document failures. A malformed document no
    /// longer aborts the batch — the valid ones are registered and the
    /// report says [`StageStatus::Degraded`] with one error per failure.
    pub fn ingest_json_batch(&mut self, docs: &[(&str, &str)]) -> StageReport {
        let mut span = llmdm_obs::span("core.stage.transformation");
        span.field("op", "ingest_json_batch");
        span.field("docs", docs.len());
        let mut errors = Vec::new();
        for (name, json) in docs {
            if let Err(e) = self.ingest_json(name, json) {
                errors.push((name.to_string(), e));
            }
        }
        let report = StageReport::from_outcomes("transformation", docs.len(), errors);
        span.field("status", report.status.label());
        report
    }

    /// **Exploration, degradable**: like [`DataManager::build_lake`] but
    /// continues past per-item indexing failures, returning the lake size
    /// alongside the stage report instead of aborting on the first error.
    pub fn build_lake_partial(&mut self, documents: &[(&str, &str)]) -> (usize, StageReport) {
        let mut span = llmdm_obs::span("core.stage.exploration");
        span.field("op", "build_lake_partial");
        let names: Vec<String> = self.db.table_names().iter().map(|s| s.to_string()).collect();
        let mut attempted = 0usize;
        let mut errors = Vec::new();
        for name in names {
            if self.indexed_tables.contains(&name) {
                continue;
            }
            attempted += 1;
            let table = match self.db.table(&name) {
                Ok(t) => t.clone(),
                Err(e) => {
                    errors.push((name.clone(), e.to_string()));
                    continue;
                }
            };
            match self
                .lake
                .add_table(&table, vec![("source".to_string(), AttrValue::from("database"))])
            {
                Ok(_) => self.indexed_tables.push(name),
                Err(e) => errors.push((name.clone(), e.to_string())),
            }
        }
        for (title, body) in documents {
            attempted += 1;
            if let Err(e) = self
                .lake
                .add_text(title, body, vec![("source".to_string(), AttrValue::from("document"))])
            {
                errors.push((title.to_string(), e.to_string()));
            }
        }
        let report = StageReport::from_outcomes("exploration", attempted, errors);
        span.field("status", report.status.label());
        (self.lake.len(), report)
    }

    /// **Generation**: produce executable SQL over the managed database
    /// (Fig. 2) for DBMS testing or training-data purposes.
    pub fn generate_sql(&mut self, n: usize) -> Vec<llmdm_datagen::GeneratedSql> {
        let mut span = llmdm_obs::span("core.stage.generation");
        span.field("op", "generate_sql");
        span.field("n", n);
        let mut generator = llmdm_datagen::SqlGenerator::new(self.seed);
        generator.generate(
            &self.db,
            &llmdm_datagen::SqlGenConstraints { n, ..Default::default() },
        )
    }
}

/// Convert a header-rowed grid into a typed table.
pub fn grid_to_table(name: &str, grid: &Grid) -> Result<Table, String> {
    let Some(header) = grid.first() else {
        return Err("empty grid".into());
    };
    if header.iter().any(|h| h.trim().is_empty()) {
        return Err("grid header has empty cells".into());
    }
    // Infer per-column types from the body.
    let body = &grid[1..];
    let mut schema_inference = llmdm_transform::relational::SchemaInference::default();
    let records: Vec<Vec<(String, Value)>> = body
        .iter()
        .map(|row| {
            header
                .iter()
                .enumerate()
                .map(|(i, h)| (h.clone(), parse_scalar(row.get(i).map(|s| s.as_str()).unwrap_or(""))))
                .collect()
        })
        .collect();
    for r in &records {
        schema_inference.observe(r);
    }
    let schema = schema_inference.schema();
    let mut table = Table::new(name, schema.clone());
    for record in &records {
        let row: Vec<Value> = schema
            .columns()
            .iter()
            .map(|c| {
                record
                    .iter()
                    .find(|(p, _)| p.to_lowercase() == c.name)
                    .map(|(_, v)| coerce_to(v, c.dtype))
                    .unwrap_or(Value::Null)
            })
            .collect();
        table.push_row(row).map_err(|e| e.to_string())?;
    }
    Ok(table)
}

fn coerce_to(v: &Value, dtype: llmdm_sqlengine::DataType) -> Value {
    use llmdm_sqlengine::DataType;
    match (v, dtype) {
        (Value::Int(i), DataType::Float) => Value::Float(*i as f64),
        (Value::Int(i), DataType::Text) => Value::Str(i.to_string()),
        (Value::Float(f), DataType::Text) => Value::Str(f.to_string()),
        (Value::Bool(b), DataType::Text) => Value::Str(b.to_string()),
        _ => v.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_pipeline_end_to_end() {
        let mut dm = DataManager::new(7);
        // Transformation: JSON → tables.
        let names = dm
            .ingest_json(
                "orders",
                r#"[{"id": 1, "customer": "alice", "total": 120},
                    {"id": 2, "customer": "bob", "total": 80},
                    {"id": 3, "customer": "alice", "total": 95}]"#,
            )
            .unwrap();
        assert_eq!(names, vec!["orders".to_string()]);
        // Transformation: messy spreadsheet → table.
        let grid: Grid = vec![
            vec!["Quarterly Report".into(), "".into(), "".into()],
            vec!["product".into(), "region".into(), "units".into()],
            vec!["widget".into(), "east".into(), "10".into()],
            vec!["gadget".into(), "west".into(), "20".into()],
        ];
        let (program, name) = dm.ingest_spreadsheet("sales", &grid).unwrap();
        assert!(!program.is_empty());
        assert!(dm.database().has_table(&name));
        // Integration: clean.
        let report = dm.clean_table("orders", &[]).unwrap();
        assert_eq!(report.duplicates.len(), 0);
        // Generation: SQL over the ingested tables.
        let sql = dm.generate_sql(6);
        assert_eq!(sql.len(), 6);
        // Exploration: lake over everything.
        let n = dm.build_lake(&[("notes", "alice is our best customer")]).unwrap();
        assert_eq!(n, 3); // 2 tables + 1 document
        let hits = dm.lake().search("best customer alice", 2).unwrap();
        assert!(!hits.is_empty());
        // And the ingested data is queryable.
        let rs = dm
            .database_mut()
            .query("SELECT customer FROM orders WHERE total > 100")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Str("alice".into()));
    }

    #[test]
    fn grid_to_table_types_columns() {
        let grid: Grid = vec![
            vec!["name".into(), "units".into(), "rate".into()],
            vec!["widget".into(), "10".into(), "1.5".into()],
            vec!["gadget".into(), "20".into(), "2.5".into()],
        ];
        let t = grid_to_table("g", &grid).unwrap();
        use llmdm_sqlengine::DataType;
        assert_eq!(t.schema.column("units").unwrap().dtype, DataType::Int);
        assert_eq!(t.schema.column("rate").unwrap().dtype, DataType::Float);
        assert_eq!(t.schema.column("name").unwrap().dtype, DataType::Text);
    }

    #[test]
    fn build_lake_is_idempotent_per_table() {
        let mut dm = DataManager::new(2);
        dm.ingest_json("a", r#"[{"x": 1}]"#).unwrap();
        let n1 = dm.build_lake(&[]).unwrap();
        assert_eq!(n1, 1);
        // Second call with a new table indexes only the new table.
        dm.ingest_json("b", r#"[{"y": 2}]"#).unwrap();
        let n2 = dm.build_lake(&[]).unwrap();
        assert_eq!(n2, 2, "no duplicate items for table `a`");
    }

    #[test]
    fn invalid_json_is_reported() {
        let mut dm = DataManager::new(1);
        assert!(dm.ingest_json("bad", "{not json").is_err());
        assert!(dm.ingest_json("scalar", "42").is_err());
        assert!(dm.database().table_names().is_empty());
    }

    #[test]
    fn duplicate_table_name_is_reported() {
        let mut dm = DataManager::new(1);
        dm.ingest_json("t", r#"[{"a": 1}]"#).unwrap();
        assert!(dm.ingest_json("t", r#"[{"a": 2}]"#).is_err());
    }

    #[test]
    fn batch_ingest_degrades_instead_of_aborting() {
        let mut dm = DataManager::new(11);
        let report = dm.ingest_json_batch(&[
            ("good_a", r#"[{"x": 1}]"#),
            ("broken", "{not json"),
            ("good_b", r#"[{"y": 2}]"#),
        ]);
        assert_eq!(report.status, StageStatus::Degraded);
        assert_eq!(report.completed, 2);
        assert_eq!(report.attempted, 3);
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].0, "broken");
        assert!(report.usable());
        // The good tables really landed.
        assert!(dm.database().has_table("good_a"));
        assert!(dm.database().has_table("good_b"));
        // And downstream stages keep working on the partial result.
        let (n, lake_report) = dm.build_lake_partial(&[("notes", "partial but useful")]);
        assert_eq!(lake_report.status, StageStatus::Complete);
        assert_eq!(n, 3); // 2 tables + 1 document
    }

    #[test]
    fn batch_ingest_all_good_is_complete_all_bad_is_failed() {
        let mut dm = DataManager::new(12);
        let ok = dm.ingest_json_batch(&[("a", r#"[{"x": 1}]"#)]);
        assert_eq!(ok.status, StageStatus::Complete);
        assert!(ok.usable());
        let bad = dm.ingest_json_batch(&[("b", "nope"), ("c", "{")]);
        assert_eq!(bad.status, StageStatus::Failed);
        assert_eq!(bad.completed, 0);
        assert!(!bad.usable());
        // Empty batch: trivially complete and usable.
        let empty = dm.ingest_json_batch(&[]);
        assert_eq!(empty.status, StageStatus::Complete);
        assert!(empty.usable());
    }

    #[test]
    fn clean_unknown_table_errors() {
        let mut dm = DataManager::new(1);
        assert!(dm.clean_table("missing", &[]).is_err());
    }

    #[test]
    fn grid_with_bad_header_rejected() {
        let grid: Grid = vec![vec!["a".into(), "".into()], vec!["1".into(), "2".into()]];
        assert!(grid_to_table("g", &grid).is_err());
        assert!(grid_to_table("g", &Vec::new()).is_err());
    }
}
