//! The database catalog and the top-level execute/query API, including
//! snapshot-based transactions (the substrate for §II-B1's NL2Transaction).

use std::collections::BTreeMap;


use crate::error::SqlError;
use crate::result::ResultSet;
use crate::schema::Table;
use crate::semantic::ModelHandle;

/// An in-memory database: a catalog of tables plus transaction state.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    /// `Some` while a transaction is open: each table as it was before
    /// the transaction first wrote to it (`None`: it did not exist),
    /// put back on ROLLBACK.
    snapshot: Option<BTreeMap<String, Option<Table>>>,
    /// The session LLM handle semantic operators route through; `None`
    /// (the default) makes `LLM_MAP`/`LLM_FILTER`/`LLM_MATCH` fail with
    /// [`SqlError::Model`]. Transactions never roll this back — the
    /// model is session state, not data.
    model: Option<ModelHandle>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Attach a session model (builder form).
    pub fn with_model(mut self, model: ModelHandle) -> Self {
        self.model = Some(model);
        self
    }

    /// Attach or replace the session model.
    pub fn set_model(&mut self, model: ModelHandle) {
        self.model = Some(model);
    }

    /// The attached session model, if any.
    pub fn model(&self) -> Option<&ModelHandle> {
        self.model.as_ref()
    }

    /// Create a table. Errors if the name exists.
    pub fn create_table(&mut self, table: Table) -> Result<(), SqlError> {
        if self.tables.contains_key(&table.name) {
            return Err(SqlError::TableExists(table.name.clone()));
        }
        self.save(&table.name);
        self.tables.insert(table.name.clone(), table);
        Ok(())
    }

    /// Drop a table.
    pub fn drop_table(&mut self, name: &str) -> Result<(), SqlError> {
        let key = name.to_lowercase();
        self.save(&key);
        self.tables.remove(&key).map(|_| ()).ok_or(SqlError::UnknownTable(key))
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&Table, SqlError> {
        let key = name.to_lowercase();
        self.tables.get(&key).ok_or(SqlError::UnknownTable(key))
    }

    /// Mutable table lookup (inside a transaction, the table's first
    /// one snapshots it for ROLLBACK).
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, SqlError> {
        let key = name.to_lowercase();
        self.save(&key);
        self.tables.get_mut(&key).ok_or(SqlError::UnknownTable(key))
    }

    /// Inside a transaction, remember `key`'s table as it is now unless
    /// the transaction already did.
    fn save(&mut self, key: &str) {
        if let Some(snapshot) = &mut self.snapshot {
            if !snapshot.contains_key(key) {
                snapshot.insert(key.to_string(), self.tables.get(key).cloned());
            }
        }
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// Whether a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_lowercase())
    }

    /// Whether a transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.snapshot.is_some()
    }

    /// Begin a transaction. Tables are snapshotted as it first writes
    /// to them, not here.
    pub fn begin(&mut self) -> Result<(), SqlError> {
        if self.snapshot.is_some() {
            return Err(SqlError::Txn("transaction already open".into()));
        }
        self.snapshot = Some(BTreeMap::new());
        Ok(())
    }

    /// Commit the open transaction.
    pub fn commit(&mut self) -> Result<(), SqlError> {
        self.snapshot.take().map(|_| ()).ok_or_else(|| SqlError::Txn("no open transaction".into()))
    }

    /// Roll back: every table the transaction wrote to, created or
    /// dropped is as it was at BEGIN again.
    pub fn rollback(&mut self) -> Result<(), SqlError> {
        let snapshot =
            self.snapshot.take().ok_or_else(|| SqlError::Txn("no open transaction".into()))?;
        for (key, was) in snapshot {
            match was {
                Some(table) => self.tables.insert(key, table),
                None => self.tables.remove(&key),
            };
        }
        Ok(())
    }

    /// Parse and execute one statement.
    pub fn execute(&mut self, sql: &str) -> Result<ResultSet, SqlError> {
        let stmt = crate::parser::parse_statement(sql)?;
        crate::exec::execute(self, &stmt)
    }

    /// Parse and execute a `;`-separated script; returns the last result.
    /// Any statement error aborts the script (and rolls back an open
    /// transaction, as a DBMS session would on error + explicit rollback).
    pub fn execute_script(&mut self, sql: &str) -> Result<ResultSet, SqlError> {
        let stmts = crate::parser::parse_script(sql)?;
        let mut last = ResultSet::empty();
        for stmt in &stmts {
            match crate::exec::execute(self, stmt) {
                Ok(rs) => last = rs,
                Err(e) => {
                    if self.in_transaction() {
                        let _ = self.rollback();
                    }
                    return Err(e);
                }
            }
        }
        Ok(last)
    }

    /// Parse and execute, expecting a query (alias of [`Database::execute`]
    /// that reads better at call sites).
    pub fn query(&mut self, sql: &str) -> Result<ResultSet, SqlError> {
        self.execute(sql)
    }

    /// Build a `CREATE TABLE` schema summary string for prompt contexts —
    /// the "table information" the paper's Figure 2 feeds to the LLM.
    pub fn schema_summary(&self) -> String {
        let mut s = String::new();
        for t in self.tables.values() {
            s.push_str(&format!("TABLE {} (", t.name));
            let cols: Vec<String> =
                t.schema.columns().iter().map(|c| format!("{} {}", c.name, c.dtype)).collect();
            s.push_str(&cols.join(", "));
            s.push_str(&format!(")  -- {} rows\n", t.rows.len()));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::{DataType, Value};

    fn db_with_t() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INT, name TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')").unwrap();
        db
    }

    #[test]
    fn create_and_query() {
        let mut db = db_with_t();
        let rs = db.query("SELECT * FROM t").unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db_with_t();
        assert!(matches!(
            db.execute("CREATE TABLE t (x INT)"),
            Err(SqlError::TableExists(_))
        ));
        assert!(db.execute("CREATE TABLE IF NOT EXISTS t (x INT)").is_ok());
    }

    #[test]
    fn drop_table() {
        let mut db = db_with_t();
        db.execute("DROP TABLE t").unwrap();
        assert!(!db.has_table("t"));
        assert!(db.execute("DROP TABLE t").is_err());
        assert!(db.execute("DROP TABLE IF EXISTS t").is_ok());
    }

    #[test]
    fn transaction_rollback_restores() {
        let mut db = db_with_t();
        db.execute("BEGIN").unwrap();
        db.execute("DELETE FROM t").unwrap();
        assert_eq!(db.query("SELECT * FROM t").unwrap().len(), 0);
        db.execute("ROLLBACK").unwrap();
        assert_eq!(db.query("SELECT * FROM t").unwrap().len(), 2);
    }

    #[test]
    fn transaction_commit_persists() {
        let mut db = db_with_t();
        db.execute_script("BEGIN; DELETE FROM t WHERE id = 1; COMMIT;").unwrap();
        assert_eq!(db.query("SELECT * FROM t").unwrap().len(), 1);
        assert!(!db.in_transaction());
    }

    #[test]
    fn nested_begin_rejected() {
        let mut db = db_with_t();
        db.execute("BEGIN").unwrap();
        assert!(matches!(db.execute("BEGIN"), Err(SqlError::Txn(_))));
        db.execute("COMMIT").unwrap();
        assert!(matches!(db.execute("COMMIT"), Err(SqlError::Txn(_))));
    }

    #[test]
    fn script_error_rolls_back_open_txn() {
        let mut db = db_with_t();
        let err = db.execute_script("BEGIN; DELETE FROM t; SELECT * FROM missing;");
        assert!(err.is_err());
        assert!(!db.in_transaction());
        assert_eq!(db.query("SELECT * FROM t").unwrap().len(), 2, "delete rolled back");
    }

    #[test]
    fn rollback_undoes_create_drop_and_recreate() {
        let mut db = db_with_t();
        db.execute("CREATE TABLE other (x INT)").unwrap();
        db.execute("BEGIN").unwrap();
        db.execute("CREATE TABLE made (x INT)").unwrap();
        db.execute("INSERT INTO made VALUES (1)").unwrap();
        db.execute("DROP TABLE t").unwrap();
        db.execute("CREATE TABLE t (other_shape TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES ('x')").unwrap();
        db.execute("ROLLBACK").unwrap();
        assert!(!db.has_table("made"), "a table created inside the transaction is gone");
        let rs = db.query("SELECT id, name FROM t").unwrap();
        assert_eq!(rs.len(), 2, "the dropped and recreated table is the original again");
        assert!(db.has_table("other"), "an untouched table stays");
    }

    #[test]
    fn schema_summary_lists_tables() {
        let db = db_with_t();
        let s = db.schema_summary();
        assert!(s.contains("TABLE t"));
        assert!(s.contains("id INT"));
        assert!(s.contains("2 rows"));
    }

    #[test]
    fn programmatic_create() {
        let mut db = Database::new();
        let t = Table::new(
            "Emp",
            Schema::new(vec![Column::new("id", DataType::Int)]),
        );
        db.create_table(t).unwrap();
        db.table_mut("emp").unwrap().push_row(vec![Value::Int(1)]).unwrap();
        assert_eq!(db.table("EMP").unwrap().len(), 1);
    }
}
