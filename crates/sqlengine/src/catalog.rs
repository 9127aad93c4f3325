//! The database catalog and the top-level execute/query API, including
//! transactions (the substrate for §II-B1's NL2Transaction).
//!
//! A transaction keeps an undo log: each change it makes logs what puts
//! that change back — the row count before an `INSERT`, the old rows an
//! `UPDATE` overwrote, the rows a `DELETE` removed (each at its index),
//! and the whole table a `DROP TABLE` removed. The rows are moved into
//! the log, not cloned, so a transaction's rollback state is
//! proportional to the rows it changes, not to the tables it touches.
//! `ROLLBACK` applies the log newest-first and leaves every table as it
//! was at `BEGIN`, row order included. `COMMIT` hands the log over:
//! read oldest-first it says which rows of which tables changed, and
//! that is what `PersistentDb` writes to the store. A write statement
//! outside `BEGIN … COMMIT` runs as a transaction of its own, so every
//! write is logged; a method called outside a transaction logs nothing.

use std::collections::BTreeMap;

use crate::error::SqlError;
use crate::result::ResultSet;
use crate::schema::{Row, Table};
use crate::semantic::ModelHandle;

/// What puts one change of an open transaction back. Each names its
/// table by catalog key (lowercase).
#[derive(Debug, Clone)]
pub(crate) enum Undo {
    /// Rows were pushed onto the table, which had this many before.
    Truncate(String, usize),
    /// Rows were overwritten in place: each old row at its index.
    Restore(String, Vec<(usize, Row)>),
    /// Rows were removed: each at its ascending pre-delete index.
    Reinsert(String, Vec<(usize, Row)>),
    /// The whole table as it was (`None`: it did not exist).
    Table(String, Option<Table>),
}

impl Undo {
    /// The catalog key of the table this entry puts back.
    pub(crate) fn table(&self) -> &str {
        match self {
            Undo::Truncate(key, _)
            | Undo::Restore(key, _)
            | Undo::Reinsert(key, _)
            | Undo::Table(key, _) => key,
        }
    }
}

/// An in-memory database: a catalog of tables plus transaction state.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    /// `Some` while a transaction is open: what puts each of its changes
    /// back, oldest first (see the module docs).
    undo: Option<Vec<Undo>>,
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
        if let Some(log) = &mut self.undo {
            log.push(Undo::Table(table.name.clone(), None));
        }
        self.tables.insert(table.name.clone(), table);
        Ok(())
    }

    /// Drop a table.
    pub fn drop_table(&mut self, name: &str) -> Result<(), SqlError> {
        let key = name.to_lowercase();
        let table = self.tables.remove(&key).ok_or_else(|| SqlError::UnknownTable(key.clone()))?;
        if let Some(log) = &mut self.undo {
            log.push(Undo::Table(key, Some(table)));
        }
        Ok(())
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&Table, SqlError> {
        let key = name.to_lowercase();
        self.tables.get(&key).ok_or(SqlError::UnknownTable(key))
    }

    /// Mutable table lookup. The caller can change anything, so inside a
    /// transaction this logs a copy of the whole table for ROLLBACK; the
    /// engine's own DML logs only the rows it changes.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, SqlError> {
        let key = name.to_lowercase();
        let table = self.tables.get_mut(&key).ok_or_else(|| SqlError::UnknownTable(key.clone()))?;
        if let Some(log) = &mut self.undo {
            log.push(Undo::Table(key, Some(table.clone())));
        }
        Ok(table)
    }

    /// DML write access: the table, and the undo log of the transaction
    /// the statement runs in. The caller logs what puts its change back.
    pub(crate) fn table_for_dml(
        &mut self,
        name: &str,
    ) -> Result<(&mut Table, &mut Vec<Undo>), SqlError> {
        let key = name.to_lowercase();
        let table = self.tables.get_mut(&key).ok_or(SqlError::UnknownTable(key))?;
        Ok((table, self.undo.as_mut().expect("DML runs inside a transaction")))
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
        self.undo.is_some()
    }

    /// Begin a transaction: changes are logged from here on.
    pub fn begin(&mut self) -> Result<(), SqlError> {
        if self.undo.is_some() {
            return Err(SqlError::Txn("transaction already open".into()));
        }
        self.undo = Some(Vec::new());
        Ok(())
    }

    /// Commit the open transaction: its undo log is dropped.
    pub fn commit(&mut self) -> Result<(), SqlError> {
        self.end().map(drop)
    }

    /// Commit the open transaction and hand over its undo log, oldest
    /// entry first.
    pub(crate) fn end(&mut self) -> Result<Vec<Undo>, SqlError> {
        self.undo.take().ok_or_else(|| SqlError::Txn("no open transaction".into()))
    }

    /// Roll back: undo the transaction's changes newest-first, so every
    /// table it wrote to, created or dropped is as it was at BEGIN again.
    pub fn rollback(&mut self) -> Result<(), SqlError> {
        let log = self.undo.take().ok_or_else(|| SqlError::Txn("no open transaction".into()))?;
        for undo in log.into_iter().rev() {
            match undo {
                Undo::Truncate(key, len) => self.rows_to_undo(&key).truncate(len),
                Undo::Restore(key, old) => {
                    let rows = self.rows_to_undo(&key);
                    for (i, row) in old {
                        rows[i] = row;
                    }
                }
                Undo::Reinsert(key, removed) => {
                    let rows = self.rows_to_undo(&key);
                    let mut kept = std::mem::take(rows).into_iter();
                    rows.reserve_exact(kept.len() + removed.len());
                    for (i, row) in removed {
                        rows.extend(kept.by_ref().take(i - rows.len()));
                        rows.push(row);
                    }
                    rows.extend(kept);
                }
                Undo::Table(key, Some(table)) => {
                    self.tables.insert(key, table);
                }
                Undo::Table(key, None) => {
                    self.tables.remove(&key);
                }
            }
        }
        Ok(())
    }

    /// The rows a row entry of the undo log puts back. Entries are undone
    /// newest-first, so the table exists: a later `DROP` or `CREATE` of
    /// the name was undone before.
    fn rows_to_undo(&mut self, key: &str) -> &mut Vec<Row> {
        &mut self.tables.get_mut(key).expect("undo entry names a live table").rows
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
    fn rollback_undoes_table_mut_between_row_changes() {
        let mut db = db_with_t();
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO t VALUES (3, 'c')").unwrap();
        db.table_mut("t").unwrap().rows.reverse();
        db.execute("UPDATE t SET name = 'z' WHERE id = 1").unwrap();
        db.execute("DELETE FROM t WHERE id = 2").unwrap();
        db.execute("ROLLBACK").unwrap();
        assert_eq!(db.table("t").unwrap().rows, db_with_t().table("t").unwrap().rows);
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
