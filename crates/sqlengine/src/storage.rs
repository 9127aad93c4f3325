//! Durable tables: a [`PersistentDb`] wraps the in-memory [`Database`]
//! with an `llmdm-store` [`Store`] so tables created with
//! `CREATE TABLE … PERSIST` survive process restarts.
//!
//! Design:
//!
//! * Each persistent table lives in one store space `tbl:<name>`:
//!   record 0 is the schema, every later record is one row in a tagged
//!   binary encoding that round-trips values **bit-exactly** (floats
//!   travel as `f64::to_bits`), so a reloaded table is
//!   indistinguishable from the in-memory one — the differential
//!   oracle (`execute_select_direct` + `ResultSet::bit_eq`) gates
//!   this in `tests/persistence.rs`.
//! * **The catalog is the read copy.** Tables are loaded once, in
//!   [`PersistentDb::open`]; after that only this type can change a
//!   PERSIST table, so `Table.rows` *is* what the store holds and a
//!   `SELECT` never touches the store.
//! * **The store is written through, by change.** Beside each table's
//!   rows sits the [`RecordId`] of each stored row, in the same order
//!   (the store keeps scan order under update and delete); that is all
//!   this type keeps. The catalog's undo log is the one record of what a
//!   transaction changed: when one commits — a write statement on its
//!   own, or `BEGIN … COMMIT` — the log, read oldest-first, names the
//!   rows it inserted, updated and deleted, and those rows (and only the
//!   pages holding them) are written in one store transaction. A
//!   transaction that rolls back never reaches the store. The store's
//!   WAL makes the boundary crash-atomic in turn.
//! * **Contract:** after every statement that returns `Ok` outside a
//!   transaction, memory == store, row order included, and the store
//!   I/O it did is proportional to the pages it changed. If the store
//!   transaction fails without wedging (an over-long row, or an I/O
//!   error before its commit was durable — the store rolls back), the
//!   PERSIST tables are reloaded from the store before the error is
//!   returned, so the contract also holds after an `Err`. Whole tables
//!   move only then, at open, and for `CREATE`/`DROP TABLE`.

use std::collections::{BTreeMap, BTreeSet};

use llmdm_store::{RecordId, SharedVfs, Store, StoreConfig, StoreError};

use crate::ast::Statement;
use crate::catalog::{Database, Undo};
use crate::error::SqlError;
use crate::exec::remove_at;
use crate::result::ResultSet;
use crate::schema::{Column, Row, Schema, Table};
use crate::value::{DataType, Value};

const SPACE_PREFIX: &str = "tbl:";

fn storage_err(e: StoreError) -> SqlError {
    SqlError::Storage(e.to_string())
}

// ----------------------------------------------------------- encoding

fn encode_schema(schema: &Schema) -> Vec<u8> {
    let cols = schema.columns();
    let mut out = Vec::new();
    out.extend_from_slice(&(cols.len() as u16).to_le_bytes());
    for c in cols {
        out.extend_from_slice(&(c.name.len() as u16).to_le_bytes());
        out.extend_from_slice(c.name.as_bytes());
        out.push(match c.dtype {
            DataType::Int => 1,
            DataType::Float => 2,
            DataType::Text => 3,
            DataType::Bool => 4,
        });
    }
    out
}

fn decode_schema(bytes: &[u8]) -> Result<Schema, SqlError> {
    let corrupt = |m: &str| SqlError::Storage(format!("corrupt schema record: {m}"));
    let mut off = 0usize;
    let take = |off: &mut usize, n: usize| -> Result<&[u8], SqlError> {
        let s = bytes.get(*off..*off + n).ok_or_else(|| corrupt("short"))?;
        *off += n;
        Ok(s)
    };
    let ncols = u16::from_le_bytes(take(&mut off, 2)?.try_into().expect("2 bytes")) as usize;
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let nlen = u16::from_le_bytes(take(&mut off, 2)?.try_into().expect("2 bytes")) as usize;
        let name = String::from_utf8(take(&mut off, nlen)?.to_vec())
            .map_err(|_| corrupt("name not utf-8"))?;
        let dtype = match take(&mut off, 1)?[0] {
            1 => DataType::Int,
            2 => DataType::Float,
            3 => DataType::Text,
            4 => DataType::Bool,
            t => return Err(corrupt(&format!("unknown dtype tag {t}"))),
        };
        cols.push(Column::new(&name, dtype));
    }
    Ok(Schema::new(cols))
}

fn encode_row(row: &Row) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        match v {
            Value::Null => out.push(0),
            Value::Int(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(2);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(3);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Bool(b) => {
                out.push(4);
                out.push(*b as u8);
            }
        }
    }
    out
}

fn decode_row(bytes: &[u8]) -> Result<Row, SqlError> {
    let corrupt = |m: &str| SqlError::Storage(format!("corrupt row record: {m}"));
    let mut off = 0usize;
    let take = |off: &mut usize, n: usize| -> Result<&[u8], SqlError> {
        let s = bytes.get(*off..*off + n).ok_or_else(|| corrupt("short"))?;
        *off += n;
        Ok(s)
    };
    let n = u16::from_le_bytes(take(&mut off, 2)?.try_into().expect("2 bytes")) as usize;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = take(&mut off, 1)?[0];
        row.push(match tag {
            0 => Value::Null,
            1 => Value::Int(i64::from_le_bytes(take(&mut off, 8)?.try_into().expect("8 bytes"))),
            2 => Value::Float(f64::from_bits(u64::from_le_bytes(
                take(&mut off, 8)?.try_into().expect("8 bytes"),
            ))),
            3 => {
                let len =
                    u32::from_le_bytes(take(&mut off, 4)?.try_into().expect("4 bytes")) as usize;
                Value::Str(
                    String::from_utf8(take(&mut off, len)?.to_vec())
                        .map_err(|_| corrupt("string not utf-8"))?,
                )
            }
            4 => Value::Bool(take(&mut off, 1)?[0] != 0),
            t => return Err(corrupt(&format!("unknown value tag {t}"))),
        });
    }
    if off != bytes.len() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(row)
}

// -------------------------------------------------------- persistence

/// A [`Database`] whose `PERSIST` tables are durably backed by an
/// `llmdm-store` [`Store`] (see module docs).
#[derive(Debug)]
pub struct PersistentDb {
    db: Database,
    store: Store,
    /// For each table with a space in the store, the record of each
    /// stored row, in row order.
    stored: BTreeMap<String, Vec<RecordId>>,
}

impl PersistentDb {
    /// Open a persistent database on `vfs`, running store crash
    /// recovery and loading every persisted table into the catalog.
    pub fn open(vfs: SharedVfs, cfg: StoreConfig) -> Result<Self, SqlError> {
        let store = Store::open(vfs, cfg).map_err(storage_err)?;
        let mut this = PersistentDb { db: Database::new(), store, stored: BTreeMap::new() };
        this.reload()?;
        Ok(this)
    }

    /// The wrapped in-memory database (read access — e.g. for the
    /// differential oracle or schema summaries). There is no mutable
    /// access: a row changed behind this type's back would never reach
    /// the store.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The underlying store (pool stats, recovery report, WAL length).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Parse and execute one statement (see module docs for when the
    /// store is written; it is read only at open).
    pub fn execute(&mut self, sql: &str) -> Result<ResultSet, SqlError> {
        let stmt = crate::parser::parse_statement(sql)?;
        self.execute_stmt(&stmt)
    }

    /// Parse and execute a `;`-separated script; returns the last
    /// result. On error an open transaction is rolled back (in memory;
    /// the store was never touched mid-transaction).
    pub fn execute_script(&mut self, sql: &str) -> Result<ResultSet, SqlError> {
        let stmts = crate::parser::parse_script(sql)?;
        let mut last = ResultSet::empty();
        for stmt in &stmts {
            match self.execute_stmt(stmt) {
                Ok(rs) => last = rs,
                Err(e) => {
                    if self.db.in_transaction() {
                        let _ = self.db.rollback();
                    }
                    return Err(e);
                }
            }
        }
        Ok(last)
    }

    /// Alias of [`PersistentDb::execute`] for read statements.
    pub fn query(&mut self, sql: &str) -> Result<ResultSet, SqlError> {
        self.execute(sql)
    }

    /// Attach a model handle for semantic operators (`LLM_MAP` etc.).
    /// The handle lives in the in-memory catalog, not the store: reopen
    /// a persistent database and the model must be attached again.
    pub fn set_model(&mut self, model: crate::semantic::ModelHandle) {
        self.db.set_model(model);
    }

    fn execute_stmt(&mut self, stmt: &Statement) -> Result<ResultSet, SqlError> {
        // After a kill the process is dead: memory may hold a commit
        // the disk lost, so nothing may be served from it.
        if self.store.wedged() {
            return Err(storage_err(StoreError::Wedged));
        }
        let (rs, committed) = crate::exec::execute_reporting(&mut self.db, stmt)?;
        if let Some(log) = committed {
            self.write_through(&log)?;
        }
        Ok(rs)
    }

    /// The commit boundary: bring the store up to memory for every table
    /// the committed `log` names that has a space or needs one, in name
    /// order, atomically in one store transaction.
    fn write_through(&mut self, log: &[Undo]) -> Result<(), SqlError> {
        let PersistentDb { db, store, stored } = self;
        let names: BTreeSet<&str> = log
            .iter()
            .map(Undo::table)
            .filter(|name| stored.contains_key(*name) || db.table(name).is_ok_and(|t| t.persist))
            .collect();
        if names.is_empty() {
            return Ok(());
        }
        let written = store.with_txn(|s| {
            names.iter().try_for_each(|name| write_table(s, db.table(name).ok(), stored, name, log))
        });
        if let Err(e) = written {
            // The store rolled back; memory has to follow it. (Wedged:
            // no process is left to do that — re-open.)
            if !self.store.wedged() {
                self.reload()?;
            }
            return Err(storage_err(e));
        }
        Ok(())
    }

    /// Make the catalog's PERSIST tables what the store holds.
    fn reload(&mut self) -> Result<(), SqlError> {
        let persisted: Vec<String> = self
            .db
            .table_names()
            .into_iter()
            .filter(|n| self.db.table(n).is_ok_and(|t| t.persist))
            .map(str::to_string)
            .collect();
        for name in persisted {
            self.db.drop_table(&name)?;
        }
        self.stored.clear();
        for space in self.store.spaces() {
            if let Some(name) = space.strip_prefix(SPACE_PREFIX) {
                let (table, ids) = self.load_table(name)?;
                self.db.create_table(table)?;
                self.stored.insert(name.to_string(), ids);
            }
        }
        Ok(())
    }

    fn load_table(&mut self, name: &str) -> Result<(Table, Vec<RecordId>), SqlError> {
        let space = format!("{SPACE_PREFIX}{name}");
        let records = self.store.scan_ids(&space).map_err(storage_err)?;
        let Some(((_, schema_rec), row_recs)) = records.split_first() else {
            return Err(SqlError::Storage(format!("space {space} has no schema record")));
        };
        let mut table = Table::new(name, decode_schema(schema_rec)?);
        table.persist = true;
        let mut ids = Vec::with_capacity(row_recs.len());
        for (id, rec) in row_recs {
            table.rows.push(decode_row(rec)?);
            ids.push(*id);
        }
        Ok((table, ids))
    }
}

/// Bring one table's space up to `table` (`None`: it no longer exists)
/// inside the open store transaction, from the table's entries of the
/// committed `log`. A whole-table entry (`CREATE`, `DROP`, a `table_mut`
/// copy) drops the space and writes the table whole. Otherwise the row
/// entries are replayed oldest-first into the records to delete, the
/// rows to update and the rows past the stored ones to append. Deletes
/// go first so that the store's live records are exactly `ids` again
/// when an update splits a page and reports where the records after it
/// went.
fn write_table(
    s: &mut Store,
    table: Option<&Table>,
    stored: &mut BTreeMap<String, Vec<RecordId>>,
    name: &str,
    log: &[Undo],
) -> Result<(), StoreError> {
    let space = format!("{SPACE_PREFIX}{name}");
    let entries = || log.iter().filter(|undo| undo.table() == name);
    let mut was = stored.remove(name);
    if was.is_some() && entries().any(|undo| matches!(undo, Undo::Table(..))) {
        s.drop_space(&space)?;
        was = None;
    }
    let Some(table) = table.filter(|t| t.persist) else { return Ok(()) };
    let (mut deleted, mut updated) = (Vec::new(), BTreeSet::new());
    let mut ids = match was {
        Some(mut ids) => {
            for undo in entries() {
                match undo {
                    // Rows past the stored ones are appended anyway.
                    Undo::Restore(_, old) => {
                        let on_disk = ids.len();
                        updated.extend(old.iter().map(|&(i, _)| i).filter(|&i| i < on_disk));
                    }
                    Undo::Reinsert(_, removed) => {
                        // A surviving row moves down by the deleted rows before it.
                        let gone: Vec<usize> = removed.iter().map(|&(i, _)| i).collect();
                        updated = updated
                            .iter()
                            .filter_map(|&i| gone.binary_search(&i).err().map(|before| i - before))
                            .collect();
                        remove_at(&mut ids, &gone, |_, id| deleted.push(id));
                    }
                    Undo::Truncate(..) | Undo::Table(..) => {}
                }
            }
            ids
        }
        None => {
            s.create_space(&space)?;
            s.append(&space, &encode_schema(&table.schema))?;
            Vec::new()
        }
    };
    for id in deleted {
        s.delete(&space, id)?;
    }
    for i in updated {
        let moved = s.update(&space, ids[i], &encode_row(&table.rows[i]))?;
        ids[i..i + moved.len()].copy_from_slice(&moved);
    }
    for row in &table.rows[ids.len()..] {
        ids.push(s.append(&space, &encode_row(row))?);
    }
    stored.insert(name.to_string(), ids);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmdm_store::MemVfs;
    use std::sync::Arc;

    fn mem_db(vfs: &std::sync::Arc<std::sync::Mutex<MemVfs>>) -> PersistentDb {
        PersistentDb::open(vfs.clone(), StoreConfig::default()).unwrap()
    }

    #[test]
    fn schema_and_row_encoding_round_trip() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("score", DataType::Float),
            Column::new("name", DataType::Text),
            Column::new("ok", DataType::Bool),
        ]);
        assert_eq!(decode_schema(&encode_schema(&schema)).unwrap(), schema);
        let row: Row = vec![
            Value::Int(-42),
            Value::Float(-0.0),
            Value::Str("héllo".into()),
            Value::Bool(true),
        ];
        let back = decode_row(&encode_row(&row)).unwrap();
        assert_eq!(back.len(), row.len());
        for (a, b) in back.iter().zip(&row) {
            assert!(a.bit_eq(b), "{a:?} != {b:?}");
        }
        let null_row: Row = vec![Value::Null, Value::Float(f64::NAN), Value::Str(String::new()), Value::Bool(false)];
        let back = decode_row(&encode_row(&null_row)).unwrap();
        for (a, b) in back.iter().zip(&null_row) {
            assert!(a.bit_eq(b), "{a:?} != {b:?}");
        }
    }

    #[test]
    fn persist_tables_survive_reopen_and_plain_tables_do_not() {
        let vfs = MemVfs::shared();
        {
            let mut db = mem_db(&vfs);
            db.execute("CREATE TABLE kept (id INT, name TEXT) PERSIST").unwrap();
            db.execute("CREATE TABLE scratch (id INT)").unwrap();
            db.execute("INSERT INTO kept VALUES (1, 'a'), (2, 'b')").unwrap();
            db.execute("INSERT INTO scratch VALUES (9)").unwrap();
        }
        let mut db = mem_db(&vfs);
        assert!(db.database().has_table("kept"));
        assert!(!db.database().has_table("scratch"), "non-PERSIST tables are ephemeral");
        let rs = db.query("SELECT name FROM kept ORDER BY id").unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Str("a".into()));
    }

    #[test]
    fn explicit_txn_writes_only_at_commit_and_rollback_leaves_store_alone() {
        let vfs = MemVfs::shared();
        let mut db = mem_db(&vfs);
        db.execute("CREATE TABLE t (id INT) PERSIST").unwrap();
        db.execute_script("BEGIN; INSERT INTO t VALUES (1); ROLLBACK;").unwrap();
        drop(db);
        let mut db = mem_db(&vfs);
        assert_eq!(db.query("SELECT * FROM t").unwrap().rows.len(), 0, "rollback persisted nothing");
        db.execute_script("BEGIN; INSERT INTO t VALUES (1), (2); COMMIT;").unwrap();
        drop(db);
        let mut db = mem_db(&vfs);
        assert_eq!(db.query("SELECT * FROM t").unwrap().rows.len(), 2);
    }

    #[test]
    fn drop_table_drops_the_space() {
        let vfs = MemVfs::shared();
        let mut db = mem_db(&vfs);
        db.execute("CREATE TABLE t (id INT) PERSIST").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.execute("DROP TABLE t").unwrap();
        drop(db);
        let db = mem_db(&vfs);
        assert!(!db.database().has_table("t"));
        assert!(db.store().spaces().is_empty());
    }

    /// A [`MemVfs`] that counts the bytes read from it, and can fail its
    /// next sync.
    #[derive(Debug, Default)]
    struct CountingVfs {
        disk: MemVfs,
        bytes_read: std::sync::atomic::AtomicU64,
        fail_next_sync: bool,
    }

    impl llmdm_store::Vfs for CountingVfs {
        fn read_at(&self, file: &str, offset: u64, len: usize) -> Vec<u8> {
            self.bytes_read.fetch_add(len as u64, std::sync::atomic::Ordering::Relaxed);
            self.disk.read_at(file, offset, len)
        }
        fn write_at(&mut self, file: &str, offset: u64, data: &[u8]) -> Result<(), StoreError> {
            self.disk.write_at(file, offset, data)
        }
        fn truncate(&mut self, file: &str, len: u64) -> Result<(), StoreError> {
            self.disk.truncate(file, len)
        }
        fn sync(&mut self, file: &str) -> Result<(), StoreError> {
            if std::mem::take(&mut self.fail_next_sync) {
                return Err(StoreError::Io("injected sync failure".into()));
            }
            self.disk.sync(file)
        }
        fn len(&self, file: &str) -> u64 {
            self.disk.len(file)
        }
    }

    #[test]
    fn auto_commit_select_does_not_touch_the_store() {
        let vfs = Arc::new(std::sync::Mutex::new(CountingVfs::default()));
        let mut db = PersistentDb::open(vfs.clone(), StoreConfig::default()).unwrap();
        db.execute("CREATE TABLE t (id INT, body TEXT) PERSIST").unwrap();
        for i in 0..50 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'xxxxxxxxxxxxxxxxxxxx')")).unwrap();
        }
        let read = || vfs.lock().unwrap().bytes_read.load(std::sync::atomic::Ordering::Relaxed);
        let (pool, bytes) = (db.store().pool_stats(), read());
        for i in 0..100 {
            let rs = db.query(&format!("SELECT body FROM t WHERE id = {}", i % 50)).unwrap();
            assert_eq!(rs.rows.len(), 1);
        }
        assert_eq!(db.store().pool_stats(), pool, "a SELECT must not touch the buffer pool");
        assert_eq!(read(), bytes, "a SELECT must not read the disk");
    }

    #[test]
    fn a_commit_that_fails_before_it_is_durable_leaves_the_db_writable() {
        let vfs = Arc::new(std::sync::Mutex::new(CountingVfs::default()));
        let mut db = PersistentDb::open(vfs.clone(), StoreConfig::default()).unwrap();
        db.execute("CREATE TABLE t (id INT) PERSIST").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        // The commit's first sync is the WAL's: the insert is not durable.
        vfs.lock().unwrap().fail_next_sync = true;
        let err = db.execute("INSERT INTO t VALUES (2)").unwrap_err();
        assert!(matches!(err, SqlError::Storage(_)), "{err}");
        assert_eq!(db.query("SELECT id FROM t").unwrap().rows.len(), 1, "memory follows the store");
        db.execute("INSERT INTO t VALUES (3)").unwrap();
        let live = db.query("SELECT id FROM t").unwrap();
        assert_eq!(live.rows, vec![vec![Value::Int(1)], vec![Value::Int(3)]]);
        drop(db);
        vfs.lock().unwrap().disk.crash();
        let mut db = PersistentDb::open(vfs, StoreConfig::default()).unwrap();
        assert!(db.query("SELECT id FROM t").unwrap().bit_eq(&live), "reopen shows the same rows");
    }

    /// Pages each statement's store transaction logged, from the WAL's
    /// `PageImage` frames (checkpointing is off, so they are all there).
    fn pages_per_commit(vfs: &Arc<std::sync::Mutex<MemVfs>>) -> Vec<usize> {
        let wal = vfs.lock().unwrap().bytes("data.wal");
        let mut per_txn = BTreeMap::new();
        for rec in llmdm_store::Wal::scan(&wal).records {
            if let llmdm_store::WalRecord::PageImage { txn, .. } = rec {
                *per_txn.entry(txn).or_insert(0usize) += 1;
            } else if let llmdm_store::WalRecord::Begin { txn } = rec {
                per_txn.entry(txn).or_insert(0);
            }
        }
        per_txn.into_values().collect()
    }

    #[test]
    fn single_row_statements_dirty_at_most_three_pages() {
        let vfs = MemVfs::shared();
        let cfg = || StoreConfig { checkpoint_bytes: None, ..StoreConfig::default() };
        let mut db = PersistentDb::open(vfs.clone(), cfg()).unwrap();
        db.execute("CREATE TABLE t (id INT, body TEXT) PERSIST").unwrap();
        let rows: Vec<String> =
            (0..1000).map(|i| format!("({i}, 'row {i:04} {}')", "x".repeat(60))).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
        let loaded = pages_per_commit(&vfs).len();
        assert!(pages_per_commit(&vfs)[loaded - 1] > 20, "the table spans many pages");

        let same_len = format!("row 0500 {}", "y".repeat(60));
        let big = "z".repeat(3000);
        // (statement, pages it must log if that is fixed by what it does)
        let statements = [
            (format!("INSERT INTO t VALUES (1000, 'row 1000 {}')", "x".repeat(60)), None),
            (format!("UPDATE t SET body = '{same_len}' WHERE id = 500"), Some(1)),
            // Outgrows its page: old page, new page, header.
            (format!("UPDATE t SET body = '{big}' WHERE id = 500"), Some(3)),
            ("DELETE FROM t WHERE id = 250".to_string(), Some(1)),
            // Two rows too big to share a page: old tail, new tail, header.
            (format!("INSERT INTO t VALUES (2000, '{big}')"), Some(3)),
            (format!("INSERT INTO t VALUES (2001, '{big}')"), Some(3)),
            // Empties a page inside the chain: freed page, predecessor, header.
            ("DELETE FROM t WHERE id = 2000".to_string(), Some(3)),
            ("DELETE FROM t WHERE id = 2001".to_string(), Some(3)),
        ];
        for (sql, _) in &statements {
            assert_eq!(db.execute(sql).unwrap().affected, 1, "{sql}");
        }
        let pages = pages_per_commit(&vfs);
        assert_eq!(pages.len(), loaded + statements.len(), "one store transaction each");
        for ((sql, want), n) in statements.iter().zip(&pages[loaded..]) {
            let sql = &sql[..40.min(sql.len())];
            assert!((1..=3).contains(n), "{n} pages logged by: {sql}");
            if let Some(want) = want {
                assert_eq!(n, want, "pages logged by: {sql}");
            }
        }

        let want = db.query("SELECT * FROM t").unwrap();
        drop(db);
        let mut db = PersistentDb::open(vfs, cfg()).unwrap();
        assert!(db.query("SELECT * FROM t").unwrap().bit_eq(&want), "same rows, same order");
    }

    #[test]
    fn oversized_row_fails_typed_and_leaves_memory_equal_to_the_store() {
        let vfs = MemVfs::shared();
        let mut db = mem_db(&vfs);
        db.execute("CREATE TABLE t (id INT, body TEXT) PERSIST").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'fits')").unwrap();
        let huge = "x".repeat(llmdm_store::MAX_RECORD);
        let err = db.execute(&format!("INSERT INTO t VALUES (2, '{huge}')")).unwrap_err();
        assert!(matches!(err, SqlError::Storage(_)), "{err}");
        let err = db.execute(&format!("UPDATE t SET body = '{huge}' WHERE id = 1")).unwrap_err();
        assert!(matches!(err, SqlError::Storage(_)), "{err}");
        let err = db
            .execute_script(&format!(
                "BEGIN; INSERT INTO t VALUES (3, 'ok'); INSERT INTO t VALUES (4, '{huge}'); COMMIT;"
            ))
            .unwrap_err();
        assert!(matches!(err, SqlError::Storage(_)), "{err}");

        db.execute("INSERT INTO t VALUES (5, 'after')").unwrap();
        let live = db.query("SELECT * FROM t").unwrap();
        assert_eq!(live.rows.len(), 2, "only the rows whose statements succeeded");
        assert_eq!(live.rows[0][1], Value::Str("fits".into()));
        drop(db);
        let mut db = mem_db(&vfs);
        assert!(db.query("SELECT * FROM t").unwrap().bit_eq(&live), "reopen shows the same rows");
    }

    #[test]
    fn rollback_forgets_changes_and_later_commits_still_line_up() {
        let vfs = MemVfs::shared();
        let mut db = mem_db(&vfs);
        db.execute("CREATE TABLE t (id INT, body TEXT) PERSIST").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd')").unwrap();
        db.execute_script(
            "BEGIN; DELETE FROM t WHERE id = 2; UPDATE t SET body = 'C' WHERE id = 3; \
             INSERT INTO t VALUES (5, 'e'); DROP TABLE t; ROLLBACK;",
        )
        .unwrap();
        // Were the record ids of the rolled-back delete not restored,
        // these would update and delete the wrong records.
        db.execute_script(
            "BEGIN; UPDATE t SET body = 'D' WHERE id = 4; DELETE FROM t WHERE id = 1; \
             UPDATE t SET body = 'B' WHERE id = 2; DELETE FROM t WHERE id = 3; \
             INSERT INTO t VALUES (6, 'f'); COMMIT;",
        )
        .unwrap();
        let live = db.query("SELECT * FROM t").unwrap();
        let bodies: Vec<_> = live.rows.iter().map(|r| r[1].clone()).collect();
        assert_eq!(bodies, ["B", "D", "f"].map(|s| Value::Str(s.into())));
        drop(db);
        let mut db = mem_db(&vfs);
        assert!(db.query("SELECT * FROM t").unwrap().bit_eq(&live));
    }

    #[test]
    fn drop_and_recreate_inside_one_transaction_replaces_the_space() {
        let vfs = MemVfs::shared();
        let mut db = mem_db(&vfs);
        db.execute("CREATE TABLE t (id INT) PERSIST").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        db.execute_script(
            "BEGIN; DELETE FROM t WHERE id = 1; DROP TABLE t; \
             CREATE TABLE t (name TEXT, n INT) PERSIST; INSERT INTO t VALUES ('x', 7); COMMIT;",
        )
        .unwrap();
        let live = db.query("SELECT * FROM t").unwrap();
        assert_eq!(live.rows, vec![vec![Value::Str("x".into()), Value::Int(7)]]);
        drop(db);
        let mut db = mem_db(&vfs);
        assert!(db.query("SELECT * FROM t").unwrap().bit_eq(&live));
    }
}
