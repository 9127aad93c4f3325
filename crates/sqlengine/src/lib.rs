//! # llmdm-sqlengine — a mini relational engine
//!
//! Several of the paper's applications need a *real* SQL substrate to be
//! reproducible rather than mocked:
//!
//! * **SQL generation** (§II-A1) generates queries that must actually
//!   execute ("generate diverse and correctly executable SQL queries for
//!   thoroughly testing the performance of DBMS");
//! * **NL2SQL** (§II-B1) and the Table II experiment measure *execution
//!   accuracy* — a predicted query is correct iff it returns the same
//!   result set as the gold query;
//! * **NL2Transaction** (§II-B1) needs `BEGIN`/`COMMIT`/`ROLLBACK`;
//! * **table understanding** (§II-C2) runs statistics queries like
//!   `SELECT AVG(salary) FROM employee`.
//!
//! This crate is that substrate: a from-scratch lexer, recursive-descent
//! parser, expression evaluator, and executor for a practical SQL subset —
//! `SELECT` with inner/left joins, `WHERE`, `GROUP BY`/`HAVING`,
//! aggregates, `ORDER BY`/`LIMIT`/`OFFSET`, `DISTINCT`, set operations,
//! `IN`/`EXISTS`/scalar subqueries, `LIKE`/`BETWEEN`/`IS NULL`, plus DML
//! (`INSERT`/`UPDATE`/`DELETE`), DDL (`CREATE`/`DROP TABLE`), and
//! transactions that keep an undo log of the rows they changed: read
//! backwards it is `ROLLBACK`, read forwards at the commit it is what a
//! [`PersistentDb`] writes to its store. A statement whose leftmost test
//! is `col = literal` reads only the rows that column's equality index
//! names; the first such statement builds the index and DML keeps it.
//!
//! ```
//! use llmdm_sqlengine::{Database, Value};
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE t (id INT, name TEXT)").unwrap();
//! db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')").unwrap();
//! let rs = db.query("SELECT name FROM t WHERE id = 2").unwrap();
//! assert_eq!(rs.rows[0][0], Value::Str("b".into()));
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod catalog;
pub mod error;
pub mod eval;
pub mod exec;
mod index;
pub mod lexer;
pub mod parser;
pub(crate) mod plan;
pub mod printer;
pub mod result;
pub mod schema;
pub mod semantic;
pub mod storage;
pub mod value;

pub use ast::{Expr, SelectStmt, Statement};
pub use catalog::Database;
pub use error::SqlError;
pub use parser::parse_statement;
pub use printer::print_statement;
pub use result::ResultSet;
pub use schema::{Column, Row, Schema, Table};
pub use semantic::ModelHandle;
pub use storage::PersistentDb;
pub use value::{DataType, Value};
