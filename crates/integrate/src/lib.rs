//! # llmdm-integrate — LLM for data integration (§II-C)
//!
//! The paper calls data integration "the core of the data management
//! community" and lists the tasks this crate implements:
//!
//! * [`er`] — **entity resolution**: blocking + matching over dirty
//!   records, with both a similarity matcher and an LLM matcher built on
//!   the paper's literal prompt ("Are the following entity descriptions
//!   the same real-world entity?"), evaluated by precision/recall/F1 on a
//!   seeded duplicate-injection workload;
//! * [`schema_match`] — **schema matching**: column correspondence across
//!   differently-named schemas from name similarity + value overlap +
//!   embeddings;
//! * [`cta`] — **column type annotation**: the paper's few-shot example
//!   ("Given the following column types: country, person, date, movie,
//!   sports … predict the column type according to the column values"),
//!   with a rule-based baseline and the simulated-LLM ICL path;
//! * [`clean`] — **data cleaning**: NULL, outlier, duplicate, and
//!   functional-dependency violation detection with majority-repair;
//! * [`understand`] — **table understanding** (§II-C2): row/column
//!   linearization vs natural-language serialization, SQL→NL statistical
//!   descriptions (the paper's `SELECT AVG(salary)` example), and the
//!   big-table splitting/compression advisor for PLM input budgets.

#![warn(missing_docs)]

pub mod clean;
pub mod cta;
pub mod er;
pub mod schema_match;
pub mod understand;

pub use clean::{clean_report, repair_fd_violations, CleanReport, FdViolation};
pub use cta::{annotate_with_llm, rule_annotate, ColumnType};
pub use er::{block, EntityRecord, ErDataset, ErReport, LlmMatcher, Matcher, SimilarityMatcher};
pub use schema_match::{match_schemas, ColumnMatch};
pub use understand::{
    chunk_table, describe_sql, linearize_columns, linearize_rows, serialize_natural,
    ChunkPlan,
};
