//! # llmdm-transform — LLM for data transformation (§II-B, Fig. 4)
//!
//! Everything the paper's transformation section describes, built from
//! scratch:
//!
//! * [`xml`] — a hand-written parser for the XML inputs of Fig. 4; JSON
//!   inputs are parsed by the workspace's one JSON codec,
//!   `llmdm_rt::json::Json` (parsing semi-structured data *is* the
//!   application here, so neither is a dependency);
//! * [`relational`] — schema inference and flattening: JSON/XML documents
//!   → relational [`Table`](llmdm_sqlengine::Table)s ("guide LLMs to
//!   extract schema information and the corresponding values … and then
//!   generate relational tables");
//! * [`ops`] + [`synthesize`] — the *code synthesis* path: spreadsheet
//!   grids reshaped by operator programs (transpose, pivot, unpivot/
//!   explode, fill, drops — the operators of Auto-Tables cited by the
//!   paper), discovered by beam search over a **relationality score**, so
//!   one synthesized program transforms all further files of the same
//!   shape ("we only need to call LLMs once or a few times, which
//!   consumes less cost");
//! * [`pattern`] — **column pattern mining** (§II-B3): token patterns like
//!   `<letter>{3} <digit>{2} <digit>{4}`, minimal-scope generalization,
//!   and pattern-based data-drift validation;
//! * [`colmap`] — column-to-column transformation program synthesis: the
//!   paper's "Aug 14 2023" ↔ "8/14/2023" joinability example, learned
//!   from value pairs and applied to unseen values;
//! * [`nl2txn`] — **NL2Transaction**: natural-language multi-step payment
//!   scenarios (the paper's Alice/Bob laptop example) compiled to atomic
//!   `BEGIN … COMMIT` SQL scripts;
//! * [`pipeline`] — data-preparation pipeline recommendation: candidate
//!   operator sequences (impute, normalize, one-hot, drop-constant…)
//!   scored on a downstream-quality proxy, searched greedily.

#![warn(missing_docs)]

pub mod colmap;
pub mod nl2txn;
pub mod ops;
pub mod pattern;
pub mod pipeline;
pub mod relational;
pub mod synthesize;
pub mod xml;

pub use colmap::{synthesize_mapping, MapProgram};
pub use nl2txn::{compile_transaction, TransferScript};
pub use ops::{Grid, Op};
pub use pattern::{mine_pattern, Pattern, PatternToken};
pub use pipeline::{recommend_pipeline, PipelineOp, PipelineReport};
pub use relational::{json_to_tables, xml_to_table, SchemaInference};
pub use synthesize::{discover_program, relationality};
pub use xml::XmlNode;
