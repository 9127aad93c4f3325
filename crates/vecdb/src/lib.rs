//! # llmdm-vecdb — the vector database substrate
//!
//! The paper positions vector databases as the companion system to LLMs for
//! data management: they store embedding vectors for multi-modal data
//! (§II-D1), historical prompts (§III-A), and cached queries (§III-C), and
//! they must answer *hybrid* queries that mix vector similarity with
//! attribute predicates (§III-B2, "attribute filtering"). This crate is a
//! from-scratch, in-memory vector database implementing exactly those
//! requirements:
//!
//! * two index structures — exhaustive [`flat::FlatIndex`], the exact
//!   answer, and graph-based [`hnsw::HnswIndex`], whose diverse neighbour
//!   links keep clustered data one connected graph — behind one
//!   [`index::VectorIndex`] trait;
//! * a [`collection::Collection`] API pairing each vector with attribute
//!   metadata, and an attribute index (posting lists per key and value) so
//!   that an equality filter is a lookup, not a scan;
//! * hybrid filtered search with **pre-filter**, **post-filter**, and
//!   **adaptive** orderings ([`filter::HybridStrategy`]), including the
//!   paper's "vector search first" pathology where all `k` returned items
//!   fail the attribute constraint, and a **learned k-predictor**
//!   ([`filter::KPredictor`]) that sizes the over-fetch from observed
//!   selectivities — the learning-based fix the paper envisions.
//!
//! ```
//! use llmdm_vecdb::{Collection, Metric, AttrValue, Filter};
//!
//! let mut coll = Collection::new(4, Metric::Cosine);
//! coll.insert(1, vec![1.0, 0.0, 0.0, 0.0], [("kind", AttrValue::from("doc"))]).unwrap();
//! coll.insert(2, vec![0.9, 0.1, 0.0, 0.0], [("kind", AttrValue::from("table"))]).unwrap();
//! let hits = coll.search(&[1.0, 0.0, 0.0, 0.0], 1).unwrap();
//! assert_eq!(hits[0].id, 1);
//! let filtered = coll
//!     .search_filtered(&[1.0, 0.0, 0.0, 0.0], 1, &Filter::eq("kind", "table"))
//!     .unwrap();
//! assert_eq!(filtered[0].id, 2);
//! ```

#![warn(missing_docs)]

mod attr_index;
mod hash_ord;
pub mod collection;
pub mod error;
pub mod filter;
pub mod flat;
pub mod hnsw;
pub mod index;
pub mod metric;

pub use collection::{Collection, Document, SearchHit};
pub use error::VecDbError;
pub use filter::{AttrValue, Filter, HybridStrategy, KPredictor, Predicate};
pub use flat::FlatIndex;
pub use hnsw::{AdaptiveSearch, HnswConfig, HnswIndex};
pub use index::VectorIndex;
pub use metric::Metric;
