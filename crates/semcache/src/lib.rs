//! # llmdm-semcache — the semantic LLM cache (§III-C, Table III)
//!
//! "Different from traditional cache systems, which utilize an exact match
//! between the new query and cached queries, for LLMs … identifying
//! similar query vectors instead of exactly the same query vector is a
//! more practical solution."
//!
//! This crate implements that cache:
//!
//! * **similarity matching** ([`cache::SemanticCache`]): queries are
//!   embedded with the shared deterministic encoder; a lookup returns a
//!   *reuse* hit (similarity ≥ reuse threshold — serve the cached
//!   response, no model call) or an *augment* hit (similarity in the
//!   augment band — the cached pair is worth adding to the new prompt as
//!   an extra example, the paper's "case (2)"), else a miss;
//! * **weighted eviction** ([`cache::EvictionPolicy::Weighted`]): the
//!   paper's observation that reuse hits and augment hits "should have
//!   different weights when considering eviction", alongside classic LRU
//!   and LFU baselines for the ablation bench;
//! * **admission prediction** ([`predictor::AccessPredictor`]): "predict
//!   the probability of future access" to decide whether to cache a new
//!   entry at all;
//! * **at most one embedding per prompt** ([`cache::Probe`]): a query the
//!   cache holds verbatim is probed with that entry's stored vector and
//!   not embedded at all; any other query is embedded once, outside any
//!   lock. The same probe scans and — on a miss — becomes the inserted
//!   entry's key (DESIGN.md §17);
//! * one client, [`stack::CachedModel`], that puts a
//!   [`stack::SharedCache`] (one mutex) in front of any model: `ask(&self,
//!   key, request)` keys the cache on a caller-chosen text, and as a
//!   `ModelStack` layer it keys on the prompt. Reuse hits are free,
//!   augment hits extend the prompt, admission is predicted, and
//!   retryable outages degrade to stale serves.
//!
//! The Table III experiment itself (original-only vs original+sub-query
//! caching over the decomposition pipeline) lives in the `llmdm` facade
//! crate, which composes this cache with `llmdm-nlq`.

#![warn(missing_docs)]

pub mod cache;
pub mod predictor;
pub mod stack;

pub use cache::{CacheConfig, CacheStats, EntryKind, EvictionPolicy, Lookup, Probe, SemanticCache};
pub use predictor::AccessPredictor;
pub use stack::{shared_cache, CacheStackExt, CachedModel, SharedCache};
