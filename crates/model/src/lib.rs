//! # llmdm-model — simulated LLM substrate
//!
//! The paper ("Applications and Challenges for Large Language Models: From
//! Data Management Perspective", ICDE 2024) builds its preliminary
//! experiments on commercial LLM APIs (babbage-002, gpt-3.5-turbo, gpt-4).
//! This crate provides a **deterministic, fully offline substitute**: a
//! simulated model zoo whose members
//!
//! 1. actually *solve* the data-management tasks used throughout the
//!    workspace (multi-hop QA, NL2SQL, label imputation, …) via pluggable
//!    [`solver::PromptSolver`]s that parse the same structured prompts the
//!    higher-level crates emit,
//! 2. make tier-dependent mistakes through a calibrated
//!    [`capability::CapabilityCurve`] (bigger models are more accurate,
//!    harder inputs fail more often, few-shot examples help), and
//! 3. meter every call in tokens and dollars through [`usage::UsageMeter`]
//!    using the paper's quoted prices ($0.001/1k input tokens for the
//!    mid tier, $0.03/1k for the large tier).
//!
//! Those three properties are exactly what the paper's cascade,
//! decomposition/combination, and caching experiments exercise, so the
//! *shape* of its Tables I–III is reproduced by the same mechanisms the
//! paper credits — without network access or GPU hardware.
//!
//! The crate also hosts the deterministic text [`embed::Embedder`] (hashed
//! character n-grams + signed random projection) shared by the vector
//! database, the semantic cache, the prompt store, and the data lake.
//!
//! ## Quick example
//!
//! ```
//! use llmdm_model::{ModelZoo, CompletionRequest, LanguageModel};
//!
//! let zoo = ModelZoo::standard(42);
//! let req = CompletionRequest::new("### task: echo\nhello data management");
//! let out = zoo.large().complete(&req).unwrap();
//! assert!(out.text.contains("hello data management"));
//! assert!(out.usage.input_tokens > 0);
//! ```

#![warn(missing_docs)]

pub mod capability;
pub mod embed;
pub mod error;
pub mod faulty;
pub mod hash;
pub mod latency;
pub mod prelude;
pub mod pricing;
pub mod resilient;
pub mod sim;
pub mod stack;
pub mod solver;
pub mod tokenizer;
pub mod usage;
pub mod zoo;

pub use capability::CapabilityCurve;
pub use embed::Embedder;
pub use error::{ModelError, TransientKind};
pub use faulty::FaultyModel;
pub use resilient::{ClientStats, ResilientClient};
pub use latency::LatencyModel;
pub use pricing::{PriceTable, Pricing};
pub use sim::{Completion, CompletionRequest, LanguageModel, SimLlm};
pub use stack::ModelStack;
pub use solver::{PromptEnvelope, PromptSolver, SolvedPart, SolvedTask};
pub use tokenizer::Tokenizer;
pub use usage::{TokenUsage, UsageMeter, UsageSnapshot};
pub use zoo::{ModelTier, ModelZoo};
