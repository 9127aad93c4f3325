//! # llmdm-cascade — the LLM cascade (§III-B1, Fig. 6, Table I)
//!
//! "We can send a query to a sequence of LLMs. These models vary in size
//! and cost, spanning from small to large. A decision model can be trained
//! to determine whether a more expensive and larger LLM is needed."
//!
//! This crate implements exactly that:
//!
//! * [`hotpot`] — a HotpotQA-style multi-hop question-answering workload:
//!   a synthetic knowledge base of `born_in` / `located_in` / `wrote`
//!   facts, questions requiring 1–3 hops of reasoning over facts supplied
//!   in the prompt context, and gold answers;
//! * [`solver::QaSolver`] — the prompt solver that genuinely answers those
//!   questions by graph search over the context facts (the simulated
//!   models' error behaviour then comes from their calibrated capability
//!   curves);
//! * [`decision`] — a trainable logistic-regression decision model over
//!   answer features (model confidence, output shape, prompt size, tier)
//!   predicting whether an answer can be *accepted* or must escalate;
//! * [`router::CascadeRouter`] — the Fig. 6 procedure: try tiers cheapest
//!   first, accept when the decision model is confident, escalate
//!   otherwise; full per-query traces for the Fig. 6 reproduction. The
//!   same walk falls back past a failing tier, serves the best rejected
//!   answer as `degraded` when no tier accepts, and
//!   ([`CascadeRouter::answer_within`]) slices a latency budget across
//!   the tiers' request deadlines;
//! * [`eval`] — the Table I experiment: each tier alone vs the cascade,
//!   accuracy and dollar cost on the same 40-query workload.

#![warn(missing_docs)]

pub mod decision;
pub mod eval;
pub mod hotpot;
pub mod router;
pub mod solver;

pub use decision::{DecisionModel, Features};
pub use eval::{run_table1, Table1Report, TierReport};
pub use hotpot::{HotpotConfig, HotpotWorkload, QaItem};
pub use router::{CascadeAnswer, CascadeExhausted, CascadeRouter, TierAttempt};
pub use solver::QaSolver;
