//! # llmdm-resil — deterministic fault injection + resilience machinery
//!
//! The paper's challenge sections (§III-B query optimization, §III-C
//! cache optimization, §III-D output validation) all presume LLM calls
//! that *fail*: they rate-limit, time out, truncate, and return
//! malformed payloads. This crate supplies both sides of that coin for
//! the whole workspace, with the same determinism guarantees as the
//! rest of the stack (seeded xoshiro streams from `llmdm-rt`, metrics
//! through `llmdm-obs`):
//!
//! * **Fault injection** ([`plan`]): a declarative [`FaultPlan`] —
//!   per-tier rates for rate-limit / timeout / truncation / malformed
//!   payloads, plus burst multipliers and hard outage windows on a
//!   simulated clock ([`SimClock`]) — and a pure, seeded decision
//!   function: identical `(seed, plan, call sequence)` ⇒ byte-identical
//!   fault sequence.
//! * **Resilience** ([`backoff`], [`deadline`], [`breaker`], [`retry`]):
//!   capped exponential backoff with deterministic full jitter,
//!   deadline budgets measured on the simulated clock, a
//!   closed→open→half-open circuit breaker, and a generic retry
//!   executor ([`retry::execute`]) that composes all three around any
//!   fallible operation.
//!
//! ## Layering
//!
//! This crate deliberately depends **only** on `llmdm-rt` and
//! `llmdm-obs` (enforced by `tests/hermetic.rs::
//! resil_crate_depends_only_on_rt_and_obs`), so every other crate can
//! use it without cycles. The `LanguageModel`-shaped adapters —
//! `FaultyModel` (injects faults from a [`FaultPlan`]) and
//! `ResilientClient` (wraps a model with [`retry::execute`]) — live in
//! `llmdm-model::{faulty, resilient}`, and the tier-aware fallback walk
//! is `llmdm-cascade`'s `CascadeRouter`. The error taxonomy this
//! crate classifies against is abstracted behind the [`Retryable`]
//! trait, which `llmdm_model::ModelError` implements.
//!
//! ## Metric names
//!
//! `resil.retries`, `resil.breaker_open` (trips),
//! `resil.breaker_rejected` (calls refused while open),
//! `resil.breaker_transition`, `resil.fallback_tier` and
//! `resil.degraded_answers` (bumped by the cascade router),
//! `resil.stale_serves` (bumped by semcache), `resil.faults.<kind>`
//! (bumped by the injector), and the `resil.backoff_ms` histogram.
//! See DESIGN.md §9.

#![warn(missing_docs)]

pub mod backoff;
pub mod breaker;
pub mod clock;
pub mod deadline;
pub mod plan;
pub mod retry;

pub use backoff::Backoff;
pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker, Transition};
pub use clock::SimClock;
pub use deadline::Deadline;
pub use plan::{FaultKind, FaultPlan, FaultRates, TierPlan, Window};
pub use retry::{execute, CallStats, ResilError, Retryable, RetryPolicy};

pub(crate) use llmdm_rt::hash::{combine, fnv1a_str, splitmix, unit_f64};
