//! # llmdm-serve — the traffic-shaped serving layer (§III "heavy traffic")
//!
//! The paper's systems gap between LLM demos and DB-grade serving is
//! request scheduling: real deployments face "heavy traffic from millions
//! of users", yet every naive call path is one synchronous call per
//! query. This crate supplies the serving substrate the rest of the
//! workspace plugs into — a worker pool grown into a multi-tenant,
//! QoS-aware frontend:
//!
//! * **one entry point**: [`serve_requests`] runs validated
//!   [`ServeRequest`]` { tenant, class, batch_key, payload }`s built via
//!   [`ServeRequest::builder`]; the batch handler sees each full
//!   [`Job`] (id, tenant, priority, trace context, payload);
//! * **per-tenant token-bucket quotas** ([`tenant::TokenBucket`], exact
//!   integer millitoken arithmetic on the simulated clock): over-quota
//!   submissions fail with [`ServeError::Throttled`] carrying the exact
//!   refill wait;
//! * **weighted-fair dequeue**: the bounded [`qos::QosQueue`] serves
//!   backlogged [`Priority`] classes 4:2:1 by credit-based weighted
//!   round-robin — starvation-free, micro-batching same-`batch_key`
//!   jobs up to `max_batch` per dispatch like continuous batching in a
//!   real inference server;
//! * **graceful load-shedding** wired to `llmdm-resil` outage windows
//!   ([`tenant::ShedPolicy`]): during an outage the effective capacity
//!   degrades and overflow is shed lowest class first with a typed
//!   [`ServeError::Shed`]` { retry_after_ms }` pointing past the window.
//!
//! ## Determinism contract
//!
//! Scheduling is the one place concurrency could leak into results, so
//! the contract is explicit (asserted by `examples/serving_pipeline.rs`
//! and `tests/integration_serve.rs`):
//!
//! 1. every job gets a **seeded trace id** (`job.trace.trace_id`) derived
//!    from `(config.seed, submission index)` — never from wall-clock or
//!    thread identity;
//! 2. admission — including every quota, backpressure, and shed decision
//!    on the simulated arrival timeline — happens in submission order
//!    before workers start draining, so the *disposition* of every job is
//!    a pure function of `(requests, config)`;
//! 3. results are reported **indexed by submission order**, so a
//!    single-worker run is byte-identical to a plain sequential loop, an
//!    N-worker run produces the same results, and per-tenant accounting
//!    reconciles exactly: `admitted + rejected + shed == submitted`.
//!
//! The crate is deliberately generic (payload in, result out) and depends
//! only on `llmdm-rt`, `llmdm-obs`, and `llmdm-resil` — enforced by
//! `tests/hermetic.rs` — so model-layer crates adapt *to* it rather than
//! it growing model knowledge.

#![warn(missing_docs)]

pub mod qos;
pub mod queue;
pub mod request;
pub mod scheduler;
pub mod tenant;

pub use queue::ServeError;
pub use request::{ServeRequest, ServeRequestBuilder};
pub use scheduler::{
    record_job_cost, serve_requests, Disposition, Job, ServeConfig, ServeConfigBuilder, ServeRun,
    ServeStats,
};
pub use tenant::{
    Priority, ShedPolicy, TenantId, TenantPolicies, TenantPolicy, TenantStats, TokenBucket,
};

/// One-stop imports for the typed serving API.
///
/// ```
/// use llmdm_serve::prelude::*;
/// ```
pub mod prelude {
    pub use crate::queue::ServeError;
    pub use crate::request::ServeRequest;
    pub use crate::scheduler::{
        serve_requests, Disposition, Job, ServeConfig, ServeRun, ServeStats,
    };
    pub use crate::tenant::{
        Priority, ShedPolicy, TenantId, TenantPolicies, TenantPolicy, TenantStats,
    };
}
