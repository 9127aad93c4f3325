//! [`ModelStack`] — one fluent builder for the whole decorator stack.
//!
//! Before this module, composing a production-shaped model meant nesting
//! constructors by hand:
//!
//! ```text
//! ResilientClient::new(
//!     Arc::new(FaultyModel::new(zoo.large(), plan, clock.clone())),
//!     policy, breaker, clock)            // … and so on, inside-out
//! ```
//!
//! which is error-prone (clock threading, Arc erasure at every layer) and
//! unreadable in the examples. The builder expresses the same stack
//! outside-in, in application order:
//!
//! ```
//! use llmdm_model::{ModelStack, ModelZoo, LanguageModel};
//! use llmdm_resil::FaultPlan;
//! use std::sync::Arc;
//!
//! let zoo = ModelZoo::standard(42);
//! let model = ModelStack::new(&zoo)
//!     .with_faults(Arc::new(FaultPlan::none()))
//!     .with_default_retry()
//!     .build_arc();
//! assert_eq!(model.name(), "sim-large");
//! ```
//!
//! Layers added later wrap layers added earlier (the last `with_*` is the
//! outermost decorator the caller talks to). Typed handles to the fault
//! injector and retry client stay available (for `executed_cost`
//! reconciliation and retry accounting) even after `build_arc()` erases the
//! stack to a `dyn LanguageModel`. Cache layers live downstream:
//! `llmdm-semcache` extends this builder with `.with_cache(…)` via its
//! `CacheStackExt` trait, keeping the dependency graph acyclic.
//!
//! The nested-constructor pattern remains supported for odd stacks, but
//! new code and all examples go through the builder.

use std::sync::Arc;

use llmdm_resil::{BreakerConfig, FaultPlan, RetryPolicy, SimClock};

use crate::faulty::FaultyModel;
use crate::resilient::ResilientClient;
use crate::sim::LanguageModel;
use crate::zoo::{ModelTier, ModelZoo};

/// A fluent builder composing zoo tier → [`FaultyModel`] →
/// [`ResilientClient`] → (downstream: cache, cascade) in one chain.
pub struct ModelStack {
    top: Arc<dyn LanguageModel>,
    clock: SimClock,
    faulty: Option<Arc<FaultyModel>>,
    resilient: Option<Arc<ResilientClient>>,
}

impl std::fmt::Debug for ModelStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelStack")
            .field("top", &self.top.name())
            .field("faulty", &self.faulty.is_some())
            .field("resilient", &self.resilient.is_some())
            .finish()
    }
}

impl ModelStack {
    /// Start a stack on the zoo's large tier (the common case for
    /// quality-first pipelines). Use [`ModelStack::tier`] for a specific
    /// tier or [`ModelStack::over`] for an arbitrary base model.
    pub fn new(zoo: &ModelZoo) -> Self {
        Self::tier(zoo, ModelTier::Large)
    }

    /// Start a stack on a specific zoo tier.
    pub fn tier(zoo: &ModelZoo, tier: ModelTier) -> Self {
        Self::over(zoo.get(tier))
    }

    /// Start a stack over an arbitrary base model.
    pub fn over(model: Arc<dyn LanguageModel>) -> Self {
        ModelStack { top: model, clock: SimClock::new(), faulty: None, resilient: None }
    }

    /// Time every subsequent layer on `clock` instead of a fresh one
    /// (call *before* `with_faults`/`with_retry`; layers capture the
    /// clock at wrap time).
    pub fn on_clock(mut self, clock: SimClock) -> Self {
        self.clock = clock;
        self
    }

    /// Wrap the current top in a fault injector driven by `plan`. The
    /// injector handle stays retrievable via [`ModelStack::faulty`] for
    /// executed-cost reconciliation.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        let faulty = Arc::new(FaultyModel::new(self.top.clone(), plan, self.clock.clone()));
        self.faulty = Some(faulty.clone());
        self.top = faulty;
        self
    }

    /// Wrap the current top in a retry/breaker client with an explicit
    /// policy. Handle retrievable via [`ModelStack::resilient`].
    pub fn with_retry(mut self, policy: RetryPolicy, breaker: BreakerConfig) -> Self {
        let client =
            Arc::new(ResilientClient::new(self.top.clone(), policy, breaker, self.clock.clone()));
        self.resilient = Some(client.clone());
        self.top = client;
        self
    }

    /// Wrap the current top in a retry/breaker client with the default
    /// policy (3 retries, backoff seeded from the model name).
    pub fn with_default_retry(mut self) -> Self {
        let client = Arc::new(ResilientClient::with_defaults(self.top.clone(), self.clock.clone()));
        self.resilient = Some(client.clone());
        self.top = client;
        self
    }

    /// Wrap the current top in an arbitrary decorator — the escape hatch
    /// downstream crates use to graft their own layers (e.g.
    /// `llmdm-semcache`'s `.with_cache`) onto the chain without this
    /// crate knowing their types.
    pub fn with_layer(
        mut self,
        wrap: impl FnOnce(Arc<dyn LanguageModel>, &SimClock) -> Arc<dyn LanguageModel>,
    ) -> Self {
        self.top = wrap(self.top.clone(), &self.clock);
        self
    }

    /// The shared clock layers are timed on.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The fault-injector handle, if `with_faults` was applied.
    pub fn faulty(&self) -> Option<&Arc<FaultyModel>> {
        self.faulty.as_ref()
    }

    /// The retry-client handle, if a retry layer was applied.
    pub fn resilient(&self) -> Option<&Arc<ResilientClient>> {
        self.resilient.as_ref()
    }

    /// The current top of the stack without consuming the builder.
    pub fn model(&self) -> Arc<dyn LanguageModel> {
        self.top.clone()
    }

    /// Finish the chain: the outermost layer, shareable across tiers and
    /// threads (e.g. cascade construction).
    pub fn build_arc(self) -> Arc<dyn LanguageModel> {
        self.top
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Completion, CompletionRequest};
    use crate::solver::PromptEnvelope;
    use llmdm_resil::{Backoff, FaultRates, TierPlan};

    fn prompt(nonce: u64) -> CompletionRequest {
        CompletionRequest::new(
            PromptEnvelope::builder("oracle")
                .header("gold", "ok")
                .header("difficulty", 0.0)
                .header("nonce", nonce)
                .body("q")
                .build(),
        )
    }

    #[test]
    fn bare_stack_is_transparent() {
        let zoo = ModelZoo::standard(7);
        let stacked = ModelStack::tier(&zoo, ModelTier::Medium).build_arc();
        let direct = zoo.medium();
        assert_eq!(stacked.name(), "sim-medium");
        assert_eq!(stacked.context_window(), direct.context_window());
        let a = stacked.complete(&prompt(1)).unwrap();
        let b = direct.complete(&prompt(1)).unwrap();
        assert_eq!(a.text, b.text);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn layers_wrap_outside_in_and_handles_survive() {
        let zoo = ModelZoo::standard(7);
        let plan = Arc::new(FaultPlan::new(
            "lossy",
            3,
            vec![TierPlan::with_rates(
                "sim-medium",
                FaultRates { rate_limited: 0.4, ..FaultRates::none() },
            )
            .retry_hint(10)],
        ));
        let stack = ModelStack::tier(&zoo, ModelTier::Medium)
            .with_faults(plan)
            .with_retry(
                RetryPolicy::new(3, Backoff::new(10, 100, 1)),
                BreakerConfig { failure_threshold: 100, ..BreakerConfig::default() },
            );
        let faulty = stack.faulty().unwrap().clone();
        let client = stack.resilient().unwrap().clone();
        let clock = stack.clock().clone();
        let model = stack.build_arc();
        let mut ok = 0;
        for n in 0..30 {
            if model.complete(&prompt(n)).is_ok() {
                ok += 1;
            }
            clock.advance(1_000);
        }
        // The retry layer rides through most of the 40% rate limiting…
        assert!(ok >= 25, "ok={ok}");
        // …and the typed handles still reconcile: every executed dollar
        // the injector saw is on the zoo's shared meter.
        assert!(faulty.calls() > 30, "retries must add inner calls: {}", faulty.calls());
        assert!(client.stats().retries > 0);
        let diff = (faulty.executed_cost() - zoo.meter().snapshot().total_dollars()).abs();
        assert!(diff < 1e-9, "executed != metered by {diff}");
    }

    #[test]
    fn shared_clock_is_threaded_through() {
        let zoo = ModelZoo::standard(7);
        let clock = SimClock::new();
        let stack = ModelStack::new(&zoo)
            .on_clock(clock.clone())
            .with_faults(Arc::new(FaultPlan::none()))
            .with_default_retry();
        assert_eq!(stack.faulty().unwrap().clock().now_ms(), clock.now_ms());
        clock.advance(500);
        assert_eq!(stack.clock().now_ms(), 500);
    }

    #[test]
    fn with_layer_grafts_custom_decorators() {
        struct Renamed(Arc<dyn LanguageModel>);
        impl LanguageModel for Renamed {
            fn name(&self) -> &str {
                "renamed"
            }
            fn complete(
                &self,
                req: &CompletionRequest,
            ) -> Result<Completion, crate::error::ModelError> {
                self.0.complete(req)
            }
            fn context_window(&self) -> usize {
                self.0.context_window()
            }
        }
        let zoo = ModelZoo::standard(7);
        let model =
            ModelStack::new(&zoo).with_layer(|inner, _clock| Arc::new(Renamed(inner))).build_arc();
        assert_eq!(model.name(), "renamed");
        assert!(model.complete(&prompt(0)).is_ok());
    }
}
