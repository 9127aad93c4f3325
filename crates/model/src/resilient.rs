//! [`ResilientClient`] — a [`LanguageModel`] wrapper that composes
//! `llmdm-resil`'s retry executor (backoff + deadline + circuit
//! breaker) around any inner model.
//!
//! This is the model-layer half of the resilience story. Each call runs
//! under the request's own [`CompletionRequest::deadline`], so a caller
//! bounds a call by setting that field: the cascade router
//! (`llmdm_cascade::CascadeRouter::answer_within`) hands each tier its
//! slice of the query budget that way, and falls back to the next tier
//! when this client gives up (breaker open, budget slice spent, retries
//! exhausted).

use std::sync::{Arc, Mutex, MutexGuard};

use llmdm_resil::{
    execute, Backoff, BreakerConfig, CallStats, CircuitBreaker, ResilError, Retryable,
    RetryPolicy, SimClock,
};

use crate::error::{ModelError, TransientKind};
use crate::sim::{Completion, CompletionRequest, LanguageModel};

impl Retryable for ModelError {
    fn is_retryable(&self) -> bool {
        ModelError::is_retryable(self)
    }

    fn retry_after_ms(&self) -> Option<u64> {
        ModelError::retry_after_ms(self)
    }
}

/// Cumulative accounting across every call through a client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Calls attempted (excluding breaker rejections).
    pub calls: u64,
    /// Calls ultimately successful.
    pub successes: u64,
    /// Total retries across all calls.
    pub retries: u64,
    /// Calls rejected up front by the open breaker.
    pub breaker_rejections: u64,
    /// Calls abandoned on deadline expiry.
    pub deadline_failures: u64,
    /// Total simulated backoff delay consumed.
    pub backoff_ms_total: u64,
}

/// A retry/breaker/deadline wrapper around an inner [`LanguageModel`].
pub struct ResilientClient {
    inner: Arc<dyn LanguageModel>,
    policy: RetryPolicy,
    breaker: Mutex<CircuitBreaker>,
    clock: SimClock,
    stats: Mutex<ClientStats>,
}

impl std::fmt::Debug for ResilientClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientClient")
            .field("inner", &self.inner.name())
            .field("max_retries", &self.policy.max_retries)
            .finish()
    }
}

impl ResilientClient {
    /// Wrap `inner` with `policy` and a breaker built from
    /// `breaker_config`, timing everything on `clock`.
    pub fn new(
        inner: Arc<dyn LanguageModel>,
        policy: RetryPolicy,
        breaker_config: BreakerConfig,
        clock: SimClock,
    ) -> Self {
        ResilientClient {
            inner,
            policy,
            breaker: Mutex::new(CircuitBreaker::new(breaker_config)),
            clock,
            stats: Mutex::new(ClientStats::default()),
        }
    }

    /// A client with sensible defaults (3 retries, 50ms–5s backoff
    /// seeded from the model name hash, default breaker).
    pub fn with_defaults(inner: Arc<dyn LanguageModel>, clock: SimClock) -> Self {
        let seed = crate::hash::fnv1a_str(inner.name());
        let policy = RetryPolicy::new(3, Backoff::new(50, 5_000, seed));
        let breaker = BreakerConfig { seed, ..BreakerConfig::default() };
        ResilientClient::new(inner, policy, breaker, clock)
    }

    fn lock_breaker(&self) -> MutexGuard<'_, CircuitBreaker> {
        self.breaker.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_stats(&self) -> MutexGuard<'_, ClientStats> {
        self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The inner model.
    pub fn inner(&self) -> &Arc<dyn LanguageModel> {
        &self.inner
    }

    /// The retry policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Current breaker state.
    pub fn breaker_state(&self) -> llmdm_resil::BreakerState {
        self.lock_breaker().state()
    }

    /// Snapshot of cumulative client statistics.
    pub fn stats(&self) -> ClientStats {
        *self.lock_stats()
    }

    /// Complete `req` under `req.deadline`, returning the per-call
    /// [`CallStats`] alongside the executor's own error.
    fn complete_within(
        &self,
        req: &CompletionRequest,
    ) -> (Result<Completion, ResilError<ModelError>>, CallStats) {
        let mut span = llmdm_obs::span("resil.call");
        span.field("model", self.inner.name());
        let mut breaker = self.lock_breaker();
        let (res, call_stats) =
            execute(&self.policy, &mut breaker, &self.clock, req.deadline, |_attempt| {
                self.inner.complete(req)
            });
        drop(breaker);

        let mut stats = self.lock_stats();
        if call_stats.attempts > 0 {
            stats.calls += 1;
        }
        stats.retries += call_stats.retries as u64;
        stats.backoff_ms_total += call_stats.backoff_ms_total;
        match &res {
            Ok(_) => stats.successes += 1,
            Err(ResilError::BreakerOpen { .. }) => stats.breaker_rejections += 1,
            Err(ResilError::DeadlineExceeded { .. }) => stats.deadline_failures += 1,
            Err(ResilError::Exhausted { .. }) => {}
        }
        drop(stats);

        if span.is_recording() {
            span.field("attempts", call_stats.attempts);
            span.field("retries", call_stats.retries);
            span.field("backoff_ms", call_stats.backoff_ms_total);
            span.field("outcome", match &res {
                Ok(_) => "ok",
                Err(ResilError::BreakerOpen { .. }) => "breaker_open",
                Err(ResilError::DeadlineExceeded { .. }) => "deadline",
                Err(ResilError::Exhausted { .. }) => "exhausted",
            });
        }
        (res, call_stats)
    }
}

/// Map the executor's failure back into the model error vocabulary so
/// `ResilientClient` can itself implement [`LanguageModel`].
pub fn resil_to_model_error(e: ResilError<ModelError>) -> ModelError {
    match e {
        ResilError::BreakerOpen { retry_after_ms } => {
            ModelError::transient(TransientKind::Unavailable, retry_after_ms)
        }
        ResilError::DeadlineExceeded { .. } => ModelError::transient(TransientKind::Timeout, 0),
        ResilError::Exhausted { last_error, .. } => last_error,
    }
}

impl LanguageModel for ResilientClient {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }

    /// Runs the retry executor under `req.deadline`; an expired or
    /// exhausted budget surfaces as a retryable `Timeout`.
    fn complete(&self, req: &CompletionRequest) -> Result<Completion, ModelError> {
        let (res, _) = self.complete_within(req);
        res.map_err(resil_to_model_error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::CapabilityCurve;
    use crate::faulty::FaultyModel;
    use crate::latency::LatencyModel;
    use crate::pricing::PriceTable;
    use crate::sim::{SimLlm, SimLlmConfig};
    use crate::solver::PromptEnvelope as Env;
    use crate::usage::UsageMeter;
    use llmdm_resil::{Deadline, FaultPlan, FaultRates, TierPlan, Window};

    fn sim(meter: UsageMeter) -> Arc<SimLlm> {
        Arc::new(SimLlm::new(
            SimLlmConfig {
                name: "sim-test".into(),
                curve: CapabilityCurve::new(1.0, 0.6, 0.5, 8),
                context_window: 4096,
                latency: LatencyModel::default(),
                confidence_noise: 0.05,
                seed: 3,
            },
            meter,
        ))
    }

    fn prompt(nonce: u64) -> CompletionRequest {
        CompletionRequest::new(
            Env::builder("oracle")
                .header("gold", "ok")
                .header("difficulty", 0.0)
                .header("nonce", nonce)
                .body("q")
                .build(),
        )
    }

    fn faulty(rates: FaultRates, seed: u64, clock: &SimClock) -> Arc<FaultyModel> {
        let meter = UsageMeter::new(PriceTable::standard());
        let plan = FaultPlan::new("t", seed, vec![TierPlan::with_rates("sim-test", rates)]);
        Arc::new(FaultyModel::new(sim(meter), Arc::new(plan), clock.clone()))
    }

    #[test]
    fn retries_through_transient_faults() {
        let clock = SimClock::new();
        let inner =
            faulty(FaultRates { rate_limited: 0.5, ..FaultRates::default() }, 11, &clock);
        let client = ResilientClient::with_defaults(inner, clock.clone());
        let mut ok = 0;
        for n in 0..50 {
            if client.complete(&prompt(n)).is_ok() {
                ok += 1;
            }
            // Requests arrive over time; give an opened breaker the
            // chance to cool down and probe.
            clock.advance(2_000);
        }
        // P(4 consecutive rate-limits) ≈ 6% per call; most calls succeed.
        assert!(ok >= 40, "ok={ok}");
        let stats = client.stats();
        assert!(stats.retries > 0, "some retries must have happened");
        assert!(stats.backoff_ms_total > 0);
    }

    #[test]
    fn per_call_retries_never_exceed_cap() {
        let clock = SimClock::new();
        let inner = faulty(FaultRates { rate_limited: 0.9, ..FaultRates::default() }, 5, &clock);
        let client = ResilientClient::with_defaults(inner, clock);
        for n in 0..30 {
            let (_, cs) = client.complete_within(&prompt(n));
            assert!(cs.retries <= client.policy().max_retries, "{cs:?}");
        }
    }

    #[test]
    fn breaker_opens_under_outage_and_rejects() {
        let clock = SimClock::new();
        let meter = UsageMeter::new(PriceTable::standard());
        let plan = FaultPlan::new(
            "outage",
            1,
            vec![TierPlan::quiet("sim-test").outage(Window::new(0, 60_000))],
        );
        let inner = Arc::new(FaultyModel::new(sim(meter), Arc::new(plan), clock.clone()));
        // No retries: the outage's retry-after hint would otherwise let
        // a retry sleep straight past the window.
        let client = ResilientClient::new(
            inner,
            RetryPolicy::none(),
            BreakerConfig { failure_threshold: 3, cooldown_ms: 10_000, jitter: 0.0, seed: 0 },
            clock.clone(),
        );
        let mut rejections = 0;
        for n in 0..10 {
            match client.complete_within(&prompt(n)).0 {
                Err(ResilError::BreakerOpen { .. }) => rejections += 1,
                Err(_) => {}
                Ok(_) => panic!("nothing can succeed during a total outage"),
            }
        }
        assert!(rejections > 0, "breaker must start rejecting");
        assert_eq!(client.breaker_state(), llmdm_resil::BreakerState::Open);
        assert_eq!(client.stats().breaker_rejections, rejections);
    }

    #[test]
    fn breaker_recovers_after_outage_via_probe() {
        let clock = SimClock::new();
        let meter = UsageMeter::new(PriceTable::standard());
        let plan = FaultPlan::new(
            "outage",
            1,
            vec![TierPlan::quiet("sim-test").outage(Window::new(0, 5_000))],
        );
        let inner = Arc::new(FaultyModel::new(sim(meter), Arc::new(plan), clock.clone()));
        let client = ResilientClient::new(
            inner,
            RetryPolicy::none(),
            BreakerConfig { failure_threshold: 2, cooldown_ms: 1_000, jitter: 0.0, seed: 0 },
            clock.clone(),
        );
        // Trip the breaker inside the outage.
        for n in 0..3 {
            let _ = client.complete(&prompt(n));
        }
        assert_eq!(client.breaker_state(), llmdm_resil::BreakerState::Open);
        // Past the outage and the cooldown, the probe succeeds and the
        // breaker re-closes.
        clock.advance(10_000);
        assert!(client.complete(&prompt(100)).is_ok());
        assert_eq!(client.breaker_state(), llmdm_resil::BreakerState::Closed);
    }

    #[test]
    fn deadline_bounds_the_retry_storm() {
        let clock = SimClock::new();
        let inner = faulty(FaultRates { rate_limited: 1.0, ..FaultRates::default() }, 9, &clock);
        let client = ResilientClient::new(
            Arc::clone(&inner) as Arc<dyn LanguageModel>,
            RetryPolicy::new(10, Backoff::new(100, 1_000, 0)),
            BreakerConfig { failure_threshold: 100, cooldown_ms: 1, jitter: 0.0, seed: 0 },
            clock.clone(),
        );
        let req = CompletionRequest { deadline: Deadline::after(&clock, 300), ..prompt(0) };
        let (res, _) = client.complete_within(&req);
        assert!(matches!(res, Err(ResilError::DeadlineExceeded { .. })), "{res:?}");
        assert!(clock.now_ms() <= 300, "must not overrun the deadline: {}", clock.now_ms());
    }

    #[test]
    fn permanent_errors_fail_fast_without_retries() {
        let clock = SimClock::new();
        let meter = UsageMeter::new(PriceTable::standard());
        let client = ResilientClient::with_defaults(sim(meter), clock);
        let (res, cs) = client.complete_within(&CompletionRequest::new("no envelope here"));
        assert!(matches!(res, Err(ResilError::Exhausted { attempts: 1, .. })));
        assert_eq!(cs.retries, 0);
    }

    #[test]
    fn error_mapping_back_to_model_vocabulary() {
        let e = resil_to_model_error(ResilError::BreakerOpen { retry_after_ms: 9 });
        assert_eq!(e, ModelError::transient(TransientKind::Unavailable, 9));
        let d: ResilError<ModelError> =
            ResilError::DeadlineExceeded { attempts: 1, last_error: None };
        assert_eq!(resil_to_model_error(d), ModelError::transient(TransientKind::Timeout, 0));
        let x = ResilError::Exhausted { attempts: 2, last_error: ModelError::EmptyInput };
        assert_eq!(resil_to_model_error(x), ModelError::EmptyInput);
    }
}
