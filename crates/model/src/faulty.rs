//! [`FaultyModel`] — the [`LanguageModel`] decorator that injects the
//! faults described by an `llmdm-resil` [`FaultPlan`].
//!
//! The decorator sits between a caller and any inner model and, per
//! call, consults the plan's pure decision function with its own
//! per-instance call index and the shared [`SimClock`]. Billing follows
//! what a real provider would charge:
//!
//! | fault | inner executed? | billed? | surfaced as |
//! |---|---|---|---|
//! | `RateLimited` | no | no | `Transient(RateLimited)` + hint |
//! | `Outage` | no | no | `Transient(Unavailable)` + window hint |
//! | `MalformedPayload` | no | no | `MalformedPayload` (retryable) |
//! | `Timeout` | **yes** | **yes** | `Transient(Timeout)` |
//! | `TruncatedOutput` | **yes** | **yes (full)** | *successful* truncated `Completion` |
//!
//! Because timeouts and truncations bill the inner call while the other
//! kinds never reach it, the decorator's [`FaultyModel::executed_cost`]
//! equals exactly what the inner model's `UsageMeter` accumulated — the
//! reconciliation invariant `examples/chaos_pipeline.rs` asserts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use llmdm_resil::{FaultKind, FaultPlan, SimClock};

use crate::error::{ModelError, TransientKind};
use crate::sim::{Completion, CompletionRequest, LanguageModel};

/// Per-kind injection counters (indexed by `FaultKind::all()` order).
#[derive(Debug, Default)]
struct FaultCounters {
    counts: [AtomicU64; 5],
}

impl FaultCounters {
    fn bump(&self, kind: FaultKind) {
        let idx = FaultKind::all().iter().position(|k| *k == kind).expect("kind in all()");
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
    }

    fn get(&self, kind: FaultKind) -> u64 {
        let idx = FaultKind::all().iter().position(|k| *k == kind).expect("kind in all()");
        self.counts[idx].load(Ordering::Relaxed)
    }
}

/// A fault-injecting [`LanguageModel`] decorator.
///
/// Deterministic: the injected fault for call `i` depends only on
/// `(plan, inner.name(), i, clock at call time)`, so identical call
/// sequences against identical plans reproduce identical fault
/// sequences.
pub struct FaultyModel {
    inner: Arc<dyn LanguageModel>,
    plan: Arc<FaultPlan>,
    clock: SimClock,
    call_index: AtomicU64,
    executed_cost: Mutex<f64>,
    faults: FaultCounters,
}

impl std::fmt::Debug for FaultyModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyModel")
            .field("inner", &self.inner.name())
            .field("plan", &self.plan.name)
            .field("calls", &self.call_index.load(Ordering::Relaxed))
            .finish()
    }
}

impl FaultyModel {
    /// Wrap `inner` with the fault `plan`, advancing time on `clock`.
    pub fn new(inner: Arc<dyn LanguageModel>, plan: Arc<FaultPlan>, clock: SimClock) -> Self {
        FaultyModel {
            inner,
            plan,
            clock,
            call_index: AtomicU64::new(0),
            executed_cost: Mutex::new(0.0),
            faults: FaultCounters::default(),
        }
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The plan driving the injector.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Total calls routed through this decorator (faulted or not).
    pub fn calls(&self) -> u64 {
        self.call_index.load(Ordering::Relaxed)
    }

    /// How many times `kind` was injected.
    pub fn fault_count(&self, kind: FaultKind) -> u64 {
        self.faults.get(kind)
    }

    /// The dollar cost of inner calls that actually *executed* (clean
    /// calls, timeouts, truncations). By construction this equals what
    /// the inner model billed to its `UsageMeter` through this
    /// decorator — the chaos pipeline's reconciliation invariant.
    pub fn executed_cost(&self) -> f64 {
        *self.executed_cost.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn note_executed(&self, cost: f64) {
        *self.executed_cost.lock().unwrap_or_else(|e| e.into_inner()) += cost;
    }

    fn record_fault(&self, kind: FaultKind) {
        self.faults.bump(kind);
        llmdm_obs::counter_add(&format!("resil.faults.{}", kind.label()), 1.0);
    }

    /// Truncate `text` to its first half (at a char boundary), modeling
    /// a response cut off mid-stream.
    fn truncate_text(text: &str) -> String {
        let cut = text.len() / 2;
        let mut end = cut;
        while end > 0 && !text.is_char_boundary(end) {
            end -= 1;
        }
        text[..end].to_string()
    }
}

impl LanguageModel for FaultyModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }

    fn complete(&self, req: &CompletionRequest) -> Result<Completion, ModelError> {
        // No-op fast path: one branch, no hashing, no index bump — this
        // is what the `resil_overhead` bench pins below 5%.
        if self.plan.is_noop() {
            let c = self.inner.complete(req)?;
            self.clock.advance(c.latency.as_millis() as u64);
            self.note_executed(c.cost);
            return Ok(c);
        }

        let idx = self.call_index.fetch_add(1, Ordering::Relaxed);
        let now = self.clock.now_ms();
        let tier = self.inner.name().to_string();
        match self.plan.decide(&tier, idx, now) {
            None => {
                let c = self.inner.complete(req)?;
                self.clock.advance(c.latency.as_millis() as u64);
                self.note_executed(c.cost);
                Ok(c)
            }
            Some(FaultKind::RateLimited) => {
                self.record_fault(FaultKind::RateLimited);
                let hint = self.plan.tier(&tier).map(|t| t.retry_after_ms).unwrap_or(0);
                Err(ModelError::transient(TransientKind::RateLimited, hint))
            }
            Some(FaultKind::Outage) => {
                self.record_fault(FaultKind::Outage);
                // Hint at when the covering outage window ends.
                let hint = self
                    .plan
                    .tier(&tier)
                    .and_then(|t| t.outages.iter().find(|w| w.contains(now)))
                    .map(|w| w.end_ms.saturating_sub(now))
                    .unwrap_or(0);
                Err(ModelError::transient(TransientKind::Unavailable, hint))
            }
            Some(FaultKind::MalformedPayload) => {
                self.record_fault(FaultKind::MalformedPayload);
                Err(ModelError::MalformedPayload {
                    task: "fault_injection".into(),
                    reason: format!("injected malformed payload (call {idx})"),
                })
            }
            Some(FaultKind::Timeout) => {
                // The inner call executes — and bills — but the caller
                // never sees the completion.
                let burned = self.plan.tier(&tier).map(|t| t.timeout_ms).unwrap_or(0);
                match self.inner.complete(req) {
                    Ok(c) => {
                        self.note_executed(c.cost);
                        let latency = c.latency.as_millis() as u64;
                        self.clock.advance(latency.max(burned));
                        self.record_fault(FaultKind::Timeout);
                        Err(ModelError::transient(TransientKind::Timeout, 0))
                    }
                    // The request was invalid anyway; surface that.
                    Err(e) => Err(e),
                }
            }
            Some(FaultKind::TruncatedOutput) => {
                match self.inner.complete(req) {
                    Ok(mut c) => {
                        self.note_executed(c.cost);
                        self.clock.advance(c.latency.as_millis() as u64);
                        self.record_fault(FaultKind::TruncatedOutput);
                        c.text = Self::truncate_text(&c.text);
                        // Confidence drops: a cut-off answer reads worse.
                        c.confidence = (c.confidence * 0.5).max(0.01);
                        Ok(c)
                    }
                    Err(e) => Err(e),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::CapabilityCurve;
    use crate::latency::LatencyModel;
    use crate::pricing::PriceTable;
    use crate::sim::{SimLlm, SimLlmConfig};
    use crate::solver::PromptEnvelope as Env;
    use crate::usage::UsageMeter;
    use llmdm_resil::{FaultRates, TierPlan, Window};

    fn total_faults(f: &FaultyModel) -> u64 {
        FaultKind::all().iter().map(|k| f.fault_count(*k)).sum()
    }

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
                .header("gold", "answer forty two")
                .header("difficulty", 0.0)
                .header("nonce", nonce)
                .body("q")
                .build(),
        )
    }

    #[test]
    fn noop_plan_is_transparent_and_tracks_cost() {
        let meter = UsageMeter::new(PriceTable::standard());
        let inner = sim(meter.clone());
        let f = FaultyModel::new(inner, Arc::new(FaultPlan::none()), SimClock::new());
        for n in 0..10 {
            let c = f.complete(&prompt(n)).unwrap();
            assert_eq!(c.text, "answer forty two");
        }
        assert_eq!(total_faults(&f), 0);
        let billed = meter.snapshot().total_dollars();
        assert!((f.executed_cost() - billed).abs() < 1e-12, "{} vs {billed}", f.executed_cost());
        assert!(f.clock().now_ms() > 0, "latency must advance the clock");
    }

    #[test]
    fn outage_window_fails_as_unavailable_with_hint() {
        let meter = UsageMeter::new(PriceTable::standard());
        let inner = sim(meter.clone());
        let plan = FaultPlan::new(
            "outage",
            1,
            vec![TierPlan::quiet("sim-test").outage(Window::new(0, 5_000))],
        );
        let clock = SimClock::new();
        let f = FaultyModel::new(inner, Arc::new(plan), clock.clone());
        match f.complete(&prompt(0)) {
            Err(ModelError::Transient { kind: TransientKind::Unavailable, retry_after_ms }) => {
                assert_eq!(retry_after_ms, 5_000);
            }
            other => panic!("expected unavailable, got {other:?}"),
        }
        assert_eq!(meter.snapshot().total_calls(), 0, "outage calls must not bill");
        // After the window, calls flow again.
        clock.advance(5_000);
        assert!(f.complete(&prompt(1)).is_ok());
    }

    #[test]
    fn timeout_bills_but_truncation_still_answers() {
        let meter = UsageMeter::new(PriceTable::standard());
        let inner = sim(meter.clone());
        // 100% timeout.
        let plan = FaultPlan::new(
            "t",
            2,
            vec![TierPlan::with_rates(
                "sim-test",
                FaultRates { timeout: 1.0, ..FaultRates::default() },
            )
            .timeout_latency(30_000)],
        );
        let f = FaultyModel::new(inner, Arc::new(plan), SimClock::new());
        match f.complete(&prompt(0)) {
            Err(ModelError::Transient { kind: TransientKind::Timeout, .. }) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(meter.snapshot().total_calls(), 1, "timeouts bill the executed call");
        assert!((f.executed_cost() - meter.snapshot().total_dollars()).abs() < 1e-12);
        assert!(f.clock().now_ms() >= 30_000, "timeout burns its latency");

        // 100% truncation on a fresh decorator.
        let meter2 = UsageMeter::new(PriceTable::standard());
        let inner2 = sim(meter2.clone());
        let plan2 = FaultPlan::new(
            "tr",
            2,
            vec![TierPlan::with_rates(
                "sim-test",
                FaultRates { truncated: 1.0, ..FaultRates::default() },
            )],
        );
        let f2 = FaultyModel::new(inner2, Arc::new(plan2), SimClock::new());
        let c = f2.complete(&prompt(0)).unwrap();
        assert!(c.text.len() < "answer forty two".len(), "must be truncated: {:?}", c.text);
        assert_eq!(meter2.snapshot().total_calls(), 1, "truncations bill in full");
    }

    #[test]
    fn rate_limit_and_malformed_do_not_bill() {
        let meter = UsageMeter::new(PriceTable::standard());
        let inner = sim(meter.clone());
        let plan = FaultPlan::new(
            "rl",
            3,
            vec![TierPlan::with_rates(
                "sim-test",
                FaultRates { rate_limited: 0.5, malformed: 0.5, ..FaultRates::default() },
            )
            .retry_hint(250)],
        );
        let f = FaultyModel::new(inner, Arc::new(plan), SimClock::new());
        let mut rl = 0;
        let mut mal = 0;
        for n in 0..50 {
            match f.complete(&prompt(n)) {
                Err(ModelError::Transient { kind: TransientKind::RateLimited, retry_after_ms }) => {
                    assert_eq!(retry_after_ms, 250);
                    rl += 1;
                }
                Err(ModelError::MalformedPayload { task, .. }) => {
                    assert_eq!(task, "fault_injection");
                    mal += 1;
                }
                other => panic!("all calls should fault: {other:?}"),
            }
        }
        assert!(rl > 10 && mal > 10, "rl={rl} mal={mal}");
        assert_eq!(meter.snapshot().total_calls(), 0);
        assert_eq!(f.executed_cost(), 0.0);
        assert_eq!(total_faults(&f), 50);
    }

    #[test]
    fn fault_sequence_is_deterministic() {
        let run = || {
            let meter = UsageMeter::new(PriceTable::standard());
            let inner = sim(meter);
            let plan = FaultPlan::new(
                "lossy",
                42,
                vec![TierPlan::with_rates(
                    "sim-test",
                    FaultRates {
                        rate_limited: 0.2,
                        timeout: 0.1,
                        truncated: 0.1,
                        malformed: 0.1,
                    },
                )],
            );
            let f = FaultyModel::new(inner, Arc::new(plan), SimClock::new());
            (0..100)
                .map(|n| match f.complete(&prompt(n)) {
                    Ok(c) => format!("ok:{}", c.text),
                    Err(e) => format!("err:{e}"),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn truncate_respects_char_boundaries() {
        let s = "héllo wörld ünïcode";
        let t = FaultyModel::truncate_text(s);
        assert!(t.len() < s.len());
        assert!(s.starts_with(t.as_str()));
    }
}
