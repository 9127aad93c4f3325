//! The cascade router — the procedure of the paper's Figure 6.
//!
//! A query visits the model sequence cheapest-first. After each tier's
//! answer, the decision model scores acceptability; below-threshold
//! answers escalate. The final tier's answer is always accepted. Full
//! per-tier traces are kept for the Fig. 6 reproduction binary.
//!
//! The same walk survives failing tiers (§III-B graceful degradation):
//! a tier that errors is recorded in the trace and the walk falls back
//! to the next one, and if no tier accepts, the best-scoring rejected
//! answer is served marked `degraded`. [`CascadeRouter::answer_within`]
//! bounds the walk by a latency budget on the simulated clock and gives
//! tier `i` of `n` the deadline `Deadline::slice(clock, i, n)` on its
//! request, so a cheap-tier retry storm cannot starve the tiers after it.

use std::sync::Arc;
use std::time::Duration;

use llmdm_model::{CompletionRequest, LanguageModel};
use llmdm_resil::{Deadline, SimClock};

use crate::decision::{DecisionModel, Features};

/// One tier's attempt at a query.
#[derive(Debug, Clone, PartialEq)]
pub struct TierAttempt {
    /// Model name.
    pub model: String,
    /// The answer it produced (empty if the tier failed).
    pub answer: String,
    /// The decision model's acceptance score (0 if the tier failed).
    pub decision_score: f64,
    /// Whether the answer was accepted (always true for the last tier
    /// that answers).
    pub accepted: bool,
    /// Dollar cost of the attempt.
    pub cost: f64,
    /// The tier's error, if it failed instead of answering.
    pub error: Option<String>,
}

/// The cascade's final answer with its escalation trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeAnswer {
    /// The served answer text.
    pub text: String,
    /// Index of the tier that answered.
    pub tier_used: usize,
    /// Total dollar cost across attempted tiers.
    pub total_cost: f64,
    /// Total simulated latency across attempted tiers (escalation is
    /// sequential, so latencies add — the §II-E latency cost of chasing
    /// accuracy).
    pub total_latency: Duration,
    /// Tiers that failed and were skipped.
    pub fallbacks: u32,
    /// True when the served answer is best-effort: some tier failed on
    /// the way here, or no tier accepted and the best rejected answer
    /// was served.
    pub degraded: bool,
    /// Per-tier trace.
    pub trace: Vec<TierAttempt>,
}

/// Every tier failed, so no answer, not even a rejected one, existed.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeExhausted {
    /// `(model, error)` for every failed tier.
    pub failures: Vec<(String, String)>,
}

impl std::fmt::Display for CascadeExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "all {} cascade tiers failed:", self.failures.len())?;
        for (model, err) in &self.failures {
            write!(f, " [{model}: {err}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for CascadeExhausted {}

/// A cascade over an ordered model sequence.
///
/// The router is generic at construction but stores trait objects, so
/// any [`LanguageModel`] — a bare `SimLlm`, a fault-injecting
/// `FaultyModel`, or a retry-wrapped `ResilientClient` — can fill a
/// tier.
pub struct CascadeRouter {
    models: Vec<Arc<dyn LanguageModel>>,
    decision: DecisionModel,
    threshold: f64,
}

impl std::fmt::Debug for CascadeRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CascadeRouter")
            .field("tiers", &self.models.iter().map(|m| m.name().to_string()).collect::<Vec<_>>())
            .field("threshold", &self.threshold)
            .finish()
    }
}

impl CascadeRouter {
    /// Build a router over `models` (cheapest first) with an acceptance
    /// `threshold` on the decision model's score. Accepts any concrete
    /// model type and coerces to trait objects internally.
    pub fn new<M: LanguageModel + 'static>(
        models: Vec<Arc<M>>,
        decision: DecisionModel,
        threshold: f64,
    ) -> Self {
        Self::new_dyn(
            models.into_iter().map(|m| m as Arc<dyn LanguageModel>).collect(),
            decision,
            threshold,
        )
    }

    /// Build a router over already-erased trait objects (used when
    /// tiers are built as decorator stacks, e.g. fault injection under
    /// retries).
    pub fn new_dyn(
        models: Vec<Arc<dyn LanguageModel>>,
        decision: DecisionModel,
        threshold: f64,
    ) -> Self {
        assert!(!models.is_empty(), "cascade needs at least one model");
        CascadeRouter { models, decision, threshold }
    }

    /// The tier models, cheapest first.
    pub fn models(&self) -> &[Arc<dyn LanguageModel>] {
        &self.models
    }

    /// The acceptance threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The decision model.
    pub fn decision(&self) -> &DecisionModel {
        &self.decision
    }

    /// Answer a prompt through the cascade, with no deadline.
    ///
    /// Observability: each call opens a `cascade.answer` span (fields
    /// `tier_used`, `tiers_tried`, `total_cost_usd`, plus `fallbacks`
    /// and `degraded` on a degraded answer) with one `cascade.tier`
    /// child per attempted tier (fields `model`, `decision_score`,
    /// `accepted`, or `error` for a failed tier), and bumps
    /// `cascade.queries`, `cascade.escalations` and
    /// `cascade.accept.<model>` counters plus the `cascade.tier_used`
    /// histogram. A failed tier bumps `resil.fallback_tier`, a degraded
    /// answer `resil.degraded_answers`.
    pub fn answer(&self, prompt: &str) -> Result<CascadeAnswer, CascadeExhausted> {
        self.walk(prompt, Deadline::unbounded(), None)
    }

    /// Answer under a total latency budget of `budget_ms` milliseconds
    /// on `clock`. Tier `i` of `n` gets the sub-deadline
    /// `remaining / (n - i)` (`Deadline::slice`): unconsumed budget rolls
    /// forward, but no tier may starve its successors.
    pub fn answer_within(
        &self,
        prompt: &str,
        budget_ms: u64,
        clock: &SimClock,
    ) -> Result<CascadeAnswer, CascadeExhausted> {
        self.walk(prompt, Deadline::after(clock, budget_ms), Some(clock))
    }

    /// The one cascade walk. `clock` is `None` only for an unbounded
    /// deadline, which needs no slicing.
    fn walk(
        &self,
        prompt: &str,
        deadline: Deadline,
        clock: Option<&SimClock>,
    ) -> Result<CascadeAnswer, CascadeExhausted> {
        let mut span = llmdm_obs::span("cascade.answer");
        llmdm_obs::counter_add("cascade.queries", 1.0);
        let n = self.models.len();
        let mut trace = Vec::with_capacity(n);
        let mut total_cost = 0.0;
        let mut total_latency = Duration::ZERO;
        let mut fallbacks = 0u32;
        // The best-scoring rejected answer so far: (tier, score).
        let mut best: Option<(usize, f64)> = None;
        for (i, model) in self.models.iter().enumerate() {
            let mut tier_span = llmdm_obs::span("cascade.tier");
            let req = CompletionRequest {
                deadline: clock.map_or(deadline, |c| deadline.slice(c, i, n)),
                ..CompletionRequest::new(prompt)
            };
            let completion = match model.complete(&req) {
                Ok(c) => c,
                Err(e) => {
                    let error = e.to_string();
                    fallbacks += 1;
                    llmdm_obs::counter_add("resil.fallback_tier", 1.0);
                    if tier_span.is_recording() {
                        tier_span.field("model", model.name());
                        tier_span.field("tier", i);
                        tier_span.field("error", error.as_str());
                    }
                    trace.push(TierAttempt {
                        model: model.name().to_string(),
                        answer: String::new(),
                        decision_score: 0.0,
                        accepted: false,
                        cost: 0.0,
                        error: Some(error),
                    });
                    continue;
                }
            };
            total_cost += completion.cost;
            total_latency += completion.latency;
            let score = self.decision.predict(&Features::extract(&completion, i, n));
            let last = i + 1 == n;
            let accepted = last || score >= self.threshold;
            if tier_span.is_recording() {
                tier_span.field("model", model.name());
                tier_span.field("tier", i);
                tier_span.field("decision_score", score);
                tier_span.field("accepted", accepted);
            }
            drop(tier_span);
            trace.push(TierAttempt {
                model: model.name().to_string(),
                answer: completion.text.clone(),
                decision_score: score,
                accepted,
                cost: completion.cost,
                error: None,
            });
            if accepted {
                let degraded = fallbacks > 0;
                if span.is_recording() {
                    span.field("tier_used", i);
                    span.field("tiers_tried", i + 1);
                    span.field("total_cost_usd", total_cost);
                    llmdm_obs::counter_add("cascade.escalations", i as f64);
                    llmdm_obs::counter_add(&format!("cascade.accept.{}", model.name()), 1.0);
                    llmdm_obs::observe("cascade.tier_used", i as f64);
                }
                if degraded {
                    note_degraded(&mut span, fallbacks, "fallback");
                }
                return Ok(CascadeAnswer {
                    text: completion.text,
                    tier_used: i,
                    total_cost,
                    total_latency,
                    fallbacks,
                    degraded,
                    trace,
                });
            }
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((i, score));
            }
        }

        // The last tier failed, so nothing accepted: serve the best
        // rejected answer, degraded.
        if let Some((tier_used, _)) = best {
            if span.is_recording() {
                span.field("tier_used", tier_used);
                span.field("tiers_tried", n);
                span.field("total_cost_usd", total_cost);
            }
            note_degraded(&mut span, fallbacks, "best_effort");
            return Ok(CascadeAnswer {
                text: trace[tier_used].answer.clone(),
                tier_used,
                total_cost,
                total_latency,
                fallbacks,
                degraded: true,
                trace,
            });
        }
        Err(CascadeExhausted {
            failures: trace.into_iter().filter_map(|t| Some((t.model, t.error?))).collect(),
        })
    }

    /// Collect labelled decision-model training data by running every tier
    /// on a calibration set with known gold answers.
    pub fn collect_training_data<M: LanguageModel>(
        models: &[Arc<M>],
        calibration: &[(String, String)], // (prompt, gold)
    ) -> Vec<(Features, bool)> {
        let n = models.len();
        let mut data = Vec::new();
        for (prompt, gold) in calibration {
            for (i, model) in models.iter().enumerate() {
                if let Ok(c) = model.complete(&CompletionRequest::new(prompt.clone())) {
                    let correct = c.text.trim() == gold.trim();
                    data.push((Features::extract(&c, i, n), correct));
                }
            }
        }
        data
    }
}

/// Count a degraded answer and say why on the query's span.
fn note_degraded(span: &mut llmdm_obs::Span<'_>, fallbacks: u32, why: &str) {
    llmdm_obs::counter_add("resil.degraded_answers", 1.0);
    if span.is_recording() {
        span.field("fallbacks", fallbacks);
        span.field("degraded", why);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hotpot::{HotpotConfig, HotpotWorkload};
    use crate::solver::QaSolver;
    use llmdm_model::{ModelStack, ModelZoo};
    use llmdm_resil::{FaultPlan, FaultRates, TierPlan, Window};

    fn setup(seed: u64) -> (ModelZoo, HotpotWorkload) {
        let zoo = ModelZoo::standard(seed);
        zoo.register_solver(Arc::new(QaSolver));
        let w = HotpotWorkload::generate(HotpotConfig { n: 40, seed, ..Default::default() });
        (zoo, w)
    }

    fn trained_router(zoo: &ModelZoo, seed: u64) -> CascadeRouter {
        let train =
            HotpotWorkload::generate(HotpotConfig { n: 160, seed: seed + 1000, ..Default::default() });
        let calibration: Vec<(String, String)> =
            train.items.iter().map(|i| (i.prompt(), i.gold.clone())).collect();
        let models = zoo.cascade_order();
        let data = CascadeRouter::collect_training_data(&models, &calibration);
        zoo.meter().reset(); // calibration is free in the experiment
        let mut dm = DecisionModel::new();
        dm.train(&data, 400, 0.8);
        CascadeRouter::new(models, dm, 0.6)
    }

    #[test]
    fn cascade_matches_large_accuracy_at_lower_cost() {
        let (zoo, w) = setup(3);
        let router = trained_router(&zoo, 3);

        // Large tier alone.
        zoo.meter().reset();
        let large = zoo.large();
        let mut large_ok = 0;
        for item in &w.items {
            let c = large.complete(&CompletionRequest::new(item.prompt())).unwrap();
            if c.text.trim() == item.gold {
                large_ok += 1;
            }
        }
        let large_cost = zoo.meter().snapshot().total_dollars();

        // Cascade.
        zoo.meter().reset();
        let mut cascade_ok = 0;
        let mut cascade_cost = 0.0;
        for item in &w.items {
            let a = router.answer(&item.prompt()).unwrap();
            cascade_cost += a.total_cost;
            if a.text.trim() == item.gold {
                cascade_ok += 1;
            }
        }

        let large_acc = large_ok as f64 / w.items.len() as f64;
        let casc_acc = cascade_ok as f64 / w.items.len() as f64;
        assert!(
            casc_acc >= large_acc - 0.08,
            "cascade {casc_acc} vs large {large_acc}"
        );
        assert!(
            cascade_cost < large_cost * 0.7,
            "cascade ${cascade_cost:.4} vs large ${large_cost:.4}"
        );
    }

    #[test]
    fn trace_records_escalations() {
        let (zoo, w) = setup(5);
        let router = trained_router(&zoo, 5);
        let mut saw_escalation = false;
        let mut saw_cheap_accept = false;
        for item in &w.items {
            let a = router.answer(&item.prompt()).unwrap();
            assert_eq!(a.trace.len(), a.tier_used + 1);
            assert!(a.trace.last().unwrap().accepted);
            if a.tier_used > 0 {
                saw_escalation = true;
                assert!(!a.trace[0].accepted);
            }
            if a.tier_used < 2 {
                saw_cheap_accept = true;
            }
        }
        assert!(saw_escalation, "no query ever escalated");
        assert!(saw_cheap_accept, "no query accepted below the top tier");
    }

    #[test]
    fn escalation_accumulates_latency() {
        let (zoo, w) = setup(9);
        let models = zoo.cascade_order();
        // Force a full walk: everything escalates to the top tier.
        let all_tiers = CascadeRouter::new(models.clone(), DecisionModel::new(), 1.1);
        let first_only = CascadeRouter::new(models, DecisionModel::new(), 0.0);
        let prompt = w.items[0].prompt();
        let slow = all_tiers.answer(&prompt).unwrap();
        let fast = first_only.answer(&prompt).unwrap();
        assert!(slow.total_latency > fast.total_latency);
        assert!(slow.total_latency > std::time::Duration::ZERO);
    }

    #[test]
    fn zero_threshold_always_uses_first_tier() {
        let (zoo, w) = setup(7);
        let models = zoo.cascade_order();
        let router = CascadeRouter::new(models, DecisionModel::new(), 0.0);
        let a = router.answer(&w.items[0].prompt()).unwrap();
        assert_eq!(a.tier_used, 0);
    }

    #[test]
    fn max_threshold_always_escalates_to_top() {
        let (zoo, w) = setup(7);
        let models = zoo.cascade_order();
        let router = CascadeRouter::new(models, DecisionModel::new(), 1.1);
        let a = router.answer(&w.items[0].prompt()).unwrap();
        assert_eq!(a.tier_used, 2);
        assert_eq!(a.trace.len(), 3);
    }

    // ---- Failing tiers: fallback, best-effort serving, sliced budget ----

    fn oracle(gold: &str, nonce: u64) -> String {
        llmdm_model::PromptEnvelope::builder("oracle")
            .header("gold", gold)
            .header("difficulty", 0.1)
            .header("nonce", nonce)
            .body("q")
            .build()
    }

    /// A router whose tiers are the standard zoo behind `plan`'s fault
    /// injector and the default retry client, all on `clock`.
    fn faulty_router(plan: FaultPlan, clock: &SimClock, threshold: f64) -> CascadeRouter {
        let zoo = ModelZoo::standard(3);
        let plan = Arc::new(plan);
        let models = zoo
            .cascade_order()
            .into_iter()
            .map(|m| {
                ModelStack::over(m as Arc<dyn LanguageModel>)
                    .on_clock(clock.clone())
                    .with_faults(plan.clone())
                    .with_default_retry()
                    .build_arc()
            })
            .collect();
        CascadeRouter::new_dyn(models, DecisionModel::new(), threshold)
    }

    fn tier_names() -> Vec<String> {
        ModelZoo::standard(3).cascade_order().iter().map(|m| m.name().to_string()).collect()
    }

    fn down(tier: &str) -> TierPlan {
        TierPlan::quiet(tier).outage(Window::new(0, u64::MAX))
    }

    #[test]
    fn quiet_plan_behaves_like_a_plain_cascade() {
        let clock = SimClock::new();
        let router = faulty_router(FaultPlan::none(), &clock, 0.0);
        let a = router.answer_within(&oracle("paris", 0), 60_000, &clock).unwrap();
        assert_eq!(a.tier_used, 0);
        assert_eq!(a.fallbacks, 0);
        assert!(!a.degraded);
        assert!(!a.text.is_empty());
    }

    #[test]
    fn tier_zero_outage_falls_back_and_degrades() {
        let clock = SimClock::new();
        let plan = FaultPlan::new("t0-outage", 1, vec![down(&tier_names()[0])]);
        let router = faulty_router(plan, &clock, 0.0);
        let a = router.answer_within(&oracle("paris", 0), 600_000, &clock).unwrap();
        assert_eq!(a.tier_used, 1, "must fall back to the next tier");
        assert_eq!(a.fallbacks, 1);
        assert!(a.degraded);
        assert!(a.trace[0].error.is_some());
    }

    #[test]
    fn total_outage_exhausts_the_cascade() {
        let clock = SimClock::new();
        let plan = FaultPlan::new("all-out", 2, tier_names().iter().map(|t| down(t)).collect());
        let router = faulty_router(plan, &clock, 0.0);
        let err = router.answer_within(&oracle("paris", 0), 600_000, &clock).unwrap_err();
        assert_eq!(err.failures.len(), 3);
        assert!(err.to_string().contains("all 3 cascade tiers failed"));
    }

    #[test]
    fn rejected_answer_is_served_best_effort_when_upper_tiers_die() {
        let clock = SimClock::new();
        let names = tier_names();
        // Tiers 1 and 2 are down; tier 0 answers but the threshold is
        // unreachable, so its rejected answer must be served degraded.
        let plan = FaultPlan::new("top-out", 4, vec![down(&names[1]), down(&names[2])]);
        let router = faulty_router(plan, &clock, 1.1);
        let a = router.answer_within(&oracle("paris", 0), 600_000, &clock).unwrap();
        assert!(a.degraded);
        assert_eq!(a.tier_used, 0);
        assert_eq!(a.fallbacks, 2);
        assert!(!a.text.is_empty(), "a best-effort answer must still carry text");
    }

    #[test]
    fn budget_is_sliced_so_early_storms_leave_budget_for_later_tiers() {
        let clock = SimClock::new();
        // Tier 0 rate-limits every call with a huge retry-after hint,
        // so its retries would love to eat the entire budget.
        let plan = FaultPlan::new(
            "storm",
            5,
            vec![TierPlan::with_rates(
                &tier_names()[0],
                FaultRates { rate_limited: 1.0, ..Default::default() },
            )
            .retry_hint(50_000)],
        );
        let router = faulty_router(plan, &clock, 0.0);
        let budget = 90_000u64;
        let a = router.answer_within(&oracle("paris", 0), budget, &clock).unwrap();
        // Tier 0's slice is budget/3; its 50s retry hint cannot fit, so
        // it fails fast and tier 1 still has budget to answer.
        assert_eq!(a.tier_used, 1);
        assert!(a.degraded);
        assert!(
            clock.now_ms() <= budget,
            "walk must respect the total budget: {}ms",
            clock.now_ms()
        );
    }
}
