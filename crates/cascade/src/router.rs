//! The cascade router — the procedure of the paper's Figure 6.
//!
//! A query visits the model sequence cheapest-first. After each tier's
//! answer, the decision model scores acceptability; below-threshold
//! answers escalate. The final tier's answer is always accepted. Full
//! per-tier traces are kept for the Fig. 6 reproduction binary.

use std::sync::Arc;

use llmdm_model::{CompletionRequest, LanguageModel};

use crate::decision::{DecisionModel, Features};

/// One tier's attempt at a query.
#[derive(Debug, Clone, PartialEq)]
pub struct TierAttempt {
    /// Model name.
    pub model: String,
    /// The answer it produced.
    pub answer: String,
    /// The decision model's acceptance score.
    pub decision_score: f64,
    /// Whether the answer was accepted (always true for the last tier).
    pub accepted: bool,
    /// Dollar cost of the attempt.
    pub cost: f64,
}

/// The cascade's final answer with its escalation trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeAnswer {
    /// The accepted answer text.
    pub text: String,
    /// Index of the tier that answered.
    pub tier_used: usize,
    /// Total dollar cost across attempted tiers.
    pub total_cost: f64,
    /// Total simulated latency across attempted tiers (escalation is
    /// sequential, so latencies add — the §II-E latency cost of chasing
    /// accuracy).
    pub total_latency: std::time::Duration,
    /// Per-tier trace.
    pub trace: Vec<TierAttempt>,
}

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
    /// tiers mix concrete types, e.g. the resilient cascade).
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

    /// Answer a prompt through the cascade.
    ///
    /// Observability: each call opens a `cascade.answer` span (fields
    /// `tier_used`, `tiers_tried`, `total_cost_usd`) with one
    /// `cascade.tier` child per attempted tier (fields `model`,
    /// `decision_score`, `accepted`), and bumps `cascade.queries`,
    /// `cascade.escalations` and `cascade.accept.<model>` counters plus
    /// the `cascade.tier_used` histogram.
    pub fn answer(&self, prompt: &str) -> Result<CascadeAnswer, llmdm_model::ModelError> {
        let mut span = llmdm_obs::span("cascade.answer");
        llmdm_obs::counter_add("cascade.queries", 1.0);
        let n = self.models.len();
        let mut trace = Vec::with_capacity(n);
        let mut total_cost = 0.0;
        let mut total_latency = std::time::Duration::ZERO;
        for (i, model) in self.models.iter().enumerate() {
            let mut tier_span = llmdm_obs::span("cascade.tier");
            let completion = model.complete(&CompletionRequest::new(prompt))?;
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
            });
            if accepted {
                if span.is_recording() {
                    span.field("tier_used", i);
                    span.field("tiers_tried", i + 1);
                    span.field("total_cost_usd", total_cost);
                    llmdm_obs::counter_add("cascade.escalations", i as f64);
                    llmdm_obs::counter_add(&format!("cascade.accept.{}", model.name()), 1.0);
                    llmdm_obs::observe("cascade.tier_used", i as f64);
                }
                return Ok(CascadeAnswer {
                    text: completion.text,
                    tier_used: i,
                    total_cost,
                    total_latency,
                    trace,
                });
            }
        }
        unreachable!("last tier always accepts")
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hotpot::{HotpotConfig, HotpotWorkload};
    use crate::solver::QaSolver;
    use llmdm_model::ModelZoo;

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
}
