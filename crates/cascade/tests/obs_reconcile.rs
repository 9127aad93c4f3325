//! Satellite check: the `UsageMeter` (dollar source of truth) and the
//! `llmdm-obs` counters it mirrors into must agree after a cascade run.
//!
//! This is a single-test integration binary on purpose: it enables the
//! process-global recorder, which would cross-contaminate any other
//! `#[test]` running in the same process.

use std::sync::Arc;

use llmdm_cascade::{CascadeRouter, DecisionModel, HotpotConfig, HotpotWorkload, QaSolver};
use llmdm_model::ModelZoo;

#[test]
fn meter_and_obs_counters_reconcile_after_cascade_run() {
    llmdm_obs::enable();
    llmdm_obs::reset();

    let zoo = ModelZoo::standard(11);
    zoo.register_solver(Arc::new(QaSolver));
    let workload = HotpotWorkload::generate(HotpotConfig { n: 30, seed: 11, ..Default::default() });
    let router = CascadeRouter::new(zoo.cascade_order(), DecisionModel::new(), 0.55);

    // The meter may have billed calls before this point (zoo setup); both
    // sides start from zero together.
    zoo.meter().reset();

    let mut answered = 0u64;
    for item in &workload.items {
        router.answer(&item.prompt()).expect("cascade answers");
        answered += 1;
    }
    assert_eq!(answered, 30);

    let meter = zoo.meter().snapshot();
    assert!(meter.total_calls() >= answered, "each query costs >= 1 model call");

    // Totals agree: calls exactly, tokens exactly, dollars to float noise.
    assert_eq!(llmdm_obs::counter_value("model.calls"), meter.total_calls() as f64);
    assert_eq!(llmdm_obs::counter_value("model.tokens"), meter.total_tokens() as f64);
    let d_obs = llmdm_obs::counter_value("model.cost_usd");
    let d_meter = meter.total_dollars();
    assert!(
        (d_obs - d_meter).abs() < 1e-9,
        "obs ${d_obs} vs meter ${d_meter}"
    );
    assert!(d_meter > 0.0, "run must have cost something");

    // Per-model call counts agree too.
    for (model, usage) in meter.iter() {
        assert_eq!(
            llmdm_obs::counter_value(&format!("model.calls.{model}")),
            usage.calls as f64,
            "per-model calls for {model}"
        );
        let per_obs = llmdm_obs::counter_value(&format!("model.cost_usd.{model}"));
        assert!((per_obs - usage.dollars()).abs() < 1e-9, "per-model dollars for {model}");
    }

    // The span side saw the same traffic: one model.complete span per call,
    // one cascade.answer span per query.
    let rep = llmdm_obs::snapshot();
    let model_spans = rep.spans.iter().filter(|s| s.name == "model.complete").count();
    assert_eq!(model_spans as u64, meter.total_calls());
    let cascade_spans = rep.spans.iter().filter(|s| s.name == "cascade.answer").count();
    assert_eq!(cascade_spans as u64, answered);
    assert_eq!(llmdm_obs::counter_value("cascade.queries"), answered as f64);

    llmdm_obs::disable();
}
