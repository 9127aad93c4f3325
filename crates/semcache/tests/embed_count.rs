//! At most one embedding per prompt, and none for a verbatim repeat: the
//! counts the hot-path claim rests on (DESIGN.md §17), read from the
//! `model.embed` counter that `Embedder::embed` bumps.
//!
//! One `#[test]` in a binary of its own on purpose: the obs recorder is
//! process-global, and a second test thread's embeddings would land in
//! this one's deltas.

use std::sync::Arc;

use llmdm_model::prelude::*;
use llmdm_model::{FaultyModel, ModelStack, PromptEnvelope};
use llmdm_resil::{FaultPlan, FaultRates, SimClock, TierPlan};
use llmdm_semcache::{
    shared_cache, AccessPredictor, CacheConfig, CacheStackExt, CachedModel, EntryKind, SharedCache,
};

const Q_2014: &str = "What are the names of stadiums that had concerts in 2014?";
const Q_2016: &str = "What are the names of stadiums that had concerts in 2016?";
const Q_OTHER: &str = "median household income by postal region";

fn oracle_prompt(q: &str) -> String {
    PromptEnvelope::builder("oracle")
        .header("gold", "the-answer")
        .header("difficulty", "0.0")
        .header("examples", 2)
        .body(q)
        .build()
}

/// Embeddings made while `f` ran.
fn embeds(f: impl FnOnce()) -> f64 {
    let before = llmdm_obs::counter_value("model.embed");
    f();
    llmdm_obs::counter_value("model.embed") - before
}

/// `sim-medium` behind a plan that rate-limits every call.
fn down_model(zoo: &ModelZoo) -> Arc<dyn LanguageModel> {
    let plan = Arc::new(FaultPlan::new(
        "total-outage",
        7,
        vec![TierPlan::with_rates(
            "sim-medium",
            FaultRates { rate_limited: 1.0, ..FaultRates::none() },
        )],
    ));
    Arc::new(FaultyModel::new(zoo.medium(), plan, SimClock::new()))
}

#[test]
fn a_verbatim_repeat_embeds_nothing_and_any_other_prompt_once() {
    llmdm_obs::enable();
    llmdm_obs::reset();
    let zoo = ModelZoo::standard(5);
    let stats = |cache: &SharedCache| llmdm_rt::lock_recover(cache).stats();

    // The stack layer: miss, reuse hit, augment hit.
    let cache = shared_cache(CacheConfig { reuse_threshold: 0.995, ..Default::default() });
    let model = ModelStack::new(&zoo).with_cache(cache.clone()).build_arc();
    let complete = |q: &str| {
        let req = CompletionRequest::new(oracle_prompt(q));
        embeds(|| drop(model.complete(&req).expect("healthy model")))
    };
    assert_eq!(complete(Q_2014), 1.0, "CachedModel miss");
    assert_eq!(complete(Q_2014), 0.0, "CachedModel verbatim reuse hit");
    assert_eq!(complete(Q_2016), 1.0, "CachedModel augment hit");
    let s = stats(&cache);
    assert_eq!((s.misses, s.reuse_hits, s.augment_hits), (1, 1, 1));

    // The keyed client: miss, reuse hit, augment hit.
    let ask = |llm: &CachedModel, q: &str| {
        embeds(|| drop(llm.ask(q, &CompletionRequest::new(oracle_prompt(q)))))
    };
    let cache = shared_cache(CacheConfig::default());
    let llm = CachedModel::new(zoo.medium(), cache.clone());
    assert_eq!(ask(&llm, Q_2014), 1.0, "keyed miss");
    assert_eq!(ask(&llm, Q_2014), 0.0, "keyed verbatim reuse hit");
    assert_eq!(ask(&llm, Q_2016), 1.0, "keyed augment hit");
    let s = stats(&cache);
    assert_eq!((s.misses, s.reuse_hits, s.augment_hits), (1, 1, 1));

    // A text asked again after its entry was evicted is a miss again,
    // and embedded again.
    let cache = shared_cache(CacheConfig { capacity: 1, ..Default::default() });
    let small = CachedModel::new(zoo.medium(), cache.clone());
    assert_eq!(ask(&small, Q_2014), 1.0, "first ask");
    assert_eq!(ask(&small, Q_OTHER), 1.0, "evicting ask");
    assert_eq!(ask(&small, Q_2014), 1.0, "ask after eviction");
    let s = stats(&cache);
    assert_eq!((s.misses, s.evictions), (3, 2));

    // Admission rejects a shape seen once: the rejection is noted
    // without embedding the key again.
    let cache = shared_cache(CacheConfig::default());
    let picky = CachedModel::new(zoo.medium(), cache.clone())
        .with_admission(AccessPredictor::with_params(5.0, 0.5));
    assert_eq!(ask(&picky, Q_OTHER), 1.0, "admission-rejected");
    assert_eq!(stats(&cache).rejected, 1);
    assert_eq!(llmdm_rt::lock_recover(&cache).len(), 0);

    // The model goes down under a warm cache: the augment-band lookup
    // and the stale serve that rescues it share the embedding.
    let cache = shared_cache(CacheConfig::default());
    llmdm_rt::lock_recover(&cache).insert(Q_2014, "the-answer", EntryKind::Original);
    let down = CachedModel::new(down_model(&zoo), cache.clone());
    assert_eq!(ask(&down, Q_2016), 1.0, "stale fallback");
    assert_eq!(stats(&cache).stale_serves, 1);

    llmdm_obs::disable();
}
