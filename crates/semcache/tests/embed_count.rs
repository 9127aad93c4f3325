//! One embedding per prompt: the count the hot-path claim rests on
//! (DESIGN.md §17), read from the `model.embed` counter that
//! `Embedder::embed` bumps.
//!
//! One `#[test]` in a binary of its own on purpose: the obs recorder is
//! process-global, and a second test thread's embeddings would land in
//! this one's deltas.

use std::sync::Arc;

use llmdm_model::prelude::*;
use llmdm_model::{FaultyModel, ModelStack, PromptEnvelope};
use llmdm_resil::{FaultPlan, FaultRates, SimClock, TierPlan};
use llmdm_semcache::{
    shared_cache, AccessPredictor, CacheConfig, CacheStackExt, CachedLlm, EntryKind, ShardedCache,
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
fn every_prompt_is_embedded_exactly_once() {
    llmdm_obs::enable();
    llmdm_obs::reset();
    let zoo = ModelZoo::standard(5);

    // The stack layer: miss, reuse hit, augment hit.
    let cache = shared_cache(CacheConfig { reuse_threshold: 0.995, ..Default::default() });
    let model = ModelStack::new(&zoo).with_cache(cache.clone()).build();
    let complete = |q: &str| {
        let req = CompletionRequest::new(oracle_prompt(q));
        embeds(|| drop(model.complete(&req).expect("healthy model")))
    };
    assert_eq!(complete(Q_2014), 1.0, "CachedModel miss");
    assert_eq!(complete(Q_2014), 1.0, "CachedModel reuse hit");
    assert_eq!(complete(Q_2016), 1.0, "CachedModel augment hit");
    let stats = llmdm_rt::lock_recover(&cache).stats();
    assert_eq!((stats.misses, stats.reuse_hits, stats.augment_hits), (1, 1, 1));

    // The key-addressed client, on one shard and on four.
    for shards in [1usize, 4] {
        let sharded = || ShardedCache::new(CacheConfig::default(), shards);
        let llm = CachedLlm::new(zoo.medium(), sharded(), None);
        let ask = |llm: &CachedLlm, q: &str| {
            embeds(|| drop(llm.ask(q, &oracle_prompt(q), EntryKind::Original)))
        };
        assert_eq!(ask(&llm, Q_2014), 1.0, "{shards} shards: miss");
        assert_eq!(ask(&llm, Q_2014), 1.0, "{shards} shards: reuse hit");
        assert_eq!(ask(&llm, Q_2016), 1.0, "{shards} shards: augment hit");
        let stats = llm.cache().stats();
        assert_eq!((stats.misses, stats.reuse_hits, stats.augment_hits), (1, 1, 1));

        // Admission rejects a shape seen once: the rejection is noted on
        // the key's home shard without embedding it again.
        let strict = Some(AccessPredictor::with_params(5.0, 0.5));
        let picky = CachedLlm::new(zoo.medium(), sharded(), strict);
        assert_eq!(ask(&picky, Q_OTHER), 1.0, "{shards} shards: admission-rejected");
        assert_eq!(picky.cache().stats().rejected, 1);
        assert_eq!(picky.cache().len(), 0);

        // The model goes down under a warm cache: the augment-band lookup
        // and the stale serve that rescues it share the embedding.
        let warm = sharded();
        warm.insert(Q_2014, "the-answer", EntryKind::Original);
        let down = CachedLlm::new(down_model(&zoo), warm, None);
        assert_eq!(ask(&down, Q_2016), 1.0, "{shards} shards: stale fallback");
        assert_eq!(down.cache().stats().stale_serves, 1);
    }

    llmdm_obs::disable();
}
