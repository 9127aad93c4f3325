//! [`CacheStackExt`] — grafts a semantic cache onto
//! [`llmdm_model::ModelStack`] without a circular dependency.
//!
//! `llmdm-model` cannot depend on this crate, so the builder exposes a
//! generic [`ModelStack::with_layer`] escape hatch; this module supplies
//! the concrete cache layer: [`CachedModel`], a [`LanguageModel`]
//! decorator that probes a [`SharedCache`] before delegating, and the
//! extension trait adding the fluent `.with_cache(…)` verb:
//!
//! ```
//! use llmdm_model::prelude::*;
//! use llmdm_semcache::{shared_cache, CacheConfig, CacheStackExt};
//!
//! let zoo = ModelZoo::standard(42);
//! let cache = shared_cache(CacheConfig::default());
//! let model = ModelStack::new(&zoo)
//!     .with_default_retry()
//!     .with_cache(cache.clone()) // outermost: probes before retrying
//!     .build();
//! let req = CompletionRequest::new("### task: echo\nhello");
//! let a = model.complete(&req).unwrap();
//! let b = model.complete(&req).unwrap(); // reuse hit, free
//! assert_eq!(a.text, b.text);
//! assert_eq!(b.cost, 0.0);
//! assert_eq!(llmdm_rt::lock_recover(&cache).stats().reuse_hits, 1);
//! ```
//!
//! Unlike the key-addressed [`crate::CachedLlm`] (whose cache *key* can
//! differ from the model *prompt* — the decomposition experiments key on
//! the user question), this layer keys on the full prompt, which is the right
//! semantics inside a generic decorator chain where no out-of-band key
//! exists. Reuse hits synthesize a zero-cost [`Completion`]; augment
//! hits rewrite the prompt with the cached example before delegating.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use llmdm_model::prelude::*;
use llmdm_model::{Embedder, ModelStack};

use crate::cache::{CacheConfig, EntryKind, HitKind, Lookup, Probe, SemanticCache};
use crate::client::augment_prompt;

/// A semantic cache shareable between the stack layer and the caller
/// (who keeps a handle for stats/inspection after `build()` erases the
/// stack).
pub type SharedCache = Arc<Mutex<SemanticCache>>;

/// Construct a [`SharedCache`] from a config.
pub fn shared_cache(config: CacheConfig) -> SharedCache {
    Arc::new(Mutex::new(SemanticCache::new(config)))
}

/// A [`LanguageModel`] decorator that consults a [`SharedCache`] keyed on
/// the request prompt before delegating to the inner model.
pub struct CachedModel {
    inner: Arc<dyn LanguageModel>,
    cache: SharedCache,
    /// A clone of the cache's embedder, taken once at construction, so a
    /// prompt is embedded before the cache's mutex is taken, not under it.
    embedder: Embedder,
}

impl CachedModel {
    /// Wrap `inner` with `cache`.
    pub fn new(inner: Arc<dyn LanguageModel>, cache: SharedCache) -> Self {
        let embedder = llmdm_rt::lock_recover(&cache).embedder().clone();
        CachedModel { inner, cache, embedder }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SemanticCache> {
        llmdm_rt::lock_recover(&self.cache)
    }
}

impl LanguageModel for CachedModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, req: &CompletionRequest) -> Result<Completion, ModelError> {
        // The one embedding of this request. The two critical sections
        // below are a flat scan and an index append around the model call.
        let probe = Probe::new(&self.embedder, &req.prompt);
        let hit = self.lock().lookup_probed(&probe);
        let c = match hit {
            Lookup::Hit { response, kind: HitKind::Reuse, .. } => {
                return Ok(Completion {
                    text: response,
                    model: format!("{}+cache", self.inner.name()),
                    usage: TokenUsage::default(),
                    cost: 0.0,
                    latency: Duration::ZERO,
                    confidence: 1.0,
                })
            }
            Lookup::Hit { query, response, kind: HitKind::Augment, .. } => {
                let augmented = augment_prompt(&req.prompt, &query, &response);
                let inner_req = CompletionRequest {
                    prompt: augmented,
                    max_output_tokens: req.max_output_tokens,
                };
                self.inner.complete(&inner_req)?
            }
            Lookup::Miss => self.inner.complete(req)?,
        };
        self.lock().insert_probed(probe, &c.text, EntryKind::Original);
        Ok(c)
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }
}

/// Adds the `.with_cache(…)` verb to [`ModelStack`].
pub trait CacheStackExt {
    /// Wrap the current top of the stack in a prompt-keyed semantic
    /// cache. Apply *last* so the cache probes before any retry/fault
    /// layers burn budget.
    fn with_cache(self, cache: SharedCache) -> Self;
}

impl CacheStackExt for ModelStack {
    fn with_cache(self, cache: SharedCache) -> Self {
        self.with_layer(|inner, _clock| Arc::new(CachedModel::new(inner, cache)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmdm_model::PromptEnvelope;

    fn oracle_req(q: &str) -> CompletionRequest {
        CompletionRequest::new(
            PromptEnvelope::builder("oracle")
                .header("gold", "the-answer")
                .header("difficulty", "0.0")
                .header("examples", 2)
                .body(q)
                .build(),
        )
    }

    #[test]
    fn reuse_hit_is_free_and_identical() {
        let zoo = ModelZoo::standard(3);
        let cache = shared_cache(CacheConfig::default());
        let model = ModelStack::new(&zoo).with_cache(cache.clone()).build();
        let req = oracle_req("what stadiums had concerts in 2014");
        let a = model.complete(&req).unwrap();
        let calls = zoo.meter().snapshot().total_calls();
        let b = model.complete(&req).unwrap();
        assert_eq!(a.text, b.text);
        assert_eq!(b.cost, 0.0);
        assert_eq!(zoo.meter().snapshot().total_calls(), calls, "reuse must not call the model");
        assert!(llmdm_rt::lock_recover(&cache).stats().reconciles());
    }

    #[test]
    fn augment_hit_still_calls_model() {
        let zoo = ModelZoo::standard(3);
        // Prompt-keyed caching shares envelope boilerplate between keys,
        // which inflates similarity — a tighter reuse threshold keeps
        // near-duplicates in the augment band.
        let cache = shared_cache(CacheConfig { reuse_threshold: 0.995, ..Default::default() });
        let model = ModelStack::new(&zoo).with_cache(cache.clone()).build();
        model
            .complete(&oracle_req("What are the names of stadiums that had concerts in 2014?"))
            .unwrap();
        let calls = zoo.meter().snapshot().total_calls();
        let b = model
            .complete(&oracle_req("What are the names of stadiums that had concerts in 2016?"))
            .unwrap();
        assert!(b.cost > 0.0);
        assert_eq!(zoo.meter().snapshot().total_calls(), calls + 1);
        assert_eq!(llmdm_rt::lock_recover(&cache).stats().augment_hits, 1);
    }

    #[test]
    fn cache_composes_with_fault_and_retry_layers() {
        use llmdm_resil::FaultPlan;
        let zoo = ModelZoo::standard(3);
        let cache = shared_cache(CacheConfig::default());
        let stack = ModelStack::new(&zoo)
            .with_faults(Arc::new(FaultPlan::none()))
            .with_default_retry()
            .with_cache(cache.clone());
        let faulty = stack.faulty().unwrap().clone();
        let model = stack.build();
        let req = oracle_req("concert attendance by year");
        model.complete(&req).unwrap();
        model.complete(&req).unwrap(); // reuse
        assert_eq!(
            zoo.meter().snapshot().total_calls(),
            1,
            "second ask must be served from cache"
        );
        let diff = (faulty.executed_cost() - zoo.meter().snapshot().total_dollars()).abs();
        assert!(diff < 1e-9);
    }
}
