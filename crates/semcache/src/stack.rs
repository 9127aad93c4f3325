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
//! [`CachedModel`] is the one cache client. Its body is
//! [`CachedModel::ask`], which keys the cache on a caller-chosen text —
//! the NL2SQL examples key on the user question, not on the full
//! prompt built around it. Inside a generic decorator chain no
//! out-of-band key exists, so [`LanguageModel::complete`] keys on the
//! prompt. Reuse hits synthesize a zero-cost [`Completion`]; augment hits
//! rewrite the prompt with the cached example before delegating; a
//! retryable model failure falls back on a stale-but-similar answer.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use llmdm_model::prelude::*;
use llmdm_model::{Embedder, ModelStack};

use crate::cache::{CacheConfig, EntryKind, HitKind, Lookup, Probe, SemanticCache};
use crate::predictor::AccessPredictor;

/// A semantic cache shareable between the stack layer and the caller
/// (who keeps a handle for stats/inspection after `build()` erases the
/// stack).
pub type SharedCache = Arc<Mutex<SemanticCache>>;

/// Construct a [`SharedCache`] from a config.
pub fn shared_cache(config: CacheConfig) -> SharedCache {
    Arc::new(Mutex::new(SemanticCache::new(config)))
}

/// A [`LanguageModel`] decorator that consults a [`SharedCache`] before
/// delegating to the inner model.
///
/// [`CachedModel::ask`] takes `&self`, so a serving worker pool shares
/// one client; the cache is one mutex, held for a flat scan or an index
/// append, never for an embedding or a model call (DESIGN.md §17).
pub struct CachedModel {
    inner: Arc<dyn LanguageModel>,
    cache: SharedCache,
    /// A clone of the cache's embedder, taken once at construction, so a
    /// prompt is embedded before the cache's mutex is taken, not under it.
    embedder: Embedder,
    /// The §III-C admission predictor; `None` admits every answer.
    admission: Option<Mutex<AccessPredictor>>,
}

impl CachedModel {
    /// Wrap `inner` with `cache`, admitting every answer.
    pub fn new(inner: Arc<dyn LanguageModel>, cache: SharedCache) -> Self {
        let embedder = llmdm_rt::lock_recover(&cache).embedder().clone();
        CachedModel { inner, cache, embedder, admission: None }
    }

    /// Cache an answer only when `predictor` expects its key to be asked
    /// again; a refusal is counted as `rejected`.
    pub fn with_admission(mut self, predictor: AccessPredictor) -> Self {
        self.admission = Some(Mutex::new(predictor));
        self
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SemanticCache> {
        llmdm_rt::lock_recover(&self.cache)
    }

    /// Answer `req` through the cache, keyed on `key`.
    ///
    /// `key` is embedded once, off the lock, and that probe serves the
    /// lookup and whichever of insert, rejection note or stale serve
    /// follows it. A reuse hit is answered without the model; an augment
    /// hit calls it with the cached pair appended as one more example,
    /// under `req`'s output budget and deadline; a miss calls it with
    /// `req` as given. When the model fails with a *retryable* error
    /// (rate limit, timeout, outage) the best entry above [`CacheConfig::stale_threshold`] is served instead; other
    /// errors surface unchanged — stale data cannot fix a broken request.
    pub fn ask(&self, key: &str, req: &CompletionRequest) -> Result<Completion, ModelError> {
        if let Some(p) = &self.admission {
            llmdm_rt::lock_recover(p).observe(key);
        }
        let probe = Probe::new(&self.embedder, key);
        let hit = self.lock().lookup_probed(&probe);
        let answer = match hit {
            Lookup::Hit { response, kind: HitKind::Reuse, .. } => return Ok(self.cached(response)),
            Lookup::Hit { query, response, kind: HitKind::Augment, .. } => {
                self.inner.complete(&CompletionRequest {
                    prompt: augment_prompt(&req.prompt, &query, &response),
                    max_output_tokens: req.max_output_tokens,
                    deadline: req.deadline,
                })
            }
            Lookup::Miss => self.inner.complete(req),
        };
        let c = match answer {
            Ok(c) => c,
            Err(e) if e.is_retryable() => {
                let stale = self.lock().serve_stale_probed(&probe);
                return stale.map(|(_, response, _)| self.cached(response)).ok_or(e);
            }
            Err(e) => return Err(e),
        };
        let admit =
            self.admission.as_ref().map_or(true, |p| llmdm_rt::lock_recover(p).should_admit(key));
        let mut cache = self.lock();
        if admit {
            cache.insert_probed(probe, &c.text, EntryKind::Original);
        } else {
            cache.note_rejected();
        }
        Ok(c)
    }

    /// A cached answer: free, instant, and named after the model it
    /// stands in for.
    fn cached(&self, text: String) -> Completion {
        Completion {
            text,
            model: format!("{}+cache", self.inner.name()),
            usage: TokenUsage::default(),
            cost: 0.0,
            latency: Duration::ZERO,
            confidence: 1.0,
            cached: true,
        }
    }
}

impl LanguageModel for CachedModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, req: &CompletionRequest) -> Result<Completion, ModelError> {
        self.ask(&req.prompt, req)
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }
}

/// Append a cached example pair to an envelope prompt, incrementing its
/// `examples` header.
fn augment_prompt(prompt: &str, cached_query: &str, cached_response: &str) -> String {
    let example = format!("Example Q: {cached_query}\nExample SQL: {cached_response}\n");
    // Bump the first `### examples: N` header if there is one; a prompt
    // without it gains no header, only the example pair at the end.
    let mut out = String::with_capacity(prompt.len() + example.len() + 32);
    let mut bumped = false;
    for line in prompt.split_inclusive('\n') {
        if !bumped {
            if let Some(rest) = line.strip_prefix("### examples: ") {
                if let Ok(n) = rest.trim().parse::<usize>() {
                    out.push_str(&format!("### examples: {}\n", n + 1));
                    bumped = true;
                    continue;
                }
            }
        }
        out.push_str(line);
    }
    out.push('\n');
    out.push_str(&example);
    out
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
    use crate::cache::CacheStats;
    use llmdm_model::{FaultyModel, PromptEnvelope};
    use llmdm_resil::{Deadline, FaultPlan, FaultRates, SimClock, TierPlan};

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

    fn stats(cache: &SharedCache) -> CacheStats {
        llmdm_rt::lock_recover(cache).stats()
    }

    /// `sim-medium` behind a plan that fails every call with `rates`.
    fn faulty(zoo: &ModelZoo, rates: FaultRates) -> Arc<dyn LanguageModel> {
        let tiers = vec![TierPlan::with_rates("sim-medium", rates)];
        let plan = Arc::new(FaultPlan::new("faulty", 7, tiers));
        Arc::new(FaultyModel::new(zoo.medium(), plan, SimClock::new()))
    }

    /// A keyed client over `sim-medium` and its cache.
    fn client() -> (ModelZoo, SharedCache, CachedModel) {
        let zoo = ModelZoo::standard(5);
        let cache = shared_cache(CacheConfig::default());
        let c = CachedModel::new(zoo.medium(), cache.clone());
        (zoo, cache, c)
    }

    fn ask(c: &CachedModel, q: &str) -> Result<Completion, ModelError> {
        c.ask(q, &oracle_req(q))
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
        assert!(stats(&cache).reconciles());
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
        assert_eq!(stats(&cache).augment_hits, 1);
    }

    #[test]
    fn cache_composes_with_fault_and_retry_layers() {
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

    #[test]
    fn the_request_deadline_reaches_the_retry_layer_on_miss_and_augment() {
        let zoo = ModelZoo::standard(3);
        let cache = shared_cache(CacheConfig { reuse_threshold: 0.995, ..Default::default() });
        let stack = ModelStack::new(&zoo).with_default_retry().with_cache(cache.clone());
        let client = stack.resilient().unwrap().clone();
        let model = stack.build();
        let expired = |q: &str| CompletionRequest { deadline: Deadline::at(0), ..oracle_req(q) };

        // Miss: the request goes to the retry layer as given.
        assert!(model.complete(&expired("stadiums with concerts in 2014")).is_err());
        assert_eq!(client.stats().deadline_failures, 1);
        assert_eq!(zoo.meter().snapshot().total_calls(), 0);

        // Augment hit: the rewritten request must keep the deadline.
        model
            .complete(&oracle_req("What are the names of stadiums that had concerts in 2014?"))
            .unwrap();
        let _ =
            model.complete(&expired("What are the names of stadiums that had concerts in 2016?"));
        assert_eq!(stats(&cache).augment_hits, 1);
        assert_eq!(client.stats().deadline_failures, 2);
        assert_eq!(zoo.meter().snapshot().total_calls(), 1);
    }

    #[test]
    fn second_identical_ask_is_free() {
        let (zoo, _, c) = client();
        let q = "what are the names of stadiums that had concerts in 2014";
        let a1 = ask(&c, q).unwrap();
        assert!(a1.cost > 0.0);
        let calls_before = zoo.meter().snapshot().total_calls();
        let a2 = ask(&c, q).unwrap();
        assert_eq!(a2.model, "sim-medium+cache");
        assert_eq!(a2.cost, 0.0);
        assert_eq!(a2.text, a1.text);
        assert_eq!(zoo.meter().snapshot().total_calls(), calls_before, "no model call on reuse");
    }

    #[test]
    fn similar_ask_augments_and_still_calls_model() {
        let (zoo, cache, c) = client();
        ask(&c, "What are the names of stadiums that had concerts in 2014?").unwrap();
        let calls_before = zoo.meter().snapshot().total_calls();
        let a2 = ask(&c, "What are the names of stadiums that had concerts in 2016?").unwrap();
        assert!(a2.cost > 0.0);
        assert_eq!(zoo.meter().snapshot().total_calls(), calls_before + 1);
        assert_eq!(stats(&cache).augment_hits, 1);
    }

    #[test]
    fn predictor_gates_admission() {
        let zoo = ModelZoo::standard(5);
        let cache = shared_cache(CacheConfig::default());
        // Very strict admission: needs several observations.
        let c = CachedModel::new(zoo.medium(), cache.clone())
            .with_admission(AccessPredictor::with_params(5.0, 0.5));
        let q = "rarely repeated query shape";
        ask(&c, q).unwrap();
        assert_eq!(llmdm_rt::lock_recover(&cache).len(), 0, "cold shape should not be admitted");
        assert_eq!(stats(&cache).rejected, 1);
        // Hammer the shape; eventually admitted.
        for _ in 0..6 {
            ask(&c, q).unwrap();
        }
        assert_eq!(llmdm_rt::lock_recover(&cache).len(), 1);
    }

    #[test]
    fn outage_serves_stale_answer_for_free() {
        let (zoo, cache, healthy) = client();
        let q = "What are the names of stadiums that had concerts in 2014?";
        // Warm the cache through a healthy model.
        let warm = ask(&healthy, q).unwrap();

        // The upstream goes down mid-session: a client over a
        // 100%-rate-limited model shares the warmed cache.
        let rate_limited = FaultRates { rate_limited: 1.0, ..FaultRates::none() };
        let down = CachedModel::new(faulty(&zoo, rate_limited), cache.clone());

        // A *similar* (not identical) query: regular lookup augments →
        // model call fails → stale serve kicks in.
        let a = ask(&down, "What are the names of stadiums that had concerts in 2016?").unwrap();
        assert_eq!(a.model, "sim-medium+cache");
        assert_eq!(a.cost, 0.0);
        assert_eq!(a.text, warm.text);
        assert_eq!(stats(&cache).stale_serves, 1);
        assert!(stats(&cache).reconciles());

        // A totally unrelated query has nothing stale to serve: the
        // retryable error surfaces.
        let e = down.ask("zzz qqq unrelated", &oracle_req("zzz"));
        assert!(e.unwrap_err().is_retryable());
        assert!(stats(&cache).reconciles());
    }

    #[test]
    fn non_retryable_errors_do_not_stale_serve() {
        let zoo = ModelZoo::standard(5);
        let cache = shared_cache(CacheConfig::default());
        let malformed = FaultRates { malformed: 1.0, ..FaultRates::none() };
        let c = CachedModel::new(faulty(&zoo, malformed), cache.clone());
        // Even with a perfectly-matching entry available, a non-retryable
        // error must surface rather than mask a broken request.
        llmdm_rt::lock_recover(&cache).insert("the query", "cached answer", EntryKind::Original);
        let got = c.ask("the query different year", &oracle_req("q"));
        assert!(got.is_err());
        assert_eq!(stats(&cache).stale_serves, 0);
    }

    #[test]
    fn concurrent_asks_stay_consistent() {
        let zoo = ModelZoo::standard(11);
        let cache = shared_cache(CacheConfig { capacity: 512, ..Default::default() });
        let llm = CachedModel::new(zoo.medium(), cache.clone());
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let llm = &llm;
                scope.spawn(move || {
                    for i in 0..50usize {
                        let q = format!("query template number {} for worker", (t * 50 + i) % 20);
                        ask(llm, &q).unwrap();
                    }
                });
            }
        });
        let g = stats(&cache);
        assert_eq!(g.lookups, 200);
        assert!(g.reconciles(), "{g:?}");
        assert!(g.reuse_hits > 0, "repeated templates must produce reuse hits");
        assert!(zoo.meter().snapshot().total_dollars() > 0.0);
    }

    #[test]
    fn augment_prompt_bumps_examples_header() {
        let p = PromptEnvelope::builder("nl2sql").header("examples", 4).body("Q: x\n").build();
        let out = augment_prompt(&p, "cached q", "cached sql");
        let env = PromptEnvelope::parse(&out).unwrap();
        assert_eq!(env.examples(), 5);
        assert!(out.contains("Example Q: cached q"));

        // No header to bump: the prompt passes through and only gains
        // the example pair.
        let out = augment_prompt("Q: x\n", "cached q", "cached sql");
        assert_eq!(out, "Q: x\n\nExample Q: cached q\nExample SQL: cached sql\n");
    }
}
