//! [`CachedLlm`]: a semantic cache in front of a simulated model.
//!
//! Reuse hits short-circuit the model entirely; augment hits extend the
//! prompt with the cached (query, response) pair as an extra example
//! before calling the model (the paper's case 2, which still calls the
//! model but helps it reason); misses call the model unmodified. Responses
//! are inserted subject to the admission predictor.

use std::sync::{Arc, Mutex};

use llmdm_model::prelude::*;

use crate::cache::{EntryKind, HitKind, Lookup, Probe};
use crate::predictor::AccessPredictor;
use crate::sharded::ShardedCache;

/// Outcome of a cached ask.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedAnswer {
    /// The answer text.
    pub text: String,
    /// Whether it came from cache (reuse hit or stale serve).
    pub from_cache: bool,
    /// Dollar cost actually incurred (0 for reuse hits and stale serves).
    pub cost: f64,
    /// Whether this was a *stale* serve: the model was unreachable and a
    /// below-augment-threshold cached answer was returned instead of an
    /// error (degraded availability, §III-C).
    pub stale: bool,
}

/// A model wrapped with a [`ShardedCache`] and an admission predictor —
/// the one key-addressed cache client.
///
/// [`CachedLlm::ask`] takes `&self`, so a serving worker pool shares one
/// client without an outer lock; a single-threaded caller passes
/// `ShardedCache::new(config, 1)`, which is one `SemanticCache` behind
/// one lock.
///
/// The model is held as a trait object, so any [`LanguageModel`] — a bare
/// `SimLlm`, a fault-injecting `FaultyModel`, or a retry-wrapped
/// `ResilientClient` — can sit behind the cache. When the model fails
/// with a *retryable* error (rate limit, timeout, outage), the cache
/// falls back to [`ShardedCache::serve_stale`] before surfacing the
/// error.
pub struct CachedLlm {
    model: Arc<dyn LanguageModel>,
    cache: ShardedCache,
    predictor: Option<Mutex<AccessPredictor>>,
}

impl std::fmt::Debug for CachedLlm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedLlm").field("entries", &self.cache.len()).finish()
    }
}

impl CachedLlm {
    /// Wrap `model` with `cache`; `predictor = None` admits everything.
    pub fn new(
        model: Arc<dyn LanguageModel>,
        cache: ShardedCache,
        predictor: Option<AccessPredictor>,
    ) -> Self {
        CachedLlm { model, cache, predictor: predictor.map(Mutex::new) }
    }

    /// The underlying cache (stats, inspection).
    pub fn cache(&self) -> &ShardedCache {
        &self.cache
    }

    /// The wrapped model.
    pub fn model(&self) -> &Arc<dyn LanguageModel> {
        &self.model
    }

    /// Ask with caching. `key` is the cache key (the user-level question);
    /// `prompt` is the full model prompt to send on a miss; `kind` tags
    /// the entry for the Cache(O)/Cache(A) experiments.
    pub fn ask(
        &self,
        key: &str,
        prompt: &str,
        kind: EntryKind,
    ) -> Result<CachedAnswer, ModelError> {
        if let Some(p) = &self.predictor {
            llmdm_rt::lock_recover(p).observe(key);
        }
        // The one embedding of this ask, made before any shard is locked;
        // the lookup, and whichever of insert, rejection note or stale
        // serve follows it, route and scan with this vector.
        let probe = self.cache.probe(key);
        let request = match self.cache.lookup_probed(&probe) {
            Lookup::Hit { response, kind: HitKind::Reuse, .. } => {
                return Ok(CachedAnswer {
                    text: response,
                    from_cache: true,
                    cost: 0.0,
                    stale: false,
                });
            }
            // Extend the prompt with the cached pair as one more example,
            // bumping the examples header so the model's ICL benefit
            // applies.
            Lookup::Hit { query, response, kind: HitKind::Augment, .. } => {
                CompletionRequest::new(augment_prompt(prompt, &query, &response))
            }
            Lookup::Miss => CompletionRequest::new(prompt.to_string()),
        };
        let completion = match self.model.complete(&request) {
            Ok(c) => c,
            Err(e) => return self.stale_fallback(&probe, e),
        };
        self.maybe_insert(probe, &completion, kind);
        Ok(CachedAnswer { text: completion.text, from_cache: false, cost: completion.cost, stale: false })
    }

    /// On a *retryable* model failure (rate limit, timeout, outage), try
    /// to serve a stale-but-similar cached answer instead of erroring —
    /// graceful degradation under upstream outage. Non-retryable errors
    /// (bad request, malformed payload) surface unchanged: stale data
    /// can't fix a broken request.
    fn stale_fallback(&self, probe: &Probe<'_>, err: ModelError) -> Result<CachedAnswer, ModelError> {
        if !err.is_retryable() {
            return Err(err);
        }
        match self.cache.serve_stale_probed(probe) {
            Some((_, response, _)) => {
                Ok(CachedAnswer { text: response, from_cache: true, cost: 0.0, stale: true })
            }
            None => Err(err),
        }
    }

    fn maybe_insert(&self, probe: Probe<'_>, completion: &Completion, kind: EntryKind) {
        let admit = self
            .predictor
            .as_ref()
            .map(|p| llmdm_rt::lock_recover(p).should_admit(probe.text()))
            .unwrap_or(true);
        if admit {
            self.cache.insert_probed(probe, &completion.text, kind);
        } else {
            self.cache.note_rejected(&probe);
        }
    }
}

/// Append a cached example pair to an envelope prompt, incrementing its
/// `examples` header. Shared with [`crate::stack::CachedModel`] so the
/// key-addressed and prompt-addressed paths produce byte-identical
/// augmented prompts.
pub(crate) fn augment_prompt(prompt: &str, cached_query: &str, cached_response: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use llmdm_model::{ModelZoo, PromptEnvelope};

    fn one_shard() -> ShardedCache {
        ShardedCache::new(CacheConfig::default(), 1)
    }

    fn client() -> (ModelZoo, CachedLlm) {
        let zoo = ModelZoo::standard(5);
        let model = zoo.medium();
        (zoo, CachedLlm::new(model, one_shard(), None))
    }

    fn oracle_prompt(q: &str) -> String {
        PromptEnvelope::builder("oracle")
            .header("gold", "the-answer")
            .header("difficulty", "0.0")
            .header("examples", 2)
            .body(q)
            .build()
    }

    #[test]
    fn second_identical_ask_is_free() {
        let (zoo, c) = client();
        let q = "what are the names of stadiums that had concerts in 2014";
        let a1 = c.ask(q, &oracle_prompt(q), EntryKind::Original).unwrap();
        assert!(!a1.from_cache);
        assert!(a1.cost > 0.0);
        let calls_before = zoo.meter().snapshot().total_calls();
        let a2 = c.ask(q, &oracle_prompt(q), EntryKind::Original).unwrap();
        assert!(a2.from_cache);
        assert_eq!(a2.cost, 0.0);
        assert_eq!(a2.text, a1.text);
        assert_eq!(zoo.meter().snapshot().total_calls(), calls_before, "no model call on reuse");
    }

    #[test]
    fn similar_ask_augments_and_still_calls_model() {
        let (zoo, c) = client();
        let q1 = "What are the names of stadiums that had concerts in 2014?";
        let q2 = "What are the names of stadiums that had concerts in 2016?";
        c.ask(q1, &oracle_prompt(q1), EntryKind::Original).unwrap();
        let calls_before = zoo.meter().snapshot().total_calls();
        let a2 = c.ask(q2, &oracle_prompt(q2), EntryKind::Original).unwrap();
        assert!(!a2.from_cache);
        assert_eq!(zoo.meter().snapshot().total_calls(), calls_before + 1);
        assert_eq!(c.cache().stats().augment_hits, 1);
    }

    #[test]
    fn predictor_gates_admission() {
        let zoo = ModelZoo::standard(5);
        // Very strict admission: needs several observations.
        let predictor = AccessPredictor::with_params(5.0, 0.5);
        let c = CachedLlm::new(zoo.medium(), one_shard(), Some(predictor));
        let q = "rarely repeated query shape";
        c.ask(q, &oracle_prompt(q), EntryKind::Original).unwrap();
        assert_eq!(c.cache().len(), 0, "cold shape should not be admitted");
        assert_eq!(c.cache().stats().rejected, 1);
        // Hammer the shape; eventually admitted.
        for _ in 0..6 {
            c.ask(q, &oracle_prompt(q), EntryKind::Original).unwrap();
        }
        assert_eq!(c.cache().len(), 1);
    }

    #[test]
    fn outage_serves_stale_answer_for_free() {
        use llmdm_model::FaultyModel;
        use llmdm_resil::{FaultPlan, FaultRates, SimClock, TierPlan};

        let zoo = ModelZoo::standard(5);
        let q = "What are the names of stadiums that had concerts in 2014?";

        // Warm the cache through a healthy model.
        let healthy = CachedLlm::new(zoo.medium(), one_shard(), None);
        let warm = healthy.ask(q, &oracle_prompt(q), EntryKind::Original).unwrap();
        assert!(!warm.stale);

        // Rebuild the client around a 100%-rate-limited model, carrying
        // the warmed cache over (simulates the upstream going down
        // mid-session).
        let plan = Arc::new(FaultPlan::new(
            "total-outage",
            7,
            vec![TierPlan::with_rates(
                "sim-medium",
                FaultRates { rate_limited: 1.0, ..FaultRates::none() },
            )],
        ));
        let faulty = Arc::new(FaultyModel::new(zoo.medium(), plan, SimClock::new()));
        let CachedLlm { cache, .. } = healthy;
        let down = CachedLlm::new(faulty, cache, None);

        // A *similar* (not identical) query: regular lookup augments →
        // model call fails → stale serve kicks in.
        let q2 = "What are the names of stadiums that had concerts in 2016?";
        let a = down.ask(q2, &oracle_prompt(q2), EntryKind::Original).unwrap();
        assert!(a.stale, "outage should degrade to a stale serve");
        assert!(a.from_cache);
        assert_eq!(a.cost, 0.0);
        assert_eq!(a.text, warm.text);
        assert_eq!(down.cache().stats().stale_serves, 1);
        assert!(down.cache().stats().reconciles());

        // A totally unrelated query has nothing stale to serve: the
        // retryable error surfaces.
        let e = down.ask("zzz qqq unrelated", &oracle_prompt("zzz"), EntryKind::Original);
        assert!(e.is_err());
        assert!(e.unwrap_err().is_retryable());
        assert!(down.cache().stats().reconciles());
    }

    #[test]
    fn non_retryable_errors_do_not_stale_serve() {
        use llmdm_model::FaultyModel;
        use llmdm_resil::{FaultPlan, FaultRates, SimClock, TierPlan};

        let zoo = ModelZoo::standard(5);
        let plan = Arc::new(FaultPlan::new(
            "malformed",
            3,
            vec![TierPlan::with_rates(
                "sim-medium",
                FaultRates { malformed: 1.0, ..FaultRates::none() },
            )],
        ));
        let faulty = Arc::new(FaultyModel::new(zoo.medium(), plan, SimClock::new()));
        let c = CachedLlm::new(faulty, one_shard(), None);
        // Even with a perfectly-matching entry available, a non-retryable
        // error must surface rather than mask a broken request.
        c.cache().insert("the query", "cached answer", EntryKind::Original);
        let got = c.ask("the query different year", &oracle_prompt("q"), EntryKind::Original);
        assert!(got.is_err());
        assert_eq!(c.cache().stats().stale_serves, 0);
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
