//! The similarity-matched cache with weighted eviction.

use std::collections::HashMap;

use llmdm_model::Embedder;
use llmdm_rt::hash::fnv1a_str;
use llmdm_rt::json::Json;
use llmdm_vecdb::{FlatIndex, Metric, VectorIndex};

/// What kind of entry this is (the Cache(O)/Cache(A) distinction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A full user query.
    Original,
    /// A decomposed sub-query.
    SubQuery,
}

/// The result of a cache lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// Similar enough to reuse the cached response outright — no model
    /// call (the paper's case 1).
    Reuse {
        /// The cached response.
        response: String,
        /// Cosine similarity of the match.
        similarity: f32,
    },
    /// Similar enough that the cached (query, response) pair should
    /// augment the new prompt as an extra example (the paper's case 2).
    Augment {
        /// The cached query text.
        query: String,
        /// The cached response.
        response: String,
        /// Cosine similarity of the match.
        similarity: f32,
    },
    /// No cached entry was similar enough.
    Miss,
}

/// Eviction policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvictionPolicy {
    /// Least-recently-used.
    Lru,
    /// Least-frequently-used.
    Lfu,
    /// The paper's weighted policy: reuse hits add `reuse_weight`,
    /// augment hits add `augment_weight` (reuse ≫ augment since a reuse
    /// hit saves a whole model call); evict the minimum accumulated
    /// weight, ties broken by recency.
    Weighted {
        /// Weight added per reuse hit.
        reuse_weight: f64,
        /// Weight added per augment hit.
        augment_weight: f64,
    },
}

impl Default for EvictionPolicy {
    fn default() -> Self {
        EvictionPolicy::Weighted { reuse_weight: 4.0, augment_weight: 1.0 }
    }
}

/// Cache configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Maximum number of entries.
    pub capacity: usize,
    /// Similarity at or above which a hit is a [`Lookup::Reuse`].
    pub reuse_threshold: f32,
    /// Similarity at or above which a hit is at least a
    /// [`Lookup::Augment`].
    pub augment_threshold: f32,
    /// Similarity at or above which [`SemanticCache::serve_stale`] will
    /// serve an entry during an upstream outage. Deliberately *below*
    /// the augment threshold: when the model is down, a vaguely-related
    /// cached answer beats no answer (§III-C availability trade-off).
    pub stale_threshold: f32,
    /// Also match new queries against cached *responses* (§III-C footnote:
    /// "both the original queries and responses are also stored" as search
    /// keys) — useful when a user pastes a previous answer back as a
    /// follow-up query. Response matches never count as reuse, only
    /// augment.
    pub match_responses: bool,
    /// Eviction policy.
    pub policy: EvictionPolicy,
    /// Embedding seed (must be shared with the rest of the system for
    /// similarity spaces to align).
    pub seed: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 256,
            reuse_threshold: 0.95,
            augment_threshold: 0.70,
            stale_threshold: 0.55,
            match_responses: false,
            policy: EvictionPolicy::default(),
            seed: 0,
        }
    }
}

/// Lifetime counters.
///
/// Invariant (checked by `reconciliation_invariant_holds` and the chaos
/// pipeline): every [`SemanticCache::lookup`] or
/// [`SemanticCache::serve_stale`] call increments `lookups` and exactly
/// one of `reuse_hits` / `augment_hits` / `stale_serves` / `misses`, so
///
/// ```text
/// reuse_hits + augment_hits + stale_serves + misses == lookups
/// ```
///
/// always holds. (The previous accounting derived the denominator as
/// `hits + misses`, which silently *under*-counted lookups that errored
/// mid-probe — e.g. an embedder failure — and would have ignored stale
/// serves entirely, inflating the hit ratio.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookup probes (regular + stale).
    pub lookups: u64,
    /// Lookups that returned a reuse hit.
    pub reuse_hits: u64,
    /// Lookups that returned an augment hit.
    pub augment_hits: u64,
    /// Stale entries served during upstream outages.
    pub stale_serves: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted.
    pub evictions: u64,
    /// Inserts rejected by the admission predicate.
    pub rejected: u64,
}

impl CacheStats {
    /// Hit ratio over all lookups (stale serves count as hits — they
    /// did serve an answer). An empty (never-looked-up) cache has a hit
    /// ratio of exactly `0.0`, not NaN — callers embed this straight
    /// into reports.
    pub fn hit_ratio(&self) -> f64 {
        let hits = self.reuse_hits + self.augment_hits + self.stale_serves;
        if self.lookups == 0 {
            0.0
        } else {
            hits as f64 / self.lookups as f64
        }
    }

    /// The accounting invariant: every lookup has exactly one outcome.
    pub fn reconciles(&self) -> bool {
        self.reuse_hits + self.augment_hits + self.stale_serves + self.misses == self.lookups
    }

    /// Serialize the counters (plus the derived `hit_ratio`) so trace
    /// reports can embed a cache section next to the span tree.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("lookups".to_string(), Json::Num(self.lookups as f64)),
            ("reuse_hits".to_string(), Json::Num(self.reuse_hits as f64)),
            ("augment_hits".to_string(), Json::Num(self.augment_hits as f64)),
            ("stale_serves".to_string(), Json::Num(self.stale_serves as f64)),
            ("misses".to_string(), Json::Num(self.misses as f64)),
            ("evictions".to_string(), Json::Num(self.evictions as f64)),
            ("rejected".to_string(), Json::Num(self.rejected as f64)),
            ("hit_ratio".to_string(), Json::Num(self.hit_ratio())),
        ])
    }
}

/// A query as the cache sees it: everything the cache derives from the
/// text alone — its embedding and the hash its verbatim copy is filed
/// under — computed once and then carried from the lookup to the insert
/// (or stale serve) that follows a miss, so one prompt costs at most one
/// embedding however many cache operations it takes.
///
/// A text the cache already holds verbatim costs none: its probe copies
/// the entry's stored vector (`SemanticCache::cached_probe`), which has
/// the bits [`Probe::new`] would compute, since the embedder is a pure
/// function of its seed and the text and the index keeps the vector it
/// was given. Any other text is embedded by [`Probe::new`], outside any
/// lock.
///
/// The probe borrows its text, so a vector cannot be paired with a text
/// it was not made from. It must be made with the target cache's
/// [`SemanticCache::embedder`] (or a clone of it).
#[derive(Debug)]
pub struct Probe<'a> {
    text: &'a str,
    text_hash: u64,
    /// `None` when the embedder refused the text (it is empty): such a
    /// probe misses every lookup and inserts nothing.
    vector: Option<Vec<f32>>,
}

impl<'a> Probe<'a> {
    /// Embed and hash `text`.
    pub fn new(embedder: &Embedder, text: &'a str) -> Self {
        Probe::embedded(embedder, text, fnv1a_str(text))
    }

    /// Embed `text`, whose `fnv1a_str` hash is `text_hash`.
    pub(crate) fn embedded(embedder: &Embedder, text: &'a str, text_hash: u64) -> Self {
        Probe { text, text_hash, vector: embedder.embed(text).ok() }
    }

    /// The embedding, if the text has one.
    pub(crate) fn vector(&self) -> Option<&[f32]> {
        self.vector.as_deref()
    }
}

#[derive(Debug, Clone)]
struct Entry {
    query: String,
    /// `fnv1a_str(query)`: where `by_text` files this entry.
    text_hash: u64,
    response: String,
    kind: EntryKind,
    hits: u64,
    last_access: u64,
    weight: f64,
}

/// The semantic cache.
#[derive(Debug)]
pub struct SemanticCache {
    config: CacheConfig,
    embedder: Embedder,
    index: FlatIndex,
    /// Response-keyed index (populated when `match_responses` is on).
    response_index: FlatIndex,
    entries: HashMap<u64, Entry>,
    /// Entry ids by the hash of their query text, so a verbatim repeat
    /// is found without comparing against every entry: `insert` refreshes
    /// it, and a probe for it copies its vector instead of embedding. A
    /// bucket holds more than one id only when two texts collide, which
    /// is why a hash match is confirmed on the text. Kept in step with
    /// `entries` by insert and `evict_one`. A lookup still scans: it never
    /// answers from here.
    by_text: HashMap<u64, Vec<u64>>,
    next_id: u64,
    clock: u64,
    stats: CacheStats,
}

impl SemanticCache {
    /// Create a cache.
    pub fn new(config: CacheConfig) -> Self {
        let embedder = Embedder::standard(config.seed);
        let index = FlatIndex::new(embedder.dim(), Metric::Cosine);
        let response_index = FlatIndex::new(embedder.dim(), Metric::Cosine);
        SemanticCache {
            config,
            embedder,
            index,
            response_index,
            entries: HashMap::new(),
            by_text: HashMap::new(),
            next_id: 0,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The active configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The embedder probes for this cache are made with. Stateless and
    /// cheap to clone: a client that shares the cache behind a lock keeps
    /// a clone and embeds before locking.
    pub fn embedder(&self) -> &Embedder {
        &self.embedder
    }

    /// The probe for `text` when an entry holds it verbatim, its vector
    /// copied from that entry's row; `None` otherwise. `text_hash` is
    /// `fnv1a_str(text)`, so a caller that embeds on `None` hashes once.
    pub(crate) fn cached_probe<'t>(&self, text: &'t str, text_hash: u64) -> Option<Probe<'t>> {
        let id = self.verbatim(text, text_hash)?;
        let vector = self.index.get(id).expect("index and entries are in sync").to_vec();
        Some(Probe { text, text_hash, vector: Some(vector) })
    }

    /// The probe for `text`: the cached one, else embedded.
    fn probe<'t>(&self, text: &'t str) -> Probe<'t> {
        let text_hash = fnv1a_str(text);
        self.cached_probe(text, text_hash)
            .unwrap_or_else(|| Probe::embedded(&self.embedder, text, text_hash))
    }

    /// The id of the entry whose query is `text`.
    fn verbatim(&self, text: &str, text_hash: u64) -> Option<u64> {
        self.by_text.get(&text_hash)?.iter().copied().find(|id| self.entries[id].query == text)
    }

    /// Look up a query; [`SemanticCache::lookup_probed`] on its probe.
    pub fn lookup(&mut self, query: &str) -> Lookup {
        let probe = self.probe(query);
        self.lookup_probed(&probe)
    }

    /// Look up a probed query; updates recency/frequency/weight on hits.
    ///
    /// Observability: every call opens a `semcache.lookup` span with a
    /// `cache=hit|miss` field (hits add `kind` and `similarity`) and bumps
    /// one of the `semcache.lookup.{reuse,augment,miss}` counters.
    pub fn lookup_probed(&mut self, probe: &Probe<'_>) -> Lookup {
        let mut span = llmdm_obs::span("semcache.lookup");
        let miss = |span: &mut llmdm_obs::Span<'_>| {
            if span.is_recording() {
                span.field("cache", "miss");
                llmdm_obs::counter_add("semcache.lookup.miss", 1.0);
            }
            Lookup::Miss
        };
        self.clock += 1;
        self.stats.lookups += 1;
        let Some(v) = probe.vector() else {
            self.stats.misses += 1;
            return miss(&mut span);
        };
        let best = self.index.search(v, 1).ok().and_then(|hits| hits.into_iter().next());
        // Optional response-keyed match: taken only when it beats the
        // query-keyed match, and only ever as an augment.
        let response_best = if self.config.match_responses {
            self.response_index.search(v, 1).ok().and_then(|hits| hits.into_iter().next())
        } else {
            None
        };
        let (best, via_response) = match (best, response_best) {
            (Some(q), Some(r)) if r.score > q.score => (Some(r), true),
            (q, None) => (q, false),
            (None, r) => (r, true),
            (q, _) => (q, false),
        };
        let Some(best) = best else {
            self.stats.misses += 1;
            return miss(&mut span);
        };
        if best.score < self.config.augment_threshold {
            self.stats.misses += 1;
            return miss(&mut span);
        }
        let reuse = !via_response && best.score >= self.config.reuse_threshold;
        let entry = self.entries.get_mut(&best.id).expect("index and entries are in sync");
        entry.hits += 1;
        entry.last_access = self.clock;
        if let EvictionPolicy::Weighted { reuse_weight, augment_weight } = self.config.policy {
            entry.weight += if reuse { reuse_weight } else { augment_weight };
        }
        if reuse {
            self.stats.reuse_hits += 1;
        } else {
            self.stats.augment_hits += 1;
        }
        if span.is_recording() {
            let (kind, counter) = if reuse {
                ("reuse", "semcache.lookup.reuse")
            } else {
                ("augment", "semcache.lookup.augment")
            };
            span.field("cache", "hit");
            span.field("kind", kind);
            span.field("similarity", best.score as f64);
            llmdm_obs::counter_add(counter, 1.0);
        }
        let (response, similarity) = (entry.response.clone(), best.score);
        if reuse {
            // A reuse hit answers with the response alone: the cached
            // query is not copied.
            Lookup::Reuse { response, similarity }
        } else {
            Lookup::Augment { query: entry.query.clone(), response, similarity }
        }
    }

    /// Stale-serve for a query; [`SemanticCache::serve_stale_probed`] on
    /// its probe.
    pub fn serve_stale(&mut self, query: &str) -> Option<(String, String, f32)> {
        let probe = self.probe(query);
        self.serve_stale_probed(&probe)
    }

    /// Serve the best *stale-but-similar* entry for the probed query during an
    /// upstream outage (§III-C availability trade-off: when the model is
    /// down, a vaguely-related cached answer beats no answer).
    ///
    /// Uses the relaxed [`CacheConfig::stale_threshold`] instead of the
    /// augment threshold, so entries that would normally miss can still
    /// be served. Counts as its own lookup event — `lookups` plus exactly
    /// one of `stale_serves` / `misses` — so the [`CacheStats`]
    /// reconciliation invariant keeps holding even when a caller does a
    /// regular `lookup` (miss) followed by a `serve_stale` for the same
    /// query. Bumps the `resil.stale_serves` counter on success.
    ///
    /// Returns `(cached_query, cached_response, similarity)`.
    pub fn serve_stale_probed(&mut self, probe: &Probe<'_>) -> Option<(String, String, f32)> {
        let mut span = llmdm_obs::span("semcache.serve_stale");
        self.clock += 1;
        self.stats.lookups += 1;
        let found = probe
            .vector()
            .and_then(|v| self.index.search(v, 1).ok().and_then(|hits| hits.into_iter().next()))
            .filter(|best| best.score >= self.config.stale_threshold);
        let Some(best) = found else {
            self.stats.misses += 1;
            if span.is_recording() {
                span.field("cache", "miss");
            }
            return None;
        };
        let entry = self.entries.get_mut(&best.id).expect("index and entries are in sync");
        entry.hits += 1;
        entry.last_access = self.clock;
        self.stats.stale_serves += 1;
        if span.is_recording() {
            span.field("cache", "stale");
            span.field("similarity", best.score as f64);
        }
        llmdm_obs::counter_add("resil.stale_serves", 1.0);
        Some((entry.query.clone(), entry.response.clone(), best.score))
    }

    /// Insert a (query, response) pair; [`SemanticCache::insert_probed`]
    /// on its probe.
    pub fn insert(&mut self, query: &str, response: &str, kind: EntryKind) {
        let probe = self.probe(query);
        self.insert_probed(probe, response, kind);
    }

    /// Insert a (probed query, response) pair, evicting if full. A query
    /// already cached verbatim is refreshed instead of duplicated. The
    /// probe is consumed: its vector becomes the entry's index key.
    pub fn insert_probed(&mut self, probe: Probe<'_>, response: &str, kind: EntryKind) {
        let _span = llmdm_obs::span("semcache.insert");
        llmdm_obs::counter_add("semcache.insert", 1.0);
        self.clock += 1;
        let Probe { text: query, text_hash, vector } = probe;
        if let Some(id) = self.verbatim(query, text_hash) {
            let e = self.entries.get_mut(&id).expect("by_text and entries are in sync");
            e.response = response.to_string();
            e.last_access = self.clock;
            // Keep the response-keyed index in step with the new response.
            let _ = self.response_index.remove(id);
            self.index_response(id, response);
            return;
        }
        let Some(v) = vector else {
            return;
        };
        while self.entries.len() >= self.config.capacity.max(1) {
            self.evict_one();
        }
        let id = self.next_id;
        self.next_id += 1;
        self.index.insert(id, v).expect("fresh id");
        self.index_response(id, response);
        self.by_text.entry(text_hash).or_default().push(id);
        self.entries.insert(
            id,
            Entry {
                query: query.to_string(),
                text_hash,
                response: response.to_string(),
                kind,
                hits: 0,
                last_access: self.clock,
                weight: 1.0,
            },
        );
    }

    /// File `response` under `id` in the response-keyed index, when
    /// responses are matched at all.
    fn index_response(&mut self, id: u64, response: &str) {
        if self.config.match_responses {
            if let Ok(rv) = self.embedder.embed(response) {
                let _ = self.response_index.insert(id, rv);
            }
        }
    }

    /// Record that the admission predictor rejected an insert (for stats).
    pub fn note_rejected(&mut self) {
        self.stats.rejected += 1;
        llmdm_obs::counter_add("semcache.rejected", 1.0);
    }

    /// Iterate cached entries as `(query, response, kind)`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, EntryKind)> {
        self.entries.values().map(|e| (e.query.as_str(), e.response.as_str(), e.kind))
    }

    /// The surviving entries as `(id, query, response, kind)` in id order.
    pub fn entries_by_id(&self) -> Vec<(u64, &str, &str, EntryKind)> {
        let mut out: Vec<_> = self
            .entries
            .iter()
            .map(|(&id, e)| (id, e.query.as_str(), e.response.as_str(), e.kind))
            .collect();
        out.sort_by_key(|e| e.0);
        out
    }

    fn evict_one(&mut self) {
        let victim = match self.config.policy {
            EvictionPolicy::Lru => self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_access)
                .map(|(&id, _)| id),
            EvictionPolicy::Lfu => self
                .entries
                .iter()
                .min_by_key(|(_, e)| (e.hits, e.last_access))
                .map(|(&id, _)| id),
            EvictionPolicy::Weighted { .. } => self
                .entries
                .iter()
                .min_by(|(_, a), (_, b)| {
                    a.weight
                        .total_cmp(&b.weight)
                        .then_with(|| a.last_access.cmp(&b.last_access))
                })
                .map(|(&id, _)| id),
        };
        if let Some(id) = victim {
            let entry = self.entries.remove(&id).expect("victim was just found");
            let bucket = self.by_text.get_mut(&entry.text_hash).expect("every entry is filed");
            bucket.retain(|&other| other != id);
            if bucket.is_empty() {
                self.by_text.remove(&entry.text_hash);
            }
            let _ = self.index.remove(id);
            let _ = self.response_index.remove(id);
            self.stats.evictions += 1;
            llmdm_obs::counter_add("semcache.evictions", 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize, policy: EvictionPolicy) -> SemanticCache {
        SemanticCache::new(CacheConfig { capacity, policy, ..Default::default() })
    }

    #[test]
    fn exact_repeat_is_reuse_hit() {
        let mut c = cache(16, EvictionPolicy::Lru);
        c.insert("what are the names of stadiums that had concerts in 2014", "SQL-A", EntryKind::Original);
        match c.lookup("what are the names of stadiums that had concerts in 2014") {
            Lookup::Reuse { response, similarity } => {
                assert_eq!(response, "SQL-A");
                assert!(similarity > 0.99);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn similar_query_is_augment_hit() {
        let mut c = cache(16, EvictionPolicy::Lru);
        c.insert(
            "What are the names of stadiums that had concerts in 2014?",
            "SQL-A",
            EntryKind::Original,
        );
        // Same template, different year: similar but not near-identical.
        match c.lookup("What are the names of stadiums that had concerts in 2016?") {
            Lookup::Augment { .. } => {}
            other => panic!("expected augment hit, got {other:?}"),
        }
    }

    #[test]
    fn unrelated_query_misses() {
        let mut c = cache(16, EvictionPolicy::Lru);
        c.insert("stadium concerts in 2014", "SQL-A", EntryKind::Original);
        assert_eq!(c.lookup("median household income by postal region"), Lookup::Miss);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn empty_cache_misses() {
        let mut c = cache(4, EvictionPolicy::Lru);
        assert_eq!(c.lookup("anything"), Lookup::Miss);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = cache(2, EvictionPolicy::Lru);
        c.insert("alpha bravo charlie", "1", EntryKind::Original);
        c.insert("delta echo foxtrot", "2", EntryKind::Original);
        // Touch the first so the second becomes LRU.
        let _ = c.lookup("alpha bravo charlie");
        c.insert("golf hotel india", "3", EntryKind::Original);
        assert_eq!(c.len(), 2);
        assert!(matches!(c.lookup("alpha bravo charlie"), Lookup::Reuse { .. }));
        assert_eq!(c.lookup("delta echo foxtrot"), Lookup::Miss);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn lfu_evicts_least_hit() {
        let mut c = cache(2, EvictionPolicy::Lfu);
        c.insert("alpha bravo charlie", "1", EntryKind::Original);
        c.insert("delta echo foxtrot", "2", EntryKind::Original);
        for _ in 0..3 {
            let _ = c.lookup("delta echo foxtrot");
        }
        c.insert("golf hotel india", "3", EntryKind::Original);
        assert_eq!(c.lookup("alpha bravo charlie"), Lookup::Miss);
        assert!(matches!(c.lookup("delta echo foxtrot"), Lookup::Reuse { .. }));
    }

    #[test]
    fn weighted_prefers_keeping_reuse_heavy_entries() {
        let mut c = cache(2, EvictionPolicy::Weighted { reuse_weight: 4.0, augment_weight: 1.0 });
        c.insert("alpha bravo charlie delta", "1", EntryKind::Original);
        c.insert("echo foxtrot golf hotel", "2", EntryKind::Original);
        // Entry 1 gets one reuse hit (weight +4); entry 2 gets two augment
        // hits — lower total weight despite more accesses.
        let _ = c.lookup("alpha bravo charlie delta"); // reuse
        match c.lookup("echo foxtrot golf hotel kilo lima mike november oscar papa") {
            Lookup::Augment { .. } | Lookup::Miss => {}
            other => panic!("unexpected {other:?}"),
        }
        c.insert("papa quebec romeo sierra", "3", EntryKind::Original);
        assert!(matches!(c.lookup("alpha bravo charlie delta"), Lookup::Reuse { .. }));
    }

    #[test]
    fn duplicate_insert_refreshes() {
        let mut c = cache(4, EvictionPolicy::Lru);
        c.insert("same query text", "old", EntryKind::Original);
        c.insert("same query text", "new", EntryKind::Original);
        assert_eq!(c.len(), 1);
        match c.lookup("same query text") {
            Lookup::Reuse { response, .. } => assert_eq!(response, "new"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hit_ratio_on_empty_cache_is_zero() {
        // No lookups ever: the ratio must be exactly 0.0, never NaN.
        let c = cache(4, EvictionPolicy::Lru);
        let r = c.stats().hit_ratio();
        assert_eq!(r, 0.0);
        assert!(!r.is_nan());
        // Default-constructed stats behave identically.
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn cache_stats_serialize_to_json() {
        let mut c = cache(4, EvictionPolicy::Lru);
        c.insert("alpha bravo charlie", "1", EntryKind::Original);
        let _ = c.lookup("alpha bravo charlie"); // reuse hit
        let _ = c.lookup("completely unrelated words"); // miss
        c.note_rejected();
        let j = c.stats().to_json();
        let parsed = Json::parse(&j.render()).expect("round-trips");
        assert_eq!(parsed.get("reuse_hits").unwrap().as_u64().unwrap(), 1);
        assert_eq!(parsed.get("misses").unwrap().as_u64().unwrap(), 1);
        assert_eq!(parsed.get("rejected").unwrap().as_u64().unwrap(), 1);
        let ratio = parsed.get("hit_ratio").unwrap().as_f64().unwrap();
        assert!((ratio - 0.5).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn hit_ratio_counts() {
        let mut c = cache(4, EvictionPolicy::Lru);
        c.insert("alpha bravo charlie", "1", EntryKind::SubQuery);
        let _ = c.lookup("alpha bravo charlie");
        let _ = c.lookup("totally different words here");
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn response_matching_yields_augment_hits() {
        let mut c = SemanticCache::new(CacheConfig {
            match_responses: true,
            ..Default::default()
        });
        c.insert(
            "list the stadiums that held concerts",
            "SELECT name FROM stadium WHERE stadium_id IN (SELECT stadium_id FROM concert)",
            EntryKind::Original,
        );
        // A follow-up query phrased like the cached *response*.
        match c.lookup("SELECT name FROM stadium WHERE stadium_id IN (SELECT stadium_id FROM concert WHERE year = 2014)") {
            Lookup::Augment { .. } => {}
            other => panic!("response-similar query should augment, got {other:?}"),
        }
        // Without the flag, the same lookup misses.
        let mut plain = SemanticCache::new(CacheConfig::default());
        plain.insert(
            "list the stadiums that held concerts",
            "SELECT name FROM stadium WHERE stadium_id IN (SELECT stadium_id FROM concert)",
            EntryKind::Original,
        );
        assert_eq!(
            plain.lookup("SELECT name FROM stadium WHERE stadium_id IN (SELECT stadium_id FROM concert WHERE year = 2014)"),
            Lookup::Miss
        );
    }

    #[test]
    fn refresh_updates_response_index() {
        let mut c = SemanticCache::new(CacheConfig {
            match_responses: true,
            ..Default::default()
        });
        c.insert("the question", "completely original first response text", EntryKind::Original);
        c.insert("the question", "entirely different second answer body", EntryKind::Original);
        // The stale first response must no longer match…
        assert_eq!(c.lookup("completely original first response text"), Lookup::Miss);
        // …and the fresh one must.
        assert!(matches!(
            c.lookup("entirely different second answer body"),
            Lookup::Augment { .. }
        ));
    }

    #[test]
    fn response_match_never_reuses() {
        let mut c = SemanticCache::new(CacheConfig {
            match_responses: true,
            ..Default::default()
        });
        c.insert("the question", "the exact response text", EntryKind::Original);
        match c.lookup("the exact response text") {
            Lookup::Augment { .. } => {}
            other => panic!("exact response text should augment, got {other:?}"),
        }
    }

    #[test]
    fn reconciliation_invariant_holds() {
        let mut c = cache(8, EvictionPolicy::Lru);
        c.insert("What are the names of stadiums that had concerts in 2014?", "A", EntryKind::Original);
        c.insert("median household income by postal region", "B", EntryKind::Original);
        // Reuse hit, augment hit, miss, stale-serve, stale-miss.
        let _ = c.lookup("What are the names of stadiums that had concerts in 2014?");
        let _ = c.lookup("What are the names of stadiums that had concerts in 2016?");
        let _ = c.lookup("zzz qqq unrelated garble xyzzy");
        let _ = c.serve_stale("What are the names of stadiums that had concerts in 2015?");
        let _ = c.serve_stale("zzz qqq unrelated garble xyzzy");
        let s = c.stats();
        assert_eq!(s.lookups, 5);
        assert!(
            s.reconciles(),
            "reuse {} + augment {} + stale {} + miss {} != lookups {}",
            s.reuse_hits,
            s.augment_hits,
            s.stale_serves,
            s.misses,
            s.lookups
        );
        assert!(s.stale_serves >= 1, "similar query should stale-serve: {s:?}");
        assert!(s.hit_ratio() > 0.0 && s.hit_ratio() < 1.0);
    }

    #[test]
    fn stale_serve_uses_relaxed_threshold() {
        // A query similar enough for stale service but (possibly) not for
        // augment: serve_stale must succeed whenever similarity clears the
        // lower stale threshold.
        let mut c = SemanticCache::new(CacheConfig {
            stale_threshold: 0.2,
            ..Default::default()
        });
        c.insert("list stadium concert attendance figures", "A", EntryKind::Original);
        let got = c.serve_stale("stadium concert attendance");
        assert!(got.is_some(), "relaxed threshold should serve");
        let (_, resp, sim) = got.unwrap();
        assert_eq!(resp, "A");
        assert!(sim >= 0.2);
        // An empty cache can never stale-serve.
        let mut empty = SemanticCache::new(CacheConfig::default());
        assert!(empty.serve_stale("anything").is_none());
        assert!(empty.stats().reconciles());
    }

    /// `by_text` files exactly the live entries, each under its text's
    /// hash, and `len()` / `iter()` count the same set.
    fn assert_filed(c: &SemanticCache) {
        let mut filed: Vec<u64> = c.by_text.values().flatten().copied().collect();
        filed.sort_unstable();
        let live: Vec<u64> = c.entries_by_id().iter().map(|e| e.0).collect();
        assert_eq!(filed, live, "by_text and entries hold different ids");
        assert_eq!(c.len(), live.len());
        assert_eq!(c.iter().count(), live.len());
        for (hash, ids) in &c.by_text {
            assert!(!ids.is_empty(), "an emptied bucket must be dropped");
            for id in ids {
                assert_eq!(c.entries[id].text_hash, *hash);
            }
        }
    }

    #[test]
    fn evicted_text_comes_back_as_a_new_entry_then_refreshes() {
        let mut c = cache(2, EvictionPolicy::Lru);
        c.insert("alpha bravo charlie", "1", EntryKind::Original);
        c.insert("delta echo foxtrot", "2", EntryKind::Original);
        c.insert("golf hotel india", "3", EntryKind::Original); // evicts alpha
        assert_eq!(c.lookup("alpha bravo charlie"), Lookup::Miss);
        assert_filed(&c);
        // The evicted text left no ghost behind: it is inserted afresh
        // (evicting delta), not "refreshed" into an entry that is gone.
        c.insert("alpha bravo charlie", "4", EntryKind::Original);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 2);
        assert_filed(&c);
        // And now that it is live again, a repeat refreshes it in place.
        c.insert("alpha bravo charlie", "5", EntryKind::Original);
        assert_eq!(c.stats().evictions, 2);
        assert!(matches!(
            c.lookup("alpha bravo charlie"),
            Lookup::Reuse { response, .. } if response == "5"
        ));
        assert_filed(&c);
    }

    #[test]
    fn colliding_texts_stay_two_entries() {
        // Two texts forced onto one hash bucket: a hash match alone must
        // never pass for a verbatim match.
        let mut c = cache(2, EvictionPolicy::Lru);
        fn forged<'a>(c: &SemanticCache, text: &'a str) -> Probe<'a> {
            Probe { text_hash: 7, ..Probe::new(c.embedder(), text) }
        }
        c.insert_probed(forged(&c, "alpha bravo charlie"), "1", EntryKind::Original);
        c.insert_probed(forged(&c, "delta echo foxtrot"), "2", EntryKind::Original);
        assert_eq!(c.len(), 2);
        assert_eq!(c.by_text[&7].len(), 2);
        // A refresh through the shared bucket reaches the right entry.
        c.insert_probed(forged(&c, "delta echo foxtrot"), "2b", EntryKind::Original);
        assert_eq!(
            c.entries_by_id(),
            vec![
                (0, "alpha bravo charlie", "1", EntryKind::Original),
                (1, "delta echo foxtrot", "2b", EntryKind::Original),
            ]
        );
        assert_filed(&c);
        // Evicting one of the pair (alpha, the LRU) leaves the other filed.
        c.insert_probed(forged(&c, "golf hotel india"), "3", EntryKind::Original);
        assert_eq!(c.by_text[&7].len(), 2);
        assert_eq!(c.lookup("alpha bravo charlie"), Lookup::Miss);
        c.insert_probed(forged(&c, "delta echo foxtrot"), "2c", EntryKind::Original);
        assert_eq!(c.len(), 2, "delta was refreshed, not duplicated");
        assert_filed(&c);
    }

    #[test]
    fn text_map_tracks_entries_through_random_inserts() {
        use llmdm_rt::rand::rngs::SmallRng;
        use llmdm_rt::rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        for policy in [EvictionPolicy::Lru, EvictionPolicy::Lfu, EvictionPolicy::default()] {
            let mut c = cache(8, policy);
            for i in 0..1_000 {
                // 24 texts over 8 slots: fresh inserts, refreshes and
                // returns of evicted texts all occur.
                let q = format!("query shape number {} of the pool", rng.gen_range(0..24u32));
                c.insert(&q, &format!("response {i}"), EntryKind::Original);
                if rng.gen_bool(0.3) {
                    let _ = c.lookup(&q);
                }
                assert!(c.len() <= 8);
                assert_filed(&c);
            }
            assert_eq!(c.len(), 8);
        }
    }

    /// A text from a pool of 8 shapes × 40 numbers (320 > the larger
    /// capacity, so both capacities evict): same-shape neighbours land in
    /// the augment and stale bands, repeats reuse, shapes miss each other;
    /// multi-byte, lowercase-expanding and punctuation-only shapes are in,
    /// and one draw in a hundred is the empty text no embedder accepts.
    fn trace_text(rng: &mut llmdm_rt::rand::rngs::SmallRng) -> String {
        use llmdm_rt::rand::Rng;
        if rng.gen_range(0..100u32) == 0 {
            return String::new();
        }
        let n = rng.gen_range(0..40u32);
        match rng.gen_range(0..8u32) {
            0 => format!("What are the names of stadiums that had concerts in {}?", 2000 + n),
            1 => format!("median household income by postal region {n}"),
            2 => format!("list all singers ordered by age, page {n}"),
            3 => format!("total concert attendance per year since {}", 1980 + n),
            4 => format!("Émile's café on Straße {n}: 漢字 menu"),
            5 => format!("İSTANBUL weather for day {n}"),
            6 => format!("SELECT name FROM stadium WHERE stadium_id = {n}"),
            _ => format!("?!… — {n} …!?"),
        }
    }

    fn trace_digest(mut cache: SemanticCache, seed: u64) -> u64 {
        use llmdm_rt::hash::{combine, fnv1a_str};
        use llmdm_rt::rand::rngs::SmallRng;
        use llmdm_rt::rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut digest = seed;
        for _ in 0..5_000 {
            let q = trace_text(&mut rng);
            let outcome = match rng.gen_range(0..10u32) {
                0..=3 => {
                    // Half the responses are query-shaped, so the response
                    // index (when on) has something to match.
                    let r = if rng.gen_bool(0.5) {
                        trace_text(&mut rng)
                    } else {
                        format!("answer {}", rng.gen_range(0..1000u32))
                    };
                    let kind =
                        if rng.gen_bool(0.3) { EntryKind::SubQuery } else { EntryKind::Original };
                    cache.insert(&q, &r, kind);
                    "insert".to_string()
                }
                4..=7 => match cache.lookup(&q) {
                    Lookup::Reuse { response, similarity } => {
                        // The entry that answered is the one the lookup
                        // just touched.
                        let clock = cache.clock;
                        let e = cache.entries.values().find(|e| e.last_access == clock).unwrap();
                        let query = &e.query;
                        format!("hit Reuse {:08x} {query:?} {response:?}", similarity.to_bits())
                    }
                    Lookup::Augment { query, response, similarity } => {
                        format!("hit Augment {:08x} {query:?} {response:?}", similarity.to_bits())
                    }
                    Lookup::Miss => "miss".to_string(),
                },
                _ => match cache.serve_stale(&q) {
                    Some((query, response, sim)) => {
                        format!("stale {:08x} {query:?} {response:?}", sim.to_bits())
                    }
                    None => "stale-miss".to_string(),
                },
            };
            digest = combine(digest, fnv1a_str(&outcome));
        }
        let end_state = format!("{:?} {:?}", cache.stats(), cache.entries_by_id());
        combine(digest, fnv1a_str(&end_state))
    }

    /// Every outcome of a seeded trace — `Lookup` variant, similarity
    /// bits, returned text — the final counters and the survivors, over
    /// all three policies × response matching on/off × capacity 8/256,
    /// folded into one number. The constant is this fold computed at
    /// `1f32e45`, the last commit with a sharded cache: there the pinned
    /// digest also ran every trace through one and four shards, and it
    /// dated from before the probe refactor and the new embedding kernel.
    /// Nothing since may move it.
    #[test]
    fn seeded_trace_digest_is_pinned() {
        use llmdm_rt::hash::combine;
        let policies = [
            EvictionPolicy::Lru,
            EvictionPolicy::Lfu,
            EvictionPolicy::Weighted { reuse_weight: 4.0, augment_weight: 1.0 },
        ];
        let mut digest = 0u64;
        for (p, policy) in policies.into_iter().enumerate() {
            for match_responses in [false, true] {
                for capacity in [8usize, 256] {
                    let config = CacheConfig {
                        capacity,
                        policy,
                        match_responses,
                        seed: 42,
                        ..Default::default()
                    };
                    let seed = (p * 4 + usize::from(match_responses) * 2 + capacity / 256) as u64;
                    digest = combine(digest, trace_digest(SemanticCache::new(config), seed));
                }
            }
        }
        assert_eq!(digest, PINNED_TRACE_DIGEST, "got {digest:#018x}");
    }

    const PINNED_TRACE_DIGEST: u64 = 0x6e91_ab79_a77d_a179;

    #[test]
    fn capacity_one_still_works() {
        let mut c = cache(1, EvictionPolicy::Lru);
        c.insert("first entry text", "1", EntryKind::Original);
        c.insert("second entry text", "2", EntryKind::Original);
        assert_eq!(c.len(), 1);
    }
}
