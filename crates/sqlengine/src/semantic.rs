//! Semantic SQL support: the session model seam, prompt construction,
//! completion parsing, the per-operator dedup scope, and the deterministic
//! `semsql` solver the simulated models use in tests and benches.
//!
//! The paper's §III query-optimization vision embeds LLM invocations
//! directly in relational plans. Three operators realize that here:
//!
//! * `LLM_MAP(expr, 'prompt')` — semantic projection; evaluates `expr`,
//!   renders it into a prompt, returns the completion as TEXT.
//! * `LLM_FILTER(expr, 'prompt')` — semantic predicate; the completion is
//!   parsed as a boolean.
//! * `LLM_MATCH(a, b, 'prompt')` — semantic equality, the ON predicate of
//!   `LLM_JOIN`; the completion is parsed as a boolean.
//!
//! NULL inputs never reach the model: the operator returns NULL (map) or
//! FALSE-excluded NULL (filter/match) without a call, mirroring ordinary
//! SQL three-valued logic.
//!
//! Every call routes through a [`ModelHandle`] attached to the session
//! (`Database::with_model`). The handle carries the composed model stack
//! (tier, retry, semantic cache), the [`UsageMeter`] it is billed on, and
//! the [`SharedCache`] so the planner can read live [`CacheStats`] for
//! cost estimation. EXPLAIN ANALYZE attributes calls, cache hits and
//! dollars from each call's own [`llmdm_model::Completion`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use llmdm_model::{
    CompletionRequest, LanguageModel, ModelError, ModelStack, ModelZoo, PromptEnvelope,
    PromptSolver, SolvedTask, UsageMeter,
};
use llmdm_rt::hash::fnv1a_str;
use llmdm_semcache::{shared_cache, CacheConfig, CacheStackExt, CacheStats, SharedCache};

use crate::error::SqlError;
use crate::value::Value;

// ---------------------------------------------------------------------------
// ModelHandle: the session seam
// ---------------------------------------------------------------------------

/// The per-session LLM handle semantic operators route through.
///
/// Cloning is cheap (everything inside is `Arc`-shared); a clone meters
/// into the same [`UsageMeter`] and probes the same cache.
#[derive(Clone)]
pub struct ModelHandle {
    model: Arc<dyn LanguageModel>,
    meter: UsageMeter,
    cache: Option<SharedCache>,
}

impl fmt::Debug for ModelHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelHandle")
            .field("model", &self.model.name())
            .field("cached", &self.cache.is_some())
            .finish()
    }
}

impl ModelHandle {
    /// Wrap an already-built model with the meter it bills into.
    pub fn new(model: Arc<dyn LanguageModel>, meter: UsageMeter) -> Self {
        ModelHandle { model, meter, cache: None }
    }

    /// Attach the semantic cache the model stack probes, so the planner
    /// can read its live hit ratio.
    pub fn with_cache(mut self, cache: SharedCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The composed model.
    pub fn model(&self) -> &Arc<dyn LanguageModel> {
        &self.model
    }

    /// The meter this handle bills into (dollar source of truth).
    pub fn meter(&self) -> &UsageMeter {
        &self.meter
    }

    /// The attached semantic cache, if any.
    pub fn cache(&self) -> Option<&SharedCache> {
        self.cache.as_ref()
    }

    /// Live cache counters (zeroed default when no cache is attached).
    pub fn cache_stats(&self) -> CacheStats {
        match &self.cache {
            Some(c) => llmdm_rt::lock_recover(c).stats(),
            None => CacheStats::default(),
        }
    }

    /// Live cache hit ratio in `[0, 1]`; `0.0` without a cache or before
    /// any lookups. Feeds the planner's cache-aware call estimates.
    pub fn cache_hit_ratio(&self) -> f64 {
        self.cache_stats().hit_ratio()
    }

    /// Expected dollars for one more model call: the meter's observed
    /// per-call average when there is history, otherwise a nominal
    /// 256-in/16-out-token call priced for the stack's base model (layer
    /// suffixes like `+cache` stripped from the name).
    pub fn estimated_call_dollars(&self) -> f64 {
        let snap = self.meter.snapshot();
        if snap.total_calls() > 0 {
            return snap.total_dollars() / snap.total_calls() as f64;
        }
        let name = self.model.name();
        let base = name.split('+').next().unwrap_or(name);
        self.meter.prices().get(base).map(|p| p.cost(256, 16)).unwrap_or(0.0)
    }

    /// The full deterministic test stack: large sim tier with the
    /// [`SemSqlSolver`] registered, resil retry, semantic cache on top,
    /// billed on the zoo's meter. Byte-reproducible for a given `seed` —
    /// sim completions are keyed on `(model seed, prompt)` only, so call
    /// order and dedup never change results.
    pub fn sim(seed: u64) -> Self {
        let zoo = ModelZoo::standard(seed);
        zoo.register_solver(Arc::new(SemSqlSolver));
        let meter = zoo.meter().clone();
        // Exact-reuse thresholds: similarity-based reuse would let one
        // row's completion answer a *different* row's prompt, and
        // augment-rewrites would key completions on cache state — both
        // make results depend on operator evaluation order, which the
        // planner deliberately changes (dedup, predicate reordering).
        // Identical prompts embed identically (cosine ≈ 1.0); everything
        // else must miss for planner ≡ direct to hold by construction —
        // also the stale fallback a retryable model failure takes.
        let cache = shared_cache(CacheConfig {
            reuse_threshold: 0.9999,
            augment_threshold: 0.9999,
            stale_threshold: 0.9999,
            ..CacheConfig::default()
        });
        let model =
            ModelStack::new(&zoo).with_default_retry().with_cache(cache.clone()).build_arc();
        ModelHandle { model, meter, cache: Some(cache) }
    }

    /// [`ModelHandle::sim`] without the semantic cache: every prompt that
    /// isn't deduped inside an operator is a billed model call. This is
    /// the baseline benchmarks compare against to isolate what operator
    /// dedup saves versus what the cache saves.
    pub fn sim_uncached(seed: u64) -> Self {
        let zoo = ModelZoo::standard(seed);
        zoo.register_solver(Arc::new(SemSqlSolver));
        let meter = zoo.meter().clone();
        let model = ModelStack::new(&zoo).with_default_retry().build_arc();
        ModelHandle { model, meter, cache: None }
    }
}

// ---------------------------------------------------------------------------
// Prompt construction + completion parsing
// ---------------------------------------------------------------------------

/// Header values must stay single-line; templates are user text.
fn sanitize_header(s: &str) -> String {
    s.replace(['\n', '\r'], " ")
}

/// Render an evaluated SQL value into prompt body text. Strings are raw
/// (no quotes) — the model sees the data, not SQL syntax.
fn render_prompt_value(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Str(s) => s.clone(),
        Value::Bool(b) => if *b { "true" } else { "false" }.into(),
        other => other.to_string(),
    }
}

/// Escape a value for the two-sided `LLM_MATCH` body (one line per side).
fn escape_line(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n").replace('\r', "\\r")
}

/// Build the prompt for `LLM_MAP` / `LLM_FILTER` over one input value.
pub fn unary_prompt(op: &str, template: &str, value: &Value) -> String {
    PromptEnvelope::builder("semsql")
        .header("op", op)
        .header("template", sanitize_header(template))
        .body(render_prompt_value(value))
        .build()
}

/// Build the prompt for `LLM_MATCH` over a pair of values.
pub fn match_prompt(template: &str, left: &Value, right: &Value) -> String {
    PromptEnvelope::builder("semsql")
        .header("op", "match")
        .header("template", sanitize_header(template))
        .body(format!(
            "left: {}\nright: {}",
            escape_line(&render_prompt_value(left)),
            escape_line(&render_prompt_value(right))
        ))
        .build()
}

/// Parse a completion as a semantic-predicate boolean.
pub fn parse_bool(text: &str) -> Result<bool, SqlError> {
    match text.trim().to_ascii_lowercase().as_str() {
        "true" | "yes" => Ok(true),
        "false" | "no" => Ok(false),
        other => Err(SqlError::Model(format!(
            "unparseable boolean completion: {:?}",
            other.chars().take(40).collect::<String>()
        ))),
    }
}

// ---------------------------------------------------------------------------
// Per-operator dedup scope
// ---------------------------------------------------------------------------

/// Counters one semantic operator accumulates while executing; copied
/// into its `OpStat` for EXPLAIN ANALYZE.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SemCounters {
    /// Model invocations actually issued (cache reuse hits don't count).
    pub calls: u64,
    /// Prompts answered from this operator's memo without any model-stack
    /// probe (the batch-dedup rule: one call fans out to N rows).
    pub dedup_hits: u64,
    /// Prompts answered by the semantic cache (stack probed, model not).
    pub cache_hits: u64,
    /// Dollars billed by this operator's calls: the sum of their
    /// completions' `cost`.
    pub dollars: f64,
}

/// The prompt memo + counters for one executing semantic operator.
///
/// Implements the batch-dedup optimizer rule while preserving Volcano
/// streaming: rather than materializing the input to group identical
/// prompts up front, each operator memoizes completions per prompt, so
/// N rows rendering the same prompt cost one model call. Errors are
/// memoized too — a deterministic model fails a prompt identically every
/// time, and re-calling would double-bill.
#[derive(Debug, Default)]
pub struct SemScope {
    memo: RefCell<BTreeMap<String, Result<String, SqlError>>>,
    counters: RefCell<SemCounters>,
}

impl SemScope {
    /// Fresh scope for one operator execution.
    pub fn new() -> Rc<SemScope> {
        Rc::new(SemScope::default())
    }

    /// Snapshot of the counters so far.
    pub fn counters(&self) -> SemCounters {
        *self.counters.borrow()
    }
}

thread_local! {
    /// Stack of scopes for the semantic operators currently executing on
    /// this thread. `eval` routes prompts through the innermost scope;
    /// with no scope (the differential oracle's direct path) prompts go
    /// straight to the model, un-memoized.
    static SEM_SCOPES: RefCell<Vec<Rc<SemScope>>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard pushing `scope` for the duration of an operator's `next()`.
pub struct ScopeGuard;

impl ScopeGuard {
    /// Enter `scope`; popped on drop.
    pub fn enter(scope: Rc<SemScope>) -> ScopeGuard {
        SEM_SCOPES.with(|s| s.borrow_mut().push(scope));
        ScopeGuard
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SEM_SCOPES.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

fn current_scope() -> Option<Rc<SemScope>> {
    SEM_SCOPES.with(|s| s.borrow().last().cloned())
}

// ---------------------------------------------------------------------------
// The completion path
// ---------------------------------------------------------------------------

/// Issue one prompt through the session handle. The counters come from
/// the call's own completion, never from the shared meter or cache, so a
/// concurrent query's calls cannot land in this operator's numbers. A
/// failed call counts as one call and zero dollars.
fn call_model(handle: &ModelHandle, prompt: &str) -> (Result<String, SqlError>, SemCounters) {
    match handle.model().complete(&CompletionRequest::new(prompt)) {
        Ok(c) => {
            let counters = SemCounters {
                calls: u64::from(!c.cached),
                dedup_hits: 0,
                cache_hits: u64::from(c.cached),
                dollars: c.cost,
            };
            (Ok(c.text), counters)
        }
        Err(e) => {
            let counters = SemCounters { calls: 1, ..SemCounters::default() };
            (Err(SqlError::Model(e.to_string())), counters)
        }
    }
}

/// Resolve one semantic prompt to its completion text.
///
/// Routing: innermost [`SemScope`] memo first (dedup hit — free), then
/// the model stack (whose cache layer may answer without a model call).
/// Counters accrue on the scope; without a scope the call is still
/// metered globally but unattributed (the direct oracle path).
pub fn complete(handle: Option<&ModelHandle>, prompt: &str) -> Result<String, SqlError> {
    let Some(handle) = handle else {
        return Err(SqlError::Model(
            "no session model attached — use Database::with_model / set_model".into(),
        ));
    };
    match current_scope() {
        Some(scope) => {
            if let Some(hit) = scope.memo.borrow().get(prompt) {
                scope.counters.borrow_mut().dedup_hits += 1;
                return hit.clone();
            }
            let (result, delta) = call_model(handle, prompt);
            scope.memo.borrow_mut().insert(prompt.to_string(), result.clone());
            let mut c = scope.counters.borrow_mut();
            c.calls += delta.calls;
            c.cache_hits += delta.cache_hits;
            c.dollars += delta.dollars;
            result
        }
        None => call_model(handle, prompt).0,
    }
}

// ---------------------------------------------------------------------------
// The deterministic semsql solver
// ---------------------------------------------------------------------------

const POSITIVE_WORDS: &[&str] = &["good", "great", "love", "happy", "excellent", "wonderful"];
const NEGATIVE_WORDS: &[&str] = &["bad", "terrible", "hate", "awful", "sad", "broken"];

fn sentiment(text: &str) -> &'static str {
    let lower = text.to_ascii_lowercase();
    let pos = POSITIVE_WORDS.iter().filter(|w| lower.contains(*w)).count();
    let neg = NEGATIVE_WORDS.iter().filter(|w| lower.contains(*w)).count();
    match pos.cmp(&neg) {
        std::cmp::Ordering::Greater => "positive",
        std::cmp::Ordering::Less => "negative",
        std::cmp::Ordering::Equal => "neutral",
    }
}

/// Lowercased alphanumeric characters only — the normalization
/// `LLM_MATCH` uses for its default "same thing?" semantics.
fn normalize(text: &str) -> String {
    text.chars().filter(|c| c.is_ascii_alphanumeric()).map(|c| c.to_ascii_lowercase()).collect()
}

/// The deterministic solver behind the `semsql` prompt task.
///
/// Template keywords select the behavior (so tests and benches can pick
/// semantics in the query text): `upper`, `lower`, `length`, `sentiment`
/// for maps; `non-empty`, `positive`, `even` for filters; `exact` for
/// matches (default is normalized equality). Unrecognized map templates
/// produce a stable `c<n>` category label; unrecognized filter templates
/// a stable hash-derived boolean. A template containing `garbled`
/// advertises an unparseable alternative, giving tests a deterministic
/// model-side error path (the corrupted completion fails `parse_bool`).
pub struct SemSqlSolver;

impl PromptSolver for SemSqlSolver {
    fn task_id(&self) -> &str {
        "semsql"
    }

    fn solve(&self, env: &PromptEnvelope) -> Result<SolvedTask, ModelError> {
        let op = env.get("op").ok_or_else(|| ModelError::MalformedPayload {
            task: "semsql".into(),
            reason: "missing op header".into(),
        })?;
        let template = env.get("template").unwrap_or("").to_ascii_lowercase();
        let body = env.body.trim();
        let difficulty = if template.contains("hard") { 0.95 } else { 0.02 };
        match op {
            "map" => {
                let answer = if template.contains("upper") {
                    body.to_uppercase()
                } else if template.contains("lower") {
                    body.to_lowercase()
                } else if template.contains("length") {
                    body.chars().count().to_string()
                } else if template.contains("sentiment") {
                    sentiment(body).to_string()
                } else {
                    format!("c{}", fnv1a_str(&format!("{template}\u{1}{body}")) % 4)
                };
                Ok(SolvedTask::new(answer, difficulty))
            }
            "filter" => {
                let truth = if template.contains("non-empty") {
                    !body.is_empty()
                } else if template.contains("positive") {
                    sentiment(body) == "positive"
                } else if template.contains("even") {
                    body.parse::<i64>().map(|n| n % 2 == 0).unwrap_or(false)
                } else {
                    fnv1a_str(&format!("{template}\u{1}{body}")) % 2 == 0
                };
                let (ans, alt) = if truth { ("true", "false") } else { ("false", "true") };
                let alts = if template.contains("garbled") {
                    vec!["(static)".to_string()]
                } else {
                    vec![alt.to_string()]
                };
                Ok(SolvedTask::new(ans, difficulty).with_alternatives(alts))
            }
            "match" => {
                let (left, right) = split_match_body(body).ok_or_else(|| {
                    ModelError::MalformedPayload {
                        task: "semsql".into(),
                        reason: "match body must be `left: …\\nright: …`".into(),
                    }
                })?;
                let truth = if template.contains("exact") {
                    left == right
                } else {
                    normalize(left) == normalize(right)
                };
                let (ans, alt) = if truth { ("true", "false") } else { ("false", "true") };
                let alts = if template.contains("garbled") {
                    vec!["(static)".to_string()]
                } else {
                    vec![alt.to_string()]
                };
                Ok(SolvedTask::new(ans, difficulty).with_alternatives(alts))
            }
            other => Err(ModelError::MalformedPayload {
                task: "semsql".into(),
                reason: format!("unknown op {other:?}"),
            }),
        }
    }
}

fn split_match_body(body: &str) -> Option<(&str, &str)> {
    let mut lines = body.lines();
    let left = lines.next()?.strip_prefix("left: ")?;
    let right = lines.next()?.strip_prefix("right: ")?;
    Some((left, right))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle() -> ModelHandle {
        ModelHandle::sim(7)
    }

    #[test]
    fn map_prompt_round_trips_through_solver() {
        let h = handle();
        let p = unary_prompt("map", "uppercase it", &Value::Str("hello".into()));
        let out = complete(Some(&h), &p).unwrap();
        assert_eq!(out, "HELLO");
        // Deterministic: same prompt, same completion, and the cache
        // makes the repeat free.
        let calls = h.meter().snapshot().total_calls();
        let again = complete(Some(&h), &p).unwrap();
        assert_eq!(again, "HELLO");
        assert_eq!(h.meter().snapshot().total_calls(), calls);
    }

    #[test]
    fn filter_and_match_parse_as_booleans() {
        let h = handle();
        let p = unary_prompt("filter", "is it even?", &Value::Int(4));
        assert!(parse_bool(&complete(Some(&h), &p).unwrap()).unwrap());
        let p = unary_prompt("filter", "is it even?", &Value::Int(3));
        assert!(!parse_bool(&complete(Some(&h), &p).unwrap()).unwrap());
        let p = match_prompt("same thing?", &Value::Str("The Beatles".into()), &Value::Str("the beatles ".into()));
        assert!(parse_bool(&complete(Some(&h), &p).unwrap()).unwrap());
        let p = match_prompt("exact match", &Value::Str("The Beatles".into()), &Value::Str("the beatles".into()));
        assert!(!parse_bool(&complete(Some(&h), &p).unwrap()).unwrap());
    }

    #[test]
    fn scope_memoizes_and_counts() {
        let h = handle();
        let scope = SemScope::new();
        let p = unary_prompt("map", "categorize", &Value::Str("x".into()));
        {
            let _g = ScopeGuard::enter(scope.clone());
            for _ in 0..5 {
                complete(Some(&h), &p).unwrap();
            }
        }
        let c = scope.counters();
        assert_eq!(c.calls, 1, "one model call fans out to N rows");
        assert_eq!(c.dedup_hits, 4);
        assert!(c.dollars > 0.0);
        // Dollars attributed to the scope equal the meter's total.
        assert!((c.dollars - h.meter().snapshot().total_dollars()).abs() < 1e-9);
    }

    #[test]
    fn no_model_attached_is_a_model_error() {
        let p = unary_prompt("map", "x", &Value::Int(1));
        match complete(None, &p) {
            Err(SqlError::Model(m)) => assert!(m.contains("no session model")),
            other => panic!("expected Model error, got {other:?}"),
        }
    }

    #[test]
    fn nested_scopes_route_to_innermost() {
        let h = handle();
        let outer = SemScope::new();
        let inner = SemScope::new();
        let p = unary_prompt("filter", "positive?", &Value::Str("great".into()));
        let _g1 = ScopeGuard::enter(outer.clone());
        {
            let _g2 = ScopeGuard::enter(inner.clone());
            complete(Some(&h), &p).unwrap();
        }
        assert_eq!(inner.counters().calls, 1);
        assert_eq!(outer.counters().calls, 0);
    }

    #[test]
    fn multiline_values_stay_parseable_in_match_prompts() {
        let h = handle();
        let p = match_prompt(
            "same?",
            &Value::Str("line1\nline2".into()),
            &Value::Str("LINE1 LINE2".into()),
        );
        // Normalized equality strips the escaped newline markers... they
        // differ ("\\n" vs " "), but both normalize to "line1nline2" vs
        // "line1line2"? Either way: must not error.
        assert!(parse_bool(&complete(Some(&h), &p).unwrap()).is_ok());
    }

    /// Stands in for a second worker on the same stack: before each call
    /// it completes one fixed prompt of its own through the cached stack,
    /// so the shared meter and cache move while the operator's call runs.
    struct Interleaved {
        stack: Arc<dyn LanguageModel>,
        other: String,
    }

    impl LanguageModel for Interleaved {
        fn name(&self) -> &str {
            self.stack.name()
        }

        fn complete(&self, req: &CompletionRequest) -> Result<llmdm_model::Completion, ModelError> {
            self.stack.complete(&CompletionRequest::new(self.other.as_str()))?;
            self.stack.complete(req)
        }

        fn context_window(&self) -> usize {
            self.stack.context_window()
        }
    }

    /// The `llm_calls=… dollars=…` tail of every analyzed operator line
    /// and the query's `llm:` totals line.
    fn llm_counters(db: &mut crate::catalog::Database, sql: &str) -> Vec<String> {
        let rs = db.query(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        rs.rows
            .iter()
            .filter_map(|row| match &row[0] {
                Value::Str(line) => line
                    .find(" llm_calls=")
                    .map(|i| line[i..].to_string())
                    .or_else(|| line.starts_with("llm: ").then(|| line.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn operator_counters_ignore_calls_interleaved_on_the_shared_stack() {
        let sql =
            "SELECT LLM_MAP(name, 'upper') FROM t WHERE LLM_FILTER(body, 'positive sentiment?')";
        let script = "CREATE TABLE t (id INT, name TEXT, body TEXT); \
             INSERT INTO t VALUES (1, 'arena', 'great venue'), (2, 'dome', 'awful parking'), \
             (3, 'arena', 'great venue'), (4, 'bowl', 'love it'), (5, 'field', 'great venue')";
        let db_with = |handle: ModelHandle| {
            let mut db = crate::catalog::Database::new().with_model(handle);
            db.execute_script(script).unwrap();
            db
        };
        let shared = ModelHandle::sim(7);
        let interleaved = ModelHandle::new(
            Arc::new(Interleaved {
                stack: shared.model().clone(),
                other: unary_prompt("map", "upper", &Value::Str("elsewhere".into())),
            }),
            shared.meter().clone(),
        )
        .with_cache(shared.cache().unwrap().clone());
        let mut plain = db_with(ModelHandle::sim(7));
        let mut busy = db_with(interleaved);
        // The second run is answered by the cache: counters must attribute
        // those hits too.
        for run in 0..2 {
            let want = llm_counters(&mut plain, sql);
            assert!(want.len() == 3, "two operators and the totals: {want:?}");
            assert_eq!(llm_counters(&mut busy, sql), want, "run {run}");
        }
        // The other worker's calls were billed, just not to the query.
        let other = shared.meter().snapshot().total_calls();
        assert_eq!(other, plain.model().unwrap().meter().snapshot().total_calls() + 1);
    }
}
