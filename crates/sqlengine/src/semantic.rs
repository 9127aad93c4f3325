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
//! dollars from each call's own [`llmdm_model::Completion`]: to the
//! `SemScope` of the operator whose expression rendered the prompt,
//! which its `Env` carries, and to the statement's totals in its
//! `Cx`. Both are values the statement passes down; nothing here is
//! per-thread.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use llmdm_model::{
    CompletionRequest, LanguageModel, ModelError, ModelStack, ModelZoo, PromptEnvelope,
    PromptSolver, SolvedTask, UsageMeter,
};
use llmdm_rt::hash::fnv1a_str;
use llmdm_semcache::{shared_cache, CacheConfig, CacheStackExt, CacheStats, SharedCache};

use crate::error::SqlError;
use crate::exec::Cx;
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
pub(crate) struct SemCounters {
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

impl SemCounters {
    pub(crate) fn add(&mut self, other: SemCounters) {
        self.calls += other.calls;
        self.dedup_hits += other.dedup_hits;
        self.cache_hits += other.cache_hits;
        self.dollars += other.dollars;
    }
}

/// The prompt memo + counters for one executing semantic operator, which
/// owns it and lends it to every [`crate::eval::Env`] it evaluates in.
///
/// Implements the batch-dedup optimizer rule while preserving Volcano
/// streaming: rather than materializing the input to group identical
/// prompts up front, each operator memoizes completions per prompt, so
/// N rows rendering the same prompt cost one model call. Errors are
/// memoized too — a deterministic model fails a prompt identically every
/// time, and re-calling would double-bill.
#[derive(Debug, Default)]
pub(crate) struct SemScope {
    memo: RefCell<BTreeMap<String, Result<String, SqlError>>>,
    counters: RefCell<SemCounters>,
}

impl SemScope {
    /// Fresh scope for one operator of the statement `cx` runs, which
    /// from now on has semantic totals to report.
    pub(crate) fn new(cx: &Cx<'_>) -> SemScope {
        cx.count(SemCounters::default());
        SemScope::default()
    }

    /// Snapshot of the counters so far.
    pub(crate) fn counters(&self) -> SemCounters {
        *self.counters.borrow()
    }
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

/// Resolve one semantic prompt of the statement `cx` runs to its
/// completion text.
///
/// Routing: the evaluating operator's `scope` memo first (dedup hit —
/// free), then the session model stack (whose cache layer may answer
/// without a model call). Counters accrue on the scope and on the
/// statement's totals; without a scope the call is still metered
/// globally but unattributed to an operator (the direct oracle path, DML).
pub(crate) fn complete(
    cx: &Cx<'_>,
    scope: Option<&SemScope>,
    prompt: &str,
) -> Result<String, SqlError> {
    let Some(handle) = cx.db.model() else {
        return Err(SqlError::Model(
            "no session model attached — use Database::with_model / set_model".into(),
        ));
    };
    let hit = scope.and_then(|s| s.memo.borrow().get(prompt).cloned());
    let (result, delta) = match hit {
        Some(hit) => (hit, SemCounters { dedup_hits: 1, ..SemCounters::default() }),
        None => {
            let (result, delta) = call_model(handle, prompt);
            if let Some(s) = scope {
                s.memo.borrow_mut().insert(prompt.to_string(), result.clone());
            }
            (result, delta)
        }
    };
    if let Some(s) = scope {
        s.counters.borrow_mut().add(delta);
    }
    cx.count(delta);
    result
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

    use crate::catalog::Database;

    fn handle() -> ModelHandle {
        ModelHandle::sim(7)
    }

    /// Resolve `prompt` outside any operator, in a statement of its own
    /// on `h`.
    fn ask(h: &ModelHandle, prompt: &str) -> Result<String, SqlError> {
        complete(&Cx::new(&Database::new().with_model(h.clone())), None, prompt)
    }

    #[test]
    fn map_prompt_round_trips_through_solver() {
        let h = handle();
        let p = unary_prompt("map", "uppercase it", &Value::Str("hello".into()));
        let out = ask(&h, &p).unwrap();
        assert_eq!(out, "HELLO");
        // Deterministic: same prompt, same completion, and the cache
        // makes the repeat free.
        let calls = h.meter().snapshot().total_calls();
        let again = ask(&h, &p).unwrap();
        assert_eq!(again, "HELLO");
        assert_eq!(h.meter().snapshot().total_calls(), calls);
    }

    #[test]
    fn filter_and_match_parse_as_booleans() {
        let h = handle();
        let p = unary_prompt("filter", "is it even?", &Value::Int(4));
        assert!(parse_bool(&ask(&h, &p).unwrap()).unwrap());
        let p = unary_prompt("filter", "is it even?", &Value::Int(3));
        assert!(!parse_bool(&ask(&h, &p).unwrap()).unwrap());
        let p = match_prompt("same thing?", &Value::Str("The Beatles".into()), &Value::Str("the beatles ".into()));
        assert!(parse_bool(&ask(&h, &p).unwrap()).unwrap());
        let p = match_prompt("exact match", &Value::Str("The Beatles".into()), &Value::Str("the beatles".into()));
        assert!(!parse_bool(&ask(&h, &p).unwrap()).unwrap());
    }

    #[test]
    fn scope_memoizes_and_counts() {
        let h = handle();
        let db = Database::new().with_model(h.clone());
        let cx = Cx::new(&db);
        let scope = SemScope::new(&cx);
        let p = unary_prompt("map", "categorize", &Value::Str("x".into()));
        for _ in 0..5 {
            complete(&cx, Some(&scope), &p).unwrap();
        }
        let c = scope.counters();
        assert_eq!(c.calls, 1, "one model call fans out to N rows");
        assert_eq!(c.dedup_hits, 4);
        assert!(c.dollars > 0.0);
        // Dollars attributed to the scope equal the meter's total, and the
        // statement's totals are the scope's.
        assert!((c.dollars - h.meter().snapshot().total_dollars()).abs() < 1e-9);
        assert_eq!(cx.tally(), Some(c));
    }

    #[test]
    fn no_model_attached_is_a_model_error() {
        let p = unary_prompt("map", "x", &Value::Int(1));
        match complete(&Cx::new(&Database::new()), None, &p) {
            Err(SqlError::Model(m)) => assert!(m.contains("no session model")),
            other => panic!("expected Model error, got {other:?}"),
        }
    }

    #[test]
    fn nested_scopes_route_to_innermost() {
        let db = products_and_reviews();
        let cx = Cx::new(&db);
        let (outer, inner) = (SemScope::new(&cx), SemScope::new(&cx));
        let p = unary_prompt("filter", "positive?", &Value::Str("great".into()));
        complete(&cx, Some(&inner), &p).unwrap();
        assert_eq!(inner.counters().calls, 1);
        assert_eq!(outer.counters().calls, 0);
        // A subquery evaluated for the outer operator resolves its prompts
        // in the scopes of its own operators: the statement counts them,
        // the outer scope does not.
        let sub = "(SELECT COUNT(*) FROM reviews WHERE LLM_FILTER(product, 'non-empty'))";
        let sub = crate::parser::parse_expr(sub).unwrap();
        let env = crate::eval::Env::empty(&cx).scoped(Some(&outer));
        assert_eq!(crate::eval::eval(&sub, &env).unwrap(), Value::Int(3));
        assert_eq!(outer.counters(), SemCounters::default());
        assert_eq!(cx.tally().unwrap().calls, 1 + 3);
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
        assert!(parse_bool(&ask(&h, &p).unwrap()).is_ok());
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

    fn products_and_reviews() -> crate::catalog::Database {
        let mut db = crate::catalog::Database::new().with_model(ModelHandle::sim(7));
        db.execute_script(
            "CREATE TABLE products (id INT, name TEXT); \
             CREATE TABLE reviews (rid INT, product TEXT); \
             INSERT INTO products VALUES (1, 'ARENA'), (2, 'dome'), (3, 'BOWL'), (4, 'field'); \
             INSERT INTO reviews VALUES (10, 'arena'), (11, 'bowl'), (12, 'pier')",
        )
        .unwrap();
        db
    }

    /// The `calls=` and `dollars=$` values of an `llm:` totals line.
    fn calls_and_dollars(line: &str) -> (u64, String) {
        (field(line, "calls=").parse().unwrap(), field(line, "dollars=$").to_string())
    }

    /// The value after `key` in an `EXPLAIN ANALYZE` line.
    fn field<'l>(line: &'l str, key: &str) -> &'l str {
        let at = line.find(key).unwrap_or_else(|| panic!("no {key}: {line}"));
        line[at + key.len()..].split([' ', ')']).next().unwrap()
    }

    #[test]
    fn statement_totals_count_the_calls_subqueries_make() {
        for sql in [
            "SELECT name FROM products \
             WHERE name IN (SELECT LLM_MAP(product, 'upper') FROM reviews)",
            "SELECT name FROM products \
             WHERE id < (SELECT COUNT(*) FROM reviews WHERE LLM_FILTER(product, 'non-empty'))",
            "SELECT name FROM products \
             WHERE EXISTS (SELECT rid FROM reviews WHERE LLM_FILTER(product, 'positive'))",
        ] {
            let mut db = products_and_reviews();
            let meter = db.model().unwrap().meter().clone();
            let before = meter.snapshot();
            let lines = llm_counters(&mut db, sql);
            let after = meter.snapshot();
            let totals = lines.last().filter(|l| l.starts_with("llm: ")).unwrap_or_else(|| {
                panic!("no llm: line for {sql}: {lines:?}");
            });
            let (calls, dollars) = calls_and_dollars(totals);
            assert_eq!(calls, after.total_calls() - before.total_calls(), "{sql}");
            assert!(calls > 0, "{sql}");
            let billed = after.total_dollars() - before.total_dollars();
            assert_eq!(dollars, format!("{billed:.9}"), "{sql}");
        }
    }

    #[test]
    fn a_semantic_subquery_inside_a_semantic_operator_keeps_its_calls() {
        let sql = "SELECT LLM_MAP((SELECT MAX(product) FROM reviews \
                   WHERE LLM_FILTER(product, 'non-empty')), 'upper') FROM products";
        // Without a cache, a subquery run once per product row would
        // prompt its three reviews four times over.
        for handle in [ModelHandle::sim(7), ModelHandle::sim_uncached(7)] {
            let cached = handle.cache().is_some();
            let mut db = products_and_reviews().with_model(handle);
            let meter = db.model().unwrap().meter().clone();
            let before = meter.snapshot();
            let lines = llm_counters(&mut db, sql);
            let after = meter.snapshot();
            let [outer, totals] = &lines[..] else {
                panic!("one operator and the totals: {lines:?}")
            };
            // The map renders one prompt per product row; the filter
            // prompts the subquery resolves on the first of those rows are
            // the subquery's, and the other rows reuse its result.
            let own = ["llm_calls=", "dedup_hits=", "cache_hits="].map(|k| field(outer, k));
            assert_eq!(own, ["1", "3", "0"], "cached {cached}: {outer}");
            let (calls, dollars) = calls_and_dollars(totals);
            assert_eq!(calls, after.total_calls() - before.total_calls(), "cached {cached}");
            assert_eq!(calls, 3 + 1, "one subquery run and the map, cached {cached}: {totals}");
            let billed = after.total_dollars() - before.total_dollars();
            assert_eq!(dollars, format!("{billed:.9}"), "cached {cached}");
            let crate::ast::Statement::Select(stmt) = crate::parser::parse_statement(sql).unwrap()
            else {
                unreachable!()
            };
            let direct = crate::exec::execute_select_direct(&db, &stmt).unwrap();
            let planned = db.query(sql).unwrap();
            assert!(planned.bit_eq(&direct), "cached {cached}: {planned:?} vs {direct:?}");
            assert_eq!(planned.rows.len(), 4);
        }
    }

    #[test]
    fn an_empty_group_prompts_in_its_aggregates_scope() {
        // No product passes the filter: the map runs once, for the global
        // aggregate's empty group, and is billed to the aggregate.
        let mut db = products_and_reviews();
        let sql = "SELECT LLM_MAP('x', 'upper'), COUNT(*) FROM products WHERE id > 99";
        let lines = llm_counters(&mut db, sql);
        let [aggregate, totals] = &lines[..] else { panic!("{lines:?}") };
        assert_eq!(field(aggregate, "llm_calls="), "1", "{aggregate}");
        assert_eq!(calls_and_dollars(totals), (1, field(aggregate, "dollars=$").to_string()));
    }

    #[test]
    fn rows_failing_a_cheap_conjunct_never_reach_the_model() {
        // Written first, the semantic conjunct still runs after `id > 2`:
        // four distinct names, two of them prompted.
        let mut db = products_and_reviews();
        let meter = db.model().unwrap().meter().clone();
        let sql = "SELECT name FROM products WHERE LLM_FILTER(name, 'non-empty') AND id > 2";
        assert_eq!(db.query(sql).unwrap().rows.len(), 2);
        assert_eq!(meter.snapshot().total_calls(), 2);
    }

    #[test]
    fn explain_leaves_the_meter_and_the_cache_alone() {
        let mut db = products_and_reviews();
        let handle = db.model().unwrap().clone();
        for sql in [
            "SELECT LLM_MAP(name, 'upper') FROM products",
            "SELECT name FROM products WHERE LLM_FILTER(name, 'non-empty')",
            "SELECT p.name, r.rid FROM products p \
             JOIN reviews r ON LLM_MATCH(p.name, r.product, 'same?')",
        ] {
            let (calls, stats) = (handle.meter().snapshot().total_calls(), handle.cache_stats());
            let plan = db.query(&format!("EXPLAIN {sql}")).unwrap();
            assert!(plan.rows.len() > 2, "{sql}");
            assert_eq!(handle.meter().snapshot().total_calls(), calls, "{sql}");
            assert_eq!(handle.cache_stats(), stats, "{sql}");
            // The same statement run for real does reach the model.
            db.query(sql).unwrap();
            assert_ne!(handle.cache_stats(), stats, "{sql}");
        }
    }
}
