//! Trace the whole Figure-1 pipeline and export it two ways.
//!
//! Run with `cargo run -p llmdm --example trace_pipeline`.
//!
//! Enables the global `llmdm-obs` recorder, drives every paper mechanism —
//! the four Figure-1 stages, SQL execution, a cascade, a semantic cache in
//! front of vector search, and NL2SQL decomposition — then writes:
//!
//! * `TRACE_pipeline.json` — machine-readable spans + counters +
//!   histograms (stamped with git rev/seed/timestamp), with the semantic
//!   cache's [`CacheStats`] embedded as a `semcache` section;
//! * a human-readable flame-style tree on stdout.
//!
//! The example validates its own output (re-parses the JSON, checks that
//! spans from at least six crates are present, that histograms carry
//! p50/p99, and that model spans carry token/cost fields) and exits
//! non-zero on any failure — `scripts/verify.sh` runs it as a smoke test.



use llmdm::cascade::{CascadeRouter, DecisionModel, HotpotConfig, HotpotWorkload};
use llmdm::model::prelude::*;
use llmdm::nlq::{ExamplePool, PromptBuilder, Workload, WorkloadConfig};
use llmdm::obs::Report;
use llmdm::rt::json::Json;
use llmdm::semcache::{shared_cache, CacheConfig, CachedModel};
use llmdm::transform::Grid;
use llmdm::DataManager;

const SEED: u64 = 42;

fn main() {
    llmdm::obs::enable();
    llmdm::obs::reset();

    let cache_stats = {
        let _run = llmdm::obs::span("core.pipeline.run");
        run_pipeline()
    };

    let report = llmdm::obs::snapshot();
    let extra =
        vec![("semcache".to_string(), cache_stats.to_json())];
    let dir = llmdm::rt::bench::report_dir();
    let path = report
        .write_trace(&dir, "pipeline", Some(SEED), &extra)
        .expect("trace written");

    println!("{}", report.render_text());
    println!("wrote {}", path.display());

    validate(&report, &path);
    println!("trace validated: {} spans across crates {:?}", report.spans.len(), report.span_crates());
}

/// Drive every instrumented subsystem once; returns the cache stats for
/// embedding in the trace.
fn run_pipeline() -> llmdm::semcache::CacheStats {
    // ---- Transformation: JSON + messy spreadsheet ingestion. ----
    let mut dm = DataManager::new(SEED);
    dm.ingest_json(
        "orders",
        r#"[{"id": 1, "customer": "alice", "total": 120},
            {"id": 2, "customer": "bob", "total": 80},
            {"id": 3, "customer": "alice", "total": 95}]"#,
    )
    .expect("json ingests");
    let grid: Grid = vec![
        vec!["Quarterly Report".into(), "".into(), "".into()],
        vec!["product".into(), "region".into(), "units".into()],
        vec!["widget".into(), "east".into(), "10".into()],
        vec!["gadget".into(), "west".into(), "20".into()],
    ];
    dm.ingest_spreadsheet("sales", &grid).expect("spreadsheet ingests");

    // ---- Integration: clean. ----
    dm.clean_table("orders", &[("customer", "customer")]).expect("clean runs");

    // ---- Exploration: lake + search. ----
    dm.build_lake(&[("notes", "alice is our best customer")]).expect("lake builds");
    dm.lake().search("best customer alice", 2).expect("lake searches");

    // ---- Generation: SQL synthesis + execution through the engine. ----
    dm.generate_sql(4);
    dm.database_mut()
        .query("SELECT customer, SUM(total) FROM orders GROUP BY customer")
        .expect("sql executes");

    // ---- Cascade over a QA workload. ----
    let zoo = dm.zoo();
    let workload =
        HotpotWorkload::generate(HotpotConfig { n: 8, seed: SEED, ..Default::default() });
    let router = CascadeRouter::new(zoo.cascade_order(), DecisionModel::new(), 0.55);
    for item in &workload.items {
        router.answer(&item.prompt()).expect("cascade answers");
    }

    // ---- Semantic cache in front of NL2SQL (vecdb underneath). ----
    // The cache keys on the user question (not the full prompt) through
    // `CachedModel::ask`; the model behind it is composed with the
    // ModelStack builder, the workspace-standard way to assemble
    // decorator chains.
    let nlq_db = llmdm::nlq::concert_domain(SEED);
    let builder = PromptBuilder::new(ExamplePool::generate(SEED), nlq_db.schema_summary());
    let stacked = ModelStack::tier(zoo, ModelTier::Large).with_default_retry().build_arc();
    let cache = shared_cache(CacheConfig { seed: SEED, ..Default::default() });
    let cached = CachedModel::new(stacked, cache.clone());
    let nlq_workload =
        Workload::generate(WorkloadConfig { n: 6, seed: SEED, ..Default::default() });
    let ask = |q: &str| {
        cached.ask(q, &CompletionRequest::new(builder.single(q))).expect("cached ask")
    };
    for q in &nlq_workload.queries {
        ask(&q.text);
    }
    // Repeat the first query verbatim: a guaranteed reuse hit.
    if let Some(q) = nlq_workload.queries.first() {
        ask(&q.text);
    }

    // ---- NL2SQL decomposition fan-out. ----
    llmdm::nlq::run_decomposition(&nlq_db, &nlq_workload.queries, zoo, &builder);

    let stats = llmdm::rt::lock_recover(&cache).stats();
    stats
}

/// Assert the acceptance criteria on the emitted report + file.
fn validate(report: &Report, path: &std::path::Path) {
    // 1. Spans from at least six distinct crates.
    let crates = report.span_crates();
    for required in ["model", "cascade", "semcache", "vecdb", "sqlengine", "core"] {
        assert!(crates.contains(required), "missing spans from crate `{required}`: {crates:?}");
    }
    assert!(crates.len() >= 6, "need >= 6 crates, got {crates:?}");

    // 2. The file re-parses via llmdm_rt::json and carries the meta stamp.
    let text = std::fs::read_to_string(path).expect("trace file readable");
    let parsed = Json::parse(&text).expect("trace JSON parses");
    assert_eq!(parsed.get("kind").and_then(|k| k.as_str().ok()), Some("llmdm-trace"));
    let meta = parsed.get("meta").expect("meta object");
    assert_eq!(meta.get("seed").unwrap().as_u64().unwrap(), SEED);
    assert!(meta.get("timestamp_unix").unwrap().as_u64().unwrap() > 0);

    // 3. Histograms report quantiles (p50/p99 present and ordered).
    let hists = parsed.get("histograms").expect("histograms object");
    let latency = hists.get("model.latency_ms").expect("model latency histogram");
    let p50 = latency.get("p50").unwrap().as_f64().unwrap();
    let p99 = latency.get("p99").unwrap().as_f64().unwrap();
    assert!(p50 > 0.0 && p99 >= p50, "quantiles p50={p50} p99={p99}");

    // 4. Model spans carry per-call token/cost fields.
    let spans = match parsed.get("spans") {
        Some(Json::Arr(items)) => items,
        other => panic!("spans must be an array, got {other:?}"),
    };
    let model_span = spans
        .iter()
        .find(|s| s.get("name").and_then(|n| n.as_str().ok()) == Some("model.complete"))
        .expect("at least one model.complete span");
    let fields = model_span.get("fields").expect("span fields");
    for key in ["model", "tokens_in", "tokens_out", "cost_usd", "latency_ms"] {
        assert!(fields.get(key).is_some(), "model span missing field `{key}`");
    }

    // 5. Cache section embedded, counters reconciled with the meter side.
    let sem = parsed.get("semcache").expect("semcache stats section");
    assert!(sem.get("hit_ratio").unwrap().as_f64().unwrap() > 0.0, "reuse hit must register");
    let counters = parsed.get("counters").expect("counters object");
    assert!(counters.get("model.calls").unwrap().as_f64().unwrap() > 0.0);
    assert!(counters.get("model.cost_usd").unwrap().as_f64().unwrap() > 0.0);
}
