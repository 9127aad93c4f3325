//! Composed experiments that span multiple subsystem crates — most
//! importantly the paper's **Table III** (LLM cache optimization), which
//! needs the NL2SQL workload (`llmdm-nlq`), the decomposition pipeline,
//! and the semantic cache (`llmdm-semcache`) together.
//!
//! ## Table III protocol (following §III-C)
//!
//! "We use the same dataset as in LLM Cascade … we randomly select 10
//! queries and query them twice to verify the cache performance."
//!
//! We run the protocol over the NL2SQL workload (the paper's own
//! sub-query notion comes from §III-B's NL2SQL decomposition, which is
//! what Cache(A) caches; see DESIGN.md §2 for the substitution note):
//! 10 workload queries are asked twice (two user sessions). Three
//! configurations:
//!
//! * **w/o cache** — every ask goes to the model (origin pipeline);
//! * **Cache(O)** — whole-query semantic cache: repeat asks are reuse
//!   hits; wrong cached answers stay wrong ("Cache(O) may cache
//!   incorrectly answered queries, which are not helpful");
//! * **Cache(A)** — original *and* sub-query caching over the
//!   decomposition pipeline: sub-queries are simpler (higher accuracy)
//!   and shared across different originals, so the cache both saves money
//!   and propagates *correct* sub-answers ("caching sub-queries, which
//!   exhibits higher accuracy, is beneficial").

use std::collections::BTreeMap;
use std::sync::Arc;

use llmdm_model::{CompletionRequest, LanguageModel, ModelZoo};
use llmdm_nlq::decompose::{decompose, recompose};
use llmdm_nlq::prompt::{ExamplePool, PromptBuilder};
use llmdm_nlq::workload::{NlQuery, Workload, WorkloadConfig};
use llmdm_nlq::Nl2SqlSolver;
use llmdm_semcache::{CacheConfig, EntryKind, Lookup, SemanticCache};

/// One cache configuration's metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheRunReport {
    /// Execution accuracy over all asks.
    pub accuracy: f64,
    /// Total dollar cost.
    pub cost: f64,
    /// Model calls made.
    pub calls: u64,
    /// Cache reuse hits.
    pub reuse_hits: u64,
}

/// The Table III reproduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table3Report {
    /// No caching.
    pub without: CacheRunReport,
    /// Original-query caching only.
    pub cache_o: CacheRunReport,
    /// Original + sub-query caching over decomposition.
    pub cache_a: CacheRunReport,
}

fn gold_results(
    db: &llmdm_sqlengine::Database,
    queries: &[NlQuery],
) -> Vec<llmdm_sqlengine::ResultSet> {
    queries
        .iter()
        .map(|q| {
            match llmdm_sqlengine::parse_statement(&q.gold_sql).expect("gold parses") {
                llmdm_sqlengine::Statement::Select(s) => {
                    llmdm_sqlengine::exec::execute_select(db, &s).expect("gold executes")
                }
                _ => unreachable!(),
            }
        })
        .collect()
}

fn exec_sql(
    db: &llmdm_sqlengine::Database,
    sql: &str,
) -> Option<llmdm_sqlengine::ResultSet> {
    match llmdm_sqlengine::parse_statement(sql).ok()? {
        llmdm_sqlengine::Statement::Select(s) => {
            llmdm_sqlengine::exec::execute_select(db, &s).ok()
        }
        _ => None,
    }
}

/// Run the Table III experiment.
pub fn run_table3(seed: u64) -> Table3Report {
    let db = llmdm_nlq::concert_domain(seed);
    // 10 queries, asked twice (the paper's protocol).
    let workload = Workload::generate(WorkloadConfig { n: 10, seed, ..Default::default() });
    let asks: Vec<&NlQuery> =
        workload.queries.iter().chain(workload.queries.iter()).collect();
    let gold = gold_results(&db, &workload.queries);
    let gold_of = |q: &NlQuery| &gold[q.id];

    let zoo = ModelZoo::standard(seed);
    zoo.register_solver(Arc::new(Nl2SqlSolver));
    let model = zoo.large();
    let builder = PromptBuilder::new(ExamplePool::generate(seed), db.schema_summary());

    // ---- w/o cache: origin pipeline per ask ----
    zoo.meter().reset();
    let mut ok = 0usize;
    for q in &asks {
        let prompt = builder.single(&q.text);
        if let Ok(c) = model.complete(&CompletionRequest::new(prompt)) {
            if exec_sql(&db, c.text.trim()).map(|rs| rs.bag_eq(gold_of(q))).unwrap_or(false) {
                ok += 1;
            }
        }
    }
    let snap = zoo.meter().snapshot();
    let without = CacheRunReport {
        accuracy: ok as f64 / asks.len() as f64,
        cost: snap.total_dollars(),
        calls: snap.total_calls(),
        reuse_hits: 0,
    };

    // ---- Cache(O): whole-query caching ----
    // Whole queries need a near-exact reuse threshold: the workload's
    // templates differ only in a year or event word, and serving a
    // cached answer across those would be a false reuse.
    zoo.meter().reset();
    let mut cache =
        SemanticCache::new(CacheConfig { seed, reuse_threshold: 0.995, ..Default::default() });
    let mut ok = 0usize;
    for q in &asks {
        let answer = match cache.lookup(&q.text) {
            Lookup::Reuse { response, .. } => response,
            _ => {
                let prompt = builder.single(&q.text);
                match model.complete(&CompletionRequest::new(prompt)) {
                    Ok(c) => {
                        let text = c.text.trim().to_string();
                        cache.insert(&q.text, &text, EntryKind::Original);
                        text
                    }
                    Err(_) => continue,
                }
            }
        };
        if exec_sql(&db, &answer).map(|rs| rs.bag_eq(gold_of(q))).unwrap_or(false) {
            ok += 1;
        }
    }
    let snap = zoo.meter().snapshot();
    let cache_o = CacheRunReport {
        accuracy: ok as f64 / asks.len() as f64,
        cost: snap.total_dollars(),
        calls: snap.total_calls(),
        reuse_hits: cache.stats().reuse_hits,
    };

    // ---- Cache(A): decomposition with original + sub-query caching ----
    zoo.meter().reset();
    let mut cache =
        SemanticCache::new(CacheConfig { seed, reuse_threshold: 0.995, ..Default::default() });
    let mut ok = 0usize;
    for q in &asks {
        let d = decompose(q);
        let mut answers: BTreeMap<String, String> = BTreeMap::new();
        let mut complete = true;
        for (key, atom) in d.atom_keys.iter().zip(q.shape.atoms()) {
            let sub_q = atom.sub_question();
            let sql = match cache.lookup(&sub_q) {
                Lookup::Reuse { response, .. } => response,
                _ => match model.complete(&CompletionRequest::new(builder.single(&sub_q))) {
                    Ok(c) => {
                        let text = c.text.trim().to_string();
                        cache.insert(&sub_q, &text, EntryKind::SubQuery);
                        text
                    }
                    Err(_) => {
                        complete = false;
                        break;
                    }
                },
            };
            answers.insert(key.clone(), sql);
        }
        if !complete {
            continue;
        }
        if let Ok(rs) = recompose(&db, &d, &answers) {
            if rs.bag_eq(gold_of(q)) {
                ok += 1;
            }
        }
    }
    let snap = zoo.meter().snapshot();
    let cache_a = CacheRunReport {
        accuracy: ok as f64 / asks.len() as f64,
        cost: snap.total_dollars(),
        calls: snap.total_calls(),
        reuse_hits: cache.stats().reuse_hits,
    };

    Table3Report { without, cache_o, cache_a }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_shape_holds() {
        // Average over a few seeds (10-query runs are small, as in the
        // paper's own preliminary experiment).
        let seeds: Vec<u64> = (1..=10).collect();
        let mut without = (0.0, 0.0);
        let mut cache_o = (0.0, 0.0);
        let mut cache_a = (0.0, 0.0);
        for &s in &seeds {
            let r = run_table3(s);
            without.0 += r.without.accuracy;
            without.1 += r.without.cost;
            cache_o.0 += r.cache_o.accuracy;
            cache_o.1 += r.cache_o.cost;
            cache_a.0 += r.cache_a.accuracy;
            cache_a.1 += r.cache_a.cost;
        }
        let n = seeds.len() as f64;
        // Cache(O) keeps accuracy (same answers, reused) but cuts cost.
        assert!((cache_o.0 - without.0).abs() / n < 0.08, "O acc {} vs w/o {}", cache_o.0 / n, without.0 / n);
        assert!(cache_o.1 < without.1 * 0.75, "O cost {} vs w/o {}", cache_o.1 / n, without.1 / n);
        // Cache(A) improves accuracy (decomposed sub-queries are easier
        // and correct sub-answers propagate).
        assert!(
            cache_a.0 / n > cache_o.0 / n + 0.04,
            "A acc {} vs O acc {}",
            cache_a.0 / n,
            cache_o.0 / n
        );
        // And still far cheaper than no cache at all.
        assert!(cache_a.1 < without.1, "A cost {} vs w/o {}", cache_a.1 / n, without.1 / n);
    }

    #[test]
    fn cache_o_reuse_hits_cover_second_session() {
        let r = run_table3(5);
        // The second session's 10 asks are verbatim repeats → at least 10
        // reuse hits (more when the workload itself repeats a template),
        // and every ask is either a call or a reuse.
        assert!(r.cache_o.reuse_hits >= 10, "reuse {}", r.cache_o.reuse_hits);
        assert_eq!(r.cache_o.calls + r.cache_o.reuse_hits, 20);
        assert_eq!(r.without.calls, 20);
    }

    #[test]
    fn cache_a_exploits_shared_sub_queries() {
        let r = run_table3(6);
        // Sub-query sharing: strictly more reuse hits than the 10 repeats
        // alone would give is not guaranteed per seed, but calls must be
        // no more than distinct sub-queries.
        assert!(r.cache_a.calls <= 20, "calls {}", r.cache_a.calls);
        assert!(r.cache_a.reuse_hits >= 10, "reuse {}", r.cache_a.reuse_hits);
    }

    #[test]
    fn deterministic() {
        assert_eq!(run_table3(9), run_table3(9));
    }
}
