//! NL2SQL cost optimization scenario — §III-B and §III-C of the paper
//! composed: a proxy serving many users runs the cascade for QA traffic,
//! decomposition+combination for NL2SQL traffic, and a semantic cache in
//! front of everything.
//!
//! Run with `cargo run -p llmdm --example nl2sql_cost_optimizer`.

use std::sync::Arc;

use llmdm::cascade::eval::run_table1;
use llmdm::model::{CompletionRequest, LanguageModel, ModelZoo};
use llmdm::nlq::pipeline::run_table2;
use llmdm::nlq::{concert_domain, ExamplePool, Nl2SqlSolver, PromptBuilder};
use llmdm::semcache::{shared_cache, CacheConfig, CachedModel};

fn main() {
    // --- The cascade saves money on QA traffic (Table I) ----------------
    let t1 = run_table1(42);
    println!("cascade vs standalone tiers (40 QA queries):");
    for t in &t1.tiers {
        println!("  {:<12} accuracy {:>5.1}%  cost ${:.4}", t.name, t.accuracy * 100.0, t.cost);
    }
    println!(
        "  {:<12} accuracy {:>5.1}%  cost ${:.4}  (mean tier used {:.2})",
        t1.cascade.name,
        t1.cascade.accuracy * 100.0,
        t1.cascade.cost,
        t1.mean_tier_used
    );

    // --- Decomposition + combination on NL2SQL traffic (Table II) -------
    let t2 = run_table2(42);
    println!("\nNL2SQL pipelines (20-query workload):");
    for (name, p) in [
        ("origin", t2.origin),
        ("decomposition", t2.decomposition),
        ("decomp+combination", t2.combination),
    ] {
        println!(
            "  {:<20} accuracy {:>5.1}%  cost ${:.4}  calls {}",
            name,
            p.accuracy * 100.0,
            p.cost,
            p.calls
        );
    }

    // --- A semantic cache in front of a live model -----------------------
    let db = concert_domain(42);
    let zoo = ModelZoo::standard(42);
    zoo.register_solver(Arc::new(Nl2SqlSolver));
    let builder = PromptBuilder::new(ExamplePool::generate(42), db.schema_summary());
    let cache = shared_cache(CacheConfig::default());
    let cached = CachedModel::new(zoo.large(), cache.clone());
    let questions = [
        "What are the names of stadiums that had concerts in 2014?",
        "What are the names of stadiums that had festivals in 2013?",
        "What are the names of stadiums that had concerts in 2014?", // repeat → reuse
        "What are the names of stadiums that had concerts in 2016?", // similar → augment
    ];
    println!("\nsemantic cache in front of the model:");
    for q in questions {
        // Keyed on the question, not on the prompt around it.
        let a = cached.ask(q, &CompletionRequest::new(builder.single(q))).expect("model answers");
        println!(
            "  {:<62} {} ${:.4}",
            q,
            if a.cached { "CACHE " } else { "MODEL " },
            a.cost
        );
    }
    let stats = llmdm::rt::lock_recover(&cache).stats();
    println!(
        "  cache: {} reuse, {} augment, {} misses (hit ratio {:.0}%)",
        stats.reuse_hits,
        stats.augment_hits,
        stats.misses,
        stats.hit_ratio() * 100.0
    );

    // --- The combined bill ------------------------------------------------
    let direct_model = zoo.large();
    let uncached_cost: f64 = questions
        .iter()
        .map(|q| {
            direct_model
                .complete(&CompletionRequest::new(builder.single(q)))
                .map(|c| c.cost)
                .unwrap_or(0.0)
        })
        .sum();
    println!("\nwithout any optimization those four asks would cost ${uncached_cost:.4}");
}
