//! Reproduce **Table III** (LLM cache optimization).
//!
//! Paper: w/o cache 77.5% / $1.123; Cache(O) 77.5% / $0.842; Cache(A)
//! 85% / $0.887 — caching cuts cost; caching sub-queries additionally
//! lifts accuracy.
//!
//! Usage: `repro_table3 [--seed N] [--policy]` (`--policy` runs the
//! eviction-policy ablation from DESIGN.md §5.1).

use llmdm_bench::{dollars, has_flag, pct, render_table, seed_arg};
use llmdm::run_table3;
use llmdm_semcache::{CacheConfig, EntryKind, EvictionPolicy, Lookup, SemanticCache};

fn main() {
    let base_seed = seed_arg();
    let seeds: Vec<u64> = (0..10).map(|i| base_seed.wrapping_add(i)).collect();
    let mut acc = [0.0f64; 3];
    let mut cost = [0.0f64; 3];
    let mut hits = [0.0f64; 3];
    for &s in &seeds {
        let r = run_table3(s);
        for (i, p) in [r.without, r.cache_o, r.cache_a].iter().enumerate() {
            acc[i] += p.accuracy;
            cost[i] += p.cost;
            hits[i] += p.reuse_hits as f64;
        }
    }
    let n = seeds.len() as f64;
    let labels = ["w/o Cache", "Cache(O)", "Cache(A)"];
    let paper = ["77.5% / $1.123", "77.5% / $0.842", "85% / $0.887"];
    let rows: Vec<Vec<String>> = (0..3)
        .map(|i| {
            vec![
                labels[i].to_string(),
                pct(acc[i] / n),
                dollars(cost[i] / n),
                format!("{:.1}", hits[i] / n),
                paper[i].to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!(
                "Table III — semantic LLM cache, 10 queries asked twice \
                 (mean of {} seeds from {base_seed})",
                seeds.len()
            ),
            &["configuration", "accuracy", "api cost", "reuse hits", "paper"],
            &rows,
        )
    );

    if has_flag("--policy") {
        policy_ablation(base_seed);
    }
}

/// Eviction ablation — the paper's §III-C design point: reuse hits and
/// augment hits "should have different weights when considering eviction".
///
/// Setup: a capacity-2 cache holds two established entries —
/// * **hot**: re-asked verbatim 5 times (5 *reuse* hits, each worth a whole
///   saved model call),
/// * **decoy**: touched by 15 similar-but-different queries (15 *augment*
///   hits, each worth only a few prompt tokens).
///
/// Then a newcomer is inserted and one of them must go. Afterwards the
/// workload continues: 10 hot re-asks and 30 decoy-variant lookups. LRU
/// (hot was touched longer ago) and LFU (5 < 15 touches) both sacrifice
/// the hot entry and lose all 10 whole-call savings; the weighted policy
/// (reuse 4 : augment 1 → 20 > 15) keeps it.
fn policy_ablation(seed: u64) {
    let policies = [
        ("LRU", EvictionPolicy::Lru),
        ("LFU", EvictionPolicy::Lfu),
        ("Weighted(4:1)", EvictionPolicy::Weighted { reuse_weight: 4.0, augment_weight: 1.0 }),
    ];
    let hot = "hot recurring analytical query about monthly revenue";
    let decoy = "decoy template about inventory restock levels";
    let mut rows = Vec::new();
    for (name, policy) in policies {
        let mut cache = SemanticCache::new(CacheConfig {
            capacity: 2,
            policy,
            seed,
            ..Default::default()
        });
        // Establish both entries with their hit profiles.
        cache.insert(hot, "SELECT revenue ...", EntryKind::Original);
        cache.insert(decoy, "SELECT restock ...", EntryKind::Original);
        for _ in 0..5 {
            let _ = cache.lookup(hot); // reuse hits
        }
        for v in 0..15 {
            let _ = cache.lookup(&format!("{decoy} variant {v}")); // augment hits
        }
        // Pressure: a newcomer forces one eviction.
        cache.insert("brand new unrelated reporting query", "SELECT ...", EntryKind::Original);
        // The workload continues; count what each retention decision earns.
        let mut saved_calls = 0u64;
        for _ in 0..10 {
            if matches!(cache.lookup(hot), Lookup::Reuse { .. }) {
                saved_calls += 1;
            }
        }
        let mut token_savers = 0u64;
        for v in 15..45 {
            if cache.lookup(&format!("{decoy} variant {v}")) != Lookup::Miss {
                token_savers += 1;
            }
        }
        rows.push(vec![
            name.to_string(),
            format!("{saved_calls}/10 whole calls saved"),
            format!("{token_savers}/30 example-token savings"),
        ]);
    }
    println!(
        "{}",
        render_table(
            "Eviction-policy ablation: after pressure evicts one established entry, \
             what does the retention decision earn?",
            &["policy", "hot re-asks (reuse)", "decoy variants (augment)"],
            &rows,
        )
    );
}
