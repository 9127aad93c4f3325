//! Hybrid filtered search: pre-filter vs post-filter vs adaptive ordering
//! as selectivity varies (§III-B2's "order of filtering" question).

use llmdm_rt::bench::{BenchmarkId, Criterion};
use llmdm_vecdb::{AttrValue, Collection, Filter, HybridStrategy, Metric};
use llmdm_rt::rand::rngs::SmallRng;
use llmdm_rt::rand::{Rng, SeedableRng};

/// Seeds the collection; the query stream draws from `SEED + 6`.
const SEED: u64 = 3;

fn build(n: usize, rare_fraction: f64) -> Collection {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut coll = Collection::new(32, Metric::Cosine);
    for id in 0..n as u64 {
        let v: Vec<f32> = (0..32).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let tag = if rng.gen_bool(rare_fraction) { "rare" } else { "common" };
        coll.insert(id, v, [("tag", AttrValue::from(tag))]).expect("insert");
    }
    coll
}

fn bench_hybrid(c: &mut Criterion) {
    let n = 5_000;
    let mut rng = SmallRng::seed_from_u64(SEED + 6);
    let queries: Vec<Vec<f32>> =
        (0..32).map(|_| (0..32).map(|_| rng.gen_range(-1.0..1.0f32)).collect()).collect();

    for (label, frac) in [("sel_2pct", 0.02), ("sel_50pct", 0.5)] {
        let coll = build(n, frac);
        let filter = Filter::eq("tag", "rare");
        let mut group = c.benchmark_group(format!("vecdb_hybrid_{label}"));
        let mut qi = 0usize;
        for (name, strat) in [
            ("prefilter", HybridStrategy::PreFilter),
            ("postfilter", HybridStrategy::PostFilter { expansion: 4 }),
            ("adaptive", HybridStrategy::default()),
        ] {
            group.bench_function(BenchmarkId::new(name, "k10"), |b| {
                b.iter(|| {
                    qi = (qi + 1) % queries.len();
                    coll.search_filtered_with(&queries[qi], 10, &filter, strat).expect("search")
                })
            });
        }
        group.finish();
    }
}

llmdm_rt::bench_main!("vecdb_hybrid", Some(SEED), bench_hybrid);
