//! Semantic-cache lookup/insert throughput and eviction-policy overhead.

use llmdm_rt::bench::{BenchmarkId, Criterion};
use llmdm_semcache::{CacheConfig, EntryKind, EvictionPolicy, SemanticCache};

fn filled_cache(n: usize, policy: EvictionPolicy) -> SemanticCache {
    let mut c = SemanticCache::new(CacheConfig { capacity: n, policy, ..Default::default() });
    for i in 0..n {
        c.insert(
            &format!("historical analytical query number {i} about topic {}", i % 17),
            "SELECT cached",
            EntryKind::Original,
        );
    }
    c
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("semcache");
    for n in [256usize, 1024] {
        let mut cache = filled_cache(n, EvictionPolicy::default());
        let mut i = 0usize;
        group.bench_function(BenchmarkId::new("lookup_hit", n), |b| {
            b.iter(|| {
                i = (i + 1) % n;
                cache.lookup(&format!(
                    "historical analytical query number {i} about topic {}",
                    i % 17
                ))
            })
        });
        group.bench_function(BenchmarkId::new("lookup_miss", n), |b| {
            b.iter(|| {
                i += 1;
                cache.lookup(&format!("zzqx unrelated nonsense {i} kwyjibo"))
            })
        });
    }
    for (name, policy) in [
        ("lru", EvictionPolicy::Lru),
        ("weighted", EvictionPolicy::Weighted { reuse_weight: 4.0, augment_weight: 1.0 }),
    ] {
        let mut cache = filled_cache(256, policy);
        let mut i = 0usize;
        group.bench_function(BenchmarkId::new("insert_with_eviction", name), |b| {
            b.iter(|| {
                i += 1;
                cache.insert(&format!("fresh query {i} forcing an eviction"), "sql", EntryKind::Original)
            })
        });
    }
    group.finish();
}

llmdm_rt::bench_main!("semcache_bench", None, bench_cache);
