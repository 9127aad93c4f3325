//! The semantic cache's hot path, pinned; lookup/insert throughput and
//! eviction-policy overhead, reported.
//!
//! DESIGN.md §17 claims that a prompt costs the cache at most one
//! embedding plus a scan, whatever the outcome, and a verbatim repeat no
//! embedding at all. Gated here on a `semsql`-shaped prompt against a
//! full 256-entry cache, as ratios of medians measured interleaved within
//! one run (so a loaded box moves both sides alike):
//!
//! * `miss_pair` — probe → `lookup_probed` (miss) → `insert_probed`
//!   (evicting), what a cold prompt costs around its model call — at most
//!   1.5 × `embed`;
//! * `lookup_hit` — probe → `lookup_probed` (reuse) — at most 1.5 ×
//!   `embed`;
//! * `verbatim_hit` — `CachedModel::ask` over a sim model on a prompt the
//!   cache holds verbatim (a reuse hit: the probe copies the entry's
//!   vector, then the scan) — at most 0.5 × `embed`.
//!
//! A second embedding on the first two paths, an embedding on the third,
//! or a scan that grows past half an embedding, fails a gate.
//! `scripts/verify.sh` runs this with `LLMDM_BENCH_FAST=1`; results land
//! in `BENCH_semcache.json`.
//!
//! The embedder memoizes each feature's projection per thread, and the
//! gated prompts repeat their words, so `embed` is the warm case.
//! `hot_path/embed_novel` (reported, not gated) is the cold one: a prompt
//! of words the thread has never seen, so every feature misses the memo.

use std::sync::{Arc, Mutex};

use llmdm_model::prelude::*;
use llmdm_rt::bench::{black_box, BenchmarkId, Bound::AtMost, Criterion};
use llmdm_rt::hash::splitmix;
use llmdm_semcache::{
    CacheConfig, CachedModel, EntryKind, EvictionPolicy, Lookup, Probe, SemanticCache,
};
use llmdm_sqlengine::semantic::unary_prompt;
use llmdm_sqlengine::Value;

/// The capacity `perf`'s semantic workloads run the cache at.
const ENTRIES: usize = 256;
/// A cache operation pair may cost this many embeddings, at most.
const MAX_OVER_EMBED: f64 = 1.5;
/// A verbatim reuse hit through the client may cost this many embeddings,
/// at most: it makes none.
const MAX_VERBATIM_OVER_EMBED: f64 = 0.5;
/// How many distinct prompts `hot_path/embed_novel` cycles through.
const NOVEL_RING: usize = 4096;

/// The prompt `LLM_MAP(body, …)` sends for review row `i`: ~200 bytes
/// (what `perf`'s semantic workloads send), unique per row.
fn semsql_prompt(i: usize) -> String {
    let body = format!(
        "sturdy quiet compact battery arrived late works fine overall \
         and still holds a full charge after a week of daily use #0-{i}"
    );
    unary_prompt("map", "name the product category of this review", &Value::Str(body))
}

/// ~200 bytes of CJK words no other `i` shares: 16 words of four
/// ideographs drawn from 20 992 by a hash of `(i, position)`, so no word
/// or trigram repeats and each one misses the embedder's memo.
fn novel_prompt(i: usize) -> String {
    let words = (0..16).map(|w| {
        (0..4)
            .map(|c| {
                let h = splitmix((i * 64 + w * 4 + c) as u64);
                char::from_u32(0x4e00 + (h % 20_992) as u32).expect("a CJK ideograph")
            })
            .collect::<String>()
    });
    words.collect::<Vec<_>>().join(" ")
}

/// A full cache of the first [`ENTRIES`] prompts under `perf`'s
/// thresholds (only an identical prompt may hit).
fn full_cache() -> SemanticCache {
    let mut cache = SemanticCache::new(CacheConfig {
        capacity: ENTRIES,
        reuse_threshold: 0.9999,
        augment_threshold: 0.9999,
        ..Default::default()
    });
    for i in 0..ENTRIES {
        cache.insert(&semsql_prompt(i), "electronics", EntryKind::Original);
    }
    cache
}

fn bench_hot_path(c: &mut Criterion) {
    let (mut cold, mut warm) = (full_cache(), full_cache());
    let embedder = cold.embedder().clone();
    let shared = Arc::new(Mutex::new(full_cache()));
    let client = CachedModel::new(ModelZoo::standard(42).medium(), shared);
    let (mut e, mut m, mut h, mut v) = (0usize, ENTRIES, 0usize, 0usize);
    let mut group = c.benchmark_group("hot_path");
    // Every case formats its prompt, so the ratios compare like with like.
    group.bench_interleaved(&mut [
        ("embed", &mut || {
            e += 1;
            black_box(embedder.embed(&semsql_prompt(e)).expect("prompt is not empty"));
        }),
        ("miss_pair", &mut || {
            m += 1;
            let prompt = semsql_prompt(m);
            let probe = Probe::new(&embedder, &prompt);
            assert_eq!(cold.lookup_probed(&probe), Lookup::Miss);
            cold.insert_probed(probe, "electronics", EntryKind::Original);
        }),
        ("lookup_hit", &mut || {
            h = (h + 1) % ENTRIES;
            let prompt = semsql_prompt(h);
            let hit = warm.lookup_probed(&Probe::new(&embedder, &prompt));
            assert!(matches!(black_box(hit), Lookup::Reuse { .. }));
        }),
        ("verbatim_hit", &mut || {
            v = (v + 1) % ENTRIES;
            let req = CompletionRequest::new(semsql_prompt(v));
            let answer = client.ask(&req.prompt, &req).expect("a reuse hit");
            assert!(black_box(answer).cached);
        }),
    ]);
    // Apart from the interleaved cases: its misses would overwrite the
    // memo slots their repeated features hit. The prompts are made before
    // timing, so only the embedding is timed. The ring files hundreds of
    // times more chains than the memo has slots, so by the time a prompt
    // comes round again its features have long left the memo.
    let novel: Vec<String> = (0..NOVEL_RING).map(novel_prompt).collect();
    let mut n = 0usize;
    group.bench_function("embed_novel", |b| {
        b.iter(|| {
            n = (n + 1) % NOVEL_RING;
            embedder.embed(&novel[n]).expect("prompt is not empty")
        })
    });
    group.finish();
}

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

fn gates(c: &mut Criterion) {
    let embed = c.stat("hot_path/embed").median_ns as f64;
    for (id, bound) in [
        ("miss_pair", MAX_OVER_EMBED),
        ("lookup_hit", MAX_OVER_EMBED),
        ("verbatim_hit", MAX_VERBATIM_OVER_EMBED),
    ] {
        let ratio = c.stat(&format!("hot_path/{id}")).median_ns as f64 / embed;
        c.gate(format!("hot_path {id}/embed (median)"), ratio, AtMost(bound));
    }
}

llmdm_rt::bench_main!("semcache", None, bench_hot_path, bench_cache, gates);
