//! Vector index search: flat (exact) vs HNSW — the recall/latency engine
//! room behind every vector-database use in the paper.
//!
//! Two fixtures, because an ANN index behaves differently on each:
//! **uniform** vectors in `[-1, 1)^64` (no structure, the hard case for a
//! graph) and **clustered** ones (32 centres, 0.3 jitter — the shape the
//! `perf` benchmark's `vec_search` workload draws, and what embeddings
//! look like). Each at 10k and, outside `LLMDM_BENCH_FAST` runs, 100k
//! vectors. Per point: median latency of a k=10 search on each index, and
//! the HNSW recall@10 against the flat scan's answer.
//!
//! Recall is gated, not printed: each floor below is the recall a full run
//! measured, less a small margin, so an index change that trades recall
//! away fails here. At 100k HNSW must also beat the flat scan 5× — the
//! point of having it. Latencies are otherwise reported ungated.
//!
//! `scripts/verify.sh` runs this with `LLMDM_BENCH_FAST=1`; results land
//! in `BENCH_vecdb_search.json`.

use llmdm_rt::bench::{BenchmarkId, Bound::AtLeast, Criterion};
use llmdm_rt::rand::rngs::SmallRng;
use llmdm_rt::rand::{Rng, SeedableRng};
use llmdm_vecdb::{FlatIndex, HnswConfig, HnswIndex, Metric, VectorIndex};

const DIM: usize = 64;
const K: usize = 10;
const QUERIES: usize = 64;
/// Seeds the indexed vectors; the query stream draws from `SEED + 1`.
const SEED: u64 = 1;

/// HNSW recall@10 floors, `(fixture, n, floor)`: what the full run
/// committed as `BENCH_vecdb_search.json` measured (in the comment), less
/// 0.02. Seeded data and a fixed-order kernel make recall repeat exactly.
const RECALL_FLOORS: [(&str, usize, f64); 4] = [
    ("uniform", 10_000, 0.87),     // 0.894
    ("uniform", 100_000, 0.57),    // 0.592
    ("clustered", 10_000, 0.98),   // 1.000
    ("clustered", 100_000, 0.96),  // 0.989
];
/// HNSW must answer this many times faster than the flat scan at 100k.
const MIN_HNSW_SPEEDUP_100K: f64 = 5.0;

fn jitter(rng: &mut SmallRng, around: &[f32], spread: f32) -> Vec<f32> {
    around.iter().map(|x| x + spread * rng.gen_range(-1.0f32..1.0)).collect()
}

/// `n` stored vectors and [`QUERIES`] queries of one fixture.
fn fixture(name: &str, n: usize) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut query_rng = SmallRng::seed_from_u64(SEED + 1);
    let origin = [0.0; DIM];
    match name {
        "uniform" => (
            (0..n).map(|_| jitter(&mut rng, &origin, 1.0)).collect(),
            (0..QUERIES).map(|_| jitter(&mut query_rng, &origin, 1.0)).collect(),
        ),
        _ => {
            let centres: Vec<Vec<f32>> = (0..32).map(|_| jitter(&mut rng, &origin, 1.0)).collect();
            let vecs: Vec<Vec<f32>> = (0..n)
                .map(|_| {
                    let centre = rng.gen_range(0..centres.len());
                    jitter(&mut rng, &centres[centre], 0.3)
                })
                .collect();
            // A query is a stored vector nudged, as `perf` draws them.
            let queries = (0..QUERIES)
                .map(|_| {
                    let near = query_rng.gen_range(0..n);
                    jitter(&mut query_rng, &vecs[near], 0.1)
                })
                .collect();
            (vecs, queries)
        }
    }
}

fn bench_point(c: &mut Criterion, name: &str, n: usize, floor: f64) {
    let (vecs, queries) = fixture(name, n);
    let mut flat = FlatIndex::new(DIM, Metric::Cosine);
    let mut hnsw = HnswIndex::new(DIM, Metric::Cosine, HnswConfig::default()).expect("valid config");
    for (i, v) in vecs.iter().enumerate() {
        flat.insert(i as u64, v.clone()).expect("insert");
        hnsw.insert(i as u64, v.clone()).expect("insert");
    }

    let label = format!("vecdb_search_{name}_{}k", n / 1000);
    let indexes: [(&str, &dyn VectorIndex); 2] = [("flat", &flat), ("hnsw", &hnsw)];
    let mut group = c.benchmark_group(&label);
    for (index_name, index) in indexes {
        let mut qi = 0usize;
        group.bench_function(BenchmarkId::new(index_name, "k10"), |b| {
            b.iter(|| {
                qi = (qi + 1) % queries.len();
                index.search(&queries[qi], K).expect("search")
            })
        });
    }
    group.finish();

    let ids = |index: &dyn VectorIndex, q: &[f32]| -> Vec<u64> {
        index.search(q, K).expect("search").iter().map(|h| h.id).collect()
    };
    let found: usize = queries
        .iter()
        .map(|q| {
            let gold = ids(&flat, q);
            ids(&hnsw, q).iter().filter(|id| gold.contains(id)).count()
        })
        .sum();
    let recall = found as f64 / (queries.len() * K) as f64;
    c.gate(format!("{label} hnsw recall@{K}"), recall, AtLeast(floor));
    if n >= 100_000 {
        let median = |index: &str| c.stat(&format!("{label}/{index}/k10")).median_ns as f64;
        let speedup = median("flat") / median("hnsw");
        c.gate(format!("{label} flat/hnsw (median)"), speedup, AtLeast(MIN_HNSW_SPEEDUP_100K));
    }
}

fn bench_search(c: &mut Criterion) {
    for (name, n, floor) in RECALL_FLOORS {
        // A 100k HNSW build takes half a minute (clustered) to a minute
        // and a half (uniform): not in a smoke run.
        if n <= 10_000 || !llmdm_rt::bench::fast() {
            bench_point(c, name, n, floor);
        }
    }
}

llmdm_rt::bench_main!("vecdb_search", Some(SEED), bench_search);
