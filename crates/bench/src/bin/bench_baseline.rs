//! Baseline benchmark snapshot: one representative measurement per hot
//! subsystem, written to `BENCH_seed.json` so later perf PRs have a
//! committed reference to diff against.
//!
//! Run with `cargo run --release --offline -p llmdm-bench --bin
//! bench_baseline` (set `LLMDM_BENCH_FAST=1` for a smoke pass, or
//! `LLMDM_BENCH_DIR` to redirect the report).

use llmdm_model::Tokenizer;
use llmdm_rt::bench::{BenchmarkId, Criterion, Throughput};
use llmdm_rt::rand::rngs::SmallRng;
use llmdm_rt::rand::{Rng, SeedableRng};
use llmdm_semcache::{CacheConfig, EntryKind, SemanticCache};
use llmdm_sqlengine::parse_statement;
use llmdm_vecdb::{FlatIndex, HnswConfig, HnswIndex, Metric, VectorIndex};

const DIM: usize = 64;
/// Seeds the indexed vectors and the SQL fixture; the query vectors draw
/// from `SEED + 1`.
const SEED: u64 = 1;

fn random_vecs(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect()
}

fn bench_vecdb(c: &mut Criterion) {
    let vecs = random_vecs(4096, SEED);
    let queries = random_vecs(64, SEED + 1);
    let mut flat = FlatIndex::new(DIM, Metric::Cosine);
    let mut hnsw = HnswIndex::new(DIM, Metric::Cosine, HnswConfig::default()).expect("config");
    for (i, v) in vecs.iter().enumerate() {
        flat.insert(i as u64, v.clone()).expect("insert");
        hnsw.insert(i as u64, v.clone()).expect("insert");
    }
    let mut group = c.benchmark_group("vecdb");
    let mut qi = 0usize;
    group.bench_function(BenchmarkId::new("flat_search", "4k"), |b| {
        b.iter(|| {
            qi = (qi + 1) % queries.len();
            flat.search(&queries[qi], 10).expect("search")
        })
    });
    group.bench_function(BenchmarkId::new("hnsw_search", "4k"), |b| {
        b.iter(|| {
            qi = (qi + 1) % queries.len();
            hnsw.search(&queries[qi], 10).expect("search")
        })
    });
    group.finish();
}

fn bench_tokenizer(c: &mut Criterion) {
    let tok = Tokenizer::new();
    let prompt = include_str!("bench_baseline.rs").repeat(4);
    let mut group = c.benchmark_group("tokenizer");
    group.throughput(Throughput::Bytes(prompt.len() as u64));
    group.bench_function("count", |b| b.iter(|| tok.count(&prompt)));
    group.finish();
}

fn bench_sql(c: &mut Criterion) {
    let db = llmdm_nlq::concert_domain(SEED);
    let complex = "SELECT name FROM stadium WHERE stadium_id IN \
         (SELECT stadium_id FROM concert WHERE year = 2014) \
         AND stadium_id NOT IN (SELECT stadium_id FROM sports_meeting WHERE year = 2015)";
    let mut group = c.benchmark_group("sqlengine");
    group.bench_function("parse_complex", |b| b.iter(|| parse_statement(complex).expect("parses")));
    let stmt = parse_statement(complex).expect("parses");
    let select = match stmt {
        llmdm_sqlengine::Statement::Select(s) => s,
        _ => unreachable!(),
    };
    group.bench_function("exec_setops", |b| {
        b.iter(|| llmdm_sqlengine::exec::execute_select(&db, &select).expect("executes"))
    });
    group.finish();
}

fn bench_semcache(c: &mut Criterion) {
    let n = 512usize;
    let mut cache = SemanticCache::new(CacheConfig { capacity: n, ..Default::default() });
    for i in 0..n {
        cache.insert(
            &format!("historical analytical query number {i} about topic {}", i % 17),
            "SELECT cached",
            EntryKind::Original,
        );
    }
    let mut group = c.benchmark_group("semcache");
    let mut i = 0usize;
    group.bench_function(BenchmarkId::new("lookup_hit", n), |b| {
        b.iter(|| {
            i = (i + 1) % n;
            cache.lookup(&format!("historical analytical query number {i} about topic {}", i % 17))
        })
    });
    group.finish();
}

llmdm_rt::bench_main!("seed", Some(SEED), bench_vecdb, bench_tokenizer, bench_sql, bench_semcache);
