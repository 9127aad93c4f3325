//! Vector index search: flat (exact) vs IVF vs HNSW — the recall/latency
//! engine room behind every vector-database use in the paper.

use llmdm_rt::bench::{BenchmarkId, Criterion};
use llmdm_vecdb::{FlatIndex, HnswConfig, HnswIndex, IvfConfig, IvfIndex, Metric, VectorIndex};
use llmdm_rt::rand::rngs::SmallRng;
use llmdm_rt::rand::{Rng, SeedableRng};

const DIM: usize = 64;
/// Seeds the indexed vectors; the query stream draws from `SEED + 1`.
const SEED: u64 = 1;

fn random_vecs(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| (0..DIM).map(|_| rng.gen_range(-1.0..1.0f32)).collect()).collect()
}

fn bench_search(c: &mut Criterion) {
    let n = 10_000;
    let vecs = random_vecs(n, SEED);
    let queries = random_vecs(64, SEED + 1);

    let mut flat = FlatIndex::new(DIM, Metric::Cosine);
    let mut ivf = IvfIndex::new(
        DIM,
        Metric::Cosine,
        IvfConfig { nlist: 64, nprobe: 8, ..Default::default() },
    )
    .expect("valid config");
    let mut hnsw = HnswIndex::new(DIM, Metric::Cosine, HnswConfig::default()).expect("valid config");
    for (i, v) in vecs.iter().enumerate() {
        flat.insert(i as u64, v.clone()).expect("insert");
        ivf.insert(i as u64, v.clone()).expect("insert");
        hnsw.insert(i as u64, v.clone()).expect("insert");
    }

    let mut group = c.benchmark_group("vecdb_search_10k");
    let mut qi = 0usize;
    group.bench_function(BenchmarkId::new("flat", "k10"), |b| {
        b.iter(|| {
            qi = (qi + 1) % queries.len();
            flat.search(&queries[qi], 10).expect("search")
        })
    });
    group.bench_function(BenchmarkId::new("ivf_nprobe8", "k10"), |b| {
        b.iter(|| {
            qi = (qi + 1) % queries.len();
            ivf.search(&queries[qi], 10).expect("search")
        })
    });
    group.bench_function(BenchmarkId::new("hnsw_ef64", "k10"), |b| {
        b.iter(|| {
            qi = (qi + 1) % queries.len();
            hnsw.search(&queries[qi], 10).expect("search")
        })
    });
    group.finish();

    // Report recall alongside latency (printed once).
    let mut overlap_ivf = 0usize;
    let mut overlap_hnsw = 0usize;
    let mut total = 0usize;
    for q in &queries {
        let gold: Vec<u64> =
            flat.search(q, 10).expect("search").iter().map(|h| h.id).collect();
        let ivf_ids: Vec<u64> =
            ivf.search(q, 10).expect("search").iter().map(|h| h.id).collect();
        let hnsw_ids: Vec<u64> =
            hnsw.search(q, 10).expect("search").iter().map(|h| h.id).collect();
        overlap_ivf += ivf_ids.iter().filter(|i| gold.contains(i)).count();
        overlap_hnsw += hnsw_ids.iter().filter(|i| gold.contains(i)).count();
        total += gold.len();
    }
    println!(
        "recall@10 vs flat: ivf={:.3} hnsw={:.3}",
        overlap_ivf as f64 / total as f64,
        overlap_hnsw as f64 / total as f64
    );
}

llmdm_rt::bench_main!("vecdb_search", Some(SEED), bench_search);
