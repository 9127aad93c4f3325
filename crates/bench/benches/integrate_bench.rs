//! Entity-resolution blocking and matching throughput.

use llmdm_rt::bench::Criterion;
use llmdm_integrate::er::{block, evaluate, ErDataset, SimilarityMatcher};

const SEED: u64 = 7;

fn bench_er(c: &mut Criterion) {
    let dataset = ErDataset::generate(120, 0.4, SEED);
    let mut group = c.benchmark_group("entity_resolution");
    group.bench_function("blocking_180_records", |b| b.iter(|| block(&dataset.records)));
    let matcher = SimilarityMatcher::new(SEED, 0.72);
    group.bench_function("block_and_match", |b| b.iter(|| evaluate(&dataset, &matcher)));
    group.finish();
}

llmdm_rt::bench_main!("integrate_bench", Some(SEED), bench_er);
