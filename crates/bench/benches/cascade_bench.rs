//! Cascade routing overhead per query (excluding/including escalation).

use llmdm_rt::bench::Criterion;
use llmdm_cascade::{CascadeRouter, DecisionModel, HotpotConfig, HotpotWorkload, QaSolver};
use llmdm_model::ModelZoo;
use std::sync::Arc;

const SEED: u64 = 3;

fn bench_cascade(c: &mut Criterion) {
    let zoo = ModelZoo::standard(SEED);
    zoo.register_solver(Arc::new(QaSolver));
    let w = HotpotWorkload::generate(HotpotConfig { n: 40, seed: SEED, ..Default::default() });
    let router = CascadeRouter::new(zoo.cascade_order(), DecisionModel::new(), 0.6);
    let mut group = c.benchmark_group("cascade");
    let mut i = 0usize;
    group.bench_function("route_one_query", |b| {
        b.iter(|| {
            i = (i + 1) % w.items.len();
            router.answer(&w.items[i].prompt()).expect("routes")
        })
    });
    group.finish();
}

llmdm_rt::bench_main!("cascade_bench", Some(SEED), bench_cascade);
