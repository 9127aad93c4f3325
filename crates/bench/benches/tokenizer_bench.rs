//! Tokenizer throughput: every dollar figure in the reproduction flows
//! through `Tokenizer::count`.

use llmdm_rt::bench::{Criterion, Throughput};
use llmdm_model::Tokenizer;

fn bench_tokenizer(c: &mut Criterion) {
    let tok = Tokenizer::new();
    let prompt = include_str!("tokenizer_bench.rs").repeat(4);
    let mut group = c.benchmark_group("tokenizer");
    group.throughput(Throughput::Bytes(prompt.len() as u64));
    group.bench_function("count", |b| b.iter(|| tok.count(&prompt)));
    group.bench_function("encode", |b| b.iter(|| tok.encode(&prompt)));
    group.finish();
}

llmdm_rt::bench_main!("tokenizer_bench", None, bench_tokenizer);
