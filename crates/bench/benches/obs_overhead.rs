//! The cost of instrumentation, pinned.
//!
//! Two claims from DESIGN.md §8 are enforced here, not just stated:
//!
//! 1. A *disabled* recorder's entry points cost roughly one relaxed
//!    atomic load. Measured as 100-call batches (amortizing the timer
//!    overhead that would otherwise swamp a nanosecond-scale call) and
//!    gated at 50 ns/call on the batch median.
//! 2. Wrapping the tokenizer hot loop with disabled instrumentation adds
//!    less than 5%. The plain and the instrumented loop are timed
//!    interleaved (`bench_interleaved`) and the gate compares medians, so
//!    a slow spell on a shared box lands on both alike.
//!
//! Enabled-recorder costs are measured for the report but not gated —
//! they are allowed to cost what real recording costs.
//!
//! `scripts/verify.sh` runs this with `LLMDM_BENCH_FAST=1`; a regression
//! that makes the disabled path allocate or take a lock fails the build.

use llmdm_model::Tokenizer;
use llmdm_rt::bench::{black_box, Bound::AtMost, Criterion};

const BATCH: usize = 100;

fn bench_disabled(c: &mut Criterion) {
    llmdm_obs::disable();
    let mut group = c.benchmark_group("obs_disabled");
    group.bench_function("counter_add_x100", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                llmdm_obs::counter_add(black_box("bench.noop"), 1.0);
            }
        })
    });
    group.bench_function("span_x100", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                let _guard = llmdm_obs::span(black_box("bench.noop"));
            }
        })
    });
    group.bench_function("observe_x100", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                llmdm_obs::observe(black_box("bench.noop"), 1.0);
            }
        })
    });
    group.finish();
}

fn bench_enabled(c: &mut Criterion) {
    llmdm_obs::enable();
    llmdm_obs::reset();
    let mut group = c.benchmark_group("obs_enabled");
    group.bench_function("counter_add_x100", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                llmdm_obs::counter_add(black_box("bench.enabled_counter"), 1.0);
            }
        })
    });
    group.bench_function("span_x100", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                let _guard = llmdm_obs::span(black_box("bench.enabled_span"));
            }
        })
    });
    group.finish();
    llmdm_obs::disable();
    llmdm_obs::reset();
}

fn bench_tokenizer_overhead(c: &mut Criterion) {
    llmdm_obs::disable();
    let tok = Tokenizer::new();
    let prompt = include_str!("obs_overhead.rs").repeat(4);
    c.benchmark_group("tokenizer_obs").bench_interleaved(&mut [
        ("plain", &mut || {
            black_box(tok.count(black_box(&prompt)));
        }),
        ("with_disabled_obs", &mut || {
            // The exact instrumentation shape used on hot paths: a span
            // guard plus a counter bump, recorder disabled.
            let _span = llmdm_obs::span("bench.tokenize");
            let n = tok.count(black_box(&prompt));
            llmdm_obs::counter_add("bench.tokens", n as f64);
            black_box(n);
        }),
    ]);
}

/// A disabled entry point's budget, ns per call (median of a batch).
const DISABLED_NS_MAX: f64 = 50.0;
/// Disabled instrumentation may slow the tokenizer loop by at most 5 %
/// (ratio of interleaved medians).
const TOKENIZER_RATIO_MAX: f64 = 1.05;

fn gates(c: &mut Criterion) {
    // Claim 1: disabled entry points stay ~an atomic load per call.
    for id in
        ["obs_disabled/counter_add_x100", "obs_disabled/span_x100", "obs_disabled/observe_x100"]
    {
        let per_call = c.stat(id).median_ns as f64 / BATCH as f64;
        c.gate(format!("{id} ns/call (median)"), per_call, AtMost(DISABLED_NS_MAX));
    }
    // Claim 2: <5% overhead on the tokenizer hot loop.
    let plain = c.stat("tokenizer_obs/plain").median_ns as f64;
    let with_obs = c.stat("tokenizer_obs/with_disabled_obs").median_ns as f64;
    let ratio = with_obs / plain;
    c.gate("tokenizer_obs with_disabled_obs/plain (median)", ratio, AtMost(TOKENIZER_RATIO_MAX));
}

llmdm_rt::bench_main!(
    "obs_overhead",
    None,
    bench_disabled,
    bench_enabled,
    bench_tokenizer_overhead,
    gates
);
