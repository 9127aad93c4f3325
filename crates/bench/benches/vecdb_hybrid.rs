//! Hybrid filtered search: pre-filter vs post-filter vs adaptive ordering
//! as selectivity varies (§III-B2's "order of filtering" question).
//!
//! A 20 000-document collection, one `tag` attribute that is `rare` on
//! 2 % or on 50 % of the documents, a k=10 search under each strategy —
//! timed interleaved, in shuffled order (`bench_interleaved`), so that
//! drift on a shared box and the caches one search leaves the next cancel
//! out of the ratios. Two claims are gated on median latency:
//!
//! * **the adaptive rule picks well** — at both selectivities it costs at
//!   most 1.25× the cheaper of the two fixed orderings. That pair is timed
//!   again in a group of its own (`…_gate`): in the four-case group the
//!   slowest case sets how many rounds run, which at 2 % leaves the two
//!   fast cases under a hundred samples each in a smoke run, each taken
//!   after a neighbour that flushes the caches — too few, and too
//!   disturbed, for a median ratio held to 1.25;
//! * **a selective filter is cheaper than no filter** — pre-filtering at
//!   2 % (the attribute index hands over ~400 rows to score) costs no more
//!   than the exact scan of all 20 000.
//!
//! The collection is this large because the question needs it to be: at
//! the 5 000 × 32-d this bench used to run, the whole arena scans in the
//! time of one graph search, so pre-filtering wins at every selectivity
//! and there is no ordering to choose.
//!
//! `scripts/verify.sh` runs this with `LLMDM_BENCH_FAST=1`; results land
//! in `BENCH_vecdb_hybrid.json`.

use llmdm_rt::bench::{black_box, Bound::AtMost, Criterion};
use llmdm_rt::rand::rngs::SmallRng;
use llmdm_rt::rand::{Rng, SeedableRng};
use llmdm_vecdb::{AttrValue, Collection, Filter, HybridStrategy, Metric};

/// Seeds the collection; the query stream draws from `SEED + 6`.
const SEED: u64 = 3;
/// Adaptive may cost this much of the cheaper fixed strategy.
const MAX_ADAPTIVE_OVER_BEST: f64 = 1.25;
/// Pre-filtering at 2 % may cost this much of the exact scan.
const MAX_PREFILTER_OVER_EXACT: f64 = 1.0;

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
    let n = 20_000;
    let mut rng = SmallRng::seed_from_u64(SEED + 6);
    let queries: Vec<Vec<f32>> =
        (0..32).map(|_| (0..32).map(|_| rng.gen_range(-1.0..1.0f32)).collect()).collect();

    for (label, frac) in [("sel_2pct", 0.02), ("sel_50pct", 0.5)] {
        let coll = build(n, frac);
        let filter = Filter::eq("tag", "rare");
        let group_name = format!("vecdb_hybrid_{label}");
        // The gates below compare these medians, so they are taken
        // interleaved. Each case walks the query stream from its own
        // offset: no search repeats the traversal the one before it just
        // left in cache.
        let next_query = |at: &mut usize| {
            *at += 1;
            &queries[*at % queries.len()]
        };
        let filtered = |at: &mut usize, strategy| {
            let hits = coll.search_filtered_with(next_query(at), 10, &filter, strategy);
            black_box(hits.expect("search"));
        };
        let (mut pre, mut post, mut adaptive, mut exact) = (0, 8, 16, 24);
        c.benchmark_group(&group_name).bench_interleaved(&mut [
            ("prefilter/k10", &mut || filtered(&mut pre, HybridStrategy::PreFilter)),
            ("postfilter/k10", &mut || {
                filtered(&mut post, HybridStrategy::PostFilter { expansion: 4 })
            }),
            ("adaptive/k10", &mut || filtered(&mut adaptive, HybridStrategy::default())),
            ("exact_unfiltered/k10", &mut || {
                black_box(coll.search_exact(next_query(&mut exact), 10).expect("search"));
            }),
        ]);

        let median = |c: &Criterion, group: &str, name: &str| {
            c.stat(&format!("{group}/{name}/k10")).median_ns as f64
        };
        let prefilter_over_exact =
            median(c, &group_name, "prefilter") / median(c, &group_name, "exact_unfiltered");

        // Adaptive against the cheaper fixed ordering, the two alone.
        let (fixed_name, fixed) =
            if median(c, &group_name, "prefilter") <= median(c, &group_name, "postfilter") {
                ("prefilter", HybridStrategy::PreFilter)
            } else {
                ("postfilter", HybridStrategy::PostFilter { expansion: 4 })
            };
        let gate_group = format!("{group_name}_gate");
        let (mut fixed_at, mut adaptive_at) = (0, 16);
        c.benchmark_group(&gate_group).bench_interleaved(&mut [
            (&format!("{fixed_name}/k10"), &mut || filtered(&mut fixed_at, fixed)),
            ("adaptive/k10", &mut || filtered(&mut adaptive_at, HybridStrategy::default())),
        ]);
        let adaptive_over_best =
            median(c, &gate_group, "adaptive") / median(c, &gate_group, fixed_name);
        c.gate(
            format!("{group_name} adaptive/min(prefilter, postfilter) (median)"),
            adaptive_over_best,
            AtMost(MAX_ADAPTIVE_OVER_BEST),
        );
        if frac < 0.1 {
            c.gate(
                format!("{group_name} prefilter/exact scan (median)"),
                prefilter_over_exact,
                AtMost(MAX_PREFILTER_OVER_EXACT),
            );
        }
    }
}

llmdm_rt::bench_main!("vecdb_hybrid", Some(SEED), bench_hybrid);
