//! Property-based tests for vector-database invariants.

use llmdm_vecdb::{
    AttrValue, Collection, Filter, FlatIndex, HybridStrategy, KPredictor, Metric, Predicate,
    VectorIndex,
};
use llmdm_rt::proptest;
use llmdm_rt::proptest::prelude::*;

const DIM: usize = 6;

fn vec_strategy() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-1.0f32..1.0, DIM)
}

proptest! {
    /// Flat search top-1 equals the naive argmax for any data set.
    #[test]
    fn flat_top1_is_argmax(
        vecs in proptest::collection::vec(vec_strategy(), 1..40),
        query in vec_strategy(),
    ) {
        let mut idx = FlatIndex::new(DIM, Metric::Cosine);
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(i as u64, v.clone()).unwrap();
        }
        let got = idx.search(&query, 1).unwrap()[0];
        let naive = vecs
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u64, Metric::Cosine.score(&query, v)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        prop_assert!((got.score - naive.1).abs() < 1e-6);
    }

    /// Search results are sorted best-first and contain no duplicates.
    #[test]
    fn flat_results_sorted_unique(
        vecs in proptest::collection::vec(vec_strategy(), 1..40),
        query in vec_strategy(),
        k in 1usize..10,
    ) {
        let mut idx = FlatIndex::new(DIM, Metric::L2);
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(i as u64, v.clone()).unwrap();
        }
        let hits = idx.search(&query, k).unwrap();
        prop_assert!(hits.len() <= k.min(vecs.len()));
        prop_assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
        let mut ids: Vec<u64> = hits.iter().map(|h| h.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), hits.len());
    }

    /// Insert-then-remove round-trips to the original state for random
    /// interleavings.
    #[test]
    fn flat_insert_remove_consistency(
        ops in proptest::collection::vec((any::<bool>(), 0u64..20), 1..60)
    ) {
        let mut idx = FlatIndex::new(DIM, Metric::Cosine);
        let mut live: Vec<u64> = Vec::new();
        for (insert, id) in ops {
            if insert {
                let v = vec![((id % 7) as f32) / 7.0; DIM];
                if live.contains(&id) {
                    prop_assert!(idx.insert(id, v).is_err());
                } else {
                    idx.insert(id, v).unwrap();
                    live.push(id);
                }
            } else if let Some(pos) = live.iter().position(|&x| x == id) {
                idx.remove(id).unwrap();
                live.remove(pos);
            } else {
                prop_assert!(idx.remove(id).is_err());
            }
            prop_assert_eq!(idx.len(), live.len());
            for &l in &live {
                prop_assert!(idx.get(l).is_some());
            }
        }
    }

    /// Hybrid pre-filter and post-filter agree on which items *qualify*:
    /// every hit satisfies the filter, and pre-filter (exact) returns at
    /// least as many results as requested when enough items qualify.
    #[test]
    fn hybrid_hits_always_satisfy_filter(
        tags in proptest::collection::vec(0i64..3, 8..60),
        query in vec_strategy(),
        k in 1usize..6,
        wanted in 0i64..3,
    ) {
        let mut coll = Collection::new(DIM, Metric::Cosine);
        for (i, &tag) in tags.iter().enumerate() {
            let v: Vec<f32> = (0..DIM).map(|d| ((i + d) % 5) as f32 / 5.0 - 0.4).collect();
            coll.insert(i as u64, v, [("tag", AttrValue::Int(tag))]).unwrap();
        }
        let filter = Filter::all().and(Predicate::Eq("tag".into(), AttrValue::Int(wanted)));
        let qualifying = tags.iter().filter(|&&t| t == wanted).count();
        for strategy in [
            HybridStrategy::PreFilter,
            HybridStrategy::PostFilter { expansion: 2 },
            HybridStrategy::default(),
        ] {
            let (hits, _) = coll.search_filtered_with(&query, k, &filter, strategy).unwrap();
            prop_assert!(hits.len() <= k);
            for h in &hits {
                let metadata = coll.metadata(h.id).expect("a hit is a stored document");
                prop_assert_eq!(metadata.get("tag"), Some(&AttrValue::Int(wanted)));
            }
            if matches!(strategy, HybridStrategy::PreFilter) {
                prop_assert_eq!(hits.len(), k.min(qualifying));
            }
        }
    }

    /// The k-predictor always returns a positive expansion and learns
    /// means within the observed range (+ margin).
    #[test]
    fn kpredictor_bounds(
        observations in proptest::collection::vec((0.0f64..1.0, 1.0f64..32.0), 0..50),
        probe in 0.0f64..1.0,
    ) {
        let mut p = KPredictor::new();
        for (sel, need) in &observations {
            p.observe(*sel, *need);
        }
        let predicted = p.predict(probe);
        prop_assert!(predicted >= 1);
        prop_assert!(predicted <= 104, "predicted {}", predicted); // 64 cold cap, 32*1.25*2 learned cap
    }

    /// Filters compose monotonically: adding a predicate never grows the
    /// match set.
    #[test]
    fn filter_conjunction_shrinks(
        tags in proptest::collection::vec((0i64..4, 0i64..4), 1..40),
    ) {
        let metas: Vec<llmdm_vecdb::filter::Metadata> = tags
            .iter()
            .map(|(a, b)| {
                [
                    ("a".to_string(), AttrValue::Int(*a)),
                    ("b".to_string(), AttrValue::Int(*b)),
                ]
                .into_iter()
                .collect()
            })
            .collect();
        let f1 = Filter::all().and(Predicate::Eq("a".into(), AttrValue::Int(1)));
        let f2 = f1.clone().and(Predicate::Eq("b".into(), AttrValue::Int(2)));
        let n1 = metas.iter().filter(|m| f1.matches(m)).count();
        let n2 = metas.iter().filter(|m| f2.matches(m)).count();
        prop_assert!(n2 <= n1);
    }
}
