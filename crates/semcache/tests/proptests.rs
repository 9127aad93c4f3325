//! Property-based tests for semantic-cache invariants.

use llmdm_semcache::{AccessPredictor, CacheConfig, EntryKind, EvictionPolicy, Lookup, SemanticCache};
use llmdm_rt::proptest;
use llmdm_rt::proptest::prelude::*;

fn any_policy() -> impl Strategy<Value = EvictionPolicy> {
    prop_oneof![
        Just(EvictionPolicy::Lru),
        Just(EvictionPolicy::Lfu),
        (1.0f64..8.0, 0.1f64..2.0).prop_map(|(r, a)| EvictionPolicy::Weighted {
            reuse_weight: r,
            augment_weight: a
        }),
    ]
}

proptest! {
    /// The cache never exceeds its capacity, whatever the op sequence.
    #[test]
    fn capacity_invariant(
        capacity in 1usize..12,
        policy in any_policy(),
        ops in proptest::collection::vec(("[a-z]{3,12} [a-z]{3,12} [0-9]{1,3}", any::<bool>()), 1..80),
    ) {
        let mut cache = SemanticCache::new(CacheConfig {
            capacity,
            policy,
            ..Default::default()
        });
        for (query, do_insert) in ops {
            if do_insert {
                cache.insert(&query, "resp", EntryKind::Original);
            } else {
                let _ = cache.lookup(&query);
            }
            prop_assert!(cache.len() <= capacity, "len {} > cap {}", cache.len(), capacity);
        }
    }

    /// Inserting then immediately looking up the exact same text is a
    /// reuse hit with the inserted response, for every policy.
    #[test]
    fn insert_then_lookup_hits(
        policy in any_policy(),
        query in "[a-z]{4,12} [a-z]{4,12} [a-z]{4,12}",
        response in "[a-zA-Z0-9 ]{1,30}",
    ) {
        let mut cache =
            SemanticCache::new(CacheConfig { capacity: 8, policy, ..Default::default() });
        cache.insert(&query, &response, EntryKind::SubQuery);
        match cache.lookup(&query) {
            Lookup::Reuse { response: got, similarity }
            | Lookup::Augment { response: got, similarity, .. } => {
                prop_assert_eq!(got, response);
                prop_assert!(similarity > 0.999);
            }
            Lookup::Miss => prop_assert!(false, "fresh insert must hit"),
        }
    }

    /// Stats counters are consistent: every lookup lands in exactly one
    /// bucket.
    #[test]
    fn stats_partition_lookups(
        queries in proptest::collection::vec("[a-z]{3,10} [a-z]{3,10}", 1..40),
    ) {
        let mut cache = SemanticCache::new(CacheConfig::default());
        let mut lookups = 0u64;
        for (i, q) in queries.iter().enumerate() {
            let _ = cache.lookup(q);
            lookups += 1;
            if i % 2 == 0 {
                cache.insert(q, "r", EntryKind::Original);
            }
        }
        let s = cache.stats();
        prop_assert_eq!(s.reuse_hits + s.augment_hits + s.misses, lookups);
    }

    /// The access predictor's probability is monotone in observations and
    /// bounded in [0, 1].
    #[test]
    fn predictor_monotone(n in 0usize..40, query in "[a-z]{3,12} [0-9]{1,4}") {
        let mut p = AccessPredictor::new();
        let mut last = p.predict(&query);
        prop_assert!((0.0..=1.0).contains(&last));
        for _ in 0..n {
            p.observe(&query);
            let now = p.predict(&query);
            prop_assert!(now >= last - 1e-12);
            prop_assert!((0.0..=1.0).contains(&now));
            last = now;
        }
    }
}
