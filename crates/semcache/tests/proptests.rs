//! Property-based tests for semantic-cache invariants.

use llmdm_semcache::{
    AccessPredictor, CacheConfig, EntryKind, EvictionPolicy, Lookup, Probe, SemanticCache,
};
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

/// A text from a small pool, so verbatim repeats are common: five
/// shapes × four numbers, each in one of three casings. Same-shape texts
/// are near-duplicates; texts that differ only in case embed identically
/// and tie in a scan; the empty text has no embedding at all.
fn pool_text() -> impl Strategy<Value = String> {
    (0..6usize, 0..4u32, 0..3usize).prop_map(|(shape, n, casing)| {
        let text = match shape {
            0 => format!("Foo Bar stadium concerts in {}", 2014 + n),
            1 => format!("median household income by postal region {n}"),
            2 => format!("list all singers ordered by age, page {n}"),
            3 => format!("Émile's café on Straße {n}"),
            4 => format!("İSTANBUL weather for day {n}"),
            _ => String::new(),
        };
        match casing {
            0 => text,
            1 => text.to_lowercase(),
            _ => text.to_uppercase(),
        }
    })
}

/// One cache operation.
#[derive(Debug, Clone)]
enum Op {
    Insert(String, String),
    Lookup(String),
    ServeStale(String),
}

fn any_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (pool_text(), pool_text()).prop_map(|(q, r)| Op::Insert(q, r)),
        pool_text().prop_map(Op::Lookup),
        pool_text().prop_map(Op::ServeStale),
    ]
}

/// What an operation returned, similarities as bits.
fn outcome_bits(lookup: Lookup) -> (u8, String, String, u32) {
    match lookup {
        Lookup::Reuse { response, similarity } => {
            (0, String::new(), response, similarity.to_bits())
        }
        Lookup::Augment { query, response, similarity } => {
            (1, query, response, similarity.to_bits())
        }
        Lookup::Miss => (2, String::new(), String::new(), 0),
    }
}

proptest! {
    /// A probe copied from a verbatim entry changes nothing: a cache
    /// driven through `insert`/`lookup`/`serve_stale` (which probe a text
    /// they hold verbatim with its stored vector) and one driven through
    /// `Probe::new` and the `_probed` methods (which always embed) return
    /// the same outcomes, similarity bits included, and end with the same
    /// counters and survivors — across evictions, ties between texts that
    /// embed alike, and response matching.
    #[test]
    fn verbatim_probes_match_embedded_probes_bit_for_bit(
        capacity in 1usize..6,
        policy in any_policy(),
        match_responses in any::<bool>(),
        ops in proptest::collection::vec(any_op(), 1..60),
    ) {
        let config = CacheConfig { capacity, policy, match_responses, ..Default::default() };
        let (mut verbatim, mut embedded) = (SemanticCache::new(config), SemanticCache::new(config));
        let embedder = embedded.embedder().clone();
        for op in &ops {
            match op {
                Op::Insert(q, r) => {
                    verbatim.insert(q, r, EntryKind::Original);
                    embedded.insert_probed(Probe::new(&embedder, q), r, EntryKind::Original);
                }
                Op::Lookup(q) => {
                    let got = outcome_bits(verbatim.lookup(q));
                    let want = outcome_bits(embedded.lookup_probed(&Probe::new(&embedder, q)));
                    prop_assert_eq!(got, want, "lookup {:?}", q);
                }
                Op::ServeStale(q) => {
                    let bits = |s: Option<(String, String, f32)>| {
                        s.map(|(q, r, sim)| (q, r, sim.to_bits()))
                    };
                    let got = bits(verbatim.serve_stale(q));
                    let want = bits(embedded.serve_stale_probed(&Probe::new(&embedder, q)));
                    prop_assert_eq!(got, want, "serve_stale {:?}", q);
                }
            }
            prop_assert_eq!(verbatim.stats(), embedded.stats(), "after {:?}", op);
            prop_assert_eq!(verbatim.entries_by_id(), embedded.entries_by_id(), "after {:?}", op);
        }
    }

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
