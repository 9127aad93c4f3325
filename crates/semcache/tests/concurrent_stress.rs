//! Stress test for the lock-striped [`ShardedCache`] under real thread
//! contention: 8 workers × 1 000 requests against one shared
//! [`CachedLlm`].
//!
//! Two invariants must survive arbitrary interleavings:
//!
//! * **counter reconciliation** — `reuse + augment + stale + misses ==
//!   lookups` holds on every shard independently AND on the global sum
//!   (racing threads may both miss the same key and both insert; that
//!   shifts the reuse/miss split, never the sum);
//! * **dollar reconciliation** — the costs the cache reported to its
//!   callers sum to exactly what the zoo's usage meter billed, to 1e-9:
//!   reuse and stale serves are free, every model call is metered once.

use std::sync::Mutex;

use llmdm_model::prelude::*;
use llmdm_model::PromptEnvelope;
use llmdm_semcache::{CacheConfig, CachedLlm, EntryKind, ShardedCache};

const THREADS: usize = 8;
const REQUESTS_PER_THREAD: usize = 1_000;
const TEMPLATES: usize = 100;
const SEED: u64 = 42;

fn oracle_prompt(q: &str) -> String {
    PromptEnvelope::builder("oracle")
        .header("gold", "the-answer")
        .header("difficulty", "0.0")
        .header("examples", 2)
        .body(q)
        .build()
}

#[test]
fn eight_threads_thousand_requests_reconcile() {
    let zoo = ModelZoo::standard(SEED);
    let llm = CachedLlm::new(
        zoo.medium(),
        ShardedCache::new(CacheConfig { capacity: 256, seed: SEED, ..Default::default() }, 8),
        None,
    );

    // Each thread walks the shared template set from its own offset, so
    // every key is hammered by all 8 threads in different orders.
    let reported_cost = Mutex::new(0.0f64);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let llm = &llm;
            let reported_cost = &reported_cost;
            scope.spawn(move || {
                let mut local_cost = 0.0f64;
                for i in 0..REQUESTS_PER_THREAD {
                    let q = format!(
                        "stress query template {} with shared phrasing",
                        (t * 37 + i) % TEMPLATES
                    );
                    let a = llm.ask(&q, &oracle_prompt(&q), EntryKind::Original).unwrap();
                    local_cost += a.cost;
                }
                *reported_cost.lock().unwrap() += local_cost;
            });
        }
    });

    // Counter reconciliation: per shard, then globally.
    assert_eq!(llm.cache().shard_count(), 8);
    for (i, s) in llm.cache().stats_per_shard().into_iter().enumerate() {
        assert!(s.reconciles(), "shard {i} failed to reconcile: {s:?}");
    }
    let g = llm.cache().stats();
    assert!(g.reconciles(), "global stats failed to reconcile: {g:?}");
    assert_eq!(g.lookups as usize, THREADS * REQUESTS_PER_THREAD);

    // With 100 templates behind 8 000 requests, the steady state is
    // overwhelmingly reuse hits — losing them would mean shards stopped
    // seeing their own inserts under contention.
    assert!(
        g.reuse_hits as usize > THREADS * REQUESTS_PER_THREAD / 2,
        "reuse collapsed under contention: {g:?}"
    );

    // Dollar reconciliation: what the cache told its callers it spent is
    // exactly what the meter billed.
    let reported = *reported_cost.lock().unwrap();
    let metered = zoo.meter().snapshot().total_dollars();
    let diff = (reported - metered).abs();
    assert!(diff < 1e-9, "reported ${reported:.9} != metered ${metered:.9} (diff {diff:e})");
    assert!(metered > 0.0, "the model was never actually called");
}
