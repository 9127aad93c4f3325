//! Stress test for the one-mutex `SharedCache` under real thread
//! contention: 8 workers × 1 000 keyed asks against one shared
//! [`CachedModel`].
//!
//! Two invariants must survive arbitrary interleavings:
//!
//! * **counter reconciliation** — `reuse + augment + stale + misses ==
//!   lookups` holds (racing threads may both miss the same key and both
//!   insert; that shifts the reuse/miss split, never the sum);
//! * **dollar reconciliation** — the costs the cache reported to its
//!   callers sum to exactly what the zoo's usage meter billed, to 1e-9:
//!   reuse and stale serves are free, every model call is metered once.

use std::sync::Mutex;

use llmdm_model::prelude::*;
use llmdm_model::PromptEnvelope;
use llmdm_semcache::{shared_cache, CacheConfig, CachedModel};

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
    let cache = shared_cache(CacheConfig { capacity: 256, seed: SEED, ..Default::default() });
    let llm = CachedModel::new(zoo.medium(), cache.clone());

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
                    let a = llm.ask(&q, &CompletionRequest::new(oracle_prompt(&q))).unwrap();
                    local_cost += a.cost;
                }
                *reported_cost.lock().unwrap() += local_cost;
            });
        }
    });

    let g = llmdm_rt::lock_recover(&cache).stats();
    assert!(g.reconciles(), "stats failed to reconcile: {g:?}");
    assert_eq!(g.lookups as usize, THREADS * REQUESTS_PER_THREAD);

    // With 100 templates behind 8 000 requests, the steady state is
    // overwhelmingly reuse hits — losing them would mean a thread stopped
    // seeing the others' inserts under contention.
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
