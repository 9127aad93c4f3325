//! Integration tests for the serving determinism contract.
//!
//! `llmdm-serve`'s crate docs promise three things (see the crate-level
//! "Determinism contract"): admission — including quota and shed
//! decisions — is a pure function of `(requests, config)`, a 1-worker
//! run is byte-identical to a plain sequential loop, and an N-worker
//! run produces the same per-job results. The property tests here drive
//! those claims over *generated* workloads — arbitrary tenant/class
//! mixes, payloads, worker counts, and queue capacities — through the
//! typed [`ServeRequest`] surface, and a model-backed test checks the
//! contract holds through the real simulated-model call path including
//! costs.

use std::sync::Arc;

use llmdm::cascade::{HotpotConfig, HotpotWorkload, QaSolver};
use llmdm::model::prelude::*;
use llmdm::serve::prelude::*;
use llmdm_rt::proptest;
use llmdm_rt::proptest::prelude::*;

/// A generated request list: small tenant/key alphabets so coalescing
/// and per-tenant accounting both have work to do.
fn requests_strategy() -> impl Strategy<Value = Vec<ServeRequest<u64>>> {
    proptest::collection::vec(("[abc]", "[xy]", 0u8..3, any::<u64>()), 0..48).prop_map(|raw| {
        raw.into_iter()
            .map(|(tenant, key, class, payload)| {
                let class = match class {
                    0 => Priority::Interactive,
                    1 => Priority::Standard,
                    _ => Priority::Batch,
                };
                ServeRequest::builder(tenant, payload)
                    .class(class)
                    .batch_key(key)
                    .build()
                    .expect("generated requests are valid")
            })
            .collect()
    })
}

/// The pure handler every property test uses: result depends only on
/// `(batch key, payload)`, as the N-worker contract requires.
fn pure_handler(class: &str, batch: &[Job<u64>]) -> Vec<Result<String, ServeError>> {
    batch.iter().map(|j| Ok(format!("{class}#{:x}", j.payload))).collect()
}

proptest! {
    /// 1-worker serving is byte-identical to a direct sequential loop,
    /// for any request list and batch ceiling.
    #[test]
    fn single_worker_is_byte_identical_to_direct_loop(
        requests in requests_strategy(),
        max_batch in 1usize..10,
        seed in any::<u64>(),
    ) {
        let direct: Vec<String> =
            requests.iter().map(|r| format!("{}#{:x}", r.batch_key, r.payload)).collect();
        let cfg = ServeConfig { workers: 1, max_batch, seed, ..Default::default() };
        let run = serve_requests(&cfg, requests.clone(), pure_handler);
        prop_assert_eq!(run.stats.admitted as usize, requests.len());
        prop_assert_eq!(run.results.len(), requests.len());
        prop_assert!(run.stats.reconciles());
        for (i, d) in run.results.iter().enumerate() {
            let Disposition::Done(Ok(text)) = d else {
                return Err(TestCaseError::Fail(format!("job {i} did not complete")));
            };
            prop_assert_eq!(text, &direct[i], "job {} diverged from the direct loop", i);
        }
    }

    /// N workers produce the same per-job results as one worker, with
    /// the load fully accounted for across the pool and identical
    /// per-tenant accounting.
    #[test]
    fn n_workers_match_single_worker(
        requests in requests_strategy(),
        workers in 2usize..9,
        max_batch in 1usize..10,
    ) {
        let base = serve_requests(
            &ServeConfig { workers: 1, max_batch, ..Default::default() },
            requests.clone(),
            pure_handler,
        );
        let run = serve_requests(
            &ServeConfig { workers, max_batch, ..Default::default() },
            requests.clone(),
            pure_handler,
        );
        prop_assert_eq!(&run.results, &base.results, "worker count changed the results");
        prop_assert_eq!(&run.stats.per_tenant, &base.stats.per_tenant);
        prop_assert_eq!(run.stats.per_worker_jobs.len(), workers);
        prop_assert_eq!(
            run.stats.per_worker_jobs.iter().sum::<u64>(),
            run.stats.admitted,
            "per-worker job counts must sum to the admitted load"
        );
    }

    /// Admission is a pure function of `(requests, queue_capacity)`:
    /// exactly the first `capacity` submissions are admitted, at any
    /// worker count, and every rejection carries a retryable
    /// backpressure hint that maps onto the model-layer transient error.
    #[test]
    fn admission_depends_only_on_capacity(
        requests in requests_strategy(),
        capacity in 1usize..64,
        workers in 1usize..5,
    ) {
        let cfg = ServeConfig { workers, queue_capacity: capacity, ..Default::default() };
        let total = requests.len();
        let run = serve_requests(&cfg, requests, pure_handler);
        let admitted = total.min(capacity);
        prop_assert_eq!(run.stats.admitted as usize, admitted);
        prop_assert_eq!(run.stats.rejected as usize, total - admitted);
        prop_assert!(run.stats.reconciles());
        for (i, d) in run.results.iter().enumerate() {
            prop_assert_eq!(d.is_rejected(), i >= admitted, "job {}", i);
            if let Disposition::Rejected(e) = d {
                let ServeError::Rejected { depth, retry_after_ms } = e else {
                    return Err(TestCaseError::Fail(format!("job {i}: unexpected {e:?}")));
                };
                prop_assert!(e.is_retryable());
                prop_assert_eq!(e.retry_after_ms(), Some(*retry_after_ms));
                prop_assert!(*depth >= capacity);
                // The serving rejection maps cleanly onto the model
                // layer's transient-error vocabulary.
                let mapped = ModelError::transient(TransientKind::Unavailable, *retry_after_ms);
                prop_assert!(mapped.is_retryable());
                prop_assert_eq!(mapped.retry_after_ms(), Some(*retry_after_ms));
            }
        }
    }

    /// The trace id a handler reads off `job.trace` depends only on
    /// `(seed, submission index)`: not on the worker count, not on what
    /// was submitted; a different seed moves every id.
    #[test]
    fn trace_ids_are_a_pure_function_of_seed_and_index(
        requests in requests_strategy(),
        seed in any::<u64>(),
    ) {
        let ids = |seed: u64, workers: usize, requests: Vec<ServeRequest<u64>>| -> Vec<u64> {
            let cfg = ServeConfig { workers, seed, ..Default::default() };
            let run = serve_requests(&cfg, requests, |_class: &str, batch: &[Job<u64>]| {
                batch.iter().map(|j| Ok::<_, ServeError>(j.trace.trace_id)).collect()
            });
            run.results.iter().map(|d| *d.ok().expect("nothing is rejected")).collect()
        };
        let base = ids(seed, 1, requests.clone());
        prop_assert!(base.iter().all(|&t| t != 0), "0 means no trace");
        for workers in [2usize, 8] {
            prop_assert_eq!(&ids(seed, workers, requests.clone()), &base, "workers={}", workers);
        }
        // Other requests, same length: same ids.
        let others: Vec<ServeRequest<u64>> = (0..requests.len() as u64)
            .map(|i| ServeRequest::builder("z", i).build().expect("valid"))
            .collect();
        prop_assert_eq!(&ids(seed, 1, others), &base);
        let moved = ids(seed.wrapping_add(1), 1, requests);
        prop_assert!(base.iter().zip(&moved).all(|(a, b)| a != b), "seed must move every id");
    }
}

/// Build the typed QA requests the model-backed tests serve.
fn qa_requests(workload: &HotpotWorkload) -> Vec<ServeRequest<String>> {
    workload
        .items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let key = if i % 2 == 0 { "qa-even" } else { "qa-odd" };
            ServeRequest::builder(format!("team-{}", i % 2), item.prompt())
                .class(if i % 2 == 0 { Priority::Interactive } else { Priority::Batch })
                .batch_key(key)
                .build()
                .expect("valid request")
        })
        .collect()
}

/// The contract through the real simulated-model path: serving the zoo's
/// large tier at 1 and 4 workers reproduces the direct loop byte for
/// byte — text AND cost bits — and the meter bills each run identically.
#[test]
fn model_backed_serving_is_deterministic() {
    const SEED: u64 = 7;
    let zoo = ModelZoo::standard(SEED);
    zoo.register_solver(Arc::new(QaSolver));
    let model = ModelStack::new(&zoo).build_arc();
    let workload =
        HotpotWorkload::generate(HotpotConfig { n: 12, seed: SEED, ..Default::default() });
    let requests = qa_requests(&workload);

    let direct: Vec<(String, u64)> = requests
        .iter()
        .map(|r| {
            let c = model.complete(&CompletionRequest::new(r.payload.clone())).expect("completes");
            (c.text, c.cost.to_bits())
        })
        .collect();
    let billed_direct = zoo.meter().snapshot().total_dollars();
    zoo.meter().reset();

    for workers in [1usize, 4] {
        let run = serve_requests(
            &ServeConfig { workers, max_batch: 4, seed: SEED, ..Default::default() },
            requests.clone(),
            |_class: &str, batch: &[Job<String>]| {
                batch
                    .iter()
                    .map(|j| model.complete(&CompletionRequest::new(j.payload.clone())))
                    .collect()
            },
        );
        for (i, d) in run.results.iter().enumerate() {
            let Disposition::Done(Ok(c)) = d else { panic!("job {i} did not complete") };
            assert_eq!(
                (c.text.clone(), c.cost.to_bits()),
                direct[i],
                "workers={workers} job {i}: served result differs from the direct path"
            );
        }
        assert!(run.stats.reconciles());
        let billed = zoo.meter().snapshot().total_dollars();
        assert!(
            (billed - billed_direct).abs() < 1e-12,
            "workers={workers}: billed ${billed} != direct ${billed_direct}"
        );
        zoo.meter().reset();
    }
}

/// Rejected work retried through the model layer's retry machinery:
/// a rejection converts to `ModelError::transient`, which the stack's
/// retry policy recognises as retryable — the intended recovery loop.
#[test]
fn rejection_feeds_the_retry_loop() {
    const SEED: u64 = 7;
    let zoo = ModelZoo::standard(SEED);
    zoo.register_solver(Arc::new(QaSolver));
    let model = ModelStack::new(&zoo).with_default_retry().build_arc();
    let workload =
        HotpotWorkload::generate(HotpotConfig { n: 8, seed: SEED, ..Default::default() });
    let requests: Vec<ServeRequest<String>> = workload
        .items
        .iter()
        .map(|item| ServeRequest::builder("qa", item.prompt()).build().expect("valid"))
        .collect();
    let handler = |_c: &str, batch: &[Job<String>]| {
        batch.iter().map(|j| model.complete(&CompletionRequest::new(j.payload.clone()))).collect()
    };
    let run = serve_requests(
        &ServeConfig { workers: 2, queue_capacity: 4, seed: SEED, ..Default::default() },
        requests.clone(),
        handler,
    );
    // Re-submit exactly the rejected tail; it all completes now.
    let retry_requests: Vec<ServeRequest<String>> = run
        .results
        .iter()
        .zip(&requests)
        .filter(|(d, _)| d.is_rejected())
        .map(|(_, r)| r.clone())
        .collect();
    assert_eq!(retry_requests.len(), 4);
    let second = serve_requests(
        &ServeConfig { workers: 2, queue_capacity: 4, seed: SEED + 1, ..Default::default() },
        retry_requests,
        handler,
    );
    assert!(second.results.iter().all(|d| matches!(d, Disposition::Done(Ok(_)))));
}
