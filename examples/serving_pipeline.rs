//! serving_pipeline — the concurrent serving layer, self-validated.
//!
//! Run with `cargo run -p llmdm --example serving_pipeline`.
//!
//! Drives a mixed HotpotQA + NL2SQL workload through `llmdm-serve`'s
//! scheduler — now via the typed [`ServeRequest`] surface (tenant +
//! priority class + batch key, built with `ServeRequest::builder`) —
//! over the simulated model zoo, then asserts the serving determinism
//! contract end to end:
//!
//! 1. **Admission is deterministic**: with `queue_capacity = C`, exactly
//!    the first `C` submissions are admitted and the rest rejected with a
//!    usable backpressure hint, regardless of worker count.
//! 2. **Batches are class-pure**: HotpotQA and NL2SQL jobs never share a
//!    coalesced dispatch, and batch sizes respect `max_batch`.
//! 3. **One worker ≡ direct loop**: single-worker serving is
//!    byte-identical (text, cost) to calling the model in a plain loop.
//! 4. **N workers, same answers**: 4-worker serving produces identical
//!    per-job results (the handler is pure per payload), and per-tenant
//!    accounting reconciles (`admitted + rejected + shed == submitted`).
//! 5. **Concurrent cache + exact dollars**: a 4-worker run through one
//!    [`CachedModel`] over one `SharedCache` keeps the
//!    `reuse+augment+stale+misses == lookups` invariant, and the fault
//!    injector's executed cost reconciles with the usage meter to 1e-9.
//!
//! Exits non-zero on any violation — `scripts/verify.sh` runs it.

use std::sync::Arc;

use llmdm::cascade::{HotpotConfig, HotpotWorkload, QaSolver};
use llmdm::model::prelude::*;
use llmdm::nlq::{concert_domain, ExamplePool, Nl2SqlSolver, PromptBuilder, Workload, WorkloadConfig};
use llmdm::resil::FaultPlan;
use llmdm::semcache::{shared_cache, CacheConfig, CachedModel};
use llmdm::serve::prelude::*;

const SEED: u64 = 42;

/// One serving payload: the cache key and full model prompt (the
/// batching class now rides on the typed request).
#[derive(Clone)]
struct Req {
    key: String,
    prompt: String,
}

/// Interleaved HotpotQA and NL2SQL requests as typed submissions:
/// HotpotQA bills tenant `research` at interactive priority, NL2SQL
/// bills tenant `analytics` at batch priority; the batch key keeps the
/// two task families from ever coalescing together.
fn mixed_workload(zoo: &ModelZoo) -> Vec<ServeRequest<Req>> {
    zoo.register_solver(Arc::new(QaSolver));
    zoo.register_solver(Arc::new(Nl2SqlSolver));
    let hotpot = HotpotWorkload::generate(HotpotConfig { n: 24, seed: SEED, ..Default::default() });
    let nlq_db = concert_domain(SEED);
    let builder = PromptBuilder::new(ExamplePool::generate(SEED), nlq_db.schema_summary());
    let nlq = Workload::generate(WorkloadConfig { n: 16, seed: SEED, ..Default::default() });

    let mut jobs: Vec<ServeRequest<Req>> = Vec::new();
    let mut h = hotpot.items.iter();
    let mut n = nlq.queries.iter();
    // 3:2 interleave so classes alternate and coalescing has work to do.
    loop {
        let mut pushed = false;
        for item in h.by_ref().take(3) {
            jobs.push(
                ServeRequest::builder(
                    "research",
                    Req { key: item.question.clone(), prompt: item.prompt() },
                )
                .class(Priority::Interactive)
                .batch_key("hotpot")
                .build()
                .expect("valid request"),
            );
            pushed = true;
        }
        for q in n.by_ref().take(2) {
            jobs.push(
                ServeRequest::builder(
                    "analytics",
                    Req { key: q.text.clone(), prompt: builder.single(&q.text) },
                )
                .class(Priority::Batch)
                .batch_key("nl2sql")
                .build()
                .expect("valid request"),
            );
            pushed = true;
        }
        if !pushed {
            break;
        }
    }
    jobs
}

fn text_and_cost(r: &Result<Completion, ModelError>) -> (Option<(String, u64)>, bool) {
    match r {
        Ok(c) => (Some((c.text.clone(), c.cost.to_bits())), true),
        Err(_) => (None, false),
    }
}

fn main() {
    println!("serving_pipeline: mixed HotpotQA/NL2SQL workload through llmdm-serve\n");

    // ================================================================
    // Sections 1–4: a pure per-payload handler (direct model calls).
    // ================================================================
    let zoo = ModelZoo::standard(SEED);
    let jobs = mixed_workload(&zoo);
    let total = jobs.len();
    let model = ModelStack::new(&zoo).build_arc();
    let handler = |_class: &str, batch: &[Job<Req>]| -> Vec<Result<Completion, ModelError>> {
        batch
            .iter()
            .map(|j| model.complete(&CompletionRequest::new(j.payload.prompt.clone())))
            .collect()
    };

    // ---- 3. One worker ≡ direct loop. ------------------------------
    let direct: Vec<Result<Completion, ModelError>> = jobs
        .iter()
        .map(|r| model.complete(&CompletionRequest::new(r.payload.prompt.clone())))
        .collect();
    let one = serve_requests(
        &ServeConfig { workers: 1, seed: SEED, ..Default::default() },
        jobs.clone(),
        handler,
    );
    assert_eq!(one.stats.admitted as usize, total);
    for (i, d) in one.results.iter().enumerate() {
        let Disposition::Done(served) = d else { panic!("job {i} rejected") };
        assert_eq!(
            text_and_cost(served),
            text_and_cost(&direct[i]),
            "job {i}: 1-worker serve differs from the direct call path"
        );
    }
    println!("[3] 1-worker serve byte-identical to the direct loop over {total} jobs");

    // ---- 4. N workers: identical per-job results, reconciled tenants.
    let four = serve_requests(
        &ServeConfig { workers: 4, seed: SEED, ..Default::default() },
        jobs.clone(),
        handler,
    );
    assert_eq!(four.stats.per_worker_jobs.len(), 4);
    assert_eq!(four.stats.per_worker_jobs.iter().sum::<u64>() as usize, total);
    for (i, (a, b)) in one.results.iter().zip(&four.results).enumerate() {
        let (Disposition::Done(x), Disposition::Done(y)) = (a, b) else {
            panic!("job {i} rejected")
        };
        assert_eq!(text_and_cost(x), text_and_cost(y), "job {i}: 4-worker result differs");
    }
    assert!(four.stats.reconciles(), "per-tenant accounting must reconcile: {:?}", four.stats);
    assert_eq!(four.stats.per_tenant["research"].submitted, 24);
    assert_eq!(four.stats.per_tenant["analytics"].submitted, 16);
    println!("[4] 4-worker serve: same completions (split {:?})", four.stats.per_worker_jobs);

    // ---- 2. Batches are class-pure and bounded. --------------------
    let seen = std::sync::Mutex::new(Vec::<(String, usize)>::new());
    let batched = serve_requests(
        &ServeConfig { workers: 2, max_batch: 8, seed: SEED, ..Default::default() },
        jobs.clone(),
        |class: &str, batch: &[Job<Req>]| {
            assert!(
                batch.iter().all(|j| j.class == class),
                "mixed-class batch under class `{class}`"
            );
            seen.lock().unwrap().push((class.to_string(), batch.len()));
            batch
                .iter()
                .map(|j| model.complete(&CompletionRequest::new(j.payload.prompt.clone())))
                .collect()
        },
    );
    let seen = seen.into_inner().unwrap();
    assert!(seen.iter().all(|(_, n)| *n <= 8), "batch exceeded max_batch: {seen:?}");
    assert_eq!(batched.stats.batches as usize, seen.len());
    assert!(
        batched.stats.largest_batch >= 2,
        "coalescing never happened: largest={}",
        batched.stats.largest_batch
    );
    println!(
        "[2] {} class-pure batches over {} jobs (largest {})",
        batched.stats.batches, total, batched.stats.largest_batch
    );

    // ---- 1. Deterministic admission under backpressure. ------------
    let cap = total / 2;
    for workers in [1usize, 4] {
        let run = serve_requests(
            &ServeConfig { workers, queue_capacity: cap, seed: SEED, ..Default::default() },
            jobs.clone(),
            handler,
        );
        assert_eq!(run.stats.admitted as usize, cap, "workers={workers}");
        assert_eq!(run.stats.rejected as usize, total - cap, "workers={workers}");
        assert!(run.stats.reconciles(), "workers={workers}: {:?}", run.stats);
        for (i, d) in run.results.iter().enumerate() {
            assert_eq!(d.is_rejected(), i >= cap, "workers={workers} job {i}");
        }
        // A rejection maps cleanly onto the model-layer transient error,
        // sharing the retry-hint vocabulary (`retry_after_ms`).
        let Disposition::Rejected(e) = &run.results[cap] else { unreachable!() };
        let hint = e.retry_after_ms().expect("backpressure carries a retry hint");
        let mapped = ModelError::transient(TransientKind::Unavailable, hint);
        assert!(mapped.is_retryable() && e.is_retryable());
        assert_eq!(mapped.retry_after_ms(), Some(hint));
    }
    println!("[1] admission: first {cap} admitted, {} rejected, at 1 and 4 workers", total - cap);

    // ================================================================
    // Section 5: one concurrent cache + exact dollar accounting.
    // ================================================================
    let zoo2 = ModelZoo::standard(SEED);
    let jobs2 = mixed_workload(&zoo2);
    // Repeat the workload twice so the second pass produces reuse hits.
    let mut cached_jobs = jobs2.clone();
    cached_jobs.extend(jobs2.iter().cloned());
    let stack = ModelStack::new(&zoo2).with_faults(Arc::new(FaultPlan::none()));
    let faulty = stack.faulty().expect("with_faults applied").clone();
    let cache = shared_cache(CacheConfig { capacity: 512, seed: SEED, ..Default::default() });
    let llm = CachedModel::new(stack.build_arc(), cache.clone());
    let run = serve_requests(
        &ServeConfig { workers: 4, max_batch: 4, seed: SEED, ..Default::default() },
        cached_jobs,
        |_class: &str, batch: &[Job<Req>]| {
            batch
                .iter()
                .map(|j| llm.ask(&j.payload.key, &CompletionRequest::new(j.payload.prompt.clone())))
                .collect()
        },
    );
    assert_eq!(run.stats.admitted as usize, 2 * total);
    assert!(run.results.iter().all(|d| matches!(d, Disposition::Done(Ok(_)))));
    let g = llmdm::rt::lock_recover(&cache).stats();
    assert!(g.reconciles(), "cache stats failed to reconcile: {g:?}");
    assert_eq!(g.lookups as usize, 2 * total);
    assert!(g.reuse_hits as usize >= total / 2, "repeat pass must reuse: {g:?}");
    let executed = faulty.executed_cost();
    let metered = zoo2.meter().snapshot().total_dollars();
    let diff = (executed - metered).abs();
    assert!(diff < 1e-9, "executed ${executed:.9} != metered ${metered:.9}");
    println!(
        "[5] 4 workers × one cache: {} lookups, {} reuse hits, \
         executed ${executed:.6} == metered ${metered:.6}",
        g.lookups, g.reuse_hits
    );

    println!("\nserving_pipeline: all serving invariants hold");
}
