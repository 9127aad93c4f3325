//! Serving-layer throughput scaling and saturation, pinned.
//!
//! DESIGN.md §10/§15 claim the scheduler's worker pool overlaps
//! I/O-bound request latency: since a serving deployment spends its time
//! waiting on model APIs, N workers should approach N× the single-worker
//! ops/sec. This bench drives a mixed HotpotQA + NL2SQL workload through
//! the typed [`llmdm_serve::serve_requests`] surface at 1/2/4/8 workers
//! with a handler that *enacts* each completion's simulated latency as a
//! real (scaled-down) sleep — the deterministic stand-in for network
//! wait, so the measured scaling reflects wait-overlap rather than core
//! count (this repo's CI box has one core).
//!
//! Asserted invariants, before any timing:
//! * 1-worker serving is byte-identical (text + cost bits) to a direct
//!   sequential loop over the same jobs;
//! * after all runs, the fault injector's executed cost reconciles with
//!   the shared usage meter to 1e-9 even though workers billed it
//!   concurrently;
//! * every sweep configuration's accounting reconciles
//!   (`admitted + rejected + shed == submitted`, per tenant).
//!
//! Then: 8-worker ops/sec is gated at ≥ 3× the 1-worker figure, on
//! median ns.
//!
//! The **saturation sweep** extends the report: ops/sec and p99 as the
//! offered load rises against a fixed per-tenant quota
//! (`serve_saturation/interval/*`, arrival interval 50 → 2 ms), and as
//! the tenant mix shifts between interactive- and batch-heavy
//! (`serve_saturation/mix/*`). Throughput counts *completed* jobs, so
//! the sweep shows the admitted plateau once quotas bind.
//!
//! `scripts/verify.sh` runs this with `LLMDM_BENCH_FAST=1`; results —
//! stamped with git rev + seed — land in `BENCH_serve.json`.

use std::sync::Arc;
use std::time::Duration;

use llmdm_cascade::{HotpotConfig, HotpotWorkload, QaSolver};
use llmdm_model::prelude::*;
use llmdm_nlq::{concert_domain, ExamplePool, Nl2SqlSolver, PromptBuilder, Workload, WorkloadConfig};
use llmdm_resil::FaultPlan;
use llmdm_rt::bench::{Bound::AtLeast, Criterion, Throughput};
use llmdm_serve::prelude::*;

const SEED: u64 = 42;
/// Real sleep = simulated latency / this. A ~300 ms simulated call
/// becomes ~1.2 ms of actual wait — long enough to dominate the CPU
/// cost of a simulated completion, short enough to keep the bench quick.
const LATENCY_SCALE: u32 = 256;
/// 8 workers must reach this multiple of 1-worker throughput.
const MIN_SPEEDUP: f64 = 3.0;

#[derive(Clone)]
struct Req {
    prompt: String,
}

/// The two task families as prompt pools.
struct Pools {
    hotpot: Vec<String>,
    nl2sql: Vec<String>,
}

fn pools(zoo: &ModelZoo) -> Pools {
    zoo.register_solver(Arc::new(QaSolver));
    zoo.register_solver(Arc::new(Nl2SqlSolver));
    let hotpot = HotpotWorkload::generate(HotpotConfig { n: 24, seed: SEED, ..Default::default() });
    let nlq_db = concert_domain(SEED);
    let builder = PromptBuilder::new(ExamplePool::generate(SEED), nlq_db.schema_summary());
    let nlq = Workload::generate(WorkloadConfig { n: 16, seed: SEED, ..Default::default() });
    Pools {
        hotpot: hotpot.items.iter().map(|i| i.prompt()).collect(),
        nl2sql: nlq.queries.iter().map(|q| builder.single(&q.text)).collect(),
    }
}

/// Interleave the pools `per_round.0` hotpot : `per_round.1` nl2sql into
/// typed requests — hotpot bills tenant `research` at interactive
/// priority, nl2sql bills `analytics` at batch priority.
fn mixed_requests(pools: &Pools, per_round: (usize, usize)) -> Vec<ServeRequest<Req>> {
    let mut jobs = Vec::new();
    let mut h = pools.hotpot.iter();
    let mut n = pools.nl2sql.iter();
    loop {
        let mut pushed = false;
        for prompt in h.by_ref().take(per_round.0) {
            jobs.push(
                ServeRequest::builder("research", Req { prompt: prompt.clone() })
                    .class(Priority::Interactive)
                    .batch_key("hotpot")
                    .build()
                    .expect("valid request"),
            );
            pushed = true;
        }
        for prompt in n.by_ref().take(per_round.1) {
            jobs.push(
                ServeRequest::builder("analytics", Req { prompt: prompt.clone() })
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

fn run(c: &mut Criterion) {
    llmdm_obs::disable();
    let zoo = ModelZoo::standard(SEED);
    let pools = pools(&zoo);
    let jobs = mixed_requests(&pools, (3, 2));
    let total = jobs.len() as u64;

    // The serving stack: zoo large tier behind a no-op fault injector,
    // kept so executed-cost reconciliation can be asserted at the end.
    let stack = ModelStack::new(&zoo).with_faults(Arc::new(FaultPlan::none()));
    let faulty = stack.faulty().expect("with_faults applied").clone();
    let model = stack.build_arc();

    // The I/O-bound handler: complete, then actually wait the (scaled)
    // simulated latency, as a network-bound deployment would.
    let handler = |_class: &str, batch: &[Job<Req>]| -> Vec<Result<Completion, ModelError>> {
        batch
            .iter()
            .map(|j| {
                let c = model.complete(&CompletionRequest::new(j.payload.prompt.clone()))?;
                std::thread::sleep(c.latency / LATENCY_SCALE);
                Ok(c)
            })
            .collect()
    };

    // ---- Correctness gate 1: 1-worker ≡ direct loop. ----------------
    let direct: Vec<(String, u64)> = jobs
        .iter()
        .map(|r| {
            let c = model.complete(&CompletionRequest::new(r.payload.prompt.clone())).expect("ok");
            (c.text, c.cost.to_bits())
        })
        .collect();
    let one = serve_requests(
        &ServeConfig { workers: 1, seed: SEED, ..Default::default() },
        jobs.clone(),
        handler,
    );
    for (i, d) in one.results.iter().enumerate() {
        let Disposition::Done(Ok(c)) = d else { panic!("job {i} did not complete") };
        assert_eq!(
            (c.text.clone(), c.cost.to_bits()),
            direct[i],
            "job {i}: 1-worker serve differs from the direct call path"
        );
    }

    // ---- Timing: the same run at 1/2/4/8 workers. -------------------
    // Each sample is a whole serve run (tens of ms): stretch the budget
    // so every worker count gets a handful of samples even in fast mode.
    c.measure = c.measure.max(Duration::from_millis(250));
    {
        let mut group = c.benchmark_group("serve_throughput");
        group.throughput(Throughput::Elements(total));
        for workers in [1usize, 2, 4, 8] {
            let cfg = ServeConfig { workers, max_batch: 4, seed: SEED, ..Default::default() };
            group.bench_function(format!("workers/{workers}"), |b| {
                b.iter(|| {
                    let run = serve_requests(&cfg, jobs.clone(), handler);
                    assert_eq!(run.stats.admitted, total);
                    run
                })
            });
        }
        group.finish();
    }

    // ---- Saturation sweep: offered load × tenant mix under quota. ---
    // A fixed per-tenant bucket (burst 4, 100 jobs/sec refill) meets a
    // rising offered rate: at 50 ms between arrivals the quota never
    // binds; at 2 ms much of the tail throttles. Throughput counts
    // *completed* jobs, so ops/sec plateaus where admission saturates.
    let quota_cfg = |interval_ms: u64| {
        ServeConfig::builder()
            .workers(4)
            .max_batch(4)
            .seed(SEED)
            .arrival_interval_ms(interval_ms)
            .default_policy(TenantPolicy::per_sec(4, 100))
            .build()
            .expect("valid config")
    };
    {
        let mut group = c.benchmark_group("serve_saturation");
        for interval_ms in [50u64, 10, 2] {
            let cfg = quota_cfg(interval_ms);
            let probe = serve_requests(&cfg, jobs.clone(), handler);
            assert!(probe.stats.reconciles(), "interval {interval_ms}: {:?}", probe.stats);
            let admitted = probe.stats.admitted;
            assert!(admitted > 0, "interval {interval_ms} admitted nothing");
            println!(
                "saturation interval {interval_ms:>2} ms: {admitted}/{total} admitted \
                 ({} throttled)",
                probe.stats.rejected
            );
            group.throughput(Throughput::Elements(admitted));
            group.bench_function(format!("interval/{interval_ms}"), |b| {
                b.iter(|| {
                    let run = serve_requests(&cfg, jobs.clone(), handler);
                    assert_eq!(run.stats.admitted, admitted);
                    run
                })
            });
        }
        for (name, per_round) in
            [("interactive", (4usize, 1usize)), ("balanced", (2, 2)), ("batch", (1, 4))]
        {
            let mix = mixed_requests(&pools, per_round);
            let cfg = quota_cfg(10);
            let probe = serve_requests(&cfg, mix.clone(), handler);
            assert!(probe.stats.reconciles(), "mix {name}: {:?}", probe.stats);
            let admitted = probe.stats.admitted;
            group.throughput(Throughput::Elements(admitted));
            group.bench_function(format!("mix/{name}"), |b| {
                b.iter(|| {
                    let run = serve_requests(&cfg, mix.clone(), handler);
                    assert_eq!(run.stats.admitted, admitted);
                    run
                })
            });
        }
        group.finish();
    }

    // ---- Correctness gate 2: concurrent dollars reconcile. ----------
    let executed = faulty.executed_cost();
    let metered = zoo.meter().snapshot().total_dollars();
    let diff = (executed - metered).abs();
    assert!(diff < 1e-9, "executed ${executed:.9} != metered ${metered:.9} (diff {diff:e})");
    println!("dollar reconciliation: executed ${executed:.4} == metered ${metered:.4}");

    // ---- The scaling gate. ------------------------------------------
    let m1 = c.stat("serve_throughput/workers/1").median_ns as f64;
    for workers in [2usize, 4] {
        let mw = c.stat(&format!("serve_throughput/workers/{workers}")).median_ns as f64;
        println!("speedup at {workers} workers: {:.2}x, ungated", m1 / mw);
    }
    let m8 = c.stat("serve_throughput/workers/8").median_ns as f64;
    c.gate("serve_throughput workers/1 / workers/8 (median)", m1 / m8, AtLeast(MIN_SPEEDUP));
}

llmdm_rt::bench_main!("serve", Some(SEED), run);
