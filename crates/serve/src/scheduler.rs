//! The request scheduler: quota admission → weighted-fair queue →
//! worker pool → micro-batched dispatch.
//!
//! [`serve_requests`] is deliberately *phase-structured* (admit
//! everything, then drain with a fixed pool over
//! [`std::thread::scope`]) so that the admission outcome — including
//! every quota, backpressure, and load-shedding decision — is a pure
//! function of `(requests, config)` and never of worker timing: the
//! determinism contract in the crate docs. Submissions advance a
//! simulated clock by [`ServeConfig::arrival_interval_ms`] per request,
//! which is the timeline token buckets refill on and outage windows are
//! evaluated against.
//!
//! Admission, in order, per request:
//!
//! 1. **Quota.** If a [`TenantPolicy`] applies, the tenant's token
//!    bucket must cover one job; otherwise the request is
//!    [`ServeError::Throttled`] with the exact refill wait.
//! 2. **Load shedding.** Inside a [`ShedPolicy`] outage window the
//!    effective queue capacity drops to `degraded_capacity`. An
//!    over-capacity arrival is shed ([`ServeError::Shed`], retry hint =
//!    window end) — unless it outranks the lowest backlogged class, in
//!    which case the *youngest lowest-class* queued job is displaced
//!    (one for one) and shed in its place.
//! 3. **Backpressure.** Outside outages a full queue rejects with the
//!    classic depth-scaled [`ServeError::Rejected`] hint.
//!
//! Draining uses the [`QosQueue`]'s credit-based weighted-fair dequeue
//! (4:2:1 across [`Priority`] classes, starvation-free), coalescing
//! same-`batch_key` jobs up to `max_batch` per dispatch. The *sequence*
//! of batches is deterministic; which worker runs each batch is not,
//! and result slotting makes that invisible.
//!
//! Continuous-admission serving is the same machinery with producers
//! and consumers running concurrently against the same queue; the
//! phased form is what the reproducible experiments and benches need.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use llmdm_obs::{TraceContext, WindowHandle};
use llmdm_resil::SimClock;
use llmdm_rt::hash::splitmix;

use crate::qos::{QosItem, QosQueue};
use crate::queue::ServeError;
use crate::request::ServeRequest;
use crate::tenant::{
    Priority, ShedPolicy, TenantId, TenantPolicies, TenantPolicy, TenantStats, TokenBucket,
    MILLI_PER_JOB,
};

/// Scheduler configuration.
///
/// Construct via [`ServeConfig::builder`] for build-time validation
/// (zero workers / capacity / batch are typed
/// [`ServeError::InvalidConfig`] errors instead of scheduler panics);
/// the plain struct literal with `..Default::default()` remains
/// available for tests and call sites that want the old ergonomics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Fixed worker-pool size (clamped to ≥ 1).
    pub workers: usize,
    /// Queue capacity == admission high-water mark: submissions past
    /// this depth are rejected with backpressure.
    pub queue_capacity: usize,
    /// Micro-batch ceiling: a worker coalesces up to this many
    /// same-key jobs per dispatch.
    pub max_batch: usize,
    /// Base seed for per-request trace ids.
    pub seed: u64,
    /// Simulated milliseconds between consecutive submissions — the
    /// timeline token buckets refill on and outage windows are checked
    /// against. 0 (the default) submits the whole load at t=0: quotas
    /// then admit exactly each tenant's burst.
    pub arrival_interval_ms: u64,
    /// Per-tenant rate quotas. Empty (the default) disables quota
    /// admission entirely.
    pub policies: TenantPolicies,
    /// Outage-driven load-shedding policy. No windows (the default)
    /// disables shedding.
    pub shed: ShedPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            queue_capacity: 1024,
            max_batch: 8,
            seed: 0,
            arrival_interval_ms: 0,
            policies: TenantPolicies::default(),
            shed: ShedPolicy::default(),
        }
    }
}

impl ServeConfig {
    /// Start a fluent validated builder (defaults match
    /// [`ServeConfig::default`]).
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder { config: ServeConfig::default() }
    }
}

/// Fluent validating builder for [`ServeConfig`]; see
/// [`ServeConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Worker-pool size (must be ≥ 1 at build time).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Queue capacity / admission high-water mark (must be ≥ 1).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Micro-batch ceiling (must be ≥ 1).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.config.max_batch = max_batch;
        self
    }

    /// Base seed for trace ids.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Simulated ms between consecutive submissions.
    pub fn arrival_interval_ms(mut self, ms: u64) -> Self {
        self.config.arrival_interval_ms = ms;
        self
    }

    /// Quota policy applied to tenants without an explicit entry.
    pub fn default_policy(mut self, policy: TenantPolicy) -> Self {
        self.config.policies.default_policy = Some(policy);
        self
    }

    /// Outage-driven load-shedding policy.
    pub fn shed(mut self, shed: ShedPolicy) -> Self {
        self.config.shed = shed;
        self
    }

    /// Validate and build. Zero workers / capacity / batch and
    /// zero-burst quota policies are typed
    /// [`ServeError::InvalidConfig`] errors.
    pub fn build(self) -> Result<ServeConfig, ServeError> {
        let c = &self.config;
        if c.workers == 0 {
            return Err(ServeError::InvalidConfig { reason: "workers must be >= 1".to_string() });
        }
        if c.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "queue_capacity must be >= 1".to_string(),
            });
        }
        if c.max_batch == 0 {
            return Err(ServeError::InvalidConfig { reason: "max_batch must be >= 1".to_string() });
        }
        let zero_burst = c
            .policies
            .default_policy
            .iter()
            .map(|p| ("<default>", p))
            .chain(c.policies.per_tenant.iter().map(|(t, p)| (t.as_str(), p)))
            .find(|(_, p)| p.burst == 0);
        if let Some((tenant, _)) = zero_burst {
            return Err(ServeError::InvalidConfig {
                reason: format!("tenant policy `{tenant}` has zero burst (admits nothing)"),
            });
        }
        Ok(self.config)
    }
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job<P> {
    /// Submission index (0-based): results are reported under this id.
    pub id: u64,
    /// The tenant this job bills against.
    pub tenant: TenantId,
    /// QoS priority class (weighted-fair dequeue, shed order).
    pub priority: Priority,
    /// Batching class: only jobs of equal class coalesce into one
    /// dispatch (e.g. one model tier, one task family).
    pub class: String,
    /// Request-scoped trace context, captured at admission: the trace id
    /// depends only on `(config.seed, id)` — it is also the seeded
    /// per-job id a handler reads when it needs one — and the parent span
    /// is the job's `serve.admit` span. A handler that wraps a job's work
    /// in `let _g = job.trace.attach();` gets its worker-side spans
    /// stitched into the request's flame tree.
    pub trace: TraceContext,
    /// The request payload handed to the handler.
    pub payload: P,
}

impl<P> QosItem for Job<P> {
    fn priority(&self) -> Priority {
        self.priority
    }
    fn batch_key(&self) -> &str {
        &self.class
    }
}

/// What happened to one submitted job.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition<T, E> {
    /// Dispatched to a worker; carries the handler's result.
    Done(Result<T, E>),
    /// Refused by admission control (backpressure, quota) or dropped by
    /// load-shedding before reaching a worker.
    Rejected(ServeError),
}

impl<T, E> Disposition<T, E> {
    /// The successful result, if any.
    pub fn ok(&self) -> Option<&T> {
        match self {
            Disposition::Done(Ok(v)) => Some(v),
            _ => None,
        }
    }

    /// Whether this job never reached a worker (rejected, throttled, or
    /// shed).
    pub fn is_rejected(&self) -> bool {
        matches!(self, Disposition::Rejected(_))
    }
}

/// Aggregate accounting for one serve run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs dispatched to a worker.
    pub admitted: u64,
    /// Jobs refused up front (queue backpressure or quota).
    pub rejected: u64,
    /// Jobs dropped by load-shedding (degraded-capacity overflow or
    /// displacement).
    pub shed: u64,
    /// Handler dispatches (each covers ≥ 1 job).
    pub batches: u64,
    /// Largest coalesced batch observed.
    pub largest_batch: usize,
    /// Jobs processed per worker (index = worker ordinal). Under one
    /// worker this is the whole admitted load; under N workers the split
    /// is timing-dependent but always sums to `admitted`.
    pub per_worker_jobs: Vec<u64>,
    /// Per-tenant outcome accounting; every row satisfies
    /// `admitted + rejected + shed == submitted`.
    pub per_tenant: BTreeMap<String, TenantStats>,
}

impl ServeStats {
    /// Whether every per-tenant row and the global tallies reconcile
    /// exactly (`admitted + rejected + shed == submitted`).
    pub fn reconciles(&self) -> bool {
        self.admitted + self.rejected + self.shed == self.submitted
            && self.per_tenant.values().all(TenantStats::reconciles)
            && self.per_tenant.values().map(|t| t.submitted).sum::<u64>() == self.submitted
    }
}

/// Everything one serve run produced.
#[derive(Debug)]
pub struct ServeRun<T, E> {
    /// Per-job outcome, indexed by submission order.
    pub results: Vec<Disposition<T, E>>,
    /// Aggregate counters.
    pub stats: ServeStats,
}

impl<T, E> ServeRun<T, E> {
    /// Successful results in submission order.
    pub fn successes(&self) -> impl Iterator<Item = (usize, &T)> {
        self.results.iter().enumerate().filter_map(|(i, d)| d.ok().map(|v| (i, v)))
    }
}

/// The deterministic trace id for submission index `id` under `seed`
/// (never 0, which means "no trace").
fn trace_id(seed: u64, id: u64) -> u64 {
    splitmix(seed ^ splitmix(id)).max(1)
}

/// Record `usd` of spend for one job of `class` into the windowed
/// per-class dollar meter (`serve.dollars_usd`) and the run-total
/// counter. Call from handlers that know their per-call cost (e.g. a
/// metered model client) so the SLO window sees rolling spend per class.
pub fn record_job_cost(class: &str, usd: f64) {
    llmdm_obs::window_counter_add("serve.dollars_usd", class, usd);
    llmdm_obs::counter_add("serve.dollars_usd", usd);
}

/// Run typed [`ServeRequest`]s through a pool of `config.workers`
/// threads with quota admission, weighted-fair dequeue, and outage
/// load-shedding — the one entry point that runs requests.
///
/// Admission mints each job's [`TraceContext`] under its `serve.admit`
/// span; workers emit one `serve.batch` span per dispatch plus windowed
/// per-class and per-tenant telemetry, and slot results by submission
/// index.
///
/// The handler receives `(batch_key, jobs)` for one coalesced batch and
/// must return exactly one result per job, in order. It must be a pure
/// function of each job for the N-worker determinism contract to hold
/// (shared substrates — caches, meters — may be bumped; they reconcile
/// by construction).
pub fn serve_requests<P, T, E, F>(
    config: &ServeConfig,
    requests: Vec<ServeRequest<P>>,
    handler: F,
) -> ServeRun<T, E>
where
    P: Send,
    T: Send,
    E: Send,
    F: Fn(&str, &[Job<P>]) -> Vec<Result<T, E>> + Sync,
{
    let mut span = llmdm_obs::span("serve.run");
    let workers = config.workers.max(1);
    let queue: QosQueue<Job<P>> = QosQueue::new(config.queue_capacity);
    let clock = SimClock::new();

    let submitted = requests.len() as u64;
    let mut results: Vec<Option<Disposition<T, E>>> = Vec::with_capacity(requests.len());
    let mut admitted = 0u64;
    let mut rejected = 0u64;
    let mut shed = 0u64;
    let mut tenants: BTreeMap<String, TenantStats> = BTreeMap::new();
    let mut buckets: BTreeMap<String, TokenBucket> = BTreeMap::new();

    // ---- Phase 1: admission, in submission order. --------------------
    // Single-threaded, so every quota/shed/backpressure decision — and
    // the simulated clock they run on — is a pure function of the
    // submission sequence, independent of worker count.
    let telemetry = llmdm_obs::is_enabled();
    let mut depth_wins: BTreeMap<String, WindowHandle<'static>> = BTreeMap::new();
    for (i, req) in requests.into_iter().enumerate() {
        if i > 0 {
            clock.advance(config.arrival_interval_ms);
        }
        let now = clock.now_ms();
        let id = i as u64;
        let ctx = TraceContext::root(trace_id(config.seed, id));
        let guard = ctx.attach();
        let mut aspan = llmdm_obs::span("serve.admit");
        if aspan.is_recording() {
            aspan.field("id", id);
            aspan.field("class", req.batch_key.as_str());
            aspan.field("tenant", req.tenant.as_str());
            aspan.field("priority", req.class.label());
        }
        let tenant_key = req.tenant.as_str().to_string();
        tenants.entry(tenant_key.clone()).or_default().submitted += 1;

        // 1. Quota: the tenant's bucket must cover one job.
        let throttled = match config.policies.policy_for(&tenant_key) {
            Some(policy) => {
                let bucket = buckets
                    .entry(tenant_key.clone())
                    .or_insert_with(|| TokenBucket::new(policy, now));
                bucket.try_take(MILLI_PER_JOB, now).err()
            }
            None => None,
        };
        let outcome = match throttled {
            Some(retry_after_ms) => {
                Err(ServeError::Throttled { tenant: tenant_key.clone(), retry_after_ms })
            }
            None => {
                let job = Job {
                    id,
                    tenant: req.tenant,
                    priority: req.class,
                    class: req.batch_key,
                    trace: ctx.at(&aspan),
                    payload: req.payload,
                };
                let class_key = job.class.clone();

                // 2. Load shedding: inside an outage window the effective
                // capacity shrinks; overflow is shed lowest class first.
                let outage_end = config.shed.outage_end(now);
                let effective_capacity = match outage_end {
                    Some(_) => config.shed.degraded_capacity.min(config.queue_capacity),
                    None => config.queue_capacity,
                };
                let outcome = if outage_end.is_some() && queue.len() >= effective_capacity {
                    let retry_after_ms =
                        outage_end.expect("checked above").saturating_sub(now).max(1);
                    let displaceable = queue
                        .lowest_backlogged()
                        .is_some_and(|lowest| job.priority.rank() < lowest.rank());
                    if displaceable {
                        // Displace the youngest job of the lowest backlogged
                        // class: its admission is retroactively converted to a
                        // shed, and the higher-priority arrival takes its seat.
                        let victim = queue.evict_lowest().expect("lowest_backlogged was Some");
                        admitted -= 1;
                        shed += 1;
                        let vt = tenants
                            .get_mut(victim.tenant.as_str())
                            .expect("victim was accounted at its own admission");
                        vt.admitted -= 1;
                        vt.shed += 1;
                        if telemetry {
                            llmdm_obs::window_counter_add(
                                "serve.tenant.shed",
                                victim.tenant.as_str(),
                                1.0,
                            );
                        }
                        results[victim.id as usize] =
                            Some(Disposition::Rejected(ServeError::Shed {
                                class: victim.priority,
                                retry_after_ms,
                            }));
                        queue.try_push(job)
                    } else {
                        Err(ServeError::Shed { class: job.priority, retry_after_ms })
                    }
                } else {
                    // 3. Plain backpressure.
                    queue.try_push(job)
                };

                // The depth window sees every job that passed the quota.
                if telemetry {
                    depth_wins
                        .entry(class_key.clone())
                        .or_insert_with(|| llmdm_obs::window("serve.queue_depth", &class_key))
                        .observe(queue.len() as f64);
                }
                outcome
            }
        };
        match outcome {
            Ok(()) => {
                admitted += 1;
                tenants.get_mut(&tenant_key).expect("entry created above").admitted += 1;
                aspan.field("admitted", true);
                if telemetry {
                    llmdm_obs::window_counter_add("serve.tenant.admitted", &tenant_key, 1.0);
                }
                results.push(None);
            }
            Err(e) => {
                let t = tenants.get_mut(&tenant_key).expect("entry created above");
                if matches!(e, ServeError::Shed { .. }) {
                    shed += 1;
                    t.shed += 1;
                    if telemetry {
                        llmdm_obs::window_counter_add("serve.tenant.shed", &tenant_key, 1.0);
                    }
                } else {
                    rejected += 1;
                    t.rejected += 1;
                    if telemetry {
                        llmdm_obs::window_counter_add("serve.tenant.rejected", &tenant_key, 1.0);
                    }
                }
                aspan.field("admitted", false);
                results.push(Some(Disposition::Rejected(e)));
            }
        }
        drop(aspan);
        drop(guard);
    }
    queue.close();
    llmdm_obs::counter_add("serve.jobs.admitted", admitted as f64);
    llmdm_obs::counter_add("serve.jobs.rejected", rejected as f64);
    llmdm_obs::counter_add("serve.jobs.shed", shed as f64);

    // ---- Phase 2: drain with the fixed pool. -------------------------
    let slots = Mutex::new(&mut results);
    let batches = AtomicU64::new(0);
    let largest = AtomicUsize::new(0);
    let per_worker: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let queue = &queue;
                let handler = &handler;
                let slots = &slots;
                let batches = &batches;
                let largest = &largest;
                s.spawn(move || {
                    let mut processed = 0u64;
                    // Per-class latency windows, cached per worker so the
                    // hot loop never takes the registry lock.
                    let mut lat_wins: BTreeMap<String, WindowHandle<'static>> = BTreeMap::new();
                    while let Some(batch) = queue.pop_batch(config.max_batch) {
                        let mut bspan = llmdm_obs::span("serve.batch");
                        let class = batch[0].class.as_str();
                        let size = batch.len();
                        if bspan.is_recording() {
                            bspan.field("class", class);
                            bspan.field("priority", batch[0].priority.label());
                            bspan.field("size", size);
                            bspan.field("worker", w);
                            // Joinable against per-request traces: which
                            // submissions this dispatch covered.
                            let ids: Vec<String> =
                                batch.iter().map(|j| j.id.to_string()).collect();
                            bspan.field("ids", ids.join(","));
                        }
                        let telemetry = llmdm_obs::is_enabled();
                        let t0 = telemetry.then(Instant::now);
                        let outs = handler(class, &batch);
                        assert_eq!(outs.len(), size, "handler must return one result per job");
                        if let Some(t0) = t0 {
                            let ms = t0.elapsed().as_secs_f64() * 1e3;
                            let win = lat_wins.entry(class.to_string()).or_insert_with(|| {
                                llmdm_obs::window("serve.batch_latency_ms", class)
                            });
                            // One observation per job, so per-class rates
                            // compare across batch sizes.
                            for _ in 0..size {
                                win.observe(ms / size as f64);
                            }
                        }
                        batches.fetch_add(1, Ordering::Relaxed);
                        largest.fetch_max(size, Ordering::Relaxed);
                        processed += size as u64;
                        let mut guard = llmdm_rt::lock_recover(&slots);
                        for (job, out) in batch.iter().zip(outs) {
                            guard[job.id as usize] = Some(Disposition::Done(out));
                        }
                    }
                    processed
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });

    let stats = ServeStats {
        submitted,
        admitted,
        rejected,
        shed,
        batches: batches.into_inner(),
        largest_batch: largest.into_inner(),
        per_worker_jobs: per_worker,
        per_tenant: tenants,
    };
    debug_assert!(stats.reconciles(), "admission accounting must reconcile: {stats:?}");
    llmdm_obs::counter_add("serve.batches", stats.batches as f64);
    if span.is_recording() {
        span.field("workers", workers);
        span.field("submitted", stats.submitted);
        span.field("admitted", stats.admitted);
        span.field("rejected", stats.rejected);
        span.field("shed", stats.shed);
        span.field("batches", stats.batches);
    }

    let results = results
        .into_iter()
        .map(|slot| slot.expect("every admitted job is processed before scope exit"))
        .collect();
    ServeRun { results, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmdm_resil::Window;

    fn with_tenant_policy(
        mut builder: ServeConfigBuilder,
        tenant: &str,
        policy: TenantPolicy,
    ) -> ServeConfigBuilder {
        builder.config.policies.per_tenant.insert(tenant.to_string(), policy);
        builder
    }

    /// One tenant, one priority class: the QoS queue degenerates to FIFO
    /// + same-key coalescing.
    fn echo_jobs(n: usize) -> Vec<ServeRequest<u64>> {
        (0..n as u64)
            .map(|i| {
                ServeRequest::builder("default", i)
                    .batch_key(if i % 2 == 0 { "even" } else { "odd" })
                    .build()
                    .unwrap()
            })
            .collect()
    }

    fn echo_requests(n: usize) -> Vec<ServeRequest<u64>> {
        (0..n as u64)
            .map(|i| {
                ServeRequest::builder(format!("tenant-{}", i % 3), i)
                    .class(match i % 3 {
                        0 => Priority::Interactive,
                        1 => Priority::Standard,
                        _ => Priority::Batch,
                    })
                    .batch_key(if i % 2 == 0 { "even" } else { "odd" })
                    .build()
                    .unwrap()
            })
            .collect()
    }

    fn echo_jobs_handler(class: &str, batch: &[Job<u64>]) -> Vec<Result<String, ServeError>> {
        batch.iter().map(|j| Ok(format!("{class}:{}", j.payload))).collect()
    }

    #[test]
    fn single_worker_matches_direct_loop() {
        let cfg = ServeConfig { workers: 1, ..Default::default() };
        let run = serve_requests(&cfg, echo_jobs(20), echo_jobs_handler);
        assert_eq!(run.stats.admitted, 20);
        assert_eq!(run.stats.rejected, 0);
        for (i, d) in run.results.iter().enumerate() {
            let class = if i % 2 == 0 { "even" } else { "odd" };
            assert_eq!(d.ok().unwrap(), &format!("{class}:{i}"));
        }
        assert_eq!(run.stats.per_worker_jobs, vec![20]);
        assert_eq!(run.stats.per_tenant["default"].submitted, 20);
        assert!(run.stats.reconciles());
    }

    #[test]
    fn n_workers_same_result_set() {
        let base = serve_requests(&ServeConfig::default(), echo_requests(64), echo_jobs_handler);
        for workers in [2, 4, 8] {
            let cfg = ServeConfig { workers, ..Default::default() };
            let run = serve_requests(&cfg, echo_requests(64), echo_jobs_handler);
            assert_eq!(run.results, base.results, "workers={workers}");
            assert_eq!(run.stats.per_tenant, base.stats.per_tenant, "workers={workers}");
            assert_eq!(run.stats.per_worker_jobs.len(), workers);
            assert_eq!(run.stats.per_worker_jobs.iter().sum::<u64>(), 64);
        }
    }

    #[test]
    fn admission_rejects_deterministically() {
        let cfg = ServeConfig { workers: 2, queue_capacity: 10, ..Default::default() };
        let run = serve_requests(&cfg, echo_jobs(25), echo_jobs_handler);
        assert_eq!(run.stats.admitted, 10);
        assert_eq!(run.stats.rejected, 15);
        // Exactly the first `capacity` submissions are admitted.
        for (i, d) in run.results.iter().enumerate() {
            assert_eq!(d.is_rejected(), i >= 10, "job {i}");
        }
        // Rejections carry a usable retry hint.
        match &run.results[10] {
            Disposition::Rejected(e @ ServeError::Rejected { retry_after_ms, .. }) => {
                assert!(e.is_retryable());
                assert!(*retry_after_ms > 0);
                assert_eq!(e.retry_after_ms(), Some(*retry_after_ms));
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn batches_coalesce_only_same_class() {
        let seen = Mutex::new(Vec::new());
        let cfg = ServeConfig { workers: 1, max_batch: 8, ..Default::default() };
        let run = serve_requests(&cfg, echo_jobs(16), |class: &str, batch: &[Job<u64>]| {
            let payloads: Vec<u64> = batch.iter().map(|j| j.payload).collect();
            llmdm_rt::lock_recover(&seen).push((class.to_string(), payloads.clone()));
            payloads.into_iter().map(Ok::<u64, ServeError>).collect()
        });
        assert_eq!(run.stats.admitted, 16);
        let seen = seen.into_inner().unwrap();
        assert_eq!(run.stats.batches as usize, seen.len());
        assert!(run.stats.largest_batch > 1, "coalescing must happen: {seen:?}");
        for (class, batch) in &seen {
            assert!(batch.len() <= 8);
            let want = if class == "even" { 0 } else { 1 };
            assert!(batch.iter().all(|v| v % 2 == want), "mixed batch {class}: {batch:?}");
        }
    }

    /// The trace id each handler sees, in submission order.
    fn served_trace_ids(seed: u64, workers: usize, n: usize) -> Vec<u64> {
        let cfg = ServeConfig { workers, seed, ..Default::default() };
        let run: ServeRun<u64, ServeError> =
            serve_requests(&cfg, echo_requests(n), |_class, batch: &[Job<u64>]| {
                batch.iter().map(|j| Ok(j.trace.trace_id)).collect()
            });
        run.results.iter().map(|d| *d.ok().expect("nothing is rejected")).collect()
    }

    #[test]
    fn trace_ids_are_seeded_and_stable() {
        let base = served_trace_ids(42, 1, 24);
        for (i, &t) in base.iter().enumerate() {
            assert_eq!(t, trace_id(42, i as u64), "job {i}");
            assert_ne!(t, 0, "0 means no trace");
        }
        for workers in [2, 8] {
            assert_eq!(served_trace_ids(42, workers, 24), base, "workers={workers}");
        }
        // A longer run keeps the prefix: the id depends on the index only.
        assert_eq!(served_trace_ids(42, 2, 40)[..24], base[..]);
        let other = served_trace_ids(43, 1, 24);
        assert!(base.iter().zip(&other).all(|(a, b)| a != b), "ids must depend on the seed");
        let mut distinct = base.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), base.len(), "ids must differ across submissions");
    }

    #[test]
    fn handler_sees_each_jobs_identity() {
        let cfg = ServeConfig { workers: 2, seed: 42, ..Default::default() };
        let run: ServeRun<u64, ServeError> =
            serve_requests(&cfg, echo_jobs(16), |_class, batch: &[Job<u64>]| {
                batch
                    .iter()
                    .map(|j| {
                        // Every queued job carries an active trace context.
                        assert!(j.trace.is_active());
                        assert_eq!(j.trace.trace_id, trace_id(42, j.id));
                        assert_eq!(j.payload, j.id);
                        assert_eq!(j.tenant.as_str(), "default");
                        assert_eq!(j.priority, Priority::Standard);
                        Ok(j.id)
                    })
                    .collect()
            });
        for (i, d) in run.results.iter().enumerate() {
            assert_eq!(*d.ok().unwrap(), i as u64);
        }
    }

    #[test]
    fn batch_spans_carry_job_ids() {
        // Isolated recorder? Spans go to the global recorder, so filter
        // by a class name unique to this test instead.
        llmdm_obs::enable();
        let cfg = ServeConfig { workers: 1, max_batch: 4, ..Default::default() };
        let jobs: Vec<ServeRequest<u64>> = (0..6)
            .map(|i| {
                ServeRequest::builder("default", i).batch_key("batch_ids_test").build().unwrap()
            })
            .collect();
        let _run: ServeRun<u64, ServeError> = serve_requests(&cfg, jobs, |_c, b: &[Job<u64>]| {
            b.iter().map(|j| Ok(j.payload)).collect()
        });
        let rep = llmdm_obs::snapshot();
        let mut covered: Vec<u64> = Vec::new();
        for s in rep.spans.iter().filter(|s| s.name == "serve.batch") {
            let is_ours = s.fields.iter().any(|(k, v)| {
                k == "class" && matches!(v, llmdm_obs::FieldValue::Str(c) if c == "batch_ids_test")
            });
            if !is_ours {
                continue;
            }
            let ids = s
                .fields
                .iter()
                .find_map(|(k, v)| {
                    (k == "ids").then(|| match v {
                        llmdm_obs::FieldValue::Str(s) => s.clone(),
                        other => other.to_string(),
                    })
                })
                .expect("batch span has ids field");
            covered.extend(ids.split(',').map(|t| t.parse::<u64>().unwrap()));
        }
        covered.sort_unstable();
        assert_eq!(covered, vec![0, 1, 2, 3, 4, 5], "batch ids cover every admitted job");
    }

    #[test]
    fn handler_errors_surface_per_job() {
        let cfg = ServeConfig { workers: 2, ..Default::default() };
        let run: ServeRun<u64, String> =
            serve_requests(&cfg, echo_jobs(10), |_class, batch: &[Job<u64>]| {
                batch
                    .iter()
                    .map(|j| if j.payload == 3 { Err("boom".to_string()) } else { Ok(j.payload) })
                    .collect()
            });
        for (i, d) in run.results.iter().enumerate() {
            match d {
                Disposition::Done(Ok(v)) => assert_eq!(*v, i as u64),
                Disposition::Done(Err(e)) => {
                    assert_eq!(i, 3);
                    assert_eq!(e, "boom");
                }
                Disposition::Rejected(_) => panic!("nothing should be rejected"),
            }
        }
    }

    #[test]
    fn config_builder_validates() {
        assert!(ServeConfig::builder().workers(4).queue_capacity(64).build().is_ok());
        for bad in [
            ServeConfig::builder().workers(0).build(),
            ServeConfig::builder().queue_capacity(0).build(),
            ServeConfig::builder().max_batch(0).build(),
            with_tenant_policy(ServeConfig::builder(), "acme", TenantPolicy::per_sec(0, 10)).build(),
            ServeConfig::builder().default_policy(TenantPolicy::per_sec(0, 1)).build(),
        ] {
            match bad {
                Err(ServeError::InvalidConfig { reason }) => assert!(!reason.is_empty()),
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
        let builder = ServeConfig::builder().workers(2).seed(7).arrival_interval_ms(5);
        let cfg =
            with_tenant_policy(builder, "acme", TenantPolicy::per_sec(3, 100)).build().unwrap();
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.policies.policy_for("acme").unwrap().burst, 3);
        assert_eq!(cfg.policies.policy_for("other"), None);
    }

    #[test]
    fn quota_throttles_past_burst_and_refills_on_the_sim_clock() {
        // Burst 2, 100 tokens/sec, arrivals every 5 ms: tokens refill at
        // 0.1/ms so a new token appears every 10 ms (every 2 arrivals).
        let builder = ServeConfig::builder().arrival_interval_ms(5);
        let cfg =
            with_tenant_policy(builder, "metered", TenantPolicy::per_sec(2, 100)).build().unwrap();
        let requests: Vec<ServeRequest<u64>> = (0..10u64)
            .map(|i| ServeRequest::builder("metered", i).build().unwrap())
            .collect();
        let run = serve_requests(&cfg, requests, echo_jobs_handler);
        let t = &run.stats.per_tenant["metered"];
        assert!(t.reconciles());
        assert!(t.rejected > 0, "a 2-burst quota must throttle 10 rapid arrivals: {t:?}");
        assert!(t.admitted >= 2, "the burst itself must be admitted: {t:?}");
        // Throttle errors carry the exact refill wait.
        let hints: Vec<u64> = run
            .results
            .iter()
            .filter_map(|d| match d {
                Disposition::Rejected(ServeError::Throttled { retry_after_ms, .. }) => {
                    Some(*retry_after_ms)
                }
                _ => None,
            })
            .collect();
        assert_eq!(hints.len() as u64, t.rejected);
        assert!(hints.iter().all(|h| *h > 0 && *h < u64::MAX), "{hints:?}");
        // Unmetered tenants are untouched.
        let free: Vec<ServeRequest<u64>> =
            (0..10u64).map(|i| ServeRequest::builder("free", i).build().unwrap()).collect();
        let free_run = serve_requests(&cfg, free, echo_jobs_handler);
        assert_eq!(free_run.stats.per_tenant["free"].admitted, 10);
    }

    #[test]
    fn quota_outcome_is_identical_across_worker_counts() {
        let mk = |workers: usize| {
            let cfg = ServeConfig::builder()
                .workers(workers)
                .arrival_interval_ms(3)
                .default_policy(TenantPolicy::per_sec(4, 200))
                .build()
                .unwrap();
            let requests: Vec<ServeRequest<u64>> = (0..40u64)
                .map(|i| ServeRequest::builder(format!("t{}", i % 4), i).build().unwrap())
                .collect();
            serve_requests(&cfg, requests, echo_jobs_handler)
        };
        let base = mk(1);
        for workers in [2, 8] {
            let run = mk(workers);
            assert_eq!(run.results, base.results, "workers={workers}");
            assert_eq!(run.stats.per_tenant, base.stats.per_tenant);
        }
    }

    #[test]
    fn outage_sheds_inwindow_arrivals_with_window_hint() {
        // Arrivals every 10 ms; outage [100, 200); degraded capacity 0
        // sheds everything that arrives inside the window. Single class,
        // so no displacement can reshuffle the victims.
        let cfg = ServeConfig::builder()
            .arrival_interval_ms(10)
            .shed(ShedPolicy::new(vec![Window::new(100, 200)], 0))
            .build()
            .unwrap();
        let requests: Vec<ServeRequest<u64>> = (0..30u64)
            .map(|i| {
                ServeRequest::builder("acme", i)
                    .class(Priority::Standard)
                    .batch_key("k")
                    .build()
                    .unwrap()
            })
            .collect();
        let run = serve_requests(&cfg, requests, echo_jobs_handler);
        assert!(run.stats.reconciles());
        // Arrivals 10..=19 land at t in [100, 190] — all inside.
        assert_eq!(run.stats.shed, 10, "{:?}", run.stats);
        for (i, d) in run.results.iter().enumerate() {
            let t = i as u64 * 10;
            let inside = (100..200).contains(&t);
            match d {
                Disposition::Rejected(ServeError::Shed { retry_after_ms, class }) => {
                    assert!(inside, "job {i} at t={t} shed outside the window");
                    assert_eq!(*class, Priority::Standard);
                    assert_eq!(*retry_after_ms, 200 - t, "hint points past the window end");
                }
                _ => assert!(!inside, "job {i} at t={t} should have been shed"),
            }
        }
    }

    #[test]
    fn displacement_evicts_lower_class_for_higher_arrivals() {
        // Degraded capacity 2 during a window covering the whole run:
        // batch work queued first gets displaced by interactive arrivals.
        let cfg = ServeConfig::builder()
            .workers(1)
            .max_batch(1)
            .shed(ShedPolicy::new(vec![Window::new(0, 1_000)], 2))
            .build()
            .unwrap();
        let mut requests = Vec::new();
        for i in 0..2u64 {
            requests
                .push(ServeRequest::builder("bg", i).class(Priority::Batch).build().unwrap());
        }
        for i in 2..4u64 {
            requests.push(
                ServeRequest::builder("fg", i).class(Priority::Interactive).build().unwrap(),
            );
        }
        let run = serve_requests(&cfg, requests, echo_jobs_handler);
        assert!(run.stats.reconciles());
        // Both interactive arrivals displace a batch job each: the
        // youngest batch job (id 1) goes first, then id 0.
        assert_eq!(run.stats.shed, 2, "{:?}", run.stats);
        assert_eq!(run.stats.per_tenant["bg"].shed, 2);
        assert_eq!(run.stats.per_tenant["fg"].admitted, 2);
        for id in [0usize, 1] {
            match &run.results[id] {
                Disposition::Rejected(ServeError::Shed { class, retry_after_ms }) => {
                    assert_eq!(*class, Priority::Batch);
                    assert!(*retry_after_ms > 0);
                }
                other => panic!("batch job {id} should be displaced, got {other:?}"),
            }
        }
        assert!(run.results[2].ok().is_some());
        assert!(run.results[3].ok().is_some());
    }
}
