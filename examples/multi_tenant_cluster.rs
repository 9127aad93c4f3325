//! multi_tenant_cluster — QoS serving across a simulated sharded
//! cluster, self-validated.
//!
//! Run with `cargo run -p llmdm --example multi_tenant_cluster`.
//!
//! Drives a three-tenant QA workload through the redesigned serving
//! frontend — typed [`ServeRequest`]s, per-tenant token-bucket quotas,
//! weighted-fair dequeue, outage shedding, token streaming — fanned out
//! over a deterministic 3-node [`Cluster`] whose node state is a
//! lock-striped, cache-backed model client. Asserts, end to end:
//!
//! 1. **Routing is deterministic and sticky**: the rendezvous router
//!    sends every key to the same node on every pass, and a realistic
//!    key population touches every node.
//! 2. **Quota accounting reconciles across the cluster**: per node and
//!    merged, `admitted + rejected + shed == submitted` holds for every
//!    tenant; the throttled tenant's rejections carry exact, finite
//!    refill hints.
//! 3. **The cross-node cache invariant holds**: on every node, per
//!    shard and per node, `reuse + augment + stale + misses == lookups`,
//!    total lookups equal total admitted jobs, and a repeat pass is
//!    served entirely from cache (reuse hits == the repeat pass's
//!    admitted count).
//! 4. **Streaming is worker-count-invariant**: the full prefix sequence
//!    of every job is identical at 1, 2, and 8 workers, each prefix
//!    extends the last, and the final prefix is the full completion.
//! 5. **Outage shedding degrades gracefully**: inside a resil-style
//!    outage window the scheduler sheds overflow with hints pointing
//!    past the window, and accounting still reconciles.
//!
//! Exits non-zero on any violation — `scripts/verify.sh` runs it.

use std::sync::Arc;

use llmdm::cascade::{HotpotConfig, HotpotWorkload, QaSolver};
use llmdm::model::prelude::*;
use llmdm::resil::Window;
use llmdm::semcache::{CacheConfig, CachedLlm, EntryKind, ShardedCache};
use llmdm::serve::prelude::*;

const SEED: u64 = 42;
const NODES: usize = 3;
const PER_TENANT: usize = 16;

/// One serving payload: the cache/routing key and the full prompt.
#[derive(Clone)]
struct Req {
    key: String,
    prompt: String,
}

/// Three tenants on distinct priority tiers sharing one question pool:
/// `enterprise` (interactive), `pro` (standard), `free` (batch, tightly
/// throttled). Keys are tenant-scoped so each tenant owns its cache
/// rows and the router spreads all three tenants across nodes.
fn workload() -> Vec<ServeRequest<Req>> {
    let qa = HotpotWorkload::generate(HotpotConfig {
        n: PER_TENANT,
        seed: SEED,
        ..Default::default()
    });
    let mut requests = Vec::new();
    for (i, item) in qa.items.iter().enumerate() {
        for (tenant, class) in [
            ("enterprise", Priority::Interactive),
            ("pro", Priority::Standard),
            ("free", Priority::Batch),
        ] {
            requests.push(
                ServeRequest::builder(
                    tenant,
                    Req {
                        key: format!("{tenant}/q{i}: {}", item.question),
                        prompt: item.prompt(),
                    },
                )
                .class(class)
                .batch_key("hotpot")
                .build()
                .expect("valid request"),
            );
        }
    }
    requests
}

fn main() {
    println!("multi_tenant_cluster: {NODES}-node QoS serving over sharded caches\n");

    let zoo = ModelZoo::standard(SEED);
    zoo.register_solver(Arc::new(QaSolver));
    let model = ModelStack::new(&zoo).build_arc();
    let requests = workload();
    let total = requests.len();

    // Each node owns a 2-stripe sharded cache over the shared model —
    // the cluster shards *state*, the zoo stays one billing domain.
    let cluster: Cluster<CachedLlm> = Cluster::with_nodes(SEED, NODES, |_, i| {
        CachedLlm::new(
            model.clone(),
            ShardedCache::new(
                CacheConfig { capacity: 256, seed: SEED + i as u64, ..Default::default() },
                2,
            ),
            None,
        )
    });

    // ---- 1. Deterministic, sticky routing. -------------------------
    let routes: Vec<usize> = requests.iter().map(|r| cluster.route(&r.payload.key)).collect();
    let again: Vec<usize> = requests.iter().map(|r| cluster.route(&r.payload.key)).collect();
    assert_eq!(routes, again, "routing must be a pure function of (seed, nodes, key)");
    let mut per_node = vec![0usize; NODES];
    for n in &routes {
        per_node[*n] += 1;
    }
    assert!(per_node.iter().all(|c| *c > 0), "every node must see traffic: {per_node:?}");
    println!("[1] rendezvous routing: {total} keys -> {per_node:?} (stable across passes)");

    // ---- 2. Cluster-wide quota reconciliation. ---------------------
    // `free` gets a tight bucket (burst 2, 1 job/sec refill) against a
    // 25 ms arrival cadence, so most of its traffic throttles; paying
    // tenants ride the generous default.
    let config = ServeConfig::builder()
        .workers(2)
        .max_batch(4)
        .seed(SEED)
        .arrival_interval_ms(25)
        .default_policy(TenantPolicy::per_sec(64, 1_000))
        .tenant_policy("free", TenantPolicy::per_sec(2, 1))
        .build()
        .expect("valid config");
    let ask = |_node: usize, llm: &CachedLlm, _class: &str, batch: &[Job<Req>]| {
        batch
            .iter()
            .map(|j| llm.ask(&j.payload.key, &j.payload.prompt, EntryKind::Original))
            .collect::<Vec<Result<_, ModelError>>>()
    };
    let key_of = |r: &ServeRequest<Req>| r.payload.key.clone();

    let pass1 = cluster.serve_routed(&config, requests.clone(), key_of, ask);
    let merged = pass1.merged_stats();
    assert_eq!(pass1.routed, routes, "serve_routed must agree with route()");
    assert_eq!(merged.submitted as usize, total);
    assert!(merged.reconciles(), "merged stats must reconcile: {merged:?}");
    for (name, stats) in &pass1.node_stats {
        assert!(stats.reconciles(), "{name} failed to reconcile: {stats:?}");
    }
    for tenant in ["enterprise", "pro", "free"] {
        let row = &merged.per_tenant[tenant];
        assert!(row.reconciles(), "tenant {tenant}: {row:?}");
        assert_eq!(row.submitted as usize, PER_TENANT, "tenant {tenant}");
    }
    assert_eq!(merged.per_tenant["enterprise"].admitted as usize, PER_TENANT);
    assert_eq!(merged.per_tenant["pro"].admitted as usize, PER_TENANT);
    let free = &merged.per_tenant["free"];
    assert!(free.rejected > 0, "the throttled tenant must hit its quota: {free:?}");
    for (i, d) in pass1.results.iter().enumerate() {
        if let Disposition::Rejected(e) = d {
            assert!(matches!(e, ServeError::Throttled { .. }), "job {i}: {e}");
            let hint = e.retry_after_ms().expect("throttle hints are finite here");
            assert!(hint > 0, "job {i}: zero retry hint");
        }
    }
    println!(
        "[2] quotas: enterprise {}/{}, pro {}/{}, free {}/{} admitted — all rows reconcile",
        merged.per_tenant["enterprise"].admitted,
        PER_TENANT,
        merged.per_tenant["pro"].admitted,
        PER_TENANT,
        free.admitted,
        PER_TENANT
    );

    // ---- 3. Cross-node cache invariant + repeat-pass reuse. --------
    let pass2 = cluster.serve_routed(&config, requests.clone(), key_of, ask);
    let admitted2 = pass2.merged_stats().admitted;
    assert_eq!(
        pass2.merged_stats().per_tenant,
        merged.per_tenant,
        "identical input + config must reproduce identical accounting"
    );
    let mut lookups = 0u64;
    let mut reuse = 0u64;
    for (i, node) in cluster.nodes().iter().enumerate() {
        for (s, shard) in node.state.cache().stats_per_shard().into_iter().enumerate() {
            assert!(shard.reconciles(), "node {i} shard {s}: {shard:?}");
        }
        let g = node.state.cache().stats();
        assert!(g.reconciles(), "node {i} global stats: {g:?}");
        lookups += g.lookups;
        reuse += g.reuse_hits;
    }
    assert_eq!(lookups, merged.admitted + admitted2, "every admitted job is one lookup");
    assert!(reuse >= admitted2, "the repeat pass must be served from cache: {reuse} < {admitted2}");
    println!(
        "[3] caches: {lookups} lookups across {NODES} nodes, {reuse} reuse hits \
         (>= {admitted2} repeat jobs), every shard reconciles"
    );

    // ---- 4. Streaming invariance across worker counts. -------------
    let stream_cfg = ServeConfig::builder().workers(1).seed(SEED).build().expect("valid");
    let stream_handler = |_class: &str, batch: &[Job<Req>]| {
        batch
            .iter()
            .map(|j| {
                model
                    .complete(&CompletionRequest::new(j.payload.prompt.clone()))
                    .map(|c| StreamHandle::new(c.text, j.stream_id))
            })
            .collect::<Vec<Result<StreamHandle, ModelError>>>()
    };
    let collect = |workers: usize| -> Vec<Vec<String>> {
        let cfg = ServeConfig { workers, ..stream_cfg.clone() };
        serve_requests(&cfg, requests.clone(), stream_handler)
            .results
            .into_iter()
            .map(|d| {
                let Disposition::Done(Ok(handle)) = d else { panic!("stream job failed") };
                let prefixes: Vec<String> =
                    handle.prefixes().into_iter().map(str::to_string).collect();
                assert!(!prefixes.is_empty(), "completions are non-empty");
                for pair in prefixes.windows(2) {
                    assert!(
                        pair[1].starts_with(pair[0].as_str()),
                        "each prefix must extend the previous one"
                    );
                }
                assert_eq!(
                    prefixes.last().map(String::as_str),
                    Some(handle.final_text()),
                    "the last prefix is the whole completion"
                );
                prefixes
            })
            .collect()
    };
    let base = collect(1);
    for workers in [2usize, 8] {
        assert_eq!(collect(workers), base, "prefixes diverged at {workers} workers");
    }
    let chunks: usize = base.iter().map(Vec::len).sum();
    println!("[4] streaming: {chunks} chunks over {total} jobs, identical at 1/2/8 workers");

    // ---- 5. Outage shedding with window-shaped hints. --------------
    // An outage covering the whole run degrades capacity to 4; the
    // overflow sheds with hints pointing past the window's end.
    let shed_cfg = ServeConfig::builder()
        .workers(2)
        .seed(SEED)
        .arrival_interval_ms(10)
        .shed(ShedPolicy::new(vec![Window::new(0, 10_000)], 4))
        .build()
        .expect("valid config");
    let shed_run = cluster.serve_routed(&shed_cfg, requests.clone(), key_of, ask);
    let shed_stats = shed_run.merged_stats();
    assert!(shed_stats.reconciles(), "{shed_stats:?}");
    assert!(shed_stats.shed > 0, "a degraded run this saturated must shed: {shed_stats:?}");
    for d in &shed_run.results {
        if let Disposition::Rejected(e @ ServeError::Shed { .. }) = d {
            let hint = e.retry_after_ms().expect("shed always carries a hint");
            assert!(hint >= 1, "shed hints point past the outage");
        }
    }
    println!(
        "[5] outage: {} shed / {} submitted under degraded capacity, hints point past the window",
        shed_stats.shed, shed_stats.submitted
    );

    println!("\nmulti_tenant_cluster: all cluster QoS invariants hold");
}
