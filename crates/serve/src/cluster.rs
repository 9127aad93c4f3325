//! [`Cluster`] — a deterministic simulated N-node cluster with a seeded
//! rendezvous router.
//!
//! The "millions of users" story needs horizontal sharding, not just a
//! deeper worker pool. This facade keeps the serving layer generic (the
//! node state `N` is whatever the caller shards — a
//! `ShardedCache`-backed model client, a vecdb partition, both): the
//! cluster owns *routing* and *fan-out*, the nodes own state.
//!
//! Routing is **rendezvous (highest-random-weight) hashing**: key `k`
//! lands on the node maximizing `splitmix(seed ⊕ fnv1a(node) ⊕ fnv1a(k))`.
//! Compared to modulo hashing this gives the two properties the tests
//! pin:
//!
//! * deterministic and seed-stable — same `(seed, nodes, key)` always
//!   routes identically, independent of insertion order of *other*
//!   keys;
//! * minimal disruption — removing a node only remaps the keys that
//!   lived on it; every other key keeps its node.
//!
//! [`Cluster::serve_routed`] fans a request list out node by node
//! through [`crate::scheduler::serve_requests`] (each node gets a
//! distinct derived seed, so per-node stream ids never collide) and
//! stitches per-node results back into global submission order. Nodes
//! run sequentially and each node's run is phase-structured, so the
//! whole cluster run inherits the single-node determinism contract.

use crate::queue::ServeError;
use crate::request::ServeRequest;
use crate::scheduler::{serve_requests, Disposition, Job, ServeConfig, ServeStats};
use llmdm_rt::hash::{fnv1a_str, splitmix};

/// One named node and its caller-owned state.
#[derive(Debug)]
pub struct ClusterNode<N> {
    /// Unique node name (enters the rendezvous hash).
    pub name: String,
    /// Whatever this node shards: cache stripes, vecdb partitions, …
    pub state: N,
}

/// A deterministic simulated cluster: named nodes plus a seeded
/// rendezvous router.
#[derive(Debug)]
pub struct Cluster<N> {
    seed: u64,
    nodes: Vec<ClusterNode<N>>,
}

impl<N> Cluster<N> {
    /// An empty cluster routing under `seed`.
    pub fn new(seed: u64) -> Self {
        Cluster { seed, nodes: Vec::new() }
    }

    /// Build an `n`-node cluster with generated names `node-0 …
    /// node-(n-1)` and per-node state from `make` (called with the node
    /// name and index).
    pub fn with_nodes(seed: u64, n: usize, mut make: impl FnMut(&str, usize) -> N) -> Self {
        let mut c = Cluster::new(seed);
        for i in 0..n {
            let name = format!("node-{i}");
            let state = make(&name, i);
            c.add_node(name, state).expect("generated names are unique");
        }
        c
    }

    /// Add a node. Duplicate names are a typed error — two nodes with
    /// one name would silently split the rendezvous hash.
    pub fn add_node(&mut self, name: impl Into<String>, state: N) -> Result<(), ServeError> {
        let name = name.into();
        if name.trim().is_empty() {
            return Err(ServeError::InvalidConfig {
                reason: "cluster node name must be non-empty".to_string(),
            });
        }
        if self.nodes.iter().any(|n| n.name == name) {
            return Err(ServeError::InvalidConfig {
                reason: format!("duplicate cluster node name `{name}`"),
            });
        }
        self.nodes.push(ClusterNode { name, state });
        Ok(())
    }

    /// The routing seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The nodes, in insertion order.
    pub fn nodes(&self) -> &[ClusterNode<N>] {
        &self.nodes
    }

    /// Mutable access to one node's state.
    pub fn node_mut(&mut self, index: usize) -> &mut N {
        &mut self.nodes[index].state
    }

    /// The rendezvous score of `key` on node `node` under this seed.
    fn score(&self, node: &str, key: &str) -> u64 {
        splitmix(self.seed ^ fnv1a_str(node) ^ fnv1a_str(key))
    }

    /// Route `key` to a node index: the argmax of the rendezvous score
    /// (ties break toward the lower index; with a 64-bit mix they are
    /// vanishingly rare). Panics on an empty cluster.
    pub fn route(&self, key: &str) -> usize {
        assert!(!self.nodes.is_empty(), "cannot route on an empty cluster");
        let mut best = 0;
        let mut best_score = self.score(&self.nodes[0].name, key);
        for (i, n) in self.nodes.iter().enumerate().skip(1) {
            let s = self.score(&n.name, key);
            if s > best_score {
                best = i;
                best_score = s;
            }
        }
        best
    }

    /// The node `key` routes to.
    pub fn node_for(&self, key: &str) -> (usize, &N) {
        let i = self.route(key);
        (i, &self.nodes[i].state)
    }

    /// Shard `items` into per-node vectors by routing `key_of(item)`.
    pub fn partition<T>(&self, items: Vec<T>, key_of: impl Fn(&T) -> String) -> Vec<Vec<T>> {
        let mut parts: Vec<Vec<T>> = (0..self.nodes.len()).map(|_| Vec::new()).collect();
        for item in items {
            let node = self.route(&key_of(&item));
            parts[node].push(item);
        }
        parts
    }

    /// Fan `requests` out across the cluster and serve each node's
    /// share with `config` (per-node seed derived as
    /// `splitmix(seed ⊕ node_index + 1)`, so stream ids differ per node but
    /// stay reproducible). `key_of` extracts the routing key from a
    /// request; `handler` dispatches one coalesced batch on one node
    /// (`node_index`, node state, batch key, jobs). Results come back
    /// in **global submission order**.
    pub fn serve_routed<P, T, E, F>(
        &self,
        config: &ServeConfig,
        requests: Vec<ServeRequest<P>>,
        key_of: impl Fn(&ServeRequest<P>) -> String,
        handler: F,
    ) -> ClusterRun<T, E>
    where
        P: Send,
        T: Send,
        E: Send,
        F: Fn(usize, &N, &str, &[Job<P>]) -> Vec<Result<T, E>> + Sync,
        N: Sync,
    {
        assert!(!self.nodes.is_empty(), "cannot serve on an empty cluster");
        // Shard in submission order, remembering each request's global
        // slot so node-local results stitch back deterministically.
        let mut shards: Vec<Vec<(usize, ServeRequest<P>)>> =
            (0..self.nodes.len()).map(|_| Vec::new()).collect();
        for (i, req) in requests.into_iter().enumerate() {
            let node = self.route(&key_of(&req));
            shards[node].push((i, req));
        }

        let total: usize = shards.iter().map(Vec::len).sum();
        let mut results: Vec<Option<Disposition<T, E>>> = (0..total).map(|_| None).collect();
        let mut routed = vec![0usize; total];
        let mut node_stats = Vec::with_capacity(self.nodes.len());
        for (node_idx, shard) in shards.into_iter().enumerate() {
            let node = &self.nodes[node_idx];
            let node_config = ServeConfig {
                seed: splitmix(config.seed ^ (node_idx as u64 + 1)),
                ..config.clone()
            };
            let (slots, reqs): (Vec<usize>, Vec<ServeRequest<P>>) = shard.into_iter().unzip();
            for &s in &slots {
                routed[s] = node_idx;
            }
            let run = serve_requests(&node_config, reqs, |class, batch: &[Job<P>]| {
                handler(node_idx, &node.state, class, batch)
            });
            node_stats.push((node.name.clone(), run.stats));
            for (local, disposition) in run.results.into_iter().enumerate() {
                results[slots[local]] = Some(disposition);
            }
        }

        ClusterRun {
            results: results
                .into_iter()
                .map(|r| r.expect("every routed request produced a disposition"))
                .collect(),
            routed,
            node_stats,
        }
    }
}

/// Everything one [`Cluster::serve_routed`] fan-out produced.
#[derive(Debug)]
pub struct ClusterRun<T, E> {
    /// Per-request outcome, indexed by global submission order.
    pub results: Vec<Disposition<T, E>>,
    /// Which node index served each submission.
    pub routed: Vec<usize>,
    /// Per-node `(name, stats)` in node order.
    pub node_stats: Vec<(String, ServeStats)>,
}

impl<T, E> ClusterRun<T, E> {
    /// Field-wise sum of the per-node stats (a sum of reconciling
    /// per-tenant stats reconciles, so the global quota invariant
    /// carries across nodes).
    pub fn merged_stats(&self) -> ServeStats {
        let mut total = ServeStats::default();
        for (_, s) in &self.node_stats {
            total.submitted += s.submitted;
            total.admitted += s.admitted;
            total.rejected += s.rejected;
            total.shed += s.shed;
            total.batches += s.batches;
            total.largest_batch = total.largest_batch.max(s.largest_batch);
            for (tenant, t) in &s.per_tenant {
                let e = total.per_tenant.entry(tenant.clone()).or_default();
                e.submitted += t.submitted;
                e.admitted += t.admitted;
                e.rejected += t.rejected;
                e.shed += t.shed;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::Priority;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("user query number {i} about topic {}", i % 17)).collect()
    }

    #[test]
    fn routing_is_deterministic_and_covers_nodes() {
        let c = Cluster::with_nodes(42, 4, |_, _| ());
        let mut seen = [false; 4];
        for k in keys(200) {
            let n = c.route(&k);
            assert!(n < 4);
            assert_eq!(n, c.route(&k), "same key must route identically");
            seen[n] = true;
        }
        assert!(seen.iter().all(|s| *s), "200 keys should touch all 4 nodes: {seen:?}");
    }

    #[test]
    fn different_seeds_route_differently() {
        let a = Cluster::with_nodes(1, 4, |_, _| ());
        let b = Cluster::with_nodes(2, 4, |_, _| ());
        let ks = keys(100);
        let ra: Vec<usize> = ks.iter().map(|k| a.route(k)).collect();
        let rb: Vec<usize> = ks.iter().map(|k| b.route(k)).collect();
        assert_ne!(ra, rb, "routing must depend on the seed");
    }

    #[test]
    fn rendezvous_minimal_disruption_on_node_removal() {
        let full = Cluster::with_nodes(7, 4, |_, _| ());
        // The same cluster minus its last node.
        let mut smaller = Cluster::new(7);
        for i in 0..3 {
            smaller.add_node(format!("node-{i}"), ()).unwrap();
        }
        for k in keys(300) {
            let before = full.route(&k);
            let after = smaller.route(&k);
            if before < 3 {
                assert_eq!(before, after, "key `{k}` moved although its node survived");
            } else {
                assert!(after < 3);
            }
        }
    }

    #[test]
    fn duplicate_and_empty_node_names_are_typed_errors() {
        let mut c = Cluster::new(0);
        c.add_node("a", ()).unwrap();
        assert!(matches!(c.add_node("a", ()), Err(ServeError::InvalidConfig { .. })));
        assert!(matches!(c.add_node("  ", ()), Err(ServeError::InvalidConfig { .. })));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn partition_shards_consistently_with_route() {
        let c = Cluster::with_nodes(3, 3, |_, _| ());
        let items = keys(60);
        let parts = c.partition(items.clone(), |k| k.clone());
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 60);
        for (node, part) in parts.iter().enumerate() {
            for k in part {
                assert_eq!(c.route(k), node);
            }
        }
    }

    #[test]
    fn serve_routed_returns_global_order_and_merged_stats() {
        let c = Cluster::with_nodes(9, 3, |_, _| ());
        let requests: Vec<ServeRequest<u64>> = (0..30u64)
            .map(|i| {
                ServeRequest::builder(format!("tenant-{}", i % 3), i)
                    .class(Priority::Standard)
                    .batch_key("b")
                    .build()
                    .unwrap()
            })
            .collect();
        let run: ClusterRun<u64, ServeError> = c.serve_routed(
            &ServeConfig::default(),
            requests,
            |r| format!("key-{}", r.payload),
            |node, _state, _class, batch| {
                batch.iter().map(|j| Ok(j.payload * 10 + node as u64)).collect()
            },
        );
        assert_eq!(run.results.len(), 30);
        for (i, d) in run.results.iter().enumerate() {
            let Disposition::Done(Ok(v)) = d else { panic!("request {i} failed") };
            assert_eq!(*v / 10, i as u64, "results must come back in submission order");
            assert_eq!(*v % 10, run.routed[i] as u64, "payload tagged with serving node");
        }
        let merged = run.merged_stats();
        assert_eq!(merged.submitted, 30);
        assert_eq!(merged.admitted, 30);
        assert_eq!(merged.per_tenant.len(), 3);
        for (t, s) in &merged.per_tenant {
            assert!(s.reconciles(), "tenant {t}: {s:?}");
            assert_eq!(s.submitted, 10);
        }
    }
}
