//! HNSW (Hierarchical Navigable Small World) graph index.
//!
//! The workhorse ANN structure of production vector databases (§I of the
//! paper: vector databases "accelerate the query processing with efficient
//! indexing mechanisms"). This is a from-scratch implementation of the
//! Malkov–Yashunin construction: nodes get a geometric random level; upper
//! layers are sparse express lanes for greedy descent; layer 0 holds the
//! dense neighborhood graph searched with a bounded best-first frontier of
//! width `ef`.
//!
//! Deletions are tombstoned: removed ids stay as graph waypoints (keeping
//! connectivity) but are filtered from results; `compact()` rebuilds.

use std::collections::{BinaryHeap, HashMap, HashSet};

use crate::error::VecDbError;
use crate::hash_ord::{MaxScore, MinScore};
use crate::index::{check_dim, Neighbor, VectorIndex};
use crate::metric::Metric;

/// HNSW construction/search parameters.
#[derive(Debug, Clone, Copy)]
pub struct HnswConfig {
    /// Max neighbors per node per layer (layer 0 uses `2 * m`).
    pub m: usize,
    /// Frontier width during construction.
    pub ef_construction: usize,
    /// Frontier width during search (≥ k for good recall).
    pub ef_search: usize,
    /// Seed for level assignment.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig { m: 16, ef_construction: 100, ef_search: 64, seed: 0 }
    }
}

#[derive(Debug, Clone)]
struct Node {
    id: u64,
    vector: Vec<f32>,
    /// Adjacency per layer; `neighbors[l]` are internal node indexes.
    neighbors: Vec<Vec<u32>>,
    deleted: bool,
}

/// Hierarchical navigable small-world index.
#[derive(Debug)]
pub struct HnswIndex {
    dim: usize,
    metric: Metric,
    config: HnswConfig,
    nodes: Vec<Node>,
    by_id: HashMap<u64, u32>,
    entry: Option<u32>,
    max_level: usize,
    live: usize,
    insert_count: u64,
}

impl HnswIndex {
    /// Create an empty index.
    pub fn new(dim: usize, metric: Metric, config: HnswConfig) -> Result<Self, VecDbError> {
        if config.m == 0 || config.ef_construction == 0 || config.ef_search == 0 {
            return Err(VecDbError::InvalidConfig("m and ef parameters must be positive".into()));
        }
        Ok(HnswIndex {
            dim,
            metric,
            config,
            nodes: Vec::new(),
            by_id: HashMap::new(),
            entry: None,
            max_level: 0,
            live: 0,
            insert_count: 0,
        })
    }

    /// Adjust the search frontier width (`ef`): the recall/latency dial.
    pub fn set_ef_search(&mut self, ef: usize) {
        self.config.ef_search = ef.max(1);
    }

    /// Current search `ef`.
    pub fn ef_search(&self) -> usize {
        self.config.ef_search
    }

    /// Fraction of stored nodes that are tombstones.
    pub fn tombstone_ratio(&self) -> f64 {
        if self.nodes.is_empty() {
            0.0
        } else {
            (self.nodes.len() - self.live) as f64 / self.nodes.len() as f64
        }
    }

    /// Rebuild the graph without tombstones.
    pub fn compact(&mut self) {
        let live: Vec<(u64, Vec<f32>)> = self
            .nodes
            .iter()
            .filter(|n| !n.deleted)
            .map(|n| (n.id, n.vector.clone()))
            .collect();
        let config = self.config;
        *self = HnswIndex::new(self.dim, self.metric, config).expect("config was valid");
        for (id, v) in live {
            self.insert(id, v).expect("reinsert of valid vector");
        }
    }

    /// Geometric level assignment with p = 1/e, deterministic per insert.
    fn draw_level(&mut self) -> usize {
        let h = crate::hash_ord::level_hash(self.config.seed, self.insert_count);
        self.insert_count += 1;
        let mut level = 0usize;
        let mut x = h;
        // Each "success" with probability 1/e ≈ 0.3679 bumps the level.
        loop {
            let u = crate::hash_ord::unit(x);
            if u < std::f64::consts::E.recip() && level < 16 {
                level += 1;
                x = llmdm_rt::hash::splitmix(x);
            } else {
                return level;
            }
        }
    }

    #[inline]
    fn score(&self, q: &[f32], node: u32) -> f32 {
        self.metric.score(q, &self.nodes[node as usize].vector)
    }

    /// Greedy descent on one layer: move to the best neighbor until no
    /// neighbor improves.
    fn greedy_step(&self, q: &[f32], start: u32, layer: usize) -> u32 {
        let mut cur = start;
        let mut cur_score = self.score(q, cur);
        loop {
            let mut improved = false;
            for &nb in &self.nodes[cur as usize].neighbors[layer] {
                let s = self.score(q, nb);
                if s > cur_score {
                    cur = nb;
                    cur_score = s;
                    improved = true;
                }
            }
            if !improved {
                return cur;
            }
        }
    }

    /// Best-first search on `layer` with frontier width `ef`. Returns up to
    /// `ef` candidates, best first, including tombstoned nodes (callers
    /// filter).
    fn search_layer(&self, q: &[f32], entry: u32, ef: usize, layer: usize) -> Vec<(f32, u32)> {
        let mut visited: HashSet<u32> = HashSet::new();
        visited.insert(entry);
        let entry_score = self.score(q, entry);
        // Frontier: max-heap on score. Results: min-heap to evict worst.
        let mut frontier: BinaryHeap<MaxScore> = BinaryHeap::new();
        frontier.push(MaxScore { score: entry_score, node: entry });
        let mut results: BinaryHeap<MinScore> = BinaryHeap::new();
        results.push(MinScore { score: entry_score, node: entry });

        while let Some(MaxScore { score, node }) = frontier.pop() {
            let worst = results.peek().map(|m| m.score).unwrap_or(f32::NEG_INFINITY);
            if results.len() >= ef && score < worst {
                break;
            }
            for &nb in &self.nodes[node as usize].neighbors[layer] {
                if !visited.insert(nb) {
                    continue;
                }
                let s = self.score(q, nb);
                let worst = results.peek().map(|m| m.score).unwrap_or(f32::NEG_INFINITY);
                if results.len() < ef || s > worst {
                    frontier.push(MaxScore { score: s, node: nb });
                    results.push(MinScore { score: s, node: nb });
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        let mut out: Vec<(f32, u32)> =
            results.into_iter().map(|m| (m.score, m.node)).collect();
        out.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        out
    }

    /// Connect `node` to the best `m` candidates on `layer`, and prune
    /// neighbors that exceed their degree bound.
    fn connect(&mut self, node: u32, mut candidates: Vec<(f32, u32)>, layer: usize) {
        let m_max = if layer == 0 { self.config.m * 2 } else { self.config.m };
        candidates.retain(|&(_, c)| c != node);
        candidates.truncate(m_max);
        for &(_, c) in &candidates {
            self.nodes[node as usize].neighbors[layer].push(c);
            self.nodes[c as usize].neighbors[layer].push(node);
            // Prune an over-full neighbor to its best m_max links.
            if self.nodes[c as usize].neighbors[layer].len() > m_max {
                let cv = self.nodes[c as usize].vector.clone();
                let mut links: Vec<(f32, u32)> = self.nodes[c as usize].neighbors[layer]
                    .iter()
                    .map(|&l| (self.score(&cv, l), l))
                    .collect();
                links.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
                links.truncate(m_max);
                self.nodes[c as usize].neighbors[layer] = links.into_iter().map(|(_, l)| l).collect();
            }
        }
    }
}

/// Result of an adaptively-terminated search.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveSearch {
    /// The neighbors found, best first.
    pub neighbors: Vec<Neighbor>,
    /// Distance computations performed.
    pub scored: usize,
    /// Whether the search stopped early (patience exhausted) rather than
    /// by the frontier draining.
    pub terminated_early: bool,
}

impl HnswIndex {
    /// Search with **learned-style adaptive early termination** (§III-B2's
    /// pointer to Li et al.'s adaptive early termination): instead of a
    /// fixed `ef`, best-first search continues until `patience`
    /// consecutive frontier expansions fail to improve the current k-th
    /// best score. Easy queries (whose neighbors cluster near the entry
    /// point) stop after a handful of expansions; hard queries keep
    /// searching — so the average cost drops at equal recall compared to
    /// a fixed `ef` sized for the hard tail.
    pub fn search_adaptive(
        &self,
        query: &[f32],
        k: usize,
        patience: usize,
    ) -> Result<AdaptiveSearch, VecDbError> {
        crate::index::check_dim(self.dim, query)?;
        let Some(mut entry) = self.entry else {
            return Ok(AdaptiveSearch {
                neighbors: Vec::new(),
                scored: 0,
                terminated_early: false,
            });
        };
        for layer in (1..=self.max_level).rev() {
            entry = self.greedy_step(query, entry, layer);
        }

        // Best-first on layer 0 with patience-based stopping.
        let mut visited: HashSet<u32> = HashSet::new();
        visited.insert(entry);
        let mut scored = 1usize;
        let entry_score = self.score(query, entry);
        let mut frontier: BinaryHeap<MaxScore> = BinaryHeap::new();
        frontier.push(MaxScore { score: entry_score, node: entry });
        // Live best-k (tombstones excluded).
        let mut best: Vec<Neighbor> = Vec::new();
        if !self.nodes[entry as usize].deleted {
            best.push(Neighbor { id: self.nodes[entry as usize].id, score: entry_score });
        }
        let mut stale = 0usize;
        let mut terminated_early = false;

        while let Some(MaxScore { node, .. }) = frontier.pop() {
            let mut improved = false;
            for &nb in &self.nodes[node as usize].neighbors[0] {
                if !visited.insert(nb) {
                    continue;
                }
                let s = self.score(query, nb);
                scored += 1;
                frontier.push(MaxScore { score: s, node: nb });
                if !self.nodes[nb as usize].deleted {
                    let kth = if best.len() >= k {
                        best[k - 1].score
                    } else {
                        f32::NEG_INFINITY
                    };
                    if s > kth {
                        crate::index::push_topk(
                            &mut best,
                            k,
                            Neighbor { id: self.nodes[nb as usize].id, score: s },
                        );
                        improved = true;
                    }
                }
            }
            if improved {
                stale = 0;
            } else {
                stale += 1;
                if stale >= patience && best.len() >= k.min(self.live) {
                    terminated_early = true;
                    break;
                }
            }
        }
        Ok(AdaptiveSearch { neighbors: best, scored, terminated_early })
    }
}

impl VectorIndex for HnswIndex {
    fn dim(&self) -> usize {
        self.dim
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn len(&self) -> usize {
        self.live
    }

    fn insert(&mut self, id: u64, vector: Vec<f32>) -> Result<(), VecDbError> {
        check_dim(self.dim, &vector)?;
        if self.by_id.contains_key(&id) {
            return Err(VecDbError::DuplicateId(id));
        }
        let level = self.draw_level();
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node {
            id,
            vector,
            neighbors: vec![Vec::new(); level + 1],
            deleted: false,
        });
        self.by_id.insert(id, idx);
        self.live += 1;

        let Some(mut entry) = self.entry else {
            self.entry = Some(idx);
            self.max_level = level;
            return Ok(());
        };

        let q = self.nodes[idx as usize].vector.clone();
        // Greedy descent through layers above the new node's level.
        let top = self.max_level;
        for layer in ((level + 1)..=top).rev() {
            entry = self.greedy_step(&q, entry, layer);
        }
        // Insert with ef_construction search on each shared layer.
        for layer in (0..=level.min(top)).rev() {
            let candidates = self.search_layer(&q, entry, self.config.ef_construction, layer);
            entry = candidates.first().map(|&(_, n)| n).unwrap_or(entry);
            self.connect(idx, candidates, layer);
        }
        if level > self.max_level {
            self.max_level = level;
            self.entry = Some(idx);
        }
        Ok(())
    }

    fn remove(&mut self, id: u64) -> Result<(), VecDbError> {
        let &idx = self.by_id.get(&id).ok_or(VecDbError::NotFound(id))?;
        if self.nodes[idx as usize].deleted {
            return Err(VecDbError::NotFound(id));
        }
        self.nodes[idx as usize].deleted = true;
        self.by_id.remove(&id);
        self.live -= 1;
        Ok(())
    }

    fn search(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, VecDbError> {
        let mut span = llmdm_obs::span("vecdb.hnsw.search");
        check_dim(self.dim, query)?;
        let Some(mut entry) = self.entry else {
            return Ok(Vec::new());
        };
        for layer in (1..=self.max_level).rev() {
            entry = self.greedy_step(query, entry, layer);
        }
        let ef = self.config.ef_search.max(k);
        let found = self.search_layer(query, entry, ef, 0);
        if span.is_recording() {
            // `found` is the beam the base layer actually scored — the
            // candidates-scanned figure that separates ANN from brute force.
            span.field("k", k);
            span.field("ef", ef);
            span.field("candidates", found.len());
            llmdm_obs::counter_add("vecdb.search.queries", 1.0);
            llmdm_obs::counter_add("vecdb.search.candidates", found.len() as f64);
        }
        Ok(found
            .into_iter()
            .filter(|&(_, n)| !self.nodes[n as usize].deleted)
            .take(k)
            .map(|(score, n)| Neighbor { id: self.nodes[n as usize].id, score })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use llmdm_rt::rand::rngs::SmallRng;
    use llmdm_rt::rand::{Rng, SeedableRng};

    fn random_vecs(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0f32)).collect()).collect()
    }

    fn build(n: usize, seed: u64) -> (HnswIndex, Vec<Vec<f32>>) {
        let vecs = random_vecs(n, 16, seed);
        let mut idx = HnswIndex::new(16, Metric::Cosine, HnswConfig::default()).unwrap();
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(i as u64, v.clone()).unwrap();
        }
        (idx, vecs)
    }

    #[test]
    fn finds_inserted_vectors() {
        let (idx, vecs) = build(300, 11);
        for probe in [0usize, 123, 299] {
            let hits = idx.search(&vecs[probe], 1).unwrap();
            assert_eq!(hits[0].id, probe as u64, "probe {probe}");
        }
    }

    #[test]
    fn recall_vs_flat_above_90_percent() {
        let (idx, vecs) = build(1000, 7);
        let mut flat = FlatIndex::new(16, Metric::Cosine);
        for (i, v) in vecs.iter().enumerate() {
            flat.insert(i as u64, v.clone()).unwrap();
        }
        let queries = random_vecs(50, 16, 555);
        let mut overlap = 0usize;
        let mut total = 0usize;
        for q in &queries {
            let gold: HashSet<u64> = flat.search(q, 10).unwrap().iter().map(|n| n.id).collect();
            let got = idx.search(q, 10).unwrap();
            overlap += got.iter().filter(|n| gold.contains(&n.id)).count();
            total += gold.len();
        }
        let recall = overlap as f64 / total as f64;
        assert!(recall > 0.9, "recall@10 = {recall}");
    }

    #[test]
    fn results_sorted_best_first() {
        let (idx, vecs) = build(200, 3);
        let hits = idx.search(&vecs[0], 10).unwrap();
        assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn tombstoned_ids_not_returned() {
        let (mut idx, vecs) = build(200, 9);
        idx.remove(42).unwrap();
        assert_eq!(idx.len(), 199);
        let hits = idx.search(&vecs[42], 5).unwrap();
        assert!(hits.iter().all(|h| h.id != 42));
        assert!(idx.remove(42).is_err());
    }

    #[test]
    fn compact_removes_tombstones() {
        let (mut idx, vecs) = build(200, 13);
        for id in 0..100u64 {
            idx.remove(id).unwrap();
        }
        assert!(idx.tombstone_ratio() > 0.4);
        idx.compact();
        assert_eq!(idx.tombstone_ratio(), 0.0);
        assert_eq!(idx.len(), 100);
        let hits = idx.search(&vecs[150], 1).unwrap();
        assert_eq!(hits[0].id, 150);
    }

    #[test]
    fn duplicate_rejected() {
        let mut idx = HnswIndex::new(4, Metric::Cosine, HnswConfig::default()).unwrap();
        idx.insert(1, vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        assert!(idx.insert(1, vec![0.0, 1.0, 0.0, 0.0]).is_err());
    }

    #[test]
    fn empty_search_is_empty() {
        let idx = HnswIndex::new(4, Metric::Cosine, HnswConfig::default()).unwrap();
        assert!(idx.search(&[1.0, 0.0, 0.0, 0.0], 3).unwrap().is_empty());
    }

    #[test]
    fn higher_ef_no_worse_recall() {
        let (mut idx, vecs) = build(800, 21);
        let mut flat = FlatIndex::new(16, Metric::Cosine);
        for (i, v) in vecs.iter().enumerate() {
            flat.insert(i as u64, v.clone()).unwrap();
        }
        let queries = random_vecs(30, 16, 77);
        let recall = |idx: &HnswIndex| {
            let mut overlap = 0;
            for q in &queries {
                let gold: HashSet<u64> =
                    flat.search(q, 5).unwrap().iter().map(|n| n.id).collect();
                overlap +=
                    idx.search(q, 5).unwrap().iter().filter(|n| gold.contains(&n.id)).count();
            }
            overlap
        };
        idx.set_ef_search(8);
        let low = recall(&idx);
        idx.set_ef_search(128);
        let high = recall(&idx);
        assert!(high >= low, "low={low} high={high}");
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(HnswIndex::new(4, Metric::L2, HnswConfig { m: 0, ..Default::default() }).is_err());
    }

    #[test]
    fn adaptive_search_matches_fixed_ef_recall_at_lower_cost() {
        let (idx, vecs) = build(1200, 31);
        let mut flat = FlatIndex::new(16, Metric::Cosine);
        for (i, v) in vecs.iter().enumerate() {
            flat.insert(i as u64, v.clone()).unwrap();
        }
        let queries = random_vecs(40, 16, 777);
        let mut fixed_recall = 0usize;
        let mut adaptive_recall = 0usize;
        let mut adaptive_scored = 0usize;
        let mut total = 0usize;
        for q in &queries {
            let gold: HashSet<u64> = flat.search(q, 10).unwrap().iter().map(|n| n.id).collect();
            let fixed = idx.search(q, 10).unwrap();
            let adaptive = idx.search_adaptive(q, 10, 24).unwrap();
            fixed_recall += fixed.iter().filter(|n| gold.contains(&n.id)).count();
            adaptive_recall += adaptive.neighbors.iter().filter(|n| gold.contains(&n.id)).count();
            adaptive_scored += adaptive.scored;
            total += gold.len();
        }
        let fr = fixed_recall as f64 / total as f64;
        let ar = adaptive_recall as f64 / total as f64;
        assert!(ar > fr - 0.05, "adaptive recall {ar} vs fixed {fr}");
        assert!(ar > 0.85, "adaptive recall {ar}");
        // Cost should stay well below exhaustive.
        assert!(
            adaptive_scored / queries.len() < 1200 / 2,
            "mean scored {}",
            adaptive_scored / queries.len()
        );
    }

    #[test]
    fn adaptive_patience_trades_cost_for_recall() {
        let (idx, _) = build(800, 33);
        let queries = random_vecs(20, 16, 91);
        let cost_at = |patience: usize| {
            queries
                .iter()
                .map(|q| idx.search_adaptive(q, 10, patience).unwrap().scored)
                .sum::<usize>()
        };
        assert!(cost_at(4) <= cost_at(64), "more patience must not cost less");
    }

    #[test]
    fn adaptive_search_respects_tombstones() {
        let (mut idx, vecs) = build(300, 35);
        idx.remove(17).unwrap();
        let out = idx.search_adaptive(&vecs[17], 5, 16).unwrap();
        assert!(out.neighbors.iter().all(|n| n.id != 17));
        assert_eq!(out.neighbors.len(), 5);
    }

    #[test]
    fn adaptive_search_empty_index() {
        let idx = HnswIndex::new(4, Metric::Cosine, HnswConfig::default()).unwrap();
        let out = idx.search_adaptive(&[1.0, 0.0, 0.0, 0.0], 3, 8).unwrap();
        assert!(out.neighbors.is_empty());
        assert_eq!(out.scored, 0);
    }
}
