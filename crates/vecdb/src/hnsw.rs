//! HNSW (Hierarchical Navigable Small World) graph index.
//!
//! The workhorse ANN structure of production vector databases (§I of the
//! paper: vector databases "accelerate the query processing with efficient
//! indexing mechanisms"). This is a from-scratch implementation of the
//! Malkov–Yashunin construction: nodes get a geometric random level; upper
//! layers are sparse express lanes for greedy descent; layer 0 holds the
//! dense neighborhood graph searched with a bounded best-first frontier of
//! width `ef`; every layer's links are chosen by the paper's diversity
//! heuristic (`HnswIndex::diverse`), so clustered data stays one graph.
//!
//! Deletions are tombstoned: removed ids stay as graph waypoints (keeping
//! connectivity) but are filtered from results; `compact()` rebuilds.
//!
//! # Layout
//!
//! A node is a *row number*, handed out in insertion order, and everything
//! about it lives in a column indexed by that number: its vector in one
//! row-major `f32` arena (`Rows`, with the inverse norm cosine scoring
//! wants beside it), its id, its tombstone flag, its drawn level, and its
//! links (`Links`). A row number is stable until [`HnswIndex::compact`],
//! which drops the tombstoned rows and renumbers the rest in order — so
//! ascending row order is always insertion order.

use std::collections::{BinaryHeap, HashMap};

use crate::error::VecDbError;
use crate::hash_ord::{MaxScore, MinScore};
use crate::index::{check_dim, push_topk, Neighbor, VectorIndex};
use crate::metric::{Metric, Prepared, Rows};

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

/// Adjacency, in two flat `u32` tables of fixed-stride blocks. A block is
/// a count followed by that layer's capacity in slots.
///
/// * Layer 0: node `n`'s block sits at `n · (1 + 2m)` of `base`.
/// * Layers ≥ 1: only a node whose drawn level is ≥ 1 (a fraction
///   `1/e ≈ 37 %`) owns any; its `level` blocks of `1 + m` sit back to back
///   in `upper`, starting at `upper_at[n]`.
#[derive(Debug)]
struct Links {
    m: usize,
    /// The level each node drew: it has a block on layers `0..=level` only.
    levels: Vec<u8>,
    base: Vec<u32>,
    /// Meaningful only where `levels[n] ≥ 1`.
    upper_at: Vec<u32>,
    upper: Vec<u32>,
}

impl Links {
    fn new(m: usize) -> Self {
        Links { m, levels: Vec::new(), base: Vec::new(), upper_at: Vec::new(), upper: Vec::new() }
    }

    /// Max links of a node on `layer`.
    fn cap(&self, layer: usize) -> usize {
        if layer == 0 {
            self.m * 2
        } else {
            self.m
        }
    }

    /// Append the (empty) blocks of the next node, which drew `level`.
    fn push_node(&mut self, level: usize) {
        self.levels.push(u8::try_from(level).expect("levels are capped at 16"));
        self.base.resize(self.base.len() + 1 + self.cap(0), 0);
        self.upper_at.push(u32::try_from(self.upper.len()).expect("upper table outgrew u32"));
        self.upper.resize(self.upper.len() + level * (1 + self.m), 0);
    }

    /// The table holding `layer`'s blocks, and where `node`'s starts in it.
    fn block(&self, node: u32, layer: usize) -> (&[u32], usize) {
        // Not a debug assert: past its level a node's "block" would be the
        // next node's.
        assert!(layer <= self.levels[node as usize] as usize, "node {node} has no layer {layer}");
        if layer == 0 {
            (&self.base, node as usize * (1 + 2 * self.m))
        } else {
            (&self.upper, self.upper_at[node as usize] as usize + (layer - 1) * (1 + self.m))
        }
    }

    /// As [`Links::block`], to write through.
    fn block_mut(&mut self, node: u32, layer: usize) -> (&mut [u32], usize) {
        let at = self.block(node, layer).1;
        (if layer == 0 { &mut self.base } else { &mut self.upper }, at)
    }

    #[inline]
    fn get(&self, node: u32, layer: usize) -> &[u32] {
        let (table, at) = self.block(node, layer);
        &table[at + 1..at + 1 + table[at] as usize]
    }

    /// Replace `node`'s links on `layer` with `links` (at most `cap`).
    fn set(&mut self, node: u32, layer: usize, links: impl Iterator<Item = u32>) {
        let cap = self.cap(layer);
        let (table, at) = self.block_mut(node, layer);
        let mut n = 0;
        for (slot, link) in table[at + 1..at + 1 + cap].iter_mut().zip(links) {
            *slot = link;
            n += 1;
        }
        table[at] = n;
    }

    /// Add one link; `false`, and nothing written, when the block is full.
    fn push(&mut self, node: u32, layer: usize, link: u32) -> bool {
        let cap = self.cap(layer);
        let (table, at) = self.block_mut(node, layer);
        let n = table[at] as usize;
        if n == cap {
            return false;
        }
        table[at + 1 + n] = link;
        table[at] += 1;
        true
    }
}

/// One bit per row: has the current search scored it yet?
struct Visited(Vec<u64>);

impl Visited {
    fn new(rows: usize) -> Self {
        Visited(vec![0; rows.div_ceil(64)])
    }

    /// Mark `node`; `true` if it was not marked before.
    #[inline]
    fn insert(&mut self, node: u32) -> bool {
        let (word, bit) = (&mut self.0[node as usize / 64], 1u64 << (node % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }
}

/// When the best-first search of a layer ends.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// Keep the best `ef` scored nodes; end when the nearest unexpanded one
    /// is farther than the worst of a full set.
    Ef(usize),
    /// Keep everything scored; end after `patience` expansions in a row
    /// that leave the best `k` live scores as they were.
    Patience { k: usize, patience: usize },
}

/// What one best-first search found.
struct Found {
    /// `(score, node)`, best first, tombstones included.
    nodes: Vec<(f32, u32)>,
    /// Distance computations made.
    scored: usize,
    /// Whether a [`Stop::Patience`] search ran out of patience rather than
    /// frontier.
    gave_up: bool,
}

/// Hierarchical navigable small-world index.
#[derive(Debug)]
pub struct HnswIndex {
    config: HnswConfig,
    rows: Rows,
    ids: Vec<u64>,
    deleted: Vec<bool>,
    links: Links,
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
            config,
            rows: Rows::new(dim, metric),
            ids: Vec::new(),
            deleted: Vec::new(),
            links: Links::new(config.m),
            by_id: HashMap::new(),
            entry: None,
            max_level: 0,
            live: 0,
            insert_count: 0,
        })
    }

    /// Fraction of stored nodes that are tombstones.
    pub fn tombstone_ratio(&self) -> f64 {
        if self.ids.is_empty() {
            0.0
        } else {
            (self.ids.len() - self.live) as f64 / self.ids.len() as f64
        }
    }

    /// Rebuild the graph without tombstones. Live rows keep their relative
    /// order and are renumbered from 0.
    pub fn compact(&mut self) {
        let fresh = HnswIndex::new(self.rows.dim(), self.rows.metric(), self.config)
            .expect("config was valid");
        let old = std::mem::replace(self, fresh);
        for (row, &id) in old.ids.iter().enumerate() {
            if !old.deleted[row] {
                self.insert_row(id, old.rows.row(row)).expect("reinsert of valid vector");
            }
        }
    }

    /// Rows in the arena, tombstones included: the next insert gets this
    /// row number.
    pub(crate) fn rows(&self) -> usize {
        self.ids.len()
    }

    /// The row holding live id `id`.
    pub(crate) fn row_of(&self, id: u64) -> Option<u32> {
        self.by_id.get(&id).copied()
    }

    /// The stored vector for `id`, if present.
    pub(crate) fn get(&self, id: u64) -> Option<&[f32]> {
        Some(self.rows.row(self.row_of(id)? as usize))
    }

    /// Exact top-`k` among `rows`, scored straight out of the arena in the
    /// order given (so equal scores keep that order); tombstoned rows are
    /// skipped. `0..rows()` is the brute-force scan.
    pub(crate) fn search_rows(
        &self,
        query: &[f32],
        k: usize,
        rows: impl IntoIterator<Item = u32>,
    ) -> Result<Vec<Neighbor>, VecDbError> {
        let mut span = llmdm_obs::span("vecdb.hnsw.search_rows");
        check_dim(self.rows.dim(), query)?;
        let q = self.rows.metric().prepare(query);
        let mut best = Vec::with_capacity(k.min(self.live));
        let mut comps = 0usize;
        for row in rows {
            if !self.deleted[row as usize] {
                comps += 1;
                let score = self.rows.score(&q, row as usize);
                push_topk(&mut best, k, Neighbor { id: self.ids[row as usize], score });
            }
        }
        if span.is_recording() {
            span.field("k", k);
            span.field("candidates", comps);
            span.field("distance_comps", comps);
            llmdm_obs::counter_add("vecdb.search.queries", 1.0);
            llmdm_obs::counter_add("vecdb.search.candidates", comps as f64);
            llmdm_obs::counter_add("vecdb.search.distance_comps", comps as f64);
        }
        Ok(best)
    }

    /// Geometric level assignment with p = 1/e, deterministic per insert.
    fn draw_level(&mut self) -> usize {
        let h = crate::hash_ord::level_hash(self.config.seed, self.insert_count);
        self.insert_count += 1;
        let mut level = 0usize;
        let mut x = h;
        // Each "success" with probability 1/e ≈ 0.3679 bumps the level.
        loop {
            let u = llmdm_rt::hash::unit_f64(x);
            if u < std::f64::consts::E.recip() && level < 16 {
                level += 1;
                x = llmdm_rt::hash::splitmix(x);
            } else {
                return level;
            }
        }
    }

    /// Greedy descent on one layer: move to the best neighbor until no
    /// neighbor improves. Adds its distance computations to `scored`.
    fn greedy_step(&self, q: &Prepared<'_>, start: u32, layer: usize, scored: &mut usize) -> u32 {
        let mut cur = start;
        let mut cur_score = self.rows.score(q, cur as usize);
        *scored += 1;
        loop {
            let mut improved = false;
            let links = self.links.get(cur, layer);
            *scored += links.len();
            for &nb in links {
                let s = self.rows.score(q, nb as usize);
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

    /// Greedy descent from the entry point through every layer above
    /// `floor`: where a search of layer `floor` should start.
    fn descend(&self, q: &Prepared<'_>, floor: usize, scored: &mut usize) -> Option<u32> {
        let mut entry = self.entry?;
        for layer in (floor + 1..=self.max_level).rev() {
            entry = self.greedy_step(q, entry, layer, scored);
        }
        Some(entry)
    }

    /// Best-first search of `layer` from `entry`: repeatedly expand the
    /// nearest unexpanded node, scoring each neighbor not yet seen, until
    /// `stop` says so or the frontier drains. The one search loop of this
    /// index — construction, fixed-`ef` search and patience search differ
    /// only in `stop`.
    fn best_first(&self, q: &Prepared<'_>, entry: u32, layer: usize, stop: Stop) -> Found {
        // `Ef` bounds the kept set; `Patience` keeps every node it scores.
        let width = match stop {
            Stop::Ef(ef) => ef,
            Stop::Patience { .. } => usize::MAX,
        };
        let mut visited = Visited::new(self.ids.len());
        visited.insert(entry);
        let entry_score = self.rows.score(q, entry as usize);
        let mut scored = 1usize;
        // Frontier: max-heap on score. Kept set: min-heap to evict worst.
        let mut frontier = BinaryHeap::from([MaxScore { score: entry_score, node: entry }]);
        let mut kept = BinaryHeap::from([MinScore { score: entry_score, node: entry }]);
        // Patience only: the best `k` live scores, worst on top.
        let mut top: BinaryHeap<MinScore> = BinaryHeap::new();
        if matches!(stop, Stop::Patience { k, .. } if k > 0) && !self.deleted[entry as usize] {
            top.push(MinScore { score: entry_score, node: entry });
        }
        let mut stale = 0usize;
        let mut gave_up = false;

        while let Some(MaxScore { score, node }) = frontier.pop() {
            if kept.len() >= width && kept.peek().is_some_and(|worst| score < worst.score) {
                break;
            }
            let mut improved = false;
            for &nb in self.links.get(node, layer) {
                if !visited.insert(nb) {
                    continue;
                }
                let s = self.rows.score(q, nb as usize);
                scored += 1;
                if kept.len() < width || kept.peek().is_some_and(|worst| s > worst.score) {
                    frontier.push(MaxScore { score: s, node: nb });
                    kept.push(MinScore { score: s, node: nb });
                    if kept.len() > width {
                        kept.pop();
                    }
                }
                if let Stop::Patience { k, .. } = stop {
                    let enters = top.len() < k || top.peek().is_some_and(|kth| s > kth.score);
                    if enters && !self.deleted[nb as usize] {
                        top.push(MinScore { score: s, node: nb });
                        if top.len() > k {
                            top.pop();
                        }
                        improved = true;
                    }
                }
            }
            if let Stop::Patience { k, patience } = stop {
                stale = if improved { 0 } else { stale + 1 };
                if stale >= patience && top.len() >= k.min(self.live) {
                    gave_up = true;
                    break;
                }
            }
        }
        let mut nodes: Vec<(f32, u32)> = kept.into_iter().map(|m| (m.score, m.node)).collect();
        // Equal scores: the earlier insert first.
        nodes.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        Found { nodes, scored, gave_up }
    }

    /// The live nodes of `found`, best first, at most `k`.
    fn neighbors(&self, found: Found, k: usize) -> Vec<Neighbor> {
        found
            .nodes
            .into_iter()
            .filter(|&(_, n)| !self.deleted[n as usize])
            .take(k)
            .map(|(score, n)| Neighbor { id: self.ids[n as usize], score })
            .collect()
    }

    /// The links a node keeps on `layer` out of `candidates` (`(score
    /// from the node, row)`, best first), up to the layer's capacity: the
    /// HNSW paper's neighbour heuristic (Malkov & Yashunin, Alg. 4). A
    /// candidate is dropped when a link kept before it is strictly closer
    /// to it than the node is. A candidate a kept link already covers is
    /// reached through that link; the closest `cap` alone would all sit in
    /// the node's own cluster and leave the others unlinked. Ties are kept:
    /// a copy of the node scores every candidate exactly as the node does,
    /// and dropping on a tie would leave it that copy as its one link.
    fn diverse(&self, candidates: &[(f32, u32)], layer: usize) -> Vec<u32> {
        let cap = self.links.cap(layer);
        let mut kept: Vec<u32> = Vec::with_capacity(cap);
        for &(score, c) in candidates {
            if kept.len() == cap {
                break;
            }
            let from_c = self.rows.prepare_row(c as usize);
            if kept.iter().all(|&k| self.rows.score(&from_c, k as usize) <= score) {
                kept.push(c);
            }
        }
        kept
    }

    /// Link `node` to [`HnswIndex::diverse`] candidates on `layer` and
    /// each of them back; a neighbour whose block is full re-selects its
    /// links from its own and `node`.
    fn connect(&mut self, node: u32, candidates: &[(f32, u32)], layer: usize) {
        for c in self.diverse(candidates, layer) {
            self.links.push(node, layer, c);
            if self.links.push(c, layer, node) {
                continue;
            }
            // Scored from `c`'s own row in the arena.
            let from_c = self.rows.prepare_row(c as usize);
            let mut scored: Vec<(f32, u32)> = self
                .links
                .get(c, layer)
                .iter()
                .chain(std::iter::once(&node))
                .map(|&l| (self.rows.score(&from_c, l as usize), l))
                .collect();
            scored.sort_by(|a, b| b.0.total_cmp(&a.0));
            let links = self.diverse(&scored, layer);
            self.links.set(c, layer, links.into_iter());
        }
    }

    /// [`VectorIndex::insert`] from a borrowed vector.
    fn insert_row(&mut self, id: u64, vector: &[f32]) -> Result<(), VecDbError> {
        check_dim(self.rows.dim(), vector)?;
        if self.by_id.contains_key(&id) {
            return Err(VecDbError::DuplicateId(id));
        }
        let level = self.draw_level();
        let idx = u32::try_from(self.ids.len()).expect("more rows than u32 can number");
        self.rows.push(vector);
        self.ids.push(id);
        self.deleted.push(false);
        self.links.push_node(level);
        self.by_id.insert(id, idx);
        self.live += 1;

        // The new node's row, already in the arena, is the query.
        // Greedy descent through layers above the new node's level.
        let q = self.rows.prepare_row(idx as usize);
        let Some(mut entry) = self.descend(&q, level, &mut 0) else {
            self.entry = Some(idx);
            self.max_level = level;
            return Ok(());
        };
        // Insert with ef_construction search on each shared layer.
        for layer in (0..=level.min(self.max_level)).rev() {
            let q = self.rows.prepare_row(idx as usize);
            let found = self.best_first(&q, entry, layer, Stop::Ef(self.config.ef_construction));
            entry = found.nodes.first().map_or(entry, |&(_, n)| n);
            self.connect(idx, &found.nodes, layer);
        }
        if level > self.max_level {
            self.max_level = level;
            self.entry = Some(idx);
        }
        Ok(())
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
        check_dim(self.rows.dim(), query)?;
        let q = self.rows.metric().prepare(query);
        let Some(entry) = self.descend(&q, 0, &mut 0) else {
            return Ok(AdaptiveSearch { neighbors: Vec::new(), scored: 0, terminated_early: false });
        };
        let found = self.best_first(&q, entry, 0, Stop::Patience { k, patience });
        let (scored, terminated_early) = (found.scored, found.gave_up);
        Ok(AdaptiveSearch { neighbors: self.neighbors(found, k), scored, terminated_early })
    }
}

impl VectorIndex for HnswIndex {
    fn dim(&self) -> usize {
        self.rows.dim()
    }

    fn metric(&self) -> Metric {
        self.rows.metric()
    }

    fn len(&self) -> usize {
        self.live
    }

    fn insert(&mut self, id: u64, vector: Vec<f32>) -> Result<(), VecDbError> {
        self.insert_row(id, &vector)
    }

    fn remove(&mut self, id: u64) -> Result<(), VecDbError> {
        let idx = self.by_id.remove(&id).ok_or(VecDbError::NotFound(id))?;
        self.deleted[idx as usize] = true;
        self.live -= 1;
        Ok(())
    }

    fn search(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, VecDbError> {
        let mut span = llmdm_obs::span("vecdb.hnsw.search");
        check_dim(self.rows.dim(), query)?;
        let q = self.rows.metric().prepare(query);
        let mut descent = 0usize;
        let Some(entry) = self.descend(&q, 0, &mut descent) else {
            return Ok(Vec::new());
        };
        let ef = self.config.ef_search.max(k);
        let found = self.best_first(&q, entry, 0, Stop::Ef(ef));
        if span.is_recording() {
            // `candidates` is the beam the base layer kept, `visited` the
            // base-layer nodes it scored to get there, `distance_comps`
            // those plus the upper layers' greedy descent — the figures
            // that separate ANN from brute force.
            span.field("k", k);
            span.field("ef", ef);
            span.field("candidates", found.nodes.len());
            span.field("visited", found.scored);
            span.field("distance_comps", descent + found.scored);
            llmdm_obs::counter_add("vecdb.search.queries", 1.0);
            llmdm_obs::counter_add("vecdb.search.candidates", found.nodes.len() as f64);
            llmdm_obs::counter_add("vecdb.search.distance_comps", (descent + found.scored) as f64);
        }
        Ok(self.neighbors(found, k))
    }
}

#[cfg(test)]
mod tests;
