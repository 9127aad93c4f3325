//! Exhaustive (brute-force) index: exact results, O(n·d) per query.
//!
//! The recall baseline for the ANN indexes, and the whole index of callers
//! whose collections stay small (the semantic cache). A
//! [`Collection`](crate::Collection) does not keep one: it scans its HNSW
//! arena instead.

use std::collections::HashMap;

use crate::error::VecDbError;
use crate::index::{check_dim, push_topk, Neighbor, VectorIndex};
use crate::metric::{Metric, Rows};

/// Exact nearest-neighbor index over a dense array.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    ids: Vec<u64>,
    rows: Rows, // row `pos` belongs to `ids[pos]`
    pos: HashMap<u64, usize>,
}

impl FlatIndex {
    /// Create an empty flat index.
    pub fn new(dim: usize, metric: Metric) -> Self {
        FlatIndex { ids: Vec::new(), rows: Rows::new(dim, metric), pos: HashMap::new() }
    }

    /// The stored vector for `id`, if present.
    pub fn get(&self, id: u64) -> Option<&[f32]> {
        Some(self.rows.row(*self.pos.get(&id)?))
    }

    /// Iterate `(id, vector)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[f32])> {
        self.ids.iter().enumerate().map(move |(pos, &id)| (id, self.rows.row(pos)))
    }

    /// Exact k-NN with the scan fanned out across `threads` OS threads
    /// (the serving layer's parallel path).
    ///
    /// **Bit-identical to [`VectorIndex::search`]**: rows are chunked in
    /// scan order, each chunk keeps a local top-k, and the partials are
    /// merged in chunk order — [`push_topk`]'s tie-break (equal scores
    /// keep the earlier insert first) then reproduces the sequential
    /// result exactly, ties included. Asserted by
    /// `par_search_matches_sequential` below.
    pub fn par_search(
        &self,
        query: &[f32],
        k: usize,
        threads: usize,
    ) -> Result<Vec<Neighbor>, VecDbError> {
        let n = self.ids.len();
        let t = threads.max(1).min(n.max(1));
        if t <= 1 {
            return self.search(query, k);
        }
        let mut span = llmdm_obs::span("vecdb.flat.par_search");
        check_dim(self.rows.dim(), query)?;
        let q = self.rows.metric().prepare(query);
        let q = &q;
        let chunk = n.div_ceil(t);
        let mut partials: Vec<Vec<Neighbor>> = Vec::with_capacity(t);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..t)
                .map(|ti| {
                    let lo = (ti * chunk).min(n);
                    let hi = ((ti + 1) * chunk).min(n);
                    s.spawn(move || {
                        let mut best = Vec::with_capacity(k.min(hi - lo));
                        for pos in lo..hi {
                            let score = self.rows.score(q, pos);
                            push_topk(&mut best, k, Neighbor { id: self.ids[pos], score });
                        }
                        best
                    })
                })
                .collect();
            for h in handles {
                partials.push(h.join().expect("search worker panicked"));
            }
        });
        let mut best = Vec::with_capacity(k);
        for partial in partials {
            for nb in partial {
                push_topk(&mut best, k, nb);
            }
        }
        if span.is_recording() {
            span.field("k", k);
            span.field("threads", t);
            span.field("candidates", n);
            span.field("distance_comps", n);
            llmdm_obs::counter_add("vecdb.search.queries", 1.0);
            llmdm_obs::counter_add("vecdb.search.candidates", n as f64);
            llmdm_obs::counter_add("vecdb.search.distance_comps", n as f64);
        }
        Ok(best)
    }

    /// Exact k-NN among an explicit candidate id set (pre-filtered search).
    pub fn search_among(
        &self,
        query: &[f32],
        k: usize,
        candidates: &[u64],
    ) -> Result<Vec<Neighbor>, VecDbError> {
        let mut span = llmdm_obs::span("vecdb.flat.search_among");
        check_dim(self.rows.dim(), query)?;
        let q = self.rows.metric().prepare(query);
        let mut best = Vec::with_capacity(k.min(candidates.len()));
        let mut comps = 0usize;
        for &id in candidates {
            if let Some(&pos) = self.pos.get(&id) {
                comps += 1;
                push_topk(&mut best, k, Neighbor { id, score: self.rows.score(&q, pos) });
            }
        }
        if span.is_recording() {
            span.field("k", k);
            span.field("candidates", candidates.len());
            span.field("distance_comps", comps);
            llmdm_obs::counter_add("vecdb.search.queries", 1.0);
            llmdm_obs::counter_add("vecdb.search.candidates", candidates.len() as f64);
            llmdm_obs::counter_add("vecdb.search.distance_comps", comps as f64);
        }
        Ok(best)
    }
}

impl VectorIndex for FlatIndex {
    fn dim(&self) -> usize {
        self.rows.dim()
    }

    fn metric(&self) -> Metric {
        self.rows.metric()
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn insert(&mut self, id: u64, vector: Vec<f32>) -> Result<(), VecDbError> {
        check_dim(self.rows.dim(), &vector)?;
        if self.pos.contains_key(&id) {
            return Err(VecDbError::DuplicateId(id));
        }
        self.pos.insert(id, self.ids.len());
        self.ids.push(id);
        self.rows.push(&vector);
        Ok(())
    }

    fn remove(&mut self, id: u64) -> Result<(), VecDbError> {
        let pos = self.pos.remove(&id).ok_or(VecDbError::NotFound(id))?;
        // Swap-remove the row to keep the array dense.
        self.ids.swap_remove(pos);
        self.rows.swap_remove(pos);
        if let Some(&moved) = self.ids.get(pos) {
            self.pos.insert(moved, pos);
        }
        Ok(())
    }

    fn search(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, VecDbError> {
        let mut span = llmdm_obs::span("vecdb.flat.search");
        check_dim(self.rows.dim(), query)?;
        let q = self.rows.metric().prepare(query);
        let mut best = Vec::with_capacity(k.min(self.ids.len()));
        for (pos, &id) in self.ids.iter().enumerate() {
            push_topk(&mut best, k, Neighbor { id, score: self.rows.score(&q, pos) });
        }
        if span.is_recording() {
            // Brute force scans everything: candidates == distance comps.
            span.field("k", k);
            span.field("candidates", self.ids.len());
            span.field("distance_comps", self.ids.len());
            llmdm_obs::counter_add("vecdb.search.queries", 1.0);
            llmdm_obs::counter_add("vecdb.search.candidates", self.ids.len() as f64);
            llmdm_obs::counter_add("vecdb.search.distance_comps", self.ids.len() as f64);
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basis(i: usize) -> Vec<f32> {
        let mut v = vec![0.0; 4];
        v[i] = 1.0;
        v
    }

    #[test]
    fn insert_search_exact() {
        let mut idx = FlatIndex::new(4, Metric::Cosine);
        for i in 0..4 {
            idx.insert(i as u64, basis(i)).unwrap();
        }
        let hits = idx.search(&basis(2), 2).unwrap();
        assert_eq!(hits[0].id, 2);
        assert!((hits[0].score - 1.0).abs() < 1e-6);
    }

    #[test]
    fn duplicate_id_rejected() {
        let mut idx = FlatIndex::new(4, Metric::Cosine);
        idx.insert(1, basis(0)).unwrap();
        assert_eq!(idx.insert(1, basis(1)), Err(VecDbError::DuplicateId(1)));
    }

    #[test]
    fn remove_swaps_correctly() {
        let mut idx = FlatIndex::new(4, Metric::Cosine);
        for i in 0..4 {
            idx.insert(i as u64, basis(i)).unwrap();
        }
        idx.remove(1).unwrap();
        assert_eq!(idx.len(), 3);
        assert!(idx.get(1).is_none());
        // Remaining vectors still retrievable and correct.
        assert_eq!(idx.get(3).unwrap(), basis(3).as_slice());
        let hits = idx.search(&basis(3), 1).unwrap();
        assert_eq!(hits[0].id, 3);
    }

    #[test]
    fn remove_missing_errors() {
        let mut idx = FlatIndex::new(4, Metric::Cosine);
        assert_eq!(idx.remove(9), Err(VecDbError::NotFound(9)));
    }

    #[test]
    fn dimension_checked() {
        let mut idx = FlatIndex::new(4, Metric::Cosine);
        assert!(idx.insert(1, vec![1.0]).is_err());
        assert!(idx.search(&[1.0], 1).is_err());
    }

    #[test]
    fn search_among_restricts() {
        let mut idx = FlatIndex::new(4, Metric::Cosine);
        for i in 0..4 {
            idx.insert(i as u64, basis(i)).unwrap();
        }
        let hits = idx.search_among(&basis(0), 2, &[2, 3]).unwrap();
        assert!(hits.iter().all(|h| h.id == 2 || h.id == 3));
    }

    #[test]
    fn k_larger_than_n() {
        let mut idx = FlatIndex::new(4, Metric::Cosine);
        idx.insert(1, basis(0)).unwrap();
        assert_eq!(idx.search(&basis(0), 10).unwrap().len(), 1);
    }

    #[test]
    fn par_search_matches_sequential() {
        use llmdm_rt::rand::rngs::SmallRng;
        use llmdm_rt::rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(17);
        let mut idx = FlatIndex::new(8, Metric::Cosine);
        for i in 0..500u64 {
            let v: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
            idx.insert(i, v).unwrap();
        }
        // Deliberate score ties: duplicate a stored vector under new ids.
        let dup = idx.get(3).unwrap().to_vec();
        idx.insert(1000, dup.clone()).unwrap();
        idx.insert(1001, dup.clone()).unwrap();
        for _ in 0..20 {
            let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
            let seq = idx.search(&q, 10).unwrap();
            for threads in [1, 2, 3, 8, 64] {
                assert_eq!(idx.par_search(&q, 10, threads).unwrap(), seq, "threads={threads}");
            }
        }
        // Ties at the cutoff resolve identically too.
        let seq = idx.search(&dup, 2).unwrap();
        assert_eq!(idx.par_search(&dup, 2, 4).unwrap(), seq);
    }

    #[test]
    fn remove_last_element() {
        let mut idx = FlatIndex::new(4, Metric::L2);
        idx.insert(1, basis(0)).unwrap();
        idx.remove(1).unwrap();
        assert!(idx.is_empty());
        assert!(idx.search(&basis(0), 1).unwrap().is_empty());
    }
}
