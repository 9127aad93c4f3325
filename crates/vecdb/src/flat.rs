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
        for (pos, score) in self.rows.scores(&q).into_iter().enumerate() {
            push_topk(&mut best, k, Neighbor { id: self.ids[pos], score });
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
    fn k_larger_than_n() {
        let mut idx = FlatIndex::new(4, Metric::Cosine);
        idx.insert(1, basis(0)).unwrap();
        assert_eq!(idx.search(&basis(0), 10).unwrap().len(), 1);
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
