//! The common index interface.

use crate::error::VecDbError;
use crate::metric::Metric;

/// A scored search result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The stored vector's id.
    pub id: u64,
    /// Similarity score (higher is better, per the index's [`Metric`]).
    pub score: f32,
}

/// Common interface over the flat and HNSW indexes.
pub trait VectorIndex: Send + Sync {
    /// Dimensionality of stored vectors.
    fn dim(&self) -> usize;
    /// The ranking metric.
    fn metric(&self) -> Metric;
    /// Number of live (non-deleted) vectors.
    fn len(&self) -> usize;
    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Insert a vector under `id`.
    fn insert(&mut self, id: u64, vector: Vec<f32>) -> Result<(), VecDbError>;
    /// Remove the vector stored under `id`.
    fn remove(&mut self, id: u64) -> Result<(), VecDbError>;
    /// `k` nearest neighbors of `query`, best first.
    fn search(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, VecDbError>;
}

/// Validate that `v` has dimensionality `dim`.
pub(crate) fn check_dim(dim: usize, v: &[f32]) -> Result<(), VecDbError> {
    if v.len() != dim {
        Err(VecDbError::DimensionMismatch { expected: dim, got: v.len() })
    } else {
        Ok(())
    }
}

/// Push `(id, score)` into a bounded best-k buffer kept sorted descending.
///
/// Small-k insertion sort — the hot loop in every index — avoids heap
/// allocation churn for the typical k ≤ 100.
pub(crate) fn push_topk(buf: &mut Vec<Neighbor>, k: usize, n: Neighbor) {
    if k == 0 {
        return;
    }
    if buf.len() == k && n.score <= buf[k - 1].score {
        return;
    }
    let pos = buf.partition_point(|x| x.score >= n.score);
    buf.insert(pos, n);
    if buf.len() > k {
        buf.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_keeps_best() {
        let mut buf = Vec::new();
        for (id, score) in [(1, 0.1), (2, 0.9), (3, 0.5), (4, 0.7)] {
            push_topk(&mut buf, 2, Neighbor { id, score });
        }
        assert_eq!(buf.iter().map(|n| n.id).collect::<Vec<_>>(), vec![2, 4]);
    }

    #[test]
    fn topk_zero_k() {
        let mut buf = Vec::new();
        push_topk(&mut buf, 0, Neighbor { id: 1, score: 1.0 });
        assert!(buf.is_empty());
    }

    #[test]
    fn topk_sorted_descending() {
        let mut buf = Vec::new();
        for i in 0..50 {
            push_topk(&mut buf, 10, Neighbor { id: i, score: (i as f32 * 37.0) % 11.0 });
        }
        assert!(buf.windows(2).all(|w| w[0].score >= w[1].score));
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn check_dim_rejects() {
        assert!(check_dim(3, &[1.0, 2.0]).is_err());
        assert!(check_dim(2, &[1.0, 2.0]).is_ok());
    }
}
