//! Heap ordering wrappers and deterministic level hashing for HNSW.

use std::cmp::Ordering;

/// Max-heap entry: larger score pops first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MaxScore {
    pub score: f32,
    pub node: u32,
}

impl Eq for MaxScore {}

impl PartialOrd for MaxScore {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MaxScore {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score.total_cmp(&other.score).then_with(|| self.node.cmp(&other.node))
    }
}

/// Min-heap entry: *smaller* score pops first (for evicting the worst
/// result). Implemented by reversing the comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MinScore {
    pub score: f32,
    pub node: u32,
}

impl Eq for MinScore {}

impl PartialOrd for MinScore {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MinScore {
    fn cmp(&self, other: &Self) -> Ordering {
        other.score.total_cmp(&self.score).then_with(|| other.node.cmp(&self.node))
    }
}

// Deterministic hashing for level assignment.

#[inline]
pub(crate) fn level_hash(seed: u64, counter: u64) -> u64 {
    llmdm_rt::hash::splitmix(seed ^ counter.wrapping_mul(0x2545_f491_4f6c_dd1d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn max_heap_pops_largest() {
        let mut h = BinaryHeap::new();
        h.push(MaxScore { score: 0.1, node: 1 });
        h.push(MaxScore { score: 0.9, node: 2 });
        h.push(MaxScore { score: 0.5, node: 3 });
        assert_eq!(h.pop().unwrap().node, 2);
    }

    #[test]
    fn min_heap_pops_smallest() {
        let mut h = BinaryHeap::new();
        h.push(MinScore { score: 0.1, node: 1 });
        h.push(MinScore { score: 0.9, node: 2 });
        h.push(MinScore { score: 0.5, node: 3 });
        assert_eq!(h.pop().unwrap().node, 1);
    }

    #[test]
    fn unit_in_range() {
        for i in 0..1000 {
            let u = llmdm_rt::hash::unit_f64(level_hash(3, i));
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn nan_safe_ordering() {
        // total_cmp makes NaN orderable; heap must not panic.
        let mut h = BinaryHeap::new();
        h.push(MaxScore { score: f32::NAN, node: 1 });
        h.push(MaxScore { score: 0.5, node: 2 });
        let _ = h.pop();
        let _ = h.pop();
    }
}
