//! IVF (inverted-file) index: k-means coarse quantizer + per-cluster
//! inverted lists, probing the `nprobe` nearest lists at query time.
//!
//! The classic recall/latency dial for vector search: larger `nprobe`
//! approaches exhaustive accuracy at proportional cost. Benchmarked against
//! flat and HNSW in `llmdm-bench/benches/vecdb_search.rs`.

use std::collections::HashSet;

use crate::error::VecDbError;
use crate::index::{check_dim, push_topk, Neighbor, VectorIndex};
use crate::kmeans::KMeans;
use crate::metric::{Metric, Prepared, Rows};

/// IVF build/search parameters.
#[derive(Debug, Clone, Copy)]
pub struct IvfConfig {
    /// Number of inverted lists (k-means clusters).
    pub nlist: usize,
    /// Lists probed per query.
    pub nprobe: usize,
    /// Lloyd iterations when (re)training the quantizer.
    pub train_iters: usize,
    /// Retrain after this many inserts since the last training.
    pub retrain_threshold: usize,
    /// Seed for quantizer training.
    pub seed: u64,
}

impl Default for IvfConfig {
    fn default() -> Self {
        IvfConfig { nlist: 32, nprobe: 4, train_iters: 10, retrain_threshold: 1024, seed: 0 }
    }
}

/// One inverted list: row `i` of `rows` belongs to `ids[i]`.
#[derive(Debug, Clone)]
struct List {
    ids: Vec<u64>,
    rows: Rows,
}

impl List {
    fn push(&mut self, id: u64, vector: &[f32]) {
        self.ids.push(id);
        self.rows.push(vector);
    }

    /// Offer every entry to the best-`k` buffer, in list order.
    fn scan(&self, q: &Prepared<'_>, k: usize, best: &mut Vec<Neighbor>) {
        for (i, &id) in self.ids.iter().enumerate() {
            push_topk(best, k, Neighbor { id, score: self.rows.score(q, i) });
        }
    }
}

/// Inverted-file approximate index.
#[derive(Debug)]
pub struct IvfIndex {
    dim: usize,
    metric: Metric,
    config: IvfConfig,
    quantizer: Option<KMeans>,
    lists: Vec<List>,
    ids: HashSet<u64>,
    len: usize,
    inserts_since_train: usize,
}

impl IvfIndex {
    /// Create an empty IVF index.
    pub fn new(dim: usize, metric: Metric, config: IvfConfig) -> Result<Self, VecDbError> {
        if config.nlist == 0 || config.nprobe == 0 {
            return Err(VecDbError::InvalidConfig("nlist and nprobe must be positive".into()));
        }
        Ok(IvfIndex {
            dim,
            metric,
            config,
            quantizer: None,
            lists: Vec::new(),
            ids: HashSet::new(),
            len: 0,
            inserts_since_train: 0,
        })
    }

    /// Current `nprobe`.
    pub fn nprobe(&self) -> usize {
        self.config.nprobe
    }

    /// Adjust `nprobe` (the recall/latency dial).
    pub fn set_nprobe(&mut self, nprobe: usize) {
        self.config.nprobe = nprobe.max(1);
    }

    fn empty_list(&self) -> List {
        List { ids: Vec::new(), rows: Rows::new(self.dim, self.metric) }
    }

    /// The lists a query scans, nearest centroid first (every list before
    /// the quantizer is trained).
    fn probed(&self, query: &[f32]) -> Vec<usize> {
        match &self.quantizer {
            Some(km) => km.nearest_n(query, self.config.nprobe),
            None => (0..self.lists.len()).collect(),
        }
    }

    /// Retrain the quantizer on the currently stored vectors and
    /// redistribute the lists.
    pub fn retrain(&mut self) {
        let old = std::mem::take(&mut self.lists);
        self.inserts_since_train = 0;
        if self.len == 0 {
            self.quantizer = None;
            return;
        }
        let mut flat = Vec::with_capacity(self.len * self.dim);
        for list in &old {
            for i in 0..list.ids.len() {
                flat.extend_from_slice(list.rows.row(i));
            }
        }
        let km = KMeans::train(
            &flat,
            self.dim,
            self.config.nlist,
            self.config.train_iters,
            self.config.seed,
        );
        self.lists = vec![self.empty_list(); km.k];
        for list in &old {
            for (i, &id) in list.ids.iter().enumerate() {
                let v = list.rows.row(i);
                self.lists[km.nearest(v).0].push(id, v);
            }
        }
        self.quantizer = Some(km);
    }
}

impl VectorIndex for IvfIndex {
    fn dim(&self) -> usize {
        self.dim
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn len(&self) -> usize {
        self.len
    }

    fn insert(&mut self, id: u64, vector: Vec<f32>) -> Result<(), VecDbError> {
        check_dim(self.dim, &vector)?;
        if !self.ids.insert(id) {
            return Err(VecDbError::DuplicateId(id));
        }
        let c = match &self.quantizer {
            Some(km) => km.nearest(&vector).0,
            None => 0,
        };
        if self.lists.is_empty() {
            self.lists.push(self.empty_list());
        }
        self.lists[c].push(id, &vector);
        self.len += 1;
        self.inserts_since_train += 1;
        if self.inserts_since_train >= self.config.retrain_threshold
            || (self.quantizer.is_none() && self.len >= self.config.nlist * 4)
        {
            self.retrain();
        }
        Ok(())
    }

    fn remove(&mut self, id: u64) -> Result<(), VecDbError> {
        if !self.ids.remove(&id) {
            return Err(VecDbError::NotFound(id));
        }
        for list in &mut self.lists {
            if let Some(pos) = list.ids.iter().position(|&i| i == id) {
                list.ids.swap_remove(pos);
                list.rows.swap_remove(pos);
                self.len -= 1;
                return Ok(());
            }
        }
        Err(VecDbError::NotFound(id))
    }

    fn search(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, VecDbError> {
        let mut span = llmdm_obs::span("vecdb.ivf.search");
        check_dim(self.dim, query)?;
        let q = self.metric.prepare(query);
        let mut best = Vec::with_capacity(k);
        let mut scanned = 0usize;
        for c in self.probed(query) {
            scanned += self.lists[c].ids.len();
            self.lists[c].scan(&q, k, &mut best);
        }
        if span.is_recording() {
            span.field("k", k);
            span.field("nprobe", self.config.nprobe);
            span.field("candidates", scanned);
            span.field("distance_comps", scanned);
            llmdm_obs::counter_add("vecdb.search.queries", 1.0);
            llmdm_obs::counter_add("vecdb.search.candidates", scanned as f64);
            llmdm_obs::counter_add("vecdb.search.distance_comps", scanned as f64);
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmdm_rt::rand::rngs::SmallRng;
    use llmdm_rt::rand::{Rng, SeedableRng};

    fn random_vecs(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0f32)).collect()).collect()
    }

    fn build(n: usize) -> (IvfIndex, Vec<Vec<f32>>) {
        let vecs = random_vecs(n, 8, 3);
        let mut idx = IvfIndex::new(
            8,
            Metric::Cosine,
            IvfConfig { nlist: 8, nprobe: 2, train_iters: 8, retrain_threshold: 64, seed: 1 },
        )
        .unwrap();
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(i as u64, v.clone()).unwrap();
        }
        (idx, vecs)
    }

    #[test]
    fn finds_exact_match_with_full_probe() {
        let (mut idx, vecs) = build(200);
        idx.set_nprobe(8); // probe everything → exact
        for probe in [0usize, 57, 199] {
            let hits = idx.search(&vecs[probe], 1).unwrap();
            assert_eq!(hits[0].id, probe as u64);
        }
    }

    #[test]
    fn recall_improves_with_nprobe() {
        let (mut idx, _vecs) = build(400);
        let queries = random_vecs(30, 8, 99);
        let exact: Vec<u64> = {
            idx.set_nprobe(idx.lists.len().max(8));
            queries.iter().map(|q| idx.search(q, 1).unwrap()[0].id).collect()
        };
        let recall_at = |idx: &mut IvfIndex, np: usize| {
            idx.set_nprobe(np);
            let mut hit = 0;
            for (q, gold) in queries.iter().zip(&exact) {
                if idx.search(q, 1).unwrap().first().map(|n| n.id) == Some(*gold) {
                    hit += 1;
                }
            }
            hit as f64 / queries.len() as f64
        };
        let r1 = recall_at(&mut idx, 1);
        let r8 = recall_at(&mut idx, 8);
        assert!(r8 >= r1, "r1={r1} r8={r8}");
        assert!(r8 > 0.95, "r8={r8}");
    }

    #[test]
    fn duplicate_rejected() {
        let (mut idx, vecs) = build(50);
        assert!(matches!(idx.insert(0, vecs[0].clone()), Err(VecDbError::DuplicateId(0))));
    }

    #[test]
    fn remove_works_across_lists() {
        let (mut idx, vecs) = build(100);
        idx.set_nprobe(16);
        idx.remove(5).unwrap();
        assert_eq!(idx.len(), 99);
        let hits = idx.search(&vecs[5], 1).unwrap();
        assert_ne!(hits[0].id, 5);
        assert!(idx.remove(5).is_err());
    }

    #[test]
    fn works_before_training() {
        let mut idx = IvfIndex::new(4, Metric::L2, IvfConfig::default()).unwrap();
        idx.insert(1, vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        idx.insert(2, vec![0.0, 1.0, 0.0, 0.0]).unwrap();
        let hits = idx.search(&[1.0, 0.0, 0.0, 0.0], 1).unwrap();
        assert_eq!(hits[0].id, 1);
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(IvfIndex::new(4, Metric::L2, IvfConfig { nlist: 0, ..Default::default() }).is_err());
    }

    #[test]
    fn retrain_preserves_contents() {
        let (mut idx, vecs) = build(150);
        idx.retrain();
        assert_eq!(idx.len(), 150);
        idx.set_nprobe(8);
        let hits = idx.search(&vecs[7], 1).unwrap();
        assert_eq!(hits[0].id, 7);
    }
}
