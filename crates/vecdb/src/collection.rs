//! The collection API: vectors + attribute metadata + hybrid search.
//!
//! A [`Collection`] keeps each vector once, in its [`HnswIndex`]'s arena:
//! ANN search walks the graph over it, while exact search and pre-filtered
//! search score rows straight out of it. Beside the index sit two columns
//! addressed by the same row numbers — each row's metadata, and the
//! `AttrIndex` that answers "which rows have `key = value`" without
//! reading any of it.

use std::borrow::Cow;

use crate::attr_index::{AttrIndex, Resolved};
use crate::error::VecDbError;
use crate::filter::{Filter, HybridStrategy, KPredictor, Metadata, Predicate};
use crate::hnsw::{HnswConfig, HnswIndex};
use crate::index::VectorIndex;
use crate::metric::Metric;

/// A stored document: id, vector, and attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// Caller-assigned id.
    pub id: u64,
    /// The embedding vector.
    pub vector: Vec<f32>,
    /// Attribute metadata.
    pub metadata: Metadata,
}

/// A search result: the matching document's id and its similarity score
/// (higher is better). Its attributes are one [`Collection::metadata`] call
/// away for the callers that want them.
pub type SearchHit = crate::index::Neighbor;

/// Statistics from one hybrid search, for strategy evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HybridStats {
    /// Vectors scored during the search.
    pub vectors_scored: usize,
    /// Metadata entries inspected.
    pub metadata_checked: usize,
    /// ANN over-fetch rounds (post-filter only).
    pub rounds: usize,
    /// Whether pre-filtering was chosen.
    pub used_prefilter: bool,
}

/// What the strategy rule knows about a filter before any vector is scored.
struct Estimate<'a> {
    /// Fraction of the collection expected to match.
    selectivity: f64,
    /// Metadata entries read to get it (0 when the index answered).
    checked: usize,
    /// The attribute index's answer, when the filter has an `Eq`/`In`.
    resolved: Option<Resolved<'a>>,
}

/// An in-memory vector collection with metadata and hybrid search.
///
/// **Tie rule.** Wherever two documents score the same bits against a
/// query, the one inserted earlier ranks first: exact and pre-filtered
/// search score rows in ascending row order (posting lists are ascending by
/// construction, and so is the metadata scan behind an unindexable filter)
/// into a buffer that keeps the earlier arrival ahead on a tie, and the
/// graph search breaks ties on row number. No result depends on a hash
/// map's iteration order, so the same inserts, removes and queries give the
/// same hits in every process.
#[derive(Debug)]
pub struct Collection {
    ann: HnswIndex,
    /// By the index's row number; `None` once the document is removed,
    /// until the compaction that drops its row.
    row_meta: Vec<Option<Metadata>>,
    attrs: AttrIndex,
    predictor: KPredictor,
}

impl Collection {
    /// Create a collection for `dim`-dimensional vectors.
    pub fn new(dim: usize, metric: Metric) -> Self {
        Collection {
            ann: HnswIndex::new(dim, metric, HnswConfig::default())
                .expect("default HNSW config is valid"),
            row_meta: Vec::new(),
            attrs: AttrIndex::default(),
            predictor: KPredictor::new(),
        }
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.ann.dim()
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.ann.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a document.
    pub fn insert<K, I>(&mut self, id: u64, vector: Vec<f32>, metadata: I) -> Result<(), VecDbError>
    where
        K: Into<String>,
        I: IntoIterator<Item = (K, crate::filter::AttrValue)>,
    {
        self.ann.insert(id, vector)?;
        // The index appended the vector as its next row; so do the columns.
        let row = self.row_meta.len() as u32;
        debug_assert_eq!(self.ann.row_of(id), Some(row));
        let metadata: Metadata = metadata.into_iter().map(|(k, v)| (k.into(), v)).collect();
        self.attrs.insert(row, &metadata);
        self.row_meta.push(Some(metadata));
        Ok(())
    }

    /// Remove a document.
    pub fn remove(&mut self, id: u64) -> Result<(), VecDbError> {
        let row = self.ann.row_of(id).ok_or(VecDbError::NotFound(id))?;
        self.ann.remove(id)?;
        if let Some(metadata) = self.row_meta[row as usize].take() {
            self.attrs.remove(row, &metadata);
        }
        // Rebuild the graph when tombstones dominate. Compaction renumbers
        // the surviving rows in order, and so do the two columns.
        if self.ann.tombstone_ratio() > 0.5 {
            self.ann.compact();
            self.row_meta.retain(Option::is_some);
            self.attrs = AttrIndex::default();
            for (row, metadata) in self.row_meta.iter().flatten().enumerate() {
                self.attrs.insert(row as u32, metadata);
            }
        }
        Ok(())
    }

    /// Fetch a document.
    pub fn get(&self, id: u64) -> Option<Document> {
        let vector = self.ann.get(id)?.to_vec();
        let metadata = self.metadata(id).cloned().unwrap_or_default();
        Some(Document { id, vector, metadata })
    }

    /// The attributes stored with `id`.
    pub fn metadata(&self, id: u64) -> Option<&Metadata> {
        self.row_meta[self.ann.row_of(id)? as usize].as_ref()
    }

    /// Unfiltered ANN search.
    pub fn search(&self, query: &[f32], k: usize) -> Result<Vec<SearchHit>, VecDbError> {
        self.ann.search(query, k)
    }

    /// Unfiltered exact search (a scan of the whole arena).
    pub fn search_exact(&self, query: &[f32], k: usize) -> Result<Vec<SearchHit>, VecDbError> {
        self.ann.search_rows(query, k, 0..self.ann.rows() as u32)
    }

    /// Hybrid search with the default adaptive strategy.
    pub fn search_filtered(
        &self,
        query: &[f32],
        k: usize,
        filter: &Filter,
    ) -> Result<Vec<SearchHit>, VecDbError> {
        self.search_filtered_with(query, k, filter, HybridStrategy::default()).map(|(h, _)| h)
    }

    /// Hybrid search with an explicit strategy; returns execution stats.
    pub fn search_filtered_with(
        &self,
        query: &[f32],
        k: usize,
        filter: &Filter,
        strategy: HybridStrategy,
    ) -> Result<(Vec<SearchHit>, HybridStats), VecDbError> {
        if filter.is_trivial() {
            let hits = self.search(query, k)?;
            return Ok((hits, HybridStats::default()));
        }
        let mut span = llmdm_obs::span("vecdb.hybrid.search");
        // Beside the hits and their stats: the selectivity the strategy was
        // chosen by (an explicit strategy takes none) and whether the
        // attribute index, rather than a metadata scan, answered the filter.
        let (hits, stats, selectivity, indexed) = match strategy {
            HybridStrategy::PreFilter => {
                let resolved = self.attrs.resolve(filter);
                let indexed = resolved.is_some();
                let (hits, stats) = self.prefilter_search(query, k, filter, resolved)?;
                (hits, stats, None, indexed)
            }
            HybridStrategy::PostFilter { expansion } => {
                let (hits, stats, _) = self.postfilter_search(query, k, filter, expansion)?;
                (hits, stats, None, false)
            }
            HybridStrategy::Adaptive { selectivity_threshold, sample } => {
                let est = self.estimate(filter, sample);
                let indexed = est.resolved.is_some();
                let (hits, mut stats) = if est.selectivity < selectivity_threshold {
                    self.prefilter_search(query, k, filter, est.resolved)?
                } else {
                    let expansion = self.predictor.predict(est.selectivity);
                    let (hits, stats, _) = self.postfilter_search(query, k, filter, expansion)?;
                    (hits, stats)
                };
                stats.metadata_checked += est.checked;
                (hits, stats, Some(est.selectivity), indexed)
            }
        };
        if span.is_recording() {
            span.field("strategy", if stats.used_prefilter { "prefilter" } else { "postfilter" });
            if let Some(selectivity) = selectivity {
                span.field("selectivity", selectivity);
            }
            // Rows scored exactly (pre-filter) or over-fetched (post-filter).
            span.field("candidates", stats.vectors_scored);
            span.field("indexed", indexed);
            span.field("rounds", stats.rounds);
        }
        Ok((hits, stats))
    }

    /// Hybrid search that also *trains* the k-predictor from what this
    /// query actually needed.
    pub fn search_filtered_learning(
        &mut self,
        query: &[f32],
        k: usize,
        filter: &Filter,
    ) -> Result<Vec<SearchHit>, VecDbError> {
        let sel = self.estimate(filter, 256).selectivity;
        let expansion = self.predictor.predict(sel);
        let (hits, stats, depth) = self.postfilter_search(query, k, filter, expansion)?;
        // The expansion that would have sufficed: the depth of the k-th
        // survivor over k, not the factor used — observing what was used
        // would feed the predictor's margin back into its own mean. Only a
        // search that ran out of rows falls back to its final factor.
        let needed = match depth {
            Some(depth) => depth as f64 / k as f64,
            None => expansion as f64 * 2f64.powi(stats.rounds.saturating_sub(1) as i32),
        };
        self.predictor.observe(sel, needed);
        Ok(hits)
    }

    /// Exact fraction of documents matching `filter`.
    pub fn selectivity(&self, filter: &Filter) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let (rows, _) = self.survivors(filter, self.attrs.resolve(filter));
        rows.len() as f64 / self.len() as f64
    }

    /// The learned k-predictor.
    pub fn predictor(&self) -> &KPredictor {
        &self.predictor
    }

    /// Whether the live document at `row` satisfies every predicate.
    fn row_matches(&self, row: u32, predicates: &[&Predicate]) -> bool {
        self.row_meta[row as usize].as_ref().is_some_and(|m| predicates.iter().all(|p| p.matches(m)))
    }

    /// The filter's selectivity as the strategy rule sees it. With an
    /// indexable predicate it is the index's candidate count over the
    /// collection size — exact when nothing is residual, an upper bound
    /// otherwise. Without one it is the match rate of a `sample`-row stride
    /// over the metadata column, in row order.
    fn estimate<'a>(&'a self, filter: &'a Filter, sample: usize) -> Estimate<'a> {
        if self.is_empty() {
            return Estimate { selectivity: 0.0, checked: 0, resolved: None };
        }
        if let Some(resolved) = self.attrs.resolve(filter) {
            let selectivity = resolved.rows.len() as f64 / self.len() as f64;
            return Estimate { selectivity, checked: 0, resolved: Some(resolved) };
        }
        let step = (self.row_meta.len() / sample.max(1)).max(1);
        let sampled = self.row_meta.iter().step_by(step).flatten();
        let (mut checked, mut matched) = (0usize, 0usize);
        for m in sampled {
            checked += 1;
            matched += usize::from(filter.matches(m));
        }
        let selectivity = if checked == 0 { 0.0 } else { matched as f64 / checked as f64 };
        Estimate { selectivity, checked, resolved: None }
    }

    /// The rows matching `filter`, ascending, and how many metadata entries
    /// were read to find them: none when the index resolved every
    /// predicate, its candidates when some are residual, and the whole
    /// column — every row a candidate, every predicate residual — when it
    /// resolved nothing.
    fn survivors<'a>(
        &self,
        filter: &'a Filter,
        resolved: Option<Resolved<'a>>,
    ) -> (Cow<'a, [u32]>, usize) {
        let Resolved { rows, residual } = resolved.unwrap_or_else(|| Resolved {
            rows: (0..self.row_meta.len() as u32).collect(),
            residual: filter.predicates().iter().collect(),
        });
        if residual.is_empty() {
            return (rows, 0);
        }
        let matching = rows.iter().copied().filter(|&row| self.row_matches(row, &residual));
        (matching.collect(), rows.len())
    }

    fn prefilter_search(
        &self,
        query: &[f32],
        k: usize,
        filter: &Filter,
        resolved: Option<Resolved<'_>>,
    ) -> Result<(Vec<SearchHit>, HybridStats), VecDbError> {
        let (rows, metadata_checked) = self.survivors(filter, resolved);
        let stats = HybridStats {
            vectors_scored: rows.len(),
            metadata_checked,
            rounds: 0,
            used_prefilter: true,
        };
        Ok((self.ann.search_rows(query, k, rows.iter().copied())?, stats))
    }

    /// Over-fetch `k × expansion` ANN candidates, doubling until `k`
    /// survive the filter. Beside the hits and stats: how many of the last
    /// round's candidates, best first, it took to reach the `k`-th
    /// survivor (`None` when fewer than `k` survive at all).
    fn postfilter_search(
        &self,
        query: &[f32],
        k: usize,
        filter: &Filter,
        expansion: usize,
    ) -> Result<(Vec<SearchHit>, HybridStats, Option<usize>), VecDbError> {
        let mut stats = HybridStats::default();
        let mut fetch = (k * expansion.max(1)).max(k);
        loop {
            stats.rounds += 1;
            let fetched = self.ann.search(query, fetch)?;
            stats.vectors_scored += fetched.len();
            let mut hits = Vec::with_capacity(k);
            for (rank, n) in fetched.iter().enumerate() {
                if self.metadata(n.id).is_some_and(|m| filter.matches(m)) {
                    hits.push(*n);
                    if hits.len() == k {
                        stats.metadata_checked += rank + 1;
                        return Ok((hits, stats, Some(rank + 1)));
                    }
                }
            }
            stats.metadata_checked += fetched.len();
            // Short of k (or k is 0), and everything already fetched.
            if k == 0 || fetch >= self.len() {
                return Ok((hits, stats, None));
            }
            fetch = (fetch * 2).min(self.len().max(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{AttrValue, Predicate};
    use llmdm_rt::rand::rngs::SmallRng;
    use llmdm_rt::rand::{Rng, SeedableRng};

    /// 200 random unit-ish vectors; even ids are "doc", odd are "table";
    /// ids < 20 additionally get rare=true.
    fn sample_collection() -> Collection {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut coll = Collection::new(8, Metric::Cosine);
        for id in 0..200u64 {
            let v: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let kind = if id % 2 == 0 { "doc" } else { "table" };
            let mut md: Vec<(String, AttrValue)> =
                vec![("kind".to_string(), kind.into()), ("id".to_string(), AttrValue::Int(id as i64))];
            if id < 20 {
                md.push(("rare".to_string(), AttrValue::Bool(true)));
            }
            coll.insert(id, v, md).unwrap();
        }
        coll
    }

    #[test]
    fn insert_get_remove() {
        let mut coll = sample_collection();
        let doc = coll.get(5).unwrap();
        assert_eq!(doc.metadata.get("kind"), Some(&AttrValue::Str("table".into())));
        coll.remove(5).unwrap();
        assert!(coll.get(5).is_none());
        assert_eq!(coll.len(), 199);
    }

    #[test]
    fn unfiltered_search_finds_self() {
        let coll = sample_collection();
        let doc = coll.get(7).unwrap();
        let hits = coll.search(&doc.vector, 1).unwrap();
        assert_eq!(hits[0].id, 7);
    }

    #[test]
    fn filtered_results_all_satisfy_filter() {
        let coll = sample_collection();
        let q = coll.get(0).unwrap().vector;
        let f = Filter::eq("kind", "table");
        for strategy in [
            HybridStrategy::PreFilter,
            HybridStrategy::PostFilter { expansion: 2 },
            HybridStrategy::default(),
        ] {
            let (hits, _) = coll.search_filtered_with(&q, 10, &f, strategy).unwrap();
            assert_eq!(hits.len(), 10);
            assert!(hits.iter().all(|h| coll.metadata(h.id).unwrap().get("kind")
                == Some(&AttrValue::Str("table".into()))));
        }
    }

    #[test]
    fn pre_and_post_agree_on_top_result() {
        let coll = sample_collection();
        let q = coll.get(33).unwrap().vector; // id 33 is a "table"
        let f = Filter::eq("kind", "table");
        let (pre, _) = coll.search_filtered_with(&q, 1, &f, HybridStrategy::PreFilter).unwrap();
        let (post, _) = coll
            .search_filtered_with(&q, 1, &f, HybridStrategy::PostFilter { expansion: 4 })
            .unwrap();
        assert_eq!(pre[0].id, 33);
        assert_eq!(post[0].id, 33);
    }

    #[test]
    fn adaptive_uses_prefilter_for_selective_filters() {
        let coll = sample_collection();
        let q = coll.get(0).unwrap().vector;
        let rare = Filter::all().and(Predicate::Exists("rare".into()));
        let (_, stats) = coll
            .search_filtered_with(&q, 5, &rare, HybridStrategy::default())
            .unwrap();
        assert!(stats.used_prefilter, "rare filter (10% sel) should prefilter");
        let common = Filter::eq("kind", "doc");
        let (_, stats) = coll
            .search_filtered_with(&q, 5, &common, HybridStrategy::default())
            .unwrap();
        assert!(!stats.used_prefilter, "50% selectivity should postfilter");
    }

    #[test]
    fn postfilter_pathology_recovers_by_expansion() {
        // All k nearest fail the filter at expansion 1 → rounds > 1 but the
        // search still delivers (the paper's "null value returned" problem).
        let coll = sample_collection();
        let q = coll.get(1).unwrap().vector;
        let rare = Filter::all().and(Predicate::Exists("rare".into()));
        let (hits, stats) = coll
            .search_filtered_with(&q, 8, &rare, HybridStrategy::PostFilter { expansion: 1 })
            .unwrap();
        assert_eq!(hits.len(), 8);
        assert!(stats.rounds >= 2, "expected multiple over-fetch rounds, got {}", stats.rounds);
    }

    #[test]
    fn learning_predictor_observes() {
        let mut coll = sample_collection();
        let q = coll.get(1).unwrap().vector.clone();
        let f = Filter::eq("kind", "doc");
        assert_eq!(coll.predictor().observations(), 0);
        coll.search_filtered_learning(&q, 5, &f).unwrap();
        assert_eq!(coll.predictor().observations(), 1);
    }

    #[test]
    fn repeating_a_learning_search_does_not_ratchet_the_prediction() {
        // Half the 400 rows are "doc": the same query needs the same
        // over-fetch every time, so once the predictor has left its cold
        // start (three observations) a repeat must not move it. Observing
        // the factor used fed the 25 % margin back into the mean, and the
        // prediction grew with every other repeat.
        let mut rng = SmallRng::seed_from_u64(5);
        let mut coll = Collection::new(8, Metric::Cosine);
        for id in 0..400u64 {
            let v: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let kind = if id % 2 == 0 { "doc" } else { "table" };
            coll.insert(id, v, [("kind", AttrValue::from(kind))]).unwrap();
        }
        let q = coll.get(1).unwrap().vector;
        let f = Filter::eq("kind", "doc");
        let mut learned = Vec::new();
        for _ in 0..12 {
            assert_eq!(coll.search_filtered_learning(&q, 5, &f).unwrap().len(), 5);
            if coll.predictor().observations() >= 3 {
                learned.push(coll.predictor().predict(0.5));
            }
        }
        assert!(learned.windows(2).all(|w| w[1] == w[0]), "{learned:?}");
    }

    #[test]
    fn selectivity_exact() {
        let coll = sample_collection();
        assert!((coll.selectivity(&Filter::eq("kind", "doc")) - 0.5).abs() < 1e-9);
        let rare = Filter::all().and(Predicate::Exists("rare".into()));
        assert!((coll.selectivity(&rare) - 0.1).abs() < 1e-9);
        assert_eq!(coll.selectivity(&Filter::eq("kind", "nothing")), 0.0);
    }

    #[test]
    fn trivial_filter_falls_back_to_ann() {
        let coll = sample_collection();
        let q = coll.get(9).unwrap().vector;
        let hits = coll.search_filtered(&q, 3, &Filter::all()).unwrap();
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].id, 9);
    }

    #[test]
    fn impossible_filter_returns_empty() {
        let coll = sample_collection();
        let q = coll.get(0).unwrap().vector;
        let f = Filter::eq("kind", "nonexistent");
        for strategy in [HybridStrategy::PreFilter, HybridStrategy::PostFilter { expansion: 2 }] {
            let (hits, _) = coll.search_filtered_with(&q, 5, &f, strategy).unwrap();
            assert!(hits.is_empty());
        }
    }

    #[test]
    fn duplicate_insert_keeps_consistency() {
        let mut coll = sample_collection();
        let err = coll.insert(0, vec![0.0; 8], Vec::<(String, AttrValue)>::new());
        assert!(err.is_err());
        assert_eq!(coll.len(), 200);
    }

    #[test]
    fn heavy_removal_triggers_compaction() {
        let mut coll = sample_collection();
        for id in 0..150u64 {
            coll.remove(id).unwrap();
        }
        assert_eq!(coll.len(), 50);
        let doc = coll.get(180).unwrap();
        let hits = coll.search(&doc.vector, 1).unwrap();
        assert_eq!(hits[0].id, 180);
    }

    #[test]
    fn metadata_follows_its_document_through_removal_and_compaction() {
        let mut coll = sample_collection();
        assert_eq!(coll.metadata(7).unwrap().get("id"), Some(&AttrValue::Int(7)));
        assert!(coll.metadata(999).is_none());
        // Removing 150 of 200 compacts the index and renumbers every row.
        for id in 0..150u64 {
            coll.remove(id).unwrap();
            assert!(coll.metadata(id).is_none());
        }
        assert_eq!(coll.metadata(180).unwrap().get("id"), Some(&AttrValue::Int(180)));
        let q = coll.get(181).unwrap().vector;
        let (hits, stats) = coll
            .search_filtered_with(&q, 50, &Filter::eq("kind", "table"), HybridStrategy::PreFilter)
            .unwrap();
        assert_eq!(stats.vectors_scored, 25, "odd ids in 150..200");
        assert_eq!(hits[0].id, 181);
        assert!(hits.iter().all(|h| h.id >= 150 && h.id % 2 == 1));
    }

    /// The tie rule, across builds: a hash map with a per-instance seed
    /// anywhere on the search path would shuffle which of the tied
    /// documents make the cut from one `Collection` to the next.
    #[test]
    fn tied_scores_rank_in_insertion_order_in_every_build() {
        let build = || {
            let mut coll = Collection::new(4, Metric::Cosine);
            for id in 0..40u64 {
                // Ids 10..30 share one vector; the rest are distinct.
                let v = if (10..30).contains(&id) {
                    vec![1.0, 0.0, 0.0, 0.0]
                } else {
                    vec![0.1, 1.0, id as f32, 0.0]
                };
                let tag = if id % 2 == 0 { "even" } else { "odd" };
                coll.insert(id, v, [("tag", AttrValue::from(tag)), ("n", AttrValue::Int(id as i64))])
                    .unwrap();
            }
            coll
        };
        let query = [1.0, 0.0, 0.0, 0.0];
        let indexed = Filter::eq("tag", "even");
        let scanned = Filter::all().and(Predicate::Exists("tag".into()));
        let answers: Vec<[Vec<u64>; 3]> = (0..16)
            .map(|_| {
                let coll = build();
                let ids = |hits: Vec<SearchHit>| hits.iter().map(|h| h.id).collect::<Vec<u64>>();
                let pre = |f| coll.search_filtered_with(&query, 3, f, HybridStrategy::PreFilter);
                [
                    ids(pre(&indexed).unwrap().0),
                    ids(pre(&scanned).unwrap().0),
                    ids(coll.search_exact(&query, 3).unwrap()),
                ]
            })
            .collect();
        // Ten even and twenty in all tie at cosine 1.0; k = 3 takes the
        // first three inserted.
        assert_eq!(answers[0], [vec![10, 12, 14], vec![10, 11, 12], vec![10, 11, 12]]);
        assert!(answers.iter().all(|a| a == &answers[0]), "{answers:?}");
    }

    mod differential {
        //! The attribute index and the arena scan against a model that has
        //! neither: a `Vec` of the live documents in insertion order,
        //! `Filter::matches` on each, and a stable sort by score.

        use super::*;
        use crate::metric::Rows;
        use llmdm_rt::proptest;
        use llmdm_rt::proptest::prelude::*;

        const DIM: usize = 5;
        const KEYS: [&str; 3] = ["x", "y", "z"];

        /// Code 0 is "key absent"; the rest cover all four kinds, the
        /// `Int`/`Float` twins, both zeros and NaN.
        fn value(code: u8) -> Option<AttrValue> {
            Some(match code {
                0 => return None,
                1 => "a".into(),
                2 => "b".into(),
                3 => "ab".into(),
                4 => AttrValue::Int(1),
                5 => AttrValue::Float(1.0),
                6 => AttrValue::Int(2),
                7 => AttrValue::Float(2.5),
                8 => AttrValue::Int(0),
                9 => AttrValue::Float(0.0),
                10 => AttrValue::Float(-0.0),
                11 => AttrValue::Float(f64::NAN),
                12 => AttrValue::Bool(true),
                _ => AttrValue::Bool(false),
            })
        }

        fn predicate((kind, key, a, b): (u8, usize, u8, u8)) -> Predicate {
            let key = KEYS[key].to_string();
            let v = |code| value(code).expect("codes 1.. are values");
            match kind {
                0 => Predicate::Eq(key, v(a)),
                1 => Predicate::Ne(key, v(a)),
                2 => Predicate::Lt(key, v(a)),
                3 => Predicate::Le(key, v(a)),
                4 => Predicate::Gt(key, v(a)),
                5 => Predicate::Ge(key, v(a)),
                // `a` twice: a value list may name one posting list twice.
                6 => Predicate::In(key, vec![v(a), v(b), v(a)]),
                7 => Predicate::Contains(key, if a % 2 == 0 { "a" } else { "b" }.into()),
                _ => Predicate::Exists(key),
            }
        }

        /// Half the vectors come from a pool of three, so equal scores —
        /// the tie rule's business — turn up in most cases.
        fn vector(pool: u8, fresh: Vec<f32>) -> Vec<f32> {
            match pool {
                0 => vec![1.0, 0.0, 0.0, 0.5, 0.0],
                1 => vec![0.0, 1.0, 0.0, 0.0, -0.5],
                2 => vec![0.0; DIM],
                _ => fresh,
            }
        }

        fn fresh_vector() -> impl Strategy<Value = Vec<f32>> {
            proptest::collection::vec(-1.0f32..1.0, DIM)
        }

        proptest! {
            #[test]
            fn index_and_arena_agree_with_a_plain_model(
                ops in proptest::collection::vec(
                    (0u8..3, 0u64..16, 0u8..6, fresh_vector(), (0u8..14, 0u8..14, 0u8..14)),
                    1..70,
                ),
                predicates in proptest::collection::vec((0u8..9, 0usize..3, 1u8..14, 1u8..14), 1..4),
                query in (0u8..6, fresh_vector()),
                k in 1usize..8,
            ) {
                let mut coll = Collection::new(DIM, Metric::Cosine);
                let mut model: Vec<(u64, Vec<f32>, Metadata)> = Vec::new();
                for (op, id, pool, fresh, (x, y, z)) in ops {
                    let known = model.iter().position(|(live, _, _)| *live == id);
                    // Two inserts to one remove, so collections grow, yet
                    // tombstones pass 50 % often enough to compact.
                    if op < 2 {
                        let v = vector(pool, fresh);
                        let metadata: Metadata = KEYS
                            .iter()
                            .zip([x, y, z])
                            .filter_map(|(key, code)| Some((key.to_string(), value(code)?)))
                            .collect();
                        let inserted = coll.insert(id, v.clone(), metadata.clone());
                        prop_assert_eq!(inserted.is_ok(), known.is_none());
                        if known.is_none() {
                            model.push((id, v, metadata));
                        }
                    } else {
                        prop_assert_eq!(coll.remove(id).is_ok(), known.is_some());
                        if let Some(at) = known {
                            model.remove(at);
                        }
                    }
                }
                prop_assert_eq!(coll.len(), model.len());
                for (id, v, metadata) in &model {
                    let doc = coll.get(*id).expect("live in the model");
                    prop_assert_eq!(&doc.vector, v);
                    // `{:?}`: a NaN attribute is not `==` to itself.
                    prop_assert_eq!(format!("{:?}", doc.metadata), format!("{metadata:?}"));
                }

                let filter = predicates.into_iter().fold(Filter::all(), |f, p| f.and(predicate(p)));
                let query = vector(query.0, query.1);
                // The model's ranking of `docs`: same kernel, no index, no
                // arena — a stable sort leaves ties in insertion order.
                let rank = |docs: Vec<&(u64, Vec<f32>, Metadata)>| {
                    let mut rows = Rows::new(DIM, Metric::Cosine);
                    docs.iter().for_each(|(_, v, _)| rows.push(v));
                    let q = Metric::Cosine.prepare(&query);
                    let mut ranked: Vec<SearchHit> = docs
                        .iter()
                        .enumerate()
                        .map(|(i, (id, _, _))| SearchHit { id: *id, score: rows.score(&q, i) })
                        .collect();
                    ranked.sort_by(|a, b| b.score.total_cmp(&a.score));
                    ranked
                };
                let matching = rank(model.iter().filter(|(_, _, m)| filter.matches(m)).collect());

                // Index-resolved survivors are exactly the matching set …
                let (all, stats) = coll
                    .search_filtered_with(&query, model.len() + 1, &filter, HybridStrategy::PreFilter)
                    .unwrap();
                prop_assert_eq!(stats.vectors_scored, matching.len());
                prop_assert_eq!(&all, &matching);
                if !model.is_empty() {
                    let exact = matching.len() as f64 / model.len() as f64;
                    prop_assert_eq!(coll.selectivity(&filter), exact);
                }
                // … the top k of them is the model's top k, ids and bits …
                let (top, _) =
                    coll.search_filtered_with(&query, k, &filter, HybridStrategy::PreFilter).unwrap();
                prop_assert_eq!(&top[..], &matching[..k.min(matching.len())]);
                // … and the unfiltered scan ranks everything the same way.
                let everything = rank(model.iter().collect());
                prop_assert_eq!(
                    &coll.search_exact(&query, k).unwrap()[..],
                    &everything[..k.min(everything.len())]
                );
                // Whatever the adaptive rule picks, a hit matches the filter.
                for hit in coll.search_filtered(&query, k, &filter).unwrap() {
                    prop_assert!(filter.matches(coll.metadata(hit.id).expect("a hit is stored")));
                }
            }
        }
    }
}
