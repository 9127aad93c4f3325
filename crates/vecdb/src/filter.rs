//! Attribute metadata, filters, and hybrid-search strategy selection.
//!
//! §III-B2 of the paper: "for this hybrid search that involves both vector
//! and non-vector data, one key consideration is the order of filtering" —
//! pre-filter when attributes are selective, post-filter otherwise, with an
//! adaptive mechanism choosing per query. The paper also calls out the
//! "vector search first" pathology: all `k` ANN results may fail the
//! attribute constraint, so production systems over-fetch with a large
//! fixed `k`, degrading efficiency; it envisions ML models that "predict an
//! appropriate k value for each query". [`KPredictor`] is that model: an
//! online selectivity-bucketed regressor for the over-fetch factor.

use std::collections::BTreeMap;

/// An attribute value attached to a stored vector.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// UTF-8 string.
    Str(String),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
}

impl AttrValue {
    /// Numeric view (ints widen to float) for cross-type comparison.
    fn as_f64(&self) -> Option<f64> {
        match self {
            AttrValue::Int(i) => Some(*i as f64),
            AttrValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Ordering used by range predicates; `None` when incomparable.
    fn compare(&self, other: &AttrValue) -> Option<std::cmp::Ordering> {
        match (self, other) {
            (AttrValue::Str(a), AttrValue::Str(b)) => Some(a.cmp(b)),
            (AttrValue::Bool(a), AttrValue::Bool(b)) => Some(a.cmp(b)),
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Str(s.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(s)
    }
}
impl From<i64> for AttrValue {
    fn from(i: i64) -> Self {
        AttrValue::Int(i)
    }
}
impl From<f64> for AttrValue {
    fn from(f: f64) -> Self {
        AttrValue::Float(f)
    }
}
impl From<bool> for AttrValue {
    fn from(b: bool) -> Self {
        AttrValue::Bool(b)
    }
}

/// Attribute map attached to each vector.
pub type Metadata = BTreeMap<String, AttrValue>;

/// A single attribute predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `key == value`
    Eq(String, AttrValue),
    /// `key != value`
    Ne(String, AttrValue),
    /// `key < value`
    Lt(String, AttrValue),
    /// `key <= value`
    Le(String, AttrValue),
    /// `key > value`
    Gt(String, AttrValue),
    /// `key >= value`
    Ge(String, AttrValue),
    /// `key ∈ values`
    In(String, Vec<AttrValue>),
    /// string attribute contains the substring
    Contains(String, String),
    /// the key is present
    Exists(String),
}

impl Predicate {
    /// Does `meta` satisfy this predicate? Missing keys fail everything
    /// except an `Exists` on another key.
    pub fn matches(&self, meta: &Metadata) -> bool {
        use std::cmp::Ordering::*;
        let get = |k: &str| meta.get(k);
        match self {
            Predicate::Eq(k, v) => get(k).is_some_and(|a| a.compare(v) == Some(Equal)),
            Predicate::Ne(k, v) => get(k).is_some_and(|a| a.compare(v) != Some(Equal)),
            Predicate::Lt(k, v) => get(k).is_some_and(|a| a.compare(v) == Some(Less)),
            Predicate::Le(k, v) => {
                get(k).is_some_and(|a| matches!(a.compare(v), Some(Less | Equal)))
            }
            Predicate::Gt(k, v) => get(k).is_some_and(|a| a.compare(v) == Some(Greater)),
            Predicate::Ge(k, v) => {
                get(k).is_some_and(|a| matches!(a.compare(v), Some(Greater | Equal)))
            }
            Predicate::In(k, vs) => {
                get(k).is_some_and(|a| vs.iter().any(|v| a.compare(v) == Some(Equal)))
            }
            Predicate::Contains(k, needle) => match get(k) {
                Some(AttrValue::Str(s)) => s.contains(needle.as_str()),
                _ => false,
            },
            Predicate::Exists(k) => get(k).is_some(),
        }
    }
}

/// A conjunction of predicates. The empty filter matches everything.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Filter {
    predicates: Vec<Predicate>,
}

impl Filter {
    /// The filter that matches everything.
    pub fn all() -> Self {
        Filter::default()
    }

    /// Shorthand for a single equality filter.
    pub fn eq(key: &str, value: impl Into<AttrValue>) -> Self {
        Filter::all().and(Predicate::Eq(key.to_string(), value.into()))
    }

    /// Add a predicate (conjunction).
    pub fn and(mut self, p: Predicate) -> Self {
        self.predicates.push(p);
        self
    }

    /// The predicates, in the order they were added.
    pub(crate) fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Whether `meta` satisfies every predicate.
    pub fn matches(&self, meta: &Metadata) -> bool {
        self.predicates.iter().all(|p| p.matches(meta))
    }

    /// Whether this filter is the match-all filter.
    pub fn is_trivial(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    /// Whether the filter has no predicates.
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }
}

/// How to order attribute filtering vs vector search (§III-B2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HybridStrategy {
    /// Resolve the attributes first (through the attribute index where the
    /// filter has `Eq`/`In` predicates, by scanning metadata otherwise),
    /// then exact-rank the survivors. Best when the filter is selective.
    PreFilter,
    /// ANN-search first with `expansion × k` over-fetch, then filter. Best
    /// when most items pass the filter.
    PostFilter {
        /// Initial over-fetch factor (k' = expansion × k), doubled on
        /// under-delivery.
        expansion: usize,
    },
    /// Pick pre- vs post-filtering per query from the filter's selectivity
    /// — the adaptive mechanism the paper envisions. The selectivity is the
    /// attribute index's candidate count over the collection size (exact
    /// when every predicate is `Eq`/`In`, an upper bound otherwise); only a
    /// filter with no indexable predicate is estimated on a metadata
    /// sample.
    Adaptive {
        /// Use pre-filtering when the selectivity is below this.
        selectivity_threshold: f64,
        /// Metadata sample size for the estimate of an unindexable filter.
        sample: usize,
    },
}

impl Default for HybridStrategy {
    fn default() -> Self {
        HybridStrategy::Adaptive { selectivity_threshold: 0.15, sample: 256 }
    }
}

/// Online predictor of the post-filter over-fetch factor.
///
/// Observes `(selectivity, expansion that was actually needed)` pairs and
/// predicts the expansion for future queries by selectivity bucket. Falls
/// back to `1/selectivity` before enough observations exist; either way
/// with a 25% safety margin.
#[derive(Debug, Clone)]
pub struct KPredictor {
    /// Ten selectivity buckets of width 0.1: (sum of needed expansions, n).
    buckets: [(f64, u32); 10],
    /// Safety margin multiplier applied to the learned mean.
    margin: f64,
}

impl Default for KPredictor {
    fn default() -> Self {
        KPredictor { buckets: [(0.0, 0); 10], margin: 1.25 }
    }
}

impl KPredictor {
    /// New predictor with the default safety margin.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket(selectivity: f64) -> usize {
        ((selectivity.clamp(0.0, 0.999_999) * 10.0) as usize).min(9)
    }

    /// Record that a query with `selectivity` needed `needed_expansion` to
    /// deliver its k results.
    pub fn observe(&mut self, selectivity: f64, needed_expansion: f64) {
        let b = Self::bucket(selectivity);
        self.buckets[b].0 += needed_expansion.max(1.0);
        self.buckets[b].1 += 1;
    }

    /// Predicted over-fetch factor for a query with `selectivity`.
    pub fn predict(&self, selectivity: f64) -> usize {
        let b = Self::bucket(selectivity);
        let (sum, n) = self.buckets[b];
        let base = if n >= 3 {
            sum / n as f64
        } else {
            // Cold start: the analytic estimate. If a fraction `s` of items
            // pass, expect to fetch ~1/s × k to surface k survivors.
            (1.0 / selectivity.max(0.01)).min(64.0)
        };
        // The margin covers the estimate as much as the mean: 1/s × k
        // candidates hold k survivors only on average, so without it every
        // other cold query comes back short and pays for a second round.
        (base * self.margin).ceil().max(1.0) as usize
    }

    /// Total number of observations.
    pub fn observations(&self) -> u32 {
        self.buckets.iter().map(|(_, n)| n).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(pairs: &[(&str, AttrValue)]) -> Metadata {
        pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
    }

    #[test]
    fn eq_and_ne() {
        let m = meta(&[("kind", "doc".into())]);
        assert!(Filter::eq("kind", "doc").matches(&m));
        assert!(!Filter::eq("kind", "table").matches(&m));
        assert!(Filter::all().and(Predicate::Ne("kind".into(), "table".into())).matches(&m));
    }

    #[test]
    fn missing_key_fails() {
        let m = meta(&[]);
        assert!(!Filter::eq("kind", "doc").matches(&m));
        assert!(!Filter::all().and(Predicate::Ne("kind".into(), "doc".into())).matches(&m));
    }

    #[test]
    fn numeric_cross_type_comparison() {
        let m = meta(&[("year", AttrValue::Int(2014))]);
        assert!(Filter::all().and(Predicate::Ge("year".into(), AttrValue::Float(2013.5))).matches(&m));
        assert!(Filter::all().and(Predicate::Lt("year".into(), AttrValue::Int(2015))).matches(&m));
        assert!(Filter::eq("year", AttrValue::Float(2014.0)).matches(&m));
    }

    #[test]
    fn in_and_contains() {
        let m = meta(&[("city", "Beijing".into())]);
        assert!(Filter::all()
            .and(Predicate::In("city".into(), vec!["Shanghai".into(), "Beijing".into()]))
            .matches(&m));
        assert!(Filter::all().and(Predicate::Contains("city".into(), "jing".into())).matches(&m));
        assert!(!Filter::all().and(Predicate::Contains("city".into(), "york".into())).matches(&m));
    }

    #[test]
    fn exists() {
        let m = meta(&[("a", AttrValue::Bool(true))]);
        assert!(Filter::all().and(Predicate::Exists("a".into())).matches(&m));
        assert!(!Filter::all().and(Predicate::Exists("b".into())).matches(&m));
    }

    #[test]
    fn conjunction_all_must_match() {
        let m = meta(&[("kind", "doc".into()), ("year", AttrValue::Int(2020))]);
        let f = Filter::eq("kind", "doc").and(Predicate::Gt("year".into(), AttrValue::Int(2019)));
        assert!(f.matches(&m));
        let f2 = Filter::eq("kind", "doc").and(Predicate::Gt("year".into(), AttrValue::Int(2021)));
        assert!(!f2.matches(&m));
    }

    #[test]
    fn trivial_filter_matches_everything() {
        assert!(Filter::all().matches(&meta(&[])));
        assert!(Filter::all().is_trivial());
    }

    #[test]
    fn incomparable_types_fail() {
        let m = meta(&[("x", AttrValue::Bool(true))]);
        assert!(!Filter::all().and(Predicate::Lt("x".into(), AttrValue::Int(3))).matches(&m));
    }

    #[test]
    fn kpredictor_cold_start_uses_analytic() {
        let p = KPredictor::new();
        assert!(p.predict(0.5) <= 3);
        assert!(p.predict(0.05) >= 15);
    }

    #[test]
    fn kpredictor_learns_bucket_mean() {
        let mut p = KPredictor::new();
        for _ in 0..5 {
            p.observe(0.55, 4.0);
        }
        // mean 4.0 * margin 1.25 = 5
        assert_eq!(p.predict(0.55), 5);
        // Other buckets untouched.
        assert!(p.predict(0.95) <= 2);
    }

    #[test]
    fn kpredictor_bucket_edges() {
        assert_eq!(KPredictor::bucket(0.0), 0);
        assert_eq!(KPredictor::bucket(1.0), 9);
        assert_eq!(KPredictor::bucket(0.999), 9);
        assert_eq!(KPredictor::bucket(0.1), 1);
    }
}
