//! The attribute index: which rows carry which attribute value.
//!
//! Per key, per *canonical value*, an ascending posting list of the
//! collection's row numbers. Two attribute values share a list exactly when
//! [`AttrValue::compare`](crate::filter::AttrValue) calls them equal:
//! strings by content, booleans by value, and `Int`/`Float` through the
//! same widening to `f64` that `compare` does — so `Int(2014)` and
//! `Float(2014.0)` are one entry, `-0.0` folds into `0.0`, and NaN, which
//! equals nothing, is never indexed.
//!
//! [`AttrIndex::resolve`] turns a filter's `Eq`/`In` predicates into list
//! lookups, intersects them smallest first, and hands back the predicates
//! it could not use as the residual the caller still has to check.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::filter::{AttrValue, Filter, Metadata, Predicate};

/// Posting lists of one key, by the kind of its canonical value.
#[derive(Debug, Default)]
struct KeyIndex {
    strs: HashMap<String, Vec<u32>>,
    /// Keyed by the bits of the value as `f64`, `-0.0` folded into `0.0`.
    nums: HashMap<u64, Vec<u32>>,
    /// `[false, true]`.
    bools: [Vec<u32>; 2],
}

/// The canonical numeric key of `v`, `None` for NaN (equal to nothing).
fn num_key(v: f64) -> Option<u64> {
    if v.is_nan() {
        None
    } else if v == 0.0 {
        Some(0f64.to_bits())
    } else {
        Some(v.to_bits())
    }
}

impl KeyIndex {
    fn list(&self, v: &AttrValue) -> Option<&Vec<u32>> {
        match v {
            AttrValue::Str(s) => self.strs.get(s.as_str()),
            AttrValue::Int(i) => self.nums.get(&num_key(*i as f64)?),
            AttrValue::Float(f) => self.nums.get(&num_key(*f)?),
            AttrValue::Bool(b) => Some(&self.bools[usize::from(*b)]),
        }
    }

    /// The list `v` belongs on, created on first use; `None` for NaN.
    fn list_mut(&mut self, v: &AttrValue) -> Option<&mut Vec<u32>> {
        Some(match v {
            AttrValue::Str(s) => self.strs.entry(s.clone()).or_default(),
            AttrValue::Int(i) => self.nums.entry(num_key(*i as f64)?).or_default(),
            AttrValue::Float(f) => self.nums.entry(num_key(*f)?).or_default(),
            AttrValue::Bool(b) => &mut self.bools[usize::from(*b)],
        })
    }
}

/// What the index knows about one filter.
#[derive(Debug)]
pub(crate) struct Resolved<'a> {
    /// Ascending rows satisfying every `Eq`/`In` predicate of the filter.
    pub rows: Cow<'a, [u32]>,
    /// The filter's other predicates. When empty, `rows` is exactly the
    /// matching set; otherwise it is a superset still to be checked.
    pub residual: Vec<&'a Predicate>,
}

/// Key → canonical value → ascending rows.
#[derive(Debug, Default)]
pub(crate) struct AttrIndex {
    keys: HashMap<String, KeyIndex>,
}

impl AttrIndex {
    /// Index `meta` under `row`. Rows must arrive in ascending order —
    /// that is what keeps every posting list sorted with a plain `push`.
    pub(crate) fn insert(&mut self, row: u32, meta: &Metadata) {
        for (key, value) in meta {
            if let Some(list) = self.keys.entry(key.clone()).or_default().list_mut(value) {
                debug_assert!(list.last() < Some(&row), "rows arrive in ascending order");
                list.push(row);
            }
        }
    }

    /// Forget `row`, which was indexed with `meta`. A list this empties
    /// stays, empty, until the collection's next compaction rebuilds the
    /// index.
    pub(crate) fn remove(&mut self, row: u32, meta: &Metadata) {
        for (key, value) in meta {
            let list = self.keys.get_mut(key.as_str()).and_then(|index| index.list_mut(value));
            if let Some(list) = list {
                if let Ok(at) = list.binary_search(&row) {
                    list.remove(at);
                }
            }
        }
    }

    /// Rows whose `key` equals `value`.
    fn lookup(&self, key: &str, value: &AttrValue) -> &[u32] {
        self.keys.get(key).and_then(|index| index.list(value)).map_or(&[], Vec::as_slice)
    }

    /// Resolve the `Eq`/`In` predicates of `filter`; `None` when it has
    /// none, and the caller must fall back to scanning metadata.
    pub(crate) fn resolve<'a>(&'a self, filter: &'a Filter) -> Option<Resolved<'a>> {
        let mut lists: Vec<Cow<'a, [u32]>> = Vec::new();
        let mut residual = Vec::new();
        for p in filter.predicates() {
            match p {
                Predicate::Eq(key, value) => lists.push(Cow::Borrowed(self.lookup(key, value))),
                Predicate::In(key, values) => {
                    // A row has one value per key, so the lists of distinct
                    // canonical values are disjoint: their union is a
                    // concatenation, once values naming the same list
                    // (`Int(1)` beside `Float(1.0)`) are counted once.
                    let mut parts: Vec<&[u32]> = Vec::new();
                    for value in values {
                        let list = self.lookup(key, value);
                        if !list.is_empty() && !parts.iter().any(|p| std::ptr::eq(*p, list)) {
                            parts.push(list);
                        }
                    }
                    lists.push(match parts[..] {
                        [] => Cow::Borrowed(&[]),
                        [one] => Cow::Borrowed(one),
                        _ => {
                            let mut union = parts.concat();
                            union.sort_unstable();
                            Cow::Owned(union)
                        }
                    });
                }
                other => residual.push(other),
            }
        }
        lists.sort_by_key(|l| l.len());
        let mut lists = lists.into_iter();
        let mut rows = lists.next()?;
        for next in lists {
            if rows.is_empty() {
                break;
            }
            rows = Cow::Owned(intersect(&rows, &next));
        }
        Some(Resolved { rows, residual })
    }
}

/// Intersection of two ascending lists, `small` no longer than `large`.
/// Each element of `small` is found by galloping forward from where the
/// last one landed, so the cost is `|small| · log(gap)` — a merge when the
/// lists are of a size, a handful of probes each when one is tiny.
fn intersect(small: &[u32], large: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(small.len());
    let mut rest = large;
    for &x in small {
        let mut step = 1;
        while step < rest.len() && rest[step] < x {
            step *= 2;
        }
        let from = step / 2;
        let to = (step + 1).min(rest.len());
        let at = from + rest[from..to].partition_point(|&y| y < x);
        rest = &rest[at..];
        match rest.first() {
            Some(&y) if y == x => out.push(x),
            Some(_) => {}
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(pairs: &[(&str, AttrValue)]) -> Metadata {
        pairs.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
    }

    fn rows(index: &AttrIndex, filter: &Filter) -> Option<(Vec<u32>, usize)> {
        index.resolve(filter).map(|r| (r.rows.into_owned(), r.residual.len()))
    }

    #[test]
    fn numeric_twins_share_a_list_and_nan_has_none() {
        let mut index = AttrIndex::default();
        index.insert(0, &meta(&[("y", AttrValue::Int(2014))]));
        index.insert(1, &meta(&[("y", AttrValue::Float(2014.0))]));
        index.insert(2, &meta(&[("y", AttrValue::Float(-0.0))]));
        index.insert(3, &meta(&[("y", AttrValue::Int(0))]));
        index.insert(4, &meta(&[("y", AttrValue::Float(f64::NAN))]));
        assert_eq!(rows(&index, &Filter::eq("y", 2014i64)), Some((vec![0, 1], 0)));
        assert_eq!(rows(&index, &Filter::eq("y", 2014.0f64)), Some((vec![0, 1], 0)));
        assert_eq!(rows(&index, &Filter::eq("y", 0.0f64)), Some((vec![2, 3], 0)));
        assert_eq!(rows(&index, &Filter::eq("y", f64::NAN)), Some((vec![], 0)));
        // A string never equals a number, whatever it spells.
        assert_eq!(rows(&index, &Filter::eq("y", "2014")), Some((vec![], 0)));
    }

    #[test]
    fn in_is_a_union_without_double_counting() {
        let mut index = AttrIndex::default();
        for (row, v) in [1i64, 2, 3, 1, 2].into_iter().enumerate() {
            index.insert(row as u32, &meta(&[("n", AttrValue::Int(v))]));
        }
        let f = Filter::all().and(Predicate::In(
            "n".into(),
            vec![AttrValue::Int(2), AttrValue::Float(1.0), AttrValue::Int(1), AttrValue::Int(9)],
        ));
        assert_eq!(rows(&index, &f), Some((vec![0, 1, 3, 4], 0)));
        let none = Filter::all().and(Predicate::In("n".into(), vec![]));
        assert_eq!(rows(&index, &none), Some((vec![], 0)));
    }

    #[test]
    fn conjunction_intersects_and_keeps_the_rest_as_residual() {
        let mut index = AttrIndex::default();
        for row in 0..40u32 {
            let m = meta(&[
                ("shard", AttrValue::Int((row % 4) as i64)),
                ("lang", if row % 3 == 0 { "en" } else { "de" }.into()),
            ]);
            index.insert(row, &m);
        }
        let f = Filter::eq("shard", 0i64)
            .and(Predicate::Eq("lang".into(), "en".into()))
            .and(Predicate::Exists("shard".into()));
        assert_eq!(rows(&index, &f), Some((vec![0, 12, 24, 36], 1)));
        let unindexable = Filter::all().and(Predicate::Gt("shard".into(), AttrValue::Int(1)));
        assert!(index.resolve(&unindexable).is_none());
    }

    #[test]
    fn remove_forgets_the_row() {
        let mut index = AttrIndex::default();
        let m = meta(&[("k", "v".into()), ("b", AttrValue::Bool(true))]);
        for row in 0..3 {
            index.insert(row, &m);
        }
        index.remove(1, &m);
        assert_eq!(rows(&index, &Filter::eq("k", "v")), Some((vec![0, 2], 0)));
        assert_eq!(rows(&index, &Filter::eq("b", true)), Some((vec![0, 2], 0)));
    }

    #[test]
    fn galloping_intersection_matches_a_plain_one() {
        let large: Vec<u32> = (0..1000).filter(|x| x % 3 != 1).collect();
        for stride in [1u32, 2, 7, 97, 400] {
            let small: Vec<u32> = (0..1200).step_by(stride as usize).collect();
            let want: Vec<u32> = small.iter().copied().filter(|x| large.contains(x)).collect();
            assert_eq!(intersect(&small, &large), want, "stride {stride}");
        }
        assert!(intersect(&[5], &[]).is_empty());
        assert!(intersect(&[], &[5]).is_empty());
    }
}
