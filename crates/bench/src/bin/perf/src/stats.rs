//! Order statistics and span self-time arithmetic.

use std::collections::{BTreeMap, HashMap};

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `q` of the samples at or below it. 0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort `values` in place and return its nearest-rank percentile.
pub fn percentile_of(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, q)
}

/// Median of the values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of the values, 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One finished span, as much of it as self-time arithmetic needs.
#[derive(Debug, Clone, Copy)]
pub struct SpanIn<'a> {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'a str,
    pub dur_ns: u64,
}

/// Exclusive nanoseconds per layer.
///
/// A layer span is one whose name starts with `prefix`; every other span
/// (the crates' own) belongs to its nearest layer ancestor. A layer span's
/// self time is its duration minus the durations of the layer spans
/// directly below it, so the self times of a request's layer spans sum to
/// the duration of its outermost one. Keyed by span name.
pub fn layer_self_ns<'a>(spans: &[SpanIn<'a>], prefix: &str) -> BTreeMap<&'a str, u64> {
    let by_id: HashMap<u64, &SpanIn<'a>> = spans.iter().map(|s| (s.id, s)).collect();
    let mut own: HashMap<u64, i64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name.starts_with(prefix)) {
        *own.entry(s.id).or_default() += s.dur_ns as i64;
        let mut up = s.parent;
        while let Some(p) = up.and_then(|id| by_id.get(&id)) {
            if p.name.starts_with(prefix) {
                *own.entry(p.id).or_default() -= s.dur_ns as i64;
                break;
            }
            up = p.parent;
        }
    }
    let mut out = BTreeMap::new();
    for (id, ns) in own {
        // Children end before parents, but each reads the clock itself: a
        // child may outlast its parent by the clock's granularity.
        *out.entry(by_id[&id].name).or_default() += ns.max(0) as u64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // 2048 samples leave 20 beyond the 99th percentile.
        let big: Vec<f64> = (0..2048).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), 2027.0);
        let mut shuffled = vec![3.0, 1.0, 2.0];
        assert_eq!(percentile_of(&mut shuffled, 0.5), 2.0);
    }

    #[test]
    fn median_of_passes() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
        // One slow pass does not move it.
        assert_eq!(median(&[10.0, 10.0, 10.0, 10.0, 1000.0]), 10.0);
    }

    #[test]
    fn exclusive_times_sum_to_inclusive() {
        // perf.request 100
        //   perf.exec 80
        //     sqlengine.plan.exec 70        (not a layer: folds into perf.exec)
        //       perf.semcache 40
        //         semcache.lookup 10
        //         perf.model 25
        //       perf.vfs 5
        //       perf.vfs 5
        let spans = [
            SpanIn {
                id: 1,
                parent: None,
                name: "perf.request",
                dur_ns: 100,
            },
            SpanIn {
                id: 2,
                parent: Some(1),
                name: "perf.exec",
                dur_ns: 80,
            },
            SpanIn {
                id: 3,
                parent: Some(2),
                name: "sqlengine.plan.exec",
                dur_ns: 70,
            },
            SpanIn {
                id: 4,
                parent: Some(3),
                name: "perf.semcache",
                dur_ns: 40,
            },
            SpanIn {
                id: 5,
                parent: Some(4),
                name: "semcache.lookup",
                dur_ns: 10,
            },
            SpanIn {
                id: 6,
                parent: Some(4),
                name: "perf.model",
                dur_ns: 25,
            },
            SpanIn {
                id: 7,
                parent: Some(3),
                name: "perf.vfs",
                dur_ns: 5,
            },
            SpanIn {
                id: 8,
                parent: Some(3),
                name: "perf.vfs",
                dur_ns: 5,
            },
        ];
        let own = layer_self_ns(&spans, "perf.");
        assert_eq!(own["perf.request"], 20);
        assert_eq!(own["perf.exec"], 30);
        assert_eq!(own["perf.semcache"], 15);
        assert_eq!(own["perf.model"], 25);
        assert_eq!(own["perf.vfs"], 10);
        assert_eq!(
            own.values().sum::<u64>(),
            100,
            "sum of exclusive = inclusive"
        );
        assert!(!own.contains_key("semcache.lookup"));
    }

    #[test]
    fn child_outlasting_parent_clamps_to_zero() {
        let spans = [
            SpanIn {
                id: 1,
                parent: None,
                name: "perf.a",
                dur_ns: 10,
            },
            SpanIn {
                id: 2,
                parent: Some(1),
                name: "perf.b",
                dur_ns: 11,
            },
        ];
        let own = layer_self_ns(&spans, "perf.");
        assert_eq!(own["perf.a"], 0);
        assert_eq!(own["perf.b"], 11);
    }
}
