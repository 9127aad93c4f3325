//! What a vecdb search says about itself when the recorder is on.
//!
//! One `#[test]` in a binary of its own on purpose: the obs recorder is
//! process-global, and a second test thread's searches would land in this
//! one's snapshot.

use llmdm_obs::{FieldValue, SpanRecord};
use llmdm_rt::rand::rngs::SmallRng;
use llmdm_rt::rand::{Rng, SeedableRng};
use llmdm_vecdb::{AttrValue, Collection, Filter, Metric, Predicate};

const DIM: usize = 16;
const DOCS: u64 = 2000;

fn field<'a>(span: &'a SpanRecord, key: &str) -> &'a FieldValue {
    let found = span.fields.iter().find(|(k, _)| k == key);
    &found.unwrap_or_else(|| panic!("span {} has no field {key}", span.name)).1
}

fn count(span: &SpanRecord, key: &str) -> u64 {
    match field(span, key) {
        FieldValue::U64(n) => *n,
        other => panic!("{}.{key} is {other:?}, not a count", span.name),
    }
}

#[test]
fn ann_and_hybrid_searches_report_their_work() {
    let mut rng = SmallRng::seed_from_u64(9);
    let mut coll = Collection::new(DIM, Metric::Cosine);
    for id in 0..DOCS {
        let v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        // `rare` on every 40th document: 50 of 2000, 2.5 %.
        let tag = if id % 40 == 0 { "rare" } else { "common" };
        coll.insert(id, v, [("tag", AttrValue::from(tag)), ("title", format!("doc {id}").into())])
            .unwrap();
    }
    let query: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();

    llmdm_obs::enable();
    llmdm_obs::reset();
    coll.search(&query, 10).unwrap();
    let rare = coll.search_filtered(&query, 10, &Filter::eq("tag", "rare")).unwrap();
    let titled = Filter::all().and(Predicate::Contains("title".into(), "doc 7".into()));
    coll.search_filtered(&query, 10, &titled).unwrap();
    llmdm_obs::disable();
    let report = llmdm_obs::snapshot();
    assert_eq!(rare.len(), 10);

    // The ANN search: beam, base-layer nodes scored, and all distance
    // computations (those plus the upper layers' descent).
    let ann: Vec<&SpanRecord> =
        report.spans.iter().filter(|s| s.name == "vecdb.hnsw.search").collect();
    assert!(!ann.is_empty());
    let plain = ann[0];
    assert_eq!(count(plain, "ef"), 64);
    assert_eq!(count(plain, "candidates"), 64);
    assert!(count(plain, "visited") >= count(plain, "candidates"));
    assert!(count(plain, "distance_comps") > count(plain, "visited"));
    assert!(count(plain, "distance_comps") < DOCS, "an ANN search is not a scan");

    let hybrid: Vec<&SpanRecord> =
        report.spans.iter().filter(|s| s.name == "vecdb.hybrid.search").collect();
    assert_eq!(hybrid.len(), 2);
    // 2.5 % is under the 15 % threshold: the index hands pre-filtering its
    // 50 rows, and the selectivity is a count, not an estimate.
    assert_eq!(field(hybrid[0], "strategy"), &FieldValue::Str("prefilter".into()));
    assert_eq!(field(hybrid[0], "indexed"), &FieldValue::Bool(true));
    assert_eq!(count(hybrid[0], "candidates"), 50);
    assert_eq!(field(hybrid[0], "selectivity"), &FieldValue::F64(50.0 / DOCS as f64));
    assert_eq!(count(hybrid[0], "rounds"), 0);
    // `Contains` has no posting list to look up.
    assert_eq!(field(hybrid[1], "indexed"), &FieldValue::Bool(false));

    // Every distance computation of the three searches is on the counter:
    // the ANN ones (which used to go unreported) and the exact ones.
    let spans_total: u64 = report
        .spans
        .iter()
        .filter(|s| s.name.starts_with("vecdb.hnsw."))
        .map(|s| count(s, "distance_comps"))
        .sum();
    assert!(spans_total > count(plain, "distance_comps"));
    assert_eq!(llmdm_obs::counter_value("vecdb.search.distance_comps"), spans_total as f64);
}
