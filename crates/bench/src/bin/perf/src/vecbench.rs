//! The `vec_search` workload: serve -> one shared `&Collection`.

use std::time::Instant;

use llmdm_vecdb::{AttrValue, Collection, Filter, Metric, Predicate};

use crate::gen::{Scope, Slot, VecPlan, DIM, K, WAVE};
use crate::pass::{run_pass, Measured, Pass};
use crate::stats::{mean, median, ratio};
use crate::{trace_report, Args, Outcome, MIN_PASSES, TRACED_WAVES, WORKERS};

/// Overall recall below this fails the run: the index no longer answers
/// the question the flat scan answers.
const RECALL_FLOOR: f64 = 0.80;

fn build(plan: &VecPlan) -> Collection {
    let mut coll = Collection::new(DIM, Metric::Cosine);
    for (id, doc) in plan.docs.iter().enumerate() {
        let meta = [
            ("shard", AttrValue::Int(doc.shard)),
            ("lang", AttrValue::from(doc.lang)),
        ];
        coll.insert(id as u64, doc.vector.clone(), meta)
            .expect("document inserts");
    }
    coll
}

fn filter(scope: Scope) -> Option<Filter> {
    match scope {
        Scope::All => None,
        Scope::Shard(s) => Some(Filter::eq("shard", s)),
        Scope::ShardLang(s, l) => {
            Some(Filter::eq("shard", s).and(Predicate::Eq("lang".into(), l.into())))
        }
    }
}

/// Exact top-k ids per request by brute force over the generated
/// documents — independent of every vecdb code path.
fn exact_top_k(plan: &VecPlan) -> Vec<Vec<u64>> {
    let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>();
    let norms: Vec<f32> = plan
        .docs
        .iter()
        .map(|d| dot(&d.vector, &d.vector).sqrt())
        .collect();
    plan.requests
        .iter()
        .map(|req| {
            let mut scored: Vec<(f32, u64)> = plan
                .docs
                .iter()
                .enumerate()
                .filter(|(_, doc)| req.scope.admits(doc))
                .map(|(id, doc)| (dot(&req.query, &doc.vector) / norms[id], id as u64))
                .collect();
            scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            scored.into_iter().take(K).map(|(_, id)| id).collect()
        })
        .collect()
}

type Hits = Result<Vec<(u64, f32)>, String>;

fn vec_pass(
    plan: &VecPlan,
    slots: &[Slot],
    coll: &Collection,
    waves: usize,
    workers: usize,
    seed: u64,
    trace: bool,
) -> Pass<Hits> {
    run_pass(slots, waves, workers, seed, trace, |i| {
        let req = &plan.requests[i];
        let _span = trace.then(|| llmdm_obs::span("perf.vecdb.search"));
        match filter(req.scope) {
            None => coll.search(&req.query, K),
            Some(f) => coll.search_filtered(&req.query, K, &f),
        }
        .map(|hits| hits.into_iter().map(|h| (h.id, h.score)).collect())
        .map_err(|e| e.to_string())
    })
}

/// `(wrong requests, hits that are in the exact top-k, size of the exact
/// top-k)` of a pass. A request is wrong when it was refused or errored,
/// returned the wrong number of hits, a hit outside its filter, or hits
/// out of score order; missing a true neighbour only costs recall.
fn check(pass: &Pass<Hits>, plan: &VecPlan, exact: &[Vec<u64>]) -> (u64, u64, u64) {
    let (mut wrong, mut found, mut wanted) = (0, 0, 0);
    for ((served, req), exact) in pass.served.iter().zip(&plan.requests).zip(exact) {
        wanted += exact.len() as u64;
        let Some(Ok(hits)) = served.as_ref().map(|s| &s.out) else {
            wrong += 1;
            continue;
        };
        let valid = hits.len() == exact.len()
            && hits.iter().all(|(id, _)| {
                plan.docs
                    .get(*id as usize)
                    .is_some_and(|d| req.scope.admits(d))
            })
            && hits.windows(2).all(|w| w[0].1 >= w[1].1);
        wrong += u64::from(!valid);
        found += hits.iter().filter(|(id, _)| exact.contains(id)).count() as u64;
    }
    (wrong, found, wanted)
}

pub fn run(args: &Args, plan: &VecPlan) -> Outcome {
    let slots: Vec<Slot> = plan.requests.iter().map(|r| r.slot).collect();
    let waves = slots.len() / WAVE;
    let n = slots.len() as f64;
    let mut out = Outcome {
        requests_per_pass: slots.len(),
        ..Outcome::default()
    };

    // Set-up, timed: the index build, three times for a median.
    let t0 = Instant::now();
    let mut coll = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        coll = Some(build(plan));
        out.setups.push(t0.elapsed().as_secs_f64());
    }
    let coll = coll.expect("built above");
    out.phase("set-up", t0);
    let t0 = Instant::now();
    let exact = exact_top_k(plan);
    out.phase("oracle", t0);

    let (mut found, mut wanted) = (0, 0);
    let mut checked_pass = |out: &mut Outcome, waves, workers, trace| {
        let pass = vec_pass(plan, &slots, &coll, waves, workers, args.seed, trace);
        let (bad, f, w) = check(&pass, plan, &exact[..pass.served.len()]);
        out.attempted += pass.served.len() as u64;
        out.failed += bad;
        found += f;
        wanted += w;
        (pass, bad)
    };

    let t0 = Instant::now();
    let (warm, _) = checked_pass(&mut out, waves, WORKERS, false);
    out.phase("warm-up", t0);
    let t0 = Instant::now();
    let mut refused = warm.refused;
    let mut reconciles = warm.reconciles;
    let mut timed = Measured::new(slots.len(), WORKERS);
    while timed.passes() < MIN_PASSES || timed.seconds() < args.seconds {
        let (pass, bad) = checked_pass(&mut out, waves, WORKERS, false);
        timed.push(&pass, slots.len() as u64 - bad);
        refused += pass.refused;
        reconciles &= pass.reconciles;
    }
    out.timing = timed.timing(&slots);
    out.passes = timed.passes();
    out.phase("measured", t0);

    let t0 = Instant::now();
    if args.layers {
        let noop = run_pass(&slots, waves, WORKERS, args.seed, false, |_| ());
        out.layer("serve.noop_us_per_req", noop.wall_ns as f64 / 1e3 / n);

        llmdm_obs::reset();
        llmdm_obs::enable();
        let (traced, _) = checked_pass(&mut out, TRACED_WAVES.min(waves), 1, true);
        llmdm_obs::disable();
        let report = llmdm_obs::snapshot();
        llmdm_obs::reset();

        let (acct, _) = checked_pass(&mut out, waves, 1, false);
        trace_report(args, &mut out, &report, &traced, &acct.wave_ns);

        let us_where = |plain: bool| {
            let us: Vec<f64> = acct
                .served
                .iter()
                .zip(&plan.requests)
                .filter(|(_, req)| (req.scope == Scope::All) == plain)
                .filter_map(|(s, _)| Some(s.as_ref()?.exec_ns as f64 / 1e3))
                .collect();
            mean(&us)
        };
        let plain: Vec<&[f32]> = plan
            .requests
            .iter()
            .filter(|r| r.scope == Scope::All)
            .map(|r| r.query.as_slice())
            .take(256)
            .collect();
        let t0 = Instant::now();
        for q in &plain {
            std::hint::black_box(coll.search_exact(q, K).expect("flat scan answers"));
        }
        let exact_us = ratio(t0.elapsed().as_secs_f64() * 1e6, plain.len() as f64);

        out.timing_layers();
        out.layer(
            "serve.batch_fill",
            ratio(acct.admitted as f64, acct.batches as f64),
        );
        out.layer(
            "serve.rejected",
            (refused + traced.refused + acct.refused) as f64,
        );
        out.layer("vecdb.ann_us_per_query", us_where(true));
        out.layer("vecdb.filtered_us_per_query", us_where(false));
        out.layer("vecdb.exact_us_per_query", exact_us);
        out.layer("vecdb.ann_speedup", ratio(exact_us, us_where(true)));
        out.layer(
            "vecdb.build_us_per_insert",
            median(&out.setups) * 1e6 / plan.docs.len() as f64,
        );
        out.notes
            .push(format!("flat scan timed on {} plain queries", plain.len()));
    }

    out.phase("layers", t0);

    let recall = ratio(found as f64, wanted as f64);
    out.layer("vecdb.recall_at_10", recall);
    out.notes.push(format!(
        "recall@{K} {recall:.4} over {wanted} exact neighbours, all passes"
    ));
    if recall < RECALL_FLOOR {
        out.broken
            .push(format!("recall@{K} {recall:.3} is below {RECALL_FLOOR}"));
    }
    if refused > 0 {
        out.broken
            .push(format!("{refused} requests were refused by the queue"));
    }
    if !reconciles {
        out.broken.push("ServeStats do not reconcile".into());
    }
    out
}
