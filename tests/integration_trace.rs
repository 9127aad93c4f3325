//! Cross-thread trace propagation, end to end.
//!
//! One `#[test]` on purpose: the obs recorder is process-global, and
//! parallel test threads would interleave spans into each other's
//! snapshots. The single test runs a fixed serving workload at 1, 2,
//! and 8 workers (resetting the recorder between runs — the seed is
//! fixed, so trace ids repeat) and asserts the reassembled flame tree
//! per request is *identical* across worker counts: same trace ids,
//! same span names, same parentage. It also checks that every span in a
//! request's tree carries the request's trace id and that the spans
//! genuinely crossed threads.

use std::collections::BTreeSet;

use llmdm::obs::{self, Report, TraceContext, WindowConfig};
use llmdm::serve::{serve_requests, ServeConfig, ServeRequest};

const SEED: u64 = 0xA11CE;
const JOBS: usize = 8;

/// Fixed workload: JOBS requests over two classes; the handler adopts
/// each job's trace, does a unit of "work" under an `app.handle` span,
/// and runs a downstream step on a freshly spawned thread stitched in
/// via [`TraceContext::capture`].
fn run_workload(workers: usize) -> Report {
    obs::enable();
    obs::reset();
    obs::set_window_config(WindowConfig::default());

    let config = ServeConfig { workers, queue_capacity: 64, max_batch: 4, seed: SEED, ..Default::default() };
    let requests: Vec<ServeRequest<u64>> = (0..JOBS as u64)
        .map(|i| {
            ServeRequest::builder("default", i)
                .batch_key(if i % 2 == 0 { "alpha" } else { "beta" })
                .build()
                .expect("valid request")
        })
        .collect();

    let run = serve_requests(&config, requests, |_class, batch| {
        batch
            .iter()
            .map(|job| {
                let _g = job.trace.attach();
                let mut span = obs::span("app.handle");
                span.field("job", job.id);
                let ctx = TraceContext::capture();
                let payload = job.payload;
                let post = std::thread::spawn(move || {
                    let _g = ctx.attach();
                    let _s = obs::span("app.postprocess");
                    payload * 2
                });
                Ok::<u64, String>(post.join().expect("postprocess thread"))
            })
            .collect()
    });
    assert_eq!(run.stats.admitted, JOBS as u64);
    obs::snapshot()
}

#[test]
fn flame_tree_is_identical_across_worker_counts() {
    let runs: Vec<(usize, Report)> =
        [1usize, 2, 8].iter().map(|&w| (w, run_workload(w))).collect();

    // Same trace ids everywhere — they derive from (seed, submission
    // index), never from worker timing.
    let ids = runs[0].1.trace_ids();
    assert_eq!(ids.len(), JOBS, "one trace per request");
    for (w, report) in &runs {
        assert_eq!(&report.trace_ids(), &ids, "{w} workers");
    }

    for &id in &ids {
        // Identical canonical shape (names + parentage) at every worker
        // count.
        let shapes: BTreeSet<String> =
            runs.iter().map(|(_, r)| r.trace_canonical(id)).collect();
        assert_eq!(
            shapes.len(),
            1,
            "trace {id:#x} shape depends on worker count: {shapes:?}"
        );
        let shape = shapes.into_iter().next().unwrap();
        assert_eq!(shape, "serve.admit(app.handle(app.postprocess))");

        for (w, report) in &runs {
            // Single root per request, rooted at admission.
            let tree = report.trace_tree(id);
            assert_eq!(tree.len(), 1, "{w} workers");
            assert_eq!(tree[0].span.name, "serve.admit");

            // Every span in the tree carries the trace id, and the
            // parentage chain is admit → handle → postprocess.
            let spans: Vec<_> = report.spans.iter().filter(|s| s.trace == id).collect();
            assert_eq!(spans.len(), 3, "{w} workers");
            let admit = spans.iter().find(|s| s.name == "serve.admit").unwrap();
            let handle = spans.iter().find(|s| s.name == "app.handle").unwrap();
            let post = spans.iter().find(|s| s.name == "app.postprocess").unwrap();
            assert_eq!(handle.parent, Some(admit.id));
            assert_eq!(post.parent, Some(handle.id));

            // The postprocess span always runs on its own spawned thread;
            // under multiple workers the three spans span ≥ 2 threads
            // even if a worker reuses the admission thread's ordinal.
            assert_ne!(post.thread, handle.thread, "{w} workers");
        }
    }

    // Under 8 workers at least one request's spans cover 3 distinct
    // threads (admission thread, worker thread, spawned thread).
    let (_, wide) = runs.last().unwrap();
    let max_threads = ids
        .iter()
        .map(|&id| {
            wide.spans
                .iter()
                .filter(|s| s.trace == id)
                .map(|s| s.thread)
                .collect::<BTreeSet<u64>>()
                .len()
        })
        .max()
        .unwrap();
    assert_eq!(max_threads, 3, "spans from admission, worker, and spawned threads");

    // The render carries the trace id and the thread count.
    let text = wide.render_trace(ids[0]);
    assert!(text.starts_with(&format!("TRACE {:#018x}", ids[0])), "{text}");
    assert!(text.contains("span(s) across"), "{text}");
}
