//! Request-scoped tracing across threads, plus `EXPLAIN ANALYZE`.
//!
//! Run with `cargo run -p llmdm --example request_tracing`.
//!
//! Drives a fixed serving workload through [`llmdm::serve::serve_requests`]
//! at 1, 2, and 8 workers. Each request's spans come from at least three
//! threads — admission on the caller thread, handling on a worker
//! thread, and a post-processing step on a thread the handler spawns
//! itself (stitched in via [`TraceContext::capture`]) — and the example
//! reassembles them into one flame tree per request with a trace id
//! derived only from `(seed, submission index)`.
//!
//! The example validates its own output and exits non-zero on failure:
//!
//! * every request's reassembled tree has the same canonical shape at
//!   1, 2, and 8 workers (worker count never changes a trace);
//! * each tree is a single root (`serve.admit`) whose spans cover ≥ 3
//!   distinct threads and all carry the request's trace id;
//! * windowed per-class telemetry (batch latency, queue depth, dollars)
//!   shows up in the snapshot with rolling quantiles;
//! * `EXPLAIN ANALYZE` prints per-operator rows + timing whose root
//!   `rows_out` reconciles exactly with the executed result.
//!
//! Writes `TRACE_request.json` and `WINDOW_serve.json` into
//! `LLMDM_BENCH_DIR` (default `.`). `scripts/verify.sh` runs this as a
//! smoke test.

use std::collections::BTreeSet;

use llmdm::obs::{self, Report, TraceContext, WindowConfig};
use llmdm::serve::{record_job_cost, serve_requests, ServeConfig, ServeRequest};
use llmdm::sql::{Database, Value};

const SEED: u64 = 42;
const JOBS: usize = 6;

fn main() {
    // ---- 1. Same workload, three worker counts. ----------------------
    let runs: Vec<(usize, Report)> =
        [1usize, 2, 8].iter().map(|&w| (w, run_workload(w))).collect();

    let ids = runs[0].1.trace_ids();
    assert_eq!(ids.len(), JOBS, "one trace per admitted request");
    for (w, report) in &runs {
        assert_eq!(report.trace_ids(), ids, "trace ids are worker-count independent ({w} workers)");
    }

    // Canonical tree shape per request must not depend on worker count.
    for &id in &ids {
        let shapes: BTreeSet<String> =
            runs.iter().map(|(_, r)| r.trace_canonical(id)).collect();
        assert_eq!(shapes.len(), 1, "trace {id:#x} differs across worker counts: {shapes:?}");
    }

    // ---- 2. Inspect one request under 8 workers. ---------------------
    let (_, report) = runs.last().unwrap();
    for &id in &ids {
        let tree = report.trace_tree(id);
        assert_eq!(tree.len(), 1, "one root per request");
        assert_eq!(tree[0].span.name, "serve.admit", "trace roots at admission");
        let spans: Vec<_> = report.spans.iter().filter(|s| s.trace == id).collect();
        assert!(spans.iter().all(|s| s.trace == id));
        assert!(spans.len() >= 3, "admit + handle + postprocess, got {}", spans.len());
        let threads: BTreeSet<u64> = spans.iter().map(|s| s.thread).collect();
        assert!(threads.len() >= 3, "spans from ≥3 threads, got {}", threads.len());
    }
    println!("{}", report.render_trace(ids[0]));

    // Windowed per-class telemetry made it into the snapshot.
    for metric in ["serve.batch_latency_ms", "serve.queue_depth", "serve.dollars_usd"] {
        let classes = report
            .windows
            .get(metric)
            .unwrap_or_else(|| panic!("window metric {metric} missing"));
        assert!(classes.contains_key("sql") && classes.contains_key("summarize"), "{metric}");
    }
    let lat = &report.windows["serve.batch_latency_ms"]["sql"];
    assert!(lat.hist.count > 0 && lat.hist.p99 >= lat.hist.p50, "rolling quantiles populated");

    // ---- 3. Export. --------------------------------------------------
    let dir = llmdm::rt::bench::report_dir();
    let tpath = report.write_trace(&dir, "request", Some(SEED), &[]).expect("trace written");
    let wpath = report.write_window(&dir, "serve", Some(SEED)).expect("window written");
    println!("wrote {}", tpath.display());
    println!("wrote {}", wpath.display());

    // ---- 4. EXPLAIN ANALYZE reconciles with the executed result. -----
    explain_analyze_demo();

    println!(
        "request tracing validated: {} traces × {} worker configs, {} spans total",
        ids.len(),
        runs.len(),
        report.spans.len()
    );
}

/// Run the fixed workload through `workers` serve workers and snapshot
/// the recorder. The recorder is reset first so each run sees only its
/// own spans (trace ids repeat across runs because the seed does).
fn run_workload(workers: usize) -> Report {
    obs::enable();
    obs::reset();
    obs::set_window_config(WindowConfig { bucket_ms: 500, nbuckets: 8 });

    let config = ServeConfig { workers, queue_capacity: 64, max_batch: 4, seed: SEED, ..Default::default() };
    let requests: Vec<ServeRequest<String>> = (0..JOBS)
        .map(|i| {
            ServeRequest::builder("default", format!("request-{i}"))
                .batch_key(if i % 2 == 0 { "sql" } else { "summarize" })
                .build()
                .expect("valid request")
        })
        .collect();

    let run = serve_requests(&config, requests, |class, batch| {
        batch
            .iter()
            .map(|job| {
                // Adopt the request's trace on this worker thread: spans
                // below nest under its `serve.admit` root.
                let _g = job.trace.attach();
                let mut span = obs::span("app.handle");
                span.field("job", job.id);

                // Downstream stage on a thread *we* spawn — capture the
                // ambient context and re-attach it over there.
                let ctx = TraceContext::capture();
                let payload = job.payload.clone();
                let post = std::thread::spawn(move || {
                    let _g = ctx.attach();
                    let _s = obs::span("app.postprocess");
                    payload.len() as u64
                });
                let n = post.join().expect("postprocess thread");
                record_job_cost(class, 1e-4 * n as f64);
                Ok::<u64, String>(n)
            })
            .collect()
    });

    assert_eq!(run.stats.admitted, JOBS as u64, "fixture fits the queue");
    assert_eq!(run.results.len(), JOBS);
    obs::snapshot()
}

/// `EXPLAIN ANALYZE` a join query and check the annotated root operator's
/// `rows_out` (and the trailing `result:` line) against the rows the
/// plain query actually returns.
fn explain_analyze_demo() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE stadium (stadium_id INT, name TEXT, capacity INT); \
         CREATE TABLE concert (concert_id INT, stadium_id INT, year INT, attendance INT); \
         INSERT INTO stadium VALUES \
           (1, 'Balmoor', 4000), (2, 'Glebe Park', 4000), \
           (3, 'Hampden Park', 52500), (4, 'Recreation Park', 3960); \
         INSERT INTO concert VALUES \
           (1, 3, 2014, 41000), (2, 3, 2015, 50200), (3, 1, 2014, 2800), \
           (4, 2, 2016, NULL), (5, 4, 2015, 1200)",
    )
    .expect("fixture loads");

    let sql = "SELECT s.name, c.year FROM stadium s \
               JOIN concert c ON s.stadium_id = c.stadium_id \
               WHERE c.attendance > 2000 ORDER BY c.year";
    let executed = db.execute(sql).expect("query runs").rows.len();

    let rs = db.execute(&format!("EXPLAIN ANALYZE {sql}")).expect("EXPLAIN ANALYZE runs");
    println!("EXPLAIN ANALYZE {sql}");
    let mut lines: Vec<String> = Vec::new();
    for row in &rs.rows {
        match &row[0] {
            Value::Str(line) => {
                println!("  {line}");
                lines.push(line.clone());
            }
            other => panic!("non-string plan row: {other:?}"),
        }
    }
    println!();

    let root = &lines[1]; // line 0 is the "physical (analyzed):" header
    let rows_out: usize = root
        .split("rows_out=")
        .nth(1)
        .and_then(|t| t.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no rows_out on root operator: {root}"));
    assert_eq!(rows_out, executed, "root operator rows reconcile with the result");
    assert_eq!(
        lines.last().map(String::as_str),
        Some(format!("result: {executed} row(s)").as_str()),
        "trailing result line reconciles"
    );
    assert!(lines.iter().any(|l| l.contains("time=")), "operators carry timings");
}
