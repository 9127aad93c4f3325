//! The benchmark's registry: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric
//! each should move. `perf --list` prints it in the shape of the root
//! `BENCHMARK.json`, and a unit test holds the two equal.

use llmdm_rt::json::Json;

pub const DEFAULT_SEED: u64 = 42;
/// Seconds of measured passes when `--seconds` is not given.
pub const RUN_SECONDS: u64 = 12;
pub const PATH: &str = "crates/bench/src/bin/perf";

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "rel_read",
        why: "SELECTs over PERSIST tables larger than the buffer pool: planner, operators and the per-statement store scan do all the work; cache and model none",
    },
    Workload {
        name: "rel_write",
        why: "auto-commit DML, BEGIN..COMMIT scripts and a few reads over a table that fits the pool: WAL, commit barriers, checkpoints and the whole-table rewrite, so a read gain paid for by writes shows",
    },
    Workload {
        name: "sem_cold",
        why: "LLM_MAP/LLM_FILTER/LLM_JOIN over id windows that sweep unique text: every prompt is new, so model calls, simulated latency and dollars peak and the cache only costs",
    },
    Workload {
        name: "sem_shared",
        why: "the same templates over low-cardinality columns and 20 hot queries: dedup and cache reuse answer almost every prompt, so embedding and the cache probe dominate; bypass pair of sem_cold",
    },
    Workload {
        name: "vec_search",
        why: "k=10 ANN and filtered searches on a shared 8k-document collection: vecdb does all the work and SQL, model and store none; index build is the set-up",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub meaning: &'static str,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "req_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        meaning: "requests completed correctly per wall second of a measured pass (lower-quartile pass)",
    },
    EndToEnd {
        name: "lat_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        meaning: "wave submit to handler return (admission + queue wait + execution), median over requests",
    },
    EndToEnd {
        name: "lat_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        meaning: "the same, 99th percentile (20 of the 2048 requests lie beyond it)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
        meaning: "VmHWM of the process at exit",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "building tables, model stack or index before the warm-up pass",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this one should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const LAT_ALL: &str = "lat_p50_ms, lat_p99_ms on every workload";
const REL: &str = "req_per_s, lat_* on rel_read and rel_write";
const STORE: &str = "req_per_s, lat_* on rel_read (reads) and rel_write (writes); flat on sem_*";
const SHARED: &str = "req_per_s, lat_* on sem_shared; flat on sem_cold";
const COLD: &str = "model.sim_ms_per_req, model.usd_per_kreq on sem_cold";
const VEC: &str = "req_per_s, lat_* on vec_search";

pub const PER_LAYER: [PerLayer; 47] = [
    layer("serve.queue_wait_p50_ms", "ms", Lower, LAT_ALL),
    layer("serve.queue_wait_p99_ms", "ms", Lower, LAT_ALL),
    layer(
        "serve.queue_wait_interactive_p50_ms",
        "ms",
        Lower,
        "must stay below the batch class",
    ),
    layer("serve.queue_wait_batch_p50_ms", "ms", Lower, LAT_ALL),
    layer(
        "serve.worker_busy_ratio",
        "ratio",
        Higher,
        "req_per_s on every workload: the rest is waves draining on one worker",
    ),
    layer(
        "serve.batch_fill",
        "jobs/batch",
        Higher,
        "req_per_s where requests are cheap",
    ),
    layer(
        "serve.rejected",
        "count",
        Lower,
        "failed requests; must read 0",
    ),
    layer(
        "serve.noop_us_per_req",
        "us",
        Lower,
        "req_per_s on vec_search; under 1 % elsewhere",
    ),
    layer("sqlengine.exec_ms_per_req", "ms", Lower, REL),
    layer("sqlengine.relational_ms_per_req", "ms", Lower, REL),
    layer("sqlengine.parse_us_per_stmt", "us", Lower, REL),
    layer("sqlengine.plan_us_per_stmt", "us", Lower, REL),
    layer(
        "sqlengine.prompts_per_input_row",
        "ratio",
        Lower,
        "model.calls_per_req on sem_shared",
    ),
    layer("store.persist_ms_per_req", "ms", Lower, STORE),
    layer("store.vfs_ms_per_req", "ms", Lower, STORE),
    layer("store.bytes_read_per_req", "B", Lower, STORE),
    layer("store.bytes_written_per_req", "B", Lower, STORE),
    layer("store.syncs_per_req", "count", Lower, STORE),
    layer("store.write_amp", "ratio", Lower, "req_per_s on rel_write"),
    layer(
        "store.pool_hit_ratio",
        "ratio",
        Higher,
        "req_per_s on rel_read",
    ),
    layer(
        "store.pool_evictions",
        "count",
        Lower,
        "req_per_s on rel_read",
    ),
    layer("store.wal_bytes_end", "B", Lower, "store.recovery_ms"),
    layer(
        "store.scan_ms_per_table",
        "ms",
        Lower,
        "req_per_s on rel_read",
    ),
    layer(
        "store.rewrite_ms_per_table",
        "ms",
        Lower,
        "req_per_s on rel_write",
    ),
    layer(
        "store.recovery_ms",
        "ms",
        Lower,
        "availability after a crash; no end-to-end metric",
    ),
    layer("semcache.self_ms_per_req", "ms", Lower, SHARED),
    layer("semcache.lookups_per_req", "count", Lower, SHARED),
    layer(
        "semcache.hit_ratio",
        "ratio",
        Higher,
        "model.usd_per_kreq, model.calls_per_req on sem_shared",
    ),
    layer("semcache.entries_end", "count", Lower, "semcache.lookup_us"),
    layer("semcache.lookup_us", "us", Lower, SHARED),
    layer(
        "model.self_us_per_call",
        "us",
        Lower,
        "req_per_s on sem_cold",
    ),
    layer("model.calls_per_req", "calls", Lower, COLD),
    layer("model.sim_ms_per_call", "ms", Lower, COLD),
    layer(
        "model.sim_ms_per_req",
        "ms",
        Lower,
        "what a user would wait for the model on sem_cold; batching should move it",
    ),
    layer(
        "model.usd_per_kreq",
        "USD",
        Lower,
        "the bill on sem_cold; hit_ratio moves it on sem_shared",
    ),
    layer("model.tokens_per_call", "tokens", Lower, COLD),
    layer(
        "model.retries",
        "count",
        Lower,
        "must read 0: no fault plan",
    ),
    layer(
        "model.backoff_ms",
        "ms",
        Lower,
        "must read 0: no fault plan",
    ),
    layer("vecdb.ann_us_per_query", "us", Lower, VEC),
    layer(
        "vecdb.exact_us_per_query",
        "us",
        Lower,
        "the flat scan the ANN index must beat",
    ),
    layer("vecdb.filtered_us_per_query", "us", Lower, VEC),
    layer("vecdb.ann_speedup", "ratio", Higher, VEC),
    layer(
        "vecdb.build_us_per_insert",
        "us",
        Lower,
        "setup_s on vec_search",
    ),
    layer(
        "vecdb.recall_at_10",
        "ratio",
        Higher,
        "guards every vec_search gain; below 0.80 fails the run",
    ),
    layer(
        "obs.overhead_ratio",
        "ratio",
        Lower,
        "traced over accounting wall time; no end-to-end metric",
    ),
    layer("obs.spans_per_req", "count", Lower, "obs.overhead_ratio"),
    layer(
        "obs.trace_sum_ratio",
        "ratio",
        Higher,
        "layer self times over request latency; outside 0.95..1.05 fails the run",
    ),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The registry in the shape of the root `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let text = |s: &str| Json::Str(s.to_string());
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                ]
                .into_iter()
                .map(text)
                .chain([text(&format!("{PATH}/Cargo.toml")), text("--")])
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![text(PATH)])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The human-readable half of `--list`: what each metric means or moves.
pub fn describe() -> String {
    let mut out = String::from("workloads\n");
    for w in &WORKLOADS {
        out.push_str(&format!("  {:<12} {}\n", w.name, w.why));
    }
    out.push_str("end-to-end metrics (bound = share of the parent's median)\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "  {:<38} {:<10} {:<6} {:>4.0} %  {}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound * 100.0,
            m.meaning
        ));
    }
    out.push_str("per-layer metrics -> what each should move\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "  {:<38} {:<10} {:<6} -> {}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn registry_meets_the_benchmark_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(benchmark_json().render().len() < 64 * 1024);
    }

    /// The committed `BENCHMARK.json` is `perf --list`, byte for byte in
    /// content. Skipped where the benchmark is built away from the
    /// repository root.
    #[test]
    fn committed_benchmark_json_matches_the_registry() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../..");
        let Ok(text) = std::fs::read_to_string(root.join("BENCHMARK.json")) else {
            return;
        };
        let committed = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `perf --list > BENCHMARK.json`"
        );
    }
}
