#!/usr/bin/env bash
# Tier-1 verification: the workspace must build and test entirely
# offline (the hermetic-build invariant; see tests/hermetic.rs).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== offline release build"
cargo build --release --offline

echo "== offline test suite"
cargo test -q --offline

echo "== trace example (self-validating: spans from >=6 crates, JSON re-parses)"
TRACE_DIR="$(mktemp -d)"
LLMDM_BENCH_DIR="$TRACE_DIR" cargo run -q --release --offline -p llmdm --example trace_pipeline >/dev/null
test -s "$TRACE_DIR/TRACE_pipeline.json" || { echo "trace_pipeline emitted no TRACE_pipeline.json"; exit 1; }
rm -rf "$TRACE_DIR"

echo "== obs overhead bench (pins the disabled-recorder cost + <5% tokenizer overhead)"
BENCH_DIR="$(mktemp -d)"
LLMDM_BENCH_FAST=1 LLMDM_BENCH_DIR="$BENCH_DIR" cargo bench --offline -p llmdm-bench --bench obs_overhead
rm -rf "$BENCH_DIR"

echo "== chaos pipeline (self-validating: quiet/lossy/outage schedules, retry caps, dollar reconciliation, determinism)"
cargo run -q --release --offline -p llmdm --example chaos_pipeline >/dev/null

echo "== resil overhead bench (pins the no-fault fast path <5% over a bare completion)"
BENCH_DIR="$(mktemp -d)"
LLMDM_BENCH_FAST=1 LLMDM_BENCH_DIR="$BENCH_DIR" cargo bench --offline -p llmdm-bench --bench resil_overhead
rm -rf "$BENCH_DIR"

echo "== serving pipeline (self-validating: admission, class-pure batching, 1-worker byte-identity, sharded-cache + dollar reconciliation)"
cargo run -q --release --offline -p llmdm --example serving_pipeline >/dev/null

echo "== multi-tenant cluster example (self-validating: rendezvous routing, cluster-wide quota reconciliation, cross-node cache invariant, streaming identical at 1/2/8 workers, outage shedding)"
cargo run -q --release --offline -p llmdm --example multi_tenant_cluster >/dev/null

echo "== serve throughput bench (pins >=3x ops/sec at 8 workers vs 1 + concurrent dollar reconciliation; saturation sweep vs offered load and tenant mix)"
BENCH_DIR="$(mktemp -d)"
LLMDM_BENCH_FAST=1 LLMDM_BENCH_DIR="$BENCH_DIR" cargo bench --offline -p llmdm-bench --bench serve_throughput
test -s "$BENCH_DIR/BENCH_serve.json" || { echo "serve_throughput emitted no BENCH_serve.json"; exit 1; }
rm -rf "$BENCH_DIR"

echo "== request tracing example (self-validating: cross-thread flame trees stable at 1/2/8 workers, EXPLAIN ANALYZE rows reconcile)"
TRACE_DIR="$(mktemp -d)"
LLMDM_BENCH_DIR="$TRACE_DIR" cargo run -q --release --offline -p llmdm --example request_tracing >/dev/null
test -s "$TRACE_DIR/TRACE_request.json" || { echo "request_tracing emitted no TRACE_request.json"; exit 1; }
test -s "$TRACE_DIR/WINDOW_serve.json" || { echo "request_tracing emitted no WINDOW_serve.json"; exit 1; }
rm -rf "$TRACE_DIR"

echo "== obs window bench (pins windowed recording <5% over plain observe + disabled-path budget)"
BENCH_DIR="$(mktemp -d)"
LLMDM_BENCH_FAST=1 LLMDM_BENCH_DIR="$BENCH_DIR" cargo bench --offline -p llmdm-bench --bench obs_window
test -s "$BENCH_DIR/BENCH_obswindow.json" || { echo "obs_window emitted no BENCH_obswindow.json"; exit 1; }
rm -rf "$BENCH_DIR"

echo "== query planner example (self-validating: EXPLAIN renders, planner == direct oracle bit-for-bit)"
cargo run -q --release --offline -p llmdm --example query_planner >/dev/null

echo "== sqlplan bench (pins planner >=1.2x over direct exec on filtered-scan and top-k; bit-equality gate)"
BENCH_DIR="$(mktemp -d)"
LLMDM_BENCH_FAST=1 LLMDM_BENCH_DIR="$BENCH_DIR" cargo bench --offline -p llmdm-bench --bench sqlplan
test -s "$BENCH_DIR/BENCH_sqlplan.json" || { echo "sqlplan emitted no BENCH_sqlplan.json"; exit 1; }
rm -rf "$BENCH_DIR"

echo "== semantic sql example (self-validating: LLM operators end-to-end, EXPLAIN estimates, ANALYZE/meter reconciliation, dedup+cache savings, planner == direct)"
cargo run -q --release --offline -p llmdm --example semantic_sql >/dev/null

echo "== semsql bench (pins >=2x fewer model calls + dollars on duplicate-heavy LLM_MAP via dedup; zero-bill warm cache)"
BENCH_DIR="$(mktemp -d)"
LLMDM_BENCH_FAST=1 LLMDM_BENCH_DIR="$BENCH_DIR" cargo bench --offline -p llmdm-bench --bench semsql
test -s "$BENCH_DIR/BENCH_semsql.json" || { echo "semsql emitted no BENCH_semsql.json"; exit 1; }
rm -rf "$BENCH_DIR"

echo "== crash recovery example (self-validating: kill matrix at all 3 commit barriers, warm-cache restart)"
cargo run -q --release --offline -p llmdm --example crash_recovery >/dev/null

echo "== store durability bench (pins warm scan >=2x cold through the buffer pool; recovery vs WAL length reported)"
BENCH_DIR="$(mktemp -d)"
LLMDM_BENCH_FAST=1 LLMDM_BENCH_DIR="$BENCH_DIR" cargo bench --offline -p llmdm-bench --bench store_durability
test -s "$BENCH_DIR/BENCH_store.json" || { echo "store_durability emitted no BENCH_store.json"; exit 1; }
rm -rf "$BENCH_DIR"

echo "== perf benchmark package (own workspace: its unit tests + the --fast smoke over all five workloads, so a library change that breaks its build or output checks fails here)"
CARGO_TARGET_DIR="$PWD/target/perf" cargo test --release --offline --manifest-path crates/bench/src/bin/perf/Cargo.toml

echo "verify: OK"
