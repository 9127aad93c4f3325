#!/usr/bin/env bash
# Tier-1 verification: the workspace must build and test entirely
# offline (the hermetic-build invariant; see tests/hermetic.rs).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== offline release build"
cargo build --release --offline

echo "== offline test suite"
cargo test -q --offline

echo "== rustdoc builds without a warning (a broken or private intra-doc link fails it)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== every bench target builds (the ungated ones are compiled by neither step above)"
cargo bench --offline -p llmdm-bench --no-run

echo "== trace example (self-validating: spans from >=6 crates, JSON re-parses)"
TRACE_DIR="$(mktemp -d)"
LLMDM_BENCH_DIR="$TRACE_DIR" cargo run -q --release --offline -p llmdm --example trace_pipeline >/dev/null
test -s "$TRACE_DIR/TRACE_pipeline.json" || { echo "trace_pipeline emitted no TRACE_pipeline.json"; exit 1; }
rm -rf "$TRACE_DIR"

echo "== request tracing example (self-validating: cross-thread flame trees stable at 1/2/8 workers, EXPLAIN ANALYZE rows reconcile)"
TRACE_DIR="$(mktemp -d)"
LLMDM_BENCH_DIR="$TRACE_DIR" cargo run -q --release --offline -p llmdm --example request_tracing >/dev/null
test -s "$TRACE_DIR/TRACE_request.json" || { echo "request_tracing emitted no TRACE_request.json"; exit 1; }
test -s "$TRACE_DIR/WINDOW_serve.json" || { echo "request_tracing emitted no WINDOW_serve.json"; exit 1; }
rm -rf "$TRACE_DIR"

# Self-validating examples: each asserts its own invariants and exits
# non-zero when one breaks.
#   chaos_pipeline       quiet/lossy/outage schedules, retry caps, dollar reconciliation, determinism
#   serving_pipeline     admission, class-pure batching, 1-worker byte-identity, shared-cache + dollar reconciliation
#   query_planner        EXPLAIN renders, planner == direct oracle bit-for-bit
#   semantic_sql         LLM operators end-to-end, EXPLAIN estimates, ANALYZE/meter reconciliation, dedup+cache savings
#   crash_recovery       kill matrix at all 3 commit barriers
#   healthcare_pipeline  XML/JSON relationalization, imputation, lake search, DP-SGD (its .expect()s)
#   nl2sql_cost_optimizer  CACHE answers are the cache's reuse hits, each $0; cache counters reconcile
for example in chaos_pipeline serving_pipeline query_planner semantic_sql crash_recovery healthcare_pipeline \
    nl2sql_cost_optimizer; do
    echo "== example $example"
    cargo run -q --release --offline -p llmdm --example "$example" >/dev/null
done

# Gated benches as target:report. Each exits non-zero, after writing its
# report, if a gate fails (llmdm_rt::bench::Criterion::finish).
#   obs_overhead      disabled entry points <=50 ns/call, <5% on the tokenizer loop (interleaved medians)
#   obs_window        windowed observe <5% over plain, disabled window plane <=50 ns/call
#   resil_overhead    no-op fault plan <5%, full resilient stack <25% over a bare completion (interleaved medians)
#   serve_throughput  >=3x ops/sec at 8 workers vs 1; 1-worker == direct loop; dollars reconcile
#   sqlplan           planner >=2x direct on filtered-scan and point-lookup, >=1.2x on top-k; bit-equality;
#                     GROUP BY into 2 000 groups <=3x one into 16 over the same 8 000 rows (interleaved medians);
#                     a one-row BEGIN/INSERT/COMMIT on 10k rows <=1.5x one on 100 rows (interleaved medians), and
#                     <=1.06x through PersistentDb over MemVfs; point SELECT/UPDATE/DELETE at 1k/10k/100k rows reported
#   semsql            dedup >=2x fewer calls and dollars; zero-bill warm cache; bit-equality
#   store_durability  warm scan >=2x cold through the buffer pool; a 1-row commit behind 1 MiB of WAL <=1.5x one on a near-empty WAL (interleaved medians); fixtures read back
#   vecdb_search      HNSW recall@10 floors on uniform and clustered 10k x 64-d (100k too, and HNSW >=5x flat, in a full run)
#   vecdb_hybrid      adaptive <=1.25x the better of pre-/post-filter at 2% and 50% (the pair timed alone); prefilter@2% <= exact scan
#   semcache_bench    probe+lookup+insert (miss) and probe+lookup (hit) each <=1.5x one embedding at a full 256-entry cache;
#                     a verbatim reuse hit through CachedModel::ask <=0.5x (it embeds nothing)
BENCH_DIR="$(mktemp -d)"
for pair in obs_overhead:obs_overhead obs_window:obswindow resil_overhead:resil_overhead \
    serve_throughput:serve sqlplan:sqlplan semsql:semsql store_durability:store \
    vecdb_search:vecdb_search vecdb_hybrid:vecdb_hybrid semcache_bench:semcache; do
    target="${pair%%:*}" report="BENCH_${pair##*:}.json"
    echo "== gated bench $target"
    LLMDM_BENCH_FAST=1 LLMDM_BENCH_DIR="$BENCH_DIR" cargo bench --offline -p llmdm-bench --bench "$target"
    test -s "$BENCH_DIR/$report" || { echo "$target emitted no $report"; exit 1; }
done
rm -rf "$BENCH_DIR"

echo "== perf benchmark package (own workspace: its unit tests + the --fast smoke over all five workloads, so a library change that breaks its build or output checks fails here)"
CARGO_TARGET_DIR="$PWD/target/perf" cargo test --release --offline --manifest-path crates/bench/src/bin/perf/Cargo.toml

echo "verify: OK"
