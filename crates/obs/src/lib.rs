//! # llmdm-obs — hermetic tracing + metrics substrate
//!
//! The paper argues every §III mechanism (cascade routing, query
//! decomposition, semantic caching) in terms of *measured*
//! cost/latency/accuracy trade-offs (Tables I–III). This crate is the
//! cross-cutting layer that makes those measurements first-class for the
//! whole Figure-1 pipeline: a single run of `DataManager` (or any repro
//! binary) can answer *"where did this run spend its tokens, dollars and
//! milliseconds?"* without each crate growing its own siloed counters.
//!
//! Five pieces:
//!
//! 1. **Spans** ([`span`], [`Span`]): hierarchical RAII timing regions
//!    with key/value fields (`model`, `tokens_in`, `cost_usd`,
//!    `cache=hit|miss`, …). Parentage is tracked per thread — a span
//!    opened on thread T is a child of the innermost span open *on T* —
//!    unless a trace context overrides it (next item).
//! 2. **Trace contexts** ([`TraceContext`]): request-scoped `(trace id,
//!    parent span)` pairs that ride through queues as plain data and are
//!    adopted on worker threads via an RAII [`TraceContext::attach`]
//!    guard, so one request's spans stitch into a single flame tree even
//!    when the request crosses the serving layer's thread pool.
//!    Reassembly: [`Report::trace_tree`] / [`Report::render_trace`].
//! 3. **Metrics** ([`counter_add`], [`gauge_set`], [`observe`]):
//!    monotonic counters, gauges, and fixed-bucket log-scale histograms
//!    reporting count/mean/p50/p95/p99/max.
//! 4. **Windowed metrics** ([`window`], [`Window`]): fixed-memory rings
//!    of time-bucketed histograms/counters keyed by `(metric, class)` —
//!    rolling p50/p95/p99 over the last few seconds, the SLO substrate
//!    for per-class QoS decisions.
//! 5. **Exporters** ([`Report::to_json`], [`Report::render_text`],
//!    [`Report::write_window`]): machine-readable JSON (via
//!    `llmdm_rt::json`, in the spirit of `BENCH_*.json`), a
//!    human-readable flame-style text tree, and the `WINDOW_*.json`
//!    SLO document.
//!
//! ## Cost model
//!
//! The recorder is **disabled by default**. Every public entry point
//! checks one relaxed atomic load and returns immediately when disabled,
//! so instrumentation on hot paths (tokenizer loops, flat-index scans)
//! costs roughly an atomic load — proven by the `obs_overhead` bench and
//! pinned in `scripts/verify.sh`. There is no `#[cfg]` gating: the same
//! binary can flip recording on and off at runtime ([`enable`] /
//! [`disable`]).
//!
//! ## Naming convention
//!
//! Metric and span names are `crate.subsystem.metric`
//! (e.g. `model.complete`, `semcache.lookup.miss`,
//! `vecdb.search.distance_comps`). See DESIGN.md §8.
//!
//! ## Isolation for tests
//!
//! All state lives on a [`Recorder`] instance; the free functions
//! delegate to a process-wide [`global`] recorder. Tests that must not
//! interfere with parallel tests construct their own `Recorder`.

mod export;
mod hist;
mod recorder;
mod trace;
mod window;

pub use export::{MetricsSummary, Report, SpanNode};
pub use hist::{Histogram, HistogramSummary};
// The run-metadata stamp `Report::write_trace`/`write_window` share with
// the bench harness.
pub use llmdm_rt::meta::{git_rev, run_meta, timestamp_unix};
pub use recorder::{FieldValue, Recorder, Span, SpanRecord, WindowHandle};
pub use trace::{current_trace_id, TraceContext, TraceGuard};
pub use window::{Window, WindowBucket, WindowConfig, WindowSummary};

use std::sync::OnceLock;

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// The process-wide recorder behind the free functions.
pub fn global() -> &'static Recorder {
    GLOBAL.get_or_init(Recorder::new)
}

/// Enable the global recorder (idempotent).
pub fn enable() {
    global().enable();
}

/// Disable the global recorder (idempotent). Already-open spans still
/// record on drop; new entry points become no-ops.
pub fn disable() {
    global().disable();
}

/// Whether the global recorder is currently recording.
pub fn is_enabled() -> bool {
    global().is_enabled()
}

/// Clear all recorded spans and metrics on the global recorder
/// (enabled/disabled state is preserved).
pub fn reset() {
    global().reset();
}

/// Open a span on the global recorder. Returns an RAII guard that
/// records the span (duration, fields, parentage) when dropped. When the
/// recorder is disabled this is a no-op costing one atomic load.
#[must_use = "a span records when its guard drops; binding to `_` drops immediately"]
pub fn span(name: &str) -> Span<'static> {
    global().span(name)
}

/// Add `delta` to the monotonic counter `name` on the global recorder.
pub fn counter_add(name: &str, delta: f64) {
    global().counter_add(name, delta);
}

/// Read a counter's current value from the global recorder (0.0 if the
/// counter was never bumped).
pub fn counter_value(name: &str) -> f64 {
    global().counter_value(name)
}

/// Set gauge `name` to `value` on the global recorder.
pub fn gauge_set(name: &str, value: f64) {
    global().gauge_set(name, value);
}

/// Record one observation into log-scale histogram `name` on the global
/// recorder.
pub fn observe(name: &str, value: f64) {
    global().observe(name, value);
}

/// Set the ring geometry for windows created after this call on the
/// global recorder.
pub fn set_window_config(config: WindowConfig) {
    global().set_window_config(config);
}

/// Get (or create) the `(name, class)` window on the global recorder and
/// return a registry-free recording handle — fetch once per worker/hot
/// loop, then record through the handle.
pub fn window(name: &str, class: &str) -> WindowHandle<'static> {
    global().window(name, class)
}

/// One-shot windowed observation on the global recorder (cold-path
/// convenience; hot paths should cache a [`WindowHandle`]).
pub fn window_observe(name: &str, class: &str, value: f64) {
    global().window_observe(name, class, value);
}

/// One-shot windowed counter bump on the global recorder.
pub fn window_counter_add(name: &str, class: &str, delta: f64) {
    global().window_counter_add(name, class, delta);
}

/// Snapshot everything recorded so far on the global recorder.
pub fn snapshot() -> Report {
    global().snapshot()
}
