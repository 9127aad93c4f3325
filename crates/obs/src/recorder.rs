//! The thread-safe recorder: span collection + metric registry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::export::Report;
use crate::hist::Histogram;
use crate::window::{Window, WindowConfig, WindowSummary};

/// A typed span field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string field (e.g. `model=sim-large`, `cache=hit`).
    Str(String),
    /// An unsigned integer field (e.g. `tokens_in=214`).
    U64(u64),
    /// A signed integer field.
    I64(i64),
    /// A float field (e.g. `cost_usd=0.0123`).
    F64(f64),
    /// A boolean field (e.g. `accepted=true`).
    Bool(bool),
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<f32> for FieldValue {
    fn from(v: f32) -> Self {
        FieldValue::F64(v as f64)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::Str(s) => f.write_str(s),
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => {
                if v.abs() < 0.01 && *v != 0.0 {
                    write!(f, "{v:.5}")
                } else {
                    write!(f, "{v:.3}")
                }
            }
            FieldValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id (monotone per recorder, starts at 1).
    pub id: u64,
    /// Parent span id, if this span was opened while another span was
    /// open on the same thread — or while a [`crate::TraceContext`] with
    /// a parent span was attached (cross-thread parentage).
    pub parent: Option<u64>,
    /// Trace id stamped from the attached [`crate::TraceContext`]
    /// (0 = the span belongs to no request-scoped trace).
    pub trace: u64,
    /// Ordinal of the opening thread (stable within a process).
    pub thread: u64,
    /// Span name (`crate.subsystem.op`).
    pub name: String,
    /// Start offset from the recorder's epoch, in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Key/value fields in insertion order.
    pub fields: Vec<(String, FieldValue)>,
}

struct State {
    spans: Vec<SpanRecord>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
    /// Windowed metrics: metric name → class label → window. Behind
    /// `Arc<Mutex<_>>` so a [`WindowHandle`] can record without touching
    /// this registry (one map lookup at handle creation, never per call).
    windows: BTreeMap<String, BTreeMap<String, Arc<Mutex<Window>>>>,
    window_config: WindowConfig,
}

/// Number of independent counter locks. Counters are the hottest metric
/// under the concurrent serving layer (every worker bumps
/// `model.calls`/`serve.*` per request), so they live outside the main
/// state mutex in hash-striped shards: two workers bumping different
/// counters never contend, and bumping the *same* counter contends only
/// on its own stripe, not on span collection.
const COUNTER_STRIPES: usize = 8;

fn counter_stripe(name: &str) -> usize {
    // Stable across runs so tests can reason about striping.
    (llmdm_rt::hash::fnv1a_str(name) % COUNTER_STRIPES as u64) as usize
}

/// A thread-safe span + metric recorder.
///
/// Prefer the crate-level free functions (which use the process-wide
/// [`crate::global`] recorder); construct your own instance only for
/// isolation (tests, nested tooling).
pub struct Recorder {
    enabled: AtomicBool,
    next_id: AtomicU64,
    epoch: Instant,
    state: Mutex<State>,
    counters: [Mutex<BTreeMap<String, f64>>; COUNTER_STRIPES],
    /// Amortized millisecond clock for windowed metrics: `Instant::now`
    /// is re-sampled only every [`CLOCK_SAMPLE_INTERVAL`] per-thread
    /// ticks (see [`CLOCK_TICKS`]); in between, window records reuse the
    /// cached value. Bucket widths are hundreds of milliseconds, so the
    /// staleness is invisible — and the hot path pays a `Cell` bump and
    /// one relaxed load instead of a syscall-backed clock read.
    clock_ms: AtomicU64,
}

/// How many `now_ms` ticks reuse the cached clock before re-sampling
/// `Instant::now`.
const CLOCK_SAMPLE_INTERVAL: u64 = 32;

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("enabled", &self.is_enabled()).finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// Innermost open span id on this thread (0 = none). Shared across
    /// recorder instances: interleaving spans of *different* recorders on
    /// one thread is unsupported (parentage would cross recorders).
    static CURRENT_SPAN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Per-thread tick counter for the amortized window clock: a plain
    /// `Cell` bump instead of a shared atomic RMW, so windowed recording
    /// on N threads never bounces a cache line just to count calls.
    /// Shared across recorder instances (it only paces *when* each
    /// recorder re-samples `Instant::now`, never what it reads).
    static CLOCK_TICKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static THREAD_ORD: u64 = {
        static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
        NEXT_THREAD.fetch_add(1, Ordering::Relaxed)
    };
}

fn thread_ord() -> u64 {
    THREAD_ORD.with(|t| *t)
}

/// This thread's innermost open span id (0 = none). Used by
/// [`crate::TraceContext::capture`] to snapshot a parent for helper
/// threads.
pub(crate) fn current_span_id() -> u64 {
    CURRENT_SPAN.with(|c| c.get())
}

/// Overwrite this thread's parent-span pointer, returning the previous
/// value. The cross-thread half of [`crate::TraceContext::attach`]: spans
/// opened afterwards parent to `id` even though it was opened on another
/// thread. Callers must restore the returned value (the trace guard does).
pub(crate) fn set_current_span(id: u64) -> u64 {
    CURRENT_SPAN.with(|c| c.replace(id))
}

impl Recorder {
    /// A fresh, **disabled** recorder.
    pub fn new() -> Self {
        Recorder {
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            state: Mutex::new(State {
                spans: Vec::new(),
                gauges: BTreeMap::new(),
                hists: BTreeMap::new(),
                windows: BTreeMap::new(),
                window_config: WindowConfig::default(),
            }),
            counters: std::array::from_fn(|_| Mutex::new(BTreeMap::new())),
            clock_ms: AtomicU64::new(0),
        }
    }

    /// Start recording.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stop recording (already-open spans still record on drop).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether the recorder is currently recording. This is the one
    /// atomic load every disabled-path entry point pays.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Lock the state, recovering from poison (a panicking span drop
    /// leaves the collections merely stale, never structurally broken).
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Clear all recorded data; keeps the enabled/disabled state.
    /// [`WindowHandle`]s created before the reset keep recording into
    /// their detached windows, which no longer appear in snapshots —
    /// re-create handles after a reset.
    pub fn reset(&self) {
        let mut s = self.lock();
        s.spans.clear();
        s.gauges.clear();
        s.hists.clear();
        s.windows.clear();
        drop(s);
        for stripe in &self.counters {
            stripe.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }

    /// Open a span. No-op (one atomic load) when disabled.
    #[must_use = "a span records when its guard drops; binding to `_` drops immediately"]
    pub fn span<'r>(&'r self, name: &str) -> Span<'r> {
        if !self.is_enabled() {
            return Span { recorder: self, inner: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT_SPAN.with(|c| {
            let p = c.get();
            c.set(id);
            p
        });
        Span {
            recorder: self,
            inner: Some(OpenSpan {
                id,
                parent: if parent == 0 { None } else { Some(parent) },
                trace: crate::trace::current_trace_id(),
                name: name.to_string(),
                start: Instant::now(),
                fields: Vec::new(),
            }),
        }
    }

    /// Add `delta` to the monotonic counter `name`. Safe (and cheap)
    /// under concurrent increment: only the counter's own stripe is
    /// locked, never the span/gauge/histogram state.
    #[inline]
    pub fn counter_add(&self, name: &str, delta: f64) {
        if !self.is_enabled() {
            return;
        }
        let mut stripe =
            self.counters[counter_stripe(name)].lock().unwrap_or_else(|e| e.into_inner());
        match stripe.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                stripe.insert(name.to_string(), delta);
            }
        }
    }

    /// Current counter value (0.0 if never bumped).
    pub fn counter_value(&self, name: &str) -> f64 {
        self.counters[counter_stripe(name)]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Merge every stripe into one sorted map (snapshot order is
    /// identical to the pre-striping single-map layout).
    fn merged_counters(&self) -> BTreeMap<String, f64> {
        let mut merged = BTreeMap::new();
        for stripe in &self.counters {
            for (k, v) in stripe.lock().unwrap_or_else(|e| e.into_inner()).iter() {
                merged.insert(k.clone(), *v);
            }
        }
        merged
    }

    /// Set gauge `name` to `value`.
    #[inline]
    pub fn gauge_set(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        self.lock().gauges.insert(name.to_string(), value);
    }

    /// Record one observation into log-scale histogram `name`.
    #[inline]
    pub fn observe(&self, name: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        let mut s = self.lock();
        match s.hists.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::new();
                h.record(value);
                s.hists.insert(name.to_string(), h);
            }
        }
    }

    /// Milliseconds since the recorder's epoch, on the amortized clock
    /// (exact every [`CLOCK_SAMPLE_INTERVAL`] calls, cached in between).
    pub fn now_ms(&self) -> u64 {
        let t = CLOCK_TICKS.with(|c| {
            let t = c.get();
            c.set(t.wrapping_add(1));
            t
        });
        if t % CLOCK_SAMPLE_INTERVAL == 0 {
            let ms = self.epoch.elapsed().as_millis() as u64;
            self.clock_ms.store(ms, Ordering::Relaxed);
            ms
        } else {
            self.clock_ms.load(Ordering::Relaxed)
        }
    }

    /// Set the ring geometry used for windows created *after* this call
    /// (existing windows keep their geometry).
    pub fn set_window_config(&self, config: WindowConfig) {
        self.lock().window_config = config;
    }

    /// Get (or create) the window for `(name, class)` and return a
    /// registry-free recording handle. Call once per hot loop / worker,
    /// not per observation: the handle records with one mutex lock and no
    /// map lookup, which is what keeps windowed recording within a few
    /// percent of plain [`Recorder::observe`] (pinned by the `obs_window`
    /// bench).
    pub fn window(&self, name: &str, class: &str) -> WindowHandle<'_> {
        let mut s = self.lock();
        let config = s.window_config;
        let win = s
            .windows
            .entry(name.to_string())
            .or_default()
            .entry(class.to_string())
            .or_insert_with(|| Arc::new(Mutex::new(Window::new(config))))
            .clone();
        drop(s);
        WindowHandle { recorder: self, win }
    }

    /// One-shot windowed observation (registry lookup per call — fine for
    /// cold paths; hot paths should hold a [`WindowHandle`]).
    #[inline]
    pub fn window_observe(&self, name: &str, class: &str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        self.window(name, class).observe(value);
    }

    /// One-shot windowed counter bump (cold-path convenience, like
    /// [`Recorder::window_observe`]).
    #[inline]
    pub fn window_counter_add(&self, name: &str, class: &str, delta: f64) {
        if !self.is_enabled() {
            return;
        }
        self.window(name, class).add(delta);
    }

    /// Snapshot everything recorded so far into a [`Report`].
    pub fn snapshot(&self) -> Report {
        let now = self.now_ms();
        let s = self.lock();
        Report {
            spans: s.spans.clone(),
            counters: self.merged_counters(),
            gauges: s.gauges.clone(),
            histograms: s.hists.iter().map(|(k, h)| (k.clone(), h.summary())).collect(),
            windows: s
                .windows
                .iter()
                .map(|(name, classes)| {
                    (
                        name.clone(),
                        classes
                            .iter()
                            .map(|(class, w)| {
                                let w = w.lock().unwrap_or_else(|e| e.into_inner());
                                (class.clone(), w.summary(now))
                            })
                            .collect::<BTreeMap<String, WindowSummary>>(),
                    )
                })
                .collect(),
        }
    }

    fn finish_span(&self, open: OpenSpan) {
        // Restore this thread's parent pointer *before* taking the lock,
        // so nested spans on this thread re-parent correctly even if the
        // lock blocks.
        CURRENT_SPAN.with(|c| c.set(open.parent.unwrap_or(0)));
        let record = SpanRecord {
            id: open.id,
            parent: open.parent,
            trace: open.trace,
            thread: thread_ord(),
            name: open.name,
            start_ns: open.start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: open.start.elapsed().as_nanos() as u64,
            fields: open.fields,
        };
        self.lock().spans.push(record);
    }
}

/// A registry-free recording handle for one `(metric, class)` window.
/// Obtained from [`Recorder::window`]; cache it outside hot loops.
/// Survives a [`Recorder::reset`] but records into a detached window
/// afterwards (invisible to snapshots) — re-create handles after resets.
#[derive(Clone)]
pub struct WindowHandle<'r> {
    recorder: &'r Recorder,
    win: Arc<Mutex<Window>>,
}

impl WindowHandle<'_> {
    /// Record one histogram observation at the current (amortized) time.
    /// No-op when the recorder is disabled.
    #[inline]
    pub fn observe(&self, value: f64) {
        if !self.recorder.is_enabled() {
            return;
        }
        let now = self.recorder.now_ms();
        self.win.lock().unwrap_or_else(|e| e.into_inner()).record_at(now, value);
    }

    /// Add `delta` to the window's counter at the current (amortized)
    /// time. No-op when the recorder is disabled.
    #[inline]
    pub fn add(&self, delta: f64) {
        if !self.recorder.is_enabled() {
            return;
        }
        let now = self.recorder.now_ms();
        self.win.lock().unwrap_or_else(|e| e.into_inner()).add_at(now, delta);
    }

    /// Rolling summary over the window's live horizon, as of now.
    pub fn summary(&self) -> WindowSummary {
        let now = self.recorder.now_ms();
        self.win.lock().unwrap_or_else(|e| e.into_inner()).summary(now)
    }
}

impl std::fmt::Debug for WindowHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowHandle").finish_non_exhaustive()
    }
}

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    trace: u64,
    name: String,
    start: Instant,
    fields: Vec<(String, FieldValue)>,
}

/// RAII guard for an open span. Records on drop; inert (and free apart
/// from one atomic load at creation) when the recorder was disabled.
pub struct Span<'r> {
    recorder: &'r Recorder,
    inner: Option<OpenSpan>,
}

impl Span<'_> {
    /// Attach a key/value field. No-op on an inert span.
    pub fn field(&mut self, key: &str, value: impl Into<FieldValue>) {
        if let Some(open) = &mut self.inner {
            open.fields.push((key.to_string(), value.into()));
        }
    }

    /// Whether this guard will record on drop.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// The span's id (None when inert).
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|o| o.id)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(open) = self.inner.take() {
            self.recorder.finish_span(open);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::new();
        {
            let mut s = r.span("a.b");
            s.field("k", 1u64);
            assert!(!s.is_recording());
        }
        r.counter_add("a.c", 1.0);
        r.observe("a.h", 5.0);
        r.gauge_set("a.g", 2.0);
        let rep = r.snapshot();
        assert!(rep.spans.is_empty());
        assert!(rep.counters.is_empty());
        assert!(rep.histograms.is_empty());
        assert!(rep.gauges.is_empty());
    }

    #[test]
    fn span_nesting_sets_parentage() {
        let r = Recorder::new();
        r.enable();
        {
            let mut outer = r.span("outer");
            outer.field("stage", "x");
            {
                let _inner = r.span("inner");
            }
            {
                let _inner2 = r.span("inner2");
            }
        }
        let rep = r.snapshot();
        assert_eq!(rep.spans.len(), 3);
        // Spans record in completion order: inner, inner2, outer.
        let outer = rep.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = rep.spans.iter().find(|s| s.name == "inner").unwrap();
        let inner2 = rep.spans.iter().find(|s| s.name == "inner2").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner2.parent, Some(outer.id));
        assert_eq!(outer.fields, vec![("stage".to_string(), FieldValue::Str("x".into()))]);
        assert!(outer.dur_ns >= inner.dur_ns);
    }

    #[test]
    fn sibling_spans_after_close_are_roots() {
        let r = Recorder::new();
        r.enable();
        {
            let _a = r.span("a");
        }
        {
            let _b = r.span("b");
        }
        let rep = r.snapshot();
        assert!(rep.spans.iter().all(|s| s.parent.is_none()));
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let r = Recorder::new();
        r.enable();
        r.counter_add("m.calls", 1.0);
        r.counter_add("m.calls", 2.0);
        r.gauge_set("m.g", 1.0);
        r.gauge_set("m.g", 7.0);
        for i in 0..10 {
            r.observe("m.lat", 100.0 * (i + 1) as f64);
        }
        let rep = r.snapshot();
        assert_eq!(r.counter_value("m.calls"), 3.0);
        assert_eq!(rep.gauges["m.g"], 7.0);
        let h = &rep.histograms["m.lat"];
        assert_eq!(h.count, 10);
        assert_eq!(h.max, 1000.0);
        assert!(h.p50 > 0.0 && h.p50 <= h.p99);
    }

    #[test]
    fn reset_clears_but_keeps_enabled() {
        let r = Recorder::new();
        r.enable();
        r.counter_add("c", 1.0);
        {
            let _s = r.span("s");
        }
        r.reset();
        assert!(r.is_enabled());
        assert_eq!(r.lock().spans.len(), 0);
        assert_eq!(r.counter_value("c"), 0.0);
    }

    #[test]
    fn disable_midway_still_records_open_span() {
        let r = Recorder::new();
        r.enable();
        let s = r.span("open");
        r.disable();
        drop(s);
        assert_eq!(r.lock().spans.len(), 1);
        // But new spans are inert.
        assert!(!r.span("later").is_recording());
    }

    #[test]
    fn concurrent_counter_increments_lose_nothing() {
        let r = std::sync::Arc::new(Recorder::new());
        r.enable();
        // 8 threads hammer 4 counter names (some sharing a stripe, some
        // not) — every increment must land.
        std::thread::scope(|scope| {
            for t in 0..8 {
                let r = r.clone();
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        let name = ["serve.a", "serve.b", "serve.c", "serve.d"]
                            [((t + i) % 4) as usize];
                        r.counter_add(name, 1.0);
                    }
                });
            }
        });
        let report = r.snapshot();
        let total: f64 = ["serve.a", "serve.b", "serve.c", "serve.d"]
            .iter()
            .map(|n| report.counters.get(*n).copied().unwrap_or(0.0))
            .sum();
        assert_eq!(total, 8_000.0);
        assert_eq!(r.counter_value("serve.a"), report.counters["serve.a"]);
    }

    #[test]
    fn windows_register_record_and_snapshot() {
        let r = Recorder::new();
        r.enable();
        let h = r.window("serve.latency_ms", "interactive");
        for i in 0..20 {
            h.observe(10.0 + i as f64);
        }
        h.add(5.0);
        r.window_observe("serve.latency_ms", "batch", 400.0);
        let rep = r.snapshot();
        let classes = &rep.windows["serve.latency_ms"];
        assert_eq!(classes.len(), 2);
        assert_eq!(classes["interactive"].hist.count, 20);
        assert_eq!(classes["interactive"].counter, 5.0);
        assert_eq!(classes["batch"].hist.count, 1);
        assert_eq!(classes["batch"].hist.max, 400.0);
    }

    #[test]
    fn disabled_windows_record_nothing_and_reset_clears() {
        let r = Recorder::new();
        let h = r.window("w", "c");
        h.observe(1.0);
        h.add(1.0);
        r.window_observe("w2", "c", 1.0);
        assert!(h.summary().is_empty());
        // window() registered "w" explicitly; the one-shot path must not
        // have registered "w2" while disabled.
        assert!(!r.snapshot().windows.contains_key("w2"));
        r.enable();
        r.window("w", "c").observe(2.0);
        r.reset();
        assert!(r.snapshot().windows.is_empty());
    }

    #[test]
    fn amortized_clock_is_monotone_enough() {
        let r = Recorder::new();
        let mut last = 0;
        for _ in 0..200 {
            let now = r.now_ms();
            assert!(now >= last || now + 1 >= last, "clock went backwards: {now} < {last}");
            last = last.max(now);
        }
    }

    #[test]
    fn field_value_conversions() {
        let cases: Vec<FieldValue> = vec![
            "s".into(),
            String::from("t").into(),
            3u64.into(),
            4usize.into(),
            (-5i64).into(),
            1.5f64.into(),
            true.into(),
        ];
        assert_eq!(cases[0], FieldValue::Str("s".into()));
        assert_eq!(cases[3], FieldValue::U64(4));
        assert_eq!(cases[6], FieldValue::Bool(true));
        assert_eq!(format!("{}", cases[5]), "1.500");
    }
}
