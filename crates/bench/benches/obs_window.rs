//! The cost of *windowed* telemetry, pinned against plain recording.
//!
//! DESIGN.md §12 claims the windowed per-class metrics add effectively
//! nothing over the flat recorder paths, because a [`WindowHandle`]
//! resolves its `(metric, class)` registry slot once and every
//! subsequent call is a mutex on one ring plus an amortized clock
//! sample. This bench enforces that claim:
//!
//! 1. Enabled: `WindowHandle::observe` through a cached handle stays
//!    within 5 % of plain `llmdm_obs::observe` on the same batch size —
//!    the windowed path may not cost materially more than the histogram
//!    it wraps. The two are timed interleaved (`bench_interleaved`) and
//!    the gate compares medians, so a slow spell on a shared box lands on
//!    both alike.
//! 2. Disabled: `WindowHandle::observe` and the `window_observe`
//!    one-shot stay under the same per-call nanosecond budget as every
//!    other disabled entry point (50 ns) — turning telemetry off turns
//!    the window plane off too.
//!
//! The uncached `window_observe` one-shot (per-call registry lookup) is
//! measured for the report but deliberately not gated: it exists for
//! cold paths, and hot paths are expected to hold a handle.
//!
//! `scripts/verify.sh` runs this with `LLMDM_BENCH_FAST=1`; the stamped
//! report lands in `BENCH_obswindow.json`.

use llmdm_rt::bench::{black_box, Bound::AtMost, Criterion};

const BATCH: usize = 100;

fn bench_enabled(c: &mut Criterion) {
    llmdm_obs::enable();
    llmdm_obs::reset();
    let mut group = c.benchmark_group("obs_window_enabled");
    let handle = llmdm_obs::window("bench.windowed_hist", "hot");
    group.bench_interleaved(&mut [
        ("plain_observe_x100", &mut || {
            for _ in 0..BATCH {
                llmdm_obs::observe(black_box("bench.plain_hist"), 1.5);
            }
        }),
        ("window_handle_observe_x100", &mut || {
            for _ in 0..BATCH {
                handle.observe(black_box(1.5));
            }
        }),
    ]);
    group.bench_function("window_oneshot_observe_x100", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                llmdm_obs::window_observe(black_box("bench.windowed_hist"), "cold", 1.5);
            }
        })
    });
    group.finish();
    llmdm_obs::disable();
    llmdm_obs::reset();
}

fn bench_disabled(c: &mut Criterion) {
    llmdm_obs::disable();
    let handle = llmdm_obs::window("bench.disabled_hist", "hot");
    let mut group = c.benchmark_group("obs_window_disabled");
    group.bench_function("window_handle_observe_x100", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                handle.observe(black_box(1.5));
            }
        })
    });
    group.bench_function("window_oneshot_observe_x100", |b| {
        b.iter(|| {
            for _ in 0..BATCH {
                llmdm_obs::window_observe(black_box("bench.disabled_hist"), "hot", 1.5);
            }
        })
    });
    group.finish();
}

/// Cached-handle windowed recording may cost at most 5 % over plain
/// `observe` (ratio of interleaved medians).
const WINDOW_RATIO_MAX: f64 = 1.05;
/// A disabled entry point's budget, ns per call (median of a batch) —
/// the same figure `obs_overhead` holds every other entry point to.
const DISABLED_NS_MAX: f64 = 50.0;

fn gates(c: &mut Criterion) {
    // Gate 1: cached-handle windowed recording tracks plain observe.
    let plain = c.stat("obs_window_enabled/plain_observe_x100").median_ns as f64;
    let windowed = c.stat("obs_window_enabled/window_handle_observe_x100").median_ns as f64;
    let ratio = windowed / plain;
    c.gate("obs_window_enabled window_handle/plain (median)", ratio, AtMost(WINDOW_RATIO_MAX));
    // Gate 2: the disabled window plane costs what every other disabled
    // entry point costs.
    for id in [
        "obs_window_disabled/window_handle_observe_x100",
        "obs_window_disabled/window_oneshot_observe_x100",
    ] {
        let per_call = c.stat(id).median_ns as f64 / BATCH as f64;
        c.gate(format!("{id} ns/call (median)"), per_call, AtMost(DISABLED_NS_MAX));
    }
}

llmdm_rt::bench_main!("obswindow", None, bench_enabled, bench_disabled, gates);
