//! Request-scoped trace contexts: cross-thread span parentage.
//!
//! The recorder's span parentage is thread-local by design (a span opened
//! on thread T is a child of the innermost span open *on T*). That is the
//! right default for single-threaded pipelines, but the serving layer
//! hands one request across at least two threads — admitted on the
//! caller's thread, executed on a worker — and without help the request's
//! trace shatters into per-thread fragments.
//!
//! A [`TraceContext`] is the help: a `(trace id, parent span id)` pair
//! captured where the request enters the system, carried through queues
//! as plain data (it is `Copy`), and *adopted* on whatever thread ends up
//! doing the work via the RAII [`TraceContext::attach`] guard. While the
//! guard lives, every span opened on that thread
//!
//! 1. is stamped with the context's trace id, and
//! 2. parents to the context's span — even though that span was opened
//!    (and possibly already closed) on a different thread.
//!
//! Trace ids are plain `u64`s; `0` means "no trace". Producers that need
//! deterministic ids (the serving layer derives them from its seed via
//! SplitMix64, so a request's trace id is byte-stable across worker
//! counts) use [`TraceContext::derive`].
//!
//! Reassembly lives on [`crate::Report`]: [`crate::Report::trace_ids`],
//! [`crate::Report::trace_tree`], and [`crate::Report::render_trace`]
//! stitch the per-thread span logs back into one flame tree per request.

use std::cell::Cell;

use crate::recorder;
use llmdm_rt::hash::splitmix;

thread_local! {
    /// The trace id stamped on spans opened on this thread (0 = none).
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
}

/// The trace id currently attached to this thread (0 = none).
pub fn current_trace_id() -> u64 {
    CURRENT_TRACE.with(|c| c.get())
}

/// A request-scoped trace context: which trace spans belong to, and which
/// span they should parent to when the context is attached on another
/// thread. `Copy`, 16 bytes — designed to ride inside queued jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceContext {
    /// The trace id (0 = no trace; spans are stamped with this value).
    pub trace_id: u64,
    /// Span id adopted as the parent for spans opened under
    /// [`TraceContext::attach`] (0 = keep the thread's own parentage).
    pub parent_span: u64,
}

impl TraceContext {
    /// The inert context: attaching it clears the thread's trace.
    pub const NONE: TraceContext = TraceContext { trace_id: 0, parent_span: 0 };

    /// A root context for `trace_id` with no parent span yet.
    pub fn root(trace_id: u64) -> TraceContext {
        TraceContext { trace_id, parent_span: 0 }
    }

    /// Deterministically derive a root context for request number
    /// `request` under `seed` (SplitMix64, like the serving layer's
    /// stream ids — in fact equal to them unless the mix lands on 0,
    /// which is reserved for "no trace").
    pub fn derive(seed: u64, request: u64) -> TraceContext {
        TraceContext::root(splitmix(seed ^ splitmix(request)).max(1))
    }

    /// Whether this context carries a real trace id.
    pub fn is_active(&self) -> bool {
        self.trace_id != 0
    }

    /// This context, re-rooted at `span` (typically a span opened while
    /// the context was attached, so later threads parent beneath it).
    /// An inert span (disabled recorder) leaves the parent unchanged.
    pub fn at(&self, span: &crate::Span<'_>) -> TraceContext {
        TraceContext { trace_id: self.trace_id, parent_span: span.id().unwrap_or(self.parent_span) }
    }

    /// Snapshot this thread's current trace id and innermost open span —
    /// the context to hand to a helper thread so its spans land in the
    /// same tree.
    pub fn capture() -> TraceContext {
        TraceContext { trace_id: current_trace_id(), parent_span: recorder::current_span_id() }
    }

    /// Adopt this context on the current thread. While the returned guard
    /// lives, spans opened on this thread are stamped with `trace_id` and
    /// (when `parent_span != 0`) parent to `parent_span`. Both
    /// thread-locals are restored on drop, so attaches nest correctly.
    ///
    /// Cost: two `Cell` swaps — safe on the disabled-recorder fast path.
    #[must_use = "the context detaches when the guard drops; binding to `_` drops immediately"]
    pub fn attach(&self) -> TraceGuard {
        let prev_trace = CURRENT_TRACE.with(|c| c.replace(self.trace_id));
        let prev_span = if self.parent_span != 0 {
            Some(recorder::set_current_span(self.parent_span))
        } else {
            None
        };
        TraceGuard { prev_trace, prev_span }
    }
}

/// RAII guard for an attached [`TraceContext`]; restores the thread's
/// previous trace id and span parentage on drop.
#[derive(Debug)]
pub struct TraceGuard {
    prev_trace: u64,
    prev_span: Option<u64>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|c| c.set(self.prev_trace));
        if let Some(prev) = self.prev_span {
            recorder::set_current_span(prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    #[test]
    fn derive_is_stable_and_nonzero() {
        assert_eq!(TraceContext::derive(42, 7), TraceContext::derive(42, 7));
        assert_ne!(TraceContext::derive(42, 7), TraceContext::derive(42, 8));
        assert_ne!(TraceContext::derive(42, 7), TraceContext::derive(43, 7));
        for i in 0..1000 {
            assert!(TraceContext::derive(0, i).is_active());
        }
    }

    #[test]
    fn attach_stamps_trace_and_restores() {
        let r = Recorder::new();
        r.enable();
        let ctx = TraceContext::root(0xABCD);
        {
            let _g = ctx.attach();
            assert_eq!(current_trace_id(), 0xABCD);
            let _s = r.span("in.trace");
        }
        assert_eq!(current_trace_id(), 0);
        {
            let _s = r.span("out.of.trace");
        }
        let rep = r.snapshot();
        let inside = rep.spans.iter().find(|s| s.name == "in.trace").unwrap();
        let outside = rep.spans.iter().find(|s| s.name == "out.of.trace").unwrap();
        assert_eq!(inside.trace, 0xABCD);
        assert_eq!(outside.trace, 0);
    }

    #[test]
    fn cross_thread_parentage_stitches() {
        let r = Recorder::new();
        r.enable();
        let ctx = {
            let root = r.span("req.root");
            let ctx = TraceContext::root(77).at(&root);
            assert!(ctx.parent_span != 0);
            ctx
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                let _g = ctx.attach();
                let _child = r.span("req.work");
            });
        });
        let rep = r.snapshot();
        let root = rep.spans.iter().find(|s| s.name == "req.root").unwrap();
        let child = rep.spans.iter().find(|s| s.name == "req.work").unwrap();
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(child.trace, 77);
        assert_ne!(child.thread, root.thread);
    }

    #[test]
    fn attaches_nest_and_restore() {
        let outer = TraceContext::root(1);
        let inner = TraceContext { trace_id: 2, parent_span: 99 };
        let _g1 = outer.attach();
        assert_eq!(current_trace_id(), 1);
        {
            let _g2 = inner.attach();
            assert_eq!(current_trace_id(), 2);
            assert_eq!(recorder::current_span_id(), 99);
        }
        assert_eq!(current_trace_id(), 1);
        assert_eq!(recorder::current_span_id(), 0);
    }

    #[test]
    fn capture_sees_attached_context() {
        let r = Recorder::new();
        r.enable();
        let ctx = TraceContext::root(5);
        let _g = ctx.attach();
        let span = r.span("cap.here");
        let snap = TraceContext::capture();
        assert_eq!(snap.trace_id, 5);
        assert_eq!(Some(snap.parent_span), span.id());
        drop(span);
    }
}
