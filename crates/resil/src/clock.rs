//! The simulated wall clock shared by the fault injector, backoff
//! sleeps, deadlines, and breaker cooldowns.
//!
//! Nothing in the workspace ever sleeps for real (determinism and test
//! speed both forbid it), so time is a shared millisecond counter that
//! components *advance*: the fault injector advances it by each call's
//! simulated latency, the retry executor advances it by backoff delays.
//! Deadlines and outage windows are then exact arithmetic on one
//! timeline instead of racy `Instant` reads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cloneable, thread-safe simulated clock (milliseconds since the
/// start of the run). Clones share the same timeline.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now_ms: Arc<AtomicU64>,
}

impl SimClock {
    /// A clock starting at t = 0 ms.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// The current simulated time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms.load(Ordering::Relaxed)
    }

    /// Advance the clock by `delta_ms`; returns the new time.
    pub fn advance(&self, delta_ms: u64) -> u64 {
        self.now_ms.fetch_add(delta_ms, Ordering::Relaxed) + delta_ms
    }

    /// Reset to t = 0 (test and per-schedule run isolation).
    pub fn reset(&self) {
        self.now_ms.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_a_timeline() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(100);
        b.advance(20);
        assert_eq!(a.now_ms(), 120);
        assert_eq!(b.now_ms(), 120);
    }

    #[test]
    fn starting_at_and_reset() {
        let c = SimClock::new();
        c.now_ms.store(500, Ordering::Relaxed);
        assert_eq!(c.now_ms(), 500);
        c.reset();
        assert_eq!(c.now_ms(), 0);
    }

    #[test]
    fn advance_returns_new_time() {
        let c = SimClock::new();
        assert_eq!(c.advance(7), 7);
        assert_eq!(c.advance(3), 10);
    }
}
