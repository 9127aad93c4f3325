//! Deadline budgets measured on the simulated clock.
//!
//! A [`Deadline`] is an absolute point on the [`SimClock`] timeline.
//! The retry executor refuses to start a backoff sleep that would blow
//! past it, and the cascade router *slices* the remaining budget
//! across tiers so a cheap-tier retry storm cannot starve the
//! expensive tier (DESIGN.md §9's deadline-propagation rule:
//! tier `i` of `n` gets `remaining / (n - i)`).

use crate::clock::SimClock;

/// An absolute deadline in simulated milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline {
    at_ms: u64,
}

impl Deadline {
    /// A deadline at the absolute simulated time `at_ms`.
    pub fn at(at_ms: u64) -> Self {
        Deadline { at_ms }
    }

    /// A deadline `budget_ms` from the clock's current time.
    pub fn after(clock: &SimClock, budget_ms: u64) -> Self {
        Deadline { at_ms: clock.now_ms().saturating_add(budget_ms) }
    }

    /// A deadline that never expires.
    pub fn unbounded() -> Self {
        Deadline { at_ms: u64::MAX }
    }

    /// The absolute deadline in milliseconds.
    pub fn at_ms(&self) -> u64 {
        self.at_ms
    }

    /// Milliseconds left before the deadline (0 if already past).
    pub fn remaining(&self, clock: &SimClock) -> u64 {
        self.at_ms.saturating_sub(clock.now_ms())
    }

    /// Whether the deadline has passed.
    pub fn expired(&self, clock: &SimClock) -> bool {
        clock.now_ms() >= self.at_ms
    }

    /// The deadline-propagation rule: the sub-deadline for stage
    /// `index` of `total` sequential stages, giving each remaining
    /// stage an equal share of what's left (`remaining / (total - index)`).
    ///
    /// Later stages automatically inherit whatever earlier stages did
    /// not consume, but no single stage may eat the whole budget while
    /// successors still wait.
    pub fn slice(&self, clock: &SimClock, index: usize, total: usize) -> Deadline {
        if self.at_ms == u64::MAX {
            return *self;
        }
        let stages_left = total.saturating_sub(index).max(1) as u64;
        let share = self.remaining(clock) / stages_left;
        Deadline::after(clock, share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remaining_counts_down_and_saturates() {
        let clock = SimClock::new();
        let d = Deadline::after(&clock, 100);
        assert_eq!(d.remaining(&clock), 100);
        clock.advance(60);
        assert_eq!(d.remaining(&clock), 40);
        assert!(!d.expired(&clock));
        clock.advance(60);
        assert_eq!(d.remaining(&clock), 0);
        assert!(d.expired(&clock));
    }

    #[test]
    fn unbounded_never_expires() {
        let clock = SimClock::new();
        let d = Deadline::unbounded();
        clock.advance(1_000_000);
        assert!(!d.expired(&clock));
        assert_eq!(d.slice(&clock, 0, 3), d);
    }

    #[test]
    fn slice_shares_budget_equally_among_remaining_stages() {
        let clock = SimClock::new();
        let d = Deadline::after(&clock, 900);
        // First of three stages: 900 / 3 = 300.
        let s0 = d.slice(&clock, 0, 3);
        assert_eq!(s0.remaining(&clock), 300);
        // Stage 0 used only 100 of its 300; stage 1 inherits the slack:
        // (900 - 100) / 2 = 400.
        clock.advance(100);
        let s1 = d.slice(&clock, 1, 3);
        assert_eq!(s1.remaining(&clock), 400);
        // Stage 1 used all 400; the final stage gets the rest: 400.
        clock.advance(400);
        let s2 = d.slice(&clock, 2, 3);
        assert_eq!(s2.remaining(&clock), 400);
    }

    #[test]
    fn slice_of_expired_deadline_is_expired() {
        let clock = SimClock::new();
        let d = Deadline::after(&clock, 10);
        clock.advance(20);
        let s = d.slice(&clock, 0, 4);
        assert!(s.expired(&clock));
    }
}
