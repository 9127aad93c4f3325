//! Capped exponential backoff with deterministic full jitter.
//!
//! The classic AWS "full jitter" schedule draws the delay for attempt
//! `k` uniformly from `[0, min(cap, base * 2^k)]`. Here the "uniform
//! draw" is a pure hash of `(seed, attempt)`, so a fixed seed yields a
//! byte-identical schedule on every run — the property the chaos
//! pipeline's determinism invariant depends on — while different seeds
//! decorrelate concurrent clients exactly like real jitter would.

use crate::{combine, splitmix, unit_f64};

/// A deterministic capped-exponential-backoff schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Base delay in milliseconds for attempt 0 (pre-jitter).
    pub base_ms: u64,
    /// Upper bound on the pre-jitter delay for any attempt.
    pub cap_ms: u64,
    /// Seed decorrelating this schedule's jitter from other clients'.
    pub seed: u64,
}

impl Backoff {
    /// A schedule with the given base and cap, jittered from `seed`.
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Self {
        Backoff { base_ms, cap_ms, seed }
    }

    /// The un-jittered ceiling for `attempt`: `min(cap, base * 2^attempt)`,
    /// saturating on overflow.
    pub fn ceiling_ms(&self, attempt: u32) -> u64 {
        let exp = if attempt >= 63 {
            if self.base_ms == 0 { 0 } else { u64::MAX }
        } else {
            self.base_ms.saturating_mul(1u64 << attempt)
        };
        exp.min(self.cap_ms)
    }

    /// The jittered delay for `attempt`: a deterministic "uniform" draw
    /// from `[0, ceiling_ms(attempt)]`.
    ///
    /// Properties (checked by `tests/proptests.rs`):
    /// * `delay_ms(a) <= cap_ms` always;
    /// * for fixed `(seed, base, attempt)`, the delay is non-decreasing
    ///   in `cap_ms`;
    /// * identical seeds give identical schedules.
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let ceil = self.ceiling_ms(attempt);
        if ceil == 0 {
            return 0;
        }
        // A 53-bit unit fraction from the hash, scaled to [0, ceil].
        let h = splitmix(combine(self.seed, attempt as u64 + 1));
        (unit_f64(h) * ceil as f64).floor() as u64
    }
}

impl Default for Backoff {
    /// 50ms base, 5s cap, seed 0.
    fn default() -> Self {
        Backoff::new(50, 5_000, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceiling_doubles_then_caps() {
        let b = Backoff::new(100, 1_000, 7);
        assert_eq!(b.ceiling_ms(0), 100);
        assert_eq!(b.ceiling_ms(1), 200);
        assert_eq!(b.ceiling_ms(2), 400);
        assert_eq!(b.ceiling_ms(3), 800);
        assert_eq!(b.ceiling_ms(4), 1_000); // capped
        assert_eq!(b.ceiling_ms(63), 1_000);
        assert_eq!(b.ceiling_ms(64), 1_000); // shl overflow saturates
    }

    #[test]
    fn delay_is_within_ceiling() {
        let b = Backoff::new(50, 5_000, 42);
        for attempt in 0..20 {
            let d = b.delay_ms(attempt);
            assert!(d <= b.ceiling_ms(attempt), "attempt {attempt}: {d}");
            assert!(d <= b.cap_ms);
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = Backoff::new(50, 5_000, 9);
        let b = Backoff::new(50, 5_000, 9);
        let sched_a: Vec<u64> = (0..10).map(|k| a.delay_ms(k)).collect();
        let sched_b: Vec<u64> = (0..10).map(|k| b.delay_ms(k)).collect();
        assert_eq!(sched_a, sched_b);
    }

    #[test]
    fn different_seeds_decorrelate() {
        let a = Backoff::new(50, 5_000, 1);
        let b = Backoff::new(50, 5_000, 2);
        let sched_a: Vec<u64> = (0..10).map(|k| a.delay_ms(k)).collect();
        let sched_b: Vec<u64> = (0..10).map(|k| b.delay_ms(k)).collect();
        assert_ne!(sched_a, sched_b);
    }

    #[test]
    fn zero_base_means_zero_delay() {
        let b = Backoff::new(0, 5_000, 3);
        assert_eq!(b.delay_ms(0), 0);
        assert_eq!(b.delay_ms(10), 0);
    }
}
