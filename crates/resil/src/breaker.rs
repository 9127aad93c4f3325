//! A closed → open → half-open circuit breaker on the simulated clock.
//!
//! When a model tier fails repeatedly, continuing to hammer it wastes
//! budget (timeouts are billed!) and deepens provider-side overload.
//! The breaker trips after `failure_threshold` *consecutive* failures,
//! rejects calls for a (seeded-jittered) cooldown, then admits exactly
//! one probe; the probe's outcome decides between re-closing and
//! re-opening. By construction the breaker can never transition
//! `Open → Closed` directly — only a half-open probe success closes it
//! — which is exactly the property `tests/proptests.rs` checks against
//! the transition log.

use crate::{combine, splitmix, unit_f64};

/// Breaker state machine states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Healthy: all calls admitted.
    Closed,
    /// Tripped: calls rejected until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe in flight decides the next state.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase label (used in metrics and reports).
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// The admission decision for one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed: proceed normally.
    Allowed,
    /// Breaker half-open: proceed, but this call is the probe.
    Probe,
    /// Breaker open: do not call; retry no sooner than the hint.
    Rejected {
        /// Milliseconds until the cooldown elapses (0 = imminent).
        retry_after_ms: u64,
    },
}

/// Configuration for a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures in `Closed` that trip the breaker.
    pub failure_threshold: u32,
    /// Base cooldown before a tripped breaker admits a probe.
    pub cooldown_ms: u64,
    /// Fractional jitter on the cooldown in `[0, 1]`: each opening
    /// draws a deterministic cooldown in
    /// `[cooldown_ms, cooldown_ms * (1 + jitter)]`.
    pub jitter: f64,
    /// Seed for the cooldown jitter stream.
    pub seed: u64,
}

impl Default for BreakerConfig {
    /// Trip after 3 consecutive failures; 1s cooldown, 25% jitter.
    fn default() -> Self {
        BreakerConfig { failure_threshold: 3, cooldown_ms: 1_000, jitter: 0.25, seed: 0 }
    }
}

/// One recorded state transition (for tests and reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Simulated time of the transition.
    pub at_ms: u64,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

/// Cap on the retained transition log (oldest entries drop first).
const MAX_TRANSITIONS: usize = 256;

/// A per-tier circuit breaker driven by explicit `poll` / `record_*`
/// calls on the simulated timeline (no interior threads, no real time).
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    /// Absolute time at which an `Open` breaker admits a probe.
    probe_at_ms: u64,
    /// How many times the breaker has opened (drives jitter stream).
    openings: u64,
    transitions: Vec<Transition>,
}

impl CircuitBreaker {
    /// A closed breaker with the given configuration.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            probe_at_ms: 0,
            openings: 0,
            transitions: Vec::new(),
        }
    }

    /// Current state (after any time-driven `Open → HalfOpen` move
    /// would apply; use [`Self::poll`] to actually advance it).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The breaker's configuration.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// The recorded transition log (capped at 256 entries).
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// How many times the breaker has tripped open.
    pub fn openings(&self) -> u64 {
        self.openings
    }

    /// Decide admission for a call at simulated time `now_ms`.
    ///
    /// An `Open` breaker whose cooldown has elapsed transitions to
    /// `HalfOpen` here and admits the caller as the probe.
    pub fn poll(&mut self, now_ms: u64) -> Admission {
        match self.state {
            BreakerState::Closed => Admission::Allowed,
            BreakerState::HalfOpen => Admission::Probe,
            BreakerState::Open => {
                if now_ms >= self.probe_at_ms {
                    self.transition(now_ms, BreakerState::HalfOpen);
                    Admission::Probe
                } else {
                    Admission::Rejected { retry_after_ms: self.probe_at_ms - now_ms }
                }
            }
        }
    }

    /// Record a successful call at `now_ms`.
    ///
    /// * `Closed`: resets the consecutive-failure count.
    /// * `HalfOpen`: the probe succeeded — re-close.
    /// * `Open`: ignored (a straggler finishing after the trip must not
    ///   close the breaker without a probe).
    pub fn record_success(&mut self, now_ms: u64) {
        match self.state {
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                self.consecutive_failures = 0;
                self.transition(now_ms, BreakerState::Closed);
            }
            BreakerState::Open => {}
        }
    }

    /// Record a failed call at `now_ms`.
    ///
    /// * `Closed`: bump the streak; trip at the threshold.
    /// * `HalfOpen`: the probe failed — re-open with a fresh cooldown.
    /// * `Open`: ignored.
    pub fn record_failure(&mut self, now_ms: u64) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.trip(now_ms);
                }
            }
            BreakerState::HalfOpen => self.trip(now_ms),
            BreakerState::Open => {}
        }
    }

    /// Reset to a pristine closed breaker (keeps config, clears log).
    pub fn reset(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.probe_at_ms = 0;
        self.openings = 0;
        self.transitions.clear();
    }

    fn trip(&mut self, now_ms: u64) {
        self.openings += 1;
        self.probe_at_ms = now_ms + self.cooldown_for(self.openings);
        self.consecutive_failures = 0;
        self.transition(now_ms, BreakerState::Open);
    }

    /// Deterministic jittered cooldown for the `opening`-th trip:
    /// `cooldown_ms * (1 + jitter * u)` with `u` hashed from
    /// `(seed, opening)`.
    fn cooldown_for(&self, opening: u64) -> u64 {
        let jitter = self.config.jitter.clamp(0.0, 1.0);
        if jitter == 0.0 {
            return self.config.cooldown_ms;
        }
        let h = splitmix(combine(self.config.seed, opening));
        let scaled = self.config.cooldown_ms as f64 * (1.0 + jitter * unit_f64(h));
        scaled.floor() as u64
    }

    fn transition(&mut self, now_ms: u64, to: BreakerState) {
        let from = self.state;
        self.state = to;
        if self.transitions.len() >= MAX_TRANSITIONS {
            self.transitions.remove(0);
        }
        self.transitions.push(Transition { at_ms: now_ms, from, to });
        let mut g = llmdm_obs::span("resil.breaker_transition");
        if g.is_recording() {
            g.field("from", from.label());
            g.field("to", to.label());
            g.field("at_ms", now_ms);
        }
        llmdm_obs::counter_add("resil.breaker_transition", 1.0);
        if to == BreakerState::Open {
            llmdm_obs::counter_add("resil.breaker_open", 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown_ms: 1_000,
            jitter: 0.0,
            seed: 0,
        })
    }

    #[test]
    fn trips_after_consecutive_failures_only() {
        let mut b = breaker();
        b.record_failure(0);
        b.record_failure(1);
        b.record_success(2); // streak broken
        b.record_failure(3);
        b.record_failure(4);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(5);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.openings(), 1);
    }

    #[test]
    fn open_rejects_with_retry_hint_then_probes() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_failure(t);
        }
        match b.poll(100) {
            Admission::Rejected { retry_after_ms } => assert_eq!(retry_after_ms, 1_002 - 100),
            other => panic!("expected rejection, got {other:?}"),
        }
        // Cooldown (jitter=0 ⇒ exactly 1000ms from trip at t=2).
        assert_eq!(b.poll(1_002), Admission::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn probe_success_closes_probe_failure_reopens() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_failure(t);
        }
        assert_eq!(b.poll(2_000), Admission::Probe);
        b.record_success(2_001);
        assert_eq!(b.state(), BreakerState::Closed);

        for t in 3_000..3_003 {
            b.record_failure(t);
        }
        assert_eq!(b.poll(5_000), Admission::Probe);
        b.record_failure(5_001);
        assert_eq!(b.state(), BreakerState::Open);
        // trip1 at t=2, trip2 at t=3002, trip3 (probe failure) at t=5001.
        assert_eq!(b.openings(), 3);
    }

    #[test]
    fn success_while_open_is_ignored() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_failure(t);
        }
        b.record_success(10); // straggler
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn never_open_to_closed_in_transition_log() {
        let mut b = breaker();
        // Thrash the breaker through many cycles.
        let mut t = 0;
        for cycle in 0..20 {
            for _ in 0..3 {
                b.record_failure(t);
                t += 1;
            }
            t += 2_000; // wait out cooldown
            assert_eq!(b.poll(t), Admission::Probe);
            if cycle % 2 == 0 {
                b.record_success(t);
            } else {
                b.record_failure(t);
            }
            t += 10;
        }
        for w in b.transitions() {
            assert!(
                !(w.from == BreakerState::Open && w.to == BreakerState::Closed),
                "illegal Open→Closed at t={}",
                w.at_ms
            );
        }
    }

    #[test]
    fn jittered_cooldowns_are_deterministic_and_bounded() {
        let cfg =
            BreakerConfig { failure_threshold: 1, cooldown_ms: 1_000, jitter: 0.5, seed: 77 };
        let a = CircuitBreaker::new(cfg);
        let b = CircuitBreaker::new(cfg);
        for opening in 1..=5u64 {
            let ca = a.cooldown_for(opening);
            let cb = b.cooldown_for(opening);
            assert_eq!(ca, cb, "same seed must give same cooldown");
            assert!((1_000..=1_500).contains(&ca), "cooldown {ca} out of jitter range");
        }
    }

    #[test]
    fn reset_restores_pristine_closed() {
        let mut b = breaker();
        for t in 0..3 {
            b.record_failure(t);
        }
        b.reset();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.openings(), 0);
        assert!(b.transitions().is_empty());
        assert_eq!(b.poll(0), Admission::Allowed);
    }
}
