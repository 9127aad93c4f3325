//! Token and dollar accounting across model calls.
//!
//! All of the paper's preliminary experiments report an "API Cost" row;
//! [`UsageMeter`] is the single source of truth for those numbers. It is
//! shared (via `Arc`) between every simulated model in a zoo so that an
//! experiment reads one total regardless of how many tiers it touched.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::pricing::{PriceTable, Pricing};

/// Pico-dollars (1e-12 $) per dollar: the meter's unit.
const PICO_PER_DOLLAR: f64 = 1e12;

/// Token counts for a single call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TokenUsage {
    /// Prompt tokens consumed.
    pub input_tokens: usize,
    /// Completion tokens produced.
    pub output_tokens: usize,
}

impl TokenUsage {
    /// Total tokens moved in the call.
    pub fn total(&self) -> usize {
        self.input_tokens + self.output_tokens
    }
}

/// Aggregated per-model counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelUsage {
    /// Number of completed calls.
    pub calls: u64,
    /// Sum of prompt tokens.
    pub input_tokens: u64,
    /// Sum of completion tokens.
    pub output_tokens: u64,
    /// Accumulated cost in whole pico-dollars. An integer sum, so the
    /// total does not depend on the order concurrent calls were billed in.
    pico_dollars: u64,
}

impl ModelUsage {
    /// Accumulated dollar cost.
    pub fn dollars(&self) -> f64 {
        self.pico_dollars as f64 / PICO_PER_DOLLAR
    }
}

/// A call's cost in pico-dollars. Every `PriceTable::standard` price is a
/// whole number of pico-dollars per token; other prices round to one.
fn pico_cost(p: Pricing, usage: TokenUsage) -> u64 {
    let per_token = |per_1k: f64| (per_1k * (PICO_PER_DOLLAR / 1000.0)).round() as u64;
    usage.input_tokens as u64 * per_token(p.input_per_1k)
        + usage.output_tokens as u64 * per_token(p.output_per_1k)
}

/// A point-in-time copy of the meter's state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UsageSnapshot {
    per_model: Vec<(String, ModelUsage)>,
}

impl UsageSnapshot {
    /// Total dollars across all models.
    pub fn total_dollars(&self) -> f64 {
        self.per_model.iter().map(|(_, u)| u.pico_dollars).sum::<u64>() as f64 / PICO_PER_DOLLAR
    }

    /// Total calls across all models.
    pub fn total_calls(&self) -> u64 {
        self.per_model.iter().map(|(_, u)| u.calls).sum()
    }

    /// Total tokens (input + output) across all models.
    pub fn total_tokens(&self) -> u64 {
        self.per_model.iter().map(|(_, u)| u.input_tokens + u.output_tokens).sum()
    }

    /// Usage for one model, if it was ever called.
    pub fn model(&self, name: &str) -> Option<&ModelUsage> {
        self.per_model.iter().find(|(m, _)| m == name).map(|(_, u)| u)
    }

    /// Iterate `(model, usage)` pairs in first-call order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ModelUsage)> {
        self.per_model.iter().map(|(m, u)| (m.as_str(), u))
    }

    /// Dollar delta relative to an earlier snapshot (self - earlier).
    pub fn dollars_since(&self, earlier: &UsageSnapshot) -> f64 {
        self.total_dollars() - earlier.total_dollars()
    }
}

/// Thread-safe usage meter shared by a model zoo.
#[derive(Debug, Clone)]
pub struct UsageMeter {
    inner: Arc<Mutex<UsageSnapshot>>,
    prices: Arc<PriceTable>,
}

impl UsageMeter {
    /// Create a meter pricing calls via `prices`.
    pub fn new(prices: PriceTable) -> Self {
        UsageMeter { inner: Arc::new(Mutex::new(UsageSnapshot::default())), prices: Arc::new(prices) }
    }

    /// Lock the counters, recovering from poison: a panicking recorder
    /// leaves the snapshot merely stale, never structurally broken, so
    /// billing totals stay readable (matches the old parking_lot
    /// semantics of never poisoning).
    fn lock(&self) -> MutexGuard<'_, UsageSnapshot> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record a call. Unknown models are billed at $0 (still counted).
    ///
    /// The meter stays the dollar **source of truth**; it additionally
    /// mirrors every record into the `llmdm-obs` counters
    /// (`model.calls`, `model.tokens`, `model.cost_usd`) so traces and
    /// the Table I–III cost rows can never disagree (asserted by
    /// `crates/cascade/tests/obs_reconcile.rs`).
    pub fn record(&self, model: &str, usage: TokenUsage) -> f64 {
        let (cost, pico) = match self.prices.get(model) {
            Some(p) => (p.cost(usage.input_tokens, usage.output_tokens), pico_cost(p, usage)),
            None => (0.0, 0),
        };
        if llmdm_obs::is_enabled() {
            llmdm_obs::counter_add("model.calls", 1.0);
            llmdm_obs::counter_add("model.tokens", usage.total() as f64);
            llmdm_obs::counter_add("model.tokens_in", usage.input_tokens as f64);
            llmdm_obs::counter_add("model.tokens_out", usage.output_tokens as f64);
            llmdm_obs::counter_add("model.cost_usd", cost);
            llmdm_obs::counter_add(&format!("model.calls.{model}"), 1.0);
            llmdm_obs::counter_add(&format!("model.cost_usd.{model}"), cost);
            llmdm_obs::observe("model.tokens_per_call", usage.total() as f64);
        }
        let mut snap = self.lock();
        let slot = match snap.per_model.iter_mut().find(|(m, _)| m == model) {
            Some((_, u)) => u,
            None => {
                snap.per_model.push((model.to_string(), ModelUsage::default()));
                &mut snap.per_model.last_mut().expect("just pushed").1
            }
        };
        slot.calls += 1;
        slot.input_tokens += usage.input_tokens as u64;
        slot.output_tokens += usage.output_tokens as u64;
        slot.pico_dollars += pico;
        cost
    }

    /// Copy the current totals.
    pub fn snapshot(&self) -> UsageSnapshot {
        self.lock().clone()
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        *self.lock() = UsageSnapshot::default();
    }

    /// The price table this meter bills with.
    pub fn prices(&self) -> &PriceTable {
        &self.prices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> UsageMeter {
        let mut t = PriceTable::new();
        t.set("m", Pricing::new(1.0, 2.0)); // $1/1k in, $2/1k out
        UsageMeter::new(t)
    }

    #[test]
    fn record_accumulates() {
        let m = meter();
        let c1 = m.record("m", TokenUsage { input_tokens: 1000, output_tokens: 0 });
        assert!((c1 - 1.0).abs() < 1e-12);
        m.record("m", TokenUsage { input_tokens: 0, output_tokens: 500 });
        let s = m.snapshot();
        assert_eq!(s.total_calls(), 2);
        assert_eq!(s.total_tokens(), 1500);
        assert!((s.total_dollars() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_model_is_free_but_counted() {
        let m = meter();
        let c = m.record("mystery", TokenUsage { input_tokens: 100, output_tokens: 100 });
        assert_eq!(c, 0.0);
        assert_eq!(m.snapshot().total_calls(), 1);
    }

    #[test]
    fn reset_clears() {
        let m = meter();
        m.record("m", TokenUsage { input_tokens: 10, output_tokens: 10 });
        m.reset();
        assert_eq!(m.snapshot().total_calls(), 0);
    }

    #[test]
    fn dollars_since_delta() {
        let m = meter();
        m.record("m", TokenUsage { input_tokens: 1000, output_tokens: 0 });
        let before = m.snapshot();
        m.record("m", TokenUsage { input_tokens: 2000, output_tokens: 0 });
        let after = m.snapshot();
        assert!((after.dollars_since(&before) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shared_between_clones() {
        let m = meter();
        let m2 = m.clone();
        m2.record("m", TokenUsage { input_tokens: 1, output_tokens: 1 });
        assert_eq!(m.snapshot().total_calls(), 1);
    }

    #[test]
    fn concurrent_records() {
        let m = meter();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        m.record("m", TokenUsage { input_tokens: 1, output_tokens: 0 });
                    }
                });
            }
        });
        assert_eq!(m.snapshot().total_calls(), 800);
    }

    #[test]
    fn totals_do_not_depend_on_billing_order() {
        // Five sim-large calls whose f64 costs sum to 0.00675 in this
        // order and to 0.006749999999999999 in reverse.
        let calls = [(37, 3), (41, 5), (29, 2), (55, 1), (33, 4)]
            .map(|(input_tokens, output_tokens)| TokenUsage { input_tokens, output_tokens });
        let forward = UsageMeter::new(PriceTable::standard());
        let reverse = UsageMeter::new(PriceTable::standard());
        for u in calls {
            forward.record("sim-large", u);
        }
        for u in calls.into_iter().rev() {
            reverse.record("sim-large", u);
        }
        let (f, r) = (forward.snapshot(), reverse.snapshot());
        assert_eq!(f.total_dollars().to_bits(), r.total_dollars().to_bits());
        assert_eq!(f.model("sim-large"), r.model("sim-large"));
        assert_eq!(f.total_dollars(), 0.00675);
    }
}
