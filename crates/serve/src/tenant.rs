//! Multi-tenant traffic shaping: tenants, priority classes, seeded
//! token-bucket quotas, and the load-shedding policy.
//!
//! The ROADMAP's "heavy traffic from millions of users" story needs the
//! DB-side governance vocabulary on top of raw admission control:
//!
//! * a [`TenantId`] names who submitted a request (validated non-empty,
//!   so accounting rows can never silently merge under `""`);
//! * a [`Priority`] class says how the scheduler should trade the
//!   request off against other tenants' work under pressure — three
//!   classes with fixed weights drive the weighted-fair dequeue in
//!   [`crate::qos::QosQueue`] and the shed order under overload;
//! * a [`TokenBucket`] per tenant enforces a sustained rate + burst
//!   quota. Buckets run on the **simulated clock** (`llmdm-resil`'s
//!   `SimClock` timeline): refill is exact integer arithmetic in
//!   millitokens, so an identical submission sequence reproduces a
//!   byte-identical admit/throttle pattern — no wall-clock anywhere;
//! * a [`ShedPolicy`] ties graceful degradation to `llmdm-resil` outage
//!   windows: inside a window the effective queue capacity shrinks and
//!   overflow is shed lowest-class-first with a typed
//!   [`crate::ServeError::Shed`] carrying a retry hint.
//!
//! Per-tenant outcomes reconcile exactly: [`TenantStats::reconciles`]
//! asserts `admitted + rejected + shed == submitted`, the quota-side
//! mirror of the semantic cache's lookup reconciliation invariant.

use std::collections::BTreeMap;
use std::fmt;

use llmdm_resil::Window;

use crate::queue::ServeError;

/// A validated tenant identifier (non-empty, no surrounding whitespace).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(String);

impl TenantId {
    /// Validate and construct. Empty or all-whitespace names are a
    /// typed [`ServeError::InvalidRequest`] — never a silent `""` row in
    /// the accounting tables.
    pub fn new(name: impl Into<String>) -> Result<Self, ServeError> {
        let name = name.into();
        let trimmed = name.trim();
        if trimmed.is_empty() {
            return Err(ServeError::InvalidRequest {
                reason: "tenant id must be non-empty".to_string(),
            });
        }
        Ok(TenantId(trimmed.to_string()))
    }

    /// The tenant name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Priority class of a request: the scheduler serves backlogged classes
/// in proportion to their [`Priority::weight`]s and sheds the lowest
/// class first under overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive foreground traffic (weight 4, shed last).
    Interactive,
    /// Default traffic class (weight 2).
    Standard,
    /// Throughput-oriented background work (weight 1, shed first).
    Batch,
}

impl Priority {
    /// All classes, highest priority first — the scan order of the
    /// weighted-fair dequeue and the *reverse* of the shed order.
    pub fn all() -> [Priority; 3] {
        [Priority::Interactive, Priority::Standard, Priority::Batch]
    }

    /// Dense index, 0 = highest priority.
    pub fn rank(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Standard => 1,
            Priority::Batch => 2,
        }
    }

    /// Weighted-fair service weight: when every class is backlogged the
    /// dequeue serves batches in a 4:2:1 ratio.
    pub fn weight(self) -> u32 {
        match self {
            Priority::Interactive => 4,
            Priority::Standard => 2,
            Priority::Batch => 1,
        }
    }

    /// Stable lowercase label (metric class keys, JSON).
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Standard => "standard",
            Priority::Batch => "batch",
        }
    }

    /// Parse a [`Self::label`] back; `None` for unknown classes (the
    /// request builder turns that into a typed error).
    pub fn from_label(s: &str) -> Option<Priority> {
        match s {
            "interactive" => Some(Priority::Interactive),
            "standard" => Some(Priority::Standard),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }
}

impl Default for Priority {
    fn default() -> Self {
        Priority::Standard
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Millitokens per job: buckets account in 1/1000ths of a token so
/// sub-token refill over millisecond timelines stays exact integer
/// arithmetic (1 token/sec ≡ 1 millitoken/ms).
pub const MILLI_PER_JOB: u64 = 1_000;

/// A tenant's rate quota: sustained tokens/second plus a burst ceiling.
/// One submission costs one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantPolicy {
    /// Bucket capacity in tokens (the burst a cold tenant may submit
    /// back-to-back). Must be ≥ 1.
    pub burst: u64,
    /// Sustained refill rate in tokens per simulated second. 0 means no
    /// refill: the tenant gets exactly `burst` jobs, ever.
    pub refill_per_sec: u64,
}

impl TenantPolicy {
    /// A policy admitting `burst` back-to-back jobs and `refill_per_sec`
    /// jobs/sec sustained.
    pub fn per_sec(burst: u64, refill_per_sec: u64) -> Self {
        TenantPolicy { burst, refill_per_sec }
    }
}

/// The per-tenant policy table handed to the scheduler: an optional
/// default for unlisted tenants (absent = unlimited) plus per-tenant
/// overrides.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantPolicies {
    /// Policy applied to tenants without an explicit entry. `None`
    /// means unlisted tenants are not rate-limited.
    pub default_policy: Option<TenantPolicy>,
    /// Per-tenant overrides, keyed by tenant name.
    pub per_tenant: BTreeMap<String, TenantPolicy>,
}

impl TenantPolicies {
    /// The effective policy for `tenant`, if any quota applies.
    pub fn policy_for(&self, tenant: &str) -> Option<&TenantPolicy> {
        self.per_tenant.get(tenant).or(self.default_policy.as_ref())
    }

    /// Whether no quota applies to anyone.
    pub fn is_empty(&self) -> bool {
        self.default_policy.is_none() && self.per_tenant.is_empty()
    }
}

/// A deterministic token bucket on the simulated-millisecond timeline.
///
/// State is integer millitokens; refill is `elapsed_ms ×
/// refill_per_sec` millitokens (exact, no float drift), clamped to the
/// burst capacity. Given the same submission times, the admit/throttle
/// sequence is byte-identical run to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenBucket {
    capacity_milli: u64,
    refill_per_sec: u64,
    available_milli: u64,
    last_ms: u64,
}

impl TokenBucket {
    /// A bucket for `policy`, starting full at simulated time `now_ms`.
    pub fn new(policy: &TenantPolicy, now_ms: u64) -> Self {
        let capacity_milli = policy.burst.max(1).saturating_mul(MILLI_PER_JOB);
        TokenBucket {
            capacity_milli,
            refill_per_sec: policy.refill_per_sec,
            available_milli: capacity_milli,
            last_ms: now_ms,
        }
    }

    /// Currently available whole tokens (after refilling to `now_ms`).
    pub fn available(&mut self, now_ms: u64) -> u64 {
        self.refill(now_ms);
        self.available_milli / MILLI_PER_JOB
    }

    fn refill(&mut self, now_ms: u64) {
        let dt = now_ms.saturating_sub(self.last_ms);
        if dt > 0 {
            // 1 token/sec == 1 millitoken/ms, so this is exact.
            self.available_milli = self
                .available_milli
                .saturating_add(dt.saturating_mul(self.refill_per_sec))
                .min(self.capacity_milli);
            self.last_ms = now_ms;
        }
    }

    /// Take `cost_milli` millitokens at simulated time `now_ms`.
    /// `Err(retry_after_ms)` is the exact simulated wait until the
    /// bucket will have refilled enough (`u64::MAX` when the rate is 0
    /// and the deficit can never refill).
    pub fn try_take(&mut self, cost_milli: u64, now_ms: u64) -> Result<(), u64> {
        self.refill(now_ms);
        if self.available_milli >= cost_milli {
            self.available_milli -= cost_milli;
            return Ok(());
        }
        let deficit = cost_milli - self.available_milli;
        if self.refill_per_sec == 0 || cost_milli > self.capacity_milli {
            return Err(u64::MAX);
        }
        // Ceiling division: the first millisecond at which the deficit
        // is covered.
        Err(deficit.div_ceil(self.refill_per_sec))
    }
}

/// Graceful load-shedding wired to a `llmdm-resil` outage schedule:
/// inside any of the windows the queue's effective capacity drops to
/// `degraded_capacity`, and overflow work is shed **lowest class
/// first** with [`ServeError::Shed`] retry hints pointing past the
/// window's end.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShedPolicy {
    /// Outage windows on the simulated timeline (same `Window` type the
    /// fault injector uses, so one schedule can drive both).
    pub outages: Vec<Window>,
    /// Effective queue capacity while inside an outage window.
    pub degraded_capacity: usize,
}

impl ShedPolicy {
    /// A policy degrading to `degraded_capacity` during `outages`.
    pub fn new(outages: Vec<Window>, degraded_capacity: usize) -> Self {
        ShedPolicy { outages, degraded_capacity }
    }

    /// If `now_ms` falls inside an outage window, the window's exclusive
    /// end (the natural retry target).
    pub fn outage_end(&self, now_ms: u64) -> Option<u64> {
        self.outages.iter().find(|w| w.contains(now_ms)).map(|w| w.end_ms)
    }
}

/// Per-tenant admission accounting for one serve run. The invariant —
/// checked by [`TenantStats::reconciles`] and property-tested across
/// seeds and worker counts — is `admitted + rejected + shed ==
/// submitted`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests this tenant submitted.
    pub submitted: u64,
    /// Requests that reached a worker (dispatched).
    pub admitted: u64,
    /// Requests refused up front (queue backpressure or quota).
    pub rejected: u64,
    /// Requests shed by load-shedding (displaced or degraded-capacity
    /// overflow).
    pub shed: u64,
}

impl TenantStats {
    /// Exact outcome reconciliation: every submission is accounted for
    /// exactly once.
    pub fn reconciles(&self) -> bool {
        self.admitted + self.rejected + self.shed == self.submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_id_validates() {
        assert!(TenantId::new("acme").is_ok());
        assert_eq!(TenantId::new("  padded  ").unwrap().as_str(), "padded");
        for bad in ["", "   ", "\t\n"] {
            match TenantId::new(bad) {
                Err(ServeError::InvalidRequest { reason }) => {
                    assert!(reason.contains("non-empty"), "{reason}");
                }
                other => panic!("expected InvalidRequest, got {other:?}"),
            }
        }
    }

    #[test]
    fn priority_labels_roundtrip_and_rank_orders() {
        for p in Priority::all() {
            assert_eq!(Priority::from_label(p.label()), Some(p));
        }
        assert_eq!(Priority::from_label("gold"), None);
        assert!(Priority::Interactive.rank() < Priority::Standard.rank());
        assert!(Priority::Standard.rank() < Priority::Batch.rank());
        assert!(Priority::Interactive.weight() > Priority::Batch.weight());
        assert_eq!(Priority::default(), Priority::Standard);
    }

    #[test]
    fn bucket_burst_then_throttle() {
        let mut b = TokenBucket::new(&TenantPolicy::per_sec(3, 10), 0);
        // The full burst goes through back-to-back…
        for _ in 0..3 {
            assert_eq!(b.try_take(MILLI_PER_JOB, 0), Ok(()));
        }
        // …then the bucket is dry; at 10 tokens/sec one token takes
        // exactly 100 ms to refill.
        assert_eq!(b.try_take(MILLI_PER_JOB, 0), Err(100));
        assert_eq!(b.try_take(MILLI_PER_JOB, 99), Err(1));
        assert_eq!(b.try_take(MILLI_PER_JOB, 100), Ok(()));
    }

    #[test]
    fn bucket_refill_clamps_at_burst() {
        let mut b = TokenBucket::new(&TenantPolicy::per_sec(2, 1_000), 0);
        assert_eq!(b.available(0), 2);
        assert_eq!(b.try_take(MILLI_PER_JOB, 0), Ok(()));
        // A long idle period refills to the burst ceiling, not beyond.
        assert_eq!(b.available(1_000_000), 2);
    }

    #[test]
    fn zero_rate_bucket_never_refills() {
        let mut b = TokenBucket::new(&TenantPolicy::per_sec(1, 0), 0);
        assert_eq!(b.try_take(MILLI_PER_JOB, 0), Ok(()));
        assert_eq!(b.try_take(MILLI_PER_JOB, u64::MAX / 2), Err(u64::MAX));
    }

    #[test]
    fn bucket_sequence_is_deterministic() {
        let policy = TenantPolicy::per_sec(2, 50);
        let run = || {
            let mut b = TokenBucket::new(&policy, 0);
            (0..40u64).map(|i| b.try_take(MILLI_PER_JOB, i * 7).is_ok()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        assert!(run().iter().any(|ok| !ok), "a 50/sec quota must throttle 1/7ms arrivals");
    }

    #[test]
    fn policies_resolve_override_then_default() {
        let mut p = TenantPolicies::default();
        assert!(p.is_empty());
        assert_eq!(p.policy_for("anyone"), None);
        p.default_policy = Some(TenantPolicy::per_sec(5, 1));
        p.per_tenant.insert("gold".to_string(), TenantPolicy::per_sec(100, 50));
        assert_eq!(p.policy_for("gold").unwrap().burst, 100);
        assert_eq!(p.policy_for("other").unwrap().burst, 5);
        assert!(!p.is_empty());
    }

    #[test]
    fn shed_policy_from_plan_adopts_tier_outages() {
        use llmdm_resil::{FaultPlan, TierPlan};
        let plan = FaultPlan::new(
            "o",
            1,
            vec![TierPlan::quiet("sim-large").outage(Window::new(100, 200))],
        );
        let shed = ShedPolicy::new(plan.tier("sim-large").unwrap().outages.clone(), 4);
        assert_eq!(shed.outages, vec![Window::new(100, 200)]);
        assert_eq!(shed.outage_end(150), Some(200));
        assert_eq!(shed.outage_end(99), None);
        assert_eq!(shed.outage_end(200), None);
    }

    #[test]
    fn tenant_stats_reconcile() {
        let s = TenantStats { submitted: 10, admitted: 6, rejected: 3, shed: 1 };
        assert!(s.reconciles());
        let bad = TenantStats { submitted: 10, admitted: 6, rejected: 3, shed: 0 };
        assert!(!bad.reconciles());
    }
}
