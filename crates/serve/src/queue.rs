//! [`ServeError`] — the serving layer's typed refusals.
//!
//! Admission is *reject-not-block*: a full [`crate::qos::QosQueue`]
//! refuses new work with [`ServeError::Rejected`] carrying a
//! deterministic retry hint, the way an overloaded API endpoint returns
//! HTTP 429 instead of hanging the client.

use std::fmt;

use llmdm_rt::{FromJson, Json, JsonError, ToJson};

use crate::tenant::Priority;

/// Serving-layer errors.
///
/// The retry-hint vocabulary is aligned with the model layer's
/// `ModelError::Transient { retry_after_ms }`: every load-dependent
/// variant carries a field *named* `retry_after_ms`, surfaces it through
/// [`ServeError::retry_after_ms`] (`Some` only when the hint is
/// positive, exactly like `ModelError::retry_after_ms`), and answers
/// [`ServeError::is_retryable`] the way `ModelError::is_retryable`
/// answers for `Transient` — so a retry loop written against either
/// error type uses the same two calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control refused the request: the queue was at or past
    /// its high-water mark. Maps onto the model layer's
    /// `Transient(RateLimited)` vocabulary at the adapter boundary.
    Rejected {
        /// Queue depth observed at rejection time.
        depth: usize,
        /// Deterministic retry hint in milliseconds (scales with depth,
        /// like a provider's `Retry-After` header under load).
        retry_after_ms: u64,
    },
    /// The tenant's token-bucket quota was empty; the request never
    /// reached the queue.
    Throttled {
        /// The tenant whose bucket ran dry.
        tenant: String,
        /// Exact simulated milliseconds until the bucket refills enough
        /// to admit one job (`u64::MAX` when the quota never refills).
        retry_after_ms: u64,
    },
    /// Load-shedding dropped the request: an outage window shrank the
    /// effective capacity and this request (or a lower-priority victim
    /// displaced on its behalf) was shed, lowest class first.
    Shed {
        /// The priority class of the shed request.
        class: Priority,
        /// Retry hint: points past the outage window's end when the
        /// shed happened inside one, else scales with queue depth.
        retry_after_ms: u64,
    },
    /// The request failed validation before submission (empty tenant,
    /// unknown class label, empty batch key).
    InvalidRequest {
        /// What was wrong with the request.
        reason: String,
    },
    /// The serve configuration failed validation at build time
    /// (`workers == 0`, `queue_capacity == 0`, zero-burst policy, …).
    InvalidConfig {
        /// What was wrong with the configuration.
        reason: String,
    },
    /// The queue was closed; no further work is accepted.
    Closed,
}

impl ServeError {
    /// Whether retrying later can plausibly succeed. Load-dependent
    /// refusals (backpressure, quota, shedding) are retryable; invalid
    /// input and a closed queue are not — mirroring
    /// `ModelError::is_retryable`, where only `Transient` is.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ServeError::Rejected { .. } | ServeError::Throttled { .. } | ServeError::Shed { .. }
        )
    }

    /// The retry hint, if the error carries a meaningful one: `Some`
    /// only for retryable variants with a positive finite hint — the
    /// same contract as `ModelError::retry_after_ms`.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ServeError::Rejected { retry_after_ms, .. }
            | ServeError::Throttled { retry_after_ms, .. }
            | ServeError::Shed { retry_after_ms, .. }
                if *retry_after_ms > 0 && *retry_after_ms < u64::MAX =>
            {
                Some(*retry_after_ms)
            }
            _ => None,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected { depth, retry_after_ms } => {
                write!(f, "admission rejected at depth {depth}, retry after {retry_after_ms}ms")
            }
            ServeError::Throttled { tenant, retry_after_ms } => {
                if *retry_after_ms == u64::MAX {
                    write!(f, "tenant `{tenant}` over quota (quota never refills)")
                } else {
                    write!(f, "tenant `{tenant}` over quota, retry after {retry_after_ms}ms")
                }
            }
            ServeError::Shed { class, retry_after_ms } => {
                write!(f, "shed {class} request under load, retry after {retry_after_ms}ms")
            }
            ServeError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
            ServeError::InvalidConfig { reason } => write!(f, "invalid config: {reason}"),
            ServeError::Closed => write!(f, "queue closed"),
        }
    }
}

impl std::error::Error for ServeError {}

impl ToJson for ServeError {
    /// Tagged-object encoding `{"error": "<variant>", ...fields}` — the
    /// same idiom `ModelError` uses, so mixed failure logs share one
    /// shape.
    fn to_json(&self) -> Json {
        match self {
            ServeError::Rejected { depth, retry_after_ms } => Json::obj([
                ("error", Json::Str("rejected".into())),
                ("depth", depth.to_json()),
                ("retry_after_ms", retry_after_ms.to_json()),
            ]),
            ServeError::Throttled { tenant, retry_after_ms } => Json::obj([
                ("error", Json::Str("throttled".into())),
                ("tenant", Json::Str(tenant.clone())),
                ("retry_after_ms", retry_after_ms.to_json()),
            ]),
            ServeError::Shed { class, retry_after_ms } => Json::obj([
                ("error", Json::Str("shed".into())),
                ("class", Json::Str(class.label().into())),
                ("retry_after_ms", retry_after_ms.to_json()),
            ]),
            ServeError::InvalidRequest { reason } => Json::obj([
                ("error", Json::Str("invalid_request".into())),
                ("reason", Json::Str(reason.clone())),
            ]),
            ServeError::InvalidConfig { reason } => Json::obj([
                ("error", Json::Str("invalid_config".into())),
                ("reason", Json::Str(reason.clone())),
            ]),
            ServeError::Closed => Json::obj([("error", Json::Str("closed".into()))]),
        }
    }
}

impl FromJson for ServeError {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let tag = v.field("error")?.as_str()?;
        match tag {
            "rejected" => Ok(ServeError::Rejected {
                depth: v.field("depth")?.as_usize()?,
                retry_after_ms: v.field("retry_after_ms")?.as_u64()?,
            }),
            "throttled" => Ok(ServeError::Throttled {
                tenant: v.field("tenant")?.as_str()?.to_string(),
                retry_after_ms: v.field("retry_after_ms")?.as_u64()?,
            }),
            "shed" => {
                let label = v.field("class")?.as_str()?;
                let class = Priority::from_label(label)
                    .ok_or_else(|| JsonError::shape("unknown priority class label"))?;
                Ok(ServeError::Shed {
                    class,
                    retry_after_ms: v.field("retry_after_ms")?.as_u64()?,
                })
            }
            "invalid_request" => Ok(ServeError::InvalidRequest {
                reason: v.field("reason")?.as_str()?.to_string(),
            }),
            "invalid_config" => Ok(ServeError::InvalidConfig {
                reason: v.field("reason")?.as_str()?.to_string(),
            }),
            "closed" => Ok(ServeError::Closed),
            _ => Err(JsonError::shape("unknown ServeError tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_error_jsonio_roundtrips_every_variant() {
        let variants = vec![
            ServeError::Rejected { depth: 9, retry_after_ms: 45 },
            ServeError::Throttled { tenant: "acme".into(), retry_after_ms: 120 },
            ServeError::Throttled { tenant: "capped".into(), retry_after_ms: u64::MAX },
            ServeError::Shed { class: Priority::Batch, retry_after_ms: 500 },
            ServeError::Shed { class: Priority::Interactive, retry_after_ms: 0 },
            ServeError::InvalidRequest { reason: "tenant id must be non-empty".into() },
            ServeError::InvalidConfig { reason: "workers must be >= 1".into() },
            ServeError::Closed,
        ];
        for e in variants {
            let encoded = e.to_json().to_string();
            let decoded = ServeError::from_json(&Json::parse(&encoded).unwrap()).unwrap();
            assert_eq!(decoded, e, "round-trip through `{encoded}`");
            // Every variant has a non-empty, stable Display.
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn retry_hints_align_with_model_error_semantics() {
        // Retryable variants expose positive finite hints…
        let r = ServeError::Rejected { depth: 4, retry_after_ms: 20 };
        assert!(r.is_retryable());
        assert_eq!(r.retry_after_ms(), Some(20));
        let t = ServeError::Throttled { tenant: "a".into(), retry_after_ms: 100 };
        assert!(t.is_retryable());
        assert_eq!(t.retry_after_ms(), Some(100));
        let s = ServeError::Shed { class: Priority::Batch, retry_after_ms: 300 };
        assert!(s.is_retryable());
        assert_eq!(s.retry_after_ms(), Some(300));
        // …zero and "never" hints collapse to None, like ModelError.
        let z = ServeError::Shed { class: Priority::Batch, retry_after_ms: 0 };
        assert_eq!(z.retry_after_ms(), None);
        let never = ServeError::Throttled { tenant: "a".into(), retry_after_ms: u64::MAX };
        assert_eq!(never.retry_after_ms(), None);
        // Non-load errors are neither retryable nor hinted.
        for e in [
            ServeError::InvalidRequest { reason: "r".into() },
            ServeError::InvalidConfig { reason: "r".into() },
            ServeError::Closed,
        ] {
            assert!(!e.is_retryable(), "{e}");
            assert_eq!(e.retry_after_ms(), None);
        }
    }
}
