//! Error type for the model substrate, with a retryability
//! classification for the resilience layer (`llmdm-resil`).
//!
//! Real LLM endpoints fail in two structurally different ways:
//!
//! * **Permanent** failures — the request itself is wrong (unsupported
//!   prompt shape, context overflow, empty input). Retrying the same
//!   request can never succeed; callers must change the request.
//! * **Transient** failures — the *call* failed (rate limiting,
//!   timeouts, momentary unavailability) or the stochastic decode
//!   produced garbage (malformed payload). Retrying — possibly after a
//!   provider-suggested delay — is sensible and is exactly what
//!   [`crate::resilient::ResilientClient`] does.
//!
//! [`ModelError::is_retryable`] encodes that classification for every
//! variant; the deterministic fault injector
//! ([`crate::faulty::FaultyModel`]) produces the transient family.

use std::fmt;

/// The transient-failure taxonomy (mirrors the fault kinds injectable by
/// `llmdm-resil`'s `FaultPlan`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransientKind {
    /// The provider rejected the call before executing it (HTTP 429).
    /// Nothing was billed.
    RateLimited,
    /// The call exceeded its wall-clock budget. The provider may have
    /// executed (and billed) the request anyway.
    Timeout,
    /// Momentary provider-side unavailability (5xx, connection reset,
    /// outage window). Nothing was billed.
    Unavailable,
}

impl TransientKind {
    /// Stable lowercase label (used in metric names).
    pub fn label(self) -> &'static str {
        match self {
            TransientKind::RateLimited => "rate_limited",
            TransientKind::Timeout => "timeout",
            TransientKind::Unavailable => "unavailable",
        }
    }
}

impl fmt::Display for TransientKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Errors produced by the simulated model stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The prompt did not contain a well-formed task envelope and no solver
    /// accepted it.
    UnsupportedPrompt(String),
    /// The prompt exceeded the model's context window (in tokens).
    ContextOverflow {
        /// Tokens in the offending prompt.
        tokens: usize,
        /// The model's context window.
        limit: usize,
    },
    /// A solver accepted the prompt but failed to extract its payload, or
    /// the (possibly fault-injected) response payload was corrupted.
    MalformedPayload {
        /// The task id of the solver that failed.
        task: String,
        /// Human-readable reason.
        reason: String,
    },
    /// An embedding request had an empty input.
    EmptyInput,
    /// A transient call failure: the request was fine, the *call* failed.
    /// `retry_after_ms` is the provider's suggested minimum delay before
    /// retrying (0 = no hint).
    Transient {
        /// What kind of transient failure this was.
        kind: TransientKind,
        /// Provider-suggested retry delay in milliseconds (0 = none).
        retry_after_ms: u64,
    },
}

impl ModelError {
    /// Shorthand constructor for a transient error.
    pub fn transient(kind: TransientKind, retry_after_ms: u64) -> Self {
        ModelError::Transient { kind, retry_after_ms }
    }

    /// Whether retrying the *same* request can plausibly succeed.
    ///
    /// * [`ModelError::Transient`] — yes: the failure was in the call,
    ///   not the request.
    /// * [`ModelError::MalformedPayload`] — yes: LLM decoding is
    ///   stochastic in production (and the fault injector's corruption
    ///   stream advances per attempt), so a resample can come back clean.
    ///   Retries are bounded by the policy cap, so a *deterministically*
    ///   malformed payload costs at most `max_retries` extra calls.
    /// * [`ModelError::UnsupportedPrompt`], [`ModelError::ContextOverflow`],
    ///   [`ModelError::EmptyInput`] — no: the request itself is invalid
    ///   and will fail identically every time.
    pub fn is_retryable(&self) -> bool {
        match self {
            ModelError::Transient { .. } => true,
            ModelError::MalformedPayload { .. } => true,
            ModelError::UnsupportedPrompt(_)
            | ModelError::ContextOverflow { .. }
            | ModelError::EmptyInput => false,
        }
    }

    /// The provider's suggested retry delay, if this error carries one.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ModelError::Transient { retry_after_ms, .. } if *retry_after_ms > 0 => {
                Some(*retry_after_ms)
            }
            _ => None,
        }
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnsupportedPrompt(head) => {
                write!(f, "no solver accepted prompt starting with {head:?}")
            }
            ModelError::ContextOverflow { tokens, limit } => {
                write!(f, "prompt of {tokens} tokens exceeds context window of {limit}")
            }
            ModelError::MalformedPayload { task, reason } => {
                write!(f, "solver for task {task:?} rejected payload: {reason}")
            }
            ModelError::EmptyInput => write!(f, "empty input"),
            ModelError::Transient { kind, retry_after_ms } => {
                write!(f, "transient failure ({kind})")?;
                if *retry_after_ms > 0 {
                    write!(f, ", retry after {retry_after_ms}ms")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_task() {
        let e = ModelError::MalformedPayload {
            task: "qa".into(),
            reason: "missing question".into(),
        };
        let s = e.to_string();
        assert!(s.contains("qa"));
        assert!(s.contains("missing question"));
    }

    #[test]
    fn display_context_overflow() {
        let e = ModelError::ContextOverflow { tokens: 9000, limit: 8192 };
        assert!(e.to_string().contains("9000"));
        assert!(e.to_string().contains("8192"));
    }

    #[test]
    fn display_transient_kinds() {
        let e = ModelError::transient(TransientKind::RateLimited, 250);
        let s = e.to_string();
        assert!(s.contains("rate_limited"), "{s}");
        assert!(s.contains("250ms"), "{s}");
        let t = ModelError::transient(TransientKind::Timeout, 0).to_string();
        assert!(t.contains("timeout"), "{t}");
        assert!(!t.contains("retry after"), "no hint should mean no suffix: {t}");
        let u = ModelError::transient(TransientKind::Unavailable, 1).to_string();
        assert!(u.contains("unavailable"), "{u}");
    }

    #[test]
    fn retryability_classification_covers_every_variant() {
        // Permanent: the request is wrong.
        assert!(!ModelError::UnsupportedPrompt("x".into()).is_retryable());
        assert!(!ModelError::ContextOverflow { tokens: 10, limit: 5 }.is_retryable());
        assert!(!ModelError::EmptyInput.is_retryable());
        // Retryable: the call (or the stochastic decode) failed.
        assert!(ModelError::MalformedPayload { task: "qa".into(), reason: "bad".into() }
            .is_retryable());
        for kind in [TransientKind::RateLimited, TransientKind::Timeout, TransientKind::Unavailable]
        {
            assert!(ModelError::transient(kind, 0).is_retryable(), "{kind} must be retryable");
        }
    }

    #[test]
    fn retry_after_hint_only_when_positive() {
        assert_eq!(
            ModelError::transient(TransientKind::RateLimited, 300).retry_after_ms(),
            Some(300)
        );
        assert_eq!(ModelError::transient(TransientKind::Timeout, 0).retry_after_ms(), None);
        assert_eq!(ModelError::EmptyInput.retry_after_ms(), None);
    }
}
