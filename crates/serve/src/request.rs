//! [`ServeRequest`] — the typed submission unit.
//!
//! *Who* is asking, *how urgently*, and *how to batch* are separate
//! concerns, so each has its own typed field:
//!
//! * [`ServeRequest::tenant`] — the quota account ([`TenantId`],
//!   validated non-empty);
//! * [`ServeRequest::class`] — the QoS priority ([`Priority`], a closed
//!   enum, so "unknown class" is unrepresentable once built — the
//!   builder's [`ServeRequestBuilder::class_label`] is where free text
//!   gets checked);
//! * [`ServeRequest::batch_key`] — the coalescing key handlers see
//!   (defaults to the priority's label);
//! * [`ServeRequest::payload`] — the caller's job body, untouched.
//!
//! Construction goes through a validating builder: invalid input is a
//! typed [`ServeError::InvalidRequest`] at build time, not a panic in
//! the scheduler.

use crate::queue::ServeError;
use crate::tenant::{Priority, TenantId};

/// One typed unit of work submitted to the serving frontend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeRequest<P> {
    /// The quota account this request bills against.
    pub tenant: TenantId,
    /// QoS priority class (drives weighted-fair dequeue and shed order).
    pub class: Priority,
    /// Coalescing key: jobs with equal keys may share a handler batch.
    pub batch_key: String,
    /// The caller's job body, handed to the batch handler untouched.
    pub payload: P,
}

impl<P> ServeRequest<P> {
    /// Start building a request for `tenant` carrying `payload`.
    /// Defaults: [`Priority::Standard`], batch key = the class label.
    pub fn builder(tenant: impl Into<String>, payload: P) -> ServeRequestBuilder<P> {
        ServeRequestBuilder {
            tenant: tenant.into(),
            class: Priority::default(),
            batch_key: None,
            payload,
        }
    }
}

/// Fluent validating builder for [`ServeRequest`]; see
/// [`ServeRequest::builder`].
#[derive(Debug, Clone)]
pub struct ServeRequestBuilder<P> {
    tenant: String,
    class: Priority,
    batch_key: Option<String>,
    payload: P,
}

impl<P> ServeRequestBuilder<P> {
    /// Set the priority class from the closed enum.
    pub fn class(mut self, class: Priority) -> Self {
        self.class = class;
        self
    }

    /// Set the priority class from a free-text label
    /// (`"interactive"` / `"standard"` / `"batch"`, case-insensitive).
    /// Unknown labels surface as [`ServeError::InvalidRequest`] at
    /// [`ServeRequestBuilder::build`] time.
    pub fn class_label(mut self, label: impl Into<String>) -> ClassLabelled<P> {
        let label = label.into();
        match Priority::from_label(&label.to_ascii_lowercase()) {
            Some(class) => {
                self.class = class;
                ClassLabelled { inner: Ok(self) }
            }
            None => ClassLabelled {
                inner: Err(ServeError::InvalidRequest {
                    reason: format!("unknown priority class `{label}`"),
                }),
            },
        }
    }

    /// Override the coalescing key (defaults to the class label).
    pub fn batch_key(mut self, key: impl Into<String>) -> Self {
        self.batch_key = Some(key.into());
        self
    }

    /// Validate and build. Empty / whitespace-only tenant or batch key
    /// is a typed [`ServeError::InvalidRequest`].
    pub fn build(self) -> Result<ServeRequest<P>, ServeError> {
        let tenant = TenantId::new(self.tenant)?;
        let batch_key = match self.batch_key {
            Some(k) => {
                if k.trim().is_empty() {
                    return Err(ServeError::InvalidRequest {
                        reason: "batch key must be non-empty".to_string(),
                    });
                }
                k
            }
            None => self.class.label().to_string(),
        };
        Ok(ServeRequest { tenant, class: self.class, batch_key, payload: self.payload })
    }
}

/// A builder that has absorbed a free-text class label; carries the
/// label error (if any) forward to `build()` so the fluent chain never
/// breaks mid-expression.
#[derive(Debug, Clone)]
pub struct ClassLabelled<P> {
    inner: Result<ServeRequestBuilder<P>, ServeError>,
}

impl<P> ClassLabelled<P> {
    /// Override the coalescing key (defaults to the class label).
    pub fn batch_key(self, key: impl Into<String>) -> Self {
        ClassLabelled { inner: self.inner.map(|b| b.batch_key(key)) }
    }

    /// Validate and build, surfacing any deferred label error first.
    pub fn build(self) -> Result<ServeRequest<P>, ServeError> {
        self.inner?.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_standard_class_and_label_batch_key() {
        let r = ServeRequest::builder("acme", 7u32).build().unwrap();
        assert_eq!(r.tenant.as_str(), "acme");
        assert_eq!(r.class, Priority::Standard);
        assert_eq!(r.batch_key, "standard");
        assert_eq!(r.payload, 7);
    }

    #[test]
    fn class_and_batch_key_override() {
        let r = ServeRequest::builder("acme", ())
            .class(Priority::Interactive)
            .batch_key("nl2sql")
            .build()
            .unwrap();
        assert_eq!(r.class, Priority::Interactive);
        assert_eq!(r.batch_key, "nl2sql");
    }

    #[test]
    fn class_label_parses_case_insensitively() {
        let r = ServeRequest::builder("acme", ()).class_label("Interactive").build().unwrap();
        assert_eq!(r.class, Priority::Interactive);
        let r = ServeRequest::builder("acme", ()).class_label("BATCH").build().unwrap();
        assert_eq!(r.class, Priority::Batch);
    }

    #[test]
    fn unknown_class_label_is_a_typed_error() {
        let err = ServeRequest::builder("acme", ()).class_label("urgent").build().unwrap_err();
        assert!(matches!(err, ServeError::InvalidRequest { .. }), "{err}");
        assert!(err.to_string().contains("urgent"));
        // The error survives further chained calls.
        let err = ServeRequest::builder("acme", ())
            .class_label("urgent")
            .batch_key("k")
            .build()
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidRequest { .. }));
    }

    #[test]
    fn empty_tenant_and_batch_key_are_typed_errors() {
        assert!(matches!(
            ServeRequest::builder("", ()).build(),
            Err(ServeError::InvalidRequest { .. })
        ));
        assert!(matches!(
            ServeRequest::builder("  ", ()).build(),
            Err(ServeError::InvalidRequest { .. })
        ));
        assert!(matches!(
            ServeRequest::builder("acme", ()).batch_key("").build(),
            Err(ServeError::InvalidRequest { .. })
        ));
    }
}
