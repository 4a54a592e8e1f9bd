//! Error type for the WB-channel crate.

use std::fmt;

/// Errors produced while configuring or running WB-channel experiments.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// An invalid symbol encoding was requested (e.g. `d = 0` or `d > W` for
    /// binary symbols, non-monotonic dirty counts for multi-bit symbols).
    InvalidEncoding {
        /// Explanation of the rejected parameter.
        reason: String,
    },
    /// An invalid channel configuration (period, target set, replacement-set
    /// size, …).
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// Explanation of the constraint that was violated.
        reason: String,
    },
    /// The underlying cache simulator rejected its configuration.
    Cache(sim_cache::Error),
    /// The receiver could not calibrate its decision thresholds: a class was
    /// empty, or the means did not strictly increase with the dirty lines.
    CalibrationFailed {
        /// Explanation of what went wrong.
        reason: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidEncoding { reason } => write!(f, "invalid symbol encoding: {reason}"),
            Error::InvalidConfig { field, reason } => {
                write!(f, "invalid channel configuration ({field}): {reason}")
            }
            Error::Cache(e) => write!(f, "cache simulator error: {e}"),
            Error::CalibrationFailed { reason } => write!(f, "calibration failed: {reason}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Cache(e) => Some(e),
            _ => None,
        }
    }
}

/// A machine's `InvalidConfig` keeps its field; other simulator errors wrap.
impl From<sim_cache::Error> for Error {
    fn from(value: sim_cache::Error) -> Self {
        match value {
            sim_cache::Error::InvalidConfig { field, reason } => {
                Self::InvalidConfig { field, reason }
            }
            other => Error::Cache(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let errors = [
            Error::InvalidEncoding {
                reason: "d must be between 1 and 8".into(),
            },
            Error::InvalidConfig {
                field: "period_cycles",
                reason: "must be non-zero".into(),
            },
            Error::Cache(sim_cache::Error::EmptyWayMask),
            Error::CalibrationFailed {
                reason: "classes overlap".into(),
            },
        ];
        for e in errors {
            let text = e.to_string();
            assert!(!text.is_empty());
            assert!(text.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn cache_errors_convert_and_expose_source() {
        let e: Error = sim_cache::Error::EmptyWayMask.into();
        assert!(matches!(e, Error::Cache(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn machine_config_errors_keep_their_field() {
        let e: Error = sim_cache::Error::InvalidConfig {
            field: "tsc",
            reason: "jitter too large".into(),
        }
        .into();
        assert_eq!(
            e,
            Error::InvalidConfig {
                field: "tsc",
                reason: "jitter too large".into()
            }
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
