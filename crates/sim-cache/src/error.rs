use std::fmt;

/// Errors produced while building or operating a simulated cache, or the
/// machine around it.
///
/// The variants are deliberately specific: configuration mistakes are the
/// dominant failure mode when scripting experiments, and a precise message
/// (which field, which value) makes parameter sweeps debuggable.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A cache dimension was not a power of two or was zero.
    InvalidGeometry {
        /// The offending parameter name (for example `"line_size"`).
        field: &'static str,
        /// The rejected value.
        value: usize,
        /// Human-readable requirement the value violated.
        requirement: &'static str,
    },
    /// The requested associativity cannot be represented by the policy.
    UnsupportedAssociativity {
        /// The policy that rejected the configuration.
        policy: &'static str,
        /// The requested number of ways.
        ways: usize,
    },
    /// A way mask allowed no ways at all, so no victim can ever be chosen.
    EmptyWayMask,
    /// An address was outside the simulated memory range.
    AddressOutOfRange {
        /// The rejected address value.
        addr: u64,
    },
    /// A partition domain was configured twice or referenced before creation.
    UnknownDomain {
        /// The numeric domain identifier.
        domain: u16,
    },
    /// A machine value (the TSC, the interrupts) the models cannot compute with.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// Explanation of the constraint that was violated.
        reason: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidGeometry {
                field,
                value,
                requirement,
            } => write!(
                f,
                "invalid cache geometry: {field} = {value} ({requirement})"
            ),
            Error::UnsupportedAssociativity { policy, ways } => {
                write!(f, "policy {policy} does not support {ways}-way sets")
            }
            Error::EmptyWayMask => write!(f, "way mask permits no ways"),
            Error::AddressOutOfRange { addr } => {
                write!(f, "address {addr:#x} is outside the simulated memory")
            }
            Error::UnknownDomain { domain } => {
                write!(f, "partition domain {domain} has not been configured")
            }
            Error::InvalidConfig { field, reason } => {
                write!(f, "invalid machine configuration ({field}): {reason}")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let errors = [
            Error::InvalidGeometry {
                field: "line_size",
                value: 3,
                requirement: "must be a power of two",
            },
            Error::UnsupportedAssociativity {
                policy: "TreePlru",
                ways: 3,
            },
            Error::EmptyWayMask,
            Error::AddressOutOfRange { addr: 0xdead },
            Error::UnknownDomain { domain: 9 },
            Error::InvalidConfig {
                field: "tsc",
                reason: "jitter must be at most i64::MAX".into(),
            },
        ];
        for e in errors {
            let text = e.to_string();
            assert!(!text.is_empty());
            assert!(text.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
