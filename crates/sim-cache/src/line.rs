//! Protection-domain identifiers.
//!
//! Every line of the tag store records the domain that installed it (see
//! [`crate::cache::Cache`]); the DAWG defense partitions ways by domain and
//! the experiments count a domain's resident lines with
//! [`crate::cache::Cache::owned_count_in_set`].

/// The protection/attribution domain a line belongs to.
///
/// In the covert-channel experiments domain 0 is the receiver, domain 1 the
/// sender, and higher values are used for noise processes and benign
/// co-runners.  Defenses such as DAWG use the domain to decide way
/// visibility.
pub type DomainId = u16;
