//! The error [`crate::Fqdn::parse`] returns.
//!
//! It names a rejected domain. Crates with failure modes of their own
//! define their own error types (`fw_store::StoreError`,
//! `fw_http::parse::HttpError`, `fw_dns::resolver::ResolveError`, ...).

use std::fmt;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FwError {
    /// A domain name failed validation.
    InvalidDomain(String),
}

impl fmt::Display for FwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FwError::InvalidDomain(d) => write!(f, "invalid domain name: {d:?}"),
        }
    }
}

impl std::error::Error for FwError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_domain_names_the_input() {
        let e = FwError::InvalidDomain("a..b".into());
        assert_eq!(e.to_string(), r#"invalid domain name: "a..b""#);
    }
}
