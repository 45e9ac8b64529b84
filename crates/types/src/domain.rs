//! Fully-qualified domain names.
//!
//! Passive DNS keys records by `fqdn`; the identification stage (paper §3.2)
//! matches those names against provider URL-format expressions. [`Fqdn`]
//! normalises to lowercase and validates basic DNS shape so downstream code
//! can compare names with plain equality.

use std::fmt;

/// A validated, lowercase fully-qualified domain name (no trailing dot).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fqdn(String);

impl Fqdn {
    /// Parse and normalise a domain name.
    ///
    /// Accepts letters, digits, hyphens and underscores per label (PDNS
    /// feeds contain underscore labels in the wild), labels of 1–63 bytes,
    /// total length ≤ 253 bytes, at least two labels. A single trailing dot
    /// is stripped.
    pub fn parse(raw: &str) -> Result<Self, crate::FwError> {
        let invalid = || crate::FwError::InvalidDomain(raw.to_string());
        let trimmed = raw.strip_suffix('.').unwrap_or(raw);
        if trimmed.is_empty() || trimmed.len() > 253 {
            return Err(invalid());
        }
        // One pass over the borrowed bytes checks every label, so the
        // lowercase copy below is the only allocation.
        let (mut dots, mut label_len) = (0usize, 0usize);
        for &b in trimmed.as_bytes() {
            if b == b'.' {
                if label_len == 0 {
                    return Err(invalid());
                }
                dots += 1;
                label_len = 0;
            } else if b.is_ascii_alphanumeric() || b == b'-' || b == b'_' {
                label_len += 1;
                if label_len > 63 {
                    return Err(invalid());
                }
            } else {
                return Err(invalid());
            }
        }
        if dots == 0 || label_len == 0 {
            return Err(invalid());
        }
        Ok(Fqdn(trimmed.to_ascii_lowercase()))
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Iterator over labels, left to right.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.0.split('.')
    }

    /// Does this name end with the given suffix *on a label boundary*?
    ///
    /// `a.scf.tencentcs.com` ends with `scf.tencentcs.com` but
    /// `xscf.tencentcs.com` does not.
    pub fn has_suffix(&self, suffix: &str) -> bool {
        // Stored names are already lowercase; compare case-insensitively
        // instead of lowercasing `suffix` into a fresh allocation — this
        // runs per candidate format on the classification hot path.
        let name = self.0.as_bytes();
        let suffix = suffix.as_bytes();
        if name.len() < suffix.len() {
            return false;
        }
        let tail = &name[name.len() - suffix.len()..];
        if !tail.eq_ignore_ascii_case(suffix) {
            return false;
        }
        name.len() == suffix.len() || name[name.len() - suffix.len() - 1] == b'.'
    }

    /// Registrable-suffix convenience: the last `n` labels joined by dots.
    pub fn last_labels(&self, n: usize) -> String {
        let labels: Vec<&str> = self.labels().collect();
        let start = labels.len().saturating_sub(n);
        labels[start..].join(".")
    }
}

impl fmt::Display for Fqdn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::str::FromStr for Fqdn {
    type Err = crate::FwError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Fqdn::parse(s)
    }
}

impl AsRef<str> for Fqdn {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_lowercases() {
        let f = Fqdn::parse("Example.COM").unwrap();
        assert_eq!(f.as_str(), "example.com");
    }

    #[test]
    fn strips_trailing_dot() {
        assert_eq!(Fqdn::parse("a.b.").unwrap().as_str(), "a.b");
    }

    #[test]
    fn rejects_bad_names() {
        for bad in ["", ".", "single", "a..b", "-\u{1F600}.com", "a b.com"] {
            assert!(Fqdn::parse(bad).is_err(), "{bad:?} should be rejected");
        }
        let long_label = format!("{}.com", "a".repeat(64));
        assert!(Fqdn::parse(&long_label).is_err());
        let long_total = format!("{}.com", "a.".repeat(130));
        assert!(Fqdn::parse(&long_total).is_err());
    }

    #[test]
    fn accepts_underscores_and_hyphens() {
        assert!(Fqdn::parse("_dmarc.example.com").is_ok());
        assert!(Fqdn::parse("my-fn-abc.fcapp.run").is_ok());
    }

    #[test]
    fn suffix_matching_is_label_aligned() {
        let f = Fqdn::parse("a.scf.tencentcs.com").unwrap();
        assert!(f.has_suffix("scf.tencentcs.com"));
        assert!(f.has_suffix("tencentcs.com"));
        assert!(!f.has_suffix("cf.tencentcs.com"));
        let g = Fqdn::parse("xscf.tencentcs.com").unwrap();
        assert!(!g.has_suffix("scf.tencentcs.com"));
        // exact equality counts as suffix
        let h = Fqdn::parse("scf.tencentcs.com").unwrap();
        assert!(h.has_suffix("scf.tencentcs.com"));
    }

    #[test]
    fn last_labels() {
        let f = Fqdn::parse("x.y.fcapp.run").unwrap();
        assert_eq!(f.last_labels(2), "fcapp.run");
        assert_eq!(f.last_labels(10), "x.y.fcapp.run");
    }

    /// The split-and-collect parser the one-pass [`Fqdn::parse`]
    /// replaced, kept as its oracle.
    fn parse_by_split(raw: &str) -> Result<Fqdn, crate::FwError> {
        let trimmed = raw.strip_suffix('.').unwrap_or(raw);
        if trimmed.is_empty() || trimmed.len() > 253 {
            return Err(crate::FwError::InvalidDomain(raw.to_string()));
        }
        let lower = trimmed.to_ascii_lowercase();
        let labels: Vec<&str> = lower.split('.').collect();
        if labels.len() < 2 {
            return Err(crate::FwError::InvalidDomain(raw.to_string()));
        }
        for label in &labels {
            if label.is_empty() || label.len() > 63 {
                return Err(crate::FwError::InvalidDomain(raw.to_string()));
            }
            if !label
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
            {
                return Err(crate::FwError::InvalidDomain(raw.to_string()));
            }
        }
        Ok(Fqdn(lower))
    }

    /// Labels of every length class, 63 and 64 bytes included.
    fn label() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        prop_oneof![
            "[a-zA-Z0-9_-]{0,8}",
            "[a-zA-Z0-9._-]{0,6}",
            "[a-z0-9]{62,65}",
            "[a-zA-Z0-9_-]{0,3}[éİK\u{80}][a-z]{0,3}",
        ]
    }

    /// Names near the 253-byte limit: `len` bytes before the optional
    /// trailing dot, cut into 63-byte labels.
    fn long_name(len: usize, case: u8) -> String {
        let mut name = String::with_capacity(len + 1);
        while name.len() < len {
            if !name.is_empty() && name.len() % 64 == 63 {
                name.push('.');
            } else {
                name.push(if case.is_multiple_of(2) { 'a' } else { 'Z' });
            }
        }
        if case >= 2 {
            name.push('.');
        }
        name
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        #[test]
        fn one_pass_parse_matches_split_parse(
            labels in proptest::collection::vec(label(), 1..6),
            dots in "\\.{0,2}",
            (len, case) in (248usize..258, 0u8..4),
            pick in 0u8..4,
        ) {
            let raw = match pick {
                0 => long_name(len, case),
                1 => format!("{}.{}", long_name(len - 4, case), labels[0]),
                _ => format!("{}{dots}", labels.join(".")),
            };
            proptest::prop_assert_eq!(Fqdn::parse(&raw), parse_by_split(&raw), "input {:?}", raw);
        }
    }
}
