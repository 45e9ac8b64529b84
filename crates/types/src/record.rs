//! DNS record types and rdata as they appear in passive-DNS tuples.
//!
//! The paper's analysis (Table 2) distinguishes three resolution outcomes:
//! A (rtype=1), CNAME (rtype=5) and AAAA (rtype=28). This module carries
//! exactly that subset.

use crate::Fqdn;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// DNS record type; each variant notes its PDNS `rtype` code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecordType {
    /// IPv4 address record (rtype = 1).
    A,
    /// Canonical name record (rtype = 5).
    Cname,
    /// IPv6 address record (rtype = 28).
    Aaaa,
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RecordType::A => "A",
            RecordType::Cname => "CNAME",
            RecordType::Aaaa => "AAAA",
        })
    }
}

/// Resolution data: the right-hand side of a DNS answer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rdata {
    V4(Ipv4Addr),
    V6(Ipv6Addr),
    Name(Fqdn),
}

impl Rdata {
    /// The record type this rdata corresponds to.
    pub fn rtype(&self) -> RecordType {
        match self {
            Rdata::V4(_) => RecordType::A,
            Rdata::V6(_) => RecordType::Aaaa,
            Rdata::Name(_) => RecordType::Cname,
        }
    }

    /// Canonical textual rendering, as a PDNS dump would store it.
    pub fn text(&self) -> String {
        self.with_text(str::to_string)
    }

    /// Run `f` over the canonical text without allocating: addresses
    /// format into a stack buffer, names borrow their stored string.
    /// Byte-identical to [`text`](Self::text) — the row content hashes
    /// depend on that.
    pub fn with_text<R>(&self, f: impl FnOnce(&str) -> R) -> R {
        match self {
            Rdata::Name(n) => f(n.as_str()),
            Rdata::V4(ip) => {
                let mut buf = TextBuf::new();
                use fmt::Write as _;
                write!(buf, "{ip}").expect("ipv4 text fits the stack buffer");
                f(buf.as_str())
            }
            Rdata::V6(ip) => {
                let mut buf = TextBuf::new();
                use fmt::Write as _;
                write!(buf, "{ip}").expect("ipv6 text fits the stack buffer");
                f(buf.as_str())
            }
        }
    }
}

/// Stack buffer sized for the longest address rendering (an IPv6 with an
/// embedded IPv4 tail is 45 bytes).
struct TextBuf {
    buf: [u8; 48],
    len: usize,
}

impl TextBuf {
    fn new() -> Self {
        TextBuf {
            buf: [0; 48],
            len: 0,
        }
    }

    fn as_str(&self) -> &str {
        // Only ever filled through `fmt::Write` with ASCII address text.
        std::str::from_utf8(&self.buf[..self.len]).expect("address text is ascii")
    }
}

impl fmt::Write for TextBuf {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let bytes = s.as_bytes();
        if self.len + bytes.len() > self.buf.len() {
            return Err(fmt::Error);
        }
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
        Ok(())
    }
}

impl fmt::Display for Rdata {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rdata_type_and_text() {
        let v4 = Rdata::V4(Ipv4Addr::new(203, 0, 113, 7));
        assert_eq!(v4.rtype(), RecordType::A);
        assert_eq!(v4.text(), "203.0.113.7");

        let name = Rdata::Name(Fqdn::parse("gz.scf.tencentcs.com").unwrap());
        assert_eq!(name.rtype(), RecordType::Cname);
        assert_eq!(name.text(), "gz.scf.tencentcs.com");

        let v6 = Rdata::V6("2001:db8::1".parse().unwrap());
        assert_eq!(v6.rtype(), RecordType::Aaaa);
    }
}
