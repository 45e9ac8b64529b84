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
    /// are written into a stack buffer, names borrow their stored
    /// string. Byte-identical to std's `Display` for the address (the
    /// row content hashes depend on that), but written directly, without
    /// `core::fmt`: this runs once per row on the scan and hash paths.
    pub fn with_text<R>(&self, f: impl FnOnce(&str) -> R) -> R {
        let mut buf = TextBuf::new();
        match self {
            Rdata::Name(n) => return f(n.as_str()),
            Rdata::V4(ip) => buf.push_v4(*ip),
            Rdata::V6(ip) => buf.push_v6(*ip),
        }
        f(buf.as_str())
    }
}

/// Stack buffer sized for the longest address rendering (a full IPv6
/// address is 39 bytes, an IPv4-mapped one at most 22).
struct TextBuf {
    buf: [u8; 40],
    len: usize,
}

impl TextBuf {
    fn new() -> Self {
        TextBuf {
            buf: [0; 40],
            len: 0,
        }
    }

    fn as_str(&self) -> &str {
        // Only ever filled with ASCII digits, hex digits, '.' and ':'.
        std::str::from_utf8(&self.buf[..self.len]).expect("address text is ascii")
    }

    fn push(&mut self, byte: u8) {
        self.buf[self.len] = byte;
        self.len += 1;
    }

    /// Dotted decimal, as `Display for Ipv4Addr`.
    fn push_v4(&mut self, ip: Ipv4Addr) {
        for (i, octet) in ip.octets().into_iter().enumerate() {
            if i > 0 {
                self.push(b'.');
            }
            if octet >= 100 {
                self.push(b'0' + octet / 100);
            }
            if octet >= 10 {
                self.push(b'0' + octet / 10 % 10);
            }
            self.push(b'0' + octet % 10);
        }
    }

    /// RFC 5952 text, as `Display for Ipv6Addr`: `::ffff:a.b.c.d` for
    /// an IPv4-mapped address; otherwise lowercase hex groups without
    /// leading zeros, with the leftmost longest run of two or more zero
    /// groups written as `::`.
    fn push_v6(&mut self, ip: Ipv6Addr) {
        if let Some(v4) = ip.to_ipv4_mapped() {
            for &b in b"::ffff:" {
                self.push(b);
            }
            return self.push_v4(v4);
        }
        let groups = ip.segments();
        let (mut run_start, mut run_len) = (0, 0);
        let (mut cur_start, mut cur_len) = (0, 0);
        for (i, &group) in groups.iter().enumerate() {
            if group != 0 {
                cur_len = 0;
                continue;
            }
            if cur_len == 0 {
                cur_start = i;
            }
            cur_len += 1;
            if cur_len > run_len {
                (run_start, run_len) = (cur_start, cur_len);
            }
        }
        if run_len > 1 {
            self.push_groups(&groups[..run_start]);
            self.push(b':');
            self.push(b':');
            self.push_groups(&groups[run_start + run_len..]);
        } else {
            self.push_groups(&groups);
        }
    }

    fn push_groups(&mut self, groups: &[u16]) {
        for (i, &group) in groups.iter().enumerate() {
            if i > 0 {
                self.push(b':');
            }
            let digits = (16 - group.leading_zeros()).div_ceil(4).max(1);
            for d in (0..digits).rev() {
                self.push(b"0123456789abcdef"[usize::from(group >> (4 * d)) & 0xf]);
            }
        }
    }
}

impl fmt::Display for Rdata {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with_text(|text| f.write_str(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        assert_eq!(v6.to_string(), "2001:db8::1");
    }

    fn text_of(ip: impl Into<std::net::IpAddr>) -> String {
        match ip.into() {
            std::net::IpAddr::V4(ip) => Rdata::V4(ip).text(),
            std::net::IpAddr::V6(ip) => Rdata::V6(ip).text(),
        }
    }

    #[test]
    fn ip_text_edge_cases_match_std() {
        for text in [
            "::",
            "::1",
            "1::",
            "::ffff:0.0.0.0",
            "0:0:1:0:0:1:0:0",
            "::ffff:255.255.255.255",
            "::1.2.3.4",
            "1:0:2:3:4:5:6:7",
            "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff",
            "2001:db8:0:ffff::a",
        ] {
            let ip: Ipv6Addr = text.parse().unwrap();
            assert_eq!(text_of(ip), format!("{ip}"), "{text}");
        }
        for ip in [
            Ipv4Addr::UNSPECIFIED,
            Ipv4Addr::BROADCAST,
            Ipv4Addr::new(10, 0, 99, 100),
        ] {
            assert_eq!(text_of(ip), format!("{ip}"));
        }
    }

    /// Eight groups where each is zero with probability 1/2 and
    /// otherwise an arbitrary or a small value, so zero runs of every
    /// length tie, touch either end, or stand alone.
    fn zero_biased_v6() -> impl Strategy<Value = Ipv6Addr> {
        (any::<[u8; 16]>(), any::<u16>()).prop_map(|(bytes, mask)| {
            let mut groups = [0u16; 8];
            for (i, group) in groups.iter_mut().enumerate() {
                let raw = u16::from_be_bytes([bytes[2 * i], bytes[2 * i + 1]]);
                *group = match (mask >> (2 * i)) & 3 {
                    0 | 1 => 0,
                    2 => raw & 0xf,
                    _ => raw,
                };
            }
            Ipv6Addr::from(groups)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn v4_text_matches_std(octets in any::<[u8; 4]>()) {
            let ip = Ipv4Addr::from(octets);
            prop_assert_eq!(text_of(ip), format!("{ip}"));
        }

        #[test]
        fn v6_text_matches_std(ip in zero_biased_v6(), raw in any::<[u8; 16]>()) {
            prop_assert_eq!(text_of(ip), format!("{ip}"));
            let ip = Ipv6Addr::from(raw);
            prop_assert_eq!(text_of(ip), format!("{ip}"));
        }

        #[test]
        fn v4_mapped_text_matches_std(octets in any::<[u8; 4]>()) {
            let ip = Ipv4Addr::from(octets).to_ipv6_mapped();
            prop_assert_eq!(text_of(ip), format!("{ip}"));
        }
    }
}
