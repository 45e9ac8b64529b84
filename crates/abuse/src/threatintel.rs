//! Threat-intelligence oracle (Finding 10's defence gap).
//!
//! The paper checked every abused function against VirusTotal and found
//! only four flagged — all C2 relays — i.e. 0.67% coverage of the 594
//! abused functions. This oracle reproduces that coverage shape: it knows
//! a tiny, fixed subset of the planted C2 infrastructure and nothing
//! about the web/promo/proxy abuse, because multi-AV feeds key on
//! *malware distribution*, not on policy-violating content.

use fw_types::Fqdn;
use std::collections::HashSet;

/// Simulated multi-scanner verdict source.
#[derive(Debug, Default)]
pub struct ThreatIntel {
    flagged: HashSet<Fqdn>,
}

/// How many of the known C2 domains a VT-like feed flags (the paper
/// found 4).
pub const PAPER_FLAGGED_C2: usize = 4;

impl ThreatIntel {
    pub fn new() -> ThreatIntel {
        ThreatIntel::default()
    }

    /// Build an oracle with paper-shaped coverage: the first
    /// [`PAPER_FLAGGED_C2`] of the supplied C2 domains (deterministic
    /// order = sorted), nothing else.
    pub fn with_paper_coverage(c2_domains: &[Fqdn]) -> ThreatIntel {
        let mut sorted: Vec<&Fqdn> = c2_domains.iter().collect();
        sorted.sort();
        ThreatIntel {
            flagged: sorted.into_iter().take(PAPER_FLAGGED_C2).cloned().collect(),
        }
    }

    /// Is the domain flagged as malicious?
    pub fn is_flagged(&self, fqdn: &Fqdn) -> bool {
        self.flagged.contains(fqdn)
    }

    /// Count of flagged domains among a set (the Finding 10 numerator).
    pub fn flagged_among<'a, I: IntoIterator<Item = &'a Fqdn>>(&self, domains: I) -> usize {
        domains.into_iter().filter(|d| self.is_flagged(d)).count()
    }

    pub fn flagged_count(&self) -> usize {
        self.flagged.len()
    }
}

/// URL-reputation oracle — the McAfee-WebAdvisor role from §5.3: the
/// paper submitted extracted redirect targets and found three flagged as
/// potentially malicious. Reputation services key on lexical and
/// registration signals; this oracle encodes the lexical part (shady
/// TLDs, random-subdomain wildcards, known-brand lookalikes) and accepts
/// explicit blacklist entries.
#[derive(Debug, Default)]
pub struct UrlReputation {
    blacklist: HashSet<String>,
}

/// Verdict for one URL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UrlVerdict {
    /// Flagged as potentially malicious.
    Flagged,
    /// Nothing known against it.
    Unknown,
    /// On the reviewer's well-known allowlist (sogou, bilibili...).
    WellKnown,
}

impl UrlReputation {
    pub fn new() -> UrlReputation {
        UrlReputation::default()
    }

    /// Blacklist a specific host.
    pub fn blacklist_host(&mut self, host: &str) {
        self.blacklist.insert(host.to_ascii_lowercase());
    }

    /// Assess one URL (or `*.suffix` wildcard from random-splicing
    /// redirects).
    pub fn assess(&self, url: &str) -> UrlVerdict {
        let lower = url.to_ascii_lowercase();
        let host = lower
            .trim_start_matches("https://")
            .trim_start_matches("http://")
            .trim_start_matches("*.")
            .split(['/', '?'])
            .next()
            .unwrap_or("");
        const WELL_KNOWN: &[&str] = &[
            "www.sogou.com",
            "www.baidu.com",
            "www.bilibili.com",
            "www.google.com",
            "github.com",
        ];
        if WELL_KNOWN.contains(&host) {
            return UrlVerdict::WellKnown;
        }
        if self.blacklist.contains(host) {
            return UrlVerdict::Flagged;
        }
        // Lexical heuristics reputation feeds actually use.
        let shady_tld = [".xyz", ".top", ".icu", ".cyou", ".rest"]
            .iter()
            .any(|t| host.ends_with(t));
        let wildcard_subdomain = lower.contains("*.") || url.starts_with("*.");
        let brand_lookalike =
            host.contains("fxbtg") || host.contains("-trade") || host.contains("illicit");
        if (shady_tld && wildcard_subdomain) || brand_lookalike {
            return UrlVerdict::Flagged;
        }
        UrlVerdict::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fq(s: &str) -> Fqdn {
        Fqdn::parse(s).unwrap()
    }

    #[test]
    fn paper_coverage_flags_exactly_four() {
        let c2: Vec<Fqdn> = (0..16)
            .map(|i| fq(&format!("130000000{i}-abcdefghi{i}-gz.scf.tencentcs.com")))
            .collect();
        let ti = ThreatIntel::with_paper_coverage(&c2);
        assert_eq!(ti.flagged_count(), PAPER_FLAGGED_C2);
        assert_eq!(ti.flagged_among(c2.iter()), 4);
    }

    #[test]
    fn fewer_c2_than_coverage_flags_all() {
        let c2 = vec![fq("a.on.aws"), fq("b.on.aws")];
        let ti = ThreatIntel::with_paper_coverage(&c2);
        assert_eq!(ti.flagged_count(), 2);
    }

    #[test]
    fn non_c2_abuse_never_flagged() {
        let ti = ThreatIntel::with_paper_coverage(&[fq("c2.on.aws")]);
        assert!(!ti.is_flagged(&fq("gambling-site-x.a.run.app")));
        assert!(!ti.is_flagged(&fq("promo-fn-y.cn-shanghai.fcapp.run")));
    }

    #[test]
    fn url_reputation_verdicts() {
        let mut rep = UrlReputation::new();
        rep.blacklist_host("dlcy.zeldalink.top");
        // Well-known destinations (the §5.3 exclusions).
        assert_eq!(rep.assess("https://www.sogou.com/"), UrlVerdict::WellKnown);
        assert_eq!(
            rep.assess("https://www.bilibili.com/"),
            UrlVerdict::WellKnown
        );
        // Explicit blacklist.
        assert_eq!(
            rep.assess("http://dlcy.zeldalink.top/wlxcList.html"),
            UrlVerdict::Flagged
        );
        // Lexical: random-splice wildcard on a shady TLD (Table 4).
        assert_eq!(rep.assess("*.yerbsdga.xyz"), UrlVerdict::Flagged);
        // Brand-lookalike (the FXBTG case).
        assert_eq!(
            rep.assess("https://fxbtg-trade.example-broker.net/login"),
            UrlVerdict::Flagged
        );
        // Ordinary unknown site.
        assert_eq!(rep.assess("https://example.org/page"), UrlVerdict::Unknown);
    }

    #[test]
    fn deterministic_selection() {
        let c2: Vec<Fqdn> = (0..10).map(|i| fq(&format!("f{i}.on.aws"))).collect();
        let a = ThreatIntel::with_paper_coverage(&c2);
        let mut shuffled = c2.clone();
        shuffled.reverse();
        let b = ThreatIntel::with_paper_coverage(&shuffled);
        for d in &c2 {
            assert_eq!(a.is_flagged(d), b.is_flagged(d), "{d}");
        }
    }
}
