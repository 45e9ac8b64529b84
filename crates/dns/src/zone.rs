//! Authoritative zones.
//!
//! Each cloud provider publishes one zone per domain suffix (for instance
//! `scf.tencentcs.com`). A zone holds exact-name records and, optionally, a
//! wildcard record set that answers for any name under the origin — the
//! paper observes that every provider except Tencent enables wildcard
//! resolution, which is why deleted Tencent functions are the only ones to
//! return NXDOMAIN (§4.4).

use fw_types::{Fqdn, Rdata, RecordType};
use std::collections::HashMap;

/// Outcome of an authoritative lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupOutcome {
    /// Records of the requested type (possibly preceded by CNAMEs the
    /// resolver should chase).
    Records(Vec<(Rdata, u32)>),
    /// The name exists but has no records of the requested type.
    NoData,
    /// The name does not exist in this zone.
    NxDomain,
}

/// An authoritative zone for one domain suffix.
#[derive(Debug, Clone)]
pub struct Zone {
    origin: Fqdn,
    /// Exact records: name → (rdata, ttl) list.
    records: HashMap<Fqdn, Vec<(Rdata, u32)>>,
    /// Wildcard records answering `*.<origin>`; `None` disables wildcards.
    wildcard: Option<Vec<(Rdata, u32)>>,
}

impl Zone {
    /// Create an empty zone rooted at `origin`.
    pub fn new(origin: Fqdn) -> Zone {
        Zone {
            origin,
            records: HashMap::new(),
            wildcard: None,
        }
    }

    /// The zone origin (suffix served by this zone).
    pub fn origin(&self) -> &Fqdn {
        &self.origin
    }

    /// Does this zone answer for `name`?
    pub fn covers(&self, name: &Fqdn) -> bool {
        name.has_suffix(self.origin.as_str())
    }

    /// Add a record for an exact name (which must fall under the origin).
    pub fn add(&mut self, name: Fqdn, rdata: Rdata, ttl: u32) {
        debug_assert!(
            self.covers(&name) || name == self.origin,
            "record {name} outside zone {}",
            self.origin
        );
        self.records.entry(name).or_default().push((rdata, ttl));
    }

    /// Remove all records for a name (function deletion).
    pub fn remove(&mut self, name: &Fqdn) {
        self.records.remove(name);
    }

    /// Enable wildcard resolution: any non-existing name under the origin
    /// resolves to these records (the behaviour of every provider except
    /// Tencent in the paper).
    pub fn set_wildcard(&mut self, records: Vec<(Rdata, u32)>) {
        self.wildcard = Some(records);
    }

    /// Number of exact names in the zone.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Authoritative lookup for `name` with record type `rtype`.
    ///
    /// CNAME semantics: if the name owns a CNAME and the query is not for
    /// CNAME itself, the CNAME record is returned (type `Cname`) and the
    /// resolver chases it.
    pub fn lookup(&self, name: &Fqdn, rtype: RecordType) -> LookupOutcome {
        if let Some(set) = self.records.get(name) {
            // CNAME short-circuits other types.
            if rtype != RecordType::Cname {
                let cnames: Vec<(Rdata, u32)> = set
                    .iter()
                    .filter(|(r, _)| r.rtype() == RecordType::Cname)
                    .cloned()
                    .collect();
                if !cnames.is_empty() {
                    return LookupOutcome::Records(cnames);
                }
            }
            let matched: Vec<(Rdata, u32)> = set
                .iter()
                .filter(|(r, _)| r.rtype() == rtype)
                .cloned()
                .collect();
            if matched.is_empty() {
                LookupOutcome::NoData
            } else {
                LookupOutcome::Records(matched)
            }
        } else if self.covers(name) {
            match &self.wildcard {
                Some(wc) => {
                    let matched: Vec<(Rdata, u32)> = wc
                        .iter()
                        .filter(|(r, _)| {
                            r.rtype() == rtype
                                || (rtype != RecordType::Cname && r.rtype() == RecordType::Cname)
                        })
                        .cloned()
                        .collect();
                    if matched.is_empty() {
                        LookupOutcome::NoData
                    } else {
                        LookupOutcome::Records(matched)
                    }
                }
                None => LookupOutcome::NxDomain,
            }
        } else {
            LookupOutcome::NxDomain
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn fq(s: &str) -> Fqdn {
        Fqdn::parse(s).unwrap()
    }

    fn a(ip: [u8; 4]) -> Rdata {
        Rdata::V4(Ipv4Addr::from(ip))
    }

    #[test]
    fn exact_lookup() {
        let mut z = Zone::new(fq("scf.tencentcs.com"));
        z.add(fq("uid-rand-gz.scf.tencentcs.com"), a([1, 2, 3, 4]), 60);
        match z.lookup(&fq("uid-rand-gz.scf.tencentcs.com"), RecordType::A) {
            LookupOutcome::Records(r) => assert_eq!(r[0].0, a([1, 2, 3, 4])),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_name_without_wildcard_is_nxdomain() {
        let z = Zone::new(fq("scf.tencentcs.com"));
        assert_eq!(
            z.lookup(&fq("gone.scf.tencentcs.com"), RecordType::A),
            LookupOutcome::NxDomain
        );
    }

    #[test]
    fn wildcard_answers_unknown_names() {
        let mut z = Zone::new(fq("on.aws"));
        z.set_wildcard(vec![(a([9, 9, 9, 9]), 60)]);
        match z.lookup(&fq("deleted.lambda-url.us-east-1.on.aws"), RecordType::A) {
            LookupOutcome::Records(r) => assert_eq!(r[0].0, a([9, 9, 9, 9])),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cname_shortcircuits_a_queries() {
        let mut z = Zone::new(fq("fcapp.run"));
        z.add(
            fq("fn-proj-abc.cn-shanghai.fcapp.run"),
            Rdata::Name(fq("ingress.cn-shanghai.fcapp.run")),
            300,
        );
        z.add(fq("ingress.cn-shanghai.fcapp.run"), a([7, 7, 7, 7]), 60);
        match z.lookup(&fq("fn-proj-abc.cn-shanghai.fcapp.run"), RecordType::A) {
            LookupOutcome::Records(r) => {
                assert_eq!(r[0].0.rtype(), RecordType::Cname);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nodata_for_missing_type() {
        let mut z = Zone::new(fq("on.aws"));
        z.add(fq("x.lambda-url.us-east-1.on.aws"), a([1, 1, 1, 1]), 60);
        assert_eq!(
            z.lookup(&fq("x.lambda-url.us-east-1.on.aws"), RecordType::Aaaa),
            LookupOutcome::NoData
        );
    }

    #[test]
    fn removal_turns_wildcardless_zone_to_nxdomain() {
        let mut z = Zone::new(fq("scf.tencentcs.com"));
        let name = fq("f.scf.tencentcs.com");
        z.add(name.clone(), a([1, 2, 3, 4]), 60);
        z.remove(&name);
        assert_eq!(z.lookup(&name, RecordType::A), LookupOutcome::NxDomain);
    }

    #[test]
    fn out_of_zone_is_nxdomain() {
        let z = Zone::new(fq("on.aws"));
        assert_eq!(
            z.lookup(&fq("example.com"), RecordType::A),
            LookupOutcome::NxDomain
        );
    }
}
