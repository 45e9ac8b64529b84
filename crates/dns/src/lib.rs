//! # fw-dns
//!
//! The DNS substrate for `faaswild`:
//!
//! * [`zone`] — authoritative zones with exact and wildcard records plus
//!   CNAME chains. Providers in `fw-cloud` publish their ingress records
//!   here; Tencent's "no wildcard" policy (paper §4.4) is a zone flag.
//! * [`resolver`] — a recursive resolver with a TTL cache and a pluggable
//!   *passive-DNS sensor*: every client query is observed the way the
//!   paper's collaborating resolver operator observes traffic.
//! * [`pdns`] — the passive-DNS store: daily-aggregated
//!   `<fqdn, rtype, rdata, first_seen, last_seen, request_cnt, pdate>`
//!   tuples and the per-fqdn aggregates (`first_seen_all`, `days_count`,
//!   `total_request_cnt`, rdata distribution) that §3.2 computes.

pub mod pdns;
pub mod resolver;
pub mod zone;

pub use pdns::{FqdnAggregate, PdnsRecord, PdnsRow, PdnsStore};
pub use resolver::{ResolveError, Resolver};
pub use zone::Zone;
