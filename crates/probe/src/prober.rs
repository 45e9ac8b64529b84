//! The active HTTP(S) prober (§3.3).
//!
//! Ethics policy mirrored from the paper and Appendix A:
//! parameter-free GETs only, HTTPS first with HTTP fallback, fewer than
//! three content requests per function (so at most two: HTTPS + the
//! HTTP fallback), a uniform timeout, and an identifying
//! `User-Agent` (the paper additionally ran an opt-out page on the probe
//! host).

use fw_analysis::par::par_map;
use fw_dns::resolver::{ResolveError, Resolver};
use fw_http::client::{ClientConfig, FetchError, HttpClient, SimDialer};
use fw_http::types::Response;
use fw_http::url::Url;
use fw_net::{ClockSource as _, SimNet};
use fw_types::{Fqdn, Rdata, RecordType};
use parking_lot::RwLock;
use std::net::{IpAddr, SocketAddr};
use std::sync::Arc;
use std::time::Duration;

/// Prober configuration.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// Uniform per-request timeout (paper: 60 s; tests use less).
    pub timeout: Duration,
    /// Hard cap on requests per function (paper Appendix A: < 3 content
    /// requests; HTTPS + HTTP fallback = 2).
    pub max_requests_per_function: u32,
    /// Worker threads for the sweep.
    pub workers: usize,
    /// Virtual timestamp (seconds) used for DNS resolution.
    pub now: u64,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            timeout: Duration::from_secs(60),
            // Appendix A promises "less than 3 content requests" per
            // function, i.e. at most 2: the HTTPS attempt plus the HTTP
            // fallback. (The old default of 3 satisfied "≤ 3" but not
            // the paper's strict "< 3".)
            max_requests_per_function: 2,
            workers: 8,
            now: 0,
        }
    }
}

/// Opt-out registry (Appendix A): "We offered an opt-out option for
/// participants (cloud function owners), and if they opted out, we would
/// stop accessing their functions and discard all related data."
///
/// Entries are exact fqdns or `*.suffix` patterns covering an owner's
/// whole namespace (a Tencent account's `<uid>-` prefix is matched via
/// the prefix form `uid:<account>`).
#[derive(Debug, Clone, Default)]
pub struct OptOutRegistry {
    exact: std::collections::HashSet<Fqdn>,
    suffixes: Vec<String>,
    uid_prefixes: Vec<String>,
}

impl OptOutRegistry {
    pub fn new() -> OptOutRegistry {
        OptOutRegistry::default()
    }

    /// Opt out one exact domain.
    pub fn add_domain(&mut self, fqdn: Fqdn) {
        self.exact.insert(fqdn);
    }

    /// Opt out everything under a suffix (`scf.tencentcs.com` would be
    /// absurd; owners use their project suffix like
    /// `cn-shanghai.fcapp.run` is too broad too — typically a full
    /// domain; the suffix form exists for multi-function owners).
    pub fn add_suffix(&mut self, suffix: &str) {
        self.suffixes.push(suffix.to_ascii_lowercase());
    }

    /// Opt out a whole account by its domain prefix (Tencent's
    /// `<UserID>-` form).
    pub fn add_owner_prefix(&mut self, prefix: &str) {
        self.uid_prefixes.push(prefix.to_ascii_lowercase());
    }

    /// Is this domain opted out?
    pub fn contains(&self, fqdn: &Fqdn) -> bool {
        self.exact.contains(fqdn)
            || self.suffixes.iter().any(|s| fqdn.has_suffix(s))
            || self
                .uid_prefixes
                .iter()
                .any(|p| fqdn.as_str().starts_with(p.as_str()))
    }

    pub fn len(&self) -> usize {
        self.exact.len() + self.suffixes.len() + self.uid_prefixes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Outcome of probing one domain.
#[derive(Debug, Clone)]
pub enum ProbeOutcome {
    /// Got an HTTP response (any status code).
    Responded {
        /// Response came over HTTPS (false = HTTP fallback).
        https: bool,
        response: Response,
    },
    /// The domain no longer resolves (deleted Tencent functions, §4.4).
    DnsFailure(ResolveError),
    /// Resolved but neither HTTPS nor HTTP produced a response.
    Unreachable { reason: String },
    /// Owner opted out (Appendix A): never contacted, no data retained.
    OptedOut,
}

impl ProbeOutcome {
    pub fn status(&self) -> Option<u16> {
        match self {
            ProbeOutcome::Responded { response, .. } => Some(response.status),
            _ => None,
        }
    }

    pub fn is_reachable(&self) -> bool {
        matches!(self, ProbeOutcome::Responded { .. })
    }
}

/// One probed domain with its outcome and request accounting.
#[derive(Debug, Clone)]
pub struct ProbeRecord {
    pub fqdn: Fqdn,
    pub outcome: ProbeOutcome,
    /// HTTP requests actually issued (ethics audit trail).
    pub requests_issued: u32,
}

/// Metric label for the provider owning `fqdn` (Table 1 suffix match),
/// lowercased for `fw.probe.latency_us.<provider>` histogram names.
fn provider_label(fqdn: &Fqdn) -> String {
    fw_types::ProviderId::ALL
        .iter()
        .find(|p| fqdn.has_suffix(p.domain_suffix()))
        .map(|p| p.label().to_ascii_lowercase())
        .unwrap_or_else(|| "other".to_string())
}

/// The prober.
pub struct Prober {
    net: SimNet,
    resolver: Arc<RwLock<Resolver>>,
    config: ProbeConfig,
    opt_out: OptOutRegistry,
}

impl Prober {
    pub fn new(net: SimNet, resolver: Arc<RwLock<Resolver>>, config: ProbeConfig) -> Prober {
        assert!(config.workers >= 1, "need at least one worker");
        assert!(
            config.max_requests_per_function >= 1,
            "budget must allow at least one request"
        );
        Prober {
            net,
            resolver,
            config,
            opt_out: OptOutRegistry::new(),
        }
    }

    /// Install the opt-out registry; opted-out domains are never
    /// contacted (not even resolved).
    pub fn with_opt_out(mut self, registry: OptOutRegistry) -> Prober {
        self.opt_out = registry;
        self
    }

    fn client(&self) -> HttpClient<SimDialer> {
        HttpClient::new(
            SimDialer::new(self.net.clone()),
            ClientConfig {
                read_timeout: self.config.timeout,
                ..ClientConfig::default()
            },
        )
    }

    /// Probe a single domain: resolve, HTTPS, fallback HTTP.
    pub fn probe_one(&self, fqdn: &Fqdn) -> ProbeRecord {
        let _trace = fw_obs::trace_span("probe/domain");
        if self.opt_out.contains(fqdn) {
            fw_obs::counter_inc!("fw.probe.opt_out_skips");
            return ProbeRecord {
                fqdn: fqdn.clone(),
                outcome: ProbeOutcome::OptedOut,
                requests_issued: 0,
            };
        }
        // Read path: cached entries are served under shared locks all
        // the way down, so 16 probe workers do not convoy here.
        let resolution = self
            .resolver
            .read()
            .resolve(fqdn, RecordType::A, self.config.now);
        let addrs = match resolution {
            Ok(res) => res.addresses(),
            Err(e) => {
                fw_obs::counter_inc!("fw.probe.resolve_failures");
                return ProbeRecord {
                    fqdn: fqdn.clone(),
                    outcome: ProbeOutcome::DnsFailure(e),
                    requests_issued: 0,
                };
            }
        };
        let Some(Rdata::V4(ip)) = addrs.iter().find(|r| matches!(r, Rdata::V4(_))).cloned() else {
            return ProbeRecord {
                fqdn: fqdn.clone(),
                outcome: ProbeOutcome::Unreachable {
                    reason: "no IPv4 address".to_string(),
                },
                requests_issued: 0,
            };
        };

        let client = self.client();
        let mut issued = 0u32;
        let mut last_err = String::new();
        for https in [true, false] {
            if issued >= self.config.max_requests_per_function {
                break;
            }
            let url = Url::for_domain(fqdn.as_str(), https);
            issued += 1;
            fw_obs::counter_inc!("fw.probe.requests");
            if !https {
                fw_obs::counter_inc!("fw.probe.https_fallback");
            }
            let clock = self.net.clock();
            let started_us = clock.now_us();
            let result = client.get_url(SocketAddr::new(IpAddr::V4(ip), url.port), &url);
            if fw_obs::enabled() {
                // Per-provider latency names are dynamic, so the
                // registry is addressed directly (the macros cache one
                // handle per call site).
                fw_obs::registry()
                    .histogram(&format!("fw.probe.latency_us.{}", provider_label(fqdn)))
                    .record(clock.now_us().saturating_sub(started_us));
            }
            match result {
                Ok(response) => {
                    return ProbeRecord {
                        fqdn: fqdn.clone(),
                        outcome: ProbeOutcome::Responded { https, response },
                        requests_issued: issued,
                    };
                }
                Err(FetchError::Dial(e)) => last_err = format!("dial: {e}"),
                Err(FetchError::Http(e)) => last_err = format!("http: {e}"),
            }
            if last_err.contains("timed out") {
                fw_obs::counter_inc!("fw.probe.timeouts");
            }
        }
        ProbeRecord {
            fqdn: fqdn.clone(),
            outcome: ProbeOutcome::Unreachable { reason: last_err },
            requests_issued: issued,
        }
    }

    /// Probe many domains with the worker pool; results keep input order.
    ///
    /// Work is partitioned round-robin (domain `i` goes to worker
    /// `i % workers`), not pulled from a shared queue: the assignment —
    /// and with it every per-domain virtual timestamp — is a pure
    /// function of the input, independent of host scheduling. Every
    /// worker is registered with the virtual clock before the first
    /// spawns (`fw_analysis::par::fork`), so timeouts fire
    /// deterministically at quiescence.
    pub fn probe_all(&self, domains: &[Fqdn]) -> Vec<ProbeRecord> {
        par_map(
            domains,
            self.config.workers,
            "probe/worker",
            Some(self.net.clock()),
            |_, fqdn| self.probe_one(fqdn),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_cloud::behavior::Behavior;
    use fw_cloud::platform::{CloudPlatform, DeploySpec, PlatformConfig};
    use fw_types::ProviderId;

    fn world() -> (CloudPlatform, SimNet, Arc<RwLock<Resolver>>) {
        let net = SimNet::new(5);
        let resolver = Arc::new(RwLock::new(Resolver::new()));
        let platform = CloudPlatform::new(
            net.clone(),
            resolver.clone(),
            PlatformConfig {
                // Longer than the 300 ms probe timeout used below, so
                // InternalOnly functions genuinely time out.
                hang_ms: 600,
                ..PlatformConfig::default()
            },
        );
        (platform, net, resolver)
    }

    fn prober(net: &SimNet, resolver: &Arc<RwLock<Resolver>>) -> Prober {
        Prober::new(
            net.clone(),
            resolver.clone(),
            ProbeConfig {
                timeout: Duration::from_millis(300),
                workers: 4,
                ..ProbeConfig::default()
            },
        )
    }

    #[test]
    fn probes_live_function_over_https() {
        let (platform, net, resolver) = world();
        let d = platform
            .deploy(DeploySpec::new(
                ProviderId::Aws,
                Behavior::JsonApi {
                    service: "x".into(),
                },
            ))
            .unwrap();
        let rec = prober(&net, &resolver).probe_one(&d.fqdn);
        match &rec.outcome {
            ProbeOutcome::Responded { https, response } => {
                assert!(*https, "should succeed on the https attempt");
                assert_eq!(response.status, 200);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(rec.requests_issued, 1);
    }

    #[test]
    fn deleted_tencent_function_is_dns_failure() {
        let (platform, net, resolver) = world();
        let d = platform
            .deploy(DeploySpec::new(ProviderId::Tencent, Behavior::EmptyOk))
            .unwrap();
        platform.delete(&d.fqdn);
        let rec = prober(&net, &resolver).probe_one(&d.fqdn);
        assert!(matches!(
            rec.outcome,
            ProbeOutcome::DnsFailure(ResolveError::NxDomain)
        ));
        assert_eq!(rec.requests_issued, 0);
    }

    #[test]
    fn internal_only_function_is_unreachable() {
        let (platform, net, resolver) = world();
        let d = platform
            .deploy(DeploySpec::new(ProviderId::Aws, Behavior::InternalOnly))
            .unwrap();
        let rec = prober(&net, &resolver).probe_one(&d.fqdn);
        match &rec.outcome {
            ProbeOutcome::Unreachable { reason } => {
                assert!(
                    reason.contains("timed out") || reason.contains("http"),
                    "{reason}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // HTTPS attempt + HTTP fallback — exactly the "< 3 content
        // requests" budget of Appendix A.
        assert_eq!(rec.requests_issued, 2);
    }

    #[test]
    fn ethics_budget_is_never_exceeded() {
        let (platform, net, resolver) = world();
        let mut domains = Vec::new();
        for behavior in [Behavior::EmptyOk, Behavior::InternalOnly, Behavior::Crasher] {
            domains.push(
                platform
                    .deploy(DeploySpec::new(ProviderId::Aws, behavior))
                    .unwrap()
                    .fqdn,
            );
        }
        let recs = prober(&net, &resolver).probe_all(&domains);
        for rec in recs {
            // Appendix A: "< 3 content requests" per function, i.e. at
            // most 2 (HTTPS + HTTP fallback).
            assert!(rec.requests_issued <= 2, "{rec:?}");
        }
    }

    #[test]
    fn default_cap_is_below_three_and_always_enforced() {
        // Regression for the paper's "< 3 content requests" promise: the
        // default budget must be strictly below 3 ...
        assert!(ProbeConfig::default().max_requests_per_function < 3);

        // ... and a tighter budget suppresses the HTTP fallback: a
        // function reachable only over HTTP stays Unreachable with a
        // single issued request when the cap is 1.
        let (platform, net, resolver) = world();
        let d = platform
            .deploy(DeploySpec::new(ProviderId::Aws, Behavior::InternalOnly))
            .unwrap();
        let tight = Prober::new(
            net.clone(),
            resolver.clone(),
            ProbeConfig {
                timeout: Duration::from_millis(300),
                workers: 1,
                max_requests_per_function: 1,
                now: 0,
            },
        );
        let rec = tight.probe_one(&d.fqdn);
        assert!(matches!(rec.outcome, ProbeOutcome::Unreachable { .. }));
        assert_eq!(rec.requests_issued, 1, "cap of 1 forbids the fallback");
    }

    #[test]
    fn probe_all_preserves_order_and_covers_everything() {
        let (platform, net, resolver) = world();
        let mut domains = Vec::new();
        for i in 0..12 {
            let d = platform
                .deploy(DeploySpec::new(
                    ProviderId::Google2,
                    Behavior::JsonApi {
                        service: format!("svc{i}"),
                    },
                ))
                .unwrap();
            domains.push(d.fqdn);
        }
        let recs = prober(&net, &resolver).probe_all(&domains);
        assert_eq!(recs.len(), 12);
        for (i, rec) in recs.iter().enumerate() {
            assert_eq!(rec.fqdn, domains[i], "order preserved");
            let status = rec.outcome.status().expect("responded");
            assert_eq!(status, 200);
            if let ProbeOutcome::Responded { response, .. } = &rec.outcome {
                assert!(response.body_text().contains(&format!("svc{i}")));
            }
        }
    }

    #[test]
    fn status_codes_surface_for_figure6() {
        let (platform, net, resolver) = world();
        let cases = [
            (
                Behavior::PathGated {
                    good_path: "/x".into(),
                },
                404,
            ),
            (Behavior::AuthRequired, 401),
            (Behavior::Crasher, 502),
            (Behavior::EmptyOk, 200),
        ];
        for (behavior, expect) in cases {
            let d = platform
                .deploy(DeploySpec::new(ProviderId::Aliyun, behavior))
                .unwrap();
            let rec = prober(&net, &resolver).probe_one(&d.fqdn);
            assert_eq!(rec.outcome.status(), Some(expect));
        }
    }

    #[test]
    fn opted_out_domains_never_contacted() {
        let (platform, net, resolver) = world();
        let d = platform
            .deploy(DeploySpec::new(
                ProviderId::Aws,
                Behavior::JsonApi {
                    service: "private".into(),
                },
            ))
            .unwrap();
        let other = platform
            .deploy(DeploySpec::new(ProviderId::Aws, Behavior::EmptyOk))
            .unwrap();
        let mut registry = OptOutRegistry::new();
        registry.add_domain(d.fqdn.clone());
        let prober = Prober::new(
            net,
            resolver,
            ProbeConfig {
                timeout: Duration::from_millis(300),
                workers: 2,
                ..ProbeConfig::default()
            },
        )
        .with_opt_out(registry);
        let recs = prober.probe_all(&[d.fqdn.clone(), other.fqdn.clone()]);
        assert!(matches!(recs[0].outcome, ProbeOutcome::OptedOut));
        assert_eq!(recs[0].requests_issued, 0, "no request may be issued");
        assert_eq!(platform.invocation_count(&d.fqdn), 0, "never invoked");
        assert_eq!(recs[1].outcome.status(), Some(200), "others still probed");
    }

    #[test]
    fn opt_out_registry_matching_forms() {
        let mut r = OptOutRegistry::new();
        assert!(r.is_empty());
        r.add_domain(Fqdn::parse("one.lambda-url.us-east-1.on.aws").unwrap());
        r.add_suffix("cn-shanghai.fcapp.run");
        r.add_owner_prefix("1300000001-");
        assert_eq!(r.len(), 3);
        assert!(r.contains(&Fqdn::parse("one.lambda-url.us-east-1.on.aws").unwrap()));
        assert!(r.contains(&Fqdn::parse("any-proj-abcdefghij.cn-shanghai.fcapp.run").unwrap()));
        assert!(r.contains(&Fqdn::parse("1300000001-abcde12345-gz.scf.tencentcs.com").unwrap()));
        assert!(!r.contains(&Fqdn::parse("1300000002-abcde12345-gz.scf.tencentcs.com").unwrap()));
        assert!(!r.contains(&Fqdn::parse("two.lambda-url.us-east-1.on.aws").unwrap()));
    }

    #[test]
    fn never_deployed_domain_on_wildcard_provider_is_404() {
        let (platform, net, resolver) = world();
        platform
            .deploy(DeploySpec::new(ProviderId::Google2, Behavior::EmptyOk))
            .unwrap();
        let ghost = Fqdn::parse("ghost-abcdefghij-uc.a.run.app").unwrap();
        let rec = prober(&net, &resolver).probe_one(&ghost);
        assert_eq!(rec.outcome.status(), Some(404));
    }
}
