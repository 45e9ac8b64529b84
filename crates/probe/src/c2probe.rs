//! Active C2 fingerprint scanning (§5.1).
//!
//! For each candidate domain, the scanner connects on :443 (falling back
//! to :80), replays each family's probe payload from the fingerprint
//! corpus, and matches the responses at the binary level. A relay only
//! answers its own family's handshake, so a hit identifies both the relay
//! and the malware family. This can only find *active* C2 relays — the
//! paper notes the count is therefore a lower bound.

use fw_abuse::c2::{corpus, C2Fingerprint};
use fw_analysis::par::par_map;
use fw_dns::resolver::Resolver;
use fw_http::client::{Batch, ClientConfig, FetchError, HttpClient, SimDialer};
use fw_net::SimNet;
use fw_types::{Fqdn, Rdata, RecordType};
use parking_lot::RwLock;
use std::net::{IpAddr, SocketAddr};
use std::sync::Arc;
use std::time::Duration;

/// A confirmed C2 relay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct C2Detection {
    pub fqdn: Fqdn,
    pub family: &'static str,
    pub signature_id: &'static str,
}

/// The C2 scanner.
pub struct C2Scanner {
    net: SimNet,
    resolver: Arc<RwLock<Resolver>>,
    fingerprints: &'static [C2Fingerprint],
    timeout: Duration,
    now: u64,
}

impl C2Scanner {
    pub fn new(net: SimNet, resolver: Arc<RwLock<Resolver>>) -> C2Scanner {
        C2Scanner {
            net,
            resolver,
            fingerprints: corpus(),
            timeout: Duration::from_secs(10),
            now: 0,
        }
    }

    pub fn with_timeout(mut self, timeout: Duration) -> C2Scanner {
        self.timeout = timeout;
        self
    }

    /// Scan one domain with every signature; first hit wins.
    ///
    /// The corpus is rendered once per domain and flown at each port as
    /// one pipelined flight: one dial (and TLS handshake) and one write
    /// per port instead of one round trip per signature. Responses are
    /// matched in corpus order, so the first hit is the one a
    /// one-request-at-a-time scan finds. A server that hangs up
    /// mid-corpus costs exactly one fresh dial inside the flight, which
    /// re-sends the signatures not yet answered.
    pub fn scan_one(&self, fqdn: &Fqdn) -> Option<C2Detection> {
        let _trace = fw_obs::trace_span("c2scan/domain");
        let addrs = self
            .resolver
            .read()
            .resolve(fqdn, RecordType::A, self.now)
            .ok()?
            .addresses();
        let ip = addrs.iter().find_map(|r| match r {
            Rdata::V4(ip) => Some(*ip),
            _ => None,
        })?;
        let client = HttpClient::new(
            SimDialer::new(self.net.clone()),
            ClientConfig {
                read_timeout: self.timeout,
                ..ClientConfig::default()
            },
        );
        let host = fqdn.as_str();
        let corpus: Batch = self
            .fingerprints
            .iter()
            .map(|sig| sig.probe.to_request(host))
            .collect();
        // Ports 80 and 443, like the paper.
        for (port, tls) in [(443u16, true), (80u16, false)] {
            let addr = SocketAddr::new(IpAddr::V4(ip), port);
            for (sig, outcome) in self
                .fingerprints
                .iter()
                .zip(client.flight(addr, host, tls, &corpus))
            {
                match outcome {
                    Ok(resp) => {
                        if sig.matches(&resp) {
                            return Some(C2Detection {
                                fqdn: fqdn.clone(),
                                family: sig.family,
                                signature_id: sig.signature_id,
                            });
                        }
                    }
                    // Port closed → try the other port; per-request
                    // failures just skip the signature.
                    Err(FetchError::Dial(_)) => break,
                    Err(FetchError::Http(_)) => continue,
                }
            }
        }
        None
    }

    /// Scan `domains` on `workers` clock-registered workers; returns
    /// only the hits, in input order.
    ///
    /// Like `Prober::probe_all`, the work is partitioned round-robin
    /// and every worker registers with the virtual clock before the
    /// first spawns (`fw_analysis::par::fork`), so scan outcomes and
    /// virtual timestamps are schedule-independent. A single worker is
    /// spawned too: scanning on an unregistered caller would leave its
    /// idle keep-alive connection holding a lease that stops the clock.
    pub fn scan_parallel(&self, domains: &[Fqdn], workers: usize) -> Vec<C2Detection> {
        par_map(
            domains,
            workers,
            "c2scan/worker",
            Some(self.net.clock()),
            |_, fqdn| self.scan_one(fqdn),
        )
        .into_iter()
        .flatten()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_abuse::c2::{relay_template, FAMILIES};
    use fw_cloud::behavior::Behavior;
    use fw_cloud::platform::{CloudPlatform, DeploySpec, PlatformConfig};
    use fw_types::ProviderId;

    fn world() -> (CloudPlatform, SimNet, Arc<RwLock<Resolver>>) {
        let net = SimNet::new(17);
        let resolver = Arc::new(RwLock::new(Resolver::new()));
        let platform = CloudPlatform::new(net.clone(), resolver.clone(), PlatformConfig::default());
        (platform, net, resolver)
    }

    fn deploy_relay(platform: &CloudPlatform, family_idx: usize) -> Fqdn {
        let tpl = relay_template(family_idx);
        platform
            .deploy(DeploySpec::new(
                ProviderId::Tencent,
                Behavior::C2Relay {
                    family: tpl.family.to_string(),
                    trigger_path: tpl.trigger_path,
                    trigger_magic: tpl.trigger_magic,
                    reply: tpl.reply,
                },
            ))
            .unwrap()
            .fqdn
    }

    #[test]
    fn finds_planted_relays_with_correct_family() {
        let (platform, net, resolver) = world();
        let relay0 = deploy_relay(&platform, 0); // CobaltStrike
        let relay1 = deploy_relay(&platform, 1); // InfoStealer
        let benign = platform
            .deploy(DeploySpec::new(
                ProviderId::Tencent,
                Behavior::JsonApi {
                    service: "clean".into(),
                },
            ))
            .unwrap()
            .fqdn;

        let scanner = C2Scanner::new(net, resolver).with_timeout(Duration::from_millis(500));
        assert_eq!(corpus().len(), 26);
        let hits = scanner.scan_parallel(&[relay0.clone(), benign.clone(), relay1.clone()], 8);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].fqdn, relay0);
        assert_eq!(hits[0].family, "CobaltStrike");
        assert_eq!(hits[1].fqdn, relay1);
        assert_eq!(hits[1].family, "InfoStealer");
    }

    #[test]
    fn benign_population_yields_no_hits() {
        let (platform, net, resolver) = world();
        let mut domains = Vec::new();
        for behavior in [
            Behavior::JsonApi {
                service: "a".into(),
            },
            Behavior::HtmlPage { title: "b".into() },
            Behavior::PathGated {
                good_path: "/real".into(),
            },
            Behavior::Crasher,
        ] {
            domains.push(
                platform
                    .deploy(DeploySpec::new(ProviderId::Aws, behavior))
                    .unwrap()
                    .fqdn,
            );
        }
        let scanner = C2Scanner::new(net, resolver).with_timeout(Duration::from_millis(500));
        assert!(scanner.scan_parallel(&domains, 8).is_empty());
    }

    #[test]
    fn scan_parallel_is_identical_at_every_worker_count() {
        let (platform, net, resolver) = world();
        let mut domains = Vec::new();
        // Mix of relays (several families) and benign functions.
        for i in 0..6 {
            domains.push(deploy_relay(&platform, i));
            domains.push(
                platform
                    .deploy(DeploySpec::new(
                        ProviderId::Aws,
                        Behavior::JsonApi {
                            service: format!("svc{i}"),
                        },
                    ))
                    .unwrap()
                    .fqdn,
            );
        }
        let scanner = C2Scanner::new(net, resolver).with_timeout(Duration::from_millis(500));
        let baseline = scanner.scan_parallel(&domains, 1);
        assert_eq!(baseline.len(), 6);
        for workers in [3, 8, 16] {
            assert_eq!(
                scanner.scan_parallel(&domains, workers),
                baseline,
                "hit list must be schedule-independent (workers={workers})"
            );
        }
    }

    /// `scan_one` one request at a time: every signature's probe
    /// through `HttpClient::send`, first hit wins, a refused port moves
    /// on to the next.
    fn scan_one_by_one(
        net: &SimNet,
        resolver: &Arc<RwLock<Resolver>>,
        timeout: Duration,
        fqdn: &Fqdn,
    ) -> Option<C2Detection> {
        let answers = resolver.read().resolve(fqdn, RecordType::A, 0).ok()?;
        let ip = answers.addresses().iter().find_map(|r| match r {
            Rdata::V4(ip) => Some(*ip),
            _ => None,
        })?;
        let client = HttpClient::new(
            SimDialer::new(net.clone()),
            ClientConfig {
                read_timeout: timeout,
                ..ClientConfig::default()
            },
        );
        for (port, tls) in [(443u16, true), (80u16, false)] {
            let addr = SocketAddr::new(IpAddr::V4(ip), port);
            for sig in corpus() {
                let req = sig.probe.to_request(fqdn.as_str());
                match client.send(addr, fqdn.as_str(), tls, &req) {
                    Ok(resp) if sig.matches(&resp) => {
                        return Some(C2Detection {
                            fqdn: fqdn.clone(),
                            family: sig.family,
                            signature_id: sig.signature_id,
                        })
                    }
                    Ok(_) | Err(FetchError::Http(_)) => {}
                    Err(FetchError::Dial(_)) => break,
                }
            }
        }
        None
    }

    #[test]
    fn detections_match_a_one_request_at_a_time_scan() {
        let net = SimNet::new(17);
        let resolver = Arc::new(RwLock::new(Resolver::new()));
        let platform = CloudPlatform::new(
            net.clone(),
            resolver.clone(),
            PlatformConfig {
                hang_ms: 100,
                ..PlatformConfig::default()
            },
        );
        let mut domains: Vec<Fqdn> = (0..FAMILIES.len())
            .map(|i| deploy_relay(&platform, i))
            .collect();
        for behavior in [
            Behavior::JsonApi {
                service: "api".into(),
            },
            Behavior::HtmlPage {
                title: "page".into(),
            },
            Behavior::PathGated {
                good_path: "/real".into(),
            },
            Behavior::AuthRequired,
            Behavior::Crasher,
            Behavior::InternalOnly,
        ] {
            let deployed = platform.deploy(DeploySpec::new(ProviderId::Aws, behavior));
            domains.push(deployed.unwrap().fqdn);
        }
        // A deleted AWS function still resolves and answers "not found".
        let deleted = platform
            .deploy(DeploySpec::new(
                ProviderId::Aws,
                Behavior::JsonApi {
                    service: "gone".into(),
                },
            ))
            .unwrap()
            .fqdn;
        assert!(platform.delete(&deleted));
        domains.push(deleted);

        // The hanging function answers 504 within the longer timeout and
        // times out under the shorter one.
        for timeout in [Duration::from_millis(500), Duration::from_millis(50)] {
            let scanner = C2Scanner::new(net.clone(), resolver.clone()).with_timeout(timeout);
            {
                // Scan from a clock-registered thread, as scan workers
                // do. An unregistered caller leases a registration per
                // connection instead, and the :443 connection parked
                // idle in the client would then hold off the virtual
                // time the hanging function needs on :80.
                let _registered = net.clock().register().map(|r| r.activate());
                for fqdn in &domains {
                    assert_eq!(
                        scanner.scan_one(fqdn),
                        scan_one_by_one(&net, &resolver, timeout, fqdn),
                        "{fqdn} at timeout {timeout:?}"
                    );
                }
            }
            let families: Vec<&str> = scanner
                .scan_parallel(&domains, 8)
                .iter()
                .map(|h| h.family)
                .collect();
            assert_eq!(families, FAMILIES, "every relay, and nothing else");
        }
    }

    /// A one-worker scan runs on a clock-registered worker, not on the
    /// caller, so it finishes from a plain unregistered thread even when
    /// the scan needs virtual time to pass. The hanging function
    /// answers :443 at once and sleeps `hang_ms` before answering :80;
    /// an unregistered scanner's idle :443 keep-alive connection would
    /// hold a lease that counts as a running thread, and the sleep would
    /// never fire.
    #[test]
    fn one_worker_scan_from_an_unregistered_thread_lets_virtual_time_pass() {
        let net = SimNet::new(17);
        let resolver = Arc::new(RwLock::new(Resolver::new()));
        let platform = CloudPlatform::new(
            net.clone(),
            resolver.clone(),
            PlatformConfig {
                hang_ms: 100,
                ..PlatformConfig::default()
            },
        );
        let fqdn = platform
            .deploy(DeploySpec::new(ProviderId::Aws, Behavior::InternalOnly))
            .unwrap()
            .fqdn;
        let scanner = C2Scanner::new(net, resolver).with_timeout(Duration::from_millis(500));
        let (done, result) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(scanner.scan_parallel(&[fqdn], 1).len());
        });
        assert_eq!(
            result.recv_timeout(Duration::from_secs(20)),
            Ok(0),
            "a one-worker scan must not stall the virtual clock"
        );
    }

    #[test]
    fn unresolvable_domain_is_skipped() {
        let (_platform, net, resolver) = world();
        let scanner = C2Scanner::new(net, resolver);
        let ghost = Fqdn::parse("ghost.nonexistent-zone.example").unwrap();
        assert!(scanner.scan_one(&ghost).is_none());
    }
}
